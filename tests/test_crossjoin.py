from decimal import Decimal

import pytest

from zechbruijn import (
    Anf,
    CrossJoinPair,
    NlfsrFeedback,
    anf_bits,
    apply_crossjoin,
    crossjoin_bfs,
    enumerate_crossjoin_pairs,
    feedback_of_debruijn,
    fryers_coefficient,
    fryers_coefficients,
    fryers_total,
    insert_zero,
    is_debruijn,
    is_primitive,
    lfsr_bits,
    poly_from_set_notation,
    random_crossjoin,
    zech_closure,
    zech_seed_trinomial,
)
from zechbruijn.gf2poly import seq_windows

from conftest import P4, P5

S5 = [int(c) for c in "00000110110001001011111001110101"]
T5 = [int(c) for c in "00000110110011111000100101110101"]
R5 = [int(c) for c in "00000110111010100101100111110001"]

H_S = ("x0 + x1*x2*x3*x4 + x1*x2*x4 + x1*x3*x4 + x1*x3 + x1 "
       "+ x2*x3*x4 + x2*x3 + x3 + 1")
H_T = ("x0 + x1*x2*x3*x4 + x1*x2*x3 + x1*x2 + x1*x3*x4 + x1*x3 + x1 "
       "+ x2*x3 + x3 + 1")
H_R = ("x0 + x1*x2*x3*x4 + x1*x2*x4 + x1*x3 + x1 + x2*x3*x4 "
       "+ x2*x4 + x2 + x3 + 1")


def count_crossjoin_pairs_naive(seq, n):
    """Quadratic oracle: scan every couple of conjugate pairs positionally."""
    windows = seq_windows(seq, n)
    count = 0
    half = 1 << (n - 1)
    for A in range(half):
        for B in range(A + 1, half):
            marks = []
            for w in windows:
                if w >> 1 == A:
                    marks.append("a")
                elif w >> 1 == B:
                    marks.append("b")
            if marks in (["a", "b", "a", "b"], ["b", "a", "b", "a"]):
                count += 1
    return count


def enumerate_crossjoin_pairs_loop(seq, n):
    """Oracle: the pairwise double loop over tails A < B (the library runs
    the same interleave test as array work)."""
    N = len(seq)
    pos = [None] * (1 << n)
    for j, w in enumerate(seq_windows(seq, n)):
        pos[w] = j
    out = []
    half = 1 << (n - 1)
    for A in range(half):
        pa0, pa1 = pos[A << 1], pos[(A << 1) | 1]
        qa = (pa1 - pa0) % N
        for B in range(A + 1, half):
            q0 = (pos[B << 1] - pa0) % N
            q1 = (pos[(B << 1) | 1] - pa0) % N
            if (q0 < qa) != (q1 < qa):
                out.append(CrossJoinPair(n, A << 1, B << 1))
    return out


# a primitive polynomial for each order 2..10
PRIMITIVE = (0b111, 0b1011, 0x13, 0x25, 0x43, 0x83, 0x11d, 0x211, 0x409)


def test_order5_walkthrough_chain():
    hS = feedback_of_debruijn(S5, 5)
    assert hS == Anf.parse(H_S, 5)
    hT = apply_crossjoin(hS, (0b0011, 0b1110))   # tails A=1100, B=0111
    assert hT == Anf.parse(H_T, 5)
    assert anf_bits(hT, 0, 32) == T5
    hR = apply_crossjoin(hT, (0b1101, 0b0010))   # tails A=1011, B=0100
    assert hR == Anf.parse(H_R, 5)
    assert anf_bits(hR, 0, 32) == R5
    for h in (hS, hT, hR):
        assert is_debruijn(anf_bits(h, 0, 32), 5)


def test_apply_crossjoin_involution_and_domain():
    hS = feedback_of_debruijn(S5, 5)
    pair = (0b0011, 0b1110)
    assert apply_crossjoin(apply_crossjoin(hS, pair), pair) == hS
    with pytest.raises(ValueError):
        apply_crossjoin(hS, (0b0011, 0b0011))


def test_forced_pair_order5(zech5):
    # the published walkthrough prints these states and logarithms; they
    # belong to exponents (7, 21) (the printed (3, 17) resolves to
    # tau = (29, 30) instead -- see DECISIONS.md)
    pair, fb, prov = random_crossjoin(P5, zech=zech5, ab=(7, 21))
    assert (prov["tau_a"], prov["tau_b"]) == (22, 25)
    assert pair.alpha == 0b11010        # (0,1,0,1,1)
    assert pair.beta == 0b10110         # (0,1,1,0,1)
    anf = fb.to_anf()
    assert anf == Anf.parse("x0 + x1*x2*x4 + x1*x3*x4 + x2", 5)
    bits = fb.bits(1, 31)
    assert bits == [int(c) for c in "1000010010111011001111100011010"]
    assert is_debruijn(insert_zero(bits), 5)


def test_forced_pair_3_17_true_values(zech5):
    pair, fb, prov = random_crossjoin(P5, zech=zech5, ab=(3, 17))
    assert (prov["tau_a"], prov["tau_b"]) == (29, 30)
    assert pair.alpha == 0b00100        # (0,0,1,0,0)
    assert pair.beta == 0b00011         # (1,1,0,0,0)
    assert is_debruijn(insert_zero(fb.bits(1, 31)), 5)


def test_forced_pair_rejects_bad_order(zech5):
    with pytest.raises(ValueError):
        random_crossjoin(P5, zech=zech5, ab=(17, 3))


def test_random_sampling_deterministic(zech5):
    a = random_crossjoin(P5, zech=zech5, seed=123)
    b = random_crossjoin(P5, zech=zech5, seed=123)
    assert a[2] == b[2]
    pair, fb, prov = a
    assert prov["a"] < prov["b"] < prov["tau_a"] < prov["tau_b"]
    assert is_debruijn(insert_zero(fb.bits(1, 31)), 5)


def test_trinomial_order31_feedback():
    p31 = poly_from_set_notation("n=31;{3}")
    table = zech_closure(zech_seed_trinomial(p31))
    pair, fb, prov = random_crossjoin(p31, zech=table, ab=(3, 6))
    assert (prov["tau_a"], prov["tau_b"]) == (31, 62)
    assert pair.alpha == 1 << 28 and pair.beta == 1 << 25
    assert fb.degree == 29
    assert len(fb.tails) == 2
    with pytest.raises(ValueError):
        fb.to_anf()     # ~2^29 monomials


def test_order127_family():
    p127 = poly_from_set_notation("n=127;{1}")
    table = zech_closure(zech_seed_trinomial(p127))
    M = (1 << 127) - 1
    orderings = []
    for i in range(16):
        a, b = pow(2, 8 * i, M), pow(2, 1 + 8 * i, M)
        ta, tb = table.resolve(a), table.resolve(b)
        assert ta == 127 * a % M and tb == 127 * b % M
        orderings.append(a < b < ta < tb)
    # the final family member wraps: 127 * 2^121 mod M falls below tau(a)
    assert orderings == [True] * 15 + [False]
    pair, fb, prov = random_crossjoin(p127, zech=table,
                                      ab=(pow(2, 8, M), pow(2, 9, M)))
    assert fb.degree == 125
    # applying several disjoint pairs keeps the degree
    tails = set(fb.tails)
    for i in (2, 3, 4):
        pr, f2, _ = random_crossjoin(p127, zech=table,
                                     ab=(pow(2, 8 * i, M), pow(2, 1 + 8 * i, M)))
        tails ^= f2.tails
    stacked = NlfsrFeedback(p127, frozenset(tails))
    assert stacked.degree == 125


def test_enumerate_counts():
    db4 = insert_zero(lfsr_bits(P4, 1, 15))
    assert len(enumerate_crossjoin_pairs(db4)) == 7
    db5 = insert_zero(lfsr_bits(P5, 1, 31))
    assert len(enumerate_crossjoin_pairs(db5)) == 35
    db3 = [0, 0, 0, 1, 0, 1, 1, 1]
    assert len(enumerate_crossjoin_pairs(db3)) == \
        count_crossjoin_pairs_naive(db3, 3)
    with pytest.raises(ValueError):
        enumerate_crossjoin_pairs([0, 1] * 8)


def _assert_same_pairs(seq, n):
    got = enumerate_crossjoin_pairs(seq, n)
    want = enumerate_crossjoin_pairs_loop(seq, n)
    assert [(q.n, q.alpha, q.beta) for q in got] == \
        [(q.n, q.alpha, q.beta) for q in want]
    assert got == want
    return got


def test_enumerate_matches_loop_oracle_on_m_sequences():
    for p in PRIMITIVE:
        n = p.bit_length() - 1
        assert is_primitive(p)
        pairs = _assert_same_pairs(insert_zero(lfsr_bits(p, 1, (1 << n) - 1)), n)
        # an m-sequence has N(n;3) cross-join pairs (Helleseth and Klove)
        assert len(pairs) == fryers_coefficient(n, 3)
        assert all(isinstance(q, CrossJoinPair) and q.a is None for q in pairs)


def test_enumerate_matches_loop_oracle_on_crossjoined_sequences():
    # de Bruijn sequences that are not m-sequences: one and two
    # cross-joins away from the modified m-sequence
    for p in (0x25, 0x43, 0x11d):
        n = p.bit_length() - 1
        db = insert_zero(lfsr_bits(p, 1, (1 << n) - 1))
        h = feedback_of_debruijn(db, n)
        first = enumerate_crossjoin_pairs(db, n)
        for pair in (first[0], first[len(first) // 2], first[-1]):
            g = apply_crossjoin(h, pair)
            seq = anf_bits(g, 0, 1 << n)
            assert is_debruijn(seq, n)
            second = _assert_same_pairs(seq, n)
            seq2 = anf_bits(apply_crossjoin(g, second[len(second) // 3]), 0, 1 << n)
            _assert_same_pairs(seq2, n)


def test_enumerate_blocks_cover_every_tail(monkeypatch):
    # blocks of a few A rows give the same list as one block
    import zechbruijn.crossjoin as cj

    db = insert_zero(lfsr_bits(0x83, 1, 127))
    whole = enumerate_crossjoin_pairs(db, 7)
    monkeypatch.setattr(cj, "_BLOCK_CELLS", 64 * 3)   # 3 rows of 64 tails
    assert enumerate_crossjoin_pairs(db, 7) == whole
    monkeypatch.setattr(cj, "_BLOCK_CELLS", 1)        # one row per block
    assert enumerate_crossjoin_pairs(db, 7) == whole


def test_crossjoin_pair_record():
    pair = CrossJoinPair(5, 0b11010, 0b10110)
    assert (pair.a, pair.b, pair.tau_a, pair.tau_b) == (None,) * 4
    assert (pair.tail_a, pair.tail_b) == (0b1101, 0b1011)
    assert pair == CrossJoinPair(5, 0b11010, 0b10110, None, None, None, None)
    full = CrossJoinPair(5, 0b11010, 0b10110, a=7, b=21, tau_a=22, tau_b=25)
    assert full.b == 21 and full.tau_b == 25
    with pytest.raises(AttributeError):
        full.a = 3


def test_enumerated_pairs_regenerate_debruijn():
    db4 = insert_zero(lfsr_bits(P4, 1, 15))
    h = feedback_of_debruijn(db4, 4)
    for pair in enumerate_crossjoin_pairs(db4):
        g = apply_crossjoin(h, pair)
        assert is_debruijn(anf_bits(g, 0, 16), 4)
        # truth tables differ in exactly 4 rows (two per product term)
        dist = sum(a != b for a, b in zip(h.truth_table(), g.truth_table()))
        assert dist == 4


def test_exponent_order_implies_interleaving():
    # sorted exponents a < b < tau(a) < tau(b) always produce a couple the
    # positional scan also finds, exhaustively up to order 10
    from zechbruijn import zech_bruteforce
    from zechbruijn.gf2poly import lfsr_step, lfsr_taps

    polys = (P4, P5, (1 << 6) | (1 << 1) | 1,
             (1 << 8) | (1 << 6) | (1 << 5) | (1 << 1) | 1,
             (1 << 10) | (1 << 3) | 1)
    for p in polys:
        n = p.bit_length() - 1
        table = zech_bruteforce(p)
        M = (1 << n) - 1
        mbits = lfsr_bits(p, 1, M)
        db = insert_zero(mbits)
        found = {frozenset((pr.tail_a, pr.tail_b))
                 for pr in enumerate_crossjoin_pairs(db)}
        taps = lfsr_taps(p)
        states = []
        v = 1
        for _ in range(M):
            states.append(v)
            v = lfsr_step(v, taps, n)
        tau = [0] + [table.resolve(k) for k in range(1, M)]
        checked = 0
        for a in range(1, M - 2):
            ta = tau[a]
            if ta <= a:
                continue
            for b in range(a + 1, ta):
                if ta < tau[b]:
                    key = frozenset((states[a] >> 1, states[b] >> 1))
                    assert key in found
                    checked += 1
        assert checked > 0


def test_fryers_small_orders():
    assert [fryers_coefficient(4, k) for k in (1, 3, 5, 7)] == [1, 7, 7, 1]
    assert fryers_coefficient(5, 5) == 273
    assert fryers_coefficient(4, 2) == 0
    assert fryers_total(4) == 16
    assert fryers_total(5) == 2048
    assert fryers_total(6) == 1 << 26
    assert [c for _k, c in fryers_coefficients(5)] == \
        [1, 35, 273, 715, 715, 273, 35, 1]


def test_fryers_helleseth_klove_formula():
    for n in range(2, 21):
        half = 1 << (n - 1)
        assert fryers_coefficient(n, 3) == (half - 1) * (half - 2) // 6


def test_fryers_symmetry_and_totals():
    for n in range(2, 14):
        row = [c for _k, c in fryers_coefficients(n)]
        assert row == row[::-1]
        assert sum(row) == fryers_total(n, verify=False)
        assert row[0] == 1


def test_fryers_iterator_matches_direct():
    for n in (4, 7, 10):
        for k, c in fryers_coefficients(n):
            assert c == fryers_coefficient(n, k)


def test_fryers_rows_match_direct_binomials():
    for n in range(2, 13):
        rows = list(fryers_coefficients(n))
        assert [k for k, _ in rows] == list(range(1, 1 << (n - 1), 2))
        for k, c in rows:
            assert c == fryers_coefficient(n, k)
            assert str(c) == str(fryers_coefficient(n, k))


def test_fryers_values_are_exact_decimals():
    # the sum runs far past the default 28-digit decimal precision
    row = [c for _k, c in fryers_coefficients(13)]
    assert all(isinstance(c, Decimal) for c in row)
    total = fryers_total(13, verify=False)
    assert isinstance(total, Decimal)
    assert sum(row) == total == 2 ** (2 ** 12 - 13)
    assert str(sum(row)) == str(total) and "E" not in str(total)


def test_bfs_order4_finds_all_sixteen():
    db4 = insert_zero(lfsr_bits(P4, 1, 15))
    anfs, truncated = crossjoin_bfs(db4, depth=3)
    assert not truncated and len(anfs) == 16
    anfs0, _ = crossjoin_bfs(db4, depth=0)
    assert len(anfs0) == 1
    anfs1, _ = crossjoin_bfs(db4, depth=1)
    assert len(anfs1) == 8      # start + its 7 neighbours


def test_bfs_order5_first_layer():
    db5 = insert_zero(lfsr_bits(P5, 1, 31))
    anfs, truncated = crossjoin_bfs(db5, depth=1)
    assert not truncated and len(anfs) == 36   # start + N(l;3) = 35


def test_bfs_budget_truncation():
    db4 = insert_zero(lfsr_bits(P4, 1, 15))
    anfs, truncated = crossjoin_bfs(db4, depth=3, budget=2)
    assert truncated and len(anfs) < 16
