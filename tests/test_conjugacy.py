import random
from collections import Counter
from itertools import islice

import pytest

from zechbruijn import (
    CycleCtx,
    associated_irreducible,
    conjugate_of,
    coset_leader,
    cycle_position,
    cyclotomic_numbers,
    exponent_to_state,
    poly_from_set_notation,
    zech_bruteforce,
    zech_closure,
    zech_seed_trinomial,
)
from zechbruijn.cycles import ZERO_CYCLE, primitive_polynomials
from zechbruijn.gf2poly import poly_mod, poly_mul, state_from_bits
from zechbruijn.graph import _coset_pairs

from conftest import P4, P10


def test_conjugate_of_order4(ctx4):
    pos = conjugate_of(ctx4, cycle_position(ctx4, 3))
    assert (pos.cycle, pos.offset) == (2, 4)
    assert pos.state == state_from_bits((1, 0, 0, 1))
    pos = conjugate_of(ctx4, 6)
    assert (pos.cycle, pos.offset) == (1, 4)
    assert pos.state == state_from_bits((1, 0, 1, 1))
    # the pair's members differ exactly in the first coordinate
    assert exponent_to_state(ctx4, 6) ^ pos.state == 1


def test_conjugate_zero_special(ctx4):
    from zechbruijn.cycles import CyclePos

    zero = CyclePos(ZERO_CYCLE, 0, 0)
    back = conjugate_of(ctx4, zero)
    assert (back.cycle, back.offset, back.state) == (0, 0, 1)
    assert conjugate_of(ctx4, 0).cycle is ZERO_CYCLE


def test_conjugate_order300_seed_table_only():
    # tau(7) = 300 from the trinomial identity is enough to place the pair
    p300 = poly_from_set_notation("n=300;{7}")
    table = zech_closure(zech_seed_trinomial(p300))
    ctx = CycleCtx(p300, 31, zech=table)
    pos = conjugate_of(ctx, 7)
    assert (pos.cycle, pos.offset) == (21, 9)


def test_conjugacy_involution(ctx10):
    rng = random.Random(9)
    for _ in range(50):
        k = rng.randrange(1, 1023)
        pos = cycle_position(ctx10, k)
        back = conjugate_of(ctx10, conjugate_of(ctx10, pos))
        assert back == pos


def test_pair_states_differ_in_first_coordinate(ctx10):
    rng = random.Random(10)
    for _ in range(50):
        k = rng.randrange(1, 1023)
        assert cycle_position(ctx10, k).state ^ conjugate_of(ctx10, k).state == 1


def test_pairs_from_coset_order300():
    p300 = poly_from_set_notation("n=300;{7}")
    table = zech_closure(zech_seed_trinomial(p300))
    ctx = CycleCtx(p300, 31, zech=table)
    pairs = next(_coset_pairs(ctx, [7]))
    assert coset_leader(7, 300) == (7, 300)
    assert [m for _a, _b, m in pairs] == [60] * 5
    assert [(a % 31, b % 31) for a, b, _m in pairs] == [
        (7, 21), (14, 11), (28, 22), (25, 13), (19, 26)]
    a, b, _m = pairs[0]
    left, right = cycle_position(ctx, a), cycle_position(ctx, b)
    assert (left.cycle, left.offset) == (7, 0)
    assert (right.cycle, right.offset) == (21, 9)


def test_pairs_from_coset_zero_side(ctx10):
    # an exponent with tau(k) = 0 mod t joins cycles to u_0
    pairs = next(_coset_pairs(ctx10, [85]))
    assert ctx10.zech.resolve(85) % 31 == 0
    assert all(b % 31 == 0 for _a, b, _m in pairs)
    lefts = {a % 31 for a, _b, _m in pairs}
    assert lefts == {85 % 31 * pow(2, s, 31) % 31 for s in range(5)}


def test_pairs_from_coset_same_cycle_signal(ctx10):
    assert ctx10.zech.resolve(341) % 31 == 341 % 31
    assert list(_coset_pairs(ctx10, [341])) == []


def _pair_counts(ctx, j):
    """Oracle: every pair (2^s j, 2^s tau(j)) of the coset of j, counted
    once per distinct unordered pair, by unordered cycle pair."""
    M = ctx.modulus
    seen = set()
    per = Counter()
    a, b = j, ctx.zech.resolve(j)
    for _ in range(coset_leader(j, ctx.n)[1]):
        left, right = cycle_position(ctx, a), cycle_position(ctx, b)
        assert conjugate_of(ctx, a) == right
        if (min(a, b), max(a, b)) not in seen:
            seen.add((min(a, b), max(a, b)))
            per[frozenset((left.cycle, right.cycle))] += 1
        a, b = 2 * a % M, 2 * b % M
    return per


def test_batch_pair_count_matches_iteration(ctx10):
    # a coset and its mirror are distinct (j = 3), or one coset holds each
    # pair twice, once reversed (j = 7 at t = 3 of x^10 + x^4 + x^3 + x + 1)
    p = poly_from_set_notation("n=10;{4,3,1}")
    mirror = CycleCtx(p, 3, zech=zech_bruteforce(p))
    assert coset_leader(mirror.zech.resolve(7), 10)[0] == 7
    for ctx, j in ((ctx10, 3), (mirror, 7)):
        pairs = next(_coset_pairs(ctx, [j]))
        got = Counter()
        for a, b, m in pairs:
            got[frozenset((a % ctx.t, b % ctx.t))] += m
        assert got == _pair_counts(ctx, j)
        assert len(got) == len(pairs)


def _field_log_table(p):
    """Independent discrete log of GF(2^n) by walking powers of x mod p."""
    n = p.bit_length() - 1
    logs = {}
    x = 1
    for e in range((1 << n) - 1):
        logs[x] = e
        x = poly_mod(poly_mul(x, 2), p)
    return logs


def cyclotomic_numbers_loop(ctx):
    """Reference: one Zech lookup per exponent k in [1, 2^n - 2]."""
    t = ctx.t
    counts = [[0] * t for _ in range(t)]
    for k in range(1, ctx.modulus):
        counts[k % t][ctx.zech.resolve(k) % t] += 1
    return counts


def test_cyclotomic_numbers_match_per_exponent_oracle(zech20):
    cases = [(zech_bruteforce(poly_from_set_notation("n=16;{5,3,2}")), 85), (zech20, 205)]
    for n in range(4, 13):
        M = (1 << n) - 1
        for p in islice(primitive_polynomials(n), 3):
            table = zech_bruteforce(p)
            cases += [(table, t) for t in range(1, M)
                      if M % t == 0 and associated_irreducible(p, t)[1]]
    for table, t in cases:
        ctx = CycleCtx(table.p, t, zech=table)
        assert cyclotomic_numbers(ctx) == cyclotomic_numbers_loop(ctx), (table.p, t)


def test_cyclotomic_numbers_order4_against_field_oracle(ctx4):
    got = cyclotomic_numbers(ctx4)
    logs = _field_log_table(P4)
    expect = [[0] * 3 for _ in range(3)]
    for xi, k in logs.items():
        if xi == 1:
            continue  # xi + 1 = 0 sits in no class
        expect[k % 3][logs[xi ^ 1] % 3] += 1
    assert got == expect


def test_cyclotomic_row_sums(ctx4, ctx10):
    for ctx in (ctx4, ctx10):
        mat = cyclotomic_numbers(ctx)
        e = ctx.e
        assert sum(mat[0]) == e - 1      # 1 lies in C_0, excluded
        for i in range(1, ctx.t):
            assert sum(mat[i]) == e
        assert sum(map(sum, mat)) == ctx.modulus - 1


def test_cyclotomic_total_identity(ctx10):
    # one count per k in [1, 2^n - 2]
    assert sum(map(sum, cyclotomic_numbers(ctx10))) == 2**10 - 2


def test_cyclotomic_zero_row_pattern(ctx10):
    mat = cyclotomic_numbers(ctx10)
    nonzero = {i for i in range(1, 31) if mat[0][i] > 0}
    assert nonzero == {3, 6, 7, 12, 14, 15, 17, 19, 23, 24, 25, 27, 28, 29, 30}


def test_cyclotomic_symmetry(ctx10):
    mat = cyclotomic_numbers(ctx10)
    for i in range(31):
        for j in range(31):
            assert mat[i][j] == mat[j][i]


def test_cyclotomic_requires_complete_table():
    p300 = poly_from_set_notation("n=300;{7}")
    ctx = CycleCtx(p300, 31, zech=zech_closure(zech_seed_trinomial(p300)))
    with pytest.raises(ValueError):
        cyclotomic_numbers(ctx)


@pytest.mark.parametrize("p,t", [(P4, 3), (P10, 11)])
def test_edge_counts_equal_cyclotomic_numbers(p, t):
    table = zech_bruteforce(p)
    ctx = CycleCtx(p, t, zech=table)
    mat = cyclotomic_numbers(ctx)
    M = ctx.modulus
    counts = [[0] * t for _ in range(t)]
    for k in range(1, M):
        tk = table.resolve(k)
        if k < tk:      # each unordered pair once
            counts[k % t][tk % t] += 1
            if k % t != tk % t:
                counts[tk % t][k % t] += 1
    for i in range(t):
        for j in range(t):
            if i != j:
                assert counts[i][j] == mat[i][j]
