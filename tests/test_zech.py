import io
import random
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zechbruijn import (
    CorruptTableError,
    MissingEntryError,
    ResourceCapError,
    ZechTable,
    build_zech_table,
    chain_sweep,
    coset_leader,
    poly_from_set_notation,
    zech_bruteforce,
    zech_chain,
    zech_closure,
    zech_seed_trinomial,
    zech_subfield_lift,
)
from zechbruijn import zech as zech_mod
from zechbruijn.cycles import primitive_polynomials
from zechbruijn.gf2poly import lfsr_step, lfsr_taps
from zechbruijn.zech import (
    _array_dtype,
    _leader_shift,
    _normalise,
    coset_elements,
    doubling_orbit,
    num_cosets,
)

from conftest import P4, P10

EXPECT4 = [4, 8, 14, 1, 10, 13, 9, 2, 7, 5, 12, 11, 6, 3]

# the eighteen chaining rows for x^10 + x^3 + 1 (chronological order)
CHAIN_ROWS = [
    ((12, 5), 550, 512), ((12, 7), 43, 523), ((76, 28), 11, 200),
    ((3, 1), 956, 78), ((3, 2), 879, 948), ((12, 2), 909, 874),
    ((12, 10), 37, 161), ((37, 31), 426, 316), ((37, 6), 141, 744),
    ((77, 43), 501, 142), ((77, 34), 402, 958), ((68, 12), 181, 971),
    ((749, 255), 29, 566), ((702, 136), 343, 746), ((434, 109), 27, 206),
    ((349, 333), 33, 660), ((785, 151), 87, 619), ((274, 51), 107, 376),
]


def _clocked_bruteforce(p):
    """Oracle: the brute force that clocks the register twice per state."""
    n = p.bit_length() - 1
    M = (1 << n) - 1
    table = ZechTable(n, p=p)
    if M == 1:
        return table
    taps = lfsr_taps(p)
    pos = np.zeros(1 << n, dtype=np.int64)
    v = 1
    for i in range(M):
        if v == 1 and i:
            raise ValueError("polynomial is not primitive")
        pos[v] = i
        v = lfsr_step(v, taps, n)
    if v != 1:
        raise ValueError("polynomial is not primitive")
    arr = np.arange(M, dtype=np.int64)
    lead = arr.copy()
    cur = arr.copy()
    for _ in range(n - 1):
        cur = (cur << 1) % M
        np.minimum(lead, cur, out=lead)
    is_leader = lead == arr
    v = 1
    for i in range(M):
        if i and is_leader[i]:
            table.entries[i] = (int(pos[v ^ 1]), "bruteforce")
        v = lfsr_step(v, taps, n)
    return table


def _full_closure(table):
    """Oracle: Flip/Inv closure from a queue of every entry."""
    M = table.modulus
    queue = [(lead, v) for lead, (v, _) in table.entries.items()]
    while queue:
        k, v = queue.pop()
        for arg, val, rule in ((v, k, "flip"), (M - k, (v - k) % M, "inv")):
            if arg % M == 0 or val % M == 0:
                continue
            if table.add_entry(arg, val, rule):
                queue.append((arg % M, val % M))
    return table


def _pairs_sweep_oracle(table, budget, steps=None):
    """Oracle: the pair sweep that tests one (i, j) pair at a time and
    re-closes the whole table after each chain step. `steps` collects
    the check number of each chain step."""
    M = table.modulus
    checked = 0
    while True:
        values = {}
        for lead, (v, _) in table.entries.items():
            k, val = lead, v
            while True:
                values[k] = val
                k = (k << 1) % M
                val = (val << 1) % M
                if k == lead:
                    break
        elements = sorted(values)
        progressed = False
        for i in elements:
            ti = values[i]
            for j in elements:
                if j == i:
                    continue
                checked += 1
                if budget is not None and checked > budget:
                    return table
                td = values.get((i - j) % M)
                if td is None:
                    continue
                arg = (ti - values[j]) % M
                if arg == 0 or arg in values:
                    continue
                table.add_entry(arg, (td + j - values[j]) % M, "chain")
                _full_closure(table)
                if steps is not None:
                    steps.append(checked)
                progressed = True
                break
            if progressed:
                break
        if not progressed:
            return table


def _flat_sweep_oracle(table):
    """Oracle: the flat sweep that closes each chain entry one coset at a
    time through `add_entry` and writes each orbit element by element."""
    n, M = table.n, table.modulus
    tau = table.to_array()
    known = tau >= 0

    def add_closed(k, v, prov):
        stack = [(k, v, prov)]
        while stack:
            k, v, prov = stack.pop()
            k %= M
            v %= M
            if k == 0 or v == 0:
                continue
            if known[k]:
                if tau[k] != v:
                    raise CorruptTableError(f"tau({k}) = {tau[k]} vs {v}")
                continue
            table.add_entry(k, v, prov)
            for kk, vv in zip(doubling_orbit(k, M), doubling_orbit(v, M)):
                known[kk] = True
                tau[kk] = vv
            stack.append((v, k, "flip"))
            stack.append((M - k, (v - k) % M, "inv"))

    leaders_all = zech_mod._coset_leaders(n)
    full_scan = False
    while True:
        unknown_leaders = leaders_all[~known[leaders_all]]
        if not len(unknown_leaders):
            break
        jarr = np.nonzero(known)[0]
        if not full_scan and len(jarr) > zech_mod._SWEEP_PREFIX:
            jarr = jarr[:zech_mod._SWEEP_PREFIX]
        else:
            full_scan = True
        progressed = False
        for a in unknown_leaders:
            if known[a]:
                continue
            v = tau[jarr] + a
            v[v >= M] -= M
            c1 = known[v]
            if not c1.any():
                continue
            idx1 = np.nonzero(c1)[0]
            i = tau[v[idx1]]
            d = (i - jarr[idx1]) % M
            c2 = known[d]
            if not c2.any():
                continue
            first = idx1[int(np.nonzero(c2)[0][0])]
            j = int(jarr[first])
            i0 = int(tau[(int(tau[j]) + int(a)) % M])
            val = (int(tau[(i0 - j) % M]) + j - int(tau[j])) % M
            add_closed(int(a), val, "chain")
            progressed = True
        if progressed:
            full_scan = False
        elif full_scan:
            break
        else:
            full_scan = True
    return table


def test_coset_leaders_match_coset_leader():
    for n in range(1, 13):
        want = sorted({coset_leader(k, n)[0] for k in range(1, (1 << n) - 1)})
        got = zech_mod._coset_leaders(n)
        assert got.dtype == np.int64 and got.tolist() == want


def test_bruteforce_matches_clocked_oracle_small_orders():
    for n in range(1, 9):
        for p in primitive_polynomials(n):
            assert list(zech_bruteforce(p).entries.items()) \
                == list(_clocked_bruteforce(p).entries.items()), hex(p)


@pytest.mark.parametrize("spec", ["n=16;{5,3,2}", "n=17;{3}", "n=20;{3}"])
def test_bruteforce_matches_clocked_oracle(spec):
    p = poly_from_set_notation(spec)
    assert list(zech_bruteforce(p).entries.items()) \
        == list(_clocked_bruteforce(p).entries.items())


@pytest.mark.parametrize("spec,budget", [
    ("n=28;{3}", 5_000), ("n=28;{3}", 200_000), ("n=28;{3}", None),
    ("n=31;{3}", 5_000), ("n=31;{3}", 200_000), ("n=127;{1}", 5_000),
])
def test_pair_sweep_matches_oracle(monkeypatch, spec, budget):
    # whole builds: at n=28 the seed alone stalls, and the chain steps
    # come from the sweeps that follow the subfield lift
    p = poly_from_set_notation(spec)
    got = build_zech_table(p, budget=budget)
    monkeypatch.setattr(zech_mod, "_sweep_pairs", _pairs_sweep_oracle)
    want = build_zech_table(p, budget=budget)
    assert list(got.entries.items()) == list(want.entries.items())
    assert any(prov == "chain" for _, prov in got.entries.values())


@pytest.mark.parametrize("spec", ["n=31;{3}", "n=63;{1}", "n=127;{1}"])
def test_pair_sweep_budget_cut_at_each_chain_step(spec):
    # n=63 is the last degree whose sweep runs on int64 arrays
    # budget c makes the chain step found at check number c, c - 1 does not
    p = poly_from_set_notation(spec)
    steps = []
    _pairs_sweep_oracle(_full_closure(zech_seed_trinomial(p)), 5_000, steps)
    assert len(steps) >= 6
    for c in steps[:6]:
        for budget in (c - 1, c):
            got = chain_sweep(zech_seed_trinomial(p), budget=budget)
            want = _pairs_sweep_oracle(_full_closure(zech_seed_trinomial(p)), budget)
            assert list(got.entries.items()) == list(want.entries.items()), budget


def test_pair_sweep_chain_value_is_exact_at_order63():
    # at n=63 the chain value tau(i - j) + j - tau(j) passes 2^63 - 1 before
    # its reduction mod 2^63 - 1 at some step within this budget
    p = poly_from_set_notation("n=63;{1}")
    got = chain_sweep(zech_seed_trinomial(p), budget=500_000)
    want = _pairs_sweep_oracle(_full_closure(zech_seed_trinomial(p)), 500_000)
    assert list(got.entries.items()) == list(want.entries.items())


@pytest.mark.parametrize("spec,lift,complete", [
    ("n=10;{3}", True, True), ("n=17;{3}", True, True), ("n=20;{3}", True, True),
    ("n=17;{6}", False, False), ("n=18;{7}", False, False), ("n=18;{7}", True, True),
])
def test_flat_sweep_matches_oracle(monkeypatch, spec, lift, complete):
    # n=17;{6} stalls; n=18;{7} stalls without the lift and completes with it
    p = poly_from_set_notation(spec)
    got = build_zech_table(p, mode="propagate", lift=lift)
    monkeypatch.setattr(zech_mod, "_sweep_flat", _flat_sweep_oracle)
    want = build_zech_table(p, mode="propagate", lift=lift)
    assert list(got.entries.items()) == list(want.entries.items())
    assert got.complete == complete


def test_flat_sweep_matches_oracle_seeded_random_primitives(monkeypatch):
    rng = random.Random(9)
    cases = []
    for n in (5, 8, 11, 13, 16):
        p = rng.choice(list(islice(primitive_polynomials(n), 12)))
        brute = zech_bruteforce(p)
        for k in rng.sample(range(1, (1 << n) - 1), 2):
            cases.append((p, [(k, brute.resolve(k))]))
    got = [build_zech_table(p, mode="propagate", seeds=seeds, lift=False)
           for p, seeds in cases]
    monkeypatch.setattr(zech_mod, "_sweep_flat", _flat_sweep_oracle)
    for (p, seeds), table in zip(cases, got):
        want = build_zech_table(p, mode="propagate", seeds=seeds, lift=False)
        assert list(table.entries.items()) == list(want.entries.items()), (hex(p), seeds)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_normaliser_matches_leader_shift(data):
    n = data.draw(st.integers(1, 130), label="n")
    M = (1 << n) - 1
    ks = data.draw(st.lists(st.integers(0, max(M - 1, 0)), min_size=1, max_size=20), label="ks")
    lead, shift, rots = _normalise(np.array(ks, dtype=_array_dtype(n)), n)
    assert list(zip(lead.tolist(), shift.tolist())) == [_leader_shift(k, M)[:2] for k in ks]
    for k, row in zip(ks, rots.tolist()):
        assert row == [k * pow(2, s, M) % M for s in range(n)]


def _resolve_or_missing(table, k):
    try:
        return table.resolve(k)
    except MissingEntryError:
        return -1


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_resolve_many_matches_resolve_on_complete_tables(data):
    n = data.draw(st.integers(2, 12), label="n")
    polys = list(islice(primitive_polynomials(n), 8))
    table = zech_bruteforce(data.draw(st.sampled_from(polys), label="p"))
    ks = np.arange(1, table.modulus)
    assert table.resolve_many(ks).tolist() == [table.resolve(k) for k in ks.tolist()]


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_resolve_many_matches_resolve_at_order20(zech20, seed):
    M = zech20.modulus
    ks = np.random.default_rng(seed).integers(1, M, size=1000)
    # exponents outside [1, M) reduce as in resolve
    ks[:10] += M
    assert zech20.resolve_many(ks).tolist() == [zech20.resolve(int(k)) for k in ks]


@pytest.mark.parametrize("build", [
    lambda: zech_seed_trinomial(poly_from_set_notation("n=31;{3}")),
    lambda: chain_sweep(zech_seed_trinomial(poly_from_set_notation("n=63;{1}")), budget=5_000),
    # above n = 64 the lookups run in batches of fewer than LOOKUP_BATCH
    lambda: zech_closure(zech_seed_trinomial(poly_from_set_notation("n=300;{7}"))),
])
def test_resolve_many_misses_exactly_where_resolve_raises(build):
    table = build()
    assert not table.complete
    rng = random.Random(63)
    near = [k for lead in list(table.entries)[:40] for k in doubling_orbit(lead, table.modulus)[:3]]
    ks = near + [rng.randrange(1, table.modulus) for _ in range(500)]
    got = table.resolve_many(ks).tolist()
    want = [_resolve_or_missing(table, k) for k in ks]
    assert got == want
    assert 0 < sum(v >= 0 for v in got) < len(ks)


def test_resolve_many_reduces_exponents_outside_int64(zech10):
    # resolve reduces any int mod 2^n - 1; the int64 batch path must too
    assert zech10.resolve(2**70) == 77
    assert zech10.resolve_many([2**70, -5]).tolist() == [zech10.resolve(2**70),
                                                         zech10.resolve(-5)]
    with pytest.raises(ValueError, match="undefined"):
        zech10.resolve_many([2**70, 1023 * 2**70])


def test_resolve_many_refuses_zero(zech10):
    for ks in ([3, 0], [1023], [5, -1023]):
        with pytest.raises(ValueError, match="undefined"):
            zech10.resolve_many(ks)
    assert zech10.resolve_many([]).tolist() == []


def test_coset_leader():
    assert coset_leader(341, 10) == (341, 2)
    assert coset_leader(1, 10) == (1, 10)
    assert coset_leader(1, 17) == (1, 17)
    assert coset_leader(6, 10) == (3, 10)


def test_num_cosets():
    # 107 cosets mod 1023 including the trivial one
    assert num_cosets(10) == 106
    assert num_cosets(4) == 4


def test_bruteforce_order4(zech4):
    assert [zech4.resolve(k) for k in range(1, 15)] == EXPECT4
    assert zech4.complete


def test_bruteforce_order10(zech10):
    assert zech10.resolve(3) == 10
    assert zech10.resolve(341) == 682
    assert zech10.complete
    cov = zech10.coverage()
    assert cov["elements_known"] == 1022 and cov["cosets_known"] == 106


def test_bruteforce_order5(zech5):
    # printed in the cross-join walkthrough against exponents 3 and 17,
    # but 22 and 25 are the logarithms of 7 and 21; see test_crossjoin
    assert zech5.resolve(7) == 22
    assert zech5.resolve(21) == 25
    assert zech5.resolve(3) == 29
    assert zech5.resolve(17) == 30


def test_bruteforce_rejects_nonprimitive():
    for p in (0b11111, 0b10101):   # irreducible of order 5; (x^2+x+1)^2
        for build in (zech_bruteforce, _clocked_bruteforce):
            with pytest.raises(ValueError, match="not primitive"):
                build(p)
    with pytest.raises(ResourceCapError):
        zech_bruteforce((1 << 30) | (1 << 1) | 1)


def test_seed_trinomial():
    t = zech_seed_trinomial(poly_from_set_notation("n=31;{3}"))
    assert t.resolve(3) == 31 and t.resolve(6) == 62
    t = zech_seed_trinomial(poly_from_set_notation("n=127;{1}"))
    assert t.resolve(1) == 127 and t.resolve(2) == 254
    t = zech_seed_trinomial(poly_from_set_notation("n=300;{7}"))
    assert t.resolve(7) == 300
    with pytest.raises(ValueError):
        zech_seed_trinomial(poly_from_set_notation("n=12;{8,2,1}"))


def test_closure_six_coset_cycle(zech10):
    table = ZechTable(10, p=P10)
    table.add_entry(3, 10, "seed")
    zech_closure(table)
    assert sorted(table.entries) == [3, 5, 7, 127, 255, 383]
    assert sum(coset_leader(l, 10)[1] for l in table.entries) == 60
    for lead in table.entries:  # values agree with brute force
        assert table.resolve(lead) == zech10.resolve(lead)
    before = dict(table.entries)
    zech_closure(table)
    assert table.entries == before  # idempotent


def test_closure_order4_seed(zech4):
    table = ZechTable(4, p=P4)
    table.add_entry(3, 14, "seed")
    zech_closure(table)
    for k, v in [(14, 3), (6, 13), (12, 11), (1, 4)]:
        assert table.resolve(k) == v
    # D_5 = {5, 10} is out of reach of Flip/Inv/Double alone
    assert not table.has(5)
    got = zech_chain(table, 3, 1)
    assert got is not None and table.resolve(10) == 5
    assert table.complete
    for k in range(1, 15):
        assert table.resolve(k) == zech4.resolve(k)


def test_chain_rows_replay_sequentially(zech10):
    # Rows 1-9 of the published chaining run replay verbatim. Row 10 as
    # printed needs tau(34), which the run's own narrative only provides
    # at row 11, so the tail of the table is not a literal transcript;
    # every printed entry is still verified against the sweep fixpoint in
    # test_chain_anchors_hold below.
    table = ZechTable(10, p=P10)
    table.add_entry(3, 10, "seed")
    zech_closure(table)
    for (i, j), arg, val in CHAIN_ROWS[:9]:
        got = zech_chain(table, i, j)
        assert got == (arg, val), f"row ({i},{j}) gave {got}"
    assert zech_chain(table, 77, 43) is None   # tau(34) not yet derivable


def test_chain_anchors_hold(zech10):
    table = ZechTable(10, p=P10)
    table.add_entry(3, 10, "seed")
    chain_sweep(table)
    assert table.complete
    for (_i, _j), arg, val in CHAIN_ROWS:
        assert table.resolve(arg) == val
    assert all(table.resolve(k) == zech10.resolve(k) for k in range(1, 1023))


def test_chain_noop_cases(zech10):
    table = ZechTable(10, p=P10)
    table.add_entry(3, 10, "seed")
    zech_closure(table)
    assert zech_chain(table, 3, 9999 % 1023) is None      # tau(j) unknown
    assert zech_chain(table, 3, 3) is None                # i = j
    full = ZechTable(10, p=P10)
    full.add_entry(3, 10, "seed")
    chain_sweep(full)
    assert zech_chain(full, 12, 5) is None                # target already known


def test_sweep_matches_bruteforce(zech10):
    table = zech_seed_trinomial(P10)
    chain_sweep(table)
    assert table.complete
    assert all(table.resolve(k) == zech10.resolve(k) for k in range(1, 1023))


def test_subfield_lift_identity(zech4):
    frag = zech_subfield_lift(zech4, 4)
    assert frag.entries.keys() == zech4.entries.keys()
    assert all(frag.resolve(k) == zech4.resolve(k) for k in range(1, 15))


def test_subfield_lift_gf4_into_gf16(zech4):
    t2 = zech_bruteforce(0b111)          # GF(4): tau(1) = 2
    assert t2.resolve(1) == 2
    frag = zech_subfield_lift(t2, 4)     # r = 5
    assert frag.resolve(5) == 10 == zech4.resolve(5)
    with pytest.raises(ValueError):
        zech_subfield_lift(zech_bruteforce(0b111), 5)   # 2 does not divide 5


def test_subfield_lift_gf32_into_gf1024(zech10):
    # the degree-5 table must be relative to beta = alpha^33, i.e. to the
    # associated polynomial of t = 33, not to an arbitrary degree-5 primitive
    from zechbruijn import associated_irreducible

    q, valid = associated_irreducible(P10, 33)
    assert not valid and q.bit_length() - 1 == 5
    frag = zech_subfield_lift(zech_bruteforce(q), 10)   # r = 33
    elements = sum(coset_leader(l, 10)[1] for l in frag.entries)
    assert elements == 30
    for lead in frag.entries:
        assert frag.resolve(lead) == zech10.resolve(lead)


def test_build_auto_and_propagate(zech10):
    t = build_zech_table(P10)           # auto -> bruteforce (n <= 26)
    assert t.complete
    assert all(t.resolve(k) == zech10.resolve(k) for k in range(1, 1023))
    t = build_zech_table(0b1100001, mode="auto")   # x^6+x^5+1
    assert t.complete


def test_auto_source_is_chosen_from_n():
    # up to the cap, brute force even where propagation stalls (n=17;{6},
    # test_remark_failure_and_lift_recovery); above it a non-trinomial
    # without seeds is refused before any table is built
    t = build_zech_table(poly_from_set_notation("n=17;{6}"))
    assert t.complete
    assert {prov for _, prov in t.entries.values()} == {"bruteforce"}
    with pytest.raises(ResourceCapError, match="brute-force cap 26"):
        build_zech_table(poly_from_set_notation("n=28;{12,2,1}"))


def test_build_with_explicit_seeds(zech4):
    t = build_zech_table(P4, mode="propagate", seeds=[(3, 14)])
    assert t.complete
    assert all(t.resolve(k) == zech4.resolve(k) for k in range(1, 15))


def test_remark_failure_and_lift_recovery():
    p17 = (1 << 17) | (1 << 6) | 1
    t = build_zech_table(p17, mode="propagate", lift=False)
    assert not t.complete            # chaining alone stalls
    # 17 is prime: no proper subfield, so the lift cannot help either
    t2 = build_zech_table(p17, mode="propagate", lift=True)
    assert not t2.complete
    p18 = (1 << 18) | (1 << 7) | 1
    t3 = build_zech_table(p18, mode="propagate", lift=False)
    assert not t3.complete
    t4 = build_zech_table(p18, mode="propagate", lift=True)
    assert t4.complete               # subfield entries restart the chaining
    assert any(prov == "subfield" for _, prov in t4.entries.values())


def test_chaining_completes_orders20_and_22():
    # the remaining published trinomial outcomes: works for (20, 3), (22, 1)
    t = build_zech_table((1 << 20) | (1 << 3) | 1, mode="propagate", lift=False)
    assert t.complete
    t22 = build_zech_table((1 << 22) | (1 << 1) | 1, mode="propagate", lift=False)
    assert t22.complete
    brute = zech_bruteforce((1 << 22) | (1 << 1) | 1)
    import random

    rng = random.Random(22)
    for _ in range(500):
        k = rng.randrange(1, (1 << 22) - 1)
        assert t22.resolve(k) == brute.resolve(k)


def test_resolve_double_and_flip(zech10, zech4):
    assert zech10.resolve(6) == 20          # double of tau(3) = 10
    assert zech4.resolve(8) == 2
    for k in (1, 2, 77, 600):
        assert zech10.resolve(zech10.resolve(k)) == k
    with pytest.raises(ValueError):
        zech10.resolve(0)


def test_missing_entry_vs_corrupt():
    table = ZechTable(10, p=P10)
    table.add_entry(3, 10, "seed")
    with pytest.raises(MissingEntryError):
        table.resolve(11)
    with pytest.raises(CorruptTableError):
        table.add_entry(3, 11, "seed")


def test_complete_table_is_involution_permutation(zech10):
    values = [zech10.resolve(k) for k in range(1, 1023)]
    assert sorted(values) == list(range(1, 1023))
    assert all(zech10.resolve(v) == k for k, v in enumerate(values, start=1))


def test_double_and_inv_identities_everywhere(zech10):
    M = 1023
    for k in range(1, M):
        tk = zech10.resolve(k)
        assert zech10.resolve((2 * k) % M) == (2 * tk) % M
        assert zech10.resolve(M - k) == (tk - k) % M


def test_change_of_primitive_element(zech4):
    # delta = alpha^7 is a root of x^4 + x^3 + 1
    q = 0b11001
    tq = zech_bruteforce(q)
    b, binv = 7, 13          # 7 * 13 = 91 = 1 mod 15
    for k in range(1, 15):
        assert tq.resolve(k) == (binv * zech4.resolve((b * k) % 15)) % 15


def test_flip_preserves_coset_size(zech10):
    for lead in zech10.entries:
        _, size = coset_leader(lead, 10)
        _, tsize = coset_leader(zech10.resolve(lead), 10)
        assert size == tsize


def test_table_file_roundtrip(zech10):
    buf = io.StringIO()
    zech10.dump(buf)
    text = buf.getvalue()
    head = text.splitlines()[0]
    assert head == "zech v1 n=10 p=0x409 complete=1"
    leads = [int(line.split()[0]) for line in text.splitlines()[1:]]
    assert leads == sorted(leads)
    again = ZechTable.load(io.StringIO(text))
    assert again.entries == zech10.entries
    buf2 = io.StringIO()
    again.dump(buf2)
    assert buf2.getvalue() == text


@pytest.mark.parametrize("text,message", [
    ("zech v1 p=0x409 complete=1\n3 10 seed\n", "line 1: header has no n="),
    ("zech v1 n=10 p\n", "line 1: header field 'p' is not key=value"),
    ("zech v1 n=ten p=0x409\n", "line 1: n=ten and p=0x409 must be"),
    ("zech v1 n=10 p=0xzz\n", "line 1: n=10 and p=0xzz must be"),
    ("zech v1 n=0 p=-\n", "line 1: degree n=0 is below 1"),
    ("zech v2 n=10\n", "line 1: not a zech v1 table file"),
    ("zech v1 n=10 p=0x409\n3 10 seed\n\n5 7\n", "line 4: expected 'leader tau provenance'"),
    ("zech v1 n=10 p=0x409\n3 10 seed extra\n", "line 2: expected 'leader tau provenance'"),
    ("zech v1 n=10 p=0x409\n3 x seed\n", "line 2: leader and tau must be integers"),
    ("zech v1 n=10 p=0x409\n3 10 bogus\n", "line 2: unknown provenance 'bogus'"),
    ("zech v1 n=10 p=0x409\n1023 10 seed\n", r"line 2: tau is defined on \[1, 2\^n - 2\] only"),
])
def test_load_rejects_malformed_lines(text, message):
    with pytest.raises(ValueError, match=message) as info:
        ZechTable.load(io.StringIO(text))
    assert type(info.value) is ValueError


def test_load_keeps_line_order_and_rejects_conflicts(zech10):
    # non-leaders normalise to their leaders; repeats of a coset are skipped
    lines = ["zech v1 n=10 p=0x409 complete=0", f"6 {zech10.resolve(6)} chain",
             f"1 {zech10.resolve(1)} flip", f"3 {zech10.resolve(3)} seed",
             f"512 {zech10.resolve(512)} inv"]
    table = ZechTable.load(io.StringIO("\n".join(lines) + "\n"))
    assert list(table.entries.items()) == [(3, (10, "chain")), (1, (zech10.resolve(1), "flip"))]
    lines.append(f"12 {(zech10.resolve(12) + 1) % 1023} seed")
    with pytest.raises(CorruptTableError, match="line 6: tau\\(3\\)"):
        ZechTable.load(io.StringIO("\n".join(lines) + "\n"))


@pytest.mark.parametrize("build", [
    lambda: build_zech_table(poly_from_set_notation("n=18;{7}"), mode="propagate"),
    lambda: chain_sweep(zech_seed_trinomial(poly_from_set_notation("n=127;{1}")), budget=2_000),
])
def test_table_file_roundtrip_is_byte_identical(build):
    table = build()
    buf = io.StringIO()
    table.dump(buf)
    again = ZechTable.load(io.StringIO(buf.getvalue()))
    assert again.entries == table.entries
    buf2 = io.StringIO()
    again.dump(buf2)
    assert buf2.getvalue() == buf.getvalue()


def test_coset_elements_consistency():
    orb = coset_elements(6, 10)
    assert set(orb) == {6, 12, 24, 48, 96, 192, 384, 768, 513, 3}


def test_seeded_propagation_equals_bruteforce_random_primitives():
    # one seeded entry recovers the whole table across degrees <= 16
    import random

    from zechbruijn.cycles import primitive_polynomials

    rng = random.Random(16)
    for n in (8, 11, 13, 16):
        candidates = []
        gen = primitive_polynomials(n)
        for _ in range(12):
            try:
                candidates.append(next(gen))
            except StopIteration:
                break
        p = rng.choice(candidates)
        brute = zech_bruteforce(p)
        k = rng.randrange(1, (1 << n) - 1)
        table = build_zech_table(p, mode="propagate",
                                 seeds=[(k, brute.resolve(k))], lift=False)
        if table.complete:
            assert all(table.resolve(x) == brute.resolve(x)
                       for x in range(1, (1 << n) - 1))
        else:
            for lead, (v, _prov) in table.entries.items():
                assert brute.resolve(lead) == v


def _explicit_orbit(k, m):
    """Oracle: double k mod m until an element repeats."""
    orbit = []
    while k not in orbit:
        orbit.append(k)
        k = 2 * k % m
    return orbit


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_leader_shift_matches_explicit_orbit(data):
    n = data.draw(st.integers(1, 16), label="n")
    M = (1 << n) - 1
    k = data.draw(st.integers(0, M - 1), label="k")
    orbit = _explicit_orbit(k, M)
    lead = min(orbit)
    assert _leader_shift(k, M) == (lead, orbit.index(lead), len(orbit))
    assert coset_leader(k, n) == (lead, len(orbit))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 500), st.integers(0, 10**6))
def test_doubling_orbit_matches_explicit_orbit(half, x):
    m = 2 * half + 1    # cycle moduli divide 2^n - 1, so they are odd
    assert doubling_orbit(x, m) == _explicit_orbit(x % m, m)
