import random
import re
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zechbruijn import (
    Anf,
    CycleCtx,
    ProductCtx,
    anf_bits,
    anf_stream,
    associated_irreducible,
    build_subgraph,
    deterministic_spanning_tree,
    exponent_to_state,
    find_associated_primitive,
    generate_debruijn,
    is_debruijn,
    join_feedback,
    pair_product,
    patched_lfsr_bits,
    product_conjugate,
    product_cycle_of,
    product_cycle_structure,
    poly_from_set_notation,
    sample_spanning_tree,
    tree_feedback,
    zech_bruteforce,
)
from zechbruijn.cycles import primitive_polynomials
from zechbruijn.gf2poly import lfsr_step, lfsr_taps, state_from_bits
from zechbruijn.graph import SpanningTree

from conftest import F4, P4


def test_anf_parse_and_str():
    h = Anf.parse("x0 + x1*x3 + x2", 4)
    assert str(h) == "x0 + x1*x3 + x2"
    assert h.degree == 2
    assert Anf.parse("0", 4).monos == frozenset()
    assert str(Anf.parse("1 + x0", 3)) == "1 + x0"


@pytest.mark.parametrize("text,term", [("x7 + x1", "x7"), ("x5", "x5"), ("x1*x", "x1*x"),
                                       ("x0 + xa", "xa"), ("x-1", "x-1"), ("y2", "y2")])
def test_anf_parse_rejects_terms_outside_x0_to_xn(text, term):
    with pytest.raises(ValueError, match=f"bad ANF term '{re.escape(term)}'"):
        Anf.parse(text, 5)


def anf_str_oracle(anf):
    """The text of an Anf with monomials ordered by a separate sort key."""
    if not anf.monos:
        return "0"
    def key(m):
        return tuple(i for i in range(anf.n) if (m >> i) & 1)
    parts = []
    for m in sorted(anf.monos, key=key):
        if m == 0:
            parts.append("1")
        else:
            parts.append("*".join(f"x{i}" for i in range(anf.n) if (m >> i) & 1))
    return " + ".join(parts)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.integers(0, (1 << n) - 1), max_size=80))))
def test_anf_str_matches_sort_key_oracle(case):
    n, monos = case
    anf = Anf(n, monos)
    assert str(anf) == anf_str_oracle(anf)
    assert Anf.parse(str(anf), n) == anf


def test_anf_eval_and_truth_table_roundtrip():
    rng = random.Random(1)
    for _ in range(10):
        n = rng.randrange(1, 6)
        table = [rng.randrange(2) for _ in range(1 << n)]
        h = Anf.from_truth_table(n, table)
        assert h.truth_table() == table


def test_anf_from_linear():
    h = Anf.from_linear(F4)
    assert str(h) == "x0 + x1 + x2 + x3"


def test_pair_product_expansion():
    # tail (0,0,1) of the order-4 walkthrough pair
    prod = pair_product(4, state_from_bits((1, 0, 0, 1)))
    assert prod == Anf.parse("x1*x2*x3 + x1*x3 + x2*x3 + x3", 4)


def test_join_feedback_walkthrough(ctx4):
    h = Anf.from_linear(F4)
    s3 = exponent_to_state(ctx4, 3)
    s6 = exponent_to_state(ctx4, 6)
    first = join_feedback(h, [s3])
    assert first == h ^ Anf.parse("x1*x2*x3 + x1*x3 + x2*x3 + x3", 4)
    both = join_feedback(h, [s3, s6])
    assert both == Anf.parse("x0 + x1 + x2 + x1*x3", 4)
    assert join_feedback(h, []) == h


def test_join_feedback_is_involution(ctx4):
    h = Anf.from_linear(F4)
    s = exponent_to_state(ctx4, 3)
    assert join_feedback(join_feedback(h, [s]), [s]) == h


def test_generate_debruijn_walkthrough(ctx4):
    g = build_subgraph(ctx4, range(1, 15))
    tree = deterministic_spanning_tree(g)
    bits = generate_debruijn(ctx4, tree)
    assert bits == [int(c) for c in "0000101001111011"]
    # materialized output agrees with evaluating the joined ANF, which
    # runs on periodically
    anf = tree_feedback(ctx4, tree).to_anf()
    assert list(islice(anf_stream(anf, 0), 20)) == bits + bits[:4]


def test_generate_debruijn_rejects_nontree(ctx4):
    bad = SpanningTree(3, [(None, 0, (0, 0)), (0, 1, (6, 13)), (0, 1, (9, 7))])
    with pytest.raises(ValueError):
        generate_debruijn(ctx4, bad)


def test_generate_debruijn_matches_clocked_register():
    # the splice against the register clocked with the tree's tail patches:
    # 2 primitive p per n = 2..8, every valid t (t = 1 included), the
    # deterministic tree and 2 sampled trees of the full graph
    checked = 0
    for n in range(2, 9):
        M = (1 << n) - 1
        for p in islice(primitive_polynomials(n), 2):
            table = zech_bruteforce(p)
            for t in range(1, M):
                if M % t or not associated_irreducible(p, t)[1]:
                    continue
                ctx = CycleCtx(p, t, zech=table)
                g = build_subgraph(ctx, range(1, M))
                trees = [deterministic_spanning_tree(g)]
                trees += [sample_spanning_tree(g, seed=seed) for seed in (1, 2)]
                for tree in trees:
                    tails = tree_feedback(ctx, tree).tails
                    want = patched_lfsr_bits(ctx.f, tails, 0, 1 << n)[0]
                    assert generate_debruijn(ctx, tree) == want, (p, t, tree.edges)
                    checked += 1
    assert checked == 75


def test_generate_debruijn_rejects_trees_the_register_cannot_join(ctx4):
    # trees that validate by their cycle labels alone: (6, 16) is not a
    # conjugate pair, and a second zero edge cancels the first (the
    # clocked register then stays at 0^n and gave 2^n zeros)
    star = [(None, 0, (0, 0)), (0, 2, (3, 14))]
    for bad, message in [(star + [(0, 1, (6, 16))], "not a conjugate pair"),
                         (star + [(None, 1, (0, 0))], "did not join")]:
        SpanningTree(3, bad).validate()
        with pytest.raises(ValueError, match=message):
            generate_debruijn(ctx4, SpanningTree(3, bad))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_sequences_pass_window_test(ctx10, seed):
    g = build_subgraph(ctx10, range(1, 1023))
    tree = sample_spanning_tree(g, seed=seed)
    bits = generate_debruijn(ctx10, tree)
    assert is_debruijn(bits, 10)


def test_generated_sequence_order14():
    p14 = (1 << 14) | (1 << 12) | (1 << 2) | (1 << 1) | 1
    table = zech_bruteforce(p14)
    ctx = CycleCtx(p14, 3, zech=table)
    g = build_subgraph(ctx, range(1, 40))
    tree = deterministic_spanning_tree(g)
    assert is_debruijn(generate_debruijn(ctx, tree), 14)


def test_join_changes_exactly_two_successors():
    # exchanging one conjugate pair's successors touches nothing else
    for (p, t) in [(P4, 3), ((1 << 6) | (1 << 1) | 1, 7)]:
        n = p.bit_length() - 1
        table = zech_bruteforce(p)
        ctx = CycleCtx(p, t, zech=table)
        h = Anf.from_linear(ctx.f)
        v = exponent_to_state(ctx, 3)
        vhat = v ^ 1
        hj = join_feedback(h, [v])

        def succ(fn, s):
            return (s >> 1) | (fn.eval(s) << (n - 1))

        diffs = [s for s in range(1 << n) if succ(h, s) != succ(hj, s)]
        assert sorted(diffs) == sorted([v, vhat])


def test_joined_degree_bound(ctx4, ctx10):
    for ctx in (ctx4, ctx10):
        g = build_subgraph(ctx, range(1, ctx.modulus))
        tree = sample_spanning_tree(g, seed=11)
        fb = tree_feedback(ctx, tree)
        anf = fb.to_anf()
        assert anf.degree == fb.degree
        assert anf.degree <= ctx.n - 1
        # the zero-edge pair has an all-zero tail, forcing degree n - 1
        assert anf.degree == ctx.n - 1


def test_patched_lfsr_roundtrip(ctx4):
    bits, final = patched_lfsr_bits(ctx4.f, set(), 1, 5)
    assert len(bits) == 5
    assert bits == [1, 0, 0, 0, 1]


def test_stream_blocks_resume(ctx4):
    # the register state after j clocks is the n-window at j, so output
    # restarted from that window continues the sequence
    g = build_subgraph(ctx4, range(1, 15))
    anf = tree_feedback(ctx4, deterministic_spanning_tree(g)).to_anf()
    whole = anf_bits(anf, 0, 16)
    mid_state = state_from_bits(whole[6:6 + ctx4.n])
    assert anf_bits(anf, 0, 6) + anf_bits(anf, mid_state, 10) == whole


# ---------------------------------------------------------------------------
# product of irreducibles


def _product_ctx_2x4():
    p2 = 0b111
    f2 = 0b11111
    p4 = find_associated_primitive(f2, 3)
    c2 = CycleCtx(p2, 1, zech=zech_bruteforce(p2))
    c4 = CycleCtx(p4, 3, zech=zech_bruteforce(p4), f=f2)
    return ProductCtx([c2, c4])


def test_product_cycle_structure_tiny():
    c1 = CycleCtx(0b11, 1, zech=zech_bruteforce(0b11))
    c2 = CycleCtx(0b111, 1, zech=zech_bruteforce(0b111))
    pctx = ProductCtx([c1, c2])
    labels = product_cycle_structure(pctx)
    assert sorted(l.period for l in labels) == [1, 1, 3, 3]
    assert sum(l.period for l in labels) == 8


def test_product_reduces_to_single_component(ctx4):
    pctx = ProductCtx([ctx4])
    labels = product_cycle_structure(pctx)
    assert sorted(l.period for l in labels) == [1, 5, 5, 5]
    for w in range(1, 16):
        vhat, lab = product_conjugate(pctx, w)
        assert vhat == w ^ 1


def test_product_structure_matches_exhaustive_decomposition():
    pctx = _product_ctx_2x4()
    labels = product_cycle_structure(pctx)
    assert sorted(l.period for l in labels) == [1, 3, 5, 5, 5, 15, 15, 15]
    taps = lfsr_taps(pctx.f)
    seen = set()
    oracle = []
    for s in range(64):
        if s in seen:
            continue
        v, cyc = s, []
        while v not in seen:
            seen.add(v)
            cyc.append(v)
            v = lfsr_step(v, taps, 6)
        oracle.append(len(cyc))
    assert sorted(oracle) == sorted(l.period for l in labels)


def test_product_labels_shift_invariant():
    pctx = _product_ctx_2x4()
    taps = lfsr_taps(pctx.f)
    for w in range(1, 64):
        assert product_cycle_of(pctx, w) == \
            product_cycle_of(pctx, lfsr_step(w, taps, 6))


def test_product_labels_cover_all_states():
    pctx = _product_ctx_2x4()
    declared = product_cycle_structure(pctx)
    observed = {product_cycle_of(pctx, w) for w in range(64)}
    assert set(declared) == observed
    assert len(declared) == len(observed)
    assert str(sorted(declared, key=lambda l: (l.period, str(l)))[0]) == "[0]"


def test_product_conjugate_matches_successor_analysis():
    # conjugate state is the first-coordinate flip, and its cycle label is
    # the one the flipped state actually lies on
    pctx = _product_ctx_2x4()
    for w in range(1, 64):
        vhat, lab = product_conjugate(pctx, w)
        assert vhat == w ^ 1
        assert lab == product_cycle_of(pctx, vhat)


def test_product_join_gives_debruijn_order6():
    pctx = _product_ctx_2x4()
    # adjacency over the 8 cycles via the conjugate map
    labels = {}

    def lab_of(w):
        lab = product_cycle_of(pctx, w)
        return labels.setdefault(lab, len(labels))

    zero_label = lab_of(0)
    edges = {}
    for w in range(0, 64, 2):   # one orientation per conjugate pair
        a, b = lab_of(w), lab_of(w ^ 1)
        if a != b:
            edges.setdefault((min(a, b), max(a, b)), w)
    # greedy spanning tree over the 8 labels
    parent = list(range(len(labels)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tails = set()
    for (a, b), w in sorted(edges.items()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            tails ^= {w >> 1}
    assert len(tails) == len(labels) - 1
    bits, final = patched_lfsr_bits(pctx.f, tails, 0, 64)
    assert final == 0 and is_debruijn(bits, 6)


_JOIN_CASES = [("n=4;{1}", 3), ("n=5;{2}", 1), ("n=6;{1}", 3), ("n=6;{1}", 7),
               ("n=8;{4,3,2}", 5)]


@pytest.fixture(scope="module")
def join_graphs():
    out = []
    for spec, t in _JOIN_CASES:
        p = poly_from_set_notation(spec)
        ctx = CycleCtx(p, t, zech=zech_bruteforce(p))
        out.append((ctx, build_subgraph(ctx, range(1, ctx.modulus))))
    return out


@settings(max_examples=100, deadline=None)
@given(st.integers(0, len(_JOIN_CASES) - 1), st.integers(0, 1 << 16),
       st.integers(0, 255), st.integers(0, 300))
def test_anf_bits_match_patched_register(join_graphs, case, seed, state, length):
    ctx, g = join_graphs[case]
    tree = sample_spanning_tree(g, seed=seed)
    state &= (1 << ctx.n) - 1
    want, _ = patched_lfsr_bits(ctx.f, tree_feedback(ctx, tree).tails, state, length)
    assert anf_bits(tree_feedback(ctx, tree).to_anf(), state, length) == want
