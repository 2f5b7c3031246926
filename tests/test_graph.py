import itertools
import random
import re

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zechbruijn import (
    AdjSubgraph,
    build_subgraph,
    certify_almost_star,
    certify_star,
    connected_subgraph,
    count_spanning_trees,
    cyclotomic_numbers,
    deterministic_spanning_tree,
    export_dot,
    sample_spanning_tree,
)
from zechbruijn import graph as graph_mod
from zechbruijn.gf2poly import degree
from zechbruijn.graph import TreeCert, bareiss_determinant, log2_int
from zechbruijn.zech import MissingEntryError, doubling_orbit

from conftest import P5, P10, P20


def test_log2_int():
    assert log2_int(1) == 0.0
    assert log2_int(2**1000) == 1000.0
    assert abs(log2_int(10**30) - 99.657842846) < 1e-6


def test_bareiss_matches_small_hand_cases():
    assert bareiss_determinant([[2]]) == 2
    assert bareiss_determinant([[1, 2], [3, 4]]) == -2
    assert bareiss_determinant([[0, 1], [1, 0]]) == -1
    assert bareiss_determinant([[1, 1], [2, 2]]) == 0


def test_count_trivial_graphs():
    g = AdjSubgraph(1)          # [0] and [u_0]
    g.add_zero_edge()
    assert count_spanning_trees(g) == 1
    tri = AdjSubgraph(2)        # triangle with unit multiplicities
    tri.add_zero_edge()
    tri.add_edge(0, 1, 1)
    tri.add_edge(None, 1, 1)
    assert count_spanning_trees(tri) == 3
    disconnected = AdjSubgraph(2)
    disconnected.add_zero_edge()
    assert count_spanning_trees(disconnected) == 0


def _enumerate_trees(size, instances):
    """Brute-force spanning tree count over explicit edge instances."""
    count = 0
    for subset in itertools.combinations(range(len(instances)), size - 1):
        parent = list(range(size))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for idx in subset:
            u, v = instances[idx]
            ru, rv = find(u), find(v)
            if ru == rv:
                ok = False
                break
            parent[ru] = rv
        count += ok
    return count


def test_matrix_tree_against_enumeration():
    rng = random.Random(2024)
    done = 0
    while done < 120:
        size = rng.randrange(2, 7)
        edges = rng.randrange(1, 11)
        instances = []
        for _ in range(edges):
            u = rng.randrange(size)
            v = rng.randrange(size)
            if u != v:
                instances.append((min(u, v), max(u, v)))
        if len(instances) < size - 1:
            continue
        g = AdjSubgraph(size - 1)
        for u, v in instances:
            g.add_edge(None if u == 0 else u - 1, None if v == 0 else v - 1, 1)
        assert count_spanning_trees(g) == _enumerate_trees(size, instances)
        done += 1


def test_cofactor_independence():
    rng = random.Random(5)
    g = AdjSubgraph(4)
    for _ in range(9):
        u, v = rng.sample(range(5), 2)
        g.add_edge(None if u == 0 else u - 1, None if v == 0 else v - 1,
                   rng.randrange(1, 4))
    lap = g.laplacian()
    dets = []
    for drop in (0, 2, 4):
        red = [[lap[r][c] for c in range(5) if c != drop]
               for r in range(5) if r != drop]
        dets.append(bareiss_determinant(red))
    assert dets[0] == dets[1] == dets[2]


def test_build_subgraph_empty_cosets(ctx10):
    g = build_subgraph(ctx10, [])
    assert g.edges() == [(0, 1, 1)]


def test_full_subgraph_matches_cyclotomic_numbers(ctx10):
    g = build_subgraph(ctx10, range(1, 1023))
    mat = cyclotomic_numbers(ctx10)
    for i in range(31):
        for j in range(i + 1, 31):
            assert g.multiplicity(i, j) == mat[i][j], (i, j)
    nbrs = sorted(c - 1 for c in g.neighbors(1) if c != 0)
    assert nbrs == [3, 6, 7, 12, 14, 15, 17, 19, 23, 24, 25, 27, 28, 29, 30]


def test_connected_subgraph_reaches_everything(ctx10):
    g = connected_subgraph(ctx10)
    assert g.is_connected()
    assert count_spanning_trees(g) > 0


def test_coset_batches_resolve_each_coset_once(ctx10, monkeypatch):
    # one lookup per coset reached, shared by its batch and its mirror
    from zechbruijn.graph import _coset_batches

    zech = ctx10.zech
    calls = []
    resolve = zech.resolve

    def counting(k):
        calls.append(k)
        return resolve(k)

    monkeypatch.setattr(zech, "resolve", counting)
    batches = list(_coset_batches(ctx10, range(1, ctx10.modulus)))
    assert len(batches) == 51
    assert len(calls) == len(set(calls)) == 55
    assert all(b.tau_j == resolve(b.j) for b in batches)
    calls.clear()
    assert connected_subgraph(ctx10).unreached() == []
    assert len(calls) == len(set(calls))


def test_full_graph_count_order10(ctx10):
    # the published pipeline figure for this parameter set is the
    # spanning-tree count of the complete adjacency graph
    g = build_subgraph(ctx10, range(1, 1023))
    count = count_spanning_trees(g)
    assert count == 73973120765024993422731850636481632665600000
    assert abs(log2_int(count) - 145.73) < 0.01


def test_certify_star_no_tree_for_order10(zech10):
    certs = certify_star(P10, zech=zech10, ts=[31])
    assert len(certs) == 1 and not certs[0].found


def test_certify_almost_star_order10(zech10):
    cert = certify_almost_star(P10, 31, 6, zech=zech10)
    assert cert.found
    assert cert.witness == [1, 3, 7, 9, 13, 17, 21]
    assert cert.cp == 10
    assert cert.dbseqs == 10**30
    assert abs(cert.log2 - 99.6578) < 0.001
    from zechbruijn.gf2poly import poly_exponents

    assert poly_exponents(cert.f) == [10, 9, 5, 1, 0]


def test_certify_unique_star_cases(zech20):
    certs = certify_star(P20, zech=zech20, ts=[41, 123, 205, 275])
    assert [c.t for c in certs] == [41, 123, 205, 275]
    for c in certs:
        assert c.found and c.cp == 1 and c.dbseqs == 1


def test_certify_almost_star_row5(zech20):
    cert = certify_almost_star(P20, 205, 2, zech=zech20)
    assert cert.found
    assert cert.witness == [1, 3, 5, 7, 9, 11, 21, 23, 25, 41, 53, 155]
    assert cert.cp == 20
    assert abs(cert.log2 - 881.6733) < 0.001


def _cert_matrix(t, center, cp):
    """The t x t certificate matrix: the reduced Laplacian, vertex [0]
    removed, of the star (center 0) or almost-star (center ell) graph
    with cp parallel edges at every nonzero cycle but the center."""
    m = [[0] * t for _ in range(t)]
    if center == 0:
        m[0][0] = cp * (t - 1) + 1
        for r in range(1, t):
            m[r][r] = cp
            m[0][r] = m[r][0] = -cp
    else:
        ell = center
        m[0][0] = 1 + cp
        m[0][ell] = m[ell][0] = -cp
        for r in range(1, t):
            m[r][r] = cp
            m[ell][r] = m[r][ell] = -cp
        m[ell][ell] = cp * (t - 1)
    return m


def test_cert_matrix_determinant_is_closed_form():
    for t in range(2, 25):
        for center in range(t):
            for cp in (1, 2, 3, 7, 10):
                det = bareiss_determinant(_cert_matrix(t, center, cp))
                assert det == cp ** (t - 1), (t, center, cp)


def test_cert_counts_match_bareiss_oracle(zech10, zech20):
    certs = [certify_almost_star(P10, 31, 6, zech=zech10),
             certify_almost_star(P20, 205, 2, zech=zech20)]
    certs += certify_star(P20, zech=zech20, ts=[41, 123, 205, 275])
    for c in certs:
        assert c.found
        assert c.dbseqs == bareiss_determinant(_cert_matrix(c.t, c.center, c.cp)), c.t
    assert certs[1].dbseqs == 20 ** 204


def test_certify_star_sweep_stops_at_period(zech5):
    # 2^5 - 1 is prime: no t in [3, 30] is valid, and none above is tried
    assert certify_star(P5, t_max=10**18, zech=zech5) == []


def test_certify_skips_invalid_t(zech10):
    # 33 divides 1023 but the associated polynomial has degree 5
    assert certify_star(P10, zech=zech10, ts=[33]) == []
    with pytest.raises(ValueError):
        certify_almost_star(P10, 33, 2, zech=zech10)
    with pytest.raises(ValueError):
        certify_almost_star(P10, 31, 31, zech=zech10)


def test_cert_json_fields(zech10):
    import json

    cert = certify_almost_star(P10, 31, 6, zech=zech10)
    payload = json.loads(cert.to_json())
    assert payload["p"] == "n=10;{3}"
    assert payload["dbseqs"] == str(10**30)
    assert payload["log2"] == 99.66
    assert payload["center"] == 6


def test_sample_spanning_tree_star_only():
    g = AdjSubgraph(3)
    g.add_zero_edge()
    for j in (1, 2):
        g.add_edge(0, j, 2, rep=(j, j + 10))
    tree = sample_spanning_tree(g, seed=1)
    tree.validate(g)
    assert all(0 in (ci, cj) or None in (ci, cj) for ci, cj, _ in tree.edges)


def test_sample_spanning_tree_two_vertices():
    g = AdjSubgraph(1)
    g.add_zero_edge()
    tree = sample_spanning_tree(g, seed=3)
    assert tree.edges == [(None, 0, (0, 0))]


def test_sampled_trees_valid_and_deterministic(ctx10):
    g = build_subgraph(ctx10, range(1, 1023))
    t1 = sample_spanning_tree(g, seed=42)
    t2 = sample_spanning_tree(g, seed=42)
    t3 = sample_spanning_tree(g, seed=43)
    assert t1.edges == t2.edges
    t1.validate(g)
    t3.validate(g)
    # sampled edges satisfy the pair equation: right cycle = tau(k) mod t
    for ci, cj, rep in t1.edges:
        if None in (ci, cj):
            continue
        k, tk = rep
        assert ctx10.zech.resolve(k) == tk
        assert {k % 31, tk % 31} == {ci, cj}


def test_deterministic_tree_prefers_star(ctx4):
    g = connected_subgraph(ctx4)
    tree = deterministic_spanning_tree(g)
    assert sorted(e[2] for e in tree.edges) == [(0, 0), (3, 14), (6, 13)]


def test_export_dot(ctx4):
    g = connected_subgraph(ctx4)
    text = export_dot(g)
    assert text.startswith("graph adjacency {")
    assert text.count("--") == len(g.edges())
    assert text.rstrip().endswith("}")
    # one line per vertex pair, labeled with its multiplicity
    assert '  "[0]" -- "[u0]" [label="1"];' in text.splitlines()
    labels = [int(x) for x in re.findall(r'label="(\d+)"', text)]
    assert labels == [m for _u, _v, m in g.edges()]


_multigraphs = st.integers(1, 9).flatmap(lambda t: st.tuples(
    st.just(t),
    st.lists(st.tuples(st.integers(0, t), st.integers(0, t), st.integers(1, 3)),
             max_size=14)))


@settings(max_examples=300, deadline=None)
@given(_multigraphs)
def test_unreached_matches_networkx(case):
    t, edges = case
    g = AdjSubgraph(t)
    ref = nx.MultiGraph()
    ref.add_nodes_from(range(t + 1))
    for u, v, m in edges:
        if u != v:
            g.add_edge(None if u == 0 else u - 1, None if v == 0 else v - 1, m)
            ref.add_edges_from([(u, v)] * m)
    reached = nx.node_connected_component(ref, 0)
    assert g.unreached() == sorted(v - 1 for v in ref if v not in reached)
    assert g.is_connected() == nx.is_connected(ref)


def _scalar_certify_walk(p, f, t, table, center, z_max):
    """Oracle: the certificate walk with one `resolve` call per exponent
    and the orbit of each tau mod t built to test it."""
    n = degree(p)
    M = (1 << n) - 1
    done = {center % t}
    witness = []
    delta = []
    cert = TreeCert(n=n, p=p, t=t, f=f, center=center)
    for k in range(1, z_max + 1):
        w = 2 * k - 1
        i = (w * t + center) % M
        if i == 0:
            continue
        try:
            L = table.resolve(i) % t
        except MissingEntryError:
            continue
        orbit = doubling_orbit(L, t)
        if min(orbit) in done:
            continue
        witness.append(w)
        delta.append(i)
        done.update(orbit)
        if len(done) == t:
            cp = n // len(orbit)
            cert.witness = witness
            cert.delta = delta
            cert.cp = cp
            cert.dbseqs = cp ** (t - 1)
            cert.log2 = log2_int(cert.dbseqs)
            cert.found = True
            return cert
    cert.witness = witness
    cert.delta = delta
    return cert


def _certs_both_ways(monkeypatch, run):
    got = run()
    with monkeypatch.context() as m:
        m.setattr(graph_mod, "_certify_walk", _scalar_certify_walk)
        want = run()
    return got, want


@pytest.mark.parametrize("p,table,batch", [
    (P10, "zech10", None), (P20, "zech20", None),
    # small batches put a batch boundary inside every walk
    (P10, "zech10", 1), (P10, "zech10", 7),
])
def test_certify_star_matches_scalar_walk(monkeypatch, request, p, table, batch):
    table = request.getfixturevalue(table)
    if batch is not None:
        monkeypatch.setattr(graph_mod, "lookup_batch", lambda n: batch)
    got, want = _certs_both_ways(monkeypatch, lambda: certify_star(p, zech=table))
    assert got == want and len(got) > 0
    assert [c.to_json() for c in got] == [c.to_json() for c in want]


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_certify_almost_star_matches_scalar_walk(monkeypatch, zech20, ell):
    got, want = _certs_both_ways(
        monkeypatch, lambda: certify_almost_star(P20, 155, ell, zech=zech20))
    assert got == want
    assert got.to_json() == want.to_json()


def test_certify_walk_on_a_partial_table_matches_scalar_walk(monkeypatch, zech20):
    # every other coset dropped: the walk hunts with what resolves
    partial = type(zech20)(zech20.n, p=zech20.p)
    partial.entries = dict(list(zech20.entries.items())[::2])
    for run in (lambda: certify_star(P20, zech=partial, ts=[41, 123, 155, 205]),
                lambda: certify_almost_star(P20, 205, 2, zech=partial)):
        got, want = _certs_both_ways(monkeypatch, run)
        assert got == want


def test_certify_walk_above_order_64_matches_scalar_walk(monkeypatch):
    # Python-int arrays, batches below LOOKUP_BATCH, a table that misses
    # nearly every lookup
    from zechbruijn import poly_from_set_notation, zech_closure, zech_seed_trinomial

    p = poly_from_set_notation("n=300;{7}")
    table = zech_closure(zech_seed_trinomial(p))
    for run in (lambda: certify_star(p, zech=table, ts=[11, 31]),
                lambda: certify_almost_star(p, 11, 3, zech=table)):
        got, want = _certs_both_ways(monkeypatch, run)
        assert got == want
