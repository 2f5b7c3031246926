"""Adjacency subgraphs on LFSR cycles, tree counting and certificates.

Vertices are the zero cycle plus the t nonzero cycles; edge multiplicity
between two cycles is the number of conjugate pairs they share. Spanning
trees of this multigraph biject with the de Bruijn sequences the cycle
joining method can produce, and their number is a cofactor of the
degree-minus-adjacency matrix. It is computed exactly over big integers
by fraction-free elimination of the upper triangle in minimum-degree
order, skipping the rows a step leaves unchanged but for scale. That
matrix is positive semidefinite, so it needs no pivoting: a zero pivot
means it is singular.
"""

import json
import math
import random
from dataclasses import dataclass, field
from itertools import compress

from .cycles import check_t
from .gf2poly import degree, poly_mod, poly_mul, poly_powmod, poly_to_set_notation
from .zech import (
    MissingEntryError,
    build_zech_table,
    coset_leader,
    coset_rotations,
    doubling_orbit,
    lookup_batch,
)


def log2_int(x):
    """log2 of a positive big integer, good to double precision."""
    if x <= 0:
        raise ValueError("log2 of a nonpositive integer")
    bl = x.bit_length()
    if bl <= 512:
        return math.log2(x)
    return (bl - 64) + math.log2(x >> (bl - 64))


class AdjSubgraph:
    """Multigraph on the cycles of an LFSR: zero cycle + t nonzero cycles.

    Vertex indices: 0 is the zero cycle, 1 + i is cycle u_i. No loops; the
    multiplicity of an edge counts each distinct conjugate pair once, and
    one representative pair is kept per edge class. A union-find over the
    vertices, with its component count, is kept up to date edge by edge.
    """

    def __init__(self, t):
        self.t = t
        self.size = t + 1
        self.mult = {}      # (u, v) with u < v -> multiplicity
        self.reps = {}      # (u, v) -> representative pair (k, tau_k)
        self._rep_rank = {}  # (u, v) -> (-tail weight, exponent)
        self._parent = list(range(self.size))
        self.components = self.size

    @staticmethod
    def _vertex(cycle):
        return 0 if cycle is None else 1 + cycle

    def add_edge(self, ci, cj, mult=1, rep=None, rep_weight=0):
        """Add `mult` parallel edges between cycles ci and cj (None = zero).

        Among candidate representative pairs the one with the heaviest
        shared tail wins (smallest exponent on ties): heavy tails keep the
        joined ANF narrow when the pair is expanded to product terms.
        """
        u, v = self._vertex(ci), self._vertex(cj)
        if u == v:
            raise ValueError("adjacency graphs have no loops")
        if u > v:
            u, v = v, u
        self.mult[(u, v)] = self.mult.get((u, v), 0) + mult
        ru, rv = _find(self._parent, u), _find(self._parent, v)
        if ru != rv:
            self._parent[ru] = rv
            self.components -= 1
        if rep is not None:
            rank = (-rep_weight, rep)
            old = self._rep_rank.get((u, v))
            if old is None or rank < old:
                self._rep_rank[(u, v)] = rank
                self.reps[(u, v)] = rep

    def add_zero_edge(self):
        """The unique pair joining [0] and [u_0]."""
        self.add_edge(None, 0, 1, rep=(0, 0))

    def add_pairs(self, ctx, pairs):
        """Add one coset's (a, tau(a), multiplicity) triples from
        `_coset_pairs`, each pair a candidate representative of its edge.

        Each a doubles the one before, so x^a mod p, which gives the state
        of a, is the previous one squared.
        """
        t, p = ctx.t, ctx.p
        c = poly_powmod(2, pairs[0][0], p) if pairs else 0
        for a, b, mult in pairs:
            tail = ctx.state_of(c) >> 1
            self.add_edge(a % t, b % t, mult, rep=(min(a, b), max(a, b)),
                          rep_weight=tail.bit_count())
            c = poly_mod(poly_mul(c, c), p)

    def multiplicity(self, ci, cj):
        u, v = self._vertex(ci), self._vertex(cj)
        if u > v:
            u, v = v, u
        return self.mult.get((u, v), 0)

    def edges(self):
        """Sorted (u, v, multiplicity) triples over vertex indices."""
        return [(u, v, m) for (u, v), m in sorted(self.mult.items())]

    def neighbors(self, vertex):
        out = {}
        for (u, v), m in self.mult.items():
            if u == vertex:
                out[v] = m
            elif v == vertex:
                out[u] = m
        return out

    def unreached(self):
        """Sorted indices of the cycles no path joins to the zero cycle."""
        parent = self._parent
        zero = _find(parent, 0)
        return [v - 1 for v in range(1, self.size) if _find(parent, v) != zero]

    def is_connected(self):
        return self.components == 1

    def laplacian(self):
        """Degree matrix minus adjacency, multiplicities as weights."""
        lap = [[0] * self.size for _ in range(self.size)]
        for (u, v), m in self.mult.items():
            lap[u][u] += m
            lap[v][v] += m
            lap[u][v] -= m
            lap[v][u] -= m
        return lap


def _find(parent, x):
    """Union-find root of x, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _coset_pairs(ctx, js):
    """Candidate pairs of the distinct cosets of the exponents js, one list
    of (2^s j, 2^s tau(j), n_j // c) per coset, in order.

    The cycle pair of (2^s j, 2^s tau(j)) repeats with period c, the lcm
    of the orbit sizes of j and tau(j) mod t, so s < c meets each ordered
    cycle pair once, with n_j // c pairs. When tau(j) lies in j's own
    coset, pair s + n_j/2 is pair s reversed and pair s + c/2 lands on
    the cycle pair of pair s reversed, so s < c/2 there.

    Each Zech entry and its Flip mirror describe the same pair set, so a
    coset already covered from either side is skipped, as is one whose
    entry the table lacks; a coset joining a cycle to itself covers its
    mirror but yields nothing.
    """
    n, t, M = ctx.n, ctx.t, ctx.modulus
    covered = set()
    for j in js:
        lead, nj = coset_leader(j, n)
        if lead in covered:
            continue
        try:
            tau_j = ctx.zech.resolve(j)
        except MissingEntryError:
            continue
        mirror = coset_leader(tau_j, n)[0]
        covered.add(lead)
        covered.add(mirror)
        if j % t == tau_j % t:
            continue
        c = math.lcm(len(doubling_orbit(j, t)), len(doubling_orbit(tau_j, t)))
        take = c // 2 if mirror == lead else c
        yield [((j << s) % M, (tau_j << s) % M, nj // c) for s in range(take)]


def build_subgraph(ctx, cosets):
    """Graph from the pairs of the given coset representatives, plus the
    zero-cycle edge (see `_coset_pairs` for what is skipped)."""
    g = AdjSubgraph(ctx.t)
    g.add_zero_edge()
    for pairs in _coset_pairs(ctx, cosets):
        g.add_pairs(ctx, pairs)
    return g


def _min_degree_order(k, mult):
    """Vertices 1..k in greedy minimum-degree elimination order, ties by
    index: each vertex taken joins its remaining neighbours into a clique."""
    adj = {v: set() for v in range(1, k + 1)}
    for u, v in mult:
        if u:
            adj[u].add(v)
            adj[v].add(u)
    order = []
    while adj:
        v = min(adj, key=lambda w: (len(adj[w]), w))
        nbrs = adj.pop(v)
        for w in nbrs:
            adj[w] |= nbrs
            adj[w] -= {v, w}
        order.append(v)
    return order


def count_spanning_trees(g):
    """Exact spanning-tree count: the determinant of the Laplacian with
    vertex 0 removed.

    Fraction-free (Bareiss) elimination on the upper triangle only, in
    minimum-degree order. After step c every entry is a bordered minor,
    so the trailing block stays symmetric and the lead of row r at step c
    is entry (c, r). A row whose lead is 0 is only scaled by pivot/prev;
    it is left alone, and when a later step needs it those factors
    telescope to dets[now] / dets[then]. The reduced Laplacian is
    positive semidefinite, so a zero pivot means a singular leading
    minor and a singular matrix (a disconnected graph): no pivoting.
    """
    k = g.size - 1
    pos = {v: i for i, v in enumerate(_min_degree_order(k, g.mult))}
    rows = [[0] * (k - i) for i in range(k)]   # rows[i][j - i] is entry (i, j)
    for (u, v), m in g.mult.items():
        j = pos[v]
        rows[j][0] += m
        if u:
            i = pos[u]
            rows[i][0] += m
            i, j = min(i, j), max(i, j)
            rows[i][j - i] -= m
    level = [0] * k    # elimination steps applied to each row
    dets = [1]         # dets[c]: leading c x c minor, the divisor at step c

    def current(r, c):
        """Row r at level c: the steps it skipped only scaled it."""
        if level[r] < c:
            now, then = dets[c], dets[level[r]]
            rows[r] = [x * now // then for x in rows[r]]
            level[r] = c
        return rows[r]

    for c in range(k):
        row = current(c, c)
        pivot, prev = row[0], dets[c]
        if pivot == 0:
            return 0
        for j in range(1, k - c):
            lead = row[j]
            if lead:
                r = c + j
                rows[r] = [(x * pivot - lead * y) // prev
                           for x, y in zip(current(r, c), row[j:])]
                level[r] = c + 1
        dets.append(pivot)
    return dets[k]


def connected_subgraph(ctx):
    """Smallest-first coset accumulation until every cycle is connected.

    Adds the pairs of the table's coset leaders in ascending order (see
    `_coset_pairs`), which are the cosets an ascending walk over
    j = 1, 2, ... meets, and stops after the first whole coset with which
    the graph spans all t + 1 vertices; returns the disconnected graph
    when the leaders run out first.
    """
    g = AdjSubgraph(ctx.t)
    g.add_zero_edge()
    cosets = _coset_pairs(ctx, sorted(ctx.zech.entries))
    while g.components > 1 and (pairs := next(cosets, None)) is not None:
        g.add_pairs(ctx, pairs)
    return g


# ---------------------------------------------------------------------------
# star / almost-star certificates (the fast certification walk)

@dataclass
class TreeCert:
    """Certificate for a star (center u_0) or almost-star (center u_ell)
    spanning-tree family.

    `dbseqs` is cp^(t-1), with cp = n // |final witness orbit mod t|. The
    certificate graph is a star (or almost-star) on [0], u_0, ...,
    u_(t-1) whose edges other than [0]-u_0 come in cp parallel copies,
    so by the matrix-tree theorem this is the determinant of its t x t
    reduced Laplacian. When t is composite the witness orbits can differ
    in size, and then cp^(t-1) is not the tree count of the subgraph the
    witnesses span.
    """
    n: int
    p: int
    t: int
    f: int
    center: int
    witness: list = field(default_factory=list)
    delta: list = field(default_factory=list)
    cp: int | None = None
    dbseqs: int | None = None
    log2: float | None = None
    found: bool = False

    def to_json(self):
        return json.dumps(
            {
                "n": self.n,
                "p": poly_to_set_notation(self.p),
                "t": self.t,
                "f": poly_to_set_notation(self.f),
                "center": self.center,
                "witness": self.witness,
                "cp": self.cp,
                "dbseqs": str(self.dbseqs) if self.dbseqs is not None else None,
                "log2": round(self.log2, 2) if self.log2 is not None else None,
                "found": self.found,
            },
            sort_keys=True,
        )


def _certify_walk(p, f, t, table, center, z_max):
    """Algorithm-1 walk: cover all residues mod t by coset images of
    tau at exponents (2k-1)t + center.

    The exponents are resolved `lookup_batch(n)` at a time, each batch with
    one `resolve_many` call, and the orbit leader of tau mod t comes from the
    same batch's rotations: t divides 2^n - 1, so doubling tau mod
    2^n - 1 and reducing mod t doubles it mod t. Nothing is sized by t
    or z_max.
    """
    n = degree(p)
    M = (1 << n) - 1
    done = {center % t}
    witness = []
    delta = []
    cert = TreeCert(n=n, p=p, t=t, f=f, center=center)
    batch = lookup_batch(n)
    for k0 in range(1, z_max + 1, batch):
        ws = range(2 * k0 - 1, 2 * min(k0 + batch, z_max + 1) - 1, 2)
        wis = [(w, i) for w in ws if (i := (w * t + center) % M)]
        if not wis:
            continue
        taus = table.resolve_many([i for _, i in wis])
        hit = taus >= 0   # partial table: hunt with what resolves
        taus = taus[hit]
        leads = (coset_rotations(taus, n) % t).min(axis=1).tolist()
        for (w, i), tau, lead in zip(compress(wis, hit), taus.tolist(), leads):
            if lead in done:
                continue
            orbit = doubling_orbit(tau % t, t)
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


def certify_star(p, t_max=2000, z_max=2000, zech=None, ts=None):
    """Star certificates (center u_0) for every valid t up to t_max.

    A t with no witness found within z_max yields a cert with found=False
    ("no star spanning tree"), not an exception. `ts` restricts the sweep
    to specific t values.
    """
    from .gf2poly import associated_irreducible

    n = degree(p)
    M = (1 << n) - 1
    if zech is None:
        zech = build_zech_table(p)
    out = []
    candidates = ts if ts is not None else range(3, min(t_max, M - 1) + 1)
    for t in candidates:
        if t < 2 or t >= M or M % t:
            continue
        f, valid = associated_irreducible(p, t)
        if not valid:
            continue
        out.append(_certify_walk(p, f, t, zech, 0, z_max))
    return out


def certify_almost_star(p, t, ell, z_max=2000, zech=None):
    """Almost-star certificate centered at u_ell (E_0 hung off u_0)."""
    from .gf2poly import associated_irreducible

    if not 1 <= ell <= t - 1:
        raise ValueError("center index must lie in [1, t-1]")
    check_t(degree(p), t)
    f, valid = associated_irreducible(p, t)
    if not valid:
        raise ValueError(f"t = {t} is not valid for this polynomial")
    if zech is None:
        zech = build_zech_table(p)
    return _certify_walk(p, f, t, zech, ell, z_max)


# ---------------------------------------------------------------------------
# spanning-tree selection

@dataclass
class SpanningTree:
    """Tree edges as (cycle_i, cycle_j, representative pair) triples."""
    t: int
    edges: list

    def validate(self, g=None):
        """Connected, acyclic, spanning; edges present in g when given."""
        if len(self.edges) != self.t:
            raise ValueError("a spanning tree here has exactly t edges")
        parent = list(range(self.t + 1))
        for ci, cj, _rep in self.edges:
            u, v = AdjSubgraph._vertex(ci), AdjSubgraph._vertex(cj)
            if g is not None and g.multiplicity(ci, cj) == 0:
                raise ValueError(f"edge ({ci}, {cj}) not present in graph")
            ru, rv = _find(parent, u), _find(parent, v)
            if ru == rv:
                raise ValueError("tree contains a cycle")
            parent[ru] = rv
        return True


def sample_spanning_tree(g, seed=0):
    """Uniform random spanning tree of the multigraph (Wilson's
    algorithm), deterministic by seed."""
    if not g.is_connected():
        raise ValueError("graph is not connected")
    return _tree_of(g, _wilson(g, random.Random(seed)))


def deterministic_spanning_tree(g):
    """Star-biased Kruskal: edges at u_0 first, then by representative pair.

    Reproduces the hand-worked small joins (which always hang cycles off
    u_0 by their smallest exponent pair) whenever a star is available.
    """
    def key(item):
        (u, v), _m = item
        rep = g.reps.get((u, v), (1 << 62, 1 << 62))
        return (0 if u <= 1 else 1, rep, u, v)

    return _tree_of(g, _kruskal(g, sorted(g.mult.items(), key=key)))


def _tree_of(g, chosen):
    """SpanningTree of the vertex pairs `chosen`, with their representatives."""
    edges = []
    for u, v in chosen:
        ci = None if u == 0 else u - 1
        cj = None if v == 0 else v - 1
        edges.append((ci, cj, g.reps.get((u, v))))
    return SpanningTree(g.t, edges)


def _kruskal(g, order):
    parent = list(range(g.size))
    chosen = []
    for (u, v), _m in order:
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv:
            parent[ru] = rv
            chosen.append((u, v))
    if len(chosen) != g.size - 1:
        raise ValueError("graph is not connected")
    return chosen


def _wilson(g, rng):
    """Loop-erased random walks from each vertex to the grown tree."""
    neighbors = {u: sorted(g.neighbors(u).items()) for u in range(g.size)}
    in_tree = [False] * g.size
    parent = [None] * g.size
    in_tree[0] = True
    for start in range(1, g.size):
        if in_tree[start]:
            continue
        u = start
        path = {}
        while not in_tree[u]:
            nbrs = neighbors[u]
            total = sum(m for _, m in nbrs)
            pick = rng.randrange(total)
            for w, m in nbrs:
                pick -= m
                if pick < 0:
                    break
            path[u] = w
            u = w
        u = start
        while not in_tree[u]:
            in_tree[u] = True
            parent[u] = path[u]
            u = path[u]
    chosen = []
    for u in range(1, g.size):
        v = parent[u]
        chosen.append((min(u, v), max(u, v)))
    return sorted(chosen)


def export_dot(g):
    """DOT text, parallel edges collapsed into one edge labeled with the
    multiplicity."""
    def label(v):
        return '"[0]"' if v == 0 else f'"[u{v - 1}]"'

    lines = ["graph adjacency {"]
    for v in range(g.size):
        lines.append(f"  {label(v)};")
    for u, v, m in g.edges():
        lines.append(f'  {label(u)} -- {label(v)} [label="{m}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
