"""Cycle joining: feedback functions in ANF, sequence generation, and the
product-of-irreducibles extension.

Exchanging the successors of a conjugate pair adds the product term
prod_{i=1..n-1} (x_i + v_i + 1) to the feedback function; a spanning tree
of the adjacency graph therefore determines both the joined NLFSR (as an
explicit ANF) and its de Bruijn output. Generation never expands the ANF:
the joined sequence is spliced from slices of the m-sequence, and the
register clocked with one tail patch per pair (`patched_lfsr_bits`)
serves stream output.
"""

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cycles import exponent_to_state, state_to_exponent
from .gf2poly import degree, lfsr_taps, mseq_states, poly_mul


class Anf:
    """Algebraic normal form over variables x_0 ... x_{n-1}.

    Monomials are bitmasks over variable indices (0 = the constant 1);
    the monomial set is canonical, so equal functions compare equal.
    """

    __slots__ = ("n", "monos")

    def __init__(self, n, monos=()):
        self.n = n
        self.monos = frozenset(monos)

    @classmethod
    def from_linear(cls, p):
        """Feedback function of the LFSR with characteristic polynomial p."""
        n = degree(p)
        taps = lfsr_taps(p)
        return cls(n, (1 << i for i in range(n) if (taps >> i) & 1))

    @classmethod
    def from_truth_table(cls, n, table):
        """Moebius transform of a truth table indexed by state ints."""
        coeffs = list(table)
        if len(coeffs) != 1 << n:
            raise ValueError("truth table must have 2^n rows")
        for i in range(n):
            bit = 1 << i
            for mask in range(1 << n):
                if mask & bit:
                    coeffs[mask] ^= coeffs[mask ^ bit]
        return cls(n, (m for m in range(1 << n) if coeffs[m]))

    @classmethod
    def parse(cls, text, n):
        """Parse "x0 + x1*x3 + 1" style text over x_0 ... x_{n-1}."""
        monos = set()
        text = text.strip()
        if text in ("", "0"):
            return cls(n, ())
        for term in text.split("+"):
            term = term.strip()
            if term == "1":
                monos ^= {0}
                continue
            mask = 0
            for var in term.split("*"):
                var = var.strip()
                if not (var[:1] == "x" and var[1:].isdecimal() and int(var[1:]) < n):
                    raise ValueError(f"bad ANF term {term!r}: variables are x0 ... x{n - 1}")
                mask |= 1 << int(var[1:])
            monos ^= {mask}
        return cls(n, monos)

    def __str__(self):
        if not self.monos:
            return "0"
        # each monomial's variable indices: its sort key and its text
        terms = sorted(tuple(i for i in range(self.n) if (m >> i) & 1) for m in self.monos)
        return " + ".join("*".join(f"x{i}" for i in t) if t else "1" for t in terms)

    __repr__ = __str__

    def __eq__(self, other):
        return isinstance(other, Anf) and self.n == other.n and self.monos == other.monos

    def __hash__(self):
        return hash((self.n, self.monos))

    def __xor__(self, other):
        if self.n != other.n:
            raise ValueError("mixed variable counts")
        return Anf(self.n, self.monos ^ other.monos)

    @property
    def degree(self):
        return max((m.bit_count() for m in self.monos), default=0)

    def key(self):
        """Canonical hashable key (for duplicate sieving)."""
        return (self.n, tuple(sorted(self.monos)))

    def eval(self, state):
        """Evaluate at a state int (bit i = x_i)."""
        out = 0
        for m in self.monos:
            if state & m == m:
                out ^= 1
        return out

    def truth_table(self):
        return [self.eval(s) for s in range(1 << self.n)]


def pair_product(n, state):
    """ANF of prod_{i=1..n-1} (x_i + v_i + 1) for the pair holding `state`.

    Expands to one monomial per subset of the tail's zero positions; a
    sparse tail is therefore exponentially wide, which is why generation
    splices the m-sequence and `NlfsrFeedback` keeps the tails instead.
    """
    ones = 0
    zeros = 0
    for i in range(1, n):
        if (state >> i) & 1:
            ones |= 1 << i
        else:
            zeros |= 1 << i
    monos = set()
    sub = zeros
    while True:
        monos.add(ones | sub)
        if sub == 0:
            break
        sub = (sub - 1) & zeros
    return Anf(n, monos)


def join_feedback(h, pair_states):
    """h plus one Eq-style product term per conjugate pair state."""
    out = h
    for v in pair_states:
        out = out ^ pair_product(h.n, v)
    return out


def _tree_tails(ctx, tree):
    """Parity set of register tails patched by the tree's pairs."""
    tails = set()
    for ci, cj, rep in tree.edges:
        if rep is None:
            raise ValueError("tree edge carries no representative pair")
        if ci is None or cj is None:
            state = 0  # the zero edge pairs 0^n with (1, 0, ..., 0)
        else:
            state = exponent_to_state(ctx, rep[0])
        tails ^= {state >> 1}
    return tails


def patched_lfsr_bits(f, tails, state, length):
    """Run the linear register of f with the tail set XORed into feedback.

    Each tail patches the truth table on one register tail, i.e. realizes
    one conjugate-pair successor exchange, in O(1) per clock.
    """
    n = degree(f)
    taps = lfsr_taps(f)
    tails = frozenset(tails)
    out = []
    v = state
    for _ in range(length):
        out.append(v & 1)
        b = (v & taps).bit_count() & 1
        if (v >> 1) in tails:
            b ^= 1
        v = (v >> 1) | (b << (n - 1))
    return out, v


@dataclass(frozen=True)
class NlfsrFeedback:
    """Feedback of a patched register in unexpanded form.

    Linear part from the characteristic polynomial plus one tail product
    per exchanged conjugate pair. Sparse tails at large n expand to
    2^zeros monomials, so evaluation, generation and the algebraic degree
    all work on this compact form; `to_anf` expands only when affordable.
    """
    p: int
    tails: frozenset

    @property
    def n(self):
        return degree(self.p)

    def bits(self, state, length):
        out, _ = patched_lfsr_bits(self.p, self.tails, state, length)
        return out

    @property
    def degree(self):
        """Algebraic degree of the expanded form, computed symbolically.

        The monomial on variable set T survives iff an odd number of tails
        have their support inside T, which only depends on T's trace on
        the union of supports; the top surviving size is found by peeling
        ever-larger exclusion sets off that union.
        """
        tails = list(self.tails)
        support = 0
        for v in tails:
            support |= v
        positions = [i for i in range(self.n - 1) if (support >> i) & 1]
        for d in range(len(positions) + 1):
            for away in itertools.combinations(positions, d):
                mask = 0
                for i in away:
                    mask |= 1 << i
                if sum(1 for v in tails if not v & mask) % 2:
                    return max(self.n - 1 - d, 1)
        return 1

    def to_anf(self, max_monomials=1 << 22):
        cost = sum(1 << (self.n - 1 - v.bit_count()) for v in self.tails)
        if cost > max_monomials:
            raise ValueError(f"expansion needs ~{cost} monomials; over the cap")
        return join_feedback(Anf.from_linear(self.p), (v << 1 for v in self.tails))

    def __str__(self):
        taps = self.p & ((1 << self.n) - 1)
        parts = [f"x{i}" for i in range(self.n) if (taps >> i) & 1]
        for v in sorted(self.tails):
            parts.append(f"prod(tail={v:0{max(self.n - 1, 1)}b})")
        return " + ".join(parts) if parts else "0"


def tree_feedback(ctx, tree):
    """Compact feedback of the joined register (linear part + tail set)."""
    return NlfsrFeedback(ctx.f, frozenset(_tree_tails(ctx, tree)))


# the largest order whose 2^n-bit sequence generate_debruijn builds
MATERIALIZE_CAP = 26


def generate_debruijn(ctx, tree):
    """Joined de Bruijn sequence for a spanning tree of ctx's graph: the
    full 2^n bits from state 0^n (n at most MATERIALIZE_CAP).

    Spliced from slices of the m-sequence s of p counted from ctx.seed,
    not clocked: cycle u_i is s[i::t], and phi(k) sits on cycle k mod t
    at offset k // t. A tree pair (a, tau(a)) exchanges the successors of
    phi(a) and phi(a) ^ 1 = phi(tau(a)), so after exponent a the walk goes
    on at tau(a) + t, and after tau(a) at a + t. The zero edge exchanges
    those of 0^n and phi(0): the walk emits the 0 of 0^n, goes on at
    exponent t and stops after exponent 0.
    """
    tree.validate()
    n, t, M = ctx.n, ctx.t, ctx.modulus
    if n > MATERIALIZE_CAP:
        raise ValueError(f"refusing to materialize 2^{n} bits (cap {MATERIALIZE_CAP})")
    states = mseq_states(ctx.p)
    start = int(np.flatnonzero(states == ctx.seed)[0])
    bits = states.astype(np.uint8)
    del states
    bits &= 1
    s = np.roll(bits, -start)
    del bits
    pairs = []
    zero_edges = 0
    for ci, cj, rep in tree.edges:
        if rep is None:
            raise ValueError("tree edge carries no representative pair")
        if ci is None or cj is None:
            zero_edges += 1
        else:
            pairs.append((rep[0] % M, rep[1] % M))
    windows = s[(np.array(pairs, dtype=np.int64).reshape(-1, 2, 1) + t * np.arange(n)) % M]
    diff = windows[:, 0] ^ windows[:, 1]
    if (diff[:, 0] != 1).any() or diff[:, 1:].any():
        raise ValueError("a tree edge's pair is not a conjugate pair")
    jump = {0: None}   # exponent -> exponent the walk goes on at; None: 0^n
    for a, b in pairs:
        jump[a] = (b + t) % M
        jump[b] = (a + t) % M
    if zero_edges != 1 or len(jump) != 1 + 2 * len(pairs):
        raise ValueError("tree did not join all cycles into one")
    switches = [[] for _ in range(t)]   # sorted offsets of each cycle's switch points
    for k in sorted(jump):
        switches[k % t].append(k // t)
    pieces = [np.zeros(1, dtype=np.uint8)]
    k = t % M
    while k is not None:
        c, o = k % t, k // t
        cycle, offs = s[c::t], switches[c]
        i = bisect.bisect_left(offs, o)
        if i == len(offs):
            pieces.append(cycle[o:])
            o, i = 0, 0
        pieces.append(cycle[o:offs[i] + 1])
        k = jump[c + t * offs[i]]
    out = np.concatenate(pieces)
    del s, pieces
    if len(out) != 1 << n:
        raise ValueError("tree did not join all cycles into one")
    return out.tolist()


def anf_stream(anf, state):
    """Endless output bits of the NLFSR with feedback `anf` from `state`."""
    n = anf.n
    v = state
    while True:
        yield v & 1
        v = (v >> 1) | (anf.eval(v) << (n - 1))


def anf_bits(anf, state, length):
    """First `length` output bits of the NLFSR with feedback `anf`."""
    return list(itertools.islice(anf_stream(anf, state), length))


# ---------------------------------------------------------------------------
# product of pairwise distinct irreducibles

class ProductCtx:
    """Cycle bookkeeping for f = f_1 * ... * f_s, pairwise distinct
    irreducibles, via an invertible state-combination matrix.

    Row (offset_i + r) of the matrix is the first n output bits of the
    i-th component LFSR started from basis state e_r; combining component
    states is then a GF(2) matrix product, and splitting uses the inverse.
    """

    def __init__(self, ctxs):
        from .gf2poly import invert_gf2, lfsr_bits, mat_vec_gf2, state_from_bits

        fs = [c.f for c in ctxs]
        if len(set(fs)) != len(fs):
            raise ValueError("component polynomials must be pairwise distinct")
        self.ctxs = list(ctxs)
        self.n = sum(c.n for c in ctxs)
        self.f = 1
        for fi in fs:
            self.f = poly_mul(self.f, fi)
        self.offsets = []
        off = 0
        for c in ctxs:
            self.offsets.append(off)
            off += c.n
        rows = []
        for c in ctxs:
            for r in range(c.n):
                rows.append(state_from_bits(lfsr_bits(c.f, 1 << r, self.n)))
        self.matrix = rows
        inv = invert_gf2(rows, self.n)
        if inv is None:
            raise AssertionError("state-combination matrix is singular")
        self.inverse = inv
        self._combine = lambda vcat: mat_vec_gf2(self.matrix, vcat)
        self._split_cat = lambda w: mat_vec_gf2(self.inverse, w)
        # component states a_i with combine(a_1, ..., a_s) = (1, 0, ..., 0)
        self.unit_parts = self.split(1)

    def split(self, w):
        """Product state -> tuple of component states."""
        vcat = self._split_cat(w)
        out = []
        for c, off in zip(self.ctxs, self.offsets):
            out.append((vcat >> off) & ((1 << c.n) - 1))
        return tuple(out)

    def combine(self, parts):
        """Component states -> product state."""
        vcat = 0
        for v, c, off in zip(parts, self.ctxs, self.offsets):
            if v >> c.n:
                raise ValueError("component state too wide")
            vcat |= v << off
        return self._combine(vcat)


@dataclass(frozen=True)
class ProductCycleLabel:
    """One cycle of the product register: per-component cycle ids (None =
    component zero cycle) and canonical shift offsets."""
    cycles: tuple
    shifts: tuple
    period: int

    def __str__(self):
        terms = []
        for comp, (c, s) in enumerate(zip(self.cycles, self.shifts), start=1):
            if c is None:
                continue
            term = f"u{comp}_{c}"
            terms.append(f"L^{s} {term}" if s else term)
        return "[" + (" + ".join(terms) if terms else "0") + "]"


def _component_period(ctx, cycle):
    return 1 if cycle is None else ctx.e


def _canonical_shifts(periods, offsets):
    """Minimal joint-shift representative of the offsets tuple."""
    total = math.lcm(*periods) if periods else 1
    best = None
    for d in range(total):
        cand = tuple((o + d) % e for o, e in zip(offsets, periods))
        if best is None or cand < best:
            best = cand
    return best, total


def product_cycle_structure(pctx):
    """All cycles of the product register as canonical labels.

    Each choice of one cycle per component yields prod(e_i)/lcm(e_i)
    cycles of period lcm(e_i).
    """
    labels = []
    options = [[None] + list(range(c.t)) for c in pctx.ctxs]
    for combo in itertools.product(*options):
        periods = [_component_period(c, cyc) for c, cyc in zip(pctx.ctxs, combo)]
        total = math.lcm(*periods)
        seen = set()
        for offsets in itertools.product(*(range(e) for e in periods)):
            rep, _ = _canonical_shifts(periods, offsets)
            if rep in seen:
                continue
            seen.add(rep)
            labels.append(ProductCycleLabel(tuple(combo), rep, total))
    return labels


def product_cycle_of(pctx, w):
    """Canonical label of the cycle containing product state w."""
    parts = pctx.split(w)
    cycles = []
    offsets = []
    periods = []
    for v, c in zip(parts, pctx.ctxs):
        if v == 0:
            cycles.append(None)
            offsets.append(0)
            periods.append(1)
        else:
            k = state_to_exponent(c, v)
            cycles.append(k % c.t)
            offsets.append(k // c.t)
            periods.append(c.e)
    rep, total = _canonical_shifts(periods, offsets)
    return ProductCycleLabel(tuple(cycles), rep, total)


def product_conjugate(pctx, w):
    """Conjugate state of w and the label of the cycle containing it.

    Splits w into component states, adds the component decomposition of
    (1, 0, ..., 0) via per-component Zech arithmetic, and recombines.
    """
    parts = pctx.split(w)
    out_parts = []
    for v, a, c in zip(parts, pctx.unit_parts, pctx.ctxs):
        if a == 0:
            out_parts.append(v)
            continue
        if v == 0:
            out_parts.append(a)
            continue
        j = state_to_exponent(c, v)
        gamma = state_to_exponent(c, a)
        if j == gamma:
            out_parts.append(0)
            continue
        exp = (gamma + c.zech.resolve((j - gamma) % c.modulus)) % c.modulus
        out_parts.append(exponent_to_state(c, exp))
    vhat = pctx.combine(out_parts)
    if vhat != w ^ 1:
        raise AssertionError("conjugate reconstruction mismatch")
    return vhat, product_cycle_of(pctx, vhat)
