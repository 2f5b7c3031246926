"""Cross-join pairs on (modified) de Bruijn sequences.

Two conjugate pairs whose four states interleave along a full cycle can be
cut and re-spliced into a new full cycle; the feedback function changes by
the two corresponding tail products. On an m-sequence the interleaving
condition reads directly off Zech logarithms: exponents a < b < tau(a) <
tau(b) put the four states in the required cyclic order. The Fryers
coefficients count how many distinct feedback functions each round of
cross-joins can reach.
"""

import math
import random
from dataclasses import dataclass

from .gf2poly import degree, lfsr_state_at, poly_to_set_notation, seq_windows
from .joining import Anf, NlfsrFeedback, anf_bits, pair_product
from .zech import MissingEntryError, build_zech_table


@dataclass(frozen=True)
class CrossJoinPair:
    """A cross-join pair: tails A != B with the four states interleaved.

    For m-sequence-derived pairs the exponents a < b < tau(a) < tau(b) are
    carried along; `alpha` and `beta` are the full states (a_0, A), (b_0, B).
    """
    n: int
    alpha: int
    beta: int
    a: int | None = None
    b: int | None = None
    tau_a: int | None = None
    tau_b: int | None = None

    @property
    def tail_a(self):
        return self.alpha >> 1

    @property
    def tail_b(self):
        return self.beta >> 1


def apply_crossjoin(h, pair):
    """Feedback of the re-spliced cycle: h + product(A) + product(B).

    `pair` may be a CrossJoinPair or a bare (tail_a, tail_b) of ints over
    x_1 ... x_{n-1}.
    """
    n = h.n
    if isinstance(pair, CrossJoinPair):
        ta, tb = pair.tail_a, pair.tail_b
    else:
        ta, tb = pair
    if ta == tb:
        raise ValueError("cross-join tails must differ")
    return h ^ pair_product(n, ta << 1) ^ pair_product(n, tb << 1)


def random_crossjoin(p, zech=None, seed=None, ab=None, max_tries=10**6):
    """Sample a cross-join pair on the m-sequence of p and build the NLFSR.

    Draws (a, b) until a < b < tau(a) < tau(b); unresolvable Zech lookups
    count against `max_tries`, and exhausting it raises. `ab` forces a
    specific exponent pair (still checked against the ordering). Returns
    (pair, feedback, provenance).
    """
    n = degree(p)
    M = (1 << n) - 1
    if zech is None:
        zech = build_zech_table(p)
    rng = random.Random(seed)

    def attempt(a, b):
        ta, tb = zech.resolve(a), zech.resolve(b)
        if not a < b < ta < tb:
            return None
        return ta, tb

    if ab is not None:
        a, b = ab
        got = attempt(a, b)
        if got is None:
            raise ValueError(f"(a, b) = {ab} violates a < b < tau(a) < tau(b)")
    else:
        got = None
        for _ in range(max_tries):
            a = rng.randrange(1, M)
            b = rng.randrange(1, M)
            if a == b:
                continue
            if a > b:
                a, b = b, a
            try:
                got = attempt(a, b)
            except MissingEntryError:
                continue
            if got is not None:
                break
        if got is None:
            raise ValueError(f"no valid pair found within {max_tries} tries")
    ta, tb = got
    alpha = lfsr_state_at(p, 1, a)
    beta = lfsr_state_at(p, 1, b)
    if alpha >> 1 == beta >> 1:
        raise AssertionError("sampled states share a tail")
    pair = CrossJoinPair(n, alpha, beta, a, b, ta, tb)
    feedback = NlfsrFeedback(p, frozenset({alpha >> 1, beta >> 1}))
    provenance = {
        "p": poly_to_set_notation(p),
        "n": n,
        "a": a,
        "b": b,
        "tau_a": ta,
        "tau_b": tb,
        "seed": seed,
    }
    return pair, feedback, provenance


def enumerate_crossjoin_pairs(seq, n=None):
    """All cross-join pairs of a de Bruijn sequence.

    Indexes every n-window once, then tests each couple of conjugate pairs
    for the interleaved cyclic order. Input failing the window test is a
    domain error.
    """
    if n is None:
        n = (len(seq) - 1).bit_length()
    N = len(seq)
    pos = [None] * (1 << n)     # every slot fills iff the windows are distinct
    if N == 1 << n:
        for j, w in enumerate(seq_windows(seq, n)):
            pos[w] = j
    if None in pos:
        raise ValueError("input is not a de Bruijn sequence of this order")
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


# ---------------------------------------------------------------------------
# Fryers coefficients

def fryers_coefficient(n, k):
    """Number of de Bruijn feedback functions at truth-table distance k
    from the m-sequence one: binom(2^(n-1), k) / 2^(n-1) for odd k, else 0."""
    if n < 2:
        raise ValueError("order must be at least 2")
    if k % 2 == 0:
        return 0
    half = 1 << (n - 1)
    return math.comb(half, k) // half


def fryers_coefficients(n):
    """Yield (k, coefficient) for odd k, by incremental binomial ratios."""
    if n < 2:
        raise ValueError("order must be at least 2")
    half = 1 << (n - 1)
    comb = half  # binom(half, 1)
    for k in range(1, half, 2):
        yield k, comb // half
        if k + 2 < half:
            comb = comb * (half - k) * (half - k - 1) // ((k + 1) * (k + 2))


def fryers_total(n, verify=None):
    """Total count of order-n de Bruijn sequences: 2^(2^(n-1) - n).

    With verify (default for n <= 14) the coefficient sum is recomputed
    exactly and checked against the closed form.
    """
    if n < 2:
        raise ValueError("order must be at least 2")
    total = 1 << ((1 << (n - 1)) - n)
    if verify is None:
        verify = n <= 14
    if verify:
        acc = sum(c for _, c in fryers_coefficients(n))
        if acc != total:
            raise AssertionError("Fryers coefficient sum disagrees with 2^(2^(n-1)-n)")
    return total


# ---------------------------------------------------------------------------
# breadth-first closure over cross-join applications

def feedback_of_debruijn(seq, n):
    """Feedback ANF realizing a de Bruijn sequence (truth-table Moebius)."""
    N = len(seq)
    table = [0] * (1 << n)
    for j, w in enumerate(seq_windows(seq, n)):
        table[w] = seq[(j + n) % N]
    return Anf.from_truth_table(n, table)


def crossjoin_bfs(seq, depth, budget=None):
    """Breadth-first closure of cross-join applications with ANF sieving.

    Starts from the feedback function of `seq`, applies every cross-join
    pair of every frontier sequence, and keeps distinct ANFs only. Stops
    after `depth` layers or once `budget` expansions have been spent;
    returns (set of Anf, truncated flag).
    """
    n = (len(seq) - 1).bit_length()
    start = feedback_of_debruijn(seq, n)
    seen = {start.key(): start}
    frontier = [start]
    truncated = False
    expanded = 0
    for _ in range(depth):
        nxt = []
        for h in frontier:
            if budget is not None and expanded >= budget:
                truncated = True
                break
            expanded += 1
            bits = anf_bits(h, 0, 1 << n)
            for pair in enumerate_crossjoin_pairs(bits, n):
                g = apply_crossjoin(h, pair)
                if g.key() not in seen:
                    seen[g.key()] = g
                    nxt.append(g)
        if truncated or not nxt:
            break
        frontier = nxt
    return set(seen.values()), truncated
