"""Cross-join pairs on (modified) de Bruijn sequences.

Two conjugate pairs whose four states interleave along a full cycle can be
cut and re-spliced into a new full cycle; the feedback function changes by
the two corresponding tail products. On an m-sequence the interleaving
condition reads directly off Zech logarithms: exponents a < b < tau(a) <
tau(b) put the four states in the required cyclic order. The Fryers
coefficients count how many distinct feedback functions each round of
cross-joins can reach.
"""

import decimal
import math
import random
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .gf2poly import degree, lfsr_state_at, poly_to_set_notation, seq_windows
from .joining import Anf, NlfsrFeedback, anf_bits, pair_product
from .zech import MissingEntryError, build_zech_table


class CrossJoinPair(NamedTuple):
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


def check_crossjoin_degree(n):
    """Refuse n < 3: a < b < tau(a) < tau(b) needs four exponents in
    [1, 2^n - 2], and below n = 3 there are at most two."""
    if n < 3:
        raise ValueError(f"cross-join needs n >= 3, got n = {n}: [1, 2^n - 2] "
                         "holds no a < b < tau(a) < tau(b)")


def random_crossjoin(p, zech=None, seed=None, ab=None, max_tries=10**6):
    """Sample a cross-join pair on the m-sequence of p and build the NLFSR.

    Draws (a, b) until a < b < tau(a) < tau(b); unresolvable Zech lookups
    count against `max_tries`, and exhausting it raises. `ab` forces a
    specific exponent pair (still checked against the ordering). Returns
    (pair, feedback, provenance).
    """
    n = degree(p)
    check_crossjoin_degree(n)
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


# A-rows x B-tails compared per block of the interleave test
_BLOCK_CELLS = 1 << 18


def enumerate_crossjoin_pairs(seq, n=None):
    """All cross-join pairs of a de Bruijn sequence, by tail A, then B.

    Indexes every n-window once, then tests each couple of conjugate pairs
    for the interleaved cyclic order, a block of A tails against all B
    tails at a time. Input failing the window test is a domain error.
    """
    if n is None:
        n = (len(seq) - 1).bit_length()
    N = len(seq)
    # every slot fills iff the windows are distinct
    pos = np.full(1 << n, -1, dtype=np.int32 if n < 31 else np.int64)
    if N == 1 << n:
        pos[seq_windows(seq, n)] = np.arange(N)
    if (pos < 0).any():
        raise ValueError("input is not a de Bruijn sequence of this order")
    half = 1 << (n - 1)
    p0, p1 = pos[0::2], pos[1::2]   # positions of (0, T) and (1, T), by tail T
    qa = (p1 - p0) % N
    tails = np.arange(half)
    rows = max(1, _BLOCK_CELLS // half)
    out = []
    for lo in range(0, half, rows):
        A = tails[lo:lo + rows, None]
        pa0, lim = p0[A], qa[A]
        # B interleaves A iff exactly one of its states falls between A's
        hit = ((p0 - pa0) % N < lim) != ((p1 - pa0) % N < lim)
        ai, bi = np.nonzero(hit & (tails > A))
        out += map(CrossJoinPair, repeat(n), ((ai + lo) << 1).tolist(), (bi << 1).tolist())
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


# exact integer arithmetic in decimal: no rounding, no overflow
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                         Emin=decimal.MIN_EMIN)


class ExactInt(decimal.Decimal):
    """An exact integer held as a Decimal.

    str() is linear in the digits (int's is quadratic, and capped at 4300
    digits), and sums stay exact where the thread's decimal context would
    round them to its precision.
    """
    __slots__ = ()

    def __add__(self, other):
        return ExactInt(_EXACT.add(self, other))

    __radd__ = __add__


def fryers_coefficients(n):
    """Yield (k, coefficient) for odd k, as ExactInt, by the ratio
    N(k + 2) / N(k) = (h - k)(h - k - 1) / ((k + 1)(k + 2)), h = 2^(n-1);
    the integer division is exact, since N(k + 2) is an integer."""
    if n < 2:
        raise ValueError("order must be at least 2")
    half = 1 << (n - 1)
    c = ExactInt(1)
    for k in range(1, half, 2):
        yield k, c
        c = ExactInt(_EXACT.divide_int(_EXACT.multiply(c, (half - k) * (half - k - 1)),
                                       (k + 1) * (k + 2)))


def fryers_total(n, verify=None):
    """Total count of order-n de Bruijn sequences: 2^(2^(n-1) - n), as ExactInt.

    With verify (default for n <= 14) the coefficient sum is recomputed
    exactly and checked against the closed form.
    """
    if n < 2:
        raise ValueError("order must be at least 2")
    total = ExactInt(_EXACT.power(2, (1 << (n - 1)) - n))
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
    products = [pair_product(n, tail << 1) for tail in range(1 << (n - 1))]
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
                g = h ^ products[pair.tail_a] ^ products[pair.tail_b]
                key = g.key()
                if key not in seen:
                    seen[key] = g
                    nxt.append(g)
        if truncated or not nxt:
            break
        frontier = nxt
    return set(seen.values()), truncated
