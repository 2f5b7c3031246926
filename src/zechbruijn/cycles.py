"""Cycle structure of the LFSR of an irreducible polynomial.

For irreducible f of degree n and order e = (2^n - 1)/t with a root
beta = alpha^t (alpha a root of the associated primitive p), the state
space splits into the zero cycle plus t cycles of period e. Fixing
(1, 0, ..., 0) as the initial state of the 0th cycle pins a canonical
phase for every cycle, and the map phi sending alpha^k to an n-bit state
becomes computable in both directions: exponent -> state by one modular
power and n precomputed parity rows, state -> exponent by a triangular
solve plus Zech logarithm folding.
"""

from dataclasses import dataclass

from .gf2poly import (
    associated_irreducible,
    degree,
    is_primitive,
    lfsr_advance,
    lfsr_bits,
    poly_mod,
    poly_mul,
    poly_powmod,
    poly_to_set_notation,
    solve_gf2,
)

ZERO_CYCLE = None  # cycle id of the all-zero cycle in CyclePos


@dataclass(frozen=True)
class CyclePos:
    """A state located in its cycle: state = phi(alpha^(cycle + t*offset))."""
    cycle: int | None        # index in [0, t-1], or None for the zero cycle
    offset: int
    state: int


def u0_seed_state(p, t):
    """Initial state v of the m-sequence making u_0 start (1, 0, ..., 0).

    The first coordinate of v * A_p^(i*t) is the parity of v & (x^(i*t)
    mod p), so v solves an n x n linear system whose rows are those
    polynomial powers.
    """
    n = degree(p)
    M = (1 << n) - 1
    rows = []
    xt = poly_powmod(2, t % M, p)
    c = 1
    for _ in range(n):
        rows.append(c)
        c = poly_mod(poly_mul(c, xt), p)
    v = solve_gf2(rows, 1)
    if v is None:
        raise AssertionError("seed system singular; t is not valid for p")
    return v


def check_t(n, t):
    """Reject a t that does not split the order-n LFSR into t cycles.

    t must divide 2^n - 1 and lie in [1, 2^n - 2]; at n = 1, where
    2^n - 1 = 1, t = 1 is the one cycle structure [0] u [1].
    """
    M = (1 << n) - 1
    if not (1 <= t <= max(M - 1, 1)) or M % t:
        raise ValueError(
            f"t = {t} must divide 2^{n} - 1 and lie in [1, 2^{n} - 2] for n = {n}"
        )


class CycleCtx:
    """Decimation context tying p, f = associated_irreducible(p, t), and t.

    Carries the seed state of the m-sequence, the modular power of x^t,
    the n rows of the state map (row i is the m-sequence state i*t clocks
    after the seed) and (optionally) a Zech table for position lookups.
    """

    def __init__(self, p, t, zech=None, f=None):
        n = degree(p)
        M = (1 << n) - 1
        check_t(n, t)
        if f is None:
            if M == 1:
                f = p  # degree 1: the only cycle structure is [0] u [1]
            else:
                f, valid = associated_irreducible(p, t)
                if not valid:
                    raise ValueError(
                        f"t = {t} is not valid for {poly_to_set_notation(p)}: "
                        f"associated polynomial has degree {degree(f)} < {n}"
                    )
        self.n = n
        self.modulus = M
        self.t = t
        self.e = M // t
        self.p = p
        self.f = f
        self.zech = zech
        self.seed = u0_seed_state(p, t)
        self.xt = poly_powmod(2, t, p)
        self.rows = [self.seed]
        for _ in range(n - 1):
            self.rows.append(lfsr_advance(p, self.rows[-1], self.xt))

    def state_of(self, c):
        """phi of the field element with polynomial c mod p: bit i is the
        parity of row i & c."""
        v = 0
        for i, row in enumerate(self.rows):
            v |= ((row & c).bit_count() & 1) << i
        return v

    def u_sequence(self, i):
        """The full cycle u_i as a bit list of period e (small n only)."""
        bits = lfsr_bits(self.p, self.seed, self.modulus)
        return [bits[(i + self.t * j) % self.modulus] for j in range(self.e)]

    def __repr__(self):
        return (f"CycleCtx(n={self.n}, t={self.t}, e={self.e}, "
                f"p={poly_to_set_notation(self.p)}, f={poly_to_set_notation(self.f)})")


def exponent_to_state(ctx, k):
    """phi(alpha^k): window of the t-decimated m-sequence at exponent k.

    Bit i is s_(k + i*t), the first coordinate of R_i * A_p^k for row
    R_i of the context, which is the parity of R_i & (x^k mod p).
    """
    return ctx.state_of(poly_powmod(2, k % ctx.modulus, ctx.p))


def state_to_exponent(ctx, v):
    """k with phi(alpha^k) = v, via the triangular system and Zech folding.

    Solves for the beta-basis coordinates (a_0, ..., a_{n-1}) of alpha^k,
    then folds the nonzero terms a_l beta^l = alpha^(t*l) pairwise with
    log(alpha^x + alpha^y) = y + tau(x - y).
    """
    if v == 0:
        raise ValueError("the zero state has no exponent")
    n, M, f = ctx.n, ctx.modulus, ctx.f
    coords = v & 1
    for ell in range(1, n):
        bit = ((v >> 1) & (f >> (ell + 1))).bit_count() & 1
        coords |= bit << ell
    cur = None  # running logarithm of the partial sum; None = zero element
    for ell in range(n):
        if not (coords >> ell) & 1:
            continue
        y = (ctx.t * ell) % M
        if cur is None:
            cur = y
        elif cur == y:
            cur = None
        else:
            if ctx.zech is None:
                raise ValueError("context has no Zech table; state lookup unavailable")
            cur = (y + ctx.zech.resolve((cur - y) % M)) % M
    if cur is None:
        raise AssertionError("nonzero state folded to zero")
    return cur


def cycle_position(ctx, k=None, *, state=None):
    """Locate an exponent (or a state) as (cycle, offset, state).

    k = cycle + t * offset; the zero state maps to the zero cycle.
    """
    if k is None:
        if state is None:
            raise ValueError("need an exponent or a state")
        if state == 0:
            return CyclePos(ZERO_CYCLE, 0, 0)
        k = state_to_exponent(ctx, state)
    k %= ctx.modulus
    if state is None:
        state = exponent_to_state(ctx, k)
    return CyclePos(k % ctx.t, k // ctx.t, state)


def primitive_polynomials(n, factors=None):
    """Yield primitive degree-n polynomials in ascending set-notation order."""
    for c in range(1, 1 << n, 2):
        f = (1 << n) | c
        if is_primitive(f, factors):
            yield f


def find_associated_primitive(f, t, budget=None, factors=None):
    """Primitive p of the same degree whose t-decimation has minimal poly f.

    Scans candidates in ascending order; `budget` caps how many primitive
    polynomials are tried before giving up.
    """
    n = degree(f)
    tried = 0
    for p in primitive_polynomials(n, factors):
        tried += 1
        if budget is not None and tried > budget:
            break
        g, _ = associated_irreducible(p, t)
        if g == f:
            return p
    raise ValueError(
        f"no associated primitive found for {poly_to_set_notation(f)} with t = {t}"
    )
