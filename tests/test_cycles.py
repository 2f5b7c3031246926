import math
import random
from itertools import islice

import pytest

from zechbruijn import (
    CycleCtx,
    associated_irreducible,
    cycle_position,
    exponent_to_state,
    find_associated_primitive,
    lfsr_bits,
    poly_from_set_notation,
    state_to_exponent,
    zech_bruteforce,
)
from zechbruijn.cycles import ZERO_CYCLE, primitive_polynomials, u0_seed_state
from zechbruijn.gf2poly import (
    berlekamp_massey,
    poly_mod,
    poly_mul,
    poly_powmod,
    state_from_bits,
)

from conftest import F4, P4, P10, decimate

# the full phi table of the order-4 walkthrough: exponent -> state bits
PHI4 = {
    0: (1, 0, 0, 0), 1: (0, 1, 1, 1), 2: (0, 0, 1, 0), 3: (0, 0, 0, 1),
    4: (1, 1, 1, 1), 5: (0, 1, 0, 1), 6: (0, 0, 1, 1), 7: (1, 1, 1, 0),
    8: (1, 0, 1, 0), 9: (0, 1, 1, 0), 10: (1, 1, 0, 1), 11: (0, 1, 0, 0),
    12: (1, 1, 0, 0), 13: (1, 0, 1, 1), 14: (1, 0, 0, 1),
}


def test_u0_seed_state_trivial():
    assert u0_seed_state(P4, 1) == 1


def test_u0_seed_state_order4():
    v = u0_seed_state(P4, 3)
    bits = lfsr_bits(P4, v, 15)
    assert decimate(bits, 3) == [1, 0, 0, 0, 1]


def test_u0_seed_state_order10():
    v = u0_seed_state(P10, 31)
    bits = lfsr_bits(P10, v, 310)
    assert [bits[31 * i] for i in range(10)] == [1] + [0] * 9


def test_ctx_u_sequences(ctx4):
    assert ctx4.u_sequence(0) == [1, 0, 0, 0, 1]
    assert ctx4.u_sequence(1) == [0, 1, 1, 1, 1]
    assert ctx4.u_sequence(2) == [0, 0, 1, 0, 1]


def test_ctx_rejects_invalid_t():
    with pytest.raises(ValueError):
        CycleCtx(P4, 5)     # associated polynomial drops to degree 2
    with pytest.raises(ValueError):
        CycleCtx(P4, 7)     # 7 does not divide 15
    with pytest.raises(ValueError, match="lie in"):
        CycleCtx(P4, 15)    # alpha^(2^n - 1) = 1: no degree-n cycle structure
    assert CycleCtx(0b11, 1).e == 1     # degree 1: [0] u [1]


def test_exponent_to_state_full_table(ctx4):
    for k, bits in PHI4.items():
        assert exponent_to_state(ctx4, k) == state_from_bits(bits)


def _exponent_to_state_loop(ctx, k):
    """Oracle: bit i is the parity of seed & (x^(k + i*t) mod p), one
    modular product per bit."""
    c = poly_powmod(2, k % ctx.modulus, ctx.p)
    v = 0
    for i in range(ctx.n):
        v |= ((ctx.seed & c).bit_count() & 1) << i
        c = poly_mod(poly_mul(c, ctx.xt), ctx.p)
    return v


@pytest.mark.parametrize("spec,t,draws", [
    ("n=4;{1}", 3, 50), ("n=10;{3}", 31, 200), ("n=20;{3}", 205, 200), ("n=300;{7}", 31, 6),
])
def test_exponent_to_state_matches_per_bit_oracle(spec, t, draws):
    ctx = CycleCtx(poly_from_set_notation(spec), t)
    rng = random.Random(t)
    ks = [0, 1, ctx.modulus - 1, ctx.modulus + 5] + [rng.randrange(ctx.modulus)
                                                   for _ in range(draws)]
    for k in ks:
        assert exponent_to_state(ctx, k) == _exponent_to_state_loop(ctx, k), k


def test_exponent_to_state_reads_the_m_sequence():
    # bit i of phi(alpha^k) is s_(k + i*t) of the m-sequence from the seed
    for n in range(2, 11):
        M = (1 << n) - 1
        for p in islice(primitive_polynomials(n), 2):
            for t in (t for t in range(1, M) if M % t == 0):
                if not associated_irreducible(p, t)[1]:
                    continue
                ctx = CycleCtx(p, t)
                bits = lfsr_bits(p, ctx.seed, M)
                for k in range(M):
                    want = sum(bits[(k + i * t) % M] << i for i in range(n))
                    assert exponent_to_state(ctx, k) == want, (p, t, k)


def test_state_to_exponent(ctx4):
    assert state_to_exponent(ctx4, state_from_bits((1, 0, 0, 0))) == 0
    assert state_to_exponent(ctx4, state_from_bits((0, 1, 1, 0))) == 9
    with pytest.raises(ValueError):
        state_to_exponent(ctx4, 0)


def test_roundtrip_exhaustive_small():
    cases = [(P4, 3), ((1 << 6) | (1 << 1) | 1, 3),
             ((1 << 6) | (1 << 1) | 1, 7)]
    for p, t in cases:
        table = zech_bruteforce(p)
        ctx = CycleCtx(p, t, zech=table)
        seen = set()
        for k in range(ctx.modulus):
            s = exponent_to_state(ctx, k)
            assert state_to_exponent(ctx, s) == k
            seen.add(s)
        assert len(seen) == ctx.modulus    # phi is a bijection off zero


def test_roundtrip_exhaustive_order10(ctx10):
    for k in range(1023):
        assert state_to_exponent(ctx10, exponent_to_state(ctx10, k)) == k


@pytest.mark.parametrize("t", [3, 11, 93])
def test_roundtrip_other_divisors(zech10, t):
    ctx = CycleCtx(P10, t, zech=zech10)
    rng = random.Random(t)
    for _ in range(200):
        k = rng.randrange(0, 1023)
        assert state_to_exponent(ctx, exponent_to_state(ctx, k)) == k


def test_phi_additivity(ctx10):
    # phi(eta) + phi(gamma) = phi(eta + gamma), checked through logarithms
    rng = random.Random(5)
    M = ctx10.modulus
    for _ in range(100):
        a, b = rng.randrange(M), rng.randrange(M)
        if a == b:
            continue
        sa, sb = exponent_to_state(ctx10, a), exponent_to_state(ctx10, b)
        log_sum = (b + ctx10.zech.resolve((a - b) % M)) % M
        assert sa ^ sb == exponent_to_state(ctx10, log_sum)


def test_cycles_partition_state_space(ctx4):
    states = {0}
    for i in range(ctx4.t):
        for j in range(ctx4.e):
            states.add(exponent_to_state(ctx4, i + ctx4.t * j))
    assert len(states) == 16


def test_cycle_position(ctx4):
    pos = cycle_position(ctx4, 8)
    assert (pos.cycle, pos.offset) == (2, 2)
    assert pos.state == state_from_bits(PHI4[8])
    zero = cycle_position(ctx4, state=0)
    assert zero.cycle is ZERO_CYCLE
    assert cycle_position(ctx4, 0).cycle == 0
    bystate = cycle_position(ctx4, state=state_from_bits((0, 1, 1, 0)))
    assert (bystate.cycle, bystate.offset) == (0, 3)


def test_cycle_position_order300():
    # positions can be located without any Zech data when the exponent is
    # given; the degree-300 setting exercises the big-exponent path
    p300 = (1 << 300) | (1 << 7) | 1
    ctx = CycleCtx(p300, 31)
    pos = cycle_position(ctx, 7)
    assert (pos.cycle, pos.offset) == (7, 0)
    pos = cycle_position(ctx, 300)
    assert (pos.cycle, pos.offset) == (21, 9)


def test_find_associated_primitive():
    assert find_associated_primitive(F4, 3) == P4
    assert find_associated_primitive(0b111, 1) == 0b111
    f10 = (1 << 10) | (1 << 9) | (1 << 5) | (1 << 1) | 1
    p = find_associated_primitive(f10, 31)
    got, valid = associated_irreducible(p, 31)
    assert valid and got == f10
    with pytest.raises(ValueError):
        find_associated_primitive(F4, 3, budget=0)


def _psi(bits, d, n):
    """Minimal polynomial of the d-decimation of a periodic sequence."""
    dec = decimate(bits, d)
    rep = (dec * (2 * n // len(dec) + 2))[: 2 * n]
    return berlekamp_massey(rep)


def test_commutative_diagram_decimation_vs_association():
    # associating after d-decimation equals d-decimating the associate
    for (p, n, t) in [(P4, 4, 3), ((1 << 6) | (1 << 1) | 1, 6, 7)]:
        M = (1 << n) - 1
        mbits = lfsr_bits(p, 1, M)
        for d in (7, 11, 13):
            if math.gcd(d, M) != 1:
                continue
            p2 = _psi(mbits, d, n)
            q1, _ = associated_irreducible(p, t)
            q2, _ = associated_irreducible(p2, t)
            e = M // t
            psi_q1 = _psi(lfsr_bits(q1, 1, e), d, n)
            assert psi_q1 == q2
