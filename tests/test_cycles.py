import math
import random

import pytest

from zechbruijn import (
    CycleCtx,
    associated_irreducible,
    cycle_position,
    exponent_to_state,
    find_associated_primitive,
    lfsr_bits,
    state_to_exponent,
    zech_bruteforce,
)
from zechbruijn.cycles import ZERO_CYCLE, u0_seed_state
from zechbruijn.gf2poly import berlekamp_massey, state_from_bits

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
