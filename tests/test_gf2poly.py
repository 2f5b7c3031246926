import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zechbruijn import gf2poly as g
from zechbruijn.factors import UnsupportedDegreeError

from conftest import decimate

X = 0b10
P4 = 0b10011          # x^4 + x + 1
F4 = 0b11111          # x^4 + x^3 + x^2 + x + 1
P5 = 0b100101         # x^5 + x^2 + 1
P10 = (1 << 10) | (1 << 3) | 1


def test_set_notation_roundtrip():
    p = g.poly_from_set_notation("n=130;{3}")
    assert p == (1 << 130) | (1 << 3) | 1
    assert g.poly_to_set_notation(p) == "n=130;{3}"
    assert g.poly_from_set_notation("0x13") == P4
    assert g.poly_to_set_notation(F4) == "n=4;{3,2,1}"
    with pytest.raises(ValueError):
        g.poly_from_set_notation("garbage")
    with pytest.raises(ValueError):
        g.poly_from_set_notation("n=4;{5}")


def test_poly_mul_mod_examples():
    assert g.poly_mul_mod(X, X, 0b111) == 0b11            # x*x = x+1 mod x^2+x+1
    b = 0b1101
    assert g.poly_mul_mod(1, b, P4) == g.poly_mod(b, P4)  # identity
    # x^3 * x^3 = x^6 = x^3 + x^2 mod x^4+x+1 (schoolbook by hand)
    assert g.poly_mul_mod(0b1000, 0b1000, P4) == 0b1100


def test_poly_mul_mod_rejects_bad_modulus():
    with pytest.raises(ValueError):
        g.poly_mul_mod(X, X, 1)
    with pytest.raises(ZeroDivisionError):
        g.poly_mod(X, 0)


def test_poly_ring_properties():
    rng = random.Random(7)
    m = P10
    for _ in range(50):
        a, b, c = (rng.getrandbits(12) for _ in range(3))
        assert g.poly_mul_mod(a, b, m) == g.poly_mul_mod(b, a, m)
        assert g.poly_mul_mod(g.poly_mul_mod(a, b, m), c, m) == \
            g.poly_mul_mod(a, g.poly_mul_mod(b, c, m), m)
        assert g.poly_mul_mod(a, b ^ c, m) == \
            g.poly_mul_mod(a, b, m) ^ g.poly_mul_mod(a, c, m)


def test_lfsr_state_at_identity_and_step():
    v = 0b0101
    assert g.lfsr_state_at(P4, v, 0) == v
    assert g.lfsr_state_at(P4, 0b0001, 1) == 0b1000  # (1,0,0,0) -> (0,0,0,1)


def test_lfsr_state_at_matches_iteration():
    # includes the two states feeding the order-5 cross-join example
    taps = g.lfsr_taps(P5)
    v = 1
    iterated = []
    for _ in range(40):
        iterated.append(v)
        v = g.lfsr_step(v, taps, 5)
    for e in (3, 17, 7, 21, 33):
        assert g.lfsr_state_at(P5, 1, e) == iterated[e % 31]


def test_lfsr_state_at_additivity():
    rng = random.Random(3)
    for _ in range(20):
        v = rng.randrange(1, 1 << 10)
        e1, e2 = rng.randrange(0, 10**9), rng.randrange(0, 10**9)
        two_step = g.lfsr_state_at(P10, g.lfsr_state_at(P10, v, e1), e2)
        assert g.lfsr_state_at(P10, v, e1 + e2) == two_step


def test_is_irreducible():
    assert g.is_irreducible(F4)
    assert not g.is_irreducible((1 << 4) | (1 << 2) | 1)   # (x^2+x+1)^2
    assert g.is_irreducible((1 << 10) | (1 << 9) | (1 << 5) | (1 << 1) | 1)


def test_is_primitive():
    assert g.is_primitive(P4)
    assert not g.is_primitive(F4)          # order 5, not 15
    assert g.is_primitive(P10)
    assert g.is_primitive(F4, factors=[3, 5]) is False
    with pytest.raises(UnsupportedDegreeError):
        g.is_primitive((1 << 65) | (1 << 18) | 1)
    # caller-supplied factors unlock large degrees: 2^65-1 = 31*8191*145295143558111
    assert g.is_primitive((1 << 65) | (1 << 18) | 1,
                          factors=[31, 8191, 145295143558111])


def test_berlekamp_massey():
    mbits = g.lfsr_bits(P4, 1, 15)
    assert g.berlekamp_massey(mbits[:8]) == P4
    dec = decimate(mbits, 3)
    assert g.berlekamp_massey((dec * 2)[:8]) == F4
    assert g.berlekamp_massey([0] * 10) == 1


def test_decimate():
    mbits = g.lfsr_bits(P4, 1, 15)
    assert decimate(mbits, 1, 0) == mbits
    assert decimate(mbits, 3, 0) == [1, 0, 0, 0, 1]
    assert decimate(mbits, 3, 1) == [0, 1, 1, 1, 1]


def test_decimation_of_mseq_is_mseq():
    # gcd(d, 2^n - 1) = 1 keeps maximal period and a primitive minimal poly
    mbits = g.lfsr_bits(P10, 1, 1023)
    for d in (2, 5, 13):
        dec = decimate(mbits, d)
        assert len(dec) == 1023
        f = g.berlekamp_massey(dec[:20])
        assert g.degree(f) == 10 and g.is_primitive(f)


def test_associated_irreducible():
    f, valid = g.associated_irreducible(P4, 3)
    assert (f, valid) == (F4, True)
    f, valid = g.associated_irreducible(P4, 5)
    assert (f, valid) == (0b111, False)    # degree 2 < 4, flagged invalid
    p300 = (1 << 300) | (1 << 7) | 1
    f300, valid = g.associated_irreducible(p300, 31)
    assert valid
    assert g.poly_exponents(f300) == [300, 194, 176, 158, 97, 88, 79,
                                      52, 43, 25, 16, 7, 0]


def test_associated_irreducible_divides_whole_group():
    # the associated polynomial always divides x^(2^n - 1) + 1
    for t in (1, 3, 5):
        f, _ = g.associated_irreducible(P4, t)
        assert g.poly_powmod(2, 15, f) == 1
        assert 4 % g.degree(f) == 0


def _clocked_associated_poly(p, t):
    """Reference: clock the m-sequence of p from state 1 far enough to
    t-decimate 2n bits, and feed those to Berlekamp-Massey."""
    n = g.degree(p)
    bits = g.lfsr_bits(p, 1, t * (2 * n - 1) + 1)
    return g.berlekamp_massey(decimate(bits, t)[:2 * n])


def test_associated_irreducible_matches_clocked_decimation():
    from zechbruijn.cycles import primitive_polynomials

    for n in range(4, 13):
        M = (1 << n) - 1
        for p in itertools.islice(primitive_polynomials(n), 3):
            for t in range(1, M):
                if M % t == 0:
                    f, _ = g.associated_irreducible(p, t)
                    assert f == _clocked_associated_poly(p, t), (n, p, t)


def test_associated_irreducible_subfield_lift_order28():
    # the n = 28 table build asks for the degree-14 subfield polynomial
    p = g.poly_from_set_notation("n=28;{3}")
    r = ((1 << 28) - 1) // ((1 << 14) - 1)
    assert r == 16385
    assert g.associated_irreducible(p, r) == (28639, False)
    assert _clocked_associated_poly(p, r) == 28639


def test_insert_zero():
    assert g.insert_zero([0, 1]) == [0, 0, 1]
    mbits = g.lfsr_bits(P5, 1, 31)
    out = g.insert_zero(mbits)
    assert len(out) == 32 and g.is_debruijn(out, 5)
    with pytest.raises(ValueError):
        g.insert_zero([0, 1, 0, 1])   # two length-1 runs


def test_insert_zero_example2_join_result():
    # the period-15 join result of the order-4 walkthrough
    bits = [0, 0, 0, 1, 0, 1, 0, 0, 1, 1, 1, 1, 0, 1, 1]
    out = g.insert_zero(bits)
    assert out == [0, 0, 0, 0, 1, 0, 1, 0, 0, 1, 1, 1, 1, 0, 1, 1]
    assert g.is_debruijn(out, 4)


def test_windows_and_hex():
    bits = g.lfsr_bits(P4, 1, 15)
    assert g.seq_windows_distinct(bits, 4)
    assert not g.is_debruijn(bits, 4)      # period 15, not 16
    assert g.seq_from_hex(g.seq_to_hex(bits), 15) == bits
    assert g.state_from_bits(g.state_bits(0b1011, 4)) == 0b1011


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=1, max_size=64), st.data())
def test_seq_windows_match_slicing(bits, data):
    n = data.draw(st.integers(1, len(bits) + 1), label="n")
    N = len(bits)
    want = [g.state_from_bits((bits * 3)[j:j + n]) for j in range(N)]
    assert g.seq_windows(bits, n) == want
    assert g.seq_windows_distinct(bits, n) == (N <= 1 << n and len(set(want)) == N)


def _loop_seq_to_hex(bits):
    """Oracle: the shift-and-or loop, quadratic in len(bits)."""
    v = 0
    for b in bits:
        v = (v << 1) | (b & 1)
    width = (len(bits) + 3) // 4
    return format(v, f"0{width}x") if bits else ""


def test_seq_to_hex_matches_loop_oracle():
    rng = random.Random(4)
    for length in range(81):
        cases = [[0] * length, [1] * length]
        cases += [[rng.randrange(2) for _ in range(length)] for _ in range(8)]
        for bits in cases:
            assert g.seq_to_hex(bits) == _loop_seq_to_hex(bits), bits
            assert g.seq_from_hex(g.seq_to_hex(bits), length) == bits
    assert g.seq_to_hex([1, 0, 1]) == "5"      # left padding of the top digit
    assert g.seq_to_hex([True, False, False, False, True]) == "11"


def test_mseq_states_match_clocked_register():
    for p in (0b11, 0b111, P4, F4, P5, P10, (1 << 17) | (1 << 3) | 1):
        n = g.degree(p)
        taps = g.lfsr_taps(p)
        states = g.mseq_states(p)
        assert len(states) == (1 << n) - 1
        v = 1
        for got in states.tolist():
            assert got == v
            v = g.lfsr_step(v, taps, n)


def test_gf2_linear_algebra():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randrange(2, 9)
        rows = [rng.getrandbits(n) for _ in range(n)]
        inv = g.invert_gf2(rows, n)
        if inv is None:
            continue
        # R * R^-1 = I, acting on basis vectors
        for i in range(n):
            assert g.mat_vec_gf2(inv, g.mat_vec_gf2(rows, 1 << i)) == 1 << i
        rhs = rng.getrandbits(n)
        x = g.solve_gf2(rows, rhs)
        assert x is not None
        got = 0
        for i in range(n):
            got |= ((x & rows[i]).bit_count() & 1) << i
        assert got == rhs


def test_solve_gf2_singular_system_is_none():
    # row 2 = row 0 + row 1, so R is singular whatever rhs is, consistent or not
    rows = [0b011, 0b110, 0b101]
    assert g.invert_gf2(rows, 3) is None
    for rhs in (0b000, 0b111, 0b001):
        assert g.solve_gf2(rows, rhs) is None
    assert g.solve_gf2([0b10, 0b10], 0b11) is None
