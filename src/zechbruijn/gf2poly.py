"""Polynomial and LFSR arithmetic over GF(2).

Polynomials are plain nonnegative ints: bit i is the coefficient of x^i,
so x^4 + x + 1 is 0b10011 = 19. Register states are ints as well, bit j
holding coordinate v_j, and sequences are lists of 0/1 ints. Exponents are
arbitrary-precision ints throughout (degrees up to several hundred are in
normal range, so machine-word exponents would overflow).
"""

import numpy as np

from .factors import mersenne_prime_factors


# ---------------------------------------------------------------------------
# polynomial arithmetic

def degree(p):
    """Degree of polynomial p (-1 for the zero polynomial)."""
    return p.bit_length() - 1


def poly_mul(a, b):
    """Carry-less product of polynomials a and b."""
    c = 0
    while b:
        if b & 1:
            c ^= a
        a <<= 1
        b >>= 1
    return c


def poly_mod(a, m):
    """Reduce polynomial a modulo polynomial m."""
    if m == 0:
        raise ZeroDivisionError("division by zero polynomial")
    dm = degree(m)
    da = degree(a)
    while da >= dm:
        a ^= m << (da - dm)
        da = degree(a)
    return a


def poly_gcd(a, b):
    while b:
        a, b = b, poly_mod(a, b)
    return a


def poly_mul_mod(a, b, m):
    """Product a*b reduced modulo m; m must have degree >= 1."""
    if degree(m) < 1:
        raise ValueError("modulus must have degree >= 1")
    return poly_mod(poly_mul(poly_mod(a, m), poly_mod(b, m)), m)


def poly_powmod(a, e, m):
    """a**e modulo m by square and multiply; e is any nonnegative int."""
    if degree(m) < 1:
        raise ValueError("modulus must have degree >= 1")
    if e < 0:
        raise ValueError("negative exponent")
    r = poly_mod(1, m)
    a = poly_mod(a, m)
    while e:
        if e & 1:
            r = poly_mod(poly_mul(r, a), m)
        a = poly_mod(poly_mul(a, a), m)
        e >>= 1
    return r


def is_irreducible(f):
    """Irreducibility of f over GF(2) via the x^(2^i) gcd criterion."""
    n = degree(f)
    if n < 1:
        return False
    if n == 1:
        return True
    if not f & 1:
        return False  # divisible by x
    b = 2  # the polynomial x
    for _ in range(n // 2):
        b = poly_mod(poly_mul(b, b), f)
        if poly_gcd(b ^ 2, f) != 1:
            return False
    return True


def is_primitive(f, factors=None):
    """True iff irreducible f of degree n has a root of order 2^n - 1.

    `factors` are the distinct prime factors of 2^n - 1; bundled for
    n <= 64, mandatory above that.
    """
    n = degree(f)
    if n < 1:
        return False
    if n == 1:
        return f == 3  # x + 1, the only degree-1 polynomial with c0 = 1
    if not is_irreducible(f):
        return False
    order = (1 << n) - 1
    for q in mersenne_prime_factors(n, factors):
        if poly_powmod(2, order // q, f) == 1:
            return False
    return True


def poly_from_exponents(exps):
    """Polynomial with coefficient 1 exactly at the given exponents."""
    p = 0
    for e in exps:
        p |= 1 << e
    return p


def poly_exponents(p):
    """Exponents with coefficient 1, descending."""
    return [i for i in range(degree(p), -1, -1) if (p >> i) & 1]


def poly_to_set_notation(p):
    """Paper-style set notation: "n=10;{3}" for x^10 + x^3 + 1."""
    n = degree(p)
    mid = [e for e in poly_exponents(p) if 0 < e < n]
    return f"n={n};{{{','.join(str(e) for e in mid)}}}"


def poly_from_set_notation(text):
    """Parse "n=10;{3}" (middle exponents; x^n and 1 implicit) or 0x-hex.

    A polynomial of degree < 1 drives no register and is a domain error.
    """
    text = text.strip()
    if text.lower().startswith("0x"):
        p = int(text, 16)
        if degree(p) < 1:
            raise ValueError(f"polynomial {text!r} has degree {degree(p)}; need degree >= 1")
        return p
    try:
        head, mids = text.split(";")
        n = int(head.split("=")[1])
        mids = mids.strip()
        if not (mids.startswith("{") and mids.endswith("}")):
            raise ValueError
        inner = mids[1:-1].strip()
        exps = [int(e) for e in inner.split(",")] if inner else []
    except (ValueError, IndexError):
        raise ValueError(f"cannot parse polynomial {text!r}") from None
    if n < 1:
        raise ValueError(f"polynomial {text!r} has degree {n}; need degree >= 1")
    if any(e <= 0 or e >= n for e in exps):
        raise ValueError(f"middle exponents of {text!r} must lie in (0, n)")
    return poly_from_exponents([n, 0] + exps)


# ---------------------------------------------------------------------------
# LFSR sequences and states

def lfsr_taps(p):
    """Feedback mask of the LFSR with characteristic polynomial p."""
    n = degree(p)
    if n < 1 or not p & 1:
        raise ValueError("characteristic polynomial needs degree >= 1 and c0 = 1")
    return p & ((1 << n) - 1)


def lfsr_step(state, taps, n):
    """One clock of the register: drop s_j, append the feedback bit."""
    b = (state & taps).bit_count() & 1
    return (state >> 1) | (b << (n - 1))


def lfsr_bits(p, state, length):
    """First `length` output bits of the LFSR from the given state."""
    n = degree(p)
    taps = lfsr_taps(p)
    out = []
    v = state
    for _ in range(length):
        out.append(v & 1)
        v = lfsr_step(v, taps, n)
    return out


def lfsr_state_at(p, v, e):
    """State v advanced e steps: v * A_p^e for the companion matrix A_p,
    at one polynomial power plus n register clocks however large e is."""
    return lfsr_advance(p, v, poly_powmod(2, e, p))


def lfsr_advance(p, v, c):
    """v * c(A_p) in n register clocks: state v advanced e steps when
    c = x^e mod p, since p(A_p) = 0 lets A_p^e expand over the first n
    powers of A_p with the coefficients of x^e mod p."""
    n = degree(p)
    taps = lfsr_taps(p)
    out = 0
    w = v
    for i in range(n):
        if (c >> i) & 1:
            out ^= w
        w = lfsr_step(w, taps, n)
    return out


_MSEQ_CLOCKED = 256     # states clocked one by one before block jumps
_MSEQ_CHUNK = 1 << 16   # states mapped per lookup pass (bounds temporaries)


def mseq_states(p):
    """States 1 * A_p^i for i in [0, 2^n - 1) as a numpy array.

    Clocks the first 256 states, then doubles the filled prefix of B
    states with the linear map v -> v * A_p^B, applied through one
    256-entry lookup table per state byte (built from lfsr_advance on
    basis vectors). int32 where 2^n fits, int64 otherwise.
    """
    n = degree(p)
    taps = lfsr_taps(p)
    M = (1 << n) - 1
    dtype = np.int32 if n <= 31 else np.int64
    states = np.empty(M, dtype=dtype)
    filled = min(M, _MSEQ_CLOCKED)
    v = 1
    for i in range(filled):
        states[i] = v
        v = lfsr_step(v, taps, n)
    while filled < M:
        luts = []
        jump = poly_powmod(2, filled, p)
        for low in range(0, n, 8):
            lut = np.zeros(256, dtype=dtype)
            for j in range(min(8, n - low)):
                image = lfsr_advance(p, 1 << (low + j), jump)
                lut[1 << j:2 << j] = lut[:1 << j] ^ image
            luts.append((low, lut))
        take = min(filled, M - filled)
        for start in range(0, take, _MSEQ_CHUNK):
            src = states[start:min(start + _MSEQ_CHUNK, take)]
            out = states[filled + start:filled + start + len(src)]
            out[:] = 0
            for low, lut in luts:
                out ^= lut[(src >> low) & 0xFF]
        filled += take
    return states


def berlekamp_massey(bits):
    """Minimal (characteristic) polynomial of a bit sequence.

    Returns the characteristic-polynomial orientation, i.e. the reciprocal
    of the usual connection polynomial, so that an m-sequence of x^4+x+1
    comes back as x^4+x+1. All-zero input gives the constant 1.
    """
    N = len(bits)
    c = [1] + [0] * N
    b = [1] + [0] * N
    L, m = 0, -1
    for i in range(N):
        d = bits[i]
        for j in range(1, L + 1):
            d ^= c[j] & bits[i - j]
        if d:
            prev = c[:]
            shift = i - m
            for j in range(shift, N + 1):
                c[j] ^= b[j - shift]
            if 2 * L <= i:
                L = i + 1 - L
                b = prev
                m = i
    out = 0
    for j in range(L + 1):
        if c[j]:
            out |= 1 << (L - j)
    return out


def associated_irreducible(p, t):
    """Irreducible polynomial with root alpha^t, alpha a root of primitive p.

    t-decimates the m-sequence of p and feeds 2n bits to Berlekamp-Massey.
    Returns (f, valid) where valid means deg f equals deg p; smaller
    degrees mean t is not usable for the cycle machinery.

    The decimated bits are the constant terms of x^(t*i) mod p, so only
    2n modular products are needed however large t (or the period) is.
    """
    n = degree(p)
    M = (1 << n) - 1
    t %= M
    if t == 0:
        raise ValueError("t must be nonzero modulo 2^n - 1")
    xt = poly_powmod(2, t, p)
    c = 1
    window = []
    for _ in range(2 * n):
        window.append(c & 1)
        c = poly_mod(poly_mul(c, xt), p)
    f = berlekamp_massey(window)
    return f, degree(f) == n


def seq_windows(bits, n):
    """The cyclic n-windows of a sequence as state ints: window j holds
    bits[j], ..., bits[j + n - 1] (indices mod len), bits[j] as bit 0."""
    N = len(bits)
    out = []
    w = 0
    for j in range(n - 1):
        w |= bits[j] << j
    for j in range(N):
        w |= bits[(j + n - 1) % N] << (n - 1)
        out.append(w)
        w >>= 1
    return out


def seq_windows_distinct(bits, n):
    """True iff all cyclic n-windows of the sequence are distinct."""
    return len(bits) <= (1 << n) and len(set(seq_windows(bits, n))) == len(bits)


def is_debruijn(bits, n):
    """Window test: period 2^n and every n-tuple occurring exactly once."""
    return len(bits) == (1 << n) and seq_windows_distinct(bits, n)


def insert_zero(bits):
    """Insert one 0 into the unique longest run of zeros (cyclically).

    Turns a modified de Bruijn sequence of period 2^n - 1 into the de
    Bruijn sequence of period 2^n. A tie between longest runs is an error.
    """
    N = len(bits)
    if all(b == 0 for b in bits):
        raise ValueError("all-zero sequence has no unique longest zero run")
    # runs of zeros in the cyclic sequence, keyed by start index
    start = next(i for i, b in enumerate(bits) if b == 1)
    runs = []
    run_start, run_len = None, 0
    for off in range(N):
        i = (start + off) % N
        if bits[i] == 0:
            if run_len == 0:
                run_start = i
            run_len += 1
        else:
            if run_len:
                runs.append((run_len, run_start))
            run_len = 0
    if run_len:
        runs.append((run_len, run_start))
    if not runs:
        raise ValueError("sequence has no zeros")
    best = max(r for r, _ in runs)
    where = [s for r, s in runs if r == best]
    if len(where) != 1:
        raise ValueError(f"longest zero run of length {best} is not unique")
    at = where[0]
    return bits[:at] + [0] + bits[at:]


# ---------------------------------------------------------------------------
# bit/vector helpers

def state_bits(v, n):
    """State int -> tuple (v_0, ..., v_{n-1})."""
    return tuple((v >> i) & 1 for i in range(n))


def state_from_bits(bits):
    """Tuple/list of coordinates -> state int."""
    v = 0
    for i, b in enumerate(bits):
        v |= (b & 1) << i
    return v


def seq_to_hex(bits):
    """Sequence to hex, bit 0 in the most significant position.

    Left-pads with zero bits to whole bytes, packs, and keeps the last
    ceil(len/4) hex digits, so a length not divisible by 4 pads the
    leading digit. A list goes through bytes, which skips numpy's int64
    inference.
    """
    if not len(bits):
        return ""
    if isinstance(bits, list):
        arr = np.frombuffer(bytes(bits), dtype=np.uint8) & 1
    else:
        arr = (np.asarray(bits) & 1).astype(np.uint8)
    pad = np.zeros(-len(arr) % 8, dtype=np.uint8)
    width = (len(arr) + 3) // 4
    return np.packbits(np.concatenate((pad, arr))).tobytes().hex()[-width:]


def seq_from_hex(text, period):
    v = int(text, 16) if text else 0
    return [(v >> (period - 1 - i)) & 1 for i in range(period)]


# ---------------------------------------------------------------------------
# GF(2) linear algebra on int-bitmask rows

def solve_gf2(rows, rhs):
    """Solve R x = rhs over GF(2) for a square R given as int bitmask rows:
    bit i of rhs is the parity of rows[i] & x, so columns are bit
    positions. Returns x as an int, or None when R is singular.
    """
    inv = invert_gf2(rows, len(rows))
    if inv is None:
        return None
    # x = R^-1 rhs: bit c of x is row c of the inverse dotted with rhs
    return sum(((row & rhs).bit_count() & 1) << c for c, row in enumerate(inv))


def invert_gf2(rows, n):
    """Inverse of an n x n GF(2) matrix given as int rows; None if singular."""
    aug = [(rows[i] & ((1 << n) - 1)) | (1 << (n + i)) for i in range(n)]
    r = 0
    for col in range(n - 1, -1, -1):
        sel = None
        for i in range(r, n):
            if (aug[i] >> col) & 1:
                sel = i
                break
        if sel is None:
            return None
        aug[r], aug[sel] = aug[sel], aug[r]
        for i in range(n):
            if i != r and (aug[i] >> col) & 1:
                aug[i] ^= aug[r]
        r += 1
    # rows are now sorted by descending pivot column; unpermute
    out = [0] * n
    for i in range(n):
        col = degree(aug[i] & ((1 << n) - 1))
        out[col] = aug[i] >> n
    return out


def mat_vec_gf2(rows, v):
    """v * R for a row-list matrix: XOR of rows selected by bits of v."""
    out = 0
    i = 0
    while v:
        if v & 1:
            out ^= rows[i]
        v >>= 1
        i += 1
    return out
