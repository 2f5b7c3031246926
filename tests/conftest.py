import math

import pytest

from zechbruijn import CycleCtx, poly_from_set_notation, zech_bruteforce

P4 = poly_from_set_notation("n=4;{1}")        # x^4 + x + 1
F4 = poly_from_set_notation("n=4;{3,2,1}")    # x^4 + x^3 + x^2 + x + 1
P5 = poly_from_set_notation("n=5;{2}")        # x^5 + x^2 + 1
P10 = poly_from_set_notation("n=10;{3}")      # x^10 + x^3 + 1
P20 = poly_from_set_notation("n=20;{3}")      # x^20 + x^3 + 1


def decimate(bits, d, shift=0):
    """Reference decimation (L^shift s)^(d): every d-th bit of a periodic
    sequence from `shift` on, for one full period."""
    N = len(bits)
    return [bits[(shift + d * i) % N] for i in range(N // math.gcd(d, N))]


def bareiss_determinant(mat):
    """Oracle: exact determinant of an integer matrix by dense
    fraction-free (Bareiss) elimination with row swaps."""
    m = [list(map(int, row)) for row in mat]
    k = len(m)
    if k == 0:
        return 1
    prev = 1
    sign = 1
    for c in range(k - 1):
        if m[c][c] == 0:
            for r in range(c + 1, k):
                if m[r][c]:
                    m[c], m[r] = m[r], m[c]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[c][c]
        for r in range(c + 1, k):
            mr, mc = m[r], m[c]
            lead = mr[c]
            for cc in range(c + 1, k):
                mr[cc] = (mr[cc] * pivot - lead * mc[cc]) // prev
            mr[c] = 0
        prev = pivot
    return sign * m[k - 1][k - 1]


@pytest.fixture(scope="session")
def zech4():
    return zech_bruteforce(P4)


@pytest.fixture(scope="session")
def zech5():
    return zech_bruteforce(P5)


@pytest.fixture(scope="session")
def zech10():
    return zech_bruteforce(P10)


@pytest.fixture(scope="session")
def zech20():
    return zech_bruteforce(P20)


@pytest.fixture(scope="session")
def ctx4(zech4):
    return CycleCtx(P4, 3, zech=zech4)


@pytest.fixture(scope="session")
def ctx10(zech10):
    return CycleCtx(P10, 31, zech=zech10)
