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
