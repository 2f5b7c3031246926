"""Conjugate pairs between cycles, located exactly by Zech logarithms.

The conjugate of the state phi(alpha^k) is phi(alpha^tau(k)), so a single
table lookup pins both members of a pair together with their cycles and
offsets. Counting pairs between two cycles is the cyclotomic number
computation; the graph builder walks a whole coset of pairs from one
entry by doubling (`graph._coset_pairs`).
"""

import numpy as np

from .cycles import ZERO_CYCLE, CyclePos, cycle_position


def conjugate_of(ctx, pos):
    """Position of the conjugate of a state given as CyclePos or exponent.

    The zero state and phi(alpha^0) = (1, 0, ..., 0) are conjugate; every
    other state at exponent k has its conjugate at exponent tau(k).
    """
    if isinstance(pos, CyclePos):
        if pos.cycle is ZERO_CYCLE:
            return cycle_position(ctx, 0)
        k = pos.cycle + ctx.t * pos.offset
    else:
        k = pos % ctx.modulus
    if k == 0:
        return CyclePos(ZERO_CYCLE, 0, 0)
    if ctx.zech is None:
        raise ValueError("context has no Zech table")
    return cycle_position(ctx, ctx.zech.resolve(k))


def cyclotomic_numbers(ctx):
    """The t x t matrix (i, j)_t counting xi in C_i with xi + 1 in C_j.

    Equivalently: exponents k = i mod t with tau(k) = j mod t. Requires a
    complete table; xi = 1 (k = 0) is excluded since 1 + 1 = 0 lies in no
    class.
    """
    zech = ctx.zech
    if zech is None or not zech.complete:
        raise ValueError("cyclotomic numbers need a complete Zech table")
    t, M = ctx.t, ctx.modulus
    # walk every coset's orbit (k, tau(k)) -> (2k, 2 tau(k)) in step, one
    # bincount per doubling; a coset drops out when it is back at its leader
    leads = np.fromiter(zech.entries, dtype=np.int64, count=len(zech.entries))
    k = leads
    v = np.fromiter((tau for tau, _ in zech.entries.values()), dtype=np.int64,
                    count=len(leads))
    counts = np.zeros(t * t, dtype=np.int64)
    while len(k):
        counts += np.bincount(k % t * t + v % t, minlength=t * t)
        k, v = 2 * k % M, 2 * v % M
        open_ = k != leads
        k, v, leads = k[open_], v[open_], leads[open_]
    return counts.reshape(t, t).tolist()
