"""Conjugate pairs between cycles, located exactly by Zech logarithms.

The conjugate of the state phi(alpha^k) is phi(alpha^tau(k)), so a single
table lookup pins both members of a pair together with their cycles and
offsets. Whole cosets of pairs follow from one entry by doubling, and
counting pairs between two cycles is the cyclotomic number computation.
"""

import math

import numpy as np

from .cycles import ZERO_CYCLE, CyclePos, cycle_position
from .zech import coset_leader, doubling_orbit


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


class CosetPairBatch:
    """All conjugate pairs induced by one Zech entry, grouped by cycle pair.

    From tau(j), the doubled exponent pairs (2^s j, 2^s tau(j)) run through
    n_j conjugate pairs that fall on `cycle_pair_count` distinct pairs of
    cycles, `pairs_per_cycle` on each.
    """

    def __init__(self, ctx, j, tau_j):
        self.ctx = ctx
        self.j = j
        self.tau_j = tau_j
        _, self.nj = coset_leader(j, ctx.n)
        # the cycle-pair sequence repeats when both residues do
        self.cycle_pair_count = math.lcm(
            len(doubling_orbit(j, ctx.t)), len(doubling_orbit(tau_j, ctx.t))
        )
        self.pairs_per_cycle = self.nj // self.cycle_pair_count

    def exponent_pairs(self):
        """The n_j exponent pairs (2^s j, 2^s tau(j)), s = 0, 1, ...; the
        first `cycle_pair_count` of them fall on distinct cycle pairs."""
        M = self.ctx.modulus
        return list(zip(doubling_orbit(self.j, M), doubling_orbit(self.tau_j, M)))

    def cycle_pairs(self):
        """The distinct (left cycle, right cycle) index pairs."""
        t = self.ctx.t
        return [(a % t, b % t) for a, b in self.exponent_pairs()[:self.cycle_pair_count]]


def pairs_from_coset(ctx, j, tau_j=None):
    """Batch of conjugate pairs for coset D_j, or None when j and tau(j)
    land on the same cycle (no edge). `tau_j` saves the lookup when the
    caller has already resolved it."""
    if tau_j is None:
        tau_j = ctx.zech.resolve(j)
    if j % ctx.t == tau_j % ctx.t:
        return None
    return CosetPairBatch(ctx, j, tau_j)


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
