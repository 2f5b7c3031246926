"""Zech logarithm tables relative to a primitive polynomial.

The table of tau, defined by 1 + alpha^k = alpha^tau(k) on [1, 2^n - 2],
is stored one entry per cyclotomic coset leader; the Double identity
tau(2k) = 2 tau(k) recovers everything else. Tables are built either by
brute force over the m-sequence (small n) or by propagating a seed entry
through the Flip / Inv / Double identities plus the difference-chaining
rule, with an optional subfield lift when chaining stalls.
"""

from functools import lru_cache
from itertools import islice, repeat

import numpy as np

from .factors import UnsupportedDegreeError
from .gf2poly import (
    associated_irreducible,
    degree,
    is_primitive,
    lfsr_step,
    lfsr_taps,
    mseq_states,
    poly_exponents,
    poly_to_set_notation,
)

BRUTEFORCE_CAP = 26        # 2^n state index above this refuses (memory)
FLAT_ARRAY_CAP = 24        # flat numpy workspace bound for closure sweeps
CHAIN_BUDGET = 1_000_000   # default candidate checks for the pair-scan sweep
LOOKUP_BATCH = 256         # exponents per normaliser call up to n = 64 (see lookup_batch)

PROVENANCES = ("seed", "flip", "inv", "double", "chain", "subfield", "bruteforce")


class MissingEntryError(KeyError):
    """tau requested at an element whose coset is not in the table."""


class CorruptTableError(ValueError):
    """Two derivations of the same entry disagree."""


class ResourceCapError(ValueError):
    """Requested computation exceeds the configured size cap."""


def _leader_shift(k, M):
    """Walk the doubling orbit of k mod M (0 <= k < M) without building it.

    Returns (lead, shift, size): the orbit's least element, the number of
    doublings that take k to it (the first time it is reached), and the
    orbit size.
    """
    lead = k
    shift = 0
    x = k + k          # x < 2M, so one subtraction reduces it (cheaper than %)
    if x >= M:
        x -= M
    size = 1
    while x != k:
        if x < lead:
            lead, shift = x, size
        x += x
        if x >= M:
            x -= M
        size += 1
    return lead, shift, size


def doubling_orbit(x, m):
    """The orbit x, 2x, 4x, ... mod m (m odd, so it returns to x), as a
    list starting from x mod m."""
    x %= m
    out = [x]
    y = x + x
    if y >= m:
        y -= m
    while y != x:
        out.append(y)
        y += y
        if y >= m:
            y -= m
    return out


@lru_cache(maxsize=None)
def _rotation_columns(n, dtype):
    """The column shifts s = 0..n-1 of `coset_rotations`, with n - s and
    the low-bit masks 2^(n - s) - 1, as arrays of `dtype`."""
    s = np.arange(n).astype(dtype)
    return s, n - s, (1 << (n - s)) - 1


def coset_rotations(ks, n):
    """Every n-bit rotation of each k of the array ks (0 <= ks < 2^n - 1).

    Doubling mod 2^n - 1 rotates the n-bit word left, so column s of row i
    holds ks[i] doubled s times, and each row runs through the coset of
    ks[i] (repeating it when the coset is short). Masking before the shift
    keeps every intermediate below 2^n, so the int64 arrays of
    `_array_dtype` do not overflow.
    """
    s, rs, low = _rotation_columns(n, ks.dtype)
    col = ks[:, None]
    return ((col & low) << s) | (col >> rs)


def _normalise(ks, n):
    """The coset normaliser: (lead, shift, rots) for the exponent array ks.

    rots is `coset_rotations(ks, n)`; lead is each row's minimum and shift
    the first column that holds it, as `_leader_shift` gives them.
    """
    rots = coset_rotations(ks, n)
    shift = rots.argmin(axis=1)
    return rots[np.arange(len(ks)), shift], shift, rots


def lookup_batch(n):
    """Exponents per normaliser call at degree n: LOOKUP_BATCH, and fewer
    above n = 64, so that the n-column rotation matrix of a batch stays
    within LOOKUP_BATCH * 64 cells."""
    return max(1, min(LOOKUP_BATCH, LOOKUP_BATCH * 64 // n))


def _array_dtype(n):
    """dtype of exponent arrays mod 2^n - 1: int64 below n = 63, where
    sums of two exponents still fit, and Python ints (object) above."""
    return np.int64 if n < 63 else object


def coset_leader(k, n):
    """Leader (minimum) and size of the doubling orbit of k mod 2^n - 1."""
    M = (1 << n) - 1
    lead, _, size = _leader_shift(k % M, M)
    return lead, size


def coset_elements(k, n):
    """The doubling orbit of k mod 2^n - 1, starting from k."""
    return doubling_orbit(k, (1 << n) - 1)


@lru_cache(maxsize=None)
def num_cosets(n):
    """Number of cyclotomic cosets of 2 on [1, 2^n - 2]."""
    # cosets on [0, 2^n-2] correspond to the irreducible divisors of
    # x^(2^n - 1) - 1, i.e. all binary irreducibles of degree d | n save x;
    # drop D_0 as well.
    def mobius(m):
        out, d = 1, 2
        while d * d <= m:
            if m % d == 0:
                m //= d
                if m % d == 0:
                    return 0
                out = -out
            d += 1
        return -out if m > 1 else out

    total = 0
    for d in range(1, n + 1):
        if n % d:
            continue
        cnt = sum(mobius(e) * (1 << (d // e)) for e in range(1, d + 1) if d % e == 0)
        total += cnt // d
    return total - 2


class ZechTable:
    """Partial or complete map k -> tau(k), stored per coset leader."""

    def __init__(self, n, p=None):
        self.n = n
        self.modulus = (1 << n) - 1
        self.p = p
        self.entries = {}  # leader -> (tau(leader), provenance)

    # -- storage ------------------------------------------------------------

    def add_entry(self, k, v, provenance):
        """Record tau(k) = v; normalizes to the coset leader via Double.

        Returns True when the coset was new, False when it was already
        present with the same value; disagreement raises CorruptTableError.
        """
        M = self.modulus
        k %= M
        v %= M
        if k == 0 or v == 0:
            raise ValueError("tau is defined on [1, 2^n - 2] only")
        # lead is k doubled `shift` times, so tau(lead) = tau(k) * 2^shift
        lead, shift, _ = _leader_shift(k, M)
        vlead = (v * pow(2, shift, M)) % M
        old = self.entries.get(lead)
        if old is not None:
            if old[0] != vlead:
                raise CorruptTableError(
                    f"tau({lead}) derived as {vlead} but stored as {old[0]}"
                )
            return False
        self.entries[lead] = (vlead, provenance)
        return True

    def has(self, k):
        k %= self.modulus
        if k == 0:
            return False
        return _leader_shift(k, self.modulus)[0] in self.entries

    def resolve(self, k):
        """tau(k), shifting the stored leader entry by the Double map."""
        M = self.modulus
        k %= M
        if k == 0:
            raise ValueError("tau(0) is undefined (1 + 1 = 0)")
        lead, shift, size = _leader_shift(k, M)
        entry = self.entries.get(lead)
        if entry is None:
            raise MissingEntryError(f"coset of {k} (leader {lead}) not in table")
        # k = lead doubled (size - shift) times
        return (entry[0] * pow(2, (size - shift) % size, M)) % M

    def resolve_many(self, ks):
        """tau at each k of the integer array ks, -1 where the coset of k
        is not in the table; k = 0 mod 2^n - 1 raises ValueError, as in
        `resolve`. int64 results below n = 63, Python ints above."""
        n, M = self.n, self.modulus
        ks = np.asarray(ks, dtype=_array_dtype(n)) % M
        if (ks == 0).any():
            raise ValueError("tau(0) is undefined (1 + 1 = 0)")
        get = self.entries.get
        missing = (-1, None)
        out = np.empty_like(ks)
        step = lookup_batch(n)
        for a in range(0, len(ks), step):
            lead, shift, _ = _normalise(ks[a:a + step], n)
            vals = np.array([get(l, missing)[0] for l in lead.tolist()], dtype=ks.dtype)
            # k is lead doubled n - shift times (mod n), and so is tau(k)
            part = coset_rotations(vals, n)[np.arange(len(vals)), (n - shift) % n]
            part[vals < 0] = -1
            out[a:a + step] = part
        return out

    # -- bookkeeping ---------------------------------------------------------

    @property
    def complete(self):
        return len(self.entries) == num_cosets(self.n)

    def coverage(self):
        elements = sum(coset_leader(l, self.n)[1] for l in self.entries)
        return {
            "cosets_known": len(self.entries),
            "cosets_total": num_cosets(self.n),
            "elements_known": elements,
            "elements_total": self.modulus - 1,
            "complete": self.complete,
        }

    def to_array(self):
        """Full tau as a numpy int64 array indexed by k (-1 where unknown)."""
        if self.n > FLAT_ARRAY_CAP:
            raise ResourceCapError(f"flat array refused for n = {self.n} > {FLAT_ARRAY_CAP}")
        M = self.modulus
        arr = np.full(M, -1, dtype=np.int64)
        if not self.entries:
            return arr
        idx = np.fromiter(self.entries.keys(), dtype=np.int64)
        val = np.fromiter((v for v, _ in self.entries.values()), dtype=np.int64)
        arr[idx] = val
        for _ in range(self.n - 1):
            idx = (idx << 1) % M
            val = (val << 1) % M
            arr[idx] = val
        return arr

    # -- serialization ---------------------------------------------------------

    def dump(self, fp):
        poly = f"0x{self.p:x}" if self.p is not None else "-"
        fp.write(f"zech v1 n={self.n} p={poly} complete={1 if self.complete else 0}\n")
        for lead in sorted(self.entries):
            v, prov = self.entries[lead]
            fp.write(f"{lead} {v} {prov}\n")

    @classmethod
    def load(cls, fp):
        """Read a table written by `dump`, keeping the file's line order.

        A malformed header or body line raises ValueError naming its line
        number; two lines giving one coset different values raise
        CorruptTableError.
        """
        header = fp.readline().split()
        if header[:2] != ["zech", "v1"]:
            raise ValueError("line 1: not a zech v1 table file")
        fields = {}
        for tok in header[2:]:
            key, eq, value = tok.partition("=")
            if not eq:
                raise ValueError(f"line 1: header field {tok!r} is not key=value")
            fields[key] = value
        if "n" not in fields:
            raise ValueError("line 1: header has no n=")
        try:
            n = int(fields["n"])
            p = None if fields.get("p", "-") == "-" else int(fields["p"], 16)
        except ValueError:
            raise ValueError(f"line 1: n={fields['n']} and p={fields.get('p')} "
                             "must be a decimal and a hex integer") from None
        if n < 1:
            raise ValueError(f"line 1: degree n={n} is below 1")
        table = cls(n, p=p)
        M = table.modulus
        batch = lookup_batch(n)
        rows = []
        for num, line in enumerate(fp, start=2):
            row = line.split()
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"line {num}: expected 'leader tau provenance', "
                                 f"got {line.strip()!r}")
            try:
                k, v = int(row[0]) % M, int(row[1]) % M
            except ValueError:
                raise ValueError(f"line {num}: leader and tau must be integers, "
                                 f"got {line.strip()!r}") from None
            if k == 0 or v == 0:
                raise ValueError(f"line {num}: tau is defined on [1, 2^n - 2] only")
            if row[2] not in PROVENANCES:
                raise ValueError(f"line {num}: unknown provenance {row[2]!r}")
            rows.append((num, k, v, row[2]))
            if len(rows) == batch:
                table._add_rows(rows)
                rows = []
        table._add_rows(rows)
        return table

    def _add_rows(self, rows):
        """Store (line number, k, tau(k), provenance) rows in order, each
        at its coset leader, through one normaliser call."""
        if not rows:
            return
        nums, ks, vs, provs = zip(*rows)
        dtype = _array_dtype(self.n)
        lead, shift, _ = _normalise(np.array(ks, dtype=dtype), self.n)
        vlead = coset_rotations(np.array(vs, dtype=dtype), self.n)[np.arange(len(vs)), shift]
        entries = self.entries
        for num, k, v, prov in zip(nums, lead.tolist(), vlead.tolist(), provs):
            old = entries.setdefault(k, (v, prov))
            if old[0] != v:
                raise CorruptTableError(
                    f"line {num}: tau({k}) derived as {v} but stored as {old[0]}")


# ---------------------------------------------------------------------------
# construction

def _coset_leaders(n):
    """Sorted coset leaders in [1, 2^n - 2], as an int64 array.

    Doubling mod 2^n - 1 rotates the n-bit word, so k leads its coset
    iff no rotation of k is smaller.
    """
    M = (1 << n) - 1
    dtype = np.int32 if n <= 30 else np.int64
    arr = np.arange(M, dtype=dtype)
    cur = arr.copy()
    top = np.empty_like(cur)
    ge = np.empty(M, dtype=bool)
    is_leader = np.ones(M, dtype=bool)
    for _ in range(n - 1):
        np.right_shift(cur, n - 1, out=top)
        np.left_shift(cur, 1, out=cur)
        np.bitwise_and(cur, M, out=cur)
        np.bitwise_or(cur, top, out=cur)
        np.greater_equal(cur, arr, out=ge)
        is_leader &= ge
    is_leader[0] = False
    return np.flatnonzero(is_leader)


def zech_bruteforce(p):
    """Complete table by indexing every m-sequence state by its position.

    tau(i) is the position of state_i + state_0; state_0 = (1, 0, ..., 0).
    """
    n = degree(p)
    if n > BRUTEFORCE_CAP:
        raise ResourceCapError(f"brute force refused for n = {n} > cap {BRUTEFORCE_CAP}")
    M = (1 << n) - 1
    table = ZechTable(n, p=p)
    if M == 1:
        return table
    leaders = _coset_leaders(n)
    states = mseq_states(p)
    if (np.count_nonzero(states == 1) != 1
            or lfsr_step(int(states[-1]), lfsr_taps(p), n) != 1):
        raise ValueError("polynomial is not primitive")
    pos = np.empty(1 << n, dtype=states.dtype)
    pos[states] = np.arange(M, dtype=states.dtype)
    taus = pos[states[leaders] ^ 1]
    table.entries = dict(zip(leaders.tolist(), zip(taus.tolist(), repeat("bruteforce"))))
    return table


def zech_seed_trinomial(p):
    """Seed table from the trinomial identity 1 + alpha^k = alpha^n."""
    n = degree(p)
    exps = poly_exponents(p)
    if len(exps) != 3 or exps[-1] != 0:
        raise ValueError(
            f"{poly_to_set_notation(p)} is not a trinomial; supply seeds explicitly"
        )
    k = exps[1]
    table = ZechTable(n, p=p)
    table.add_entry(k, n, "seed")
    return table


def zech_closure(table):
    """Close the table under Flip, Inv (and implicitly Double) in place."""
    return _close_from(table, [(lead, v) for lead, (v, _) in table.entries.items()])


def _close_from(table, queue):
    """Close under Flip and Inv from the (leader, tau) pairs in `queue`,
    last first. On a closed table plus one new entry, closing from that
    entry alone adds what a full closure adds, in the same order."""
    M = table.modulus
    while queue:
        k, v = queue.pop()
        for arg, val, rule in ((v, k, "flip"), (M - k, (v - k) % M, "inv")):
            if arg % M == 0 or val % M == 0:
                continue
            if table.add_entry(arg, val, rule):
                queue.append((arg % M, val % M))
    return table


def zech_chain(table, i, j):
    """One application of the difference-chaining rule.

    With tau(i), tau(j), tau(i - j) known, tau at tau(i) - tau(j) equals
    tau(i - j) + j - tau(j). Returns the new (argument, value) pair and
    re-closes the table, or None when the inputs do not resolve or the
    argument's coset is already known.
    """
    M = table.modulus
    i %= M
    j %= M
    if i == j or i == 0 or j == 0:
        return None
    d = (i - j) % M
    if not (table.has(i) and table.has(j) and table.has(d)):
        return None
    ti, tj = table.resolve(i), table.resolve(j)
    arg = (ti - tj) % M
    if arg == 0 or table.has(arg):
        return None
    val = (table.resolve(d) + j - tj) % M
    table.add_entry(arg, val, "chain")
    zech_closure(table)
    return arg, val


_SWEEP_PREFIX = 4096   # small candidates carry nearly every derivation

# conjugates (k, v), (v, k), (-k, v - k), (-v, k - v), (v - k, -k), (k - v, -v)
# of a pair v = tau(k): the index of the Flip image, and of the Inv image
_FLIP = (1, 0, 4, 5, 2, 3)
_INV = (2, 3, 0, 1, 5, 4)


def _sweep_flat(table):
    """Chaining sweep to fixpoint on flat numpy arrays (n <= FLAT_ARRAY_CAP).

    Each pass probes every unknown coset leader against the known elements
    (smallest first). Passes normally scan only a prefix of the knowns;
    once a prefix pass stops producing, one full-width pass either makes
    progress or certifies the fixpoint.
    """
    n, M = table.n, table.modulus
    tau = table.to_array()
    known = tau >= 0

    def add_closed(k, v):
        """Add the chain entry tau(k) = v and every new coset its Flip/Inv
        closure reaches, in the order of the depth-first closure of
        `_close_from`, writing their orbits into tau and known at once."""
        # the six conjugates in the order of _FLIP, then their tau values
        kv = np.array([k, v, -k, -v, v - k, k - v, v, k, v - k, k - v, -k, -v],
                      dtype=np.int64) % M
        lead, shift, rots = _normalise(kv, n)
        args, vals = kv[:6].tolist(), kv[6:].tolist()
        lead = lead[:6].tolist()
        vlead = rots[np.arange(6, 12), shift[:6]].tolist()
        new = {}     # leader -> conjugate, in insertion order
        stack = [(0, "chain")]
        while stack:
            c, prov = stack.pop()
            if args[c] == 0 or vals[c] == 0:
                continue
            if known[args[c]]:
                if tau[args[c]] != vals[c]:
                    raise CorruptTableError(f"tau({args[c]}) = {tau[args[c]]} vs {vals[c]}")
                continue
            if lead[c] in new:
                if vlead[new[lead[c]]] != vlead[c]:
                    raise CorruptTableError(
                        f"tau({lead[c]}) = {vlead[new[lead[c]]]} vs {vlead[c]}")
                continue
            new[lead[c]] = c
            table.entries[lead[c]] = (vlead[c], prov)
            stack.append((_FLIP[c], "flip"))
            stack.append((_INV[c], "inv"))
        rows = list(new.values())
        idx = rots[rows]
        known[idx] = True
        tau[idx] = rots[[6 + c for c in rows]]

    leaders_all = _coset_leaders(n)

    full_scan = False
    while True:
        unknown_leaders = leaders_all[~known[leaders_all]]
        if not len(unknown_leaders):
            break
        jarr = np.nonzero(known)[0]
        if not full_scan and len(jarr) > _SWEEP_PREFIX:
            jarr = jarr[:_SWEEP_PREFIX]
        else:
            full_scan = True
        tj = tau[jarr]       # fixed within the pass: known entries never change
        progressed = False
        for a in unknown_leaders:
            if known[a]:
                continue  # derived earlier in this pass
            v = tj + a
            v[v >= M] -= M
            c1 = known[v]
            if not c1.any():
                continue
            idx1 = np.nonzero(c1)[0]
            i = tau[v[idx1]]
            d = (i - jarr[idx1]) % M
            c2 = known[d]
            if not c2.any():
                continue
            first = idx1[int(np.nonzero(c2)[0][0])]
            j = int(jarr[first])
            i0 = int(tau[(int(tau[j]) + int(a)) % M])
            val = (int(tau[(i0 - j) % M]) + j - int(tau[j])) % M
            add_closed(int(a), val)
            progressed = True
        if progressed:
            full_scan = False
        elif full_scan:
            break
        else:
            full_scan = True
    return table


def _is_member(sorted_arr, x):
    """Elementwise membership of x in a non-empty sorted array."""
    at = np.searchsorted(sorted_arr, x)
    np.minimum(at, len(sorted_arr) - 1, out=at)
    return sorted_arr[at] == x


def _sweep_pairs(table, budget):
    """Chaining sweep scanning (i, j) pairs of known elements, restart on
    progress. Used above the flat-array cap; `budget` caps pair checks.

    The table must be closed on entry. Known elements and their tau are
    kept as sorted arrays E, V and extended with the orbits of new
    cosets; row i tests every j != i at once, in ascending order, and
    check number budget + 1 ends the sweep before it is made.
    """
    M = table.modulus
    dtype = _array_dtype(table.n)
    E = np.empty(0, dtype=dtype)
    V = np.empty(0, dtype=dtype)
    merged = 0
    checked = 0
    while True:
        ks, vs = [], []
        for lead, (v, _) in islice(table.entries.items(), merged, None):
            ks += doubling_orbit(lead, M)
            vs += doubling_orbit(v, M)
        merged = len(table.entries)
        E = np.concatenate((E, np.array(ks, dtype=dtype)))
        V = np.concatenate((V, np.array(vs, dtype=dtype)))
        order = np.argsort(E, kind="stable")
        E, V = E[order], V[order]
        progressed = False
        for r in range(len(E)):
            d = (E[r] - E) % M
            js = np.flatnonzero(_is_member(E, d))    # few: |E|^2 / M expected
            js = js[js != r]
            arg = (V[r] - V[js]) % M
            hits = np.flatnonzero((arg != 0) & ~_is_member(E, arg))
            q = int(js[hits[0]]) if len(hits) else None
            cost = len(E) - 1 if q is None else q + (q < r)
            if budget is not None and checked + cost > budget:
                return table
            checked += cost
            if q is None:
                continue
            td = V[np.searchsorted(E, d[q])]
            table.add_entry(int(arg[hits[0]]), int((td + E[q] - V[q]) % M), "chain")
            lead, (v, _) = next(reversed(table.entries.items()))
            _close_from(table, [(lead, v)])
            progressed = True
            break
        if not progressed:
            return table


def chain_sweep(table, budget=None):
    """Derive every entry reachable by difference chaining; in place.

    Up to the flat-array cap the sweep always reaches the fixpoint; above
    it, the pair scan stops after `budget` candidate checks (a finite
    default, since fixpoints at large degree are out of reach anyway).
    """
    zech_closure(table)
    if table.n <= FLAT_ARRAY_CAP:
        return _sweep_flat(table)
    return _sweep_pairs(table, CHAIN_BUDGET if budget is None else budget)


def zech_subfield_lift(table_m, n):
    """Lift a degree-m table to degree-n entries at multiples of r.

    With m | n and beta = alpha^r for r = (2^n - 1)/(2^m - 1),
    tau_n(r j) = r tau_m(j). Returns a fresh degree-n fragment.
    """
    m = table_m.n
    if n % m:
        raise ValueError(f"{m} does not divide {n}: invalid subfield")
    M = (1 << n) - 1
    r = M // ((1 << m) - 1)
    frag = ZechTable(n)
    for lead in sorted(table_m.entries):
        v = table_m.entries[lead][0]
        frag.add_entry((r * lead) % M, (r * v) % M, "subfield")
    return frag


def build_zech_table(p, mode="auto", lift=True, seeds=None, budget=None):
    """The Zech table of p, by brute force or by propagation.

    mode 'bruteforce' indexes all 2^n states (n <= BRUTEFORCE_CAP);
    'propagate' starts from the trinomial identity or explicit `seeds`
    [(k, tau(k)), ...] and runs the chaining sweep; 'auto' brute-forces
    up to the cap unless seeds are given (complete, where propagation
    may stall) and propagates above it. Incompleteness is reported via
    the table's completeness flag, not an exception.
    """
    n = degree(p)
    try:
        if not is_primitive(p):
            raise ValueError(f"{poly_to_set_notation(p)} is not primitive")
    except UnsupportedDegreeError:
        pass  # no factorization of 2^n - 1 bundled; taken on trust
    if mode == "auto":
        exps = poly_exponents(p)
        if n <= BRUTEFORCE_CAP and not seeds:
            mode = "bruteforce"
        elif seeds or (len(exps) == 3 and exps[-1] == 0):
            mode = "propagate"
        else:
            raise ResourceCapError(
                f"n = {n} exceeds the brute-force cap {BRUTEFORCE_CAP} and "
                f"{poly_to_set_notation(p)} offers no trinomial seed; supply seeds"
            )
    if mode == "bruteforce":
        return zech_bruteforce(p)
    if mode != "propagate":
        raise ValueError(f"unknown mode {mode!r}")

    if seeds:
        table = ZechTable(n, p=p)
        for k, v in seeds:
            table.add_entry(k, v, "seed")
    else:
        table = zech_seed_trinomial(p)
    chain_sweep(table, budget=budget)
    if table.complete or not lift:
        return table

    for m in sorted(d for d in range(2, n) if n % d == 0):
        M = table.modulus
        r = M // ((1 << m) - 1)
        sub_p, _ = associated_irreducible(p, r)
        if degree(sub_p) != m:
            continue
        try:
            sub_table = build_zech_table(sub_p, lift=lift, budget=budget)
        except (ResourceCapError, ValueError):
            continue
        frag = zech_subfield_lift(sub_table, n)
        for lead in sorted(frag.entries):
            v, prov = frag.entries[lead]
            table.add_entry(lead, v, prov)
        chain_sweep(table, budget=budget)
        if table.complete:
            break
    return table
