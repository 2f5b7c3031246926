"""Correctness gate, run outside the timed region.

Seed-free outputs and exit codes must match, byte for byte (as SHA-256
digests), those recorded at the seed commit in `expected.json`. Seeded
cross-join output is checked structurally: every sampled pair must satisfy
a < b < tau(a) < tau(b), with tau rechecked against a table built
separately by brute force (or, above the brute-force cap, against the
field identity x^a + 1 = x^tau(a) mod p).
"""

import hashlib
import json
import re
from pathlib import Path

from zechbruijn.gf2poly import degree, poly_from_set_notation, poly_powmod
from zechbruijn.zech import zech_bruteforce

EXPECTED = Path(__file__).with_name("expected.json")
BRUTEFORCE_MAX = 22   # largest order whose oracle indexes every state
_RECORD = re.compile(r"a=(\d+) b=(\d+) tau\(a\)=(\d+) tau\(b\)=(\d+) degree=\d+")


def digest(output):
    return None if output is None else hashlib.sha256(output).hexdigest()


def load_expected():
    with open(EXPECTED) as fp:
        return json.load(fp)["jobs"]


def _option(argv, flag, default):
    return argv[argv.index(flag) + 1] if flag in argv else default


class Gate:
    """Checks job outputs; structural tau checks wait for `finish`, so
    the brute-force oracle does not count in the workload's memory peak."""

    def __init__(self, expected):
        self.expected = expected     # job name -> {"exit", "sha256", "bytes"}
        self.pending = []            # (job name, p, [(a, b, tau_a, tau_b)])

    def check(self, job, exit_code, output):
        """None if the output passes so far, else the reason it fails."""
        if job.check == "crossjoin":
            return self._parse_crossjoin(job, exit_code, output)
        want = self.expected.get(job.name)
        if want is None:
            return "no recorded output for this job"
        if exit_code != want["exit"]:
            return f"exit {exit_code}, recorded {want['exit']}"
        if digest(output) != want["sha256"]:
            return "output differs from the recorded one"
        return None

    def _parse_crossjoin(self, job, exit_code, output):
        if exit_code != 0:
            return f"exit {exit_code}, expected 0"
        lines = output.decode().splitlines() if output is not None else []
        count = int(_option(job.argv, "--count", 1))
        records = [_RECORD.fullmatch(line) for line in lines[0::2]]
        if (len(lines) != 2 * count or not all(records)
                or not all(line.startswith("h = ") for line in lines[1::2])):
            return f"malformed output: expected {count} pair records"
        p = poly_from_set_notation(_option(job.argv, "--p", None))
        self.pending.append((job.name, p, [tuple(map(int, m.groups())) for m in records]))
        return None

    def finish(self):
        """Run the structural checks; returns [(job name, reason)]."""
        failures = []
        oracles = {}
        for name, p, records in self.pending:
            if p not in oracles:
                oracles[p] = _tau_oracle(p)
            tau_ok = oracles[p]
            for a, b, ta, tb in records:
                if not a < b < ta < tb:
                    failures.append((name, f"pair ({a}, {b}) violates a < b < tau(a) < tau(b)"))
                    break
                if not (tau_ok(a, ta) and tau_ok(b, tb)):
                    failures.append((name, f"pair ({a}, {b}): wrong tau"))
                    break
        self.pending.clear()
        return failures


def _tau_oracle(p):
    """(k, v) -> whether tau(k) = v, independent of the propagated tables."""
    if degree(p) <= BRUTEFORCE_MAX:
        table = zech_bruteforce(p)
        return lambda k, v: table.resolve(k) == v
    return lambda k, v: poly_powmod(2, k, p) ^ 1 == poly_powmod(2, v, p)
