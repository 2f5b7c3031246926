"""The four workloads: fixed job lists over both construction routes.

A job is an in-process `zechbruijn.cli.main(argv)` call writing to a file
(`CliJob`), or a call to a public library function where no subcommand
exists (`LibJob`). Jobs call the package through `lib`, a namespace that
holds either the plain callables or their traced wrappers.
"""

import contextlib
import io
import json
from dataclasses import dataclass
from typing import Callable

from zechbruijn.gf2poly import insert_zero, lfsr_bits, poly_from_set_notation
from zechbruijn.zech import build_zech_table

P16 = "n=16;{5,3,2}"
P17 = "n=17;{3}"
P20 = "n=20;{3}"
P28 = "n=28;{3}"
# the t <= 2000 that divide 2^20 - 1 and have a valid associated
# irreducible for P20: the t that certify_star(P20, t_max=2000) sweeps
STAR_TS = (3, 5, 11, 15, 25, 31, 33, 41, 55, 75, 93, 123, 155, 165, 205, 275,
           341, 451, 465, 615, 775, 825, 1023, 1271, 1353, 1705)
N28_TRIES = 20_000


@dataclass(frozen=True)
class CliJob:
    """`zechbruijn <argv> --out <file>`; its output is the file's bytes.

    `check` names a structural check for output that depends on the seed
    (compared byte for byte with the recorded output otherwise).
    `known` is (exit code, standard error) of a failure known at the seed
    commit.
    """
    name: str
    argv: tuple
    check: str | None = None
    known: tuple | None = None

    def run(self, lib, shared, out_dir):
        """(exit code, what the call wrote to standard error)."""
        path = out_dir / self.name
        path.unlink(missing_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            exit_code = lib.main([*self.argv, "--out", str(path)])
        return exit_code, err.getvalue()

    def output(self, result, out_dir):
        """(exit code, output bytes or None when no file was written)."""
        path = out_dir / self.name
        return result[0], path.read_bytes() if path.exists() else None

    def fails_as_known(self, result, output):
        """Whether a failed run is the known failure, exactly: the same exit
        code and error message, and no output file."""
        return self.known is not None and output is None and result == self.known


@dataclass(frozen=True)
class LibJob:
    """A library call; its output is `render(result)`, made after timing.

    `known` is the message of a ValueError the call raises at the seed
    commit, a known failure.
    """
    name: str
    call: Callable
    render: Callable
    known: str | None = None
    check = None

    def run(self, lib, shared, out_dir):
        return self.call(lib, shared, out_dir)

    def output(self, result, out_dir):
        return 0, self.render(result).encode()

    def fails_as_known(self, result, output):
        """Whether `result`, what the call raised, is the known failure."""
        return (self.known is not None and type(result) is ValueError
                and str(result) == self.known)


@dataclass(frozen=True)
class Workload:
    why: str
    setup: Callable      # () -> dict of shared inputs, built before the first job
    jobs: Callable       # seed -> list of jobs


def _no_setup():
    return {}


def _certify_setup():
    p = poly_from_set_notation(P20)
    return {"p": p, "tables": [build_zech_table(p)]}


def _crossjoin_setup():
    def debruijn(poly, n):
        return insert_zero(lfsr_bits(poly_from_set_notation(poly), 1, (1 << n) - 1))
    return {"p28": poly_from_set_notation(P28),
            "seq10": debruijn("n=10;{3}", 10), "seq5": debruijn("n=5;{2}", 5)}


def _load_table(lib, out_dir):
    with open(out_dir / "zech_n17_propagate") as fp:
        return lib.load_table(fp)


def _dump_text(table):
    buf = io.StringIO()
    table.dump(buf)
    return buf.getvalue()


def _join_jobs(seed):
    return [CliJob("debruijn_n16_t85", ("debruijn", "--p", P16, "--t", "85"))]


def _certify_jobs(seed):
    def p_table(shared):
        return shared["p"], shared["tables"][0]

    def star(t):
        def call(lib, shared, _):
            p, table = p_table(shared)
            return lib.certify_star(p, ts=[t], zech=table)
        return LibJob(f"certify_star_t{t}", call, lambda certs: certs[0].to_json())

    def almost_star(lib, shared, _):
        p, table = p_table(shared)
        return lib.certify_almost_star(p, 155, 2, zech=table)

    def cyclotomic(lib, shared, _):
        p, table = p_table(shared)
        return lib.cyclotomic_numbers(lib.CycleCtx(p, 205, zech=table))

    return [
        *(star(t) for t in STAR_TS),
        LibJob("certify_almost_star_t155_l2", almost_star, lambda cert: cert.to_json()),
        LibJob("cyclotomic_t205", cyclotomic, json.dumps),
    ]


def _crossjoin_jobs(seed):
    def crossjoin_n28(lib, shared, _):
        # what `crossjoin --p "n=28;{3}"` does, with fewer draws: the sweep
        # table holds 1498 of 9,587,578 cosets, so nearly every draw misses
        # it and the call ends in "no valid pair found"
        p = shared["p28"]
        return lib.random_crossjoin(p, zech=lib.build_zech_table(p), seed=seed,
                                    max_tries=N28_TRIES)

    return [
        CliJob("crossjoin_n16_count20",
               ("crossjoin", "--p", P16, "--count", "20", "--seed", str(seed)),
               check="crossjoin"),
        LibJob("crossjoin_n28", crossjoin_n28, repr,
               known=f"no valid pair found within {N28_TRIES} tries"),
        LibJob("enumerate_n10",
               lambda lib, shared, _: lib.enumerate_crossjoin_pairs(shared["seq10"], 10),
               lambda pairs: "".join(f"{q.alpha} {q.beta}\n" for q in pairs)),
        LibJob("bfs_n5_depth3",
               lambda lib, shared, _: lib.crossjoin_bfs(shared["seq5"], 3),
               lambda out: f"truncated={out[1]}\n"
                           + "".join(sorted(f"{h.key()}\n" for h in out[0]))),
        CliJob("fryers_n14", ("fryers", "--n", "14")),
    ]


def _zech_jobs(seed):
    return [
        CliJob("zech_n17_propagate", ("zech", "--p", P17, "--mode", "propagate")),
        CliJob("zech_n17_bruteforce", ("zech", "--p", P17, "--mode", "bruteforce")),
        LibJob("load_n17", lambda lib, _, out_dir: _load_table(lib, out_dir), _dump_text),
    ]


WORKLOADS = {
    "join": Workload(
        "cycle joining end to end at n=16, t=85: the only tree count on a "
        "Laplacian and the only 2^16-bit sequence materialised and hex-encoded",
        _no_setup, _join_jobs),
    "certify": Workload(
        "star certificates for each valid t up to 2000, an almost-star one and "
        "cyclotomic numbers on one shared n=20 table: heavy lookups, no build",
        _certify_setup, _certify_jobs),
    "crossjoin": Workload(
        "the cross-join route: sampling with ANF expansion, the n=28 sweep table "
        "and draws that miss it, pair enumeration, BFS and Fryers coefficients",
        _crossjoin_setup, _crossjoin_jobs),
    "zech": Workload(
        "both table builds of n=17 plus dump and load of the written file",
        _no_setup, _zech_jobs),
}
