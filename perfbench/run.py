"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload join --seed 1 --seconds 15 --trace 0

Run it from the repository root: the package is imported from ./src, never
from an installed copy. One process runs one workload as a closed loop with
one client: the job list runs back to back, pass after pass, until the
timed passes add up to --seconds (at least one pass). With --trace 0 it
reports the end-to-end metrics, timed at reference speed (see
reference.py). With --trace 1 it runs each job untraced and then at once
traced, until the traced passes add up to --seconds, and reports the
per-layer metrics; the spans and counts go to
.perfbench/trace-<workload>-seed<seed>.json.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

SETUP_REPEATS = 5     # builds of the inputs: one before the passes, the rest after
IMPORT_PROBES = 5     # fresh-interpreter imports, before and again after the passes
# prints when the import ended, on the clock every process shares, and the
# speed of the CPU the probe ran on, measured at once after the import
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, 'src'); import zechbruijn.cli; "
                "ready = time.clock_gettime(time.CLOCK_MONOTONIC); "
                "sys.path.insert(0, 'perfbench'); from reference import loop_seconds; "
                "print(ready, loop_seconds())")


def load_package(root):
    """Put root/src first on sys.path and import zechbruijn from there."""
    src = (root / "src").resolve()
    if not (src / "zechbruijn" / "__init__.py").is_file():
        sys.exit(f"error: no package at {src / 'zechbruijn'}; run from the repository root")
    sys.path.insert(0, str(src))
    import zechbruijn
    if Path(zechbruijn.__file__).resolve().parent != src / "zechbruijn":
        sys.exit(f"error: zechbruijn was imported from {zechbruijn.__file__}, not {src}")


def import_times(root):
    """Times, at reference speed, from starting a fresh interpreter until it
    has imported the package.

    The probe may run on another CPU than this process, so its time is
    scaled by the reference loop it times itself.
    """
    from reference import at_reference_speed

    times = []
    for _ in range(IMPORT_PROBES):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root, check=True,
                             capture_output=True, text=True).stdout
        ready, loop_s = map(float, out.split())
        times.append(at_reference_speed(ready - start, loop_s))
    return times


def new_pass():
    return {"job_s": {}, "job_norm_s": {}, "digests": {}, "failures": []}


def run_job(job, lib, shared, out_dir, gate, into):
    """Run one job, timed; its gate check runs after, untimed.

    Adds to `into`, a pass: {"job_s": {job: seconds}, "job_norm_s": {job:
    seconds at reference speed}, "digests": {job: (exit, sha256)},
    "failures": [{"job", "reason", "known"}]}.
    """
    from gate import digest
    from reference import Section

    section = Section()
    try:
        with section:
            result = job.run(lib, shared, out_dir)
    except Exception as exc:  # a failing job is counted, not fatal
        result = exc
    into["job_s"][job.name] = section.seconds
    into["job_norm_s"][job.name] = section.normalised
    if isinstance(result, Exception):
        known = job.fails_as_known(result, None)
        if not known:
            traceback.print_exception(result)
        into["failures"].append({"job": job.name, "reason": f"raised {result!r}",
                                 "known": known})
        return
    exit_code, output = job.output(result, out_dir)
    into["digests"][job.name] = (exit_code, digest(output))
    reason = gate.check(job, exit_code, output)
    if reason is not None:
        into["failures"].append({"job": job.name, "reason": reason,
                                 "known": job.fails_as_known(result, output)})


def run_pass(jobs, lib, shared, out_dir, gate):
    """Run the jobs back to back; returns the pass (see `run_job`)."""
    p = new_pass()
    for job in jobs:
        run_job(job, lib, shared, out_dir, gate, p)
    return p


def pass_seconds(p):
    return sum(p["job_s"].values())


def closed_loop(seconds, one_pass):
    """Passes back to back until their timed seconds reach `seconds`."""
    passes = []
    while not passes or sum(pass_seconds(p) for p in passes) < seconds:
        passes.append(one_pass())
    return passes


def paired_pass(jobs, shared, out_dir, gate):
    """Each job untraced, then at once traced; returns (untraced, traced).

    The two runs of a job are taken close together, so their ratio gives
    the cost of tracing even where CPU speed drifts from pass to pass.
    """
    from layers import install, layer_metrics, untraced_lib
    from spans import Tracer

    lib, tracer = untraced_lib(), Tracer()
    untraced, traced = new_pass(), new_pass()
    for job in jobs:
        run_job(job, lib, shared, out_dir, gate, untraced)
        traced_lib, patches = install(tracer, shared.get("tables", ()))
        try:
            run_job(job, traced_lib, shared, out_dir, gate, traced)
        finally:
            patches.restore()
    tracer.finish()
    traced["layers"] = layer_metrics(tracer)
    traced["self_time_sum_s"] = sum(tracer.self_times().values())
    traced["trace"] = tracer.to_json()
    for job, got in traced["digests"].items():
        if untraced["digests"].get(job) != got:
            traced["failures"].append({"job": job, "known": False,
                                       "reason": "traced output differs from untraced"})
    return untraced, traced


def overhead_ratio(pairs):
    """Median over every job run of its traced time over its untraced time."""
    return statistics.median(traced["job_s"][job] / untraced["job_s"][job]
                             for untraced, traced in pairs for job in traced["job_s"])


def per_layer(pairs):
    """Median self times over the traced passes; counts from the first.

    Also reports counts that differ between traced passes and self-time
    sums that miss the traced job time by more than 1%.
    """
    from layers import EXACT, PER_LAYER

    traced = [t for _, t in pairs]
    metrics = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_ratio":
            value = overhead_ratio(pairs)
        elif name in EXACT:
            value = traced[0]["layers"][name]
        else:
            value = statistics.median(p["layers"][name] for p in traced)
        metrics[name] = {"value": value, "unit": unit}
    problems = [f"count {name} differs between traced passes" for name in EXACT
                if len({p["layers"][name] for p in traced}) > 1]
    for p in traced:
        if abs(p["self_time_sum_s"] - pass_seconds(p)) > 0.01 * pass_seconds(p):
            problems.append(f"self times sum to {p['self_time_sum_s']:.6f} s, "
                            f"traced jobs took {pass_seconds(p):.6f} s")
    return metrics, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    load_package(root)
    from gate import Gate, load_expected
    from layers import untraced_lib
    from reference import Section
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    def set_up():
        """(seconds at reference speed, shared inputs, jobs, gate)"""
        with Section() as section:
            shared = workload.setup()
            jobs = workload.jobs(args.seed)
            gate = Gate(load_expected())
        return section.normalised, shared, jobs, gate

    # the CPU speed of a shared host drifts over seconds, so set-up and the
    # import are timed both before and after the passes; only one set-up
    # comes before them, so the others do not count in the memory peak
    first_setup_s, shared, jobs, gate = set_up()
    imports = import_times(root)

    out_dir = root / ".perfbench" / f"out-{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            pairs = []

            def traced_half():
                pairs.append(paired_pass(jobs, shared, out_dir, gate))
                return pairs[-1][1]
            closed_loop(args.seconds, traced_half)
            passes = [p for pair in pairs for p in pair]
        else:
            lib = untraced_lib()
            passes = closed_loop(args.seconds,
                                 lambda: run_pass(jobs, lib, shared, out_dir, gate))
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    imports += import_times(root)
    setup_times = [first_setup_s] + [set_up()[0] for _ in range(SETUP_REPEATS - 1)]
    setup_s = statistics.median(imports) + statistics.median(setup_times)

    failures = [f for p in passes for f in p["failures"]]
    failures += [{"job": job, "reason": reason, "known": False} for job, reason in gate.finish()]

    if args.trace:
        metrics, problems = per_layer(pairs)
        trace_file = root / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "passes": [{"job_s": t["job_s"], "untraced_job_s": u["job_s"],
                        "self_time_sum_s": t["self_time_sum_s"], **t["trace"]}
                       for u, t in pairs],
        }) + "\n")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": sum(statistics.median(p["job_norm_s"][job.name] for p in passes)
                                    for job in jobs), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        problems = []

    attempted = len(jobs) * len(passes)
    for p in passes:
        print("pass " + " ".join(f"{job}={s:.4f}s" for job, s in p["job_s"].items()),
              file=sys.stderr)
        print("norm " + " ".join(f"{job}={s:.4f}s" for job, s in p["job_norm_s"].items()),
              file=sys.stderr)
    for f in failures:
        print(f"FAIL {f['job']}: {f['reason']}{' (known failure)' if f['known'] else ''}",
              file=sys.stderr)
    for problem in problems:
        print(f"WARNING {problem}", file=sys.stderr)
    print(f"error_rate {len(failures)}/{attempted} = {len(failures) / attempted:.4f}",
          file=sys.stderr)
    print(json.dumps({
        "correct": all(f["known"] for f in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
