"""Steadiness check: repeat each workload and report how far its numbers spread.

    python3 perfbench/steady.py [--out FILE]

Run it from the repository root. For each workload in BENCHMARK.json it
runs the benchmark command with --trace 0 once per seed 1..10 and reports,
for every end-to-end metric, the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median next to the
metric's bound. It then runs --trace 1 twice with seed 1, reports the
median of every per-layer metric, and checks that the exact counts repeat.
It exits 1 if a spread is over its bound, a count differs or a run is not
correct. --out writes all of it as JSON.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import load_package

RUN_TIMEOUT_S = 900
RUNS = 10          # untraced runs per workload, one seed each
TRACED_RUNS = 2    # traced runs per workload, all with seed 1


def run_once(spec, workload, seed, trace):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"error: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def check_workload(spec, workload):
    from layers import EXACT

    untraced = [run_once(spec, workload, seed, 0) for seed in range(1, RUNS + 1)]
    report = {"runs": RUNS, "end_to_end": {},
              "attempted": [r["attempted"] for r in untraced],
              "failed": [r["failed"] for r in untraced],
              "correct": [r["correct"] for r in untraced]}
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in untraced]
        q1, med, q3 = quartiles(values)
        report["end_to_end"][metric["name"]] = {
            "unit": metric["unit"], "values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med, "bound": metric["bound"]}
    traced = [run_once(spec, workload, 1, 1) for _ in range(TRACED_RUNS)]
    report["per_layer"] = {
        m["name"]: statistics.median(r["metrics"][m["name"]]["value"] for r in traced)
        for m in spec["per_layer"]}
    report["counts_differ"] = [name for name in EXACT
                               if len({r["metrics"][name]["value"] for r in traced}) > 1]
    report["traced_correct"] = [r["correct"] for r in traced]
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    load_package(Path.cwd())
    spec = json.loads(Path("BENCHMARK.json").read_text())
    summary = {"machine": {"nproc": os.cpu_count(), "cpu": cpu_model()},
               "run_seconds": spec["run_seconds"], "workloads": {}}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        report = check_workload(spec, workload)
        summary["workloads"][workload] = report
        print(f"{workload}: attempted {report['attempted']} failed {report['failed']} "
              f"correct {report['correct'] + report['traced_correct']}")
        for name, m in report["end_to_end"].items():
            flag = "ok" if m["spread"] < m["bound"] / 3 else "WIDE"
            if m["spread"] > m["bound"]:
                flag, steady = "OVER BOUND", False
            print(f"  {name:12s} median {m['median']:.4f} {m['unit']}  "
                  f"q1 {m['q1']:.4f}  q3 {m['q3']:.4f}  "
                  f"spread {m['spread']:.4f} (bound {m['bound']})  {flag}")
        if report["counts_differ"]:
            steady = False
            print(f"  counts differ between traced runs: {report['counts_differ']}")
        else:
            print(f"  exact counts repeat over {TRACED_RUNS} traced runs")
        if not all(report["correct"] + report["traced_correct"]):
            steady = False
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
