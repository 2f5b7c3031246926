"""Record the exit code and output digest of every seed-free job.

    python3 perfbench/record.py

Run it from the repository root at the commit whose outputs the gate
should hold later commits to; it rewrites perfbench/expected.json.
Seed-dependent jobs (those with a structural check) and known failures
are not recorded.
"""

import json
import shutil
import sys
from pathlib import Path

from run import load_package


def main():
    root = Path.cwd()
    load_package(root)
    from gate import EXPECTED, digest
    from layers import untraced_lib
    from workloads import WORKLOADS

    lib = untraced_lib()
    recorded = {}
    out_dir = root / ".perfbench" / "record"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        for name, workload in WORKLOADS.items():
            shared = workload.setup()
            for job in workload.jobs(0):
                if job.check is not None or job.known is not None:
                    continue
                exit_code, output = job.output(job.run(lib, shared, out_dir), out_dir)
                recorded[job.name] = {"exit": exit_code, "sha256": digest(output),
                                      "bytes": None if output is None else len(output)}
                print(f"{name}/{job.name}: {recorded[job.name]}", file=sys.stderr)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    EXPECTED.write_text(json.dumps({"jobs": recorded}, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
