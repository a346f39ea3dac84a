"""Check that two runs with one seed give identical non-timing output.

Usage (from the repository root)::

    python3 perfbench/determinism.py --seed 1 --seconds 2

Runs every workload twice with ``--trace 1`` and compares the answer and
partition digests, the failure list, the known-defect answers and every count-type per-layer metric.
Timings are not compared.  Exits 1 when any of them differs.
"""

import argparse
import json
from pathlib import Path
import subprocess
import sys

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("cohort", "chain", "population")
COUNT_UNITS = ("count", "ratio")


def non_timing(workload, seed, seconds):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    failures = [(f["op"], f["reason"]) for f in detail["failures"]]
    counts = {name: m["value"] for name, m in result["metrics"].items() if m["unit"] in COUNT_UNITS}
    return {"digests": detail["digests"], "failures": failures, "counts": counts,
            "shape": detail["shape"], "known_defects": detail["known_defects"],
            "correct": result["correct"]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args(argv)
    same = True
    for workload in WORKLOADS:
        first, second = (non_timing(workload, args.seed, args.seconds) for _ in range(2))
        differing = sorted(k for k in first if first[k] != second[k])
        print(f"{workload}: {'identical' if not differing else 'DIFFERS in ' + ', '.join(differing)}"
              f" (answers {first['digests']['answers']}, partitions {first['digests']['partitions']})")
        same = same and not differing
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
