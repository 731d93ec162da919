"""Run the benchmark on several seeds and report each end-to-end metric's
median and spread (interquartile range as a share of the median).

    python3 perfbench/spread.py --workload trace --seeds 1-10 [--out FILE]

With ``--out`` the per-run values and the summary are written as JSON.
Each run is a fresh ``run.py`` process, one after another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="first-last, inclusive")
    ap.add_argument("--out")
    args = ap.parse_args()
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    lo, hi = (int(v) for v in args.seeds.split("-"))
    runs = []
    for seed in range(lo, hi + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(config["run_seconds"]),
             "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True)
        if proc.returncode:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(seed, result["correct"], result["attempted"], result["failed"],
              {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        summary[name] = {"median": med, "iqr_share": (q3 - q1) / abs(med) if med else None}
        print(f"{name}: median {med:.6g}, IQR/median {summary[name]['iqr_share']}")
    if args.out:
        Path(args.out).write_text(json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
