"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload exact --seeds 1 2 3 4 5

For each metric it prints the median and the distance between the first and
third quartile (statistics.quantiles, n=4) as a share of the median, next to
the metric's bound in BENCHMARK.json. Runs one benchmark process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                               "--trace", "0"],
                              cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} ops failed")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}"
                                           for k, v in result["metrics"].items()), flush=True)
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:16s} median={median:.5g} spread={spread:.3f} bound={bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
