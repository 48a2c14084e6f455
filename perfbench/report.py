"""Run every workload in its own process, untraced and traced, and print all metrics.

    python3 perfbench/report.py [--seed 1] [--seconds 20]

Prints each end-to-end metric with its unit and the failure share per
workload, then the per-layer metrics with the tracing overhead.  Run it from
the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_workload(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, str]:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                         capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), "\n".join(lines[:-1])


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    names = [w["name"] for w in spec["workloads"]]
    results = {n: run_workload(n, args.seed, args.seconds, 0) for n in names}
    traced = {n: run_workload(n, args.seed, args.seconds, 1) for n in names}

    print(f"{'metric':<42}" + "".join(f"{n:>16}" for n in names) + "  unit")
    for m in spec["end_to_end"]:
        row = "".join(f"{results[n][0]['metrics'][m['name']]['value']:>16.6g}" for n in names)
        print(f"{m['name']:<42}{row}  {m['unit']}")
    ratios = "".join(f"{r['failed'] / r['attempted']:>16.6f}" for r, _ in results.values())
    print(f"{'fail_ratio':<42}{ratios}  share of attempted jobs")
    print(f"{'correct':<42}" + "".join(f"{str(r['correct']):>16}" for r, _ in results.values()))
    for n, (_, text) in results.items():
        print(f"  {n}: " + re.sub(r"^environment .*\n", "", text).replace("\n", "; "))
    print()
    print(f"{'per-layer metric (per round)':<42}" + "".join(f"{n:>16}" for n in names) + "  unit")
    for m in spec["per_layer"]:
        row = "".join(f"{traced[n][0]['metrics'][m['name']]['value']:>16.6g}" for n in names)
        print(f"{m['name']:<42}{row}  {m['unit']}")
    for n, (_, text) in traced.items():
        print(f"  {n}: " + re.sub(r"^environment .*\n", "", text).replace("\n", "; "))
    ok = all(r["correct"] for r, _ in [*results.values(), *traced.values()])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
