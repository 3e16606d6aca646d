#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/repeat.py --workload NAME [--workload NAME ...]
        [--seeds 0,1,...] [--seconds S]

Runs ``run.py --trace 0`` once per seed, one run at a time, and prints for
every end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, (Q3 - Q1) / median,
next to the bound in BENCHMARK.json. A metric's spread should stay below a
third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", default="0,1,2,3,4,5,6,7,8,9")
    ap.add_argument("--seconds", type=int, default=None)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]
    status = 0
    for workload in args.workload:
        values = {}
        for seed in seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed\n{proc.stderr}",
                      file=sys.stderr)
                status = 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds[name]
            flag = "  OVER a third of bound" if spread > bound / 3 else ""
            print(f"{workload} {name}: median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.4f} (n={len(vals)}) bound {bound}{flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
