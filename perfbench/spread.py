"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py [--seeds 1 2 ...] [--workloads ...] [--out FILE]

Runs ``run.py --trace 0`` once per (seed, workload), seeds in the outer
loop so that slow drifts of the machine touch every workload alike. For
each (workload, metric) prints the median, the quartiles from
``statistics.quantiles(values, n=4)``, and the spread (Q3 - Q1) / median
next to the metric's bound from BENCHMARK.json. ``--out`` writes the
table as JSON; ``baseline.json`` is that table for seeds 1-10 at the
parent commit, with the commit, machine and notes added.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    p.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--out")
    args = p.parse_args()

    values: dict[str, dict[str, list[float]]] = {w: {} for w in args.workloads}
    for seed in args.seeds:
        for wl in args.workloads:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{wl} seed {seed}: exited {proc.returncode}", file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, m in res["metrics"].items():
                values[wl].setdefault(name, []).append(m["value"])
            print(f"{wl:9s} seed {seed:3d} " + " ".join(
                f"{k}={m['value']:.5g}" for k, m in res["metrics"].items()), flush=True)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    table = {}
    for wl, metrics in values.items():
        for name, vals in metrics.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else float("inf")
            table.setdefault(wl, {})[name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "n": len(vals)}
            flag = "ok" if spread < bounds[name] / 3 else "WIDE"
            print(f"{wl:9s} {name:12s} median {med:11.5g} q1 {q1:11.5g} q3 {q3:11.5g} "
                  f"spread {spread:7.4f} bound {bounds[name]:.2f} {flag}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"seeds": args.seeds, "run_seconds": bench["run_seconds"],
                       "metrics": table}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
