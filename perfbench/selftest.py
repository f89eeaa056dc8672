"""Self-test: traced counts repeat exactly for a given seed.

    python3 perfbench/selftest.py [--seed N] [--workloads design simulate inspect]

Runs ``run.py --trace 1`` twice per workload with one seed and requires
every count metric (unit ``count`` or ``flop``) to be identical, among
them conesim.settle_steps, channel.apply.calls, sdp.iterations,
cli.exit.* and linops.as_matrix.calls. A claim resting on a count is only
sound if the count does not move between runs of the same code. Exits 1
on any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNT_UNITS = ("count", "flop")


def traced_counts(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: traced run exited {proc.returncode}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items() if m["unit"] in COUNT_UNITS}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--workloads", nargs="+", default=["design", "simulate", "inspect"])
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    bad = 0
    for wl in args.workloads:
        first = traced_counts(wl, args.seed, seconds)
        second = traced_counts(wl, args.seed, seconds)
        diff = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
        bad += bool(diff)
        print(f"{wl:9s} {len(first)} counts {'identical' if not diff else 'DIFFER: ' + json.dumps(diff)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
