"""conekit benchmark: one command, every metric, outputs checked.

    python3 perfbench/run.py --workload design|simulate|inspect --seed N --seconds S --trace 0|1

Run from the repository root. Each operation calls ``conekit.cli.main``
in-process on inputs generated from ``--seed``, one at a time (a closed
loop with one client). Workers are fresh ``python3`` processes with
OpenBLAS/OMP pinned to one thread, started one after another.

``--trace 0`` prints the end-to-end metrics. Set-up time is the median
of five fresh processes (two before the measuring process, the measuring
process itself, two after), which spreads machine noise over the run.
``--trace 1`` prints the per-layer metrics from a traced run of fixed
size, so its counts repeat exactly for a given seed, and writes the span
table to ``perfbench/out/``.

Times are reported for a quiet machine. On the shared 2-core x86 VM the
benchmark was built on, other tenants slow work by up to 1.8x for
stretches from seconds to minutes, longer than a run, so raw wall times
of one run swing by 20-30% and neither repetition nor medians inside a
run remove that. Each worker
therefore times a fixed reference kernel (``worker.reference_kernel``)
every 0.1 s from a timer signal, so also inside long operations, and
scales each operation's wall time by the kernel's quiet-machine time
over its time around that operation; set-up time is scaled by the
kernel's time right after set-up. The code under test never runs inside
the kernel, so a change to conekit moves these times as it moves wall
time. The raw wall-clock figures are printed in the detail line.

The last stdout line is the result object; the lines before it give each
metric with its unit, the tail percentile used, per-family figures, the
wall-clock figures and the environment (git SHA, nproc, numpy, scipy
and OpenBLAS versions). The result is ``correct`` when every failed
operation is one the program itself reported (a non-zero exit, or a
channel its own report calls not CPTP); a wrong answer or a crash makes
it false.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("design", "simulate", "inspect")
DEADLINE_S = 170.0
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class WorkerError(RuntimeError):
    pass


def run_worker(args, mode: str, started: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    env = dict(os.environ, **PINNED_ENV)
    budget = DEADLINE_S - (time.perf_counter() - started)
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(budget, 1.0))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise WorkerError(f"{mode} worker exceeded the {DEADLINE_S:.0f} s budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited {proc.returncode}")
    return json.loads(lines[-1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with TAIL_BEYOND samples beyond it."""
    xs = sorted(latencies)
    rank = max(len(xs) - TAIL_BEYOND, 1)
    return xs[rank - 1], 100.0 * rank / len(xs)


def summarize(samples, col: int) -> dict:
    lat = [s[col] for s in samples]
    passed = sum(1 for s in samples if s[2] is None)
    tail_s, pct = tail(lat)
    return {"ops_per_s": passed / sum(lat), "op_p50_ms": 1e3 * statistics.median(lat),
            "op_tail_ms": 1e3 * tail_s, "op_tail_percentile": pct}


def end_to_end(meas: dict, setups: list[dict]) -> tuple[dict, dict]:
    """Metrics from quiet-machine times; the wall-clock figures go to the detail."""
    samples = meas["samples"]
    quiet, wall = summarize(samples, 3), summarize(samples, 1)
    passed = sum(1 for s in samples if s[2] is None)
    metrics = {
        "setup_s": (statistics.median(s["setup_quiet_s"] for s in setups), "s"),
        "ops_per_s": (quiet["ops_per_s"], "1/s"),
        "op_p50_ms": (quiet["op_p50_ms"], "ms"),
        "op_tail_ms": (quiet["op_tail_ms"], "ms"),
        "ok_frac": (passed / len(samples), "fraction"),
        "peak_rss_mb": (meas["peak_rss_mb"], "MB"),
    }
    detail = {"op_tail_percentile": quiet["op_tail_percentile"], "samples": len(samples),
              "cycles": meas["cycles"], "wall_clock": dict(
                  wall, setup_s=statistics.median(s["setup_s"] for s in setups)),
              "kernel_ms": {"median": 1e3 * statistics.median(meas["kernel_s"]),
                            "min": 1e3 * min(meas["kernel_s"])}}
    return metrics, detail


def families(samples) -> dict:
    """Per operation family: count, failures by reason, median wall and quiet ms."""
    out: dict[str, dict] = {}
    for fam, dt, why, *quiet in samples:
        f = out.setdefault(fam, {"n": 0, "failed": 0, "reasons": {}, "wall": [], "quiet": []})
        f["n"] += 1
        f["wall"].append(1e3 * dt)
        f["quiet"].extend(1e3 * q for q in quiet)
        if why is not None:
            f["failed"] += 1
            f["reasons"][why] = f["reasons"].get(why, 0) + 1
    for f in out.values():
        for key in ("wall", "quiet"):
            xs = f.pop(key)
            if xs:
                f[f"p50_{key}_ms"] = statistics.median(xs)
    return out


def git_sha() -> str | None:
    """HEAD of the enclosing git checkout, read without starting git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def environment(versions: dict) -> dict:
    return dict(git_sha=git_sha(), nproc=len(os.sched_getaffinity(0)),
                python=sys.version.split()[0], pinned_env=PINNED_ENV, **versions)


def write_spans(args, spans) -> str:
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(spans, fh, indent=1)
    return os.path.relpath(path, ROOT)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    started = time.perf_counter()
    try:
        if args.trace:
            res = run_worker(args, "trace", started)
            metrics = {k: tuple(v) for k, v in res["layer_metrics"].items()}
            detail = {"cycles": res["cycles"], "spans": write_spans(args, res["spans"])}
        else:
            setups = [run_worker(args, "setup", started) for _ in range(2)]
            res = run_worker(args, "measure", started)
            setups += [res] + [run_worker(args, "setup", started) for _ in range(2)]
            metrics, detail = end_to_end(res, setups)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    samples = res["samples"]
    failed = sum(1 for s in samples if s[2] is not None)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:9s} {name:45s} {value:14.6g} {unit}")
    if "op_tail_percentile" in detail:
        print(f"{args.workload:9s} op_tail_ms is the p{detail['op_tail_percentile']:.1f} latency "
              f"of {detail['samples']} operations")
    detail["families"] = families(samples)
    detail["environment"] = environment(res["versions"])
    print(json.dumps({"workload": args.workload, "seed": args.seed, "detail": detail}))
    print(json.dumps({
        "correct": all(s[2] is None or s[2].startswith("reported:") for s in samples),
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
