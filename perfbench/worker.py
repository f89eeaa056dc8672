"""One benchmark process: set up a workload, then time or trace it.

    python3 perfbench/worker.py --workload W --seed N --seconds S --mode setup|measure|trace

Started by ``run.py`` with BLAS threads pinned, so that set-up time and
peak memory belong to a fresh process. Prints one JSON object on its last
stdout line. Set-up time runs from before numpy and conekit are imported
until the first cycle's inputs are generated and loaded into conekit
objects.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

GUARD_S = 120.0
PROBE_EVERY_S = 0.1
# The reference kernel's time on the reference machine (2-core x86, one
# OpenBLAS thread) when no other tenant is busy: the floor of its
# measurements over many runs.
REFERENCE_KERNEL_S = 2.5e-4
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_op(op, probe=None) -> tuple[float, str | None]:
    """Time one operation, then check its output; any exception is a failure.

    The time excludes what ``probe`` spent measuring the machine meanwhile.
    """
    spent = probe.spent if probe else 0.0
    t = time.perf_counter()
    try:
        res = op.run()
    except Exception as exc:  # a crash is a failed operation, not a harness error
        res, why = None, f"raised {type(exc).__name__}: {exc}"
    else:
        why = None
    dt = time.perf_counter() - t
    if probe:
        dt -= probe.spent - spent
    if why is not None:
        return dt, why
    try:
        return dt, op.check(res)
    except Exception as exc:  # malformed output fails its check
        return dt, f"check raised {type(exc).__name__}: {exc}"


def reference_kernel() -> float:
    """Seconds for a fixed mix of the work conekit does: small complex
    numpy calls, 32x32 real factorizations and JSON; best of three."""
    import numpy as np

    a = (np.arange(256).reshape(16, 16) % 7 - 3) * (1 + 1j) / 7
    g = np.cos(np.arange(1024.0)).reshape(32, 32)
    spd = g @ g.T + 32 * np.eye(32)
    row = [0.1 * i for i in range(64)]
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        for _ in range(4):
            c = a @ a
            np.linalg.eigvalsh(c + c.conj().T)
            np.trace(c.reshape(4, 4, 4, 4), axis1=1, axis2=3)
        np.linalg.eigh(spd)
        np.linalg.cholesky(spd)
        json.loads(json.dumps({"re": row, "im": row}))
        best = min(best, time.perf_counter() - t)
    return best


class SpeedProbe:
    """Times the reference kernel every PROBE_EVERY_S from a SIGALRM
    handler, so probes also land inside long operations; the handler's
    own time is counted in ``spent`` and taken off the operation."""

    def __init__(self):
        reference_kernel()  # first calls into LAPACK pay one-off costs
        self.kernel_s = [reference_kernel()]
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def _probe(self, signum, frame) -> None:
        t = time.perf_counter()
        self.kernel_s.append(reference_kernel())
        self.spent += time.perf_counter() - t

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.kernel_s.append(reference_kernel())

    def factor(self, first: int, end: int) -> float:
        """REFERENCE_KERNEL_S over the mean kernel time of the probes taken
        during an operation and the one on either side of it."""
        window = self.kernel_s[max(first - 1, 0):end + 1]
        return REFERENCE_KERNEL_S * len(window) / sum(window)


def measure(wl, ctx, seconds: float) -> dict:
    """Time round(seconds / wl.cycle_s) cycles, one sample per operation.

    The cycle count is fixed by ``seconds`` rather than by the clock, so
    every run times the same mix of operations and the tail percentile
    sits at the same rank; a run takes about ``seconds`` on a quiet
    machine at the parent commit. Past GUARD_S no further cycle starts.

    Each sample keeps its wall time and that time scaled to a quiet
    machine (see SpeedProbe and run.py). As in ``timeit``, the cyclic
    garbage collector is off while operations run and collects between
    cycles instead, so a collection of the harness's garbage does not
    land in a random operation.
    """
    start = time.perf_counter()
    planned = max(1, round(seconds / wl.cycle_s))
    probe = SpeedProbe()
    timed = []
    cycle = 0
    gc.disable()
    try:
        while cycle < planned and (cycle == 0 or time.perf_counter() - start < GUARD_S):
            for op in wl.cycle(ctx, cycle):
                first = len(probe.kernel_s)
                dt, why = run_op(op, probe)
                timed.append((op.family, dt, why, first, len(probe.kernel_s)))
            cycle += 1
            gc.collect()
    finally:
        gc.enable()
        probe.stop()
    samples = [[fam, dt, why, dt * probe.factor(first, end)]
               for fam, dt, why, first, end in timed]
    return {"samples": samples, "cycles": cycle, "kernel_s": probe.kernel_s}


def trace(wl, ctx, ck) -> dict:
    """A fixed number of cycles; every operation runs untraced and traced,
    in alternating order, so the overhead compares identical work."""
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    plain_s = traced_s = 0.0
    samples = []
    for cycle in range(wl.trace_cycles):
        for j, op in enumerate(wl.cycle(ctx, cycle)):
            for traced in ((False, True) if j % 2 == 0 else (True, False)):
                if traced:
                    tracer.install(ck)
                try:
                    dt, why = run_op(op)
                finally:
                    tracer.uninstall()
                if traced:
                    traced_s += dt
                    samples.append([op.family, dt, why])
                else:
                    plain_s += dt
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "fraction")
    return {"samples": samples, "cycles": wl.trace_cycles, "layer_metrics": metrics,
            "spans": tracer.span_table()}


def versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version")}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    workdir = os.path.join(HERE, "work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        import conekit
        import conekit.cli
        from workloads import WORKLOADS, Context

        wl = WORKLOADS[args.workload]
        ctx = Context(conekit, args.seed, workdir)
        wl.setup(ctx)
        setup_s = time.perf_counter() - _T0
        reference_kernel()
        out = {"setup_s": setup_s, "setup_quiet_s": setup_s * REFERENCE_KERNEL_S / reference_kernel()}
        if args.mode == "measure":
            out.update(measure(wl, ctx, args.seconds))
        elif args.mode == "trace":
            out.update(trace(wl, ctx, conekit))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["versions"] = versions()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another worker's directory is still there
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
