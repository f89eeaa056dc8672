"""Per-layer tracing of conekit, from outside the program.

Every public function of each layer module is wrapped where it is bound
(for ``cli`` only ``main``, so its self time is all of the CLI's own work):
a name imported with ``from .linops import kron`` into ``channel`` is a
separate binding from ``linops.kron`` and gets its own wrapper, so a
span is attributed to the caller that made it. A few spans are named by
role rather than by function: ``channel.ChoiMatrix`` wraps the
constructor's validation, ``conesim.classify`` the NNLS and trace-distance
calls bound in ``conesim``, and ``conesim.kick`` the kick policies.

Spans are not kept one by one (a simulate run makes millions); each
closed span is folded at once into a per-(parent, name) aggregate of
calls, total and self time, which is written out when the run ends.
Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

LAYERS = ("cli", "linops", "channel", "engineer", "sdp", "quasireal", "conesim")


class Tracer:
    """Aggregated span tree plus counters taken from return values."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.edges = defaultdict(lambda: [0, 0.0, 0.0])  # (parent, name) -> calls, total, self
        self.counts = defaultdict(int)
        self._stack: list[list] = []  # [name, child seconds]
        self._saved: list[tuple[object, str, object]] = []

    # -- span bookkeeping ------------------------------------------------

    def wrap(self, name: str, fn, on_return=None):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                own = dur - frame[1]
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += own
                edge = self.edges[(parent[0] if parent else "", name)]
                edge[0] += 1
                edge[1] += dur
                edge[2] += own
            if on_return is not None:
                on_return(self, args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, on_return=None):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_return))

    # -- installing on conekit -------------------------------------------

    def install(self, pkg) -> None:
        """Wrap every layer of the imported ``conekit`` package."""
        modules = {layer: getattr(pkg, layer) for layer in LAYERS}
        by_module = {m.__name__: layer for layer, m in modules.items()}
        hooks = {
            "cli.main": _count_exit,
            "channel.apply": _count_apply_flops,
            "conesim.run": _count_rounds,
            "sdp.solve": _count_sdp,
        }
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if layer == "cli" and attr != "main":
                    continue  # the cli layer's own time is main minus the layers below
                origin = by_module.get(obj.__module__)
                if origin is None:
                    continue
                name = f"{origin}.{obj.__name__}"
                if layer == "conesim" and attr == "trace_distance":
                    self.patch(mod, attr, name)
                    self.patch(mod, attr, "conesim.classify")
                    continue
                self.patch(mod, attr, name, hooks.get(name))
        self.patch(modules["conesim"], "nnls", "conesim.classify")
        for kick in ("FixedKick", "HaarUnitaryKick", "DepolarizingKick"):
            self.patch(getattr(modules["conesim"], kick), "apply", "conesim.kick")
        self.patch(modules["channel"].ChoiMatrix, "__post_init__", "channel.ChoiMatrix")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def span_table(self) -> list[dict]:
        return [
            {"parent": p, "name": n, "calls": c, "total_s": t, "self_s": s}
            for (p, n), (c, t, s) in sorted(self.edges.items())
        ]


def _count_exit(tracer: Tracer, args, code) -> None:
    tracer.counts[f"cli.exit.{code}"] += 1


def _count_apply_flops(tracer: Tracer, args, result) -> None:
    # apply forms C @ kron(I, rho^T): one complex (n x n) @ (n x n) product
    # with n = d_out * d_in, 8 n^3 real flops. Computed from shapes, not counted.
    c = args[0]
    n = c.d_out * c.d_in
    tracer.counts["channel.apply.flop_computed"] += 8 * n ** 3


def _count_rounds(tracer: Tracer, args, traj) -> None:
    tracer.counts["conesim.rounds"] += len(traj.rounds)
    tracer.counts["conesim.settle_steps"] += sum(r.settle_steps for r in traj.rounds)
    tracer.counts["conesim.classified"] += sum(1 for r in traj.rounds if r.symbol is not None)


def _count_sdp(tracer: Tracer, args, sol) -> None:
    tracer.counts["sdp.iterations"] += sol.iterations
    tracer.counts["sdp.optimal"] += int(sol.status == "optimal")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics listed in BENCHMARK.json, as name -> (value, unit)."""
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    apply_calls = calls["channel.apply"]
    m: dict[str, tuple[float, str]] = {
        "cli.main.calls": (calls["cli.main"], "count"),
        "cli.main.self_s": (self_s["cli.main"], "s"),
    }
    for code in (2, 3, 4):
        m[f"cli.exit.{code}"] = (counts[f"cli.exit.{code}"], "count")
    for fn in ("as_matrix", "check_hermitian", "check_density", "trace_distance"):
        m[f"linops.{fn}.calls"] = (calls[f"linops.{fn}"], "count")
    for fn in ("trace_distance", "partial_trace", "kron", "hermitize", "herm_eig"):
        m[f"linops.{fn}.self_s"] = (self_s[f"linops.{fn}"], "s")
    m["linops.matrix_json.self_s"] = (
        self_s["linops.matrix_to_json"] + self_s["linops.matrix_from_json"], "s")
    for fn in ("ChoiMatrix", "apply", "iterate", "is_cptp", "fixed_points"):
        m[f"channel.{fn}.calls"] = (calls[f"channel.{fn}"], "count")
        m[f"channel.{fn}.self_s"] = (self_s[f"channel.{fn}"], "s")
    m["channel.apply.us_per_call"] = (
        1e6 * _ratio(tracer.total_s["channel.apply"], apply_calls), "us")
    m["channel.apply.flop_computed"] = (counts["channel.apply.flop_computed"], "flop")
    m["conesim.rounds"] = (counts["conesim.rounds"], "count")
    m["conesim.settle_steps"] = (counts["conesim.settle_steps"], "count")
    m["conesim.classified_frac"] = (
        _ratio(counts["conesim.classified"], counts["conesim.rounds"]), "fraction")
    for fn in ("run", "classify", "kick", "estimate_process"):
        m[f"conesim.{fn}.self_s"] = (self_s[f"conesim.{fn}"], "s")
    for fn in ("build_via_sdp", "find_discrimination_projectors", "build_separable_multi"):
        m[f"engineer.{fn}.self_s"] = (self_s[f"engineer.{fn}"], "s")
    m["sdp.solve.calls"] = (calls["sdp.solve"], "count")
    m["sdp.solve.self_s"] = (self_s["sdp.solve"], "s")
    m["sdp.iterations"] = (counts["sdp.iterations"], "count")
    m["sdp.ms_per_iter"] = (
        1e3 * _ratio(tracer.total_s["sdp.solve"], counts["sdp.iterations"]), "ms")
    m["sdp.optimal_frac"] = (_ratio(counts["sdp.optimal"], calls["sdp.solve"]), "fraction")
    m["sdp.assemble_fixed_point_constraints.self_s"] = (
        self_s["sdp.assemble_fixed_point_constraints"], "s")
    m["quasireal.cone_membership.calls"] = (calls["quasireal.cone_membership"], "count")
    for fn in ("cone_membership", "is_pointed", "word_probability"):
        m[f"quasireal.{fn}.self_s"] = (self_s[f"quasireal.{fn}"], "s")
    return m
