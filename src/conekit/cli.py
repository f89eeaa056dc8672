"""Command-line interface.

Subcommands mirror the library modules: ``channel check|fixed-points|
iterate``, ``engineer single|separable|sdp``, ``sdp solve``, ``quasireal
prob|check|cone-check``, ``conesim run|estimate`` and ``demo bell``.
Inputs and outputs are the JSON formats defined in the owning modules;
``--format csv`` flattens matrix output with interleaved re,im columns.

``conesim run`` writes the trajectory as JSONL, one line per round:
``{"round", "symbol", "settle_steps", "weights", "residual"}``, with the
canonical fixed points added to line 0 only as ``"fixed_points"``.
States are not written. Its stdout summary gives the round counts, the
number of fixed points, the predicted ``settle_steps``, the
``unclassified_rounds`` as ``[round, residual]`` pairs and the
``max_residual``. ``conesim estimate`` reads only ``round``, ``symbol``
and ``settle_steps`` from each line, strictly: line i must be round i. A
line that is not JSON is reported with the file path and its 1-based
line number in the file.

``channel fixed-points``, ``engineer sdp``, each ``--report`` and both
paths of ``demo bell`` give a channel's decay as ``channel.spectrum``:
``decay_modulus``, the largest eigenvalue modulus off the unit circle,
and ``peripheral_spectrum`` on it as [re, im]; separable ones add ``b_weight``.
``engineer sdp`` also gives ``solver_iterations`` and ``solver_message``.
Every set takes one route, the analytic centre of the cores that fix it,
in closed form: the message is ``engineer.ANALYTIC_CENTRE`` and the
iterations are its Newton steps, summed over the blocks of the forced
algebra's commutant (0 when every block has m_k = 1, as when the states
force the identity on their support).
It exits 4 (``numerical-limit``) when the cut of ``linops.support`` leaves
a state unfixed, its residual above ``channel.FP_TOL``.

The three verdict commands print the fields of their report, in its
order, then the keys they add: ``channel check`` those of
``channel.CptpReport`` and ``d_in``, ``d_out``; ``quasireal check`` those
of ``quasireal.PositiveRealizationReport`` and ``positive_realization``;
``quasireal cone-check`` those of ``quasireal.DharmadhikariReport``
(``worst_map_case`` as a [symbol, generator] pair or null) and
``all_conditions``.

Inputs are decoded by orjson (``_parse_json``). What orjson rejects, the
stdlib ``json`` decides on the text a text-mode ``open`` gives: ``NaN``
and ``Infinity`` tokens, a lone surrogate, a BOM and malformed JSON get
the stdlib's value or its error message. An integer literal outside
[-2**63, 2**64) comes back as a float, which the integer fields of a
conesim config or trajectory reject from 2**53 up. Output, the error
lines and the ``conesim run`` trajectory lines included, is compact JSON
on one line written by orjson (``_dumps``): no spaces after separators,
each float in its shortest form that reads back to the same value, and a
non-finite float as ``null``. A string orjson refuses to write, one with
a lone surrogate from the stdlib decoder or from argv bytes that are not
UTF-8, is written by the stdlib encoder as its ``\\uXXXX`` escape. The
argument parser is built once per process, on the first ``main`` call,
and reused by every later call; the command handlers are bound to it at
that first build. Tolerance options must be finite and > 0, and
``--max-iter`` at least 1.

Exit code 0 is success, and ``--help`` exits 0. Every failure prints
``{"error", "reason"}`` (plus ``details`` for construction errors) as one
JSON line on stderr; a usage error (a missing or unknown argument, a bad
option value) is a ``validation`` error like any other malformed input:

    reason                            exit  raised for
    validation                        2     malformed or out-of-range input,
                                            usage errors
    numerical-limit                   4     solver limit, or a LinAlgError
                                            inside a computation
    sdp-infeasible                    3     ``sdp solve`` proved infeasibility
    not-unambiguously-discriminable   3     ConstructionError (separable)
    cross-overlap-nonzero             3     ConstructionError (separable)
    zero-detection-overlap            3     ConstructionError (separable)
    decay-weight-zero                 3     ConstructionError (separable, single)
    decay-weight-too-large            3     ConstructionError (separable, single)
    not-completely-positive           3     ConstructionError (separable, single):
                                            the channel is not CP; details
                                            give choi_min_eig
    construction-error                3     ConstructionError without a tag

A numerical failure never counts as a validation error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys

import numpy as np
import orjson

from . import channel as chan
from . import conesim
from . import engineer
from . import linops
from . import quasireal
from . import sdp as sdpmod

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4


def _parse_json(raw: bytes | str, where: str | None):
    """The JSON value of ``raw``, decoded by orjson. Input orjson rejects
    goes to ``json.loads``, as text decoded the way a text-mode ``open``
    decodes a file, so it gets the stdlib's value or error. A decode error
    raises ValueError naming ``where``, or the stdlib's JSONDecodeError
    unchanged when ``where`` is None."""
    try:
        return orjson.loads(raw)
    except orjson.JSONDecodeError:
        pass
    if isinstance(raw, bytes):
        raw = io.TextIOWrapper(io.BytesIO(raw)).read()
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        if where is None:
            raise
        raise ValueError(f"{where} is not valid JSON: {exc}") from exc


def _load_json(path: str):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    return _parse_json(raw, path)


def _open_out(path: str, newline: str | None = None):
    try:
        return open(path, "w", newline=newline)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def _plain(obj):
    """``obj`` as ``json.dumps`` must see it to write what orjson writes:
    numpy scalars and arrays as Python numbers and lists, and a non-finite
    float as None."""
    if isinstance(obj, dict):
        return {key: _plain(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_plain(value) for value in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _dumps(obj) -> str:
    """Compact JSON text of ``obj``, encoded by orjson: numpy scalars and
    arrays as numbers and lists, a non-finite float as null. orjson refuses
    a string with a lone surrogate (see the module docstring); ``json.dumps``
    writes that ``obj``, the surrogate as its \\uXXXX escape, which
    ``_parse_json`` reads back."""
    try:
        return orjson.dumps(obj, option=orjson.OPT_SERIALIZE_NUMPY).decode()
    except orjson.JSONEncodeError:
        return json.dumps(_plain(obj), separators=(",", ":"))


def _emit(obj, out_path: str | None = None):
    text = _dumps(obj)
    if out_path:
        with _open_out(out_path) as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_error(message: str, reason: str, details: dict | None = None):
    payload = {"error": message, "reason": reason}
    if details:
        payload["details"] = details
    print(_dumps(payload), file=sys.stderr)


def _interleaved_row(m: np.ndarray) -> list[float]:
    flat = np.asarray(m, dtype=complex).reshape(-1)
    row: list[float] = []
    for x in flat:
        row.extend((float(x.real), float(x.imag)))
    return row


def _write_csv(rows: list[list], header: list[str], out_path: str | None):
    fh = _open_out(out_path, newline="") if out_path else sys.stdout
    try:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if out_path:
            fh.close()


def _csv_header(label: str, dim_sq: int) -> list[str]:
    cols = [label]
    for i in range(dim_sq):
        cols.extend((f"re{i}", f"im{i}"))
    return cols


# ----------------------------------------------------------------------
# channel
# ----------------------------------------------------------------------

def cmd_channel_check(args) -> int:
    c = chan.choi_from_json(_load_json(args.choi))
    rep = chan.is_cptp(c, psd_tol=args.psd_tol, tp_tol=args.tp_tol)
    _emit({**vars(rep), "d_in": c.d_in, "d_out": c.d_out}, args.out)
    return EXIT_OK


def cmd_channel_fixed_points(args) -> int:
    c = chan.choi_from_json(_load_json(args.choi))
    fps = chan.fixed_points(c, fp_tol=args.tol)
    if args.format == "csv":
        rows = [[i] + _interleaved_row(s) for i, s in enumerate(fps.states)]
        _write_csv(rows, _csv_header("state", c.d_in * c.d_in), args.out)
        return EXIT_OK
    _emit({
        "states": [linops.matrix_to_json(s) for s in fps.states],
        "residuals": fps.eigenvalue_residuals,
        **chan.spectrum_to_json(fps.spectrum),
    }, args.out)
    return EXIT_OK


def cmd_channel_iterate(args) -> int:
    c = chan.choi_from_json(_load_json(args.choi))
    rho0 = linops.matrix_from_json(_load_json(args.state))
    states = chan.iterate(c, rho0, args.n, stop_tol=args.stop_tol)
    if args.format == "csv":
        rows = [[k + 1] + _interleaved_row(s) for k, s in enumerate(states)]
        _write_csv(rows, _csv_header("step", c.d_in * c.d_in), args.out)
        return EXIT_OK
    _emit({"states": [linops.matrix_to_json(s) for s in states]}, args.out)
    return EXIT_OK


# ----------------------------------------------------------------------
# engineer
# ----------------------------------------------------------------------

def _load_states(paths: list[str]) -> list[np.ndarray]:
    return [linops.matrix_from_json(_load_json(p)) for p in paths]


def cmd_engineer_single(args) -> int:
    sigma = _load_states([args.sigma])[0]
    b = _load_states([args.b])[0] if args.b else None
    spec = engineer.SeparableMultiSpec.from_top_eigenvector(sigma, b)
    out = {"channel": chan.choi_to_json(engineer.build_separable_multi(spec))}
    if args.report:
        rep = engineer.separable_condition_report(spec)
        lambda_max = float(spec.cross_overlaps[0, 0])
        cp_factor = spec.sigmas[0] - (1.0 - lambda_max) * spec.b
        out["report"] = {
            "lambda_max": lambda_max,
            "vmax_overlap": float(np.trace(spec.projectors[0] @ spec.b).real),
            "cp_factor_min_eig": float(np.linalg.eigvalsh(linops.hermitize(cp_factor)).min()),
            **{key: rep[key] for key in ("b_weight", "decay_modulus", "peripheral_spectrum",
                                         "choi_min_eig", "tp_residual", "cp", "tp")},
            "fixed_point_residual": rep["fixed_point_residuals"][0],
        }
    _emit(out, args.out)
    return EXIT_OK


def cmd_engineer_separable(args) -> int:
    sigmas = _load_states(args.sigma)
    b = _load_states([args.b])[0] if args.b else None
    spec = engineer.SeparableMultiSpec.from_states(sigmas, b=b)
    c = engineer.build_separable_multi(spec)
    out = {"channel": chan.choi_to_json(c)}
    if args.report:
        out["report"] = engineer.separable_condition_report(spec)
    _emit(out, args.out)
    return EXIT_OK


def cmd_engineer_sdp(args) -> int:
    sigmas = _load_states(args.sigma)
    b = _load_states([args.b])[0] if args.b else None
    res = engineer.build_via_sdp(sigmas, b=b)
    _emit({
        "channel": chan.choi_to_json(res.c),
        "x": chan.choi_to_json(res.x),
        **chan.spectrum_to_json(res.spectrum),
        "fixed_point_residuals": res.residuals,
        "cp": res.c.cptp.cp, "tp": res.c.cptp.tp,
        "objective_trace": res.solution.objective_value,
        "solver_status": res.solution.status,
        "solver_iterations": res.solution.iterations,
        "solver_message": res.solution.message,
    }, args.out)
    return EXIT_OK


# ----------------------------------------------------------------------
# sdp
# ----------------------------------------------------------------------

def cmd_sdp_solve(args) -> int:
    problem = sdpmod.problem_from_json(_load_json(args.problem))
    sol = sdpmod.solve(problem, max_iter=args.max_iter, feas_tol=args.feas_tol)
    payload = sdpmod.solution_to_json(sol)
    if args.dump:
        payload = {"problem": sdpmod.problem_to_json(problem), "solution": payload}
    _emit(payload, args.out)
    if sol.status == sdpmod.STATUS_OPTIMAL:
        return EXIT_OK
    if sol.status == sdpmod.STATUS_INFEASIBLE:
        _emit_error("SDP is infeasible", reason="sdp-infeasible")
        return EXIT_INFEASIBLE
    _emit_error(f"SDP solve hit its numerical limit: {sol.message}", reason="numerical-limit")
    return EXIT_NUMERICAL


# ----------------------------------------------------------------------
# quasireal
# ----------------------------------------------------------------------

def _parse_word(word: str) -> list[str]:
    if "," in word:
        return [u for u in word.split(",") if u]
    return list(word)


def cmd_quasireal_prob(args) -> int:
    q = quasireal.quasireal_from_json(_load_json(args.realization))
    word = _parse_word(args.word)
    _emit({"word": word, "probability": quasireal.word_probability(q, word)}, args.out)
    return EXIT_OK


def cmd_quasireal_check(args) -> int:
    q = quasireal.quasireal_from_json(_load_json(args.realization))
    rep = quasireal.is_positive_realization(q, tol=args.tol)
    _emit({**vars(rep), "positive_realization": rep.all_ok}, args.out)
    return EXIT_OK


def cmd_quasireal_cone_check(args) -> int:
    q = quasireal.quasireal_from_json(_load_json(args.realization))
    cone = quasireal.cone_from_json(_load_json(args.cone))
    rep = quasireal.check_dharmadhikari(q, cone, tol=args.tol)
    _emit({**vars(rep), "all_conditions": rep.all_ok}, args.out)
    return EXIT_OK


# ----------------------------------------------------------------------
# conesim
# ----------------------------------------------------------------------

def cmd_conesim_run(args) -> int:
    cfg = conesim.config_from_json(_load_json(args.config))
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.state:
        rho0 = linops.matrix_from_json(_load_json(args.state))
    else:
        d = cfg.channel.d_in
        rho0 = np.eye(d, dtype=complex) / d
    traj = conesim.run(cfg, rho0)
    with _open_out(args.out) as fh:
        for rec in conesim.trajectory_to_json(traj):
            fh.write(_dumps(rec) + "\n")
    unclassified = [[i, r.residual] for i, r in enumerate(traj.rounds) if r.symbol is None]
    _emit({
        "rounds": len(traj.rounds),
        "classified": len(traj.rounds) - len(unclassified),
        "unclassified": len(unclassified),
        "n_fixed_points": len(traj.fixed_points),
        "settle_steps": traj.rounds[0].settle_steps,
        "unclassified_rounds": unclassified,
        "max_residual": max(r.residual for r in traj.rounds),
        "out": args.out,
    })
    return EXIT_OK


def cmd_conesim_estimate(args) -> int:
    # text mode, so lines split and blank lines drop as they always have
    try:
        with open(args.trajectory) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read {args.trajectory}: {exc}") from exc
    records = []
    for number, line in enumerate(lines, 1):
        if line.strip():
            try:
                records.append(_parse_json(line, None))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{args.trajectory} is not valid JSON: {exc.msg}: "
                                 f"line {number} column {exc.colno}") from exc
    proc = conesim.estimate_process(conesim.symbols_from_json(records))
    if args.format == "csv":
        rows = [
            [proc.symbols[i]] + [float(x) for x in proc.transition_estimate[i]]
            for i in range(len(proc.symbols))
        ]
        _write_csv(rows, ["from"] + [f"to{s}" for s in proc.symbols], args.out)
        return EXIT_OK
    _emit(conesim.process_to_json(proc), args.out)
    return EXIT_OK


# ----------------------------------------------------------------------
# demo bell
# ----------------------------------------------------------------------

def _bell_basis() -> list[np.ndarray]:
    v0 = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    v1 = np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2)
    v2 = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
    v3 = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    return [v0, v1, v2, v3]


def _parse_floats(text: str, count: int, what: str) -> list[float]:
    parts = [p for p in text.split(",") if p.strip() != ""]
    if len(parts) != count:
        raise ValueError(f"{what} needs {count} comma-separated numbers, got {len(parts)}")
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise ValueError(f"{what} must be numeric: {exc}") from exc
    if not np.isfinite(vals).all():
        raise ValueError(f"{what} must be finite, got {text}")
    return vals


def _check_weights(w: list[float], what: str) -> np.ndarray:
    arr = np.asarray(w, dtype=float)
    if np.any(arr < -1e-12) or abs(arr.sum() - 1.0) > 1e-6:
        raise ValueError(
            f"{what} must be a probability vector (nonnegative, summing to 1); got {w}"
        )
    return arr


def build_bell_demo_states(coeffs: list[float], s: np.ndarray, r: np.ndarray):
    v = _bell_basis()
    # each ket combines the orthonormal V1 and V2, so its norm is the hypot
    # of its two coefficients, which does not overflow where squares would
    pairs = {"v1_0": coeffs[0:2], "v2_0": coeffs[2:4], "v1_1": coeffs[4:6], "v2_1": coeffs[6:8]}
    kets = {}
    for name, (a, b) in pairs.items():
        norm = math.hypot(a, b)
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"superposition ket {name} is not normalized (norm {norm:.6g})")
        kets[name] = a * v[1] + b * v[2]
    sigma0 = (s[0] * linops.ket_projector(v[0])
              + s[1] * linops.ket_projector(kets["v1_0"])
              + s[2] * linops.ket_projector(kets["v2_0"]))
    sigma1 = (r[0] * linops.ket_projector(v[1])
              + r[1] * linops.ket_projector(kets["v1_1"])
              + r[2] * linops.ket_projector(kets["v2_1"]))
    return sigma0, sigma1


def run_bell_demo(coeffs: list[float], s_weights: list[float], r_weights: list[float]) -> dict:
    """Build the two Bell-mixture states, test whether they can be
    unambiguously discriminated, and engineer a channel fixing both:
    directly from the projectors when the test passes, otherwise through
    the SDP construction (``engineer.build_via_sdp``)."""
    s = _check_weights(s_weights, "state-0 weights")
    r = _check_weights(r_weights, "state-1 weights")
    sigma0, sigma1 = build_bell_demo_states(coeffs, s, r)
    sigma0 = linops.check_density(sigma0)
    sigma1 = linops.check_density(sigma1)
    b = np.eye(4, dtype=complex) / 4.0

    states = [sigma0, sigma1]
    disc = engineer.find_discrimination_projectors(states)
    spec = engineer.SeparableMultiSpec.from_parts(states, disc.projectors, b=b)
    report: dict = {
        "coefficients": coeffs,
        "weights": {"s": list(map(float, s)), "r": list(map(float, r))},
        "sigma0": linops.matrix_to_json(sigma0),
        "sigma1": linops.matrix_to_json(sigma1),
        "discrimination": {
            "feasible": disc.feasible,
            "failing_index": disc.failing_index,
            "detection_overlaps": disc.overlaps,     # tr[Pi_i sigma_i]
            "cross_overlaps": spec.cross_overlaps.tolist(),  # tr[sigma_i Pi_j]
            "kernel_ranks": disc.kernel_ranks,
            "kernel_overlaps": disc.kernel_overlaps,  # tr[K_i sigma_i]
        },
    }

    if disc.feasible:
        c = engineer.build_separable_multi(spec)
        cond = engineer.separable_condition_report(spec)
        report.update(path="separable", conditions=cond, channel=chan.choi_to_json(c),
                      fixed_point_residuals=cond["fixed_point_residuals"])
    else:
        res = engineer.build_via_sdp(states, b=b)
        sdp = {"objective_trace": res.solution.objective_value, "status": res.solution.status,
               **chan.spectrum_to_json(res.spectrum), "cp": res.c.cptp.cp, "tp": res.c.cptp.tp}
        report.update(path="sdp", sdp=sdp, channel=chan.choi_to_json(res.c),
                      fixed_point_residuals=res.residuals)
    return report


DEFAULT_COEFFS = [1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0]
DEFAULT_WEIGHTS = [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]


def cmd_demo_bell(args) -> int:
    coeffs = _parse_floats(args.coeffs, 8, "--coeffs") if args.coeffs else list(DEFAULT_COEFFS)
    s = _parse_floats(args.s, 3, "--s") if args.s else list(DEFAULT_WEIGHTS)
    r = _parse_floats(args.r, 3, "--r") if args.r else list(DEFAULT_WEIGHTS)
    _emit(run_bell_demo(coeffs, s, r), args.out)
    return EXIT_OK


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports usage errors as ValueError, so they reach ``main``'s
    ``validation`` branch instead of printing usage and exiting."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _tolerance(text: str) -> float:
    """Option type for tolerances: a finite number > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def _count(text: str) -> int:
    """Option type for iteration counts: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="conekit",
        description="Engineer quantum channels with prescribed fixed points and "
                    "simulate the classical processes they generate.",
    )
    sub = parser.add_subparsers(dest="group", required=True)

    # channel
    g = sub.add_parser("channel", help="inspect channels in Choi form")
    gs = g.add_subparsers(dest="cmd", required=True)
    p = gs.add_parser("check", help="CP/TP report")
    p.add_argument("--choi", required=True)
    p.add_argument("--psd-tol", type=_tolerance, default=linops.PSD_TOL)
    p.add_argument("--tp-tol", type=_tolerance, default=chan.TP_TOL)
    p.add_argument("--out")
    p.set_defaults(func=cmd_channel_check)
    p = gs.add_parser("fixed-points", help="extract fixed states")
    p.add_argument("--choi", required=True)
    p.add_argument("--tol", type=_tolerance, default=chan.FP_TOL)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_channel_fixed_points)
    p = gs.add_parser("iterate", help="apply the channel repeatedly")
    p.add_argument("--choi", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--stop-tol", type=_tolerance, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_channel_iterate)

    # engineer
    g = sub.add_parser("engineer", help="build channels with prescribed fixed points")
    gs = g.add_subparsers(dest="cmd", required=True)
    p = gs.add_parser("single", help="closed form for one fixed state")
    p.add_argument("--sigma", required=True)
    p.add_argument("--b")
    p.add_argument("--report", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_engineer_single)
    p = gs.add_parser("separable", help="projector construction for several states")
    p.add_argument("--sigma", action="append", required=True)
    p.add_argument("--b")
    p.add_argument("--report", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_engineer_separable)
    p = gs.add_parser("sdp", help="SDP construction: the analytic centre of the cores that fix "
                                  "every state, in closed form, completed by B")
    p.add_argument("--sigma", action="append", required=True)
    p.add_argument("--b")
    p.add_argument("--out")
    p.set_defaults(func=cmd_engineer_sdp)

    # sdp
    g = sub.add_parser("sdp", help="semidefinite programming")
    gs = g.add_subparsers(dest="cmd", required=True)
    p = gs.add_parser("solve", help="solve a problem JSON")
    p.add_argument("--problem", required=True)
    p.add_argument("--max-iter", type=_count, default=sdpmod.MAX_ITER)
    p.add_argument("--feas-tol", type=_tolerance, default=sdpmod.FEAS_TOL)
    p.add_argument("--dump", action="store_true", help="echo the problem next to the solution")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sdp_solve)

    # quasireal
    g = sub.add_parser("quasireal", help="quasi-realizations and cone checks")
    gs = g.add_subparsers(dest="cmd", required=True)
    p = gs.add_parser("prob", help="word probability")
    p.add_argument("--realization", required=True)
    p.add_argument("--word", required=True,
                   help="symbols, concatenated or comma-separated")
    p.add_argument("--out")
    p.set_defaults(func=cmd_quasireal_prob)
    p = gs.add_parser("check", help="positive-realization report")
    p.add_argument("--realization", required=True)
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    p.add_argument("--out")
    p.set_defaults(func=cmd_quasireal_check)
    p = gs.add_parser("cone-check", help="verify the three cone conditions")
    p.add_argument("--realization", required=True)
    p.add_argument("--cone", required=True)
    p.add_argument("--tol", type=_tolerance, default=quasireal.CONE_TOL)
    p.add_argument("--out")
    p.set_defaults(func=cmd_quasireal_cone_check)

    # conesim
    g = sub.add_parser("conesim", help="settle/classify/kick simulation")
    gs = g.add_subparsers(dest="cmd", required=True)
    p = gs.add_parser("run", help="run a configured simulation")
    p.add_argument("--config", required=True)
    p.add_argument("--state", help="initial state JSON (default maximally mixed)")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", required=True, help="trajectory JSONL path")
    p.set_defaults(func=cmd_conesim_run)
    p = gs.add_parser("estimate", help="empirical process from a trajectory")
    p.add_argument("trajectory")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=cmd_conesim_estimate)

    # demo
    g = sub.add_parser("demo", help="worked examples")
    gs = g.add_subparsers(dest="cmd", required=True)
    p = gs.add_parser("bell", help="two Bell-basis mixtures: discriminate, then engineer")
    p.add_argument("--coeffs", help="a0,b0,d0,e0,a1,b1,d1,e1 superposition coefficients")
    p.add_argument("--s", help="s0,s1,s2 mixture weights for state 0")
    p.add_argument("--r", help="r0,r1,r2 mixture weights for state 1")
    p.add_argument("--out")
    p.set_defaults(func=cmd_demo_bell)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except engineer.ConstructionError as exc:
        _emit_error(str(exc), reason=exc.reason, details=exc.details)
        return EXIT_INFEASIBLE
    except (sdpmod.NumericalLimitError, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError; it is a numerical failure
        # inside a computation, never a fault of the input
        _emit_error(str(exc), reason="numerical-limit")
        return EXIT_NUMERICAL
    except ValueError as exc:
        _emit_error(str(exc), reason="validation")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
