import argparse
import ast
import csv
import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conekit import channel as chan
from conekit import cli, engineer, linops, quasireal, sdp as sdpmod
from conekit.cli import main

from conftest import basis_proj, rotation

DATA = Path(__file__).parent / "data"


@pytest.fixture
def workdir(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)
    return tmp_path, write


def qutrit_choi_obj():
    # the qutrit dephasing channel: the separable core of |0><0| and |1><1|,
    # completed by B = |2><2| (w = 0, which engineer rejects as B is fixed too)
    spec = engineer.SeparableMultiSpec.from_states(
        [basis_proj(0, 3), basis_proj(1, 3)], b=basis_proj(2, 3)
    )
    return chan.choi_to_json(spec.channel)


def one_by_one_problem():
    eye = linops.matrix_to_json(np.eye(1))
    return {"n": 1, "objective": eye, "constraints": [{"a": eye, "b": 1.0}]}


def problem_with_b(b_text: str) -> str:
    """The 1 x 1 problem's JSON text with its one b written as ``b_text``."""
    obj = dict(one_by_one_problem(), constraints=[{"a": linops.matrix_to_json(np.eye(1)),
                                                   "b": "B"}])
    return json.dumps(obj).replace('"b": "B"', '"b": ' + b_text)


def orthogonal_pair_problem(rotated):
    """The fixed-point SDP of |0><0| and |1><1|, whose data are diagonal, or
    the same problem rotated by Q (x) Q, whose data are not: the solver's
    failures must show in either basis."""
    prob = sdpmod.assemble_fixed_point_constraints([basis_proj(0, 2), basis_proj(1, 2)])
    if not rotated:
        return prob
    q = np.kron(rotation(0.3), rotation(0.3))
    return sdpmod.SdpProblem(n=prob.n, objective=q @ prob.objective @ q.T,
                             constraint_ops=q @ prob.constraint_ops @ q.T,
                             constraint_vals=prob.constraint_vals)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestChannelCommands:
    def test_check(self, workdir, capsys):
        _, write = workdir
        path = write("c.json", qutrit_choi_obj())
        code, out, _ = run_cli(capsys, "channel", "check", "--choi", path)
        assert code == 0
        rep = json.loads(out)
        assert rep["cp"] and rep["tp"]

    def test_fixed_points_json_and_csv(self, workdir, capsys):
        _, write = workdir
        path = write("c.json", qutrit_choi_obj())
        code, out, _ = run_cli(capsys, "channel", "fixed-points", "--choi", path)
        assert code == 0
        rep = json.loads(out)
        assert len(rep["states"]) == 3
        assert max(rep["residuals"]) < 1e-9
        # the qutrit dephasing channel: nine eigenvalues, three ones and six zeros
        assert rep["peripheral_spectrum"] == [[1.0, 0.0]] * 3
        assert rep["decay_modulus"] == 0.0
        code, out, _ = run_cli(capsys, "channel", "fixed-points", "--choi", path,
                               "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("state,re0,im0")
        assert len(lines) == 4

    def test_fixed_points_csv_to_a_file(self, workdir, capsys):
        tmp, write = workdir
        path = write("c.json", qutrit_choi_obj())
        out_path = tmp / "fps.csv"
        code, out, _ = run_cli(capsys, "channel", "fixed-points", "--choi", path,
                               "--format", "csv", "--out", str(out_path))
        assert code == 0 and out == ""
        rows = list(csv.reader(out_path.read_text().splitlines()))
        assert rows[0] == ["state"] + [f"{p}{i}" for i in range(9) for p in ("re", "im")]
        # the qutrit dephasing channel fixes the three basis projectors, one a row
        assert [int(r[0]) for r in rows[1:]] == [0, 1, 2]
        for i, r in enumerate(rows[1:]):
            state = np.array(r[1::2], dtype=float) + 1j * np.array(r[2::2], dtype=float)
            assert np.abs(state.reshape(3, 3) - basis_proj(i, 3)).max() <= 1e-12

    def test_iterate(self, workdir, capsys):
        _, write = workdir
        cpath = write("c.json", qutrit_choi_obj())
        spath = write("rho.json", linops.matrix_to_json(basis_proj(0, 3)))
        code, out, _ = run_cli(capsys, "channel", "iterate", "--choi", cpath,
                               "--state", spath, "-n", "4")
        assert code == 0
        states = json.loads(out)["states"]
        assert len(states) == 4

    def test_iterate_csv(self, workdir, capsys):
        _, write = workdir
        cpath = write("c.json", qutrit_choi_obj())
        spath = write("rho.json", linops.matrix_to_json(np.eye(3) / 3))
        code, out, _ = run_cli(capsys, "channel", "iterate", "--choi", cpath,
                               "--state", spath, "-n", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("step,re0,im0")
        assert len(lines) == 4
        step, *values = lines[1].split(",")
        assert step == "1"
        # the dephasing channel keeps I/3: re, im interleaved, diagonal 1/3
        rho = np.array(values[0::2], dtype=float) + 1j * np.array(values[1::2], dtype=float)
        assert np.abs(rho.reshape(3, 3) - np.eye(3) / 3).max() < 1e-12

    @pytest.mark.parametrize("argv", [
        lambda tmp, write: ["channel", "check", "--choi", write("bad.json", "{not json")],
        lambda tmp, write: ["conesim", "run", "--seed", "3", "--config", write("cfg.json", "[]"),
                            "--out", str(tmp / "t.jsonl")],
        lambda tmp, write: ["conesim", "estimate", write("t.jsonl", "{}\n")],
        lambda tmp, write: ["conesim", "estimate", str(tmp / "missing.jsonl")],
        lambda tmp, write: ["sdp", "solve", "--problem", write("p.json", json.dumps({
            "n": 1, "objective": linops.matrix_to_json(np.eye(1)), "constraints": [{"b": 1.0}],
        }))],
        lambda tmp, write: ["sdp", "solve", "--problem", write("p.json", json.dumps(
            dict(one_by_one_problem(), n=[1])))],
        lambda tmp, write: ["sdp", "solve", "--problem", write("p.json", json.dumps(
            dict(one_by_one_problem(), constraints=[{"a": linops.matrix_to_json(np.eye(1)),
                                                     "b": None}])))],
        lambda tmp, write: ["channel", "check", "--choi", write("c.json", json.dumps(
            dict(qutrit_choi_obj(), rows=[2])))],
        lambda tmp, write: ["quasireal", "check", "--realization", write("q.json", json.dumps({
            "dim": 1, "alphabet": 5, "D": {}, "pi": [1.0], "tau": [1.0],
        }))],
        lambda tmp, write: ["conesim", "run", "--out", str(tmp / "t.jsonl"), "--config",
                            write("cfg.json", json.dumps({
                                "channel": qutrit_choi_obj(), "kick": {"policy": "haar"},
                                "n_iter": [5], "n_rounds": 1,
                            }))],
        lambda tmp, write: ["conesim", "run", "--out", str(tmp / "t.jsonl"), "--config",
                            write("cfg.json", json.dumps({
                                "channel": qutrit_choi_obj(),
                                "kick": {"policy": "depolarizing", "strength": None},
                                "n_iter": 5, "n_rounds": 1,
                            }))],
        lambda tmp, write: ["quasireal", "check", "--realization", write("q.json", json.dumps({
            "dim": 1, "alphabet": ["0"], "D": {"0": [[1.0]]}, "pi": {"0": 1.0}, "tau": [1.0],
        }))],
        lambda tmp, write: ["quasireal", "cone-check", "--cone", write("c.json", json.dumps({
            "generators": {"0": 1.0}})), "--realization", write("q.json", json.dumps({
                "dim": 1, "alphabet": ["0"], "D": {"0": [[1.0]]}, "pi": [1.0], "tau": [1.0],
            }))],
        lambda tmp, write: ["channel", "check", "--choi", write("c.json", json.dumps(
            qutrit_choi_obj())), "--out", str(tmp / "no-such-dir" / "x.json")],
        lambda tmp, write: ["channel", "fixed-points", "--format", "csv", "--choi",
                            write("c.json", json.dumps(qutrit_choi_obj())),
                            "--out", str(tmp / "no-such-dir" / "x.csv")],
        lambda tmp, write: ["conesim", "run", "--out", str(tmp / "no-such-dir" / "t.jsonl"),
                            "--config", write("cfg.json", json.dumps({
                                "channel": qutrit_choi_obj(), "kick": {"policy": "haar"},
                                "n_iter": 5, "n_rounds": 1,
                            }))],
        # X conjugation has the peripheral eigenvalue -1: its iterates never settle
        lambda tmp, write: ["conesim", "run", "--out", str(tmp / "t.jsonl"), "--config",
                            write("cfg.json", json.dumps({
                                "channel": chan.choi_to_json(chan.unitary_channel(
                                    np.array([[0.0, 1.0], [1.0, 0.0]]))),
                                "kick": {"policy": "haar"}, "n_iter": 2000, "n_rounds": 1,
                            }))],
        lambda tmp, write: ["channel", "check", "--choi", write("c.json", json.dumps(
            qutrit_choi_obj())), "--psd-tol", "nan"],
        lambda tmp, write: ["channel", "check", "--choi", write("c.json", json.dumps(
            qutrit_choi_obj())), "--tp-tol", "0"],
        lambda tmp, write: ["channel", "fixed-points", "--choi", write("c.json", json.dumps(
            qutrit_choi_obj())), "--tol", "nan"],
        lambda tmp, write: ["channel", "iterate", "--choi", write("c.json", json.dumps(
            qutrit_choi_obj())), "--state", write("rho.json", json.dumps(
                linops.matrix_to_json(np.eye(3) / 3))), "-n", "2", "--stop-tol", "inf"],
        lambda tmp, write: ["sdp", "solve", "--problem", write("p.json", json.dumps(
            one_by_one_problem())), "--feas-tol", "-1"],
        lambda tmp, write: ["sdp", "solve", "--problem", write("p.json", json.dumps(
            one_by_one_problem())), "--max-iter", "0"],
        lambda tmp, write: ["quasireal", "check", "--realization", "q.json", "--tol", "abc"],
        lambda tmp, write: ["channel", "check"],
        lambda tmp, write: ["channel", "no-such-command"],
        # 1 x 1 Choi matrices whose dimension fields truncate to 1
        lambda tmp, write: ["channel", "check", "--choi", write("c.json", json.dumps(
            dict(json.loads(CHOI_1 % "1.0"), rows=1.9)))],
        lambda tmp, write: ["channel", "check", "--choi", write("c.json", json.dumps(
            dict(json.loads(CHOI_1 % "1.0"), d_in=True)))],
        lambda tmp, write: ["sdp", "solve", "--problem", write("p.json", json.dumps(
            dict(one_by_one_problem(), n=1.9)))],
        lambda tmp, write: ["quasireal", "check", "--realization", write("q.json", json.dumps({
            "dim": True, "alphabet": ["0"], "D": {"0": [[1.0]]}, "pi": [1.0], "tau": [1.0],
        }))],
        lambda tmp, write: ["engineer", "separable", "--sigma", write("s.json", json.dumps(
            linops.matrix_to_json(np.eye(2) / 2))), "--b", write("b.json", json.dumps(
                linops.matrix_to_json(np.eye(3) / 3)))],
        lambda tmp, write: ["engineer", "separable", "--sigma", write("s.json", json.dumps(
            linops.matrix_to_json(np.eye(2) / 2))), "--b", write("b.json", json.dumps(
                linops.matrix_to_json(np.eye(1))))],
        lambda tmp, write: ["engineer", "separable", "--sigma", write("s0.json", json.dumps(
            linops.matrix_to_json(basis_proj(0, 2)))), "--sigma", write("s1.json", json.dumps(
                linops.matrix_to_json(basis_proj(1, 3))))],
        lambda tmp, write: ["engineer", "single", "--sigma", write("s.json", json.dumps(
            linops.matrix_to_json(np.eye(2) / 2))), "--b", write("b.json", json.dumps(
                linops.matrix_to_json(np.eye(3) / 3)))],
        *[lambda tmp, write, text=text: ["sdp", "solve", "--problem",
                                         write("p.json", problem_with_b(text))]
          for text in ("true", '"2"', "NaN", '"nan"', "1e400")],
        # the core is a closed form, with no solver tolerance to set
        lambda tmp, write: ["engineer", "sdp", "--sigma", write("s.json", json.dumps(
            linops.matrix_to_json(np.diag([0.7, 0.3])))), "--feas-tol", "1e-2"],
    ], ids=["invalid-json", "config-list", "empty-round", "missing-trajectory",
            "constraint-without-a", "n-list", "b-null", "rows-list", "alphabet-int",
            "n-iter-list", "strength-null", "pi-object", "generators-object",
            "check-out-unwritable", "fixed-points-csv-out-unwritable",
            "run-out-unwritable", "channel-never-settles", "psd-tol-nan", "tp-tol-zero",
            "fixed-points-tol-nan", "stop-tol-inf", "feas-tol-negative", "max-iter-zero",
            "tol-not-a-number", "check-without-choi", "unknown-command", "rows-fraction",
            "d-in-bool", "n-fraction", "dim-bool", "separable-b-mismatch",
            "separable-b-one-by-one", "separable-state-mismatch", "single-b-mismatch",
            "b-true", "b-string", "b-nan", "b-string-nan", "b-past-float-range",
            "engineer-sdp-feas-tol"])
    def test_malformed_input_is_validation_error(self, tmp_path, capsys, argv):
        def write(name, text):
            (tmp_path / name).write_text(text)
            return str(tmp_path / name)
        code, _, err = run_cli(capsys, *argv(tmp_path, write))
        assert code == 2
        payload = json.loads(err)
        assert payload["reason"] == "validation"
        # the message is the program's own, not numpy's
        assert "broadcast" not in payload["error"] and "gufunc" not in payload["error"]


class TestEngineerCommands:
    def test_single_with_report(self, workdir, capsys):
        _, write = workdir
        spath = write("s.json", linops.matrix_to_json(basis_proj(0, 2)))
        bpath = write("b.json", linops.matrix_to_json(np.eye(2) / 2))
        code, out, _ = run_cli(capsys, "engineer", "single", "--sigma", spath,
                               "--b", bpath, "--report")
        assert code == 0
        rep = json.loads(out)
        assert rep["report"]["cp"] and rep["report"]["tp"]
        c = chan.choi_from_json(rep["channel"])
        assert chan.is_cptp(c).cp

    def test_single_invalid_pair_exits_3(self, workdir, capsys):
        # w = 0 leaves B fixed; w = 2 gives the eigenvalue -1
        _, write = workdir
        for sigma, b, reason in ((basis_proj(0, 2), basis_proj(1, 2), "decay-weight-zero"),
                                 (np.eye(2) / 2, basis_proj(0, 2), "decay-weight-too-large")):
            spath = write("s.json", linops.matrix_to_json(sigma))
            bpath = write("b.json", linops.matrix_to_json(b))
            code, _, err = run_cli(capsys, "engineer", "single", "--sigma", spath, "--b", bpath)
            assert code == 3
            assert json.loads(err)["reason"] == reason

    def test_single_decays_past_unit_weight(self, workdir, capsys):
        # sigma = diag(0.7, 0.3) with B = |0><0|: w = 1/0.7, eigenvalue 1 - w = -0.43
        _, write = workdir
        sigma = np.diag([0.7, 0.3])
        spath = write("s.json", linops.matrix_to_json(sigma))
        bpath = write("b.json", linops.matrix_to_json(basis_proj(0, 2)))
        code, out, _ = run_cli(capsys, "engineer", "single", "--sigma", spath, "--b", bpath)
        assert code == 0
        c = chan.choi_from_json(json.loads(out)["channel"])
        assert c.cptp.cp and c.cptp.tp
        assert np.abs(chan.apply(c, sigma) - sigma).max() < 1e-12

    def test_single_report_gives_the_decay_weight(self, workdir, capsys):
        # the rule tests w = <v|B|v> / lambda_max = 1/0.7; the channel's
        # eigenvalue off sigma is 1 - w, whose modulus is the decay modulus
        _, write = workdir
        spath = write("s.json", linops.matrix_to_json(np.diag([0.7, 0.3])))
        bpath = write("b.json", linops.matrix_to_json(basis_proj(0, 2)))
        code, out, _ = run_cli(capsys, "engineer", "single", "--sigma", spath, "--b", bpath,
                               "--report")
        assert code == 0
        rep = json.loads(out)["report"]
        assert "overlap_margin" not in rep
        assert abs(rep["b_weight"] - 1 / 0.7) < 1e-12
        assert abs(rep["decay_modulus"] - (1 / 0.7 - 1)) < 1e-12
        assert rep["peripheral_spectrum"] == [[1.0, 0.0]]
        c = chan.choi_from_json(json.loads(out)["channel"])
        off_sigma = [z for z in np.linalg.eigvals(c.superop) if abs(z - 1) > 1e-9 and abs(z) > 1e-9]
        assert np.allclose(off_sigma, 1 - rep["b_weight"], atol=1e-12)

    @pytest.mark.parametrize("argv", [
        ["engineer", "separable", "--report"],
        ["engineer", "single", "--report"],
        ["demo", "bell", "--s", "1,0,0", "--r", "1,0,0"],
    ], ids=["separable", "single", "bell"])
    def test_report_builds_the_channel_once(self, workdir, capsys, monkeypatch, argv):
        _, write = workdir
        calls = []
        complete = engineer._complete

        def counted(*args):
            calls.append(args)
            return complete(*args)

        monkeypatch.setattr(engineer, "_complete", counted)
        if argv[0] == "engineer":
            argv = argv + ["--sigma", write("s.json", linops.matrix_to_json(np.diag([0.7, 0.3])))]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(calls) == 1

    def test_separable_with_report(self, workdir, capsys):
        _, write = workdir
        s0 = write("s0.json", linops.matrix_to_json(basis_proj(0, 3)))
        s1 = write("s1.json", linops.matrix_to_json(basis_proj(1, 3)))
        code, out, _ = run_cli(capsys, "engineer", "separable", "--sigma", s0, "--sigma", s1,
                               "--report")
        assert code == 0
        rep = json.loads(out)
        assert rep["report"]["cp"] and rep["report"]["tp"]
        assert chan.is_cptp(chan.choi_from_json(rep["channel"])).cp
        cross = np.array(rep["report"]["cross_overlaps"])
        assert cross.shape == (2, 2)
        assert abs(cross[0, 1]) <= 1e-12 and abs(cross[1, 0]) <= 1e-12
        assert max(rep["report"]["fixed_point_residuals"]) < 1e-12

    def test_separable_trace_error_within_tolerance_exits_0(self, workdir, capsys):
        _, write = workdir
        s0 = write("s0.json", linops.matrix_to_json(np.diag([1 - 5e-8, 0.0])))
        s1 = write("s1.json", linops.matrix_to_json(np.diag([0.0, 1.0])))
        code, out, _ = run_cli(capsys, "engineer", "separable", "--sigma", s0, "--sigma", s1,
                               "--report")
        assert code == 0
        rep = json.loads(out)["report"]
        assert abs(rep["b_weight"] - 1.0) <= 1e-12  # tr_H1 of the core is I: B never acts
        assert max(rep["fixed_point_residuals"]) < 1e-12

    def test_separable_infeasible_exits_3(self, workdir, capsys):
        _, write = workdir
        s0 = write("s0.json", linops.matrix_to_json(basis_proj(0, 2)))
        s1 = write("s1.json", linops.matrix_to_json(np.eye(2) / 2))
        code, _, err = run_cli(capsys, "engineer", "separable", "--sigma", s0, "--sigma", s1)
        assert code == 3
        payload = json.loads(err)
        assert payload["reason"] == "not-unambiguously-discriminable"
        assert payload["details"]["failing_index"] == 0

    def test_channel_that_is_not_cp_exits_3(self, workdir, capsys):
        # both meet the three separable conditions, yet the channel's Choi
        # matrix has a negative eigenvalue: two real pure qutrit states, and
        # sigma = diag(0.5, 0.3, 0.2) with B = diag(0.5, 0, 0.5), whose
        # Choi block on input |0> is 2 sigma - B = diag(0.5, 0.6, -0.1)
        _, write = workdir
        kets = np.random.default_rng(0).standard_normal((2, 3))
        pure = [write(f"p{i}.json", linops.matrix_to_json(linops.ket_projector(v / np.linalg.norm(v))))
                for i, v in enumerate(kets)]
        sigma = write("s.json", linops.matrix_to_json(np.diag([0.5, 0.3, 0.2])))
        b = write("b.json", linops.matrix_to_json(np.diag([0.5, 0.0, 0.5])))
        for argv, min_eig, tol in ((["separable", "--sigma", pure[0], "--sigma", pure[1]], -0.873, 5e-4),
                                   (["single", "--sigma", sigma, "--b", b], -0.1, 1e-12)):
            for report in ([], ["--report"]):
                code, out, err = run_cli(capsys, "engineer", *argv, *report)
                assert code == 3 and out == ""
                payload = json.loads(err)
                assert payload["reason"] == "not-completely-positive"
                assert list(payload["details"]) == ["choi_min_eig"]
                assert abs(payload["details"]["choi_min_eig"] - min_eig) <= tol

    def test_sdp_build(self, workdir, capsys):
        _, write = workdir
        s0 = write("s0.json", linops.matrix_to_json(basis_proj(0, 2)))
        s1 = write("s1.json", linops.matrix_to_json(basis_proj(1, 2)))
        code, out, _ = run_cli(capsys, "engineer", "sdp", "--sigma", s0, "--sigma", s1)
        assert code == 0
        rep = json.loads(out)
        assert rep["cp"] and rep["tp"]
        assert abs(rep["objective_trace"] - 2.0) < 1e-6
        assert max(rep["fixed_point_residuals"]) < 1e-7

    @pytest.mark.parametrize("states, iterations", [
        ([np.diag([0.7, 0.3])], 6),
        ([np.diag([0.7, 0.3]), linops.ket_projector(np.array([1.0, 1.0]) / np.sqrt(2))], 0),
        ([basis_proj(0, 2), basis_proj(1, 2)], 0),
    ], ids=["one-state", "identity-forced", "interior-point"])
    def test_sdp_names_the_route_to_the_core(self, workdir, capsys, states, iterations):
        # one route for every set: the analytic centre, whose Newton steps
        # are the iterations (none on blocks of m_k = 1, here the identity
        # and the dephasing of the orthogonal pair)
        _, write = workdir
        argv = [a for i, s in enumerate(states)
                for a in ("--sigma", write(f"s{i}.json", linops.matrix_to_json(s)))]
        code, out, _ = run_cli(capsys, "engineer", "sdp", *argv)
        assert code == 0
        rep = json.loads(out)
        assert rep["solver_message"] == engineer.ANALYTIC_CENTRE
        assert (rep["solver_status"], rep["solver_iterations"]) == ("optimal", iterations)

    @pytest.mark.parametrize("sigma", [np.diag([0.7, 0.3]), np.diag([0.5, 0.3, 0.2])],
                             ids=["qubit", "qutrit"])
    def test_sdp_channel_ignores_a_repeated_state(self, workdir, capsys, sigma):
        # sigma listed twice forces what sigma alone does, so the core is the
        # same: the centre depends on the forced algebra and on rho only
        _, write = workdir
        path = write("s.json", linops.matrix_to_json(sigma))
        outs = []
        for argv in (["--sigma", path], ["--sigma", path, "--sigma", path]):
            code, out, _ = run_cli(capsys, "engineer", "sdp", *argv)
            assert code == 0
            outs.append(json.loads(out))
        assert outs[1]["channel"] == outs[0]["channel"]
        assert outs[1]["fixed_point_residuals"] == 2 * outs[0]["fixed_point_residuals"]

    @pytest.mark.parametrize("states", [
        [np.diag([0.7, 0.3])],
        [np.diag([0.7, 0.3]), linops.ket_projector(np.array([1.0, 1.0]) / np.sqrt(2))],
        [basis_proj(0, 3), basis_proj(1, 3), np.eye(3) / 3],
    ], ids=["one-state", "identity-forced", "interior-point"])
    @pytest.mark.parametrize("with_b", [False, True], ids=["no-b", "b"])
    def test_sdp_validates_each_state_once(self, workdir, capsys, states, with_b):
        # build_via_sdp checks its input once and hands the validated stack
        # on; the compressed states it solves for are not checked again
        _, write = workdir
        argv = [a for i, s in enumerate(states)
                for a in ("--sigma", write(f"s{i}.json", linops.matrix_to_json(s)))]
        d = states[0].shape[0]
        if with_b:
            argv += ["--b", write("b.json", linops.matrix_to_json(np.eye(d) / d))]
        with mock.patch.object(linops, "check_density", wraps=linops.check_density) as check:
            code, _, _ = run_cli(capsys, "engineer", "sdp", *argv)
        assert code == 0
        assert check.call_count == len(states) + with_b


class TestSdpCommand:
    def test_solve_optimal(self, workdir, capsys):
        _, write = workdir
        prob = sdpmod.assemble_fixed_point_constraints([basis_proj(0, 2), basis_proj(1, 2)])
        ppath = write("p.json", sdpmod.problem_to_json(prob))
        code, out, _ = run_cli(capsys, "sdp", "solve", "--problem", ppath, "--dump")
        assert code == 0
        payload = json.loads(out)
        assert payload["solution"]["status"] == "optimal"
        assert abs(payload["solution"]["objective_value"] - 2.0) < 1e-6
        assert payload["solution"]["maximized_value"] == -payload["solution"]["objective_value"]
        # real states: 6 real symmetric fixing rows, 3 trace rows
        assert len(payload["problem"]["constraints"]) == 9

    def test_solve_infeasible_exits_3(self, workdir, capsys):
        _, write = workdir
        eye = linops.matrix_to_json(np.eye(2))
        obj = {"n": 2, "objective": eye,
               "constraints": [{"a": eye, "b": 1.0}, {"a": eye, "b": 2.0}]}
        ppath = write("p.json", obj)
        code, out, err = run_cli(capsys, "sdp", "solve", "--problem", ppath)
        assert code == 3
        assert json.loads(out)["status"] == "infeasible"
        assert json.loads(err)["reason"] == "sdp-infeasible"

    def test_solve_numerical_limit_exits_4(self, workdir, capsys):
        rng = np.random.default_rng(0)
        g = rng.standard_normal((5, 5))
        x0 = g @ g.T
        ops, vals = [], []
        for _ in range(6):
            h = rng.standard_normal((5, 5))
            a = (h + h.T) / 2
            ops.append(a)
            vals.append(float(np.trace(a @ x0)))
        _, write = workdir
        obj = {"n": 5, "objective": linops.matrix_to_json(np.eye(5)),
               "constraints": [{"a": linops.matrix_to_json(a), "b": b}
                               for a, b in zip(ops, vals)]}
        ppath = write("p.json", obj)
        code, out, err = run_cli(capsys, "sdp", "solve", "--problem", ppath, "--max-iter", "1")
        assert code == 4
        assert json.loads(out)["status"] == "numerical-limit"
        assert json.loads(err)["reason"] == "numerical-limit"

    @pytest.mark.parametrize("scale", [1e100, 1e152, 1e160])
    def test_badly_scaled_rows_solve(self, workdir, capsys, scale):
        # finite rows whose raw products overflow (the Gram matrix past
        # 1e154): the IPM solves the rows scaled to unit norm, so X = I is found
        _, write = workdir
        obj = {"n": 2, "objective": linops.matrix_to_json(np.eye(2)), "constraints": [
            {"a": linops.matrix_to_json(np.diag([scale, 0.0])), "b": scale},
            {"a": linops.matrix_to_json(np.diag([0.0, 1.0])), "b": 1.0}]}
        code, out, _ = run_cli(capsys, "sdp", "solve", "--problem", write("p.json", obj))
        assert code == 0
        sol = json.loads(out)
        assert sol["status"] == "optimal"
        assert abs(sol["objective_value"] - 2.0) < 1e-7
        assert np.abs(linops.matrix_from_json(sol["x"]) - np.eye(2)).max() < 1e-6

    @pytest.mark.parametrize("objective, code, status", [
        (np.eye(2), 0, "optimal"), (np.diag([1.0, -1.0]), 4, "numerical-limit"),
    ], ids=["psd-objective", "indefinite-objective"])
    def test_all_zero_constraints_never_exit_2(self, workdir, capsys, objective, code, status):
        # rank 0 once the zero rows are dropped: a valid problem, so never validation
        _, write = workdir
        zero = linops.matrix_to_json(np.zeros((2, 2)))
        obj = {"n": 2, "objective": linops.matrix_to_json(objective),
               "constraints": [{"a": zero, "b": 0}]}
        got, out, err = run_cli(capsys, "sdp", "solve", "--problem", write("p.json", obj))
        assert got == code
        assert json.loads(out)["status"] == status
        if code:
            payload = json.loads(err)
            assert payload["reason"] == "numerical-limit"
            assert "unbounded below" in payload["error"]

    def test_nt_scaling_breakdown_exits_4_with_a_solution(self, workdir, capsys):
        # the NT scaling breaks down on the way to X = diag(1, 1e250): stdout
        # still carries the numerical-limit solution
        _, write = workdir
        obj = {"n": 2, "objective": linops.matrix_to_json(np.eye(2)), "constraints": [
            {"a": linops.matrix_to_json(np.diag([1e100, 0.0])), "b": 1e100},
            {"a": linops.matrix_to_json(np.diag([0.0, 1.0])), "b": 1e250}]}
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, err = run_cli(capsys, "sdp", "solve", "--problem", write("p.json", obj))
        assert code == 4
        assert json.loads(out)["message"] == "scaling matrix became singular"
        assert json.loads(err)["reason"] == "numerical-limit"

    @pytest.mark.parametrize("theta", [0.3, 0.7, 1.1])
    def test_nt_scaling_breakdown_on_rotated_rows_exits_4(self, workdir, capsys, theta):
        # the same witness in a rotated basis breaks down after as many iterations
        _, write = workdir
        q = rotation(theta)
        obj = {"n": 2, "objective": linops.matrix_to_json(np.eye(2)), "constraints": [
            {"a": linops.matrix_to_json(q @ np.diag([1e100, 0.0]) @ q.T), "b": 1e100},
            {"a": linops.matrix_to_json(q @ np.diag([0.0, 1.0]) @ q.T), "b": 1e250}]}
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, err = run_cli(capsys, "sdp", "solve", "--problem", write("p.json", obj))
        assert code == 4
        sol = json.loads(out)
        assert sol["message"] == "scaling matrix became singular"
        assert sol["iterations"] == 11
        assert json.loads(err)["reason"] == "numerical-limit"

    @pytest.mark.parametrize("command", ["sdp-solve", "sdp-solve-rotated", "demo-bell"])
    def test_linalg_error_inside_solve_exits_4(self, workdir, capsys, monkeypatch, command):
        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("singular matrix")

        if command == "demo-bell":
            # its core is a closed form: the error comes from the SVD that
            # finds the commutant of the forced algebra
            monkeypatch.setattr(np.linalg, "svd", broken)
            argv = ["demo", "bell"]
        else:
            monkeypatch.setattr(sdpmod, "_max_step", broken)
            _, write = workdir
            prob = orthogonal_pair_problem(rotated=command == "sdp-solve-rotated")
            argv = ["sdp", "solve", "--problem", write("p.json", sdpmod.problem_to_json(prob))]
        code, _, err = run_cli(capsys, *argv)
        assert code == 4
        assert json.loads(err)["reason"] == "numerical-limit"

    @pytest.mark.parametrize("command", ["sdp-solve", "sdp-solve-rotated", "demo-bell"])
    def test_eigensolve_failure_exits_4(self, workdir, capsys, monkeypatch, command):
        def broken_eigh(*args, **kwargs):
            raise np.linalg.LinAlgError("eigensolve failed (LAPACK info 3)")

        if command == "demo-bell":
            # no interior-point solve: the first eigensolve of demo bell fails
            monkeypatch.setattr(np.linalg, "eigh", broken_eigh)
            argv = ["demo", "bell"]
        else:
            monkeypatch.setattr(sdpmod, "_eigh", broken_eigh)
            _, write = workdir
            prob = orthogonal_pair_problem(rotated=command == "sdp-solve-rotated")
            argv = ["sdp", "solve", "--problem", write("p.json", sdpmod.problem_to_json(prob))]
        code, _, err = run_cli(capsys, *argv)
        assert code == 4
        payload = json.loads(err)
        assert payload["reason"] == "numerical-limit"
        assert "LAPACK info 3" in payload["error"]


class TestQuasirealCommands:
    def markov_obj(self):
        return {
            "dim": 2, "alphabet": ["0", "1"],
            "D": {"0": [[0.9, 0.0], [0.2, 0.0]], "1": [[0.0, 0.1], [0.0, 0.8]]},
            "pi": [2 / 3, 1 / 3], "tau": [1.0, 1.0],
        }

    def test_prob(self, workdir, capsys):
        _, write = workdir
        qpath = write("q.json", self.markov_obj())
        code, out, _ = run_cli(capsys, "quasireal", "prob", "--realization", qpath,
                               "--word", "01")
        assert code == 0
        assert abs(json.loads(out)["probability"] - 1 / 15) < 1e-12

    def test_prob_comma_separated(self, workdir, capsys):
        _, write = workdir
        qpath = write("q.json", self.markov_obj())
        code, out, _ = run_cli(capsys, "quasireal", "prob", "--realization", qpath,
                               "--word", "0,1")
        assert code == 0
        assert abs(json.loads(out)["probability"] - 1 / 15) < 1e-12

    def test_check(self, workdir, capsys):
        _, write = workdir
        qpath = write("q.json", self.markov_obj())
        code, out, _ = run_cli(capsys, "quasireal", "check", "--realization", qpath)
        assert code == 0
        assert json.loads(out)["positive_realization"]

    def test_cone_check(self, workdir, capsys):
        _, write = workdir
        qpath = write("q.json", self.markov_obj())
        cpath = write("cone.json", {"generators": [[1.0, 0.0], [0.0, 1.0]]})
        code, out, _ = run_cli(capsys, "quasireal", "cone-check",
                               "--realization", qpath, "--cone", cpath)
        assert code == 0
        assert json.loads(out)["all_conditions"]

    def test_cone_check_nnls_failure_exits_4(self, workdir, capsys, monkeypatch):
        # a rotation maps e2 out of the orthant, so NNLS decides that image;
        # scipy's iteration cap is a numerical limit, not a traceback
        import scipy.optimize

        def capped(a, b):
            raise RuntimeError("Maximum number of iterations reached.")

        monkeypatch.setattr(scipy.optimize, "nnls", capped)
        _, write = workdir
        qpath = write("q.json", {"dim": 2, "alphabet": ["0"], "D": {"0": [[0.0, -1.0], [1.0, 0.0]]},
                                 "pi": [1.0, 0.0], "tau": [1.0, 1.0]})
        cpath = write("cone.json", {"generators": np.eye(2).tolist()})
        code, out, err = run_cli(capsys, "quasireal", "cone-check",
                                 "--realization", qpath, "--cone", cpath)
        assert code == 4 and out == ""
        [line] = err.splitlines()
        payload = json.loads(line)
        assert payload["reason"] == "numerical-limit"
        assert "Maximum number of iterations" in payload["error"]

    def test_cone_check_with_a_line_and_a_tiny_ray(self, workdir, capsys):
        # tau is 3.254e85 from the cone of a line and a ray 1e-139 of its scale
        _, write = workdir
        qpath = write("q.json", {"dim": 3, "alphabet": ["0"], "D": {"0": np.eye(3).tolist()},
                                 "pi": [1.0, 1.0, 1.0], "tau": [-1.1545021420614381e+86, -2.5886764658173764e+84,
                                                                -3.6294794161509184e+85]})
        cpath = write("cone.json", {"generators": [
            [8861.552253776537, 2849.2020574726744, -451.17483652109047],
            [1.245584773513067e-139, 4.200104361619653e-140, -2.4046965128501786e-139],
            [-8861.552253776537, -2849.2020574726744, 451.17483652109047]]})
        code, out, _ = run_cli(capsys, "quasireal", "cone-check",
                               "--realization", qpath, "--cone", cpath)
        assert code == 0
        rep = json.loads(out)
        assert rep["tau_in_cone"] is False
        assert rep["tau_residual"] == pytest.approx(3.2542090788608119e85, rel=1e-12)

    def test_cone_check_with_a_line_at_large_scale(self, workdir, capsys):
        # a line along e1 at scale 1e15: pointedness is answered, not a crash
        _, write = workdir
        qpath = write("q.json", {"dim": 3, "alphabet": ["0"], "D": {"0": np.eye(3).tolist()},
                                 "pi": [1.0, 1.0, 1.0], "tau": [1.0, 1.0, 1.0]})
        cpath = write("cone.json", {"generators": [[1e15, 0, 0], [-1e15, 0, 0], [0, 1, 0],
                                                   [0, 0, 1], [1, 1, 1]]})
        code, out, _ = run_cli(capsys, "quasireal", "cone-check",
                               "--realization", qpath, "--cone", cpath)
        assert code == 0
        rep = json.loads(out)
        assert rep["pointed"] is False and rep["all_conditions"] is False
        assert rep["tau_in_cone"] and rep["maps_preserve_cone"]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_cone_check_with_tau_past_the_float_range(self, workdir, capsys, sign):
        # |tau| = 2.1e308 overflows; membership is decided on tau / 1.5e308
        _, write = workdir
        qpath = write("q.json", {"dim": 2, "alphabet": ["0"], "D": {"0": np.eye(2).tolist()},
                                 "pi": [1.0, 1.0], "tau": [sign * 1.5e308, sign * 1.5e308]})
        cpath = write("cone.json", {"generators": np.eye(2).tolist()})
        code, out, _ = run_cli(capsys, "quasireal", "cone-check",
                               "--realization", qpath, "--cone", cpath)
        assert code == 0
        rep = json.loads(out, parse_constant=pytest.fail)
        assert rep["tau_in_cone"] is (sign > 0) and rep["all_conditions"] is (sign > 0)
        assert rep["tau_residual"] == (0.0 if sign > 0 else None)

    def test_cone_check_min_dual_value_past_the_float_range(self, workdir, capsys):
        # g.pi = -1e320 overflows: no RuntimeWarning (an error under this
        # suite's filterwarnings), and null rather than -Infinity
        _, write = workdir
        qpath = write("q.json", {"dim": 2, "alphabet": ["0"], "D": {"0": np.eye(2).tolist()},
                                 "pi": [-1e160, 1.0], "tau": [1.0, 1.0]})
        cpath = write("cone.json", {"generators": [[1e160, 0.0], [0.0, 1.0]]})
        code, out, err = run_cli(capsys, "quasireal", "cone-check",
                                 "--realization", qpath, "--cone", cpath)
        assert (code, err) == (0, "")
        rep = json.loads(out, parse_constant=pytest.fail)
        assert rep["min_dual_value"] is None and rep["pi_in_dual"] is False

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_cone_check_with_map_image_past_the_float_range(self, workdir, capsys, sign):
        # D = diag(sign * 1e200, 1) maps the generator (1e200, 0) to sign * 1e400
        _, write = workdir
        qpath = write("q.json", {"dim": 2, "alphabet": ["0"],
                                 "D": {"0": [[sign * 1e200, 0.0], [0.0, 1.0]]},
                                 "pi": [1.0, 1.0], "tau": [1.0, 1.0]})
        cpath = write("cone.json", {"generators": [[1e200, 0.0], [0.0, 1.0]]})
        code, out, err = run_cli(capsys, "quasireal", "cone-check",
                                 "--realization", qpath, "--cone", cpath)
        assert (code, err) == (0, "")
        rep = json.loads(out, parse_constant=pytest.fail)
        assert rep["maps_preserve_cone"] is (sign > 0) and rep["all_conditions"] is (sign > 0)
        assert rep["worst_map_residual"] == (0.0 if sign > 0 else None)

    def test_unknown_symbol_exits_2(self, workdir, capsys):
        _, write = workdir
        qpath = write("q.json", self.markov_obj())
        code, _, err = run_cli(capsys, "quasireal", "prob", "--realization", qpath,
                               "--word", "02")
        assert code == 2
        assert json.loads(err)["reason"] == "validation"


class TestConesimCommands:
    def config_obj(self, seed=3, rounds=300):
        return {
            "channel": qutrit_choi_obj(),
            "kick": {"policy": "depolarizing", "strength": 0.5},
            "n_iter": 20, "n_rounds": rounds,
            "classify_tol": 0.67, "classify": "sample", "seed": seed,
        }

    def test_run_and_estimate(self, workdir, capsys):
        tmp, write = workdir
        cfg = write("sim.json", self.config_obj())
        traj_path = str(tmp / "traj.jsonl")
        code, out, _ = run_cli(capsys, "conesim", "run", "--config", cfg, "--out", traj_path)
        assert code == 0
        summary = json.loads(out)
        assert summary["rounds"] == 300 and summary["unclassified"] == 0
        assert summary["settle_steps"] == 1 and summary["unclassified_rounds"] == []
        assert 0.0 <= summary["max_residual"] < 1e-12
        with open(traj_path) as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
        assert len(lines) == 300
        keys = {"round", "symbol", "settle_steps", "weights", "residual"}
        assert set(lines[0]) == keys | {"fixed_points"}
        assert all(set(line) == keys for line in lines[1:])
        assert len(lines[0]["fixed_points"]) == summary["n_fixed_points"] == 3

        code, out, _ = run_cli(capsys, "conesim", "estimate", traj_path)
        assert code == 0
        proc = json.loads(out)
        assert proc["symbols"] == [0, 1, 2]
        t = np.array(proc["transition"])
        assert np.abs(t - ((0.5) * np.eye(3) + 0.5 / 3)).max() < 0.15

        code, out, _ = run_cli(capsys, "conesim", "estimate", traj_path, "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "from,to0,to1,to2"

    def test_run_from_given_state(self, workdir, capsys):
        tmp, write = workdir
        obj = dict(self.config_obj(rounds=5), classify="nearest")
        cfg = write("sim.json", obj)
        spath = write("rho.json", linops.matrix_to_json(basis_proj(1, 3)))
        traj_path = str(tmp / "traj.jsonl")
        code, out, _ = run_cli(capsys, "conesim", "run", "--config", cfg, "--state", spath,
                               "--out", traj_path)
        assert code == 0
        assert json.loads(out)["rounds"] == 5
        with open(traj_path) as fh:
            first = json.loads(fh.readline())
        # the dephasing channel fixes |1><1|, so round 0 settles where it
        # started: all its weight on fixed point 1
        assert np.abs(np.array(first["weights"]) - [0.0, 1.0, 0.0]).max() < 1e-12
        assert first["symbol"] == 1

    def test_run_kick_dimension_mismatch_is_validation_error(self, workdir, capsys):
        tmp, write = workdir
        obj = self.config_obj(rounds=5)
        obj["kick"] = {"policy": "fixed", "choi": chan.choi_to_json(chan.identity_channel(2))}
        cfg = write("sim.json", obj)
        code, _, err = run_cli(capsys, "conesim", "run", "--config", cfg,
                               "--out", str(tmp / "traj.jsonl"))
        assert code == 2
        assert json.loads(err)["reason"] == "validation"
        assert "kick channel is 2->2" in json.loads(err)["error"]

    def test_run_deterministic_output(self, workdir, capsys):
        tmp, write = workdir
        cfg = write("sim.json", self.config_obj(rounds=40))
        p1, p2 = str(tmp / "a.jsonl"), str(tmp / "b.jsonl")
        assert run_cli(capsys, "conesim", "run", "--config", cfg, "--out", p1)[0] == 0
        assert run_cli(capsys, "conesim", "run", "--config", cfg, "--out", p2)[0] == 0
        with open(p1) as f1, open(p2) as f2:
            assert f1.read() == f2.read()

    def test_seed_override_changes_symbols(self, workdir, capsys):
        tmp, write = workdir
        cfg = write("sim.json", self.config_obj(rounds=40))
        p1, p2 = str(tmp / "a.jsonl"), str(tmp / "b.jsonl")
        run_cli(capsys, "conesim", "run", "--config", cfg, "--out", p1)
        run_cli(capsys, "conesim", "run", "--config", cfg, "--out", p2, "--seed", "99")
        def sym(p):
            with open(p) as fh:
                return [json.loads(l)["symbol"] for l in fh if l.strip()]
        assert sym(p1) != sym(p2)

    def test_estimate_reads_trajectory_with_states(self, capsys):
        # written by the earlier format, whose lines also held settled_state
        # and post_kick_state; its estimate must not change (compact orjson text)
        path = str(DATA / "trajectory_with_states.jsonl")
        code, out, _ = run_cli(capsys, "conesim", "estimate", path)
        assert code == 0
        assert out == (
            '{"symbols":[0,1,2],"counts":[[4,0,1],[1,0,0],[0,2,3]],'
            '"transition":[[0.8,0.0,0.2],[1.0,0.0,0.0],[0.0,0.4,0.6]],'
            '"stationary":[0.5882352941176471,0.11764705882352937,0.2941176470588235]}\n'
        )
        code, out, _ = run_cli(capsys, "conesim", "estimate", path, "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["from,to0,to1,to2", "0,0.8,0.0,0.2", "1,1.0,0.0,0.0",
                                    "2,0.0,0.4,0.6"]

    def test_estimate_reads_minimal_lines(self, workdir, capsys):
        tmp, _ = workdir
        path = tmp / "t.jsonl"
        # a null symbol (an unclassified round) breaks the pairs on either side of it
        for symbols, counts in (([0, 1, 0, 1], [[0, 2], [1, 0]]),
                                ([0, None, 1, 0, 1], [[0, 1], [1, 0]])):
            path.write_text("".join(json.dumps({"round": i, "symbol": s, "settle_steps": 1}) + "\n"
                                    for i, s in enumerate(symbols)))
            code, out, _ = run_cli(capsys, "conesim", "estimate", str(path))
            assert code == 0
            assert json.loads(out)["counts"] == counts

    @pytest.mark.parametrize("edit", [
        lambda t: t[1].update(symbol=1.7),
        lambda t: t[1].update(symbol=True),
        lambda t: t[1].update(symbol=-3),
        lambda t: t[1].update(symbol="1"),
        lambda t: t[1].update(settle_steps=-5),
        lambda t: t[1].update(settle_steps=0),
        lambda t: t[1].update(round=1.5),
        lambda t: t.pop(1),
        lambda t: t.insert(0, t.pop(1)),
        lambda t: t[1].pop("settle_steps"),
    ], ids=["symbol-fraction", "symbol-bool", "symbol-negative", "symbol-string",
            "settle-steps-negative", "settle-steps-zero", "round-fraction", "round-dropped",
            "rounds-reordered", "settle-steps-missing"])
    def test_estimate_rejects_bad_line(self, workdir, capsys, edit):
        # lines the earlier format also reads, so each case checks the field alone
        tmp, _ = workdir
        with open(DATA / "trajectory_with_states.jsonl") as fh:
            lines = [json.loads(line) for line in fh]
        edit(lines)
        path = tmp / "t.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        code, _, err = run_cli(capsys, "conesim", "estimate", str(path))
        assert code == 2
        assert json.loads(err)["reason"] == "validation"

    @pytest.mark.parametrize("field, value", [
        ("n_rounds", 2.9), ("n_rounds", "5"), ("n_iter", True), ("n_iter", float("inf")),
        ("seed", -1), ("seed", 1.5), ("seed", False),
    ], ids=["n-rounds-fraction", "n-rounds-string", "n-iter-bool", "n-iter-inf",
            "seed-negative", "seed-fraction", "seed-bool"])
    def test_run_rejects_non_integer_config(self, workdir, capsys, field, value):
        tmp, write = workdir
        cfg = write("sim.json", dict(self.config_obj(rounds=5), **{field: value}))
        code, _, err = run_cli(capsys, "conesim", "run", "--config", cfg,
                               "--out", str(tmp / "t.jsonl"))
        assert code == 2
        assert json.loads(err)["reason"] == "validation"
        assert field in json.loads(err)["error"]

    def test_unknown_config_key_exits_2(self, workdir, capsys):
        tmp, write = workdir
        obj = self.config_obj()
        obj["extra"] = True
        cfg = write("sim.json", obj)
        code, _, err = run_cli(capsys, "conesim", "run", "--config", cfg,
                               "--out", str(tmp / "t.jsonl"))
        assert code == 2
        assert json.loads(err)["reason"] == "validation"

    def test_seed_past_the_integer_range_is_rejected(self, workdir, capsys):
        # 2**64 + 1 decodes as a float, which cannot tell which integer was written
        tmp, write = workdir
        cfg = write("sim.json", self.config_obj(seed=2 ** 64 + 1, rounds=5))
        code, _, err = run_cli(capsys, "conesim", "run", "--config", cfg,
                               "--out", str(tmp / "t.jsonl"))
        assert code == 2
        payload = json.loads(err)
        assert payload["reason"] == "validation"
        assert payload["error"].startswith("seed must be an integer")

    @pytest.mark.parametrize("seed", [2 ** 63, 2 ** 64 - 1])
    def test_large_seed_is_read_exactly(self, workdir, capsys, seed):
        tmp, write = workdir
        cfg = write("sim.json", self.config_obj(seed=seed, rounds=5))
        value = cli._load_json(cfg)["seed"]
        assert type(value) is int and value == seed
        # the same trajectory as the seed given exactly on the command line
        p1, p2 = str(tmp / "a.jsonl"), str(tmp / "b.jsonl")
        assert run_cli(capsys, "conesim", "run", "--config", cfg, "--out", p1)[0] == 0
        assert run_cli(capsys, "conesim", "run", "--config", write("s0.json", self.config_obj(
            seed=0, rounds=5)), "--seed", str(seed), "--out", p2)[0] == 0
        assert Path(p1).read_text() == Path(p2).read_text()


class TestDemoBell:
    def test_default_falls_back_to_sdp(self, capsys):
        code, out, _ = run_cli(capsys, "demo", "bell")
        assert code == 0
        rep = json.loads(out)
        assert rep["path"] == "sdp"
        assert not rep["discrimination"]["feasible"]
        assert rep["discrimination"]["failing_index"] == 1
        assert abs(rep["discrimination"]["detection_overlaps"][1]) <= 1e-10
        assert max(rep["fixed_point_residuals"]) <= 1e-7

    def test_orthogonal_weights_use_separable_path(self, capsys):
        code, out, _ = run_cli(capsys, "demo", "bell", "--s", "1,0,0", "--r", "1,0,0")
        assert code == 0
        rep = json.loads(out)
        assert rep["path"] == "separable"
        assert rep["conditions"]["cp"] and rep["conditions"]["tp"]
        assert max(rep["fixed_point_residuals"]) < 1e-9

    def test_zero_weights_rejected(self, capsys):
        code, _, err = run_cli(capsys, "demo", "bell", "--s", "0,0,0")
        assert code == 2
        assert json.loads(err)["reason"] == "validation"

    def test_unnormalized_coeffs_rejected(self, capsys):
        code, _, err = run_cli(capsys, "demo", "bell", "--coeffs", "2,0,0,1,1,0,0,1")
        assert code == 2
        assert "not normalized" in json.loads(err)["error"]

    def test_huge_coeffs_are_a_validation_error_without_warnings(self, capsys):
        # each ket's norm is the hypot of its two coefficients, so 1e200 is
        # reported as unnormalized with no overflow warning before the line
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "demo", "bell", "--coeffs", "1e200,0,0,1,1,0,0,1")
        assert code == 2 and out == ""
        [line] = err.splitlines()
        payload = json.loads(line)
        assert payload["reason"] == "validation"
        assert "ket v1_0 is not normalized (norm 1e+200)" in payload["error"]

    def test_generic_coeffs_still_infeasible(self, capsys):
        # rotated superpositions keep sigma1 inside span{V1, V2}: the
        # kernel-side detection overlap stays exactly zero
        code, out, _ = run_cli(capsys, "demo", "bell",
                               "--coeffs", "0.8,0.6,-0.6,0.8,0.6,0.8,-0.8,0.6",
                               "--s", "0.3,0.4,0.3", "--r", "0.2,0.5,0.3")
        assert code == 0
        rep = json.loads(out)
        assert rep["path"] == "sdp"
        assert abs(rep["discrimination"]["detection_overlaps"][1]) <= 1e-10
        assert max(rep["fixed_point_residuals"]) <= 1e-7

    @pytest.mark.parametrize("argv", [
        [], ["--coeffs", "0.8,0.6,-0.6,0.8,0.6,0.8,-0.8,0.6", "--s", "0.3,0.4,0.3", "--r", "0.2,0.5,0.3"],
    ], ids=["default", "generic"])
    def test_sdp_channel_is_cptp(self, capsys, argv):
        # the forced algebras are C + C + C and M_2 + C on supp rho: the
        # channel is CP by construction and fixes exactly 3 and 5 directions
        code, out, _ = run_cli(capsys, "demo", "bell", *argv)
        assert code == 0
        sdp = json.loads(out)["sdp"]
        assert sdp["status"] == "optimal"
        assert sdp["cp"] is True and sdp["tp"] is True
        assert len(sdp["peripheral_spectrum"]) == (5 if argv else 3)
        assert sdp["decay_modulus"] < 1.0 - 1e-6

    def test_output_file(self, tmp_path, capsys):
        out_path = tmp_path / "demo.json"
        code, _, _ = run_cli(capsys, "demo", "bell", "--out", str(out_path))
        assert code == 0
        rep = json.loads(out_path.read_text())
        assert "discrimination" in rep and "channel" in rep


class TestParser:
    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_consecutive_calls_share_no_state(self, workdir, capsys):
        _, write = workdir
        paths = [write(f"s{i}.json", linops.matrix_to_json(basis_proj(i, 3)))
                 for i in range(3)]
        code, out, _ = run_cli(capsys, "engineer", "separable", "--sigma", paths[0],
                               "--sigma", paths[1], "--report")
        assert code == 0
        assert len(json.loads(out)["report"]["cross_overlaps"]) == 2
        code, out, _ = run_cli(capsys, "engineer", "separable", "--sigma", paths[2], "--report")
        assert code == 0
        assert len(json.loads(out)["report"]["cross_overlaps"]) == 1

    def test_call_after_usage_error_succeeds(self, workdir, capsys):
        _, write = workdir
        path = write("c.json", qutrit_choi_obj())
        code, out, err = run_cli(capsys, "channel", "check", "--choi")
        assert (code, out) == (2, "")
        assert json.loads(err)["reason"] == "validation"
        code, out, _ = run_cli(capsys, "channel", "check", "--choi", path)
        assert code == 0
        assert json.loads(out)["cp"]

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["channel", "check", "--help"])
        assert exc.value.code == 0
        assert "--psd-tol" in capsys.readouterr().out

    def test_emit_is_one_line_of_json(self, capsys):
        obj = {"states": [linops.matrix_to_json(np.eye(2) / 3 + 1e-17j)],
               "residuals": [1e-300, 0.1 + 0.2], "flag": None, "word": ["0", "1"]}
        cli._emit(obj)
        out = capsys.readouterr().out
        assert out.endswith("\n") and out.count("\n") == 1
        assert json.loads(out) == obj


class TestErrorTaxonomy:
    def test_reason_tags_match_the_exit_code_table(self):
        # rows of the table in the cli docstring: "    <reason>   <exit>   <raised for>"
        table = dict(re.findall(r"^    ([a-z][a-z-]*) +(\d) ", cli.__doc__, re.M))

        def tags(node):
            return {n.value for n in ast.walk(node)
                    if isinstance(n, ast.Constant) and isinstance(n.value, str)}

        raised, construction = set(), set()
        for path in Path(cli.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):  # reason="..." in a call
                    callee = getattr(node.func, "attr", getattr(node.func, "id", None))
                    for kw in node.keywords:
                        if kw.arg == "reason":
                            raised |= tags(kw.value)
                            if callee == "ConstructionError":
                                construction |= tags(kw.value)
                elif isinstance(node, ast.Assign) and any(
                        isinstance(t, ast.Attribute) and t.attr == "reason" for t in node.targets):
                    raised |= tags(node.value)  # the ConstructionError default
                    construction |= tags(node.value)
        assert raised == set(table)
        # main exits 3 on every ConstructionError, whatever its tag
        assert {"decay-weight-zero", "decay-weight-too-large"} <= construction
        assert all(table[tag] == str(cli.EXIT_INFEASIBLE) for tag in construction)

    def test_every_raise_is_mapped_to_an_exit_code(self):
        # main maps ValueError (LinAlgError and ConstructionError among its
        # subclasses) and NumericalLimitError; argparse turns an
        # ArgumentTypeError into a usage error. Any other class escapes main
        # as a traceback.
        mapped = (ValueError, sdpmod.NumericalLimitError, argparse.ArgumentTypeError)
        unmapped = []
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            name = "conekit" if path.stem == "__init__" else f"conekit.{path.stem}"
            namespace = vars(importlib.import_module(name))
            tree = ast.parse(path.read_text())
            handlers = {id(r): h for h in ast.walk(tree) if isinstance(h, ast.ExceptHandler)
                        for r in ast.walk(h) if isinstance(r, ast.Raise)}
            for node in ast.walk(tree):
                if not isinstance(node, ast.Raise):
                    continue
                if node.exc is None:  # a bare raise re-raises what its handler caught
                    expr = handlers[id(node)].type
                    exprs = expr.elts if isinstance(expr, ast.Tuple) else [expr]
                else:
                    exprs = [node.exc.func if isinstance(node.exc, ast.Call) else node.exc]
                for expr in exprs:
                    cls = eval(ast.unparse(expr), namespace)
                    if not (isinstance(cls, type) and issubclass(cls, mapped)):
                        unmapped.append(f"{path.name}:{node.lineno} raises {ast.unparse(expr)}")
        assert unmapped == []


    @pytest.mark.parametrize("argv, message", [
        pytest.param(lambda tmp, write: ["engineer", "sdp", "--sigma", write(
            "s.json", linops.matrix_to_json(np.eye(2)))], "state trace is 2", id="state-trace"),
        pytest.param(lambda tmp, write: ["engineer", "sdp", "--sigma", write(
            "s.json", linops.matrix_to_json(np.diag([1.5, -0.5])))],
            "negative eigenvalue", id="state-negative-eigenvalue"),
        pytest.param(lambda tmp, write: ["engineer", "sdp", "--sigma", write(
            "s.json", {"rows": 1, "cols": 2, "re": [0.5, 0.5], "im": [0.0, 0.0]})],
            "expected a square matrix", id="state-not-square"),
        pytest.param(lambda tmp, write: ["engineer", "sdp", "--sigma", write("s.json", [1.0])],
                     "matrix JSON must be an object", id="matrix-not-object"),
        pytest.param(lambda tmp, write: ["engineer", "sdp", "--sigma", write(
            "s.json", dict(linops.matrix_to_json(np.eye(1)), rows=0))],
            "matrix dimensions must be positive", id="matrix-rows-zero"),
        pytest.param(lambda tmp, write: ["engineer", "sdp", "--sigma", write(
            "s.json", dict(linops.matrix_to_json(np.eye(1)), re=[{}]))],
            "matrix JSON field has the wrong type", id="matrix-re-object"),
        pytest.param(lambda tmp, write: [
            "engineer", "sdp", "--sigma", write("s.json", linops.matrix_to_json(np.eye(2) / 2)),
            "--b", write("b.json", linops.matrix_to_json(np.eye(3) / 3))],
            "decay state dimension mismatch", id="sdp-b-mismatch"),
        pytest.param(lambda tmp, write: [
            "engineer", "sdp", "--sigma", write("s0.json", linops.matrix_to_json(np.eye(2) / 2)),
            "--sigma", write("s1.json", linops.matrix_to_json(np.eye(3) / 3))],
            "states must share one dimension", id="sdp-state-dimensions"),
        pytest.param(lambda tmp, write: ["quasireal", "check", "--realization", write(
            "q.json", dict(REALIZATION_1, pi=[[1.0]]))], "flat list", id="pi-nested"),
        pytest.param(lambda tmp, write: ["quasireal", "check", "--realization", write(
            "q.json", dict(REALIZATION_1, pi=[float("nan")]))],
            "pi contains non-finite", id="pi-non-finite"),
        pytest.param(lambda tmp, write: ["quasireal", "check", "--realization", write(
            "q.json", dict(REALIZATION_1, dim=0))], "dimension must be positive", id="dim-zero"),
        pytest.param(lambda tmp, write: ["quasireal", "check", "--realization", write(
            "q.json", dict(REALIZATION_1, tau=[1.0, 1.0]))],
            "pi and tau must have length dim", id="tau-length"),
        pytest.param(lambda tmp, write: ["quasireal", "check", "--realization", write("q.json", [])],
                     "quasi-realization JSON must be an object", id="realization-not-object"),
        pytest.param(lambda tmp, write: ["quasireal", "check", "--realization", write(
            "q.json", dict(REALIZATION_1, D={"0": {"re": 1.0}}))],
            "quasi-realization JSON field has the wrong type", id="d-entry-object"),
        pytest.param(lambda tmp, write: [
            "quasireal", "cone-check", "--realization", write("q.json", REALIZATION_1),
            "--cone", write("c.json", {"generators": [[float("inf")]]})],
            "generators contain non-finite entries", id="cone-generator-infinite"),
        pytest.param(lambda tmp, write: [
            "conesim", "run", "--out", str(tmp / "t.jsonl"), "--config", write(
                "cfg.json", dict(CONFIG_1, channel=chan.choi_to_json(chan.ChoiMatrix(
                    2, 3, linops.kron(np.diag([1.0, 0.0, 0.0]), np.eye(2))))))],
            "simulation channel must be square", id="simulation-channel-not-square"),
        pytest.param(lambda tmp, write: ["quasireal", "check", "--realization", write(
            "q.json", dict(REALIZATION_1, alphabet=[]))],
            "alphabet must be non-empty", id="alphabet-empty"),
        pytest.param(lambda tmp, write: ["quasireal", "check", "--realization", write(
            "q.json", dict(REALIZATION_1, alphabet=["0", "0"]))],
            "alphabet symbols must be unique", id="alphabet-duplicate"),
        # 0 and "0" would read as one symbol; the number is refused before that
        pytest.param(lambda tmp, write: ["quasireal", "check", "--realization", write(
            "q.json", dict(REALIZATION_1, alphabet=[0, "0"]))],
            "alphabet entry 0 is 0, not a string", id="alphabet-duplicate-as-strings"),
        pytest.param(lambda tmp, write: ["quasireal", "check", "--realization", write(
            "q.json", {"dim": 1, "alphabet": [None, True, 1.0], "pi": [1], "tau": [1],
                       "D": {"None": [[0.2]], "True": [[0.3]], "1.0": [[0.5]]}})],
            "alphabet entry 0 is null, not a string", id="alphabet-null"),
        pytest.param(lambda tmp, write: ["quasireal", "check", "--realization", write(
            "q.json", dict(REALIZATION_1, alphabet=["0", True]))],
            "alphabet entry 1 is true, not a string", id="alphabet-boolean"),
        pytest.param(lambda tmp, write: ["quasireal", "check", "--realization", write(
            "q.json", dict(REALIZATION_1, alphabet=["0", 1.0]))],
            "alphabet entry 1 is 1.0, not a string", id="alphabet-number"),
        pytest.param(lambda tmp, write: ["quasireal", "check", "--realization", write(
            "q.json", dict(REALIZATION_1, D={"0": [[0.5]], "1": [[0.5]]}))],
            "symbols not in the alphabet: ['1']", id="d-stray-symbol-check"),
        pytest.param(lambda tmp, write: ["quasireal", "prob", "--word", "0", "--realization", write(
            "q.json", dict(REALIZATION_1, D={"0": [[0.5]], "1": [[0.5]]}))],
            "symbols not in the alphabet: ['1']", id="d-stray-symbol-prob"),
        pytest.param(lambda tmp, write: ["quasireal", "check", "--realization", write(
            "q.json", dict(REALIZATION_1, D={"0": [[1.0, 0.0]]}))],
            "has shape (1, 2), expected (1, 1)", id="d-shape"),
        pytest.param(lambda tmp, write: ["quasireal", "check", "--realization", write(
            "q.json", dict(REALIZATION_1, D={"0": [[float("inf")]]}))],
            "has non-finite entries", id="d-non-finite"),
        pytest.param(lambda tmp, write: ["quasireal", "check", "--realization", write(
            "q.json", {"dim": 1})], "quasi-realization JSON missing keys", id="realization-keys"),
        pytest.param(lambda tmp, write: ["quasireal", "check", "--realization", write(
            "q.json", dict(REALIZATION_1, D=[[1.0]]))], "'D' must map", id="d-not-object"),
        pytest.param(lambda tmp, write: [
            "quasireal", "cone-check", "--realization", write("q.json", REALIZATION_1),
            "--cone", write("c.json", {"rays": [[1.0]]})],
            "cone JSON must contain 'generators'", id="cone-keys"),
        pytest.param(lambda tmp, write: [
            "quasireal", "cone-check", "--realization", write("q.json", REALIZATION_1),
            "--cone", write("c.json", {"generators": [[]]})],
            "generators must have at least one coordinate", id="cone-empty-generator"),
        pytest.param(lambda tmp, write: ["conesim", "run", "--out", str(tmp / "t.jsonl"),
                                         "--config", write("cfg.json", {"kick": {"policy": "haar"}})],
                     "config missing keys", id="config-keys"),
        pytest.param(lambda tmp, write: ["conesim", "run", "--out", str(tmp / "t.jsonl"),
                                         "--config", write("cfg.json", dict(CONFIG_1, kick={}))],
                     "'policy' key", id="kick-without-policy"),
        pytest.param(lambda tmp, write: [
            "conesim", "run", "--out", str(tmp / "t.jsonl"), "--config",
            write("cfg.json", dict(CONFIG_1, kick={"policy": "haar", "speed": 1}))],
            "unknown kick keys", id="kick-unknown-key"),
        pytest.param(lambda tmp, write: ["conesim", "run", "--out", str(tmp / "t.jsonl"),
                                         "--config", write("cfg.json", dict(CONFIG_1, classify_tol=0))],
                     "classify_tol must be positive", id="classify-tol-zero"),
        pytest.param(lambda tmp, write: ["conesim", "run", "--out", str(tmp / "t.jsonl"),
                                         "--config", write("cfg.json", dict(CONFIG_1, classify_tol=1e-13))],
                     "at least linops.RANK_TOL = 1e-12", id="classify-tol-below-rank-tol"),
        pytest.param(lambda tmp, write: ["sdp", "solve", "--problem", write("p.json", [])],
                     "problem JSON must be an object", id="problem-not-object"),
        pytest.param(lambda tmp, write: ["sdp", "solve", "--problem", write("p.json", {"n": 1})],
                     "problem JSON missing keys", id="problem-keys"),
        pytest.param(lambda tmp, write: ["sdp", "solve", "--problem", write(
            "p.json", dict(one_by_one_problem(), constraints=[]))],
            "constraints must be a non-empty list", id="constraints-empty"),
        pytest.param(lambda tmp, write: ["demo", "bell", "--coeffs", "1,0,0"],
                     "needs 8 comma-separated numbers, got 3", id="coeffs-count"),
        pytest.param(lambda tmp, write: ["demo", "bell", "--coeffs", "a,b,c,d,e,f,g,h"],
                     "must be numeric", id="coeffs-not-numeric"),
        pytest.param(lambda tmp, write: ["demo", "bell", "--coeffs", "inf,0,0,1,1,0,0,1"],
                     "--coeffs must be finite", id="coeffs-not-finite"),
        pytest.param(lambda tmp, write: ["demo", "bell", "--s", "nan,0.5,0.5"],
                     "--s must be finite", id="weights-not-finite"),
        pytest.param(lambda tmp, write: ["channel", "check", "--choi", str(tmp / "missing.json")],
                     "cannot read", id="input-unreadable"),
        pytest.param(lambda tmp, write: ["channel", "check", "--choi", write(
            "c.json", dict(qutrit_choi_obj(), d_in=0))],
            "channel dimensions must be positive", id="d-in-zero"),
        pytest.param(lambda tmp, write: ["channel", "check", "--choi", write(
            "c.json", dict(qutrit_choi_obj(), d_in=2))],
            "does not match d_out*d_in = 6", id="choi-shape-mismatch"),
    ])
    def test_input_fault_exits_2_with_one_json_line(self, workdir, capsys, argv, message):
        tmp, write = workdir
        code, out, err = run_cli(capsys, *argv(tmp, write))
        assert code == 2 and out == ""
        [line] = err.splitlines()
        payload = json.loads(line)
        assert payload["reason"] == "validation"
        assert message in payload["error"]


REALIZATION_1 = {"dim": 1, "alphabet": ["0"], "D": {"0": [[1.0]]}, "pi": [1.0], "tau": [1.0]}
CONFIG_1 = {"channel": qutrit_choi_obj(), "kick": {"policy": "haar"}, "n_iter": 5, "n_rounds": 1}

CHOI_1 = '{"rows": 1, "cols": 1, "re": [%s], "im": [0.0], "d_in": 1, "d_out": 1}'


class TestJsonInput:
    """orjson decodes every input. What it rejects gets the value or the
    error message of the stdlib decoder, which read every input in text
    mode before; the error texts below are the ones it gave."""

    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8),
           form=st.sampled_from(["repr", ".17g", ".25e"]))
    @example(values=[-0.0], form="repr")
    @example(values=[5e-324], form="repr")
    @example(values=[1.7976931348623157e308, -1.7976931348623157e308], form="repr")
    @example(values=[0.30000000000000004], form=".17g")
    def test_matrix_json_decodes_as_the_stdlib_does(self, values, form):
        def number(x):
            return repr(x) if form == "repr" else format(x, form)
        text = '{"rows": 1, "cols": %d, "re": [%s], "im": [%s]}' % (
            len(values), ", ".join(map(number, values)), ", ".join(map(number, values[::-1])))
        want = repr(json.loads(text))  # repr tells -0.0 from 0.0 and 1 from 1.0
        assert repr(cli._parse_json(text.encode(), "m.json")) == want
        assert repr(cli._parse_json(text, None)) == want

    @pytest.mark.parametrize("raw, error", [
        ((CHOI_1 % "NaN").encode(), "matrix contains non-finite entries"),
        ((CHOI_1 % "Infinity").encode(), "matrix contains non-finite entries"),
        ((CHOI_1 % "-Infinity").encode(), "matrix contains non-finite entries"),
        ((CHOI_1 % "1e400").encode(), "matrix contains non-finite entries"),
        (b"\xef\xbb\xbf" + (CHOI_1 % "1.0").encode(),
         "{path} is not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): "
         "line 1 column 1 (char 0)"),
        ((CHOI_1 % "1.0")[:-1].encode() + b", }",
         "{path} is not valid JSON: Expecting property name enclosed in double quotes: "
         "line 1 column 73 (char 72)"),
        ((CHOI_1 % "1.0,").encode(),
         "{path} is not valid JSON: Expecting value: line 1 column 35 (char 34)"),
        (b"", "{path} is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        # positions count a CRLF as one character, as text mode read it
        (b'{\r\n"d_in": 1,\r\n}', "{path} is not valid JSON: Expecting property name "
         "enclosed in double quotes: line 3 column 1 (char 13)"),
    ], ids=["nan", "infinity", "minus-infinity", "overflow", "bom", "trailing-comma",
            "trailing-comma-in-list", "empty", "crlf"])
    def test_rejected_input_keeps_its_error(self, tmp_path, capsys, raw, error):
        path = tmp_path / "c.json"
        path.write_bytes(raw)
        code, out, err = run_cli(capsys, "channel", "check", "--choi", str(path))
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": error.format(path=path), "reason": "validation"}

    def test_lone_surrogate_keeps_its_value(self, tmp_path, capsys):
        good = (CHOI_1 % "1.0").encode()
        paths = tmp_path / "good.json", tmp_path / "surrogate.json"
        paths[0].write_bytes(good)
        paths[1].write_bytes(good[:-1] + b', "\\ud800": 0}')
        assert cli._load_json(str(paths[1]))["\ud800"] == 0
        outs = [run_cli(capsys, "channel", "check", "--choi", str(p)) for p in paths]
        assert outs[0] == outs[1] and outs[0][0] == 0

    @pytest.mark.parametrize("content", [None, b"{"], ids=["missing", "malformed"])
    def test_undecodable_argv_path_in_an_error_is_one_json_line(self, tmp_path, capsys, content):
        # argv bytes that are not UTF-8 reach Python as lone surrogates, which
        # orjson refuses to write; the stdlib writes the error line instead
        path = tmp_path / os.fsdecode(b"bad\xff.json")
        if content is not None:
            path.write_bytes(content)
        code, out, err = run_cli(capsys, "channel", "check", "--choi", str(path))
        assert (code, out) == (2, "")
        [line] = err.splitlines()
        assert "\\udcff" in line
        payload = json.loads(line)
        assert payload["reason"] == "validation" and str(path) in payload["error"]

    def test_undecodable_argv_out_path_is_reported(self, workdir, capsys):
        tmp, write = workdir
        path = tmp / os.fsdecode(b"t\xff.jsonl")
        code, out, err = run_cli(capsys, "conesim", "run", "--config", write("cfg.json", CONFIG_1),
                                 "--out", str(path))
        assert (code, err) == (0, "")
        assert json.loads(out)["out"] == str(path)
        assert len(path.read_text().splitlines()) == 1

    def test_lone_surrogate_symbol_is_written_back(self, workdir, capsys):
        _, write = workdir
        qpath = write("q.json", {"dim": 1, "alphabet": ["\ud800"], "D": {"\ud800": [[-1.5]]},
                                 "pi": [1.0], "tau": [1.0]})
        code, out, err = run_cli(capsys, "quasireal", "cone-check", "--realization", qpath,
                                 "--cone", write("cone.json", {"generators": [[1.0]]}))
        assert (code, err) == (0, "") and '"worst_map_case":["\\ud800",0]' in out
        assert cli._parse_json(out, None)["worst_map_case"] == ["\ud800", 0]

    def test_stdlib_fallback_writes_what_orjson_writes(self):
        # numpy values as numbers and lists, a non-finite float as null
        obj = {"key": "k", "x": [float("inf"), float("nan"), np.float64(0.5), np.bool_(True)],
               "a": np.array([1.0, -np.inf]), "t": ("u", np.int64(2))}
        text = cli._dumps(obj)
        assert text == '{"key":"k","x":[null,null,0.5,true],"a":[1.0,null],"t":["u",2]}'
        assert cli._dumps(dict(obj, key="\ud800")) == text.replace('"k"', '"\\ud800"')

    @pytest.mark.parametrize("last, error", [
        ('{"round": 2, "symbol": NaN, "settle_steps": 1}', "symbol must be an integer, got nan"),
        # line 4 of the file: a blank line counts
        ('{"round": 2,', "{path} is not valid JSON: Expecting property name enclosed in "
         "double quotes: line 4 column 13"),
    ], ids=["nan-symbol", "malformed-line"])
    def test_rejected_trajectory_line_keeps_its_error(self, tmp_path, capsys, last, error):
        path = tmp_path / "t.jsonl"
        path.write_text('{"round": 0, "symbol": 0, "settle_steps": 1}\r\n\r\n'
                        '{"round": 1, "symbol": 1, "settle_steps": 1}\r\n' + last)
        code, out, err = run_cli(capsys, "conesim", "estimate", str(path))
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": error.format(path=path), "reason": "validation"}


def qubit_choi_obj(m):
    return dict(linops.matrix_to_json(m), d_in=2, d_out=2)


# Qubit Choi matrices just outside the default tolerances (each off by 1e-6):
# dephasing with min eigenvalue -1e-6, dephasing with trace residual 1e-6,
# and (1 - g) diag(rho) + g tr(rho) I/2 with g = 1e-6, whose eigenvalue 1 - g
# counts as peripheral only at tolerances above g.
_NOT_PSD = np.diag([1.0, 0.0, 0.0, 1.0]) + 1e-6 * np.fliplr(np.diag([0.0, 1.0, 1.0, 0.0]))
_NOT_TP = np.diag([1.0 + 1e-6, 0.0, 0.0, 1.0])
_SLOW = sum(np.kron((1 - 1e-6) * basis_proj(i, 2) + 1e-6 * np.eye(2) / 2, basis_proj(i, 2))
            for i in range(2))
# a Markov realization with one entry at -1e-6, moved to its row's other map
_NEAR_POSITIVE = {
    "dim": 2, "alphabet": ["0", "1"],
    "D": {"0": [[0.9, -1e-6], [0.2, 0.0]], "1": [[0.0, 0.1 + 1e-6], [0.0, 0.8]]},
    "pi": [2 / 3, 1 / 3], "tau": [1.0, 1.0],
}


class TestToleranceOptions:
    """A valid tolerance reaches the command: 1e-5 (1e-2 for the solver)
    changes the output from the default's on inputs just past the default."""

    @pytest.mark.parametrize("argv, option, read, default, loose", [
        (lambda w: ["channel", "check", "--choi", w("c.json", qubit_choi_obj(_NOT_PSD))],
         ["--psd-tol", "1e-5"], lambda out: out["cp"], False, True),
        (lambda w: ["channel", "check", "--choi", w("c.json", qubit_choi_obj(_NOT_TP))],
         ["--tp-tol", "1e-5"], lambda out: out["tp"], False, True),
        (lambda w: ["channel", "fixed-points", "--choi", w("c.json", qubit_choi_obj(_SLOW))],
         ["--tol", "1e-5"], lambda out: len(out["states"]), 1, 2),
        (lambda w: ["channel", "iterate", "--choi", w("c.json", qubit_choi_obj(_SLOW)),
                    "--state", w("rho.json", linops.matrix_to_json(np.diag([0.7, 0.3]))),
                    "-n", "5"],
         ["--stop-tol", "1e-3"], lambda out: len(out["states"]), 5, 1),
        (lambda w: ["quasireal", "check", "--realization", w("q.json", _NEAR_POSITIVE)],
         ["--tol", "1e-5"], lambda out: out["positive_realization"], False, True),
        (lambda w: ["quasireal", "cone-check", "--realization", w("q.json", _NEAR_POSITIVE),
                    "--cone", w("cone.json", {"generators": [[1.0, 0.0], [0.0, 1.0]]})],
         ["--tol", "1e-5"], lambda out: out["all_conditions"], False, True),
        (lambda w: ["sdp", "solve", "--problem", w("p.json", sdpmod.problem_to_json(
            sdpmod.assemble_fixed_point_constraints([basis_proj(0, 2), basis_proj(1, 2)])))],
         ["--feas-tol", "1e-2"], lambda out: out["iterations"] > 5, True, False),
    ], ids=["psd-tol", "tp-tol", "fixed-points-tol", "stop-tol", "quasireal-check-tol",
            "cone-check-tol", "sdp-solve-feas-tol"])
    def test_valid_value_changes_output(self, workdir, capsys, argv, option, read, default, loose):
        _, write = workdir
        base = argv(write)
        code, out, _ = run_cli(capsys, *base)
        assert code == 0
        assert read(json.loads(out)) == default
        code, out, _ = run_cli(capsys, *base, *option)
        assert code == 0
        assert read(json.loads(out)) == loose


# a Markov realization whose entries and residuals are exact in binary
_EXACT_MARKOV = {
    "dim": 2, "alphabet": ["0", "1"],
    "D": {"0": [[0.5, 0.0], [0.5, 0.0]], "1": [[0.0, 0.5], [0.0, 0.5]]},
    "pi": [0.5, 0.5], "tau": [1.0, 1.0],
}
_SWAP = {"dim": 2, "alphabet": ["a"], "D": {"a": [[0.0, 1.0], [1.0, 0.0]]},
         "pi": [1.0, 1.0], "tau": [1.0, 1.0]}
_NEGATIVE_1 = {"dim": 1, "alphabet": ["a"], "D": {"a": [[-1.5]]}, "pi": [1.0], "tau": [1.0]}


class TestVerdictPayloads:
    """``channel check``, ``quasireal check`` and ``quasireal cone-check``
    print their report's fields, in order, then the keys the CLI adds."""

    @staticmethod
    def assert_payload(out: str, report, **extra):
        # the stdlib's round trip writes the tuple of worst_map_case as a list
        want = json.loads(json.dumps({**dataclasses.asdict(report), **extra}))
        assert list(json.loads(out).items()) == list(want.items())

    @pytest.mark.parametrize("obj", [qutrit_choi_obj(), qubit_choi_obj(_NOT_TP)],
                             ids=["cptp", "not-tp"])
    def test_channel_check(self, workdir, capsys, obj):
        _, write = workdir
        code, out, _ = run_cli(capsys, "channel", "check", "--choi", write("c.json", obj))
        c = chan.choi_from_json(obj)
        assert code == 0
        self.assert_payload(out, chan.is_cptp(c), d_in=c.d_in, d_out=c.d_out)

    def test_channel_check_text(self, workdir, capsys):
        _, write = workdir
        code, out, _ = run_cli(capsys, "channel", "check", "--choi",
                               write("c.json", qubit_choi_obj(_NOT_TP)))
        assert (code, out) == (0, '{"cp":true,"tp":false,"min_eig":0.0,'
                                  '"tp_residual":9.999999999177334e-7,"d_in":2,"d_out":2}\n')

    @pytest.mark.parametrize("obj", [_EXACT_MARKOV, _NEAR_POSITIVE], ids=["positive", "not"])
    def test_quasireal_check(self, workdir, capsys, obj):
        _, write = workdir
        code, out, _ = run_cli(capsys, "quasireal", "check", "--realization", write("q.json", obj))
        rep = quasireal.is_positive_realization(quasireal.quasireal_from_json(obj))
        assert code == 0
        self.assert_payload(out, rep, positive_realization=rep.all_ok)

    def test_quasireal_check_text(self, workdir, capsys):
        _, write = workdir
        code, out, _ = run_cli(capsys, "quasireal", "check", "--realization",
                               write("q.json", _EXACT_MARKOV))
        assert (code, out) == (0, '{"nonneg":true,"stochastic":true,"stationary":true,'
                                  '"tau_ones":true,"min_entry":0.0,"row_sum_residual":0.0,'
                                  '"stationary_residual":0.0,"tau_residual":0.0,'
                                  '"positive_realization":true}\n')

    @pytest.mark.parametrize("obj, generators, case", [
        (_EXACT_MARKOV, [[1.0, 0.0], [0.0, 1.0]], None),
        (_SWAP, [[1.0, 1.0], [1.0, 0.0]], ["a", 1]),
        (_NEGATIVE_1, [[1.0]], ["a", 0]),
    ], ids=["case-null", "case-a-1", "case-a-0"])
    def test_quasireal_cone_check(self, workdir, capsys, obj, generators, case):
        _, write = workdir
        cone = {"generators": generators}
        code, out, _ = run_cli(capsys, "quasireal", "cone-check", "--realization",
                               write("q.json", obj), "--cone", write("cone.json", cone))
        rep = quasireal.check_dharmadhikari(quasireal.quasireal_from_json(obj),
                                            quasireal.cone_from_json(cone))
        assert code == 0 and json.loads(out)["worst_map_case"] == case
        self.assert_payload(out, rep, all_conditions=rep.all_ok)

    def test_quasireal_cone_check_text(self, workdir, capsys):
        _, write = workdir
        code, out, _ = run_cli(capsys, "quasireal", "cone-check", "--realization",
                               write("q.json", _NEGATIVE_1),
                               "--cone", write("cone.json", {"generators": [[1.0]]}))
        assert (code, out) == (0, '{"tau_in_cone":true,"maps_preserve_cone":false,'
                                  '"pi_in_dual":true,"pointed":true,"tau_residual":0.0,'
                                  '"worst_map_residual":1.5,"worst_map_case":["a",0],'
                                  '"min_dual_value":1.0,"all_conditions":false}\n')


class TestImportPath:
    def test_scipy_optimize_is_imported_only_for_nnls(self, tmp_path):
        # a fresh interpreter, as this one has imported scipy.optimize for other tests
        paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        script = Path(__file__).with_name("import_guard.py")
        res = subprocess.run([sys.executable, str(script), str(tmp_path)], env=env,
                             capture_output=True, text=True, timeout=120)
        assert (res.returncode, res.stderr) == (0, "")
