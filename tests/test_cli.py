import json

import numpy as np
import pytest

from conekit import channel as chan
from conekit import engineer, linops, sdp as sdpmod
from conekit.cli import main

from conftest import basis_proj


@pytest.fixture
def workdir(tmp_path):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)
    return tmp_path, write


def qutrit_choi_obj():
    spec = engineer.SeparableMultiSpec.from_states(
        [basis_proj(0, 3), basis_proj(1, 3)], b=basis_proj(2, 3)
    )
    return chan.choi_to_json(engineer.build_separable_multi(spec))


def one_by_one_problem():
    eye = linops.matrix_to_json(np.eye(1))
    return {"n": 1, "objective": eye, "constraints": [{"a": eye, "b": 1.0}]}


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
        code, out, _ = run_cli(capsys, "channel", "fixed-points", "--choi", path,
                               "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("state,re0,im0")
        assert len(lines) == 4

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
    ], ids=["invalid-json", "config-list", "empty-round", "missing-trajectory",
            "constraint-without-a", "n-list", "b-null", "rows-list", "alphabet-int",
            "n-iter-list", "strength-null", "pi-object", "generators-object",
            "check-out-unwritable", "fixed-points-csv-out-unwritable",
            "run-out-unwritable", "channel-never-settles"])
    def test_malformed_input_is_validation_error(self, tmp_path, capsys, argv):
        def write(name, text):
            (tmp_path / name).write_text(text)
            return str(tmp_path / name)
        code, _, err = run_cli(capsys, *argv(tmp_path, write))
        assert code == 2
        assert json.loads(err)["reason"] == "validation"


class TestEngineerCommands:
    def test_single_with_report(self, workdir, capsys):
        _, write = workdir
        spath = write("s.json", linops.matrix_to_json(basis_proj(0, 2)))
        bpath = write("b.json", linops.matrix_to_json(basis_proj(1, 2)))
        code, out, _ = run_cli(capsys, "engineer", "single", "--sigma", spath,
                               "--b", bpath, "--report")
        assert code == 0
        rep = json.loads(out)
        assert rep["report"]["cp"] and rep["report"]["tp"]
        c = chan.choi_from_json(rep["channel"])
        assert chan.is_cptp(c).cp

    def test_single_invalid_pair_exits_3(self, workdir, capsys):
        _, write = workdir
        spath = write("s.json", linops.matrix_to_json(np.diag([0.7, 0.3])))
        bpath = write("b.json", linops.matrix_to_json(basis_proj(0, 2)))
        code, _, err = run_cli(capsys, "engineer", "single", "--sigma", spath, "--b", bpath)
        assert code == 3
        assert json.loads(err)["reason"] == "overlap-exceeds-lambda-max"

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

    def test_separable_infeasible_exits_3(self, workdir, capsys):
        _, write = workdir
        s0 = write("s0.json", linops.matrix_to_json(basis_proj(0, 2)))
        s1 = write("s1.json", linops.matrix_to_json(np.eye(2) / 2))
        code, _, err = run_cli(capsys, "engineer", "separable", "--sigma", s0, "--sigma", s1)
        assert code == 3
        payload = json.loads(err)
        assert payload["reason"] == "not-unambiguously-discriminable"
        assert payload["details"]["failing_index"] == 0

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
        assert len(payload["problem"]["constraints"]) == 8

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


    @pytest.mark.parametrize("command", ["sdp-solve", "demo-bell"])
    def test_linalg_error_inside_solve_exits_4(self, workdir, capsys, monkeypatch, command):
        def broken_step(s, ds):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(sdpmod, "_max_step", broken_step)
        if command == "sdp-solve":
            _, write = workdir
            prob = sdpmod.assemble_fixed_point_constraints([basis_proj(0, 2), basis_proj(1, 2)])
            argv = ["sdp", "solve", "--problem", write("p.json", sdpmod.problem_to_json(prob))]
        else:
            argv = ["demo", "bell"]
        code, _, err = run_cli(capsys, *argv)
        assert code == 4
        assert json.loads(err)["reason"] == "numerical-limit"

    def test_engineer_sdp_infeasible_verdict_exits_4(self, workdir, capsys, monkeypatch):
        # the identity channel fixes every state, so an infeasible verdict
        # from the solver is a numerical failure, not an infeasibility
        def infeasible(problem, **kwargs):
            return sdpmod.SdpSolution(
                x=np.zeros((problem.n, problem.n), dtype=complex), objective_value=np.nan,
                primal_residual=np.inf, dual_residual=np.inf, status=sdpmod.STATUS_INFEASIBLE,
                message="dual improving ray found (primal infeasible)",
            )

        monkeypatch.setattr(sdpmod, "solve", infeasible)
        _, write = workdir
        s0 = write("s0.json", linops.matrix_to_json(basis_proj(0, 2)))
        code, _, err = run_cli(capsys, "engineer", "sdp", "--sigma", s0)
        assert code == 4
        payload = json.loads(err)
        assert payload["reason"] == "numerical-limit"
        assert "dual improving ray found" in payload["error"]


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
        with open(traj_path) as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
        assert len(lines) == 300
        assert {"round", "settled_state", "symbol", "settle_steps", "post_kick_state"} <= set(lines[0])

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
        # the dephasing channel fixes |1><1|, so round 0 settles where it started
        settled = linops.matrix_from_json(first["settled_state"])
        assert np.abs(settled - basis_proj(1, 3)).max() < 1e-12
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

    def test_unknown_config_key_exits_2(self, workdir, capsys):
        tmp, write = workdir
        obj = self.config_obj()
        obj["extra"] = True
        cfg = write("sim.json", obj)
        code, _, err = run_cli(capsys, "conesim", "run", "--config", cfg,
                               "--out", str(tmp / "t.jsonl"))
        assert code == 2
        assert json.loads(err)["reason"] == "validation"


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

    def test_output_file(self, tmp_path, capsys):
        out_path = tmp_path / "demo.json"
        code, _, _ = run_cli(capsys, "demo", "bell", "--out", str(out_path))
        assert code == 0
        rep = json.loads(out_path.read_text())
        assert "discrimination" in rep and "channel" in rep
