"""Check that conekit loads scipy only for ``sdp solve`` and for NNLS.

    python3 tests/import_guard.py DIR

Run in a fresh interpreter, with DIR a writable directory for the input and
output files. It imports ``conekit.cli``, then runs ``engineer sdp`` on one
state and on a commuting pair, ``demo bell`` (default and generic),
``conesim run`` in sample mode with a Haar kick and in nearest mode,
``channel check``, ``fixed-points`` and ``iterate``, ``quasireal prob`` and
``quasireal cone-check`` on an identity cone and on a simplicial cone in a
hidden basis, each of which must leave every ``scipy`` module out of
``sys.modules``. Then ``sdp solve`` must load ``scipy.linalg`` and leave
``scipy.optimize`` out. Last, a cone check whose map sends a generator out
of the cone must load ``scipy.optimize`` and report that image's NNLS
residual. Exits 1 naming the first step that fails; ``tests/test_cli.py``
runs it as a tier-1 test.
"""

import io
import json
import os
import sys
from contextlib import redirect_stdout

import numpy as np

from conekit import cli, linops, sdp


def fail(step: str, why: str) -> None:
    sys.exit(f"{step}: {why}")


def guard(step: str, loaded: str | None = None, absent: str | None = "scipy") -> None:
    """After ``step``: ``loaded`` is in sys.modules, and neither ``absent``
    nor any of its submodules is."""
    if loaded is not None and loaded not in sys.modules:
        fail(step, f"{loaded} not imported")
    found = [] if absent is None else sorted(m for m in sys.modules
                                              if m == absent or m.startswith(absent + "."))
    if found:
        fail(step, f"{found[0]} imported")


def run(step: str, *argv: str) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(list(argv))
    if code != 0:
        fail(step, f"exit {code}")
    return json.loads(out.getvalue())


def write(tmp: str, name: str, obj) -> str:
    path = os.path.join(tmp, name)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def cone_check(tmp: str, step: str, maps, pi, tau, generators) -> dict:
    realization = {"dim": len(pi), "alphabet": [str(u) for u in range(len(maps))],
                   "D": {str(u): np.asarray(m).tolist() for u, m in enumerate(maps)},
                   "pi": np.asarray(pi).tolist(), "tau": np.asarray(tau).tolist()}
    q = write(tmp, f"{step}-q.json", realization)
    cone = write(tmp, f"{step}-cone.json", {"generators": np.asarray(generators).tolist()})
    return run(step, "quasireal", "cone-check", "--realization", q, "--cone", cone)


def main(tmp: str) -> None:
    guard("import conekit.cli")

    # one state, and a commuting pair, whose forced algebra is the diagonal
    states = {name: write(tmp, f"{name}.json", linops.matrix_to_json(np.diag(lam)))
              for name, lam in (("s0", [0.7, 0.3]), ("s1", [0.2, 0.8]))}
    for step, names in (("engineer sdp, one state", ["s0"]), ("engineer sdp, commuting pair", ["s0", "s1"])):
        run(step, "engineer", "sdp", *[a for n in names for a in ("--sigma", states[n])])
        guard(step)

    for step, argv in (("demo bell", []),
                       ("demo bell, generic", ["--coeffs", "0.8,0.6,-0.6,0.8,0.6,0.8,-0.8,0.6",
                                               "--s", "0.3,0.4,0.3", "--r", "0.2,0.5,0.3"])):
        if run(step, "demo", "bell", *argv)["path"] != "sdp":
            fail(step, "the Bell pair is not built by the SDP route")
        guard(step)

    # the qutrit projection channel, which fixes |0><0|, |1><1| and |2><2|
    choi = {"rows": 9, "cols": 9, "re": [float(i == j and i % 4 == 0) for i in range(9) for j in range(9)],
            "im": [0.0] * 81, "d_in": 3, "d_out": 3}
    for mode in ("sample", "nearest"):
        step = f"conesim run, {mode}"
        config = write(tmp, f"sim-{mode}.json", {"channel": choi, "kick": {"policy": "haar"}, "n_iter": 200,
                                                 "n_rounds": 20, "classify": mode, "seed": 3})
        run(step, "conesim", "run", "--config", config, "--out", os.path.join(tmp, f"traj-{mode}.jsonl"))
        guard(step)

    choi_path = write(tmp, "choi.json", choi)
    run("channel check", "channel", "check", "--choi", choi_path)
    guard("channel check")
    run("channel fixed-points", "channel", "fixed-points", "--choi", choi_path)
    guard("channel fixed-points")
    rho = write(tmp, "rho.json", linops.matrix_to_json(np.eye(3) / 3))
    run("channel iterate", "channel", "iterate", "--choi", choi_path, "--state", rho, "-n", "3")
    guard("channel iterate")

    # a positive realization: two symbols splitting T = [[0.9, 0.1], [0.2, 0.8]], pi stationary
    maps = [np.array([[0.6, 0.05], [0.1, 0.3]]), np.array([[0.3, 0.05], [0.1, 0.5]])]
    pi, tau = np.array([2.0, 1.0]) / 3.0, np.ones(2)
    q = write(tmp, "q.json", {"dim": 2, "alphabet": ["0", "1"], "D": {str(u): m.tolist() for u, m in enumerate(maps)},
                              "pi": pi.tolist(), "tau": tau.tolist()})
    if abs(run("quasireal prob", "quasireal", "prob", "--realization", q, "--word", "0")["probability"]
           - float(pi @ maps[0] @ tau)) > 1e-12:
        fail("quasireal prob", "P(0) is not pi D_0 tau")
    guard("quasireal prob")

    rep = cone_check(tmp, "identity cone", maps, pi, tau, np.eye(2))
    if not rep["all_conditions"]:
        fail("identity cone", "a positive realization fails the orthant")
    guard("identity cone")

    # the same process in the basis of S, whose cone is spanned by S's columns
    s = np.array([[2.0, 1.0], [1.0, 1.0]])
    s_inv = np.linalg.inv(s)
    rep = cone_check(tmp, "hidden-basis cone", [s @ m @ s_inv for m in maps], pi @ s_inv, s @ tau, s.T)
    if not rep["all_conditions"]:
        fail("hidden-basis cone", "the transformed simplex cone is rejected")
    guard("hidden-basis cone")

    # the qubit dephasing SDP, solved by the interior-point method in 7 iterations
    problem = sdp.assemble_fixed_point_constraints([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    path = write(tmp, "problem.json", sdp.problem_to_json(problem))
    if run("sdp solve", "sdp", "solve", "--problem", path)["status"] != "optimal":
        fail("sdp solve", "the dephasing SDP is not solved")
    guard("sdp solve", loaded="scipy.linalg", absent="scipy.optimize")

    # a rotation by 90 degrees maps e1 to e2 and e2 to -e1, out of the orthant at distance 1
    rep = cone_check(tmp, "non-member", [[[0.0, -1.0], [1.0, 0.0]]], [1.0, 0.0], [1.0, 1.0], np.eye(2))
    if rep["maps_preserve_cone"] or rep["worst_map_residual"] != 1.0 or rep["worst_map_case"] != ["0", 1]:
        fail("non-member", f"expected the NNLS residual 1.0 of D e2, got {rep}")
    guard("non-member", loaded="scipy.optimize", absent=None)


if __name__ == "__main__":
    main(sys.argv[1])
