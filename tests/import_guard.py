"""Check that conekit loads scipy.optimize only for a cone check that needs NNLS.

    python3 tests/import_guard.py DIR

Run in a fresh interpreter, with DIR a writable directory for the input and
output files. It imports ``conekit.cli``, then runs ``conesim run`` and
``quasireal cone-check`` on an identity cone and on a simplicial cone in a
hidden basis, each of which must leave ``scipy.optimize`` out of
``sys.modules``. Last, a cone check whose map sends a generator out of the
cone must load it and report that image's NNLS residual. Exits 1 naming the
first step that fails; ``tests/test_cli.py`` runs it as a tier-1 test.
"""

import io
import json
import os
import sys
from contextlib import redirect_stdout

import numpy as np

from conekit import cli


def fail(step: str, why: str) -> None:
    sys.exit(f"{step}: {why}")


def guard(step: str, loaded: bool = False) -> None:
    if ("scipy.optimize" in sys.modules) is not loaded:
        fail(step, f"scipy.optimize {'not ' if loaded else ''}imported")


def run(step: str, *argv: str) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(list(argv))
    if code != 0:
        fail(step, f"exit {code}")
    return json.loads(out.getvalue())


def cone_check(tmp: str, step: str, maps, pi, tau, generators) -> dict:
    realization = {"dim": len(pi), "alphabet": [str(u) for u in range(len(maps))],
                   "D": {str(u): np.asarray(m).tolist() for u, m in enumerate(maps)},
                   "pi": np.asarray(pi).tolist(), "tau": np.asarray(tau).tolist()}
    paths = [os.path.join(tmp, f"{step}-{name}.json") for name in ("q", "cone")]
    for path, obj in zip(paths, (realization, {"generators": np.asarray(generators).tolist()})):
        with open(path, "w") as fh:
            json.dump(obj, fh)
    return run(step, "quasireal", "cone-check", "--realization", paths[0], "--cone", paths[1])


def main(tmp: str) -> None:
    guard("import conekit.cli")

    # the qutrit projection channel, which fixes |0><0|, |1><1| and |2><2|
    choi = {"rows": 9, "cols": 9, "re": [float(i == j and i % 4 == 0) for i in range(9) for j in range(9)],
            "im": [0.0] * 81, "d_in": 3, "d_out": 3}
    config = os.path.join(tmp, "sim.json")
    with open(config, "w") as fh:
        json.dump({"channel": choi, "kick": {"policy": "haar"}, "n_iter": 200, "n_rounds": 20,
                   "classify": "sample", "seed": 3}, fh)
    run("conesim run", "conesim", "run", "--config", config, "--out", os.path.join(tmp, "traj.jsonl"))
    guard("conesim run")

    # a positive realization: two symbols splitting T = [[0.9, 0.1], [0.2, 0.8]], pi stationary
    maps = [np.array([[0.6, 0.05], [0.1, 0.3]]), np.array([[0.3, 0.05], [0.1, 0.5]])]
    pi, tau = np.array([2.0, 1.0]) / 3.0, np.ones(2)
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

    # a rotation by 90 degrees maps e1 to e2 and e2 to -e1, out of the orthant at distance 1
    rep = cone_check(tmp, "non-member", [[[0.0, -1.0], [1.0, 0.0]]], [1.0, 0.0], [1.0, 1.0], np.eye(2))
    if rep["maps_preserve_cone"] or rep["worst_map_residual"] != 1.0 or rep["worst_map_case"] != ["0", 1]:
        fail("non-member", f"expected the NNLS residual 1.0 of D e2, got {rep}")
    guard("non-member", loaded=True)


if __name__ == "__main__":
    main(sys.argv[1])
