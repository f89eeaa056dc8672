"""Seeded conesim trajectories pinned against stored reference runs.

``tests/data/golden_trajectories.json`` holds, for each case below, the
symbols, weights and residuals of a run. A change to the per-round
arithmetic of ``conesim.run`` (the settle product, the weights, the
symbol draw, the kicks) must leave them unchanged: the symbols exactly,
the weights and residuals to GOLDEN_TOL, since BLAS builds round
differently. Regenerate the file only for a deliberate change of the
process, with

    PYTHONPATH=src python tests/test_conesim_golden.py
"""

import json
import os
import sys

import numpy as np
import pytest

from conekit import conesim
from conekit.channel import ChoiMatrix
from conekit.conesim import DepolarizingKick, FixedKick, HaarUnitaryKick, SimulationConfig

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "golden_trajectories.json")
GOLDEN_TOL = 1e-12


def basis_channel(d: int) -> ChoiMatrix:
    """0.5 id + 0.5 Phi, Phi fixing the first k basis projectors (k = 2 at
    d = 2, d - 1 otherwise) and sending the rest to I/d: the simulate
    benchmark's channel."""
    k = 2 if d == 2 else d - 1
    eye = np.eye(d)
    phi = np.zeros((d * d, d * d), dtype=complex)
    rest = eye.copy()
    for i in range(k):
        p = np.outer(eye[i], eye[i])
        phi += np.kron(p, p)
        rest -= p
    phi += np.kron(eye / d, rest)
    vec_id = eye.reshape(-1)
    return ChoiMatrix(d, d, 0.5 * np.outer(vec_id, vec_id) + 0.5 * phi)


def rotation_channel(theta: float) -> ChoiMatrix:
    """Conjugation by a real qubit rotation, as a Choi matrix."""
    u = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]], dtype=complex)
    v = np.zeros(4, dtype=complex)
    for i in range(2):
        v += np.kron(u[:, i], np.eye(2)[i])
    return ChoiMatrix(2, 2, np.outer(v, v.conj()))


def _cases():
    rho3 = np.array([[0.05, 0.1 - 0.05j, 0.0], [0.1 + 0.05j, 0.9, 0.02j], [0.0, -0.02j, 0.05]])
    return {
        "sample-haar-d4": (
            SimulationConfig(channel=basis_channel(4), kick=HaarUnitaryKick(), n_iter=2000,
                             n_rounds=100, classify_mode="sample", seed=7),
            np.eye(4, dtype=complex) / 4,
        ),
        "nearest-depolarizing-d3": (
            SimulationConfig(channel=basis_channel(3), kick=DepolarizingKick(0.3), n_iter=2000,
                             n_rounds=20, classify_tol=0.45, seed=0),
            rho3,
        ),
        "sample-fixed-d2": (
            SimulationConfig(channel=basis_channel(2), kick=FixedKick(choi=rotation_channel(0.4)),
                             n_iter=2000, n_rounds=60, classify_mode="sample", seed=3),
            np.diag([0.8, 0.2]).astype(complex),
        ),
    }


def _record(traj: conesim.Trajectory) -> dict:
    return {
        "symbols": traj.symbols(),
        "weights": [r.weights.tolist() for r in traj.rounds],
        "residuals": [r.residual for r in traj.rounds],
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(_cases()))
def test_trajectory_matches_golden(golden, name):
    cfg, rho0 = _cases()[name]
    got, want = _record(conesim.run(cfg, rho0)), golden[name]
    assert got["symbols"] == want["symbols"]
    assert np.abs(np.array(got["weights"]) - np.array(want["weights"])).max() <= GOLDEN_TOL
    assert np.abs(np.array(got["residuals"]) - np.array(want["residuals"])).max() <= GOLDEN_TOL


def test_golden_cases_are_not_trivial(golden):
    # each case must emit more than one value (a symbol or None), or a
    # changed draw or classification could hide
    for name, rec in golden.items():
        assert len(set(rec["symbols"])) > 1, name


if __name__ == "__main__":
    records = {name: _record(conesim.run(cfg, rho0)) for name, (cfg, rho0) in _cases().items()}
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
    sys.stdout.write(f"wrote {GOLDEN_PATH}\n")
