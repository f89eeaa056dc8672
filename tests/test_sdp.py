import numpy as np
import pytest

from conekit import linops, sdp
from conekit.engineer import fixed_point_face
from conekit.linops import kron

from conftest import basis_proj, random_density, random_hermitian


def make_problem(ops, vals, n=None, objective=None):
    n = n if n is not None else ops[0].shape[0]
    objective = np.eye(n, dtype=complex) if objective is None else objective
    return sdp.SdpProblem(n=n, objective=objective,
                          constraint_ops=tuple(np.asarray(a, dtype=complex) for a in ops),
                          constraint_vals=tuple(vals))


def random_feasible_problem(rng, n, m, complex_data=True):
    if complex_data:
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x0 = g @ g.conj().T
        ops = [random_hermitian(rng, n) for _ in range(m)]
    else:
        g = rng.standard_normal((n, n))
        x0 = (g @ g.T).astype(complex)
        ops = [((h := rng.standard_normal((n, n))) + h.T).astype(complex) / 2 for _ in range(m)]
    vals = [float(np.trace(a @ x0).real) for a in ops]
    return make_problem(ops, vals), x0


class TestHermitianBasis:
    def test_orthonormal_and_complete(self):
        for d in (2, 3):
            basis = sdp.hermitian_basis(d)
            assert len(basis) == d * d
            for i, e in enumerate(basis):
                assert np.abs(e - e.conj().T).max() < 1e-15
                for j, f in enumerate(basis):
                    ip = np.trace(e.conj().T @ f).real
                    assert abs(ip - (1.0 if i == j else 0.0)) < 1e-12


class TestAssemble:
    def test_single_state_constraint_count_and_witness(self):
        sigma = basis_proj(0, 2)
        p = sdp.assemble_fixed_point_constraints([sigma])
        assert len(p.constraint_ops) == 4
        x = kron(sigma, sigma)  # sigma real: sigma^T == sigma
        for a, b in zip(p.constraint_ops, p.constraint_vals):
            assert abs(np.trace(a @ x).real - b) < 1e-12

    def test_two_states_witness(self):
        s0, s1 = basis_proj(0, 2), basis_proj(1, 2)
        p = sdp.assemble_fixed_point_constraints([s0, s1])
        assert len(p.constraint_ops) == 8
        x = kron(s0, s0) + kron(s1, s1)
        for a, b in zip(p.constraint_ops, p.constraint_vals):
            assert abs(np.trace(a @ x).real - b) < 1e-12

    def test_duplicate_states_deduplicated(self):
        sigma = basis_proj(0, 2)
        p = sdp.assemble_fixed_point_constraints([sigma, sigma])
        assert len(p.constraint_ops) == 4

    def test_constraints_encode_partial_trace_condition(self, rng):
        # tr[(E (x) sigma^T) X] == tr[E tr_H2[X (I (x) sigma^T)]] for any X
        sigma = random_density(rng, 2)
        p = sdp.assemble_fixed_point_constraints([sigma])
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        x = g @ g.conj().T
        reduced = linops.partial_trace(x @ kron(np.eye(2), sigma.T), (2, 2), over=2)
        for e, (a, b) in zip(sdp.hermitian_basis(2), zip(p.constraint_ops, p.constraint_vals)):
            lhs = np.trace(a @ x).real
            rhs = np.trace(e @ reduced).real
            assert abs(lhs - rhs) < 1e-10


class TestSolve:
    def test_unit_trace_minimum(self):
        p = make_problem([np.eye(2)], [1.0])
        sol = sdp.solve(p)
        assert sol.status == "optimal"
        assert abs(sol.objective_value - 1.0) < 1e-7
        # path following lands on the analytic center of the optimal face
        assert np.abs(sol.x - np.eye(2) / 2).max() < 1e-4

    def test_orthogonal_pure_fixed_points(self):
        # brute-force oracle: every feasible X has tr X = tr[X (I (x) (s0+s1)^T)]
        # = b-total because s0^T + s1^T = I; a feasible witness attains 2.
        s0, s1 = basis_proj(0, 2), basis_proj(1, 2)
        p = sdp.assemble_fixed_point_constraints([s0, s1])
        witness = kron(s0, s0) + kron(s1, s1)
        assert abs(np.trace(witness).real - 2.0) < 1e-15
        sol = sdp.solve(p)
        assert sol.status == "optimal"
        assert abs(sol.objective_value - 2.0) < 1e-6
        assert sol.primal_residual < 1e-7
        resid_op = np.eye(2) - linops.partial_trace(sol.x, (2, 2), over=1)
        assert np.abs(resid_op).max() < 1e-6

    @pytest.mark.parametrize("a, objective", [
        (np.array([[2.0, 1.0j], [-1.0j, 2.0]]), 1.0 / 3.0),
        (np.diag([1.0, 2.0]), 0.5),
    ], ids=["complex", "real"])
    def test_dual_multipliers(self, a, objective):
        # strong duality: b.y equals the optimum and F0^T - sum_k y_k A_k >= 0
        p = make_problem([a], [1.0])
        sol = sdp.solve(p)
        assert sol.status == "optimal"
        assert abs(sol.objective_value - objective) < 1e-7
        assert abs(np.dot(sol.y, p.constraint_vals) - sol.objective_value) < 1e-6
        slack = p.objective.T - sum(y * op for y, op in zip(sol.y, p.constraint_ops))
        assert np.linalg.eigvalsh(slack).min() >= -1e-6

    def test_linearly_inconsistent(self):
        p = make_problem([np.eye(2), np.eye(2)], [1.0, 2.0])
        sol = sdp.solve(p)
        assert sol.status == "infeasible"
        y = sol.infeasibility_certificate
        assert y is not None
        comb = sum(c * a for c, a in zip(y, p.constraint_ops))
        assert np.abs(comb).max() < 1e-9
        assert abs(np.dot(y, p.constraint_vals) - 1.0) < 1e-9

    def test_psd_infeasible_consistent_linear_part(self):
        p = make_problem([np.diag([1.0, 0.0])], [-1.0])
        sol = sdp.solve(p)
        assert sol.status == "infeasible"
        y = sol.infeasibility_certificate
        assert y is not None
        ray = sum(c * a for c, a in zip(y, p.constraint_ops))
        assert np.linalg.eigvalsh(ray).max() <= 1e-6
        assert np.dot(y, p.constraint_vals) > 0.1

    def test_random_feasible_recovery(self, rng):
        for trial in range(8):
            p, x0 = random_feasible_problem(rng, 5, 7, complex_data=trial % 2 == 0)
            sol = sdp.solve(p)
            assert sol.status == "optimal"
            assert sol.objective_value <= np.trace(x0).real + 1e-6
            assert sol.primal_residual <= 1e-7
            assert np.linalg.eigvalsh(sol.x).min() >= -1e-9

    def test_monotone_under_added_constraints(self, rng):
        p_full, _ = random_feasible_problem(rng, 4, 6)
        objs = []
        for m in (2, 4, 6):
            p = make_problem(list(p_full.constraint_ops[:m]), list(p_full.constraint_vals[:m]))
            sol = sdp.solve(p)
            assert sol.status == "optimal"
            objs.append(sol.objective_value)
        assert objs[0] <= objs[1] + 1e-6 <= objs[2] + 2e-6

    def test_max_iter_exhaustion_reports_limit(self, rng):
        p, _ = random_feasible_problem(rng, 6, 8)
        sol = sdp.solve(p, max_iter=1)
        assert sol.status == "numerical-limit"

    def test_empty_face_rejected(self):
        p = make_problem([np.eye(2)], [1.0])
        with pytest.raises(ValueError):
            sdp.solve(p, face=np.zeros((2, 0), dtype=complex))

    def test_non_orthonormal_face_rejected(self):
        p = make_problem([np.eye(2)], [1.0])
        with pytest.raises(ValueError):
            sdp.solve(p, face=np.array([[1.0], [1.0]]))


def largest_psd_step(s, ds, cap=1e6):
    """Largest alpha with s + alpha*ds >= 0, by bisection on eigvalsh
    (inf when the step stays PSD up to ``cap``)."""
    def psd(alpha):
        return np.linalg.eigvalsh(s + alpha * ds).min() >= -1e-12

    if psd(cap):
        return np.inf
    lo, hi = 0.0, cap
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if psd(mid) else (lo, mid)
    return lo


class TestMaxStep:
    """The step-length rule on singular PSD iterates, where Cholesky fails."""

    def test_singular_s_finite_step(self):
        s = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(s)
        # ds is positive on ker s, so the step is finite and positive
        ds = np.array([[-1.0, -1.0, 0.5], [-1.0, 0.5, 0.0], [0.5, 0.0, -1.0]])
        ref = largest_psd_step(s, ds)
        assert 0.5 < ref < 1.0
        assert sdp._max_step(s, ds) == pytest.approx(ref, rel=1e-8)

    def test_singular_s_psd_direction_is_unbounded(self):
        s = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
        ds = np.diag([1.0, 0.5, 2.0])
        assert largest_psd_step(s, ds) == np.inf
        assert sdp._max_step(s, ds) == np.inf

    def test_random_rank_deficient_s(self, rng):
        for _ in range(5):
            g = rng.standard_normal((4, 2))
            s = g @ g.T
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(s)
            w, v = np.linalg.eigh(s)
            ker = v[:, :2]
            h = rng.standard_normal((4, 4))
            h = (h + h.T) / 2
            # positive definite on ker s, so the step is finite and positive
            ds = h + (np.linalg.norm(h, 2) + 1.0) * ker @ ker.T
            assert sdp._max_step(s, ds) == pytest.approx(largest_psd_step(s, ds), rel=1e-8)

    def test_complex_positive_definite_s(self, rng):
        # Cholesky succeeds: exercises the conjugate transpose of L^-1 ds
        for _ in range(5):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            s = g @ g.conj().T + 0.1 * np.eye(4)
            ds = random_hermitian(rng, 4)
            ref = largest_psd_step(s, ds)
            assert np.isfinite(ref)
            assert sdp._max_step(s, ds) == pytest.approx(ref, rel=1e-8)

    def test_complex_singular_s(self, rng):
        # Cholesky fails: exercises G^dag ds G on the eigenvector fallback
        for _ in range(5):
            g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
            s = g @ g.conj().T
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(s)
            _, v = np.linalg.eigh(s)
            ker = v[:, :2]
            h = random_hermitian(rng, 4)
            ds = h + (np.linalg.norm(h, 2) + 1.0) * ker @ ker.conj().T
            assert sdp._max_step(s, ds) == pytest.approx(largest_psd_step(s, ds), rel=1e-8)


class TestComplexHermitianHandling:
    """Solves on complex Hermitian data must reproduce known complex optima."""

    def test_pure_complex_state_fixed_point(self):
        psi = np.array([1.0, 1.0j]) / np.sqrt(2)
        sigma = linops.ket_projector(psi)
        p = sdp.assemble_fixed_point_constraints([sigma])
        sol = sdp.solve(p)
        assert sol.status == "optimal"
        assert abs(sol.objective_value - 1.0) < 1e-6
        expected = kron(sigma, sigma.T)
        assert np.abs(sol.x - expected).max() < 1e-5

    def test_pure_complex_state_on_face_matches_full_solve(self):
        # the face isometry is complex: exercises the conjugation by V and
        # the embedding X = V X' V^dag
        psi = np.array([1.0, 1.0j]) / np.sqrt(2)
        sigma = linops.ket_projector(psi)
        p = sdp.assemble_fixed_point_constraints([sigma])
        v = fixed_point_face([sigma])
        assert np.abs(v.imag).max() > 0.1
        full = sdp.solve(p)
        on_face = sdp.solve(p, face=v)
        assert full.status == on_face.status == "optimal"
        assert abs(full.objective_value - on_face.objective_value) < 1e-7
        assert np.abs(full.x - on_face.x).max() < 1e-5

    def test_single_constraint_top_eigenvalue(self):
        a = np.array([[2.0, 1.0j], [-1.0j, 2.0]])
        p = make_problem([a], [1.0])
        sol = sdp.solve(p)
        assert sol.status == "optimal"
        assert abs(sol.objective_value - 1.0 / 3.0) < 1e-7

    def test_two_commuting_constraints(self):
        # min tr X with tr[P+ X] = 0.6, tr[P- X] = 0.4 in the +/- basis: X diagonal
        # in that basis, optimum = 1 with X = 0.6 P+ + 0.4 P-
        plus = linops.ket_projector(np.array([1.0, 1.0j]) / np.sqrt(2))
        minus = np.eye(2) - plus
        p = make_problem([plus, minus], [0.6, 0.4])
        sol = sdp.solve(p)
        assert sol.status == "optimal"
        assert abs(sol.objective_value - 1.0) < 1e-7
        assert np.abs(sol.x - (0.6 * plus + 0.4 * minus)).max() < 1e-5


class TestAgainstCvxpy:
    def test_random_instances_match(self, rng):
        cp = pytest.importorskip("cvxpy")
        if not hasattr(cp, "CLARABEL"):
            pytest.skip("needs a high-accuracy conic backend")
        for _ in range(3):
            p, _ = random_feasible_problem(rng, 4, 5, complex_data=False)
            x = cp.Variable((4, 4), symmetric=True)
            cons = [x >> 0]
            for a, b in zip(p.constraint_ops, p.constraint_vals):
                cons.append(cp.trace(a.real @ x) == b)
            prob = cp.Problem(cp.Minimize(cp.trace(x)), cons)
            ref = prob.solve(solver=cp.CLARABEL, tol_gap_abs=1e-12,
                             tol_gap_rel=1e-12, tol_feas=1e-12)
            sol = sdp.solve(p)
            assert sol.status == "optimal"
            assert abs(sol.objective_value - ref) < 1e-6


class TestProblemJson:
    def test_roundtrip(self, rng):
        p, _ = random_feasible_problem(rng, 3, 4)
        back = sdp.problem_from_json(sdp.problem_to_json(p))
        assert back.n == p.n
        for a, b in zip(back.constraint_ops, p.constraint_ops):
            assert np.abs(a - b).max() < 1e-15
        assert back.constraint_vals == p.constraint_vals

    def test_solution_json_is_serializable(self):
        import json
        p = make_problem([np.eye(2)], [1.0])
        sol = sdp.solve(p)
        json.dumps(sdp.solution_to_json(sol))

    def test_empty_constraints_rejected(self):
        with pytest.raises(ValueError):
            sdp.SdpProblem(n=2, objective=np.eye(2, dtype=complex),
                           constraint_ops=(), constraint_vals=())
