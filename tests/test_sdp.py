import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given
from hypothesis import strategies as st

from conekit import linops, sdp
from conekit.engineer import forced_algebra
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


def loop_hermitian_basis(d):
    """Reference: the basis element by element, in the order of the stack."""
    basis = []
    for j in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[j, j] = 1.0
        basis.append(e)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for j in range(d):
        for k in range(j + 1, d):
            e = np.zeros((d, d), dtype=complex)
            e[j, k] = e[k, j] = inv_sqrt2
            basis.append(e)
            e = np.zeros((d, d), dtype=complex)
            e[j, k] = -1j * inv_sqrt2
            e[k, j] = 1j * inv_sqrt2
            basis.append(e)
    return np.array(basis)


class TestAssemble:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_stack_equals_kron_loop_bit_for_bit(self, rng, d):
        states = [random_density(rng, d) for _ in range(2)]
        basis = sdp.hermitian_basis(d)
        assert basis.tobytes() == loop_hermitian_basis(d).tobytes()
        p = sdp.assemble_fixed_point_constraints(states)
        # full-rank states: d^2 trace-preservation rows follow the 2 d^2 fixing rows
        assert p.constraint_ops.shape == (3 * d * d, d * d, d * d)
        assert not p.constraint_ops.flags.writeable
        _, u = sdp.support(np.array(states).mean(axis=0))
        tp_basis = u.conj() @ basis @ u.T
        expected = np.array([np.kron(e, s.T) for s in states for e in basis]
                            + [np.kron(np.eye(d), f) for f in tp_basis])
        assert p.constraint_ops.tobytes() == expected.tobytes()
        assert p.constraint_vals == tuple([float(np.trace(e @ s).real)
                                           for s in states for e in basis]
                                          + [float(np.trace(e).real) for e in basis])

    def test_single_state_constraint_count_and_witness(self):
        sigma = basis_proj(0, 2)
        p = sdp.assemble_fixed_point_constraints([sigma])
        assert len(p.constraint_ops) == 5  # 4 fixing rows, 1 trace row on supp sigma
        x = kron(sigma, sigma)  # sigma real: sigma^T == sigma
        for a, b in zip(p.constraint_ops, p.constraint_vals):
            assert abs(np.trace(a @ x).real - b) < 1e-12

    def test_two_states_witness(self):
        s0, s1 = basis_proj(0, 2), basis_proj(1, 2)
        p = sdp.assemble_fixed_point_constraints([s0, s1])
        assert len(p.constraint_ops) == 12  # 8 fixing rows, 4 trace rows
        x = kron(s0, s0) + kron(s1, s1)
        for a, b in zip(p.constraint_ops, p.constraint_vals):
            assert abs(np.trace(a @ x).real - b) < 1e-12

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

    @staticmethod
    def record_ipm_b(monkeypatch):
        """The b of every IPM call that sdp.solve makes, in a list."""
        received = []
        ipm = sdp._solve_hermitian_sdp

        def spy(cost, ops, b, *args):
            received.append(list(b))
            return ipm(cost, ops, b, *args)

        monkeypatch.setattr(sdp, "_solve_hermitian_sdp", spy)
        return received

    def test_badly_scaled_independent_row_is_kept(self, monkeypatch):
        # rank is judged on rows scaled to unit norm, so the unit row is not
        # lost next to the 1e100 one as a rounding remnant; the IPM solves
        # those scaled rows, b_k / |A_k|_F, and y is mapped back to the raw ones
        received = self.record_ipm_b(monkeypatch)
        p = make_problem([np.diag([1e100, 0.0]), np.diag([0.0, 1.0])], [1e100, 1.0])
        sol = sdp.solve(p)
        assert received == [[1.0, 1.0]]
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(2.0, abs=1e-7)
        assert sol.y == pytest.approx([1e-100, 1.0], rel=1e-6)

    def test_kept_rows_are_chosen_on_scaled_rows(self, monkeypatch, rng):
        # A3 = 3 A1 and both dwarf A2: a pivoted QR of the raw rows keeps the
        # dependent pair A1, A3 and drops A2; on the scaled rows A2 stays
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        p0, p1 = np.outer(q[:, 0], q[:, 0]), np.outer(q[:, 1], q[:, 1])
        ops = [1e100 * p0, p1, 3e100 * p0]
        received = self.record_ipm_b(monkeypatch)
        sol = sdp.solve(make_problem(ops, [1e100, 1.0, 3e100]))  # X = I is feasible
        assert len(received) == 1 and received[0] == pytest.approx([1.0, 1.0], rel=1e-12)
        # optimal though the raw residual of the 1e100 rows reads about 1e84,
        # 4e-16 of their scale
        assert sol.status == "optimal"
        # the dropped row has multiplier 0, and A2 keeps its multiplier 1
        assert sorted([sol.y[0] == 0.0, sol.y[2] == 0.0]) == [False, True]
        assert sol.y[1] == pytest.approx(1.0, rel=1e-6)
        assert np.dot(sol.y, [1e100, 1.0, 3e100]) == pytest.approx(2.0, rel=1e-6)

    @pytest.mark.parametrize("error, status", [(1e-9, "optimal"), (1e-6, "numerical-limit")])
    def test_final_feasibility_test_is_relative_to_the_row_scale(self, monkeypatch, error, status):
        # the IPM returns X = diag(1 + error, 1) for rows 1e100 |0><0| and |1><1|:
        # the raw residual of the first is error * 1e100, its relative one error
        def ipm(cost, ops, b, max_iter, feas_tol):
            return sdp._IpmResult(x=np.diag([1.0 + error, 1.0]), y=np.ones(2),
                                  status="optimal", iterations=1, dual_residual=0.0)

        monkeypatch.setattr(sdp, "_solve_hermitian_sdp", ipm)
        sol = sdp.solve(make_problem([np.diag([1e100, 0.0]), np.diag([0.0, 1.0])], [1e100, 1.0]))
        assert sol.primal_residual == pytest.approx(error * 1e100, rel=1e-6)
        assert sol.status == status

    def test_badly_scaled_inconsistency_is_certified(self):
        p = make_problem([np.diag([1e100, 0.0]), np.diag([2e100, 0.0])],
                         [1e100, 2e100 * (1.0 + 1e-6)])
        sol = sdp.solve(p)
        assert sol.status == "infeasible"
        y = sol.infeasibility_certificate
        comb = sum(c * a for c, a in zip(y, p.constraint_ops))
        assert np.abs(comb).max() <= 1e-9 * 1e100 * np.abs(y).max()
        assert np.dot(y, p.constraint_vals) == pytest.approx(1.0, rel=1e-9)

    def test_zero_row_with_zero_b_is_dropped(self, monkeypatch):
        # a zero operator has norm 0: it must stay a zero row in the scaled
        # rank test, not turn into 0/0
        received = self.record_ipm_b(monkeypatch)
        p = make_problem([np.zeros((2, 2)), np.eye(2)], [0.0, 1.0])
        sol = sdp.solve(p)
        assert received == [[1.0 / np.sqrt(2.0)]]  # b / |I|_F
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(1.0, abs=1e-7)
        assert sol.y[0] == 0.0
        assert sol.y[1] == pytest.approx(1.0, rel=1e-6)

    def test_zero_row_with_nonzero_b_is_certified(self):
        p = make_problem([np.eye(2), np.zeros((2, 2))], [1.0, 1.0])
        sol = sdp.solve(p)
        assert sol.status == "infeasible"
        assert sol.message == "constraints are linearly inconsistent"
        y = sol.infeasibility_certificate
        comb = sum(c * a for c, a in zip(y, p.constraint_ops))
        assert np.abs(comb).max() < 1e-12
        assert np.dot(y, p.constraint_vals) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("face", [None, np.eye(3)[:, :2]])
    def test_rank_zero_with_psd_objective_is_solved_without_the_ipm(self, monkeypatch, face):
        # every row zero and every b zero: min tr[F0 X] over X >= 0 is 0 at X = 0
        received = self.record_ipm_b(monkeypatch)
        p = make_problem([np.zeros((3, 3))] * 2, [0.0, 0.0], objective=np.diag([1.0, 2.0, 0.0]))
        sol = sdp.solve(p, face=face)
        assert received == []
        assert sol.status == "optimal" and sol.iterations == 0
        assert sol.objective_value == 0.0 and sol.primal_residual == 0.0
        assert sol.rank == 0 and not sol.x.any()
        assert sol.y.tolist() == [0.0, 0.0]

    def test_rank_zero_with_indefinite_objective_is_unbounded(self, monkeypatch):
        received = self.record_ipm_b(monkeypatch)
        p = make_problem([np.zeros((2, 2))], [0.0], objective=np.diag([1.0, -0.5]))
        sol = sdp.solve(p)
        assert received == []
        assert sol.status == "numerical-limit"
        assert sol.message.startswith("objective is unbounded below")

    def test_non_finite_projection_returns_a_status(self):
        # X = diag(1, 1e250) spans 250 orders of magnitude: the NT scaling
        # loses its positive definiteness on the way, and the solve must
        # still return its numerical-limit result
        p = make_problem([np.diag([1e100, 0.0]), np.diag([0.0, 1.0])], [1e100, 1e250])
        with np.errstate(over="ignore", invalid="ignore"):
            sol = sdp.solve(p)
        assert sol.status == "numerical-limit"
        assert sol.message == "scaling matrix became singular"

    def test_tiny_row_with_huge_b_returns_a_status(self):
        # X = b / a < 0 is infeasible; scaled to unit norm the row reads
        # X = -1e215, and the centering ratio mu_aff / mu must not overflow
        # when cubed
        p = make_problem([np.array([[1.2e-105]])], [-1.2e110])
        with np.errstate(over="ignore", invalid="ignore"):
            sol = sdp.solve(p)
        assert sol.status in ("infeasible", "numerical-limit")

    def test_newton_step_overflow_returns_a_status(self):
        # X = diag(1e300, -1e200): the Schur matrix of a Newton step
        # overflows from finite iterates
        p = make_problem([np.diag([1e-150, 0.0]), np.diag([0.0, 1e-100])], [1e150, -1e100])
        with np.errstate(over="ignore", invalid="ignore"):
            sol = sdp.solve(p)
        assert sol.status == "numerical-limit"
        assert sol.message == "Schur complement became non-finite"

    def test_solution_past_float_range_is_a_numerical_limit(self):
        # |X| >= 1e250 / 1e-200 is past the float range
        p = make_problem([np.array([[1e-200]])], [-1e250])
        sol = sdp.solve(p)
        assert sol.status == "numerical-limit"
        assert sol.message == "a constraint's scale is past the floating-point range"

    def test_rows_past_gram_overflow_are_solved(self):
        # the raw rows' Gram matrix overflows; the IPM sees unit-norm rows
        p = make_problem([np.diag([1e160, 0.0]), np.diag([0.0, 1.0])], [1e160, 1.0])
        sol = sdp.solve(p)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(2.0, abs=1e-7)
        assert np.abs(sol.x - np.eye(2)).max() < 1e-6

    def test_non_finite_ipm_iterate_returns_a_status(self, monkeypatch):
        def overflowed(cost, ops, b, max_iter, feas_tol):
            x = np.full((2, 2), np.inf)
            return sdp._IpmResult(x=x, y=np.zeros(len(b)), status="numerical-limit",
                                  iterations=3, dual_residual=np.inf,
                                  message="iterate became non-finite")

        monkeypatch.setattr(sdp, "_solve_hermitian_sdp", overflowed)
        with np.errstate(over="ignore", invalid="ignore"):
            sol = sdp.solve(make_problem([np.eye(2)], [1.0]))
        assert sol.status == "numerical-limit"
        assert sol.message == "iterate became non-finite"
        assert sol.rank == 0

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


def largest_psd_step(s, ds, cap=1e6, tol=1e-12):
    """Largest alpha with s + alpha*ds >= 0 (eigenvalues down to -tol), by
    bisection on eigvalsh (inf when the step stays PSD up to ``cap``)."""
    def psd(alpha):
        return np.linalg.eigvalsh(s + alpha * ds).min() >= -tol

    if psd(cap):
        return np.inf
    lo, hi = 0.0, cap
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if psd(mid) else (lo, mid)
    return lo


def eig_factor(s):
    """g = V w^-1/2 from s = V diag(w) V^dag, w clipped at 1e-14 as the NT
    scaling clips z; g^dag s g = I wherever w is above the clip."""
    w, v = np.linalg.eigh(s)
    return v / np.sqrt(np.clip(w, 1e-14, None))


class TestMaxStep:
    """The step-length rule in factor form, g^dag s g = I, on singular and
    complex iterates."""

    def test_singular_s_finite_step(self):
        s = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(s)
        # ds is positive on ker s, so the step is finite and positive
        ds = np.array([[-1.0, -1.0, 0.5], [-1.0, 0.5, 0.0], [0.5, 0.0, -1.0]])
        ref = largest_psd_step(s, ds)
        assert 0.5 < ref < 1.0
        assert sdp._max_step(eig_factor(s), ds) == pytest.approx(ref, rel=1e-8)

    def test_singular_s_psd_direction_is_unbounded(self):
        s = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
        ds = np.diag([1.0, 0.5, 2.0])
        assert largest_psd_step(s, ds) == np.inf
        assert sdp._max_step(eig_factor(s), ds) == np.inf

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
            assert sdp._max_step(eig_factor(s), ds) == pytest.approx(
                largest_psd_step(s, ds), rel=1e-8)

    def test_complex_positive_definite_s(self, rng):
        # g = L^-dag from s = L L^dag is not Hermitian: exercises g^dag
        for _ in range(5):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            s = g @ g.conj().T + 0.1 * np.eye(4)
            ds = random_hermitian(rng, 4)
            ref = largest_psd_step(s, ds)
            assert np.isfinite(ref)
            factor = np.linalg.inv(np.linalg.cholesky(s)).conj().T
            assert sdp._max_step(factor, ds) == pytest.approx(ref, rel=1e-8)

    def test_complex_singular_s(self, rng):
        for _ in range(5):
            g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
            s = g @ g.conj().T
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(s)
            _, v = np.linalg.eigh(s)
            ker = v[:, :2]
            h = random_hermitian(rng, 4)
            ds = h + (np.linalg.norm(h, 2) + 1.0) * ker @ ker.conj().T
            assert sdp._max_step(eig_factor(s), ds) == pytest.approx(
                largest_psd_step(s, ds), rel=1e-8)


def random_pd(rng, n, complex_data, eigs):
    """Q diag(eigs) Q^dag for a random unitary (orthogonal when real) Q."""
    g = rng.standard_normal((n, n))
    if complex_data:
        g = g + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    return (q * eigs) @ q.conj().T


class TestNtScaling:
    """The NT scaling's identities and step lengths, to rounding amplified by
    kappa = cond(x) cond(z): measured below 20 eps kappa for n <= 6, allowed
    up to 1e3 eps kappa."""

    @given(n=st.integers(1, 6), complex_data=st.booleans(),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           kind=st.sampled_from(["random", "x=z", "identity"]), x_min=st.floats(1e-3, 1.0))
    @example(n=4, complex_data=True, seed=0, kind="random", x_min=1e-12)
    @example(n=4, complex_data=False, seed=0, kind="random", x_min=1e-12)
    @example(n=5, complex_data=True, seed=0, kind="x=z", x_min=1.0)
    @example(n=3, complex_data=False, seed=0, kind="identity", x_min=1.0)
    def test_identities_and_step_lengths(self, n, complex_data, seed, kind, x_min):
        rng = np.random.default_rng(seed)
        if kind == "identity":
            x = z = np.eye(n, dtype=complex if complex_data else float)
        else:
            z = random_pd(rng, n, complex_data, rng.uniform(1e-3, 1.0, n))
            x_eigs = np.concatenate([[x_min], rng.uniform(x_min, 1.0, n - 1)])
            x = z.copy() if kind == "x=z" else random_pd(rng, n, complex_data, x_eigs)
        w, zinv, g_x, g_z = sdp._nt_scaling(x, z)
        tol = 1e3 * np.finfo(float).eps * np.linalg.cond(x) * np.linalg.cond(z)
        eye = np.eye(n)
        assert np.abs(w @ z @ w - x).max() <= tol * np.abs(x).max()
        assert np.abs(g_x.conj().T @ x @ g_x - eye).max() <= tol
        assert np.abs(g_z.conj().T @ z @ g_z - eye).max() <= tol
        assert np.abs(z @ zinv - eye).max() <= tol
        for g, s in ((g_x, x), (g_z, z)):
            ds = rng.standard_normal((n, n))
            if complex_data:
                ds = ds + 1j * rng.standard_normal((n, n))
            ds = ds + ds.conj().T
            assert sdp._max_step(g, ds) == pytest.approx(largest_psd_step(s, ds, tol=0.0),
                                                         rel=tol)

    def test_singular_z_is_reported(self):
        assert sdp._nt_scaling(np.eye(2), np.diag([1.0, 0.0])) is None
        assert sdp._nt_scaling(np.eye(2), np.diag([1.0, -1e-3])) is None


def random_symmetric(rng, n, complex_data):
    return random_hermitian(rng, n) if complex_data else random_hermitian(rng, n).real


def eigenspace_projectors(w, v, gap):
    """Projectors onto the eigenspaces of ascending w, eigenvalues closer
    than ``gap`` sharing one."""
    groups = np.split(np.arange(w.size), np.flatnonzero(np.diff(w) > gap) + 1)
    return [v[:, g] @ v[:, g].conj().T for g in groups]


class TestLapackKernels:
    """_eigh and _schur_solver call LAPACK directly. _schur_solver must agree
    bit for bit with cho_solve, which calls the same scipy LAPACK routines.
    _eigh is checked against numpy, which links its own LAPACK build (bit
    equality between two builds is not guaranteed), to rounding: eigenvalues
    within 8 n eps |a| and the projectors onto the eigenspaces within 1e-9."""

    @pytest.mark.parametrize("complex_data", [False, True])
    @pytest.mark.parametrize("n", range(1, 17))
    def test_eigh_matches_numpy(self, rng, n, complex_data):
        g = rng.standard_normal((n, -(-n // 2)))
        if complex_data:
            g = g + 1j * rng.standard_normal(g.shape)
        mats = [random_symmetric(rng, n, complex_data) for _ in range(3)]
        mats.append(g @ g.conj().T)  # rank ceil(n/2)
        mats.append(random_pd(rng, n, complex_data, np.repeat([0.5, 2.0], n)[:n]))  # repeated
        mats.append(np.eye(n, dtype=complex if complex_data else float))
        for a in mats:
            w, v = sdp._eigh(a, 1)
            w_ref, v_ref = np.linalg.eigh(a)
            assert w.dtype == w_ref.dtype and v.dtype == v_ref.dtype
            scale = max(1.0, float(np.abs(w_ref).max()))
            tol = 8 * n * np.finfo(float).eps * scale
            assert np.abs(w - w_ref).max() <= tol
            assert np.abs(sdp._eigh(a, 0)[0] - np.linalg.eigvalsh(a)).max() <= tol
            assert np.abs(v.conj().T @ v - np.eye(n)).max() <= 1e-12
            for p, p_ref in zip(eigenspace_projectors(w_ref, v, 1e-6 * scale),
                                eigenspace_projectors(w_ref, v_ref, 1e-6 * scale)):
                assert np.abs(p - p_ref).max() <= 1e-9

    @pytest.mark.parametrize("compute_v", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_eigh_rejects_non_finite(self, compute_v, bad, dtype):
        # LAPACK itself returns finite garbage here with info 0
        a = np.eye(3, dtype=dtype)
        a[1, 2] = a[2, 1] = bad
        with pytest.raises(np.linalg.LinAlgError):
            sdp._eigh(a, compute_v)

    @pytest.mark.parametrize("m", [1, 2, 3, 8, 17, 32, 40])
    def test_schur_solver_matches_cho_solve_bit_for_bit(self, rng, m):
        for _ in range(3):
            g = rng.standard_normal((m, m))
            schur = sdp._sym(g @ g.T + 1e-3 * np.eye(m))
            rhs = rng.standard_normal(m)
            chol = scipy.linalg.cho_factor(schur + 1e-13 * np.trace(schur) / m * np.eye(m))
            ref = scipy.linalg.cho_solve(chol, rhs)
            ref += scipy.linalg.cho_solve(chol, rhs - schur @ ref)
            assert sdp._schur_solver(schur)(rhs).tobytes() == ref.tobytes()

    def test_schur_solver_falls_back_to_least_squares(self):
        schur = np.diag([2.0, -1.0, 0.0])
        rhs = np.array([1.0, 1.0, 1.0])
        ref = np.linalg.lstsq(schur, rhs, rcond=None)[0]
        assert sdp._schur_solver(schur)(rhs).tobytes() == ref.tobytes()


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
        v = forced_algebra([sigma]).face
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

    @pytest.mark.parametrize("change, message", [
        (dict(n=0), "variable dimension must be positive"),
        (dict(constraint_vals=(1.0, 2.0)), "differ in length"),
        (dict(objective=np.eye(3)), "objective dimension"),
        (dict(constraint_ops=(np.eye(2), np.eye(3)), constraint_vals=(1.0, 1.0)),
         r"constraint 1 has dimension \(3, 3\), expected 2"),
        (dict(constraint_ops=(np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]])),
              constraint_vals=(1.0, 1.0)), r"constraint 1 is not Hermitian \(defect 1"),
        (dict(constraint_ops=(np.diag([1.0, np.inf]),)), "non-finite"),
        (dict(constraint_vals=(np.nan,)), "constraint values contain non-finite"),
        (dict(constraint_vals=(-np.inf,)), "constraint values contain non-finite"),
    ], ids=["n-zero", "length-mismatch", "objective-shape", "constraint-shape",
            "non-hermitian", "non-finite", "nan-value", "infinite-value"])
    def test_malformed_problem_rejected(self, change, message):
        args = dict(n=2, objective=np.eye(2), constraint_ops=(np.eye(2),), constraint_vals=(1.0,))
        with pytest.raises(ValueError, match=message):
            sdp.SdpProblem(**{**args, **change})

    def test_empty_constraints_rejected(self):
        with pytest.raises(ValueError):
            sdp.SdpProblem(n=2, objective=np.eye(2, dtype=complex),
                           constraint_ops=(), constraint_vals=())
