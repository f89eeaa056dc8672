import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given
from hypothesis import strategies as st

from conekit import linops, sdp
from conekit.conesim import haar_unitary
from conekit.engineer import forced_algebra
from conekit.linops import kron

from conftest import basis_proj, face, random_density, random_hermitian, rotation


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


def conjugated(problem, q):
    """The same problem in the basis of the real orthogonal q: X -> q X q^T
    maps every operator A to q A q^T, the objective included."""
    return make_problem([q @ a @ q.T for a in problem.constraint_ops], problem.constraint_vals,
                        objective=q @ problem.objective @ q.T)


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
        # d^2 trace-preservation rows follow the 2 d^2 fixing rows
        assert p.constraint_ops.shape == (3 * d * d, d * d, d * d)
        assert not p.constraint_ops.flags.writeable
        expected = np.array([np.kron(e, s.T) for s in states for e in basis]
                            + [np.kron(np.eye(d), e) for e in basis])
        assert p.constraint_ops.tobytes() == expected.tobytes()
        assert p.constraint_vals == tuple([float(np.trace(e @ s).real)
                                           for s in states for e in basis]
                                          + [float(np.trace(e).real) for e in basis])

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_real_states_keep_the_real_symmetric_rows(self, rng, d):
        # the kron loop over the d (d + 1) / 2 real elements, bit for bit;
        # every row left out vanishes on a real symmetric X, as does its b
        states = [random_density(rng, d).real.astype(complex) for _ in range(2)]
        real = [e for e in loop_hermitian_basis(d) if not e.imag.any()]
        dropped = [e for e in loop_hermitian_basis(d) if e.imag.any()]
        assert len(real) == d * (d + 1) // 2
        p = sdp.assemble_fixed_point_constraints(states)
        expected = np.array([np.kron(e, s.T) for s in states for e in real]
                            + [np.kron(np.eye(d), e) for e in real])
        assert p.constraint_ops.tobytes() == expected.tobytes()
        assert p.constraint_vals == tuple([float(np.trace(e @ s).real)
                                           for s in states for e in real]
                                          + [float(np.trace(e).real) for e in real])
        g = rng.standard_normal((d * d, d * d))
        x = g @ g.T
        for a in [np.kron(e, s.T) for s in states for e in dropped] + [
                np.kron(np.eye(d), e) for e in dropped]:
            assert abs(np.trace(a @ x)) < 1e-12 * np.abs(x).sum()
        assert all(abs(np.trace(e @ s)) < 1e-15 for s in states for e in dropped)

    def test_single_state_constraint_count_and_witness(self):
        # compressed to its support, a pure state is the 1 x 1 state [1]:
        # one fixing row, one trace row, and sigma (x) sigma^T its witness
        u = forced_algebra([basis_proj(0, 2)]).support
        sigma = u.conj().T @ basis_proj(0, 2) @ u
        p = sdp.assemble_fixed_point_constraints([sigma])
        assert len(p.constraint_ops) == 2
        x = kron(sigma, sigma.T)
        for a, b in zip(p.constraint_ops, p.constraint_vals):
            assert abs(np.trace(a @ x).real - b) < 1e-12

    def test_two_states_witness(self):
        s0, s1 = basis_proj(0, 2), basis_proj(1, 2)
        p = sdp.assemble_fixed_point_constraints([s0, s1])
        assert len(p.constraint_ops) == 9  # real states: 6 fixing rows, 3 trace rows
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

    def test_hermitian_matrices_that_are_not_states_are_assembled(self):
        # every trace-preserving map keeps the traces, and the identity
        # fixes Z and 2 I, so the rows are consistent; tr X is still d
        z = np.diag([1.0, -1.0])
        sol = sdp.solve(sdp.assemble_fixed_point_constraints([z, 2 * np.eye(2)]))
        assert sol.status == "optimal"
        assert abs(sol.objective_value - 2.0) < 1e-7

    @pytest.mark.parametrize("sigmas, message", [
        ([], "non-empty"),
        ([np.eye(2)[:1]], "square"),
        (np.eye(2), "stack"),
        ([np.eye(2), np.eye(3)], None),  # numpy refuses the ragged list
        ([np.array([[0.0, 1.0], [0.0, 0.0]])], "not Hermitian"),
        ([np.full((2, 2), np.nan)], "non-finite"),
    ], ids=["empty", "not-square", "one-matrix", "two-dimensions", "not-hermitian", "nan"])
    def test_malformed_stacks_are_refused(self, sigmas, message):
        with pytest.raises(ValueError, match=message):
            sdp.assemble_fixed_point_constraints(sigmas)


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

    def test_final_feasibility_test_ignores_x_where_the_row_vanishes(self, monkeypatch):
        # rows diag(1e-150, 0) and diag(0, 1e-100) with b = (1e150, -1e100)
        # need X_22 = -1e200: infeasible. At X = diag(1e300, 0) the second
        # row misses b by 1e100, far above the rounding of its terms,
        # though 1e-7 |A_2|_F |X|_F is 1e193
        def ipm(cost, ops, b, max_iter, feas_tol):
            return sdp._IpmResult(x=np.diag([1e300, 0.0]), y=np.zeros(2),
                                  status="optimal", iterations=1, dual_residual=0.0)

        monkeypatch.setattr(sdp, "_solve_hermitian_sdp", ipm)
        p = make_problem([np.diag([1e-150, 0.0]), np.diag([0.0, 1e-100])], [1e150, -1e100])
        sol = sdp.solve(p)
        assert sol.primal_residual == 1e100
        assert sol.status == "numerical-limit"
        assert sol.message.startswith("off the full problem")

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

    def test_nt_scaling_breakdown_returns_a_status(self):
        # X = diag(1, 1e250) spans 250 orders of magnitude: the NT scaling
        # loses its positive definiteness on the way, and the solve must
        # still return its numerical-limit result
        p = make_problem([np.diag([1e100, 0.0]), np.diag([0.0, 1.0])], [1e100, 1e250])
        with np.errstate(over="ignore", invalid="ignore"):
            sol = sdp.solve(p)
        assert sol.status == "numerical-limit"
        assert sol.message == "scaling matrix became singular"
        assert sol.iterations == 11

    @pytest.mark.parametrize("theta", [0.3, 0.7, 1.1])
    def test_nt_scaling_breakdown_on_rotated_rows(self, theta):
        # the witness above in a rotated basis breaks down after as many
        # iterations: the path does not depend on the basis
        q = rotation(theta)
        p = make_problem([q @ np.diag([1e100, 0.0]) @ q.T, q @ np.diag([0.0, 1.0]) @ q.T],
                         [1e100, 1e250])
        with np.errstate(over="ignore", invalid="ignore"):
            sol = sdp.solve(p)
        assert sol.status == "numerical-limit"
        assert sol.message == "scaling matrix became singular"
        assert sol.iterations == 11

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

    @pytest.mark.parametrize("theta", [0.3, 1.1])
    def test_newton_step_overflow_on_rotated_rows(self, theta):
        q = rotation(theta)
        p = make_problem([q @ np.diag([1e-150, 0.0]) @ q.T, q @ np.diag([0.0, 1e-100]) @ q.T],
                         [1e150, -1e100])
        with np.errstate(over="ignore", invalid="ignore"):
            sol = sdp.solve(p)
        assert sol.status == "numerical-limit"
        assert sol.message == "Schur complement became non-finite"

    def test_non_finite_newton_step_returns_a_status(self, monkeypatch):
        # a Schur solve that returns NaN makes every direction NaN, which the
        # step length's eigensolve refuses
        monkeypatch.setattr(sdp, "_schur_solver",
                            lambda schur: lambda rhs: np.full_like(rhs, np.nan))
        sol = sdp.solve(make_problem([np.eye(2)], [1.0]))
        assert sol.status == "numerical-limit"
        assert sol.message == "Newton step became non-finite"

    def test_non_finite_newton_step_on_a_rotated_row(self, monkeypatch):
        # the step length's eigensolve refuses the NaN direction in any basis
        monkeypatch.setattr(sdp, "_schur_solver",
                            lambda schur: lambda rhs: np.full_like(rhs, np.nan))
        q = rotation(0.7)
        sol = sdp.solve(make_problem([q @ np.diag([1.0, 2.0]) @ q.T], [1.0]))
        assert sol.status == "numerical-limit"
        assert sol.message == "Newton step became non-finite"

    def test_non_finite_iterate_returns_a_status(self, monkeypatch):
        # the row -1 (X = 1e10) with dy = 1e300 from every Schur solve: the
        # dual direction rd + 1e300 is PSD, so z takes the full step to
        # about 1e300, while the primal step stays short; the next mu = x z
        # overflows although x, y and z are finite
        monkeypatch.setattr(sdp, "_schur_solver",
                            lambda schur: lambda rhs: np.full_like(rhs, 1e300))
        sol = sdp.solve(make_problem([-np.eye(1)], [-1e10], objective=100.0 * np.eye(1)))
        assert sol.status == "numerical-limit"
        assert sol.message == "iterate became non-finite"
        assert sol.iterations == 2

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

    def test_psd_infeasible_rotated_row(self):
        # the ray test reads the ray's top eigenvalue by an eigensolve
        q = rotation(0.3)
        p = make_problem([q @ np.diag([1.0, 0.0]) @ q.T], [-1.0])
        sol = sdp.solve(p)
        assert sol.status == "infeasible"
        ray = sum(c * a for c, a in zip(sol.infeasibility_certificate, p.constraint_ops))
        assert np.linalg.eigvalsh(ray).max() <= 1e-6

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
        # every channel that fixes sigma has tr X = tr tr_H1[X] = 2: the
        # optimum value, reached at a point that fixes the complex sigma
        psi = np.array([1.0, 1.0j]) / np.sqrt(2)
        sigma = linops.ket_projector(psi)
        p = sdp.assemble_fixed_point_constraints([sigma])
        sol = sdp.solve(p)
        assert sol.status == "optimal"
        assert abs(sol.objective_value - 2.0) < 1e-6
        assert np.abs(linops.partial_trace(sol.x, (2, 2), over=1) - np.eye(2)).max() < 1e-6
        image = linops.partial_trace(sol.x @ kron(np.eye(2), sigma.T), (2, 2), over=2)
        assert np.abs(image - sigma).max() < 1e-6

    def test_pure_complex_state_on_face_matches_full_solve(self):
        # two orthogonal pure states along a complex psi: rho = I/2 is
        # diagonal, so its eigenbasis is the standard one, and the commutant
        # span{P, I - P} is two-dimensional and not closed under complex
        # conjugation. Exercises the conjugation by V and the embedding
        # X = V X' V^dag with a genuinely complex V
        psi = np.array([np.cos(0.3), np.exp(0.7j) * np.sin(0.3)])
        pair = [linops.ket_projector(psi), np.eye(2) - linops.ket_projector(psi)]
        v = face(forced_algebra(pair))
        assert v.shape == (4, 2)
        assert np.linalg.matrix_rank(np.hstack([v, v.conj()]), tol=1e-8) == 3
        p = sdp.assemble_fixed_point_constraints(pair)
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


def real_problem_and_rotation(seed):
    """A random feasible SDP with real symmetric data, and the same problem
    written in the basis of a Haar unitary U: X -> U X U^dag maps the rows
    to U A_k U^dag and, the cost being tr[F0^T X], F0 to conj(U) F0 U^T."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    m = int(rng.integers(1, n * (n + 1) // 2))
    ops = [(g + g.T) / 2 for g in (rng.standard_normal((n, n)) for _ in range(m))]
    g = rng.standard_normal((n, n))
    x0 = g @ g.T + np.eye(n)
    vals = [float(np.trace(a @ x0)) for a in ops]
    g = rng.standard_normal((n, n))
    f0 = g @ g.T
    u = haar_unitary(n, rng)
    rotated = make_problem([u @ a @ u.conj().T for a in ops], vals,
                           objective=np.conj(u) @ f0 @ u.T)
    return make_problem(ops, vals, objective=f0), rotated


class TestUnitaryChangeOfBasis:
    """The NT direction is invariant under X -> U X U^dag, and the start point
    and exit tests read the Hermitian iterates' own norms, so a complex
    change of basis leaves the path unchanged up to rounding."""

    # 27 and 72 read numerical-limit after 17 and 31 iterations, and 37 took
    # 15 iterations against 8, while the exit tests scaled complex data as
    # its real embedding. 40 (both sides) and the rotation of 100 read
    # numerical-limit while rounding in the Newton direction let the
    # iterates drift off the constraints
    @pytest.mark.parametrize("seed", [27, 72, 37, 40, 100])
    def test_rotated_problem_runs_the_same_path(self, seed):
        real, rotated = real_problem_and_rotation(seed)
        assert not real.constraint_ops.imag.any() and rotated.constraint_ops.imag.any()
        a, b = sdp.solve(real), sdp.solve(rotated)
        assert a.status == b.status == "optimal"
        assert abs(a.iterations - b.iterations) <= 1
        assert b.objective_value == pytest.approx(a.objective_value, rel=1e-9)


def one_state_problem(lam):
    return sdp.assemble_fixed_point_constraints([np.diag(lam)])


class TestDiagonalDataInARotatedBasis:
    """Data whose objective and rows are diagonal, or zero on the diagonal
    with b = 0. From xi I the NT scaling stays diagonal, the Schur matrix
    couples no diagonal row to an off-diagonal one and the off-diagonal
    rows' right-hand sides are exactly 0, so the iterates stay diagonal.
    The same problem conjugated by a real orthogonal Q (x) Q, which is not
    diagonal, must reach the same point in as many iterations, up to
    rounding."""

    Q = {r: np.linalg.qr(np.random.default_rng(38).standard_normal((r, r)))[0]
         for r in range(2, 6)}

    @given(r=st.integers(2, 5), seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           repeated=st.booleans())
    @example(r=2, seed=0, repeated=False)
    @example(r=3, seed=1, repeated=True)
    @example(r=4, seed=2, repeated=False)
    @example(r=5, seed=3, repeated=True)
    def test_rotated_one_state_problem_takes_the_same_path(self, r, seed, repeated):
        rng = np.random.default_rng(seed)
        lam = rng.random(r) + 0.1
        if repeated:
            lam[1] = lam[0]
        p = one_state_problem(lam / lam.sum())
        q = np.kron(self.Q[r], self.Q[r])
        a = sdp.solve(p)
        b = sdp.solve(conjugated(p, q))
        assert a.status == b.status == "optimal"
        assert abs(a.iterations - b.iterations) <= 1
        assert np.abs(q.T @ b.x @ q - a.x).max() <= 1e-8

    def test_off_diagonal_row_with_nonzero_b_gives_an_off_diagonal_x(self):
        # tr[(|0><1| + |1><0|) X] = 0.2 needs an off-diagonal X
        sol = sdp.solve(make_problem([np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])], [1.0, 0.2]))
        assert sol.status == "optimal"
        assert sol.x[0, 1] == pytest.approx(0.1, abs=1e-7)

    def test_off_diagonal_zero_b_row_has_y_zero_and_a_diagonal_x(self):
        off = np.array([[0.0, 1.0], [1.0, 0.0]])
        p = make_problem([np.diag([1.0, 2.0]), off], [1.0, 0.0])
        sol = sdp.solve(p)
        assert sol.status == "optimal"
        assert sol.y[1] == 0.0
        assert not (sol.x - np.diag(np.diag(sol.x))).any()
        rotated = sdp.solve(conjugated(p, rotation(0.3)))
        assert rotated.objective_value == pytest.approx(sol.objective_value, abs=1e-7)


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
