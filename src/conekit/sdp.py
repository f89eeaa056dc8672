"""Small dense semidefinite programming over Hermitian matrix variables.

Solves

    minimize    tr[F0^T X]
    subject to  tr[A_k X] = b_k,   k = 1..m
                X >= 0  (PSD),

with Hermitian data. ``solve`` is the single entry point and runs one
path:

1. optionally restrict X to a caller-supplied face X = V X' V^dag
   (facial reduction: when the constraints force X onto a face of the
   PSD cone, the restricted problem regains a strictly feasible point);
2. reduce the constraint set to full row rank, returning an exact Farkas
   certificate when it is linearly inconsistent;
3. run a primal-dual path-following method with Nesterov-Todd scaling
   and Mehrotra-style adaptive centering (an affine predictor step fixes
   the centering weight of the actual step);
4. apply one least-norm affine projection onto the constraints, kept only
   while the iterate stays PSD within PSD_TOL, and map the result back
   through the face.

The iterates are Hermitian matrices of one dtype, inner products are
Re tr[A^dag X]: real when the objective and every constraint (after
conjugation by the face) are real, complex otherwise. Residuals,
eigenvalues, rank and status always refer to the full problem, and y
holds the dual multipliers of the full constraint list. Instances here
are tiny (n <= ~25, m <= ~60), so the implementation uses dense
eigendecompositions everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import linops
from .linops import PSD_TOL, hermitize, kron

FEAS_TOL = 1e-7
MAX_ITER = 200

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_NUMERICAL_LIMIT = "numerical-limit"


class NumericalLimitError(RuntimeError):
    """The solver stopped without reaching its tolerances."""


@dataclass(frozen=True)
class SdpProblem:
    """min tr[F0^T X] over PSD X subject to tr[A_k X] = b_k."""

    n: int
    objective: np.ndarray                 # F0, Hermitian n x n
    constraint_ops: tuple[np.ndarray, ...]
    constraint_vals: tuple[float, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("variable dimension must be positive")
        if len(self.constraint_ops) == 0:
            raise ValueError("constraint list must be non-empty")
        if len(self.constraint_ops) != len(self.constraint_vals):
            raise ValueError("constraint operators and values differ in length")
        f0 = linops.check_hermitian(self.objective)
        if f0.shape != (self.n, self.n):
            raise ValueError("objective dimension does not match n")
        ops = []
        for k, a in enumerate(self.constraint_ops):
            m = linops.check_hermitian(a)
            if m.shape != (self.n, self.n):
                raise ValueError(f"constraint {k} has dimension {m.shape}, expected {self.n}")
            ops.append(m)
        object.__setattr__(self, "objective", f0)
        object.__setattr__(self, "constraint_ops", tuple(ops))
        object.__setattr__(self, "constraint_vals", tuple(float(v) for v in self.constraint_vals))


@dataclass
class SdpSolution:
    x: np.ndarray
    objective_value: float     # tr[F0^T X], the minimized cost
    primal_residual: float     # max_k |tr[A_k X] - b_k| over the full constraint set
    dual_residual: float       # relative dual infeasibility at exit
    status: str
    iterations: int = 0
    y: np.ndarray | None = None
    rank: int | None = None
    infeasibility_certificate: np.ndarray | None = None
    message: str = ""


def hermitian_basis(d: int) -> list[np.ndarray]:
    """Orthonormal (Frobenius) basis of d x d Hermitian matrices, d**2 elements."""
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
    return basis


def assemble_fixed_point_constraints(sigmas) -> SdpProblem:
    """Build the minimum-trace SDP whose PSD variable leaves every given
    state invariant: tr[(E (x) sigma^T) X] = tr[E sigma] over a Hermitian
    basis E of the output space, objective F0 = I.

    Exactly-equal constraint rows (operator and value) are deduplicated.
    """
    states = [linops.check_density(s) for s in sigmas]
    if not states:
        raise ValueError("need at least one state")
    d = states[0].shape[0]
    for s in states:
        if s.shape != (d, d):
            raise ValueError("states must share one dimension")
    ops: list[np.ndarray] = []
    vals: list[float] = []
    for sigma in states:
        for e in hermitian_basis(d):
            a = kron(e, sigma.T)
            b = float(np.trace(e @ sigma).real)
            duplicate = any(
                np.array_equal(a, a_prev) and b == b_prev
                for a_prev, b_prev in zip(ops, vals)
            )
            if not duplicate:
                ops.append(a)
                vals.append(b)
    n = d * d
    return SdpProblem(n=n, objective=np.eye(n, dtype=complex),
                      constraint_ops=tuple(ops), constraint_vals=tuple(vals))


# ----------------------------------------------------------------------
# Interior-point core (Hermitian data, real or complex dtype)
# ----------------------------------------------------------------------

def _sym(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2.0


def _max_entry(m: np.ndarray) -> float:
    """Largest |Re| or |Im| over the entries of m."""
    return max(float(np.abs(m.real).max(initial=0.0)), float(np.abs(m.imag).max(initial=0.0)))


def _max_step(s: np.ndarray, ds: np.ndarray) -> float:
    """Largest alpha with s + alpha*ds >= 0, via eigenvalues of L^-1 ds L^-dag.

    When s is too close to singular for a Cholesky factor, G = V w^-1/2
    from s = V diag(w) V^dag (w clipped at 1e-14) gives G^dag ds G, which
    is similar to s^-1/2 ds s^-1/2 and so has the same eigenvalues.
    """
    try:
        low = np.linalg.cholesky(s)
        m1 = scipy.linalg.solve_triangular(low, ds, lower=True)
        m2 = scipy.linalg.solve_triangular(low, m1.conj().T, lower=True)
    except np.linalg.LinAlgError:
        w, v = np.linalg.eigh(s)
        g = v / np.sqrt(np.clip(w, 1e-14, None))
        m2 = g.conj().T @ ds @ g
    lam_min = float(np.linalg.eigvalsh(_sym(m2)).min())
    if lam_min >= -1e-14:
        return np.inf
    return -1.0 / lam_min


def _nt_scaling(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """W > 0 with W Z W = X."""
    wz, vz = np.linalg.eigh(z)
    wz = np.clip(wz, 1e-14, None)
    z_half = (vz * np.sqrt(wz)) @ vz.conj().T
    z_ihalf = (vz / np.sqrt(wz)) @ vz.conj().T
    b = _sym(z_half @ x @ z_half)
    wb, vb = np.linalg.eigh(b)
    wb = np.clip(wb, 1e-16, None)
    b_half = (vb * np.sqrt(wb)) @ vb.conj().T
    return _sym(z_ihalf @ b_half @ z_ihalf)


@dataclass
class _IpmResult:
    x: np.ndarray
    y: np.ndarray
    status: str
    iterations: int
    dual_residual: float
    message: str = ""


def _solve_hermitian_sdp(cost: np.ndarray, ops: np.ndarray, b: np.ndarray,
                         max_iter: int, feas_tol: float) -> _IpmResult:
    """Path following on Hermitian n x n iterates of the dtype of ``ops``
    (m x n x n); ``cost`` and ``ops`` share it."""
    n = cost.shape[0]
    m = ops.shape[0]
    rows = ops.reshape(m, -1)
    rows_h = rows.conj()
    # Start point and exit tests keep the scale of the real embedding
    # [Re, -Im; Im, Re] they were tuned on (dimension, inner products and b
    # doubled): several engineered channels have min eig C within 1e-8 of PSD_TOL.
    emb = 2.0 if np.iscomplexobj(rows) else 1.0
    dim = emb * n
    a_norms = np.sqrt(emb) * np.linalg.norm(rows, axis=1)
    xi_p = max(1.0, np.sqrt(dim), np.sqrt(dim) * float(np.max(emb * np.abs(b) / (1.0 + a_norms))))
    xi_d = max(1.0, np.sqrt(dim),
               (np.sqrt(emb) * float(np.linalg.norm(cost)) + float(a_norms.max())) / np.sqrt(dim))
    x = xi_p * np.eye(n, dtype=rows.dtype)
    z = xi_d * np.eye(n, dtype=rows.dtype)
    y = np.zeros(m)

    def op_a(mat: np.ndarray) -> np.ndarray:
        return (rows_h @ mat.ravel()).real

    def op_at(vec: np.ndarray) -> np.ndarray:
        return (vec @ rows).reshape(n, n)

    def inner(p: np.ndarray, q: np.ndarray) -> float:
        return float(np.vdot(p, q).real)

    gram_pinv = np.linalg.pinv((rows_h @ rows.T).real, rcond=1e-12)

    b_scale = 1.0 + emb * float(np.abs(b).max(initial=0.0))
    c_scale = 1.0 + _max_entry(cost)
    target = 0.1 * feas_tol

    def converged(rp, rd, pobj, dobj, tol):
        pinf_abs = emb * float(np.abs(rp).max(initial=0.0))
        pinf = pinf_abs / b_scale
        dinf = _max_entry(rd) / c_scale
        gap = emb * abs(pobj - dobj) / (1.0 + emb * (abs(pobj) + abs(dobj)))
        ok = (pinf <= tol and dinf <= tol and gap <= tol
              and pinf_abs <= 0.5 * feas_tol)
        return ok, pinf, dinf, gap

    status = STATUS_NUMERICAL_LIMIT
    message = ""
    dinf = np.inf
    it = 0
    stalls = 0
    best_mu = np.inf
    best_gap = np.inf
    for it in range(1, max_iter + 1):
        rp = b - op_a(x)
        rd = cost - z - op_at(y)
        mu = inner(x, z) / n
        pobj = inner(cost, x)
        dobj = float(b @ y)
        done, pinf, dinf, gap = converged(rp, rd, pobj, dobj, target)
        if done:
            status = STATUS_OPTIMAL
            break

        # Farkas-style test for a dual improving ray (primal infeasibility).
        ynorm = float(np.linalg.norm(y))
        if emb * dobj > 1.0 and ynorm > 1e4 * b_scale:
            ray = y / dobj
            lam_max = float(np.linalg.eigvalsh(_sym(op_at(ray))).max())
            if lam_max <= emb * 1e-7 * (1.0 + float(a_norms.max())):
                return _IpmResult(x=x, y=ray, status=STATUS_INFEASIBLE, iterations=it,
                                  dual_residual=dinf,
                                  message="dual improving ray found (primal infeasible)")

        w = _nt_scaling(x, z)
        try:
            zinv = np.linalg.inv(z)
        except np.linalg.LinAlgError:
            message = "scaling matrix became singular"
            break
        zinv = _sym(zinv)

        waw = (w @ ops @ w).reshape(m, -1)
        schur = _sym((rows_h @ waw.T).real)
        w_rd_w = _sym(w @ rd @ w)
        try:
            chol = scipy.linalg.cho_factor(schur + 1e-13 * np.trace(schur) / m * np.eye(m))

            def schur_solve(rhs):
                dy = scipy.linalg.cho_solve(chol, rhs)
                dy += scipy.linalg.cho_solve(chol, rhs - schur @ dy)  # one refinement
                return dy
        except (scipy.linalg.LinAlgError, np.linalg.LinAlgError):

            def schur_solve(rhs):
                return np.linalg.lstsq(schur, rhs, rcond=None)[0]

        def newton(rc: np.ndarray):
            rhs = rp - op_a(rc) + op_a(w_rd_w)
            dy = schur_solve(rhs)
            dz = rd - op_at(dy)
            dx = _sym(rc - w @ dz @ w)
            return dx, dy, dz

        # predictor: affine step fixes the centering weight
        dx_a, dy_a, dz_a = newton(-x)
        ap = min(1.0, 0.98 * _max_step(x, dx_a))
        ad = min(1.0, 0.98 * _max_step(z, dz_a))
        mu_aff = inner(x + ap * dx_a, z + ad * dz_a) / n
        sigma = min(1.0, max(1e-8, (max(mu_aff, 0.0) / mu) ** 3))

        dx, dy, dz = newton(sigma * mu * zinv - x)
        ap = min(1.0, 0.98 * _max_step(x, dx))
        ad = min(1.0, 0.98 * _max_step(z, dz))
        if min(ap, ad) < 0.05:
            # drifting off the central path: take a centering step instead
            sigma = max(sigma, 0.5)
            dx, dy, dz = newton(sigma * mu * zinv - x)
            ap = min(1.0, 0.98 * _max_step(x, dx))
            ad = min(1.0, 0.98 * _max_step(z, dz))
        x = _sym(x + ap * dx)
        y = y + ad * dy
        z = _sym(z + ad * dz)
        # stagnation: no meaningful progress on mu or the gap for a while
        if mu < best_mu * 0.99 or gap < best_gap * 0.99:
            stalls = 0
        else:
            stalls += 1
            if stalls >= 8:
                message = "progress stalled"
                break
        best_mu = min(best_mu, mu)
        best_gap = min(best_gap, gap)
        if mu < 1e-15:
            break
    # One least-norm affine projection onto the constraints: on the edge
    # of the cone the path-following residual bottoms out, and its product
    # with the large dual multipliers would otherwise poison the gap.
    cand = _sym(x + op_at(gram_pinv @ (b - op_a(x))))
    if float(np.linalg.eigvalsh(cand).min()) >= -PSD_TOL:
        x = cand

    if status != STATUS_OPTIMAL:
        message = message or "iteration limit reached"
    rp = b - op_a(x)
    rd = cost - z - op_at(y)
    pobj = inner(cost, x)
    dobj = float(b @ y)
    done, pinf, dinf, gap = converged(rp, rd, pobj, dobj, feas_tol)
    if done:
        status = STATUS_OPTIMAL
        message = ""
    return _IpmResult(x=x, y=y, status=status, iterations=it, dual_residual=dinf,
                      message=message)


# ----------------------------------------------------------------------
# Public solve
# ----------------------------------------------------------------------

def solve(problem: SdpProblem, max_iter: int = MAX_ITER, feas_tol: float = FEAS_TOL,
          face: np.ndarray | None = None) -> SdpSolution:
    """Solve ``problem`` by the one path of the module docstring.

    ``max_iter`` caps the interior-point iterations. ``feas_tol`` bounds
    the absolute constraint violation of a solution reported optimal.
    ``face`` optionally restricts the variable to a known support: an
    isometry V (n x n', n' >= 1, orthonormal columns) with X = V X' V^dag.
    Callers use it when the constraints provably force X onto a face of
    the PSD cone (no strictly feasible point exists there, which starves
    interior methods); the restricted problem regains an interior.

    The returned x, primal_residual (the max absolute constraint violation
    over the full, pre-reduction constraint set), rank and status refer to
    the full problem.
    """
    n = problem.n
    m = len(problem.constraint_ops)
    ops_c = np.array(problem.constraint_ops)
    b_c = np.asarray(problem.constraint_vals, dtype=float)
    cost_c = np.conj(problem.objective)  # F0^T == conj(F0) for Hermitian F0

    v = None
    ops_f, cost_f = ops_c, cost_c
    if face is not None:
        v = np.asarray(face, dtype=complex)
        if v.ndim != 2 or v.shape[0] != n or v.shape[1] < 1:
            raise ValueError(f"face isometry must be {n} x n' with n' >= 1, got {v.shape}")
        if linops.max_abs(linops.dagger(v) @ v - np.eye(v.shape[1])) > 1e-10:
            raise ValueError("face columns must be orthonormal")
        # tr[C V X' V^dag] = tr[(V^dag C V) X'] conjugates every operator by V
        ops_f = np.array([hermitize(linops.dagger(v) @ a @ v) for a in ops_c])
        cost_f = hermitize(linops.dagger(v) @ cost_c @ v)

    data = np.concatenate([cost_f[None], ops_f])
    if not data.imag.any():
        data = data.real.copy()
    cost_f, ops_f = data[0], data[1:]
    # the real coordinates of the rows: their dot products are Re tr[A_k^dag A_l]
    rows = ops_f.reshape(m, -1).view(float)

    # Linear consistency and rank reduction of the constraint set.
    u, sv, _ = np.linalg.svd(rows, full_matrices=True)
    smax = sv[0] if sv.size else 0.0
    rank = int(np.sum(sv > max(1e-12, 1e-10 * smax)))
    if rank < m:
        null_left = u[:, rank:]
        mismatch = null_left.T @ b_c
        j = int(np.argmax(np.abs(mismatch)))
        if abs(mismatch[j]) > 1e-9 * (1.0 + float(np.abs(b_c).max())):
            return SdpSolution(
                x=np.zeros((n, n), dtype=complex), objective_value=np.nan,
                primal_residual=np.inf, dual_residual=np.inf,
                status=STATUS_INFEASIBLE, iterations=0,
                infeasibility_certificate=null_left[:, j] / mismatch[j],
                message="constraints are linearly inconsistent",
            )
        _, _, piv = scipy.linalg.qr(rows.T, pivoting=True, mode="economic")
        keep = np.sort(piv[:rank])
    else:
        keep = np.arange(m)

    res = _solve_hermitian_sdp(cost_f, ops_f[keep], b_c[keep], max_iter, feas_tol)

    y_full = np.zeros(m)
    y_full[keep] = res.y
    x = hermitize(res.x)
    if v is not None:
        x = hermitize(v @ x @ linops.dagger(v))

    if res.status == STATUS_INFEASIBLE:
        return SdpSolution(
            x=np.zeros((n, n), dtype=complex), objective_value=np.nan,
            primal_residual=np.inf, dual_residual=res.dual_residual,
            status=STATUS_INFEASIBLE, iterations=res.iterations,
            y=y_full, infeasibility_certificate=y_full, message=res.message,
        )

    primal_res = float(np.abs((ops_c.reshape(m, -1).conj() @ x.ravel()).real - b_c).max())
    eigs = np.linalg.eigvalsh(x)
    x_rank = int(np.sum(eigs > max(PSD_TOL, 1e-8 * float(eigs.max(initial=0.0)))))
    obj = float(np.trace(cost_c @ x).real)
    status = res.status
    if status == STATUS_OPTIMAL and (primal_res > feas_tol or eigs.min() < -PSD_TOL):
        status = STATUS_NUMERICAL_LIMIT
    return SdpSolution(
        x=x, objective_value=obj, primal_residual=primal_res,
        dual_residual=res.dual_residual, status=status,
        iterations=res.iterations, y=y_full, rank=x_rank, message=res.message,
    )


# ----------------------------------------------------------------------
# JSON dumps for debugging (sdp solve --dump)
# ----------------------------------------------------------------------

def problem_to_json(p: SdpProblem) -> dict:
    return {
        "n": p.n,
        "objective": linops.matrix_to_json(p.objective),
        "constraints": [
            {"a": linops.matrix_to_json(a), "b": bv}
            for a, bv in zip(p.constraint_ops, p.constraint_vals)
        ],
    }


def problem_from_json(obj: dict) -> SdpProblem:
    if not isinstance(obj, dict):
        raise ValueError("problem JSON must be an object")
    missing = {"n", "objective", "constraints"} - set(obj)
    if missing:
        raise ValueError(f"problem JSON missing keys: {sorted(missing)}")
    cons = obj["constraints"]
    if not isinstance(cons, list) or not cons:
        raise ValueError("constraints must be a non-empty list")
    ops = []
    vals = []
    for c in cons:
        if not isinstance(c, dict) or not {"a", "b"} <= set(c):
            raise ValueError("each constraint must be an object with keys 'a' and 'b'")
        ops.append(linops.matrix_from_json(c["a"]))
        vals.append(float(c["b"]))
    return SdpProblem(
        n=int(obj["n"]),
        objective=linops.matrix_from_json(obj["objective"]),
        constraint_ops=tuple(ops),
        constraint_vals=tuple(vals),
    )


def solution_to_json(s: SdpSolution) -> dict:
    out = {
        "status": s.status,
        "objective_value": None if np.isnan(s.objective_value) else s.objective_value,
        "maximized_value": None if np.isnan(s.objective_value) else -s.objective_value,
        "primal_residual": None if not np.isfinite(s.primal_residual) else s.primal_residual,
        "dual_residual": None if not np.isfinite(s.dual_residual) else s.dual_residual,
        "iterations": s.iterations,
        "rank": s.rank,
        "x": linops.matrix_to_json(s.x),
    }
    if s.y is not None:
        out["y"] = [float(v) for v in s.y]
    if s.infeasibility_certificate is not None:
        out["infeasibility_certificate"] = [float(v) for v in s.infeasibility_certificate]
    if s.message:
        out["message"] = s.message
    return out
