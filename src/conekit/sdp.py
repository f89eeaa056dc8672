"""Small dense semidefinite programming over Hermitian matrix variables.

Solves

    minimize    tr[F0^T X]
    subject to  tr[A_k X] = b_k,   k = 1..m
                X >= 0  (PSD),

with Hermitian data, the A_k stacked in one (m, n, n) array that every
step works on. ``solve`` is the single entry point and runs one path:

1. optionally restrict X to a caller-supplied face X = V X' V^dag
   (facial reduction: when the constraints force X onto a face of the
   PSD cone, the restricted problem regains a strictly feasible point);
2. build one scaled, reduced problem: each row and its b are divided by
   the row's norm (a quotient past the float range ends the solve as
   numerical-limit), and one column-pivoted QR of the scaled rows gives
   the rank, the rows kept (its first pivots) and each dropped row as a
   combination of the kept ones; a dropped row whose b differs from that
   combination's returns the combination as an exact Farkas certificate
   (linearly inconsistent). A consistent set of rank 0 leaves
   min tr[F0^T X] over X >= 0, which ends there: X = 0 optimal when
   F0 >= -PSD_TOL, numerical-limit (unbounded below) otherwise;
3. run, on the kept scaled rows and their b, a primal-dual
   path-following method with Nesterov-Todd scaling and Mehrotra-style
   adaptive centering (an affine predictor step fixes the centering
   weight of the actual step). Both Newton directions are kept on the
   constraints, A dx = b - A x, by one least-norm correction through the
   pseudo-inverse of the rows' Gram matrix, so each step shrinks the
   primal residual by exactly (1 - alpha) up to rounding (Kojima, Megiddo
   & Mizuno, Math. Programming 61, 1993). Every iteration calls LAPACK
   directly, since at these sizes the numpy and scipy wrappers around the
   same routines cost more than the arithmetic: dsyevd / zheevd
   (``_eigh``) for the scaling's eigendecompositions of Z and of
   Z^1/2 X Z^1/2, which also give Z^-1 and the factors in which each step
   length is one eigenvalue-only solve, and dpotrf / dpotrs for the Schur
   system (``_schur_solver``). An eigensolve of a non-finite matrix raises
   LinAlgError; inside the loop, an iterate or a step that goes non-finite
   ends it as numerical-limit;
4. map X back through the face and each kept row's multiplier back to
   the raw row (y_k / |A_k|_F).

The iterates are Hermitian matrices of one dtype, inner products are
Re tr[A^dag X]: real when the objective and every constraint (after
conjugation by the face) are real, complex otherwise. The start point and
exit tests use the Hermitian iterates' own norms, so a unitary change of
basis, real or complex, leaves the path unchanged up to rounding. Residuals,
eigenvalues, rank and status always refer to the full problem, and y
holds the dual multipliers of the full constraint list. Instances here
are tiny (n <= ~25, m <= ~60), so the implementation uses dense
eigendecompositions everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpotrf, dpotrs, dsyevd, zheevd

from . import linops
from .linops import PSD_TOL, hermitian_basis, hermitize

FEAS_TOL = 1e-7
MAX_ITER = 200

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_NUMERICAL_LIMIT = "numerical-limit"


class NumericalLimitError(RuntimeError):
    """The solver stopped without reaching its tolerances."""


@dataclass(frozen=True)
class SdpProblem:
    """min tr[F0^T X] over PSD X subject to tr[A_k X] = b_k, the A_k (any
    sequence of n x n operators) stored as one read-only (m, n, n) array."""

    n: int
    objective: np.ndarray                 # F0, Hermitian n x n
    constraint_ops: np.ndarray            # A_k stacked, (m, n, n), Hermitian
    constraint_vals: tuple[float, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("variable dimension must be positive")
        shapes = [np.shape(a) for a in self.constraint_ops]
        if not shapes:
            raise ValueError("constraint list must be non-empty")
        if len(shapes) != len(self.constraint_vals):
            raise ValueError("constraint operators and values differ in length")
        f0 = linops.check_hermitian(self.objective)
        if f0.shape != (self.n, self.n):
            raise ValueError("objective dimension does not match n")
        for k, shape in enumerate(shapes):
            if shape != (self.n, self.n):
                raise ValueError(f"constraint {k} has dimension {shape}, expected {self.n}")
        ops = np.array(self.constraint_ops, dtype=complex)
        if not np.isfinite(ops).all():
            raise ValueError("constraint operators contain non-finite entries")
        defects = np.abs(ops - ops.conj().swapaxes(1, 2)).max(axis=(1, 2))
        k = int(np.argmax(defects))
        if defects[k] > linops.HERM_TOL:
            raise ValueError(f"constraint {k} is not Hermitian (defect {defects[k]:.3e})")
        vals = tuple(float(v) for v in self.constraint_vals)
        if not np.isfinite(vals).all():
            raise ValueError("constraint values contain non-finite entries")
        ops.flags.writeable = False
        object.__setattr__(self, "objective", f0)
        object.__setattr__(self, "constraint_ops", ops)
        object.__setattr__(self, "constraint_vals", vals)


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


def assemble_fixed_point_constraints(sigmas) -> SdpProblem:
    """The SDP over Choi matrices X (output (x) input) of maps that fix every
    given state and preserve the trace, E over the d^2 elements of
    ``hermitian_basis(d)`` (over its real symmetric ones for real states,
    below):

    * tr[(E (x) sigma_i^T) X] = tr[E sigma_i] (the first k blocks of rows,
      state by state);
    * tr[(I (x) E) X] = tr E (the last block), that is tr_H1[X] = I.

    The objective is F0 = I, and tr X = tr tr_H1[X] = d on the whole
    feasible set, so every feasible X is optimal. ``engineer.build_via_sdp``
    never assembles it: on its compressed states, whose mean has full rank,
    it forms the analytic centre of this feasible set in closed form
    (``engineer._analytic_centre``). This problem, solved on the face of
    ``engineer.forced_algebra``'s commutant, is the tests' oracle for that
    centre: its solution is feasible with a log det no larger.

    The sigma_i must be one non-empty stack of square matrices, and
    ``SdpProblem`` refuses rows that are not finite and Hermitian. They
    need not be states: a trace-preserving map keeps every trace and the
    identity fixes everything, so the rows are consistent for any
    Hermitian sigma_i. Whether they are states is for the caller to check.

    When every state is exactly real, E runs over the d(d+1)/2 real
    symmetric elements of the basis only: (k + 1) d(d+1)/2 real rows in
    place of (k + 1) d^2 complex ones, so ``solve`` runs in real
    arithmetic. Real states make the problem invariant under X -> conj X:
    conj X is the Choi matrix of the map rho -> conj Phi(conj rho), which is
    CP, preserves the trace and fixes every conj sigma_i = sigma_i, and
    tr conj X = tr X. The feasible set is convex, so (X + conj X)/2 = Re X
    is feasible with the cost of X, and the optimum over real symmetric X
    equals the complex one (the conjugation case of symmetry reduction,
    Gatermann & Parrilo, J. Pure Appl. Algebra 192, 2004). On a real
    symmetric X the rows left out, those of an imaginary antisymmetric E,
    read 0 = 0: E (x) sigma_i^T and I (x) E are i times a real
    antisymmetric matrix, and tr[E sigma_i] = tr E = 0. A face passed to
    ``solve`` with these rows must be real as well, as the commutant of
    ``engineer.forced_algebra`` is for real states (LAPACK keeps real data
    real); on a complex face the solve would run over complex X without
    the rows left out.
    """
    sig = np.asarray(sigmas, dtype=complex)
    if sig.ndim != 3 or not len(sig) or sig.shape[1] != sig.shape[2]:
        raise ValueError(f"expected a non-empty stack of square matrices, got shape {sig.shape}")
    d = sig.shape[1]
    basis = hermitian_basis(d)
    if not sig.imag.any():
        basis = basis[~basis.imag.any(axis=(1, 2))]
    # every E (x) sigma^T in one broadcast product, axes (state, E, i, a, j, b)
    fixing = basis[None, :, :, None, :, None] * sig.swapaxes(1, 2)[:, None, None, :, None, :]
    # every I (x) E, axes (E, i, a, j, b)
    preserving = np.eye(d)[None, :, None, :, None] * basis[:, None, :, None, :]
    n = d * d
    return SdpProblem(
        n=n, objective=np.eye(n, dtype=complex),
        constraint_ops=np.concatenate([fixing.reshape(-1, n, n), preserving.reshape(-1, n, n)]),
        constraint_vals=np.concatenate([
            np.trace(basis @ sig[:, None], axis1=2, axis2=3).real.ravel(),
            np.trace(basis, axis1=1, axis2=2).real]),
    )


# ----------------------------------------------------------------------
# Interior-point core (Hermitian data, real or complex dtype)
# ----------------------------------------------------------------------

def _sym(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().swapaxes(-1, -2)) / 2.0


class _NonFiniteError(np.linalg.LinAlgError):
    """An eigensolve was asked of a matrix with a non-finite entry."""


def _eigh(a: np.ndarray, compute_v: int):
    """(w, v) of Hermitian ``a`` in one LAPACK call: dsyevd for real and
    zheevd for complex data, reading the lower triangle as np.linalg.eigh
    does (the same routines, so w ascending and v match it to rounding,
    bit for bit when numpy links the same LAPACK build); v is not computed
    when ``compute_v`` is 0. Raises LinAlgError when LAPACK reports a
    failure, and its subclass _NonFiniteError on a non-finite entry, for
    which LAPACK returns finite garbage without an error."""
    if not np.isfinite(a).all():
        raise _NonFiniteError("eigensolve of a matrix with non-finite entries")
    w, v, info = (zheevd if np.iscomplexobj(a) else dsyevd)(a, compute_v=compute_v, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"eigensolve failed (LAPACK info {info})")
    return w, v


def _max_step(g: np.ndarray, ds: np.ndarray) -> float:
    """Largest alpha with s + alpha*ds >= 0, given a factor g with
    g^dag s g = I: s + alpha*ds >= 0 exactly when I + alpha g^dag ds g >= 0,
    so the step is one eigenvalue-only ``_eigh`` of g^dag ds g."""
    lam_min = float(_eigh(_sym(g.conj().T @ ds @ g), 0)[0][0])
    return np.inf if lam_min >= -1e-14 else -1.0 / lam_min


def _nt_scaling(x: np.ndarray, z: np.ndarray):
    """(W, Z^-1, G_x, G_z) from the two ``_eigh`` calls eigh(z) and
    eigh(z^1/2 x z^1/2) = V_b w_b V_b^dag: W Z W = X, G_z = z^-1/2 and
    G_x = z^1/2 V_b w_b^-1/2 (G^dag S G = I for S = X, Z). None when z
    has an eigenvalue that is not positive and finite."""
    wz, vz = _eigh(z, 1)
    if not (wz[0] > 0.0 and np.isfinite(wz).all()):
        return None
    wz = np.clip(wz, 1e-14, None)
    z_half = (vz * np.sqrt(wz)) @ vz.conj().T
    z_ihalf = (vz / np.sqrt(wz)) @ vz.conj().T
    b = _sym(z_half @ x @ z_half)
    wb, vb = _eigh(b, 1)
    wb = np.clip(wb, 1e-16, None)
    b_half = (vb * np.sqrt(wb)) @ vb.conj().T
    w = _sym(z_ihalf @ b_half @ z_ihalf)
    return w, (vz / wz) @ vz.conj().T, z_half @ (vb / np.sqrt(wb)), z_ihalf


def _schur_solver(schur: np.ndarray):
    """rhs -> dy with schur @ dy = rhs: dpotrf of schur plus a 1e-13
    relative diagonal shift, then dpotrs with one refinement step against
    schur itself; least squares when the shifted matrix is not positive
    definite."""
    m = schur.shape[0]
    chol, info = dpotrf(schur + 1e-13 * np.trace(schur) / m * np.eye(m), lower=0, clean=0)
    if info != 0:
        return lambda rhs: np.linalg.lstsq(schur, rhs, rcond=None)[0]

    def solve(rhs):
        dy = dpotrs(chol, rhs, lower=0)[0]
        dy += dpotrs(chol, rhs - schur @ dy, lower=0)[0]  # one refinement
        return dy
    return solve


@dataclass
class _IpmResult:
    x: np.ndarray
    y: np.ndarray
    status: str
    iterations: int
    dual_residual: float
    message: str = ""


@np.errstate(over="ignore", invalid="ignore")  # overflow is caught as a non-finite iterate
def _solve_hermitian_sdp(cost: np.ndarray, ops: np.ndarray, b: np.ndarray,
                         max_iter: int, feas_tol: float) -> _IpmResult:
    """Path following on Hermitian n x n iterates of the dtype of ``ops``
    (m x n x n); ``cost`` and ``ops`` share it. Each row of ``ops`` must
    have Frobenius norm at most 1, so that no entry of their Gram matrix
    exceeds 1 and it cannot overflow.

    The status is optimal only when the convergence test at the top of an
    iteration passes, and infeasible only on a dual improving ray, which
    is returned as y; every other exit is numerical-limit. Otherwise the
    returned x, y and dual_residual describe one iterate, the last one the
    loop reached."""
    n = cost.shape[0]
    m = ops.shape[0]
    rows = ops.reshape(m, -1)
    rows_h = rows.conj()
    a_norms = np.linalg.norm(rows, axis=1)
    xi_p = max(1.0, np.sqrt(n), np.sqrt(n) * float(np.max(np.abs(b) / (1.0 + a_norms))))
    xi_d = max(1.0, np.sqrt(n), (float(np.linalg.norm(cost)) + float(a_norms.max())) / np.sqrt(n))
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

    b_scale = 1.0 + float(np.abs(b).max(initial=0.0))
    c_scale = 1.0 + linops.max_abs(cost)
    target = 0.1 * feas_tol

    status = STATUS_NUMERICAL_LIMIT
    message = ""
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
        # mu and dobj sum over every entry of x, z and y: a non-finite entry shows here
        if not (np.isfinite(mu) and np.isfinite(dobj)):
            message = "iterate became non-finite"
            break
        pinf_abs = float(np.abs(rp).max(initial=0.0))
        dinf = linops.max_abs(rd) / c_scale
        gap = abs(pobj - dobj) / (1.0 + (abs(pobj) + abs(dobj)))
        if (pinf_abs / b_scale <= target and dinf <= target and gap <= target
                and pinf_abs <= 0.5 * feas_tol):
            status = STATUS_OPTIMAL
            break

        try:
            # Farkas-style test for a dual improving ray (primal infeasibility).
            ynorm = float(np.linalg.norm(y))
            if dobj > 1.0 and ynorm > 1e4 * b_scale:
                ray = y / dobj
                lam_max = float(_eigh(_sym(op_at(ray)), 0)[0][-1])
                if lam_max <= 1e-7 * (1.0 + float(a_norms.max())):
                    return _IpmResult(x=x, y=ray, status=STATUS_INFEASIBLE, iterations=it,
                                      dual_residual=dinf,
                                      message="dual improving ray found (primal infeasible)")

            scaling = _nt_scaling(x, z)
            if scaling is None:
                message = "scaling matrix became singular"
                break
            w, zinv, g_x, g_z = scaling

            waw = (w @ ops @ w).reshape(m, -1)
            schur = _sym((rows_h @ waw.T).real)
            if not np.isfinite(schur).all():
                message = "Schur complement became non-finite"
                break
            w_rd_w = _sym(w @ rd @ w)
            schur_solve = _schur_solver(schur)

            def newton(rc: np.ndarray):
                rhs = rp - op_a(rc) + op_a(w_rd_w)
                dy = schur_solve(rhs)
                dz = rd - op_at(dy)
                # A dx = rp holds in exact arithmetic; the correction
                # removes the Schur solve's rounding from it
                dx = rc - w @ dz @ w
                dx = _sym(dx + op_at(gram_pinv @ (rp - op_a(dx))))
                return dx, dy, dz

            # predictor: affine step fixes the centering weight
            dx_a, dy_a, dz_a = newton(-x)
            ap = min(1.0, 0.98 * _max_step(g_x, dx_a))
            ad = min(1.0, 0.98 * _max_step(g_z, dz_a))
            mu_aff = inner(x + ap * dx_a, z + ad * dz_a) / n
            # the ratio is capped at 1 before the cube: a float power that
            # overflows raises instead of returning inf
            sigma = min(1.0, max(1e-8, min(max(mu_aff, 0.0) / mu, 1.0) ** 3))

            dx, dy, dz = newton(sigma * mu * zinv - x)
            ap = min(1.0, 0.98 * _max_step(g_x, dx))
            ad = min(1.0, 0.98 * _max_step(g_z, dz))
            x = _sym(x + ap * dx)
            y = y + ad * dy
            z = _sym(z + ad * dz)
        except _NonFiniteError:
            # a matrix formed from the finite iterate overflowed
            message = "Newton step became non-finite"
            break
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

    if status != STATUS_OPTIMAL:
        message = message or "iteration limit reached"
        dinf = linops.max_abs(cost - z - op_at(y)) / c_scale
    return _IpmResult(x=x, y=y, status=status, iterations=it, dual_residual=dinf,
                      message=message)


# ----------------------------------------------------------------------
# Public solve
# ----------------------------------------------------------------------

def solve(problem: SdpProblem, max_iter: int = MAX_ITER, feas_tol: float = FEAS_TOL,
          face: np.ndarray | None = None) -> SdpSolution:
    """Solve ``problem`` by the one path of the module docstring.

    ``max_iter`` caps the interior-point iterations. An optimal solution has
    |tr[A_k X] - b_k| <= feas_tol max(1, |b_k|, sum_ij |(A_k)_ij| |X_ij|)
    for every k.
    ``face`` optionally restricts the variable to a known subspace: an
    isometry V (n x n', n' >= 1, orthonormal columns) with X = V X' V^dag.
    Callers use it when the constraints provably force X onto a face of
    the PSD cone (no strictly feasible point exists there, which starves
    interior methods); the restricted problem regains an interior.

    The returned x, primal_residual (the max absolute constraint violation
    over the full, pre-reduction constraint set), rank and status refer to
    the full problem. An iterate or step that goes non-finite ends the
    solve with status numerical-limit. A LinAlgError that a LAPACK routine
    reports propagates.
    """
    n = problem.n
    ops_c = problem.constraint_ops
    m = ops_c.shape[0]
    b_c = np.asarray(problem.constraint_vals, dtype=float)
    cost_c = np.conj(problem.objective)  # F0^T == conj(F0) for Hermitian F0

    v = None if face is None else np.asarray(face, dtype=complex)
    data = np.concatenate([cost_c[None], ops_c])
    if v is not None:
        if v.ndim != 2 or v.shape[0] != n or v.shape[1] < 1:
            raise ValueError(f"face isometry must be {n} x n' with n' >= 1, got {v.shape}")
        if linops.max_abs(linops.dagger(v) @ v - np.eye(v.shape[1])) > 1e-10:
            raise ValueError("face columns must be orthonormal")
        # tr[C V X' V^dag] = tr[(V^dag C V) X'] conjugates every operator by V
        data = _sym(linops.dagger(v) @ data @ v)
    if not data.imag.any():
        data = data.real.copy()

    # One scaled, reduced problem: each row and its b divided by the row's
    # norm before the face, so that an independent but badly scaled row
    # keeps its rank (norms after the face would inflate rows that vanish
    # on it into unit-norm noise). One pivoted QR of the scaled rows gives
    # the rank, the rows kept (its first pivots) and, for each dropped row,
    # its combination of the kept rows, against which its b is tested.
    a_norms = linops.row_norms(ops_c.reshape(m, -1))
    norms = np.where(a_norms == 0.0, 1.0, a_norms)  # a zero row stays zero
    with np.errstate(over="ignore"):
        b_s = b_c / norms
    if not (np.isfinite(norms).all() and np.isfinite(b_s).all()):
        # |X|_F >= |b_k| / |A_k|_F: past the float range, so is every solution
        return SdpSolution(
            x=np.zeros((n, n), dtype=complex), objective_value=np.nan,
            primal_residual=np.inf, dual_residual=np.inf,
            status=STATUS_NUMERICAL_LIMIT, iterations=0,
            message="a constraint's scale is past the floating-point range",
        )
    # the real coordinates of the scaled rows: their dot products are
    # Re tr[A_k^dag A_l] / (|A_k|_F |A_l|_F)
    scaled = data[1:].reshape(m, -1).view(float) / norms[:, None]
    _, r, piv = scipy.linalg.qr(scaled.T, pivoting=True, mode="economic")
    diag = np.abs(np.diag(r))
    rank = int(np.sum(diag > max(1e-12, 1e-10 * diag[0])))
    # dropped row piv[rank + j] ~ sum_i comb[i, j] * kept row piv[i]
    comb = scipy.linalg.solve_triangular(r[:rank, :rank], r[:rank, rank:])
    mismatch = b_s[piv[rank:]] - b_s[piv[:rank]] @ comb
    if rank < m:
        j = int(np.argmax(np.abs(mismatch)))
        if abs(mismatch[j]) > 1e-9 * (1.0 + float(np.abs(b_s).max())):
            cert = np.zeros(m)
            cert[piv[rank + j]] = 1.0
            cert[piv[:rank]] = -comb[:, j]
            return SdpSolution(
                x=np.zeros((n, n), dtype=complex), objective_value=np.nan,
                primal_residual=np.inf, dual_residual=np.inf,
                status=STATUS_INFEASIBLE, iterations=0,
                infeasibility_certificate=cert / norms / mismatch[j],
                message="constraints are linearly inconsistent",
            )
    keep = np.sort(piv[:rank])

    if rank == 0:
        # every constraint reads 0 = 0 (on the face): min tr[C X] over X >= 0
        # is 0 at X = 0 when C >= 0 and unbounded below otherwise
        lam_min = float(_eigh(data[0], 0)[0][0])
        bounded = lam_min >= -PSD_TOL
        res = _IpmResult(
            x=np.zeros_like(data[0]), y=np.zeros(0),
            status=STATUS_OPTIMAL if bounded else STATUS_NUMERICAL_LIMIT, iterations=0,
            dual_residual=max(0.0, -lam_min) / (1.0 + linops.max_abs(data[0])),
            message="" if bounded else (
                "objective is unbounded below: every constraint vanishes and the "
                f"objective has eigenvalue {lam_min:.3e} < 0"),
        )
    else:
        res = _solve_hermitian_sdp(data[0], data[1 + keep] / norms[keep, None, None],
                                   b_s[keep], max_iter, feas_tol)

    y_full = np.zeros(m)
    y_full[keep] = res.y / norms[keep]
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

    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing residual reads inf
        resid = np.abs((ops_c.reshape(m, -1).conj() @ x.ravel()).real - b_c)
        # tr[A_k X] rounds within its terms' moduli, sum |A_k| o |X| (Higham,
        # Accuracy and Stability of Numerical Algorithms, 3.1)
        scale = np.maximum(np.maximum(1.0, np.abs(b_c)),
                           np.abs(ops_c).reshape(m, -1) @ np.abs(x).ravel())
    primal_res = float(resid.max())
    # a non-finite x (the IPM stopped on it) has no spectrum: NaN, rank 0
    eigs = _eigh(x, 0)[0] if np.isfinite(x).all() else np.full(x.shape[0], np.nan)
    x_rank = int(np.sum(eigs > max(PSD_TOL, 1e-8 * float(eigs.max(initial=0.0)))))
    obj = float(np.trace(cost_c @ x).real)
    status, message = res.status, res.message
    if status == STATUS_OPTIMAL and (np.any(resid > feas_tol * scale) or eigs.min() < -PSD_TOL):
        status = STATUS_NUMERICAL_LIMIT
        message = f"off the full problem: residual {primal_res:.3e}, min eig {eigs.min():.3e}"
    return SdpSolution(
        x=x, objective_value=obj, primal_residual=primal_res,
        dual_residual=res.dual_residual, status=status,
        iterations=res.iterations, y=y_full, rank=x_rank, message=message,
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
    if not all(isinstance(c, dict) and {"a", "b"} <= set(c) for c in cons):
        raise ValueError("each constraint must be an object with keys 'a' and 'b'")
    return SdpProblem(
        n=linops.json_int(obj, "n"),
        objective=linops.matrix_from_json(obj["objective"]),
        constraint_ops=tuple(linops.matrix_from_json(c["a"]) for c in cons),
        constraint_vals=tuple(linops.json_float(c, "b") for c in cons),
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
