"""Dense complex linear algebra for small operators.

Everything downstream (channels, channel builders, the SDP layer) goes
through the handful of primitives in this module so that the numerical
conventions are fixed in exactly one place:

* Bipartite spaces are ordered ``H1 (x) H2`` with ``H2`` as the minor
  (fastest-varying) index: basis vector ``|i, k>`` sits at flat index
  ``i * d2 + k``.
* ``vec`` means row-major flattening (``ndarray.reshape(-1)``).
* Spectra split into groups by one rule, ``tolerance_groups``: sorted
  neighbours at most a tolerance apart are one group. What depends on a
  degenerate eigenspace is built from its projector, not from a basis.
* Ranks of the given states follow one rule: an eigenvalue at or below
  RANK_TOL is zero (``support``), as is a singular value of the commutators
  of ``engineer.forced_algebra``. Each matrix cut is a state, a mean or
  compression of states, or built from generators of norm at most 1, so the
  absolute cut is relative to the data's scale (Golub & Van Loan, sec. 5.4).

Matrices are plain complex ndarrays; the helpers here validate shape,
Hermiticity and positivity where the operation requires it.
"""

from __future__ import annotations

import sys
from functools import cache
from typing import Sequence

import numpy as np

# Default tolerances, chosen for double precision at dimensions <= 64.
HERM_TOL = 1e-9
PSD_TOL = 1e-9
RANK_TOL = 1e-12


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex ndarray and reject non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.conj(a).swapaxes(-1, -2)


def hermitize(a: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian part, (A + A^dag)/2, of a matrix or of
    each matrix of a stack."""
    a = np.asarray(a, dtype=complex)
    return (a + dagger(a)) / 2.0


def herm_defect(a: np.ndarray) -> float:
    """Max-norm distance from A to its Hermitian part."""
    a = np.asarray(a, dtype=complex)
    return float(np.abs(a - dagger(a)).max(initial=0.0))


def check_hermitian(a, tol: float = HERM_TOL) -> np.ndarray:
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    defect = herm_defect(m)
    if defect > tol:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3e} > {tol:.1e})")
    return m


def check_density(rho, tol: float = 1e-7) -> np.ndarray:
    """Validate a density matrix: Hermitian, unit trace, PSD within tol."""
    m = check_hermitian(rho, tol)
    tr = np.trace(m).real
    if abs(tr - 1.0) > tol:
        raise ValueError(f"state trace is {tr:.12g}, expected 1 within {tol:.1e}")
    lo = float(np.linalg.eigvalsh(hermitize(m)).min())
    if lo < -tol:
        raise ValueError(f"state has negative eigenvalue {lo:.3e} below -{tol:.1e}")
    return m


def check_states(sigmas) -> np.ndarray:
    """Validate a non-empty set of density matrices of one dimension
    (``check_density`` each) and return them as one (k, d, d) stack."""
    states = [check_density(s) for s in sigmas]
    if not states:
        raise ValueError("need at least one state")
    d = states[0].shape[0]
    for i, s in enumerate(states):
        if s.shape != (d, d):
            raise ValueError(f"states must share one dimension: state {i} is "
                             f"{s.shape[0]}x{s.shape[1]}, but state 0 is {d}x{d}")
    return np.array(states)


def ket_projector(v) -> np.ndarray:
    """|v><v| for a (not necessarily normalized) column vector."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    return np.outer(v, np.conj(v))


def kron(a, b) -> np.ndarray:
    """Kronecker product with the first factor as the major index."""
    return np.kron(as_matrix(a), as_matrix(b))


def partial_trace(m, dims: tuple[int, int], over: int) -> np.ndarray:
    """Trace out one tensor factor of an operator on H1 (x) H2.

    Parameters
    ----------
    m : array, shape (d1*d2, d1*d2)
    dims : (d1, d2) factor dimensions, H2 minor.
    over : 1 traces out H1 (returns d2 x d2), 2 traces out H2 (d1 x d1).
    """
    d1, d2 = int(dims[0]), int(dims[1])
    m = as_matrix(m)
    if m.shape != (d1 * d2, d1 * d2):
        raise ValueError(f"matrix shape {m.shape} does not match dims {d1}x{d2}")
    t = m.reshape(d1, d2, d1, d2)
    if over == 1:
        return np.trace(t, axis1=0, axis2=2)
    if over == 2:
        return np.trace(t, axis1=1, axis2=3)
    raise ValueError("over must be 1 or 2")


@cache
def hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal (Frobenius) basis E_k of the d x d Hermitian matrices, as a
    read-only (d**2, d, d) stack, built once per d: the diagonal units |j><j|,
    then for each j < k (row-major) the symmetric (|j><k| + |k><j|)/sqrt 2
    and the antisymmetric (-i|j><k| + i|k><j|)/sqrt 2.

    With each element flattened, F = hermitian_basis(d).reshape(d**2, d**2)
    is a unitary frame with rows vec(E_k). A Hermitian X has real coordinates
    x = conj(F) @ vec(X), x_k = tr[E_k X], and vec(X) = F.T @ x; a linear
    map with matrix S on vec has the matrix conj(F) @ S @ F.T on these
    coordinates, real when the map preserves Hermiticity."""
    basis = np.zeros((d * d, d, d), dtype=complex)
    basis[np.arange(d), np.arange(d), np.arange(d)] = 1.0
    j, k = np.triu_indices(d, 1)
    sym = d + 2 * np.arange(len(j))
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    basis[sym, j, k] = basis[sym, k, j] = inv_sqrt2
    basis[sym + 1, j, k], basis[sym + 1, k, j] = -1j * inv_sqrt2, 1j * inv_sqrt2
    basis.flags.writeable = False
    return basis


def tolerance_groups(values, tol: float) -> np.ndarray:
    """Integer labels of the shape of values: sorted neighbours at most tol apart
    share one, so a chain of close values is one group; labels grow from 0 with the value."""
    values = np.asarray(values, dtype=float)
    order = np.sort(values, axis=None)
    rest = order[1:]
    return rest[rest - order[:-1] > tol].searchsorted(values, side="right")


def support(a) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues of a Hermitian matrix (read from its lower triangle),
    ascending, and an isometry onto its support: the eigenvectors of the
    last ones, those above RANK_TOL."""
    w, v = np.linalg.eigh(a)
    return w, v[:, w > RANK_TOL]


def support_projector(a) -> np.ndarray:
    """U U^dag, the orthogonal projector onto the support U of a PSD matrix
    (``support``)."""
    w, u = support(hermitize(check_hermitian(a)))
    if w.min(initial=0.0) < -PSD_TOL:
        raise ValueError(f"support_projector requires a PSD operator (min eigenvalue {w.min():.3e})")
    return hermitize(u @ dagger(u))


def kernel_projector(a) -> np.ndarray:
    """I minus the support projector: projector onto the (numerical) kernel."""
    p = support_projector(a)
    return np.eye(p.shape[0], dtype=complex) - p  # Hermitian, as p is


def trace_distance(a, b) -> float:
    """(1/2) * sum |eig(A - B)| for Hermitian A, B of equal dimension."""
    ma = check_hermitian(a, tol=1e-6)
    mb = check_hermitian(b, tol=1e-6)
    if ma.shape != mb.shape:
        raise ValueError(f"dimension mismatch: {ma.shape} vs {mb.shape}")
    return 0.5 * float(np.abs(np.linalg.eigvalsh(hermitize(ma - mb))).sum())


def max_abs(a) -> float:
    return float(np.abs(np.asarray(a)).max(initial=0.0))


def row_norms(rows) -> np.ndarray:
    """Euclidean norm of each row of a 2-D array, taken of the row divided
    by its peak entry: squares of entries past ~1e154 would overflow and
    those below ~1e-154 underflow. A zero row has norm 0; a norm past the
    float range reads inf."""
    rows = np.asarray(rows)
    peak = np.abs(rows).max(axis=1)
    with np.errstate(over="ignore"):
        return peak * np.linalg.norm(rows / np.where(peak == 0.0, 1.0, peak)[:, None], axis=1)


# ----------------------------------------------------------------------
# JSON wire format: {"rows", "cols", "re": [...], "im": [...]} row-major.
# ----------------------------------------------------------------------

def json_int(obj: dict, key: str, minimum: int | None = None, nullable: bool = False) -> int | None:
    """obj[key] as an int. A bool, a non-integral or non-finite number and
    anything that is not a number raise ValueError, as does a value below
    minimum; null is allowed only when nullable. So does a float of
    magnitude >= 2**53: it cannot tell which integer was written (the CLI's
    decoder returns an integer literal outside [-2**63, 2**64) as a float)."""
    value = obj[key]
    if value is None and nullable:
        return None
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    if isinstance(value, float) and abs(value) >= 2.0 ** 53:
        raise ValueError(f"{key} must be an integer, got {value!r}, a float too large "
                         "to tell which integer was written")
    value = int(value)
    if minimum is not None and value < minimum:
        raise ValueError(f"{key} must be >= {minimum}, got {value}")
    return value


def json_float(obj: dict, key: str, default: float | None = None) -> float:
    """obj[key], or default when the key is absent, as a float. A bool, a
    string, null (so also an absent key without a default) and a number
    that is not finite as a float raise ValueError."""
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        abs(value) <= sys.float_info.max
    ):
        raise ValueError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def matrix_to_json(m) -> dict:
    m = as_matrix(m)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": m.real.reshape(-1).tolist(),
        "im": m.imag.reshape(-1).tolist(),
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError("matrix JSON must be an object")
    missing = {"rows", "cols", "re", "im"} - set(obj)
    if missing:
        raise ValueError(f"matrix JSON missing keys: {sorted(missing)}")
    rows, cols = json_int(obj, "rows"), json_int(obj, "cols")
    try:
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except TypeError as exc:
        raise ValueError(f"matrix JSON field has the wrong type: {exc}") from exc
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    if re.size != rows * cols or im.size != rows * cols:
        raise ValueError(
            f"entry count mismatch: {rows}x{cols} needs {rows*cols} values, "
            f"got re={re.size}, im={im.size}"
        )
    m = re.astype(complex).reshape(rows, cols)
    m.imag = im.reshape(rows, cols)  # re + 1j * im would drop the sign of a zero im
    return as_matrix(m)


def vector_from_json(obj: Sequence[float], what: str = "vector") -> np.ndarray:
    try:
        v = np.asarray(obj, dtype=float)
    except TypeError as exc:
        raise ValueError(f"{what} has the wrong type: {exc}") from exc
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"{what} must be a non-empty flat list of reals")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{what} contains non-finite entries")
    return v
