import numpy as np
import pytest
from hypothesis import settings

from conekit import channel as chan
from conekit import linops
from conekit.channel import ChoiMatrix
from conekit.conesim import haar_unitary

# one profile for every property test: fixed examples, no per-example deadline
settings.register_profile("conekit", derandomize=True, deadline=None)
settings.load_profile("conekit")


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def basis_proj(i: int, dim: int) -> np.ndarray:
    p = np.zeros((dim, dim), dtype=complex)
    p[i, i] = 1.0
    return p


def sample_valid_single_pair(rng: np.random.Generator, dim: int):
    """Random (sigma, B) valid for the top-eigenvector construction of
    ``engineer single``: the overlap condition <v_max|B|v_max> <= lambda_max
    plus the complete-positivity condition sigma - (1 - lambda_max) B >= 0.

    sigma itself is always a valid B (boundary overlap), so B is drawn
    uniformly on the segment from sigma toward a random density matrix,
    bisecting for the validity boundary when the far end is invalid.
    """
    sigma = random_density(rng, dim)
    lam, vecs = np.linalg.eigh(sigma)
    lam_max = float(lam[-1])
    v = vecs[:, -1]
    target = random_density(rng, dim)

    def valid(b):
        if float(np.real(v.conj() @ b @ v)) > lam_max + 1e-12:
            return False
        return np.linalg.eigvalsh(sigma - (1 - lam_max) * b).min() >= -1e-12

    if valid(target):
        alpha = rng.uniform(0.0, 1.0)
    else:
        lo, hi = 0.0, 1.0
        for _ in range(40):
            mid = (lo + hi) / 2
            if valid((1 - mid) * sigma + mid * target):
                lo = mid
            else:
                hi = mid
        alpha = rng.uniform(0.0, lo)
    return sigma, (1 - alpha) * sigma + alpha * target


def mixed_sector_channel(rng: np.random.Generator, sectors, extra: int = 0):
    """Separable channel rho -> sum_i sigma_i tr[P_i rho] + I/d tr[(I - sum_i P_i) rho].

    sigma_i has eigenvalues proportional to sectors[i] on the i-th block of
    columns of a Haar unitary and P_i projects onto that block; ``extra``
    columns are left to the decay term. The fixed states are exactly the
    convex hull of the sigma_i. Returns (sigmas, channel).
    """
    d = sum(len(w) for w in sectors) + extra
    u = haar_unitary(d, rng)
    choi = np.zeros((d * d, d * d), dtype=complex)
    rest = np.eye(d, dtype=complex)
    sigmas = []
    start = 0
    for w in sectors:
        cols = u[:, start : start + len(w)]
        start += len(w)
        sigma = (cols * (np.asarray(w) / sum(w))) @ cols.conj().T
        proj = cols @ cols.conj().T
        sigmas.append(sigma)
        choi += linops.kron(sigma, proj.T)
        rest -= proj
    choi += linops.kron(np.eye(d) / d, rest.T)
    return sigmas, ChoiMatrix(d, d, linops.hermitize(choi))


def block_channel(rng: np.random.Generator, blocks, decay: int = 0, scaled: bool = False):
    """Block channel X -> sum_k tr_{m_k}(Z_k X Z_k) (x) omega_k + tr(R X) tau.

    ``blocks`` lists the (n_k, m_k) of each block: Z_k is the isometry onto
    the block's n_k m_k columns of a Haar unitary, read as C^{n_k} (x)
    C^{m_k}, so the fixed space is the direct sum of M_{n_k} (x) omega_k.
    ``decay`` columns are left to R = I - sum_k Z_k Z_k^dag, sent to a
    random state tau. omega_k is a random state; ``scaled`` multiplies its
    least eigenvalue by 1e-6 before it is normalized again."""
    d = sum(n * m for n, m in blocks) + decay
    u = haar_unitary(d, rng)
    isometries, omegas = [], []
    start = 0
    for n, m in blocks:
        isometries.append(u[:, start : start + n * m])
        start += n * m
        w, v = np.linalg.eigh(random_density(rng, m))
        if scaled:
            w[0] *= 1e-6
        omegas.append((v * (w / w.sum())) @ v.conj().T)
    rest = u[:, start:]
    tau = random_density(rng, d)

    def phi(x):
        out = np.trace(rest.conj().T @ x @ rest) * tau
        for z, omega, (n, m) in zip(isometries, omegas, blocks):
            y = (z.conj().T @ x @ z).reshape(n, m, n, m)
            out = out + z @ linops.kron(np.einsum("iaja->ij", y), omega) @ z.conj().T
        return out

    return chan.choi_from_map(phi, d, d)
