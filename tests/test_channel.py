import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conekit import channel as chan
from conekit import linops
from conekit.channel import ChoiMatrix
from conekit.conesim import haar_unitary
from conekit.linops import kron, trace_distance

from conftest import basis_proj, mixed_sector_channel, random_density


def dephasing_choi(d=2) -> ChoiMatrix:
    m = sum(kron(basis_proj(i, d), basis_proj(i, d)) for i in range(d))
    return ChoiMatrix(d, d, m)


def random_cptp_rect(rng: np.random.Generator, d_in: int, d_out: int) -> ChoiMatrix:
    """Random CPTP d_in -> d_out channel: PSD Ginibre Choi matrix, then
    conjugated by I (x) tr_H1[C]^(-1/2) so that tr_H1[C] = I."""
    n = d_out * d_in
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    raw = g @ g.conj().T
    red = linops.partial_trace(raw, (d_out, d_in), over=1)
    w, v = np.linalg.eigh(red)
    isq = v @ np.diag(1 / np.sqrt(w)) @ v.conj().T
    factor = kron(np.eye(d_out), isq)
    return ChoiMatrix(d_in, d_out, linops.hermitize(factor @ raw @ factor))


def classical_choi(t: np.ndarray) -> ChoiMatrix:
    """rho -> sum_ij t[i, j] <j|rho|j> |i><i| for a column-stochastic t."""
    d = t.shape[0]
    return ChoiMatrix(d, d, sum(t[i, j] * kron(basis_proj(i, d), basis_proj(j, d))
                                for i in range(d) for j in range(d)))


def apply_oracle(c: ChoiMatrix, rho: np.ndarray) -> np.ndarray:
    """Literal tr_H2[C (I (x) rho^T)] through an independent index sum."""
    d_out, d_in = c.d_out, c.d_in
    t = c.matrix.reshape(d_out, d_in, d_out, d_in)
    out = np.zeros((d_out, d_out), dtype=complex)
    for a in range(d_out):
        for b in range(d_out):
            for j in range(d_in):
                for k in range(d_in):
                    out[a, b] += t[a, j, b, k] * rho[j, k]
    return out


class TestApply:
    def test_identity_channel(self, rng):
        c = chan.identity_channel(3)
        rho = random_density(rng, 3)
        assert np.abs(chan.apply(c, rho) - rho).max() < 1e-12

    def test_dephasing_on_plus(self):
        plus = linops.ket_projector(np.array([1.0, 1.0]) / np.sqrt(2))
        out = chan.apply(dephasing_choi(), plus)
        assert np.abs(out - np.eye(2) / 2).max() < 1e-12

    def test_decay_form_on_mixed(self):
        # C = (I-B) (x) |0><0| + B (x) |1><1| acts as rho -> (I-B) rho00 + B rho11
        b = basis_proj(1, 2)
        c = ChoiMatrix(2, 2, kron(np.eye(2) - b, basis_proj(0, 2)) + kron(b, basis_proj(1, 2)))
        rho = np.eye(2) / 2
        expected = (np.eye(2) - b) * rho[0, 0] + b * rho[1, 1]
        assert np.abs(chan.apply(c, rho) - expected).max() < 1e-12
        assert np.abs(chan.apply(c, rho) - np.eye(2) / 2).max() < 1e-12

    def test_matches_index_sum_oracle(self, rng):
        c = chan.random_cptp_choi(3, rng)
        for _ in range(5):
            rho = random_density(rng, 3)
            assert np.abs(chan.apply(c, rho) - apply_oracle(c, rho)).max() < 1e-12

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            chan.apply(chan.identity_channel(2), random_density(rng, 3))

    def test_unitary_channel_rejects_a_non_unitary_matrix(self):
        with pytest.raises(ValueError, match="unitary_channel requires a unitary matrix"):
            chan.unitary_channel(np.diag([1.0, 0.5]))

    def test_linearity(self, rng):
        c = chan.random_cptp_choi(2, rng)
        for _ in range(10):
            rho1, rho2 = random_density(rng, 2), random_density(rng, 2)
            alpha = rng.uniform()
            mix = alpha * rho1 + (1 - alpha) * rho2
            lin = alpha * chan.apply(c, rho1) + (1 - alpha) * chan.apply(c, rho2)
            assert np.abs(chan.apply(c, mix) - lin).max() < 1e-10

    def test_trace_preserved(self, rng):
        c = chan.random_cptp_choi(3, rng)
        assert chan.is_cptp(c).tp
        rho = random_density(rng, 3)
        assert abs(np.trace(chan.apply(c, rho)).real - 1.0) < 1e-9


class TestIsCptp:
    def test_identity(self):
        rep = chan.is_cptp(chan.identity_channel(2))
        assert rep.cp and rep.tp

    def test_negative_choi_not_cp(self):
        rep = chan.is_cptp(ChoiMatrix(2, 2, -np.eye(4)))
        assert not rep.cp

    def test_random_cptp(self, rng):
        for d in (2, 3):
            rep = chan.is_cptp(chan.random_cptp_choi(d, rng))
            assert rep.cp and rep.tp
            assert rep.min_eig >= -1e-9 and rep.tp_residual <= 1e-9


class TestSuperoperator:
    def test_identity(self):
        s = chan.identity_channel(2).superop
        assert np.abs(s - np.eye(4)).max() < 1e-12

    def test_dephasing(self):
        s = dephasing_choi().superop
        assert np.abs(s - np.diag([1.0, 0.0, 0.0, 1.0])).max() < 1e-12

    def test_agrees_with_apply(self, rng):
        c = chan.random_cptp_choi(3, rng)
        s = c.superop
        for _ in range(20):
            rho = random_density(rng, 3)
            via_s = (s @ rho.reshape(-1)).reshape(3, 3)
            assert np.abs(via_s - chan.apply(c, rho)).max() < 1e-10

    def test_agrees_on_full_operator_basis(self, rng):
        c = chan.random_cptp_choi(2, rng)
        s = c.superop
        for i in range(2):
            for j in range(2):
                e = np.zeros((2, 2), dtype=complex)
                e[i, j] = 1.0
                via_s = (s @ e.reshape(-1)).reshape(2, 2)
                via_apply = linops.partial_trace(
                    c.matrix @ kron(np.eye(2), e.T), (2, 2), over=2
                )
                assert np.abs(via_s - via_apply).max() < 1e-10

    def test_non_square_shape_and_action(self, rng):
        c = random_cptp_rect(rng, 2, 3)
        assert chan.is_cptp(c).tp
        s = c.superop
        assert s.shape == (9, 4)
        for _ in range(5):
            rho = random_density(rng, 2)
            via_s = (s @ rho.reshape(-1)).reshape(3, 3)
            assert np.abs(via_s - apply_oracle(c, rho)).max() < 1e-12


class TestImmutableChoi:
    def test_caller_mutation_does_not_change_channel(self, rng):
        original = dephasing_choi().matrix.copy()
        a = np.array(original, dtype=complex)
        c = ChoiMatrix(2, 2, a)
        a[:] = 0
        rho = random_density(rng, 2)
        assert np.array_equal(c.matrix, original)
        assert np.abs(chan.apply(c, rho) - np.diag(np.diag(rho))).max() < 1e-12
        assert c.cptp.cp and c.cptp.tp

    def test_matrix_and_superop_read_only(self):
        c = dephasing_choi()
        assert not c.matrix.flags.writeable
        assert not c.superop.flags.writeable
        with pytest.raises(ValueError):
            c.matrix[0, 0] = 2.0
        with pytest.raises(ValueError):
            c.superop[0, 0] = 2.0

    def test_cptp_verdict_cached(self):
        c = chan.identity_channel(2)
        assert c.cptp is c.cptp
        assert c.cptp == chan.is_cptp(c)


class TestApplyProperties:
    """apply against the index-sum oracle on random CPTP channels of every
    shape d_in, d_out in 1..4 (derandomized, so the examples are fixed)."""

    dims = st.integers(min_value=1, max_value=4)
    seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)

    @given(d_in=dims, d_out=dims, seed=seeds)
    @example(d_in=1, d_out=1, seed=0)
    @example(d_in=1, d_out=4, seed=0)
    @example(d_in=4, d_out=1, seed=0)
    def test_matches_index_sum_oracle(self, d_in, d_out, seed):
        rng = np.random.default_rng(seed)
        c = random_cptp_rect(rng, d_in, d_out)
        rho = random_density(rng, d_in)
        assert np.abs(chan.apply(c, rho) - apply_oracle(c, rho)).max() < 1e-12

    @given(d_in=dims, d_out=dims, seed=seeds,
           alpha=st.floats(-1.0, 1.0), beta=st.floats(-1.0, 1.0))
    @example(d_in=1, d_out=1, seed=0, alpha=0.0, beta=0.0)
    @example(d_in=4, d_out=1, seed=0, alpha=-1.0, beta=1.0)
    def test_linear(self, d_in, d_out, seed, alpha, beta):
        rng = np.random.default_rng(seed)
        c = random_cptp_rect(rng, d_in, d_out)
        x = rng.standard_normal((d_in, d_in)) + 1j * rng.standard_normal((d_in, d_in))
        y = rng.standard_normal((d_in, d_in)) + 1j * rng.standard_normal((d_in, d_in))
        lhs = chan.apply(c, alpha * x + beta * y)
        rhs = alpha * chan.apply(c, x) + beta * chan.apply(c, y)
        assert np.abs(lhs - rhs).max() < 1e-12


class TestFixedPoints:
    def test_identity_channel(self):
        fps = chan.fixed_points(chan.identity_channel(2))
        assert len(fps.states) >= 1
        assert max(fps.eigenvalue_residuals) < 1e-12
        # the whole 4-dim operator space is fixed
        ones = [z for z in fps.spectrum.peripheral_spectrum if abs(z - 1) < 1e-9]
        assert len(ones) == 4

    def test_dephasing(self):
        fps = chan.fixed_points(dephasing_choi())
        assert len(fps.states) == 2
        found0 = min(trace_distance(s, basis_proj(0, 2)) for s in fps.states)
        found1 = min(trace_distance(s, basis_proj(1, 2)) for s in fps.states)
        assert found0 < 1e-9 and found1 < 1e-9

    def test_qutrit_projection_channel(self):
        c = ChoiMatrix(3, 3, sum(kron(basis_proj(i, 3), basis_proj(i, 3)) for i in range(3)))
        fps = chan.fixed_points(c)
        for i in (0, 1):
            assert min(trace_distance(s, basis_proj(i, 3)) for s in fps.states) < 1e-9

    def test_every_returned_state_is_fixed(self, rng):
        for d in (2, 3):
            c = chan.random_cptp_choi(d, rng)
            fps = chan.fixed_points(c)
            assert len(fps.states) >= 1
            for s, r in zip(fps.states, fps.eigenvalue_residuals):
                assert r <= 1e-8
                assert trace_distance(chan.apply(c, s), s) <= 1e-8
                assert abs(np.trace(s).real - 1.0) < 1e-9

    def test_rejects_non_cptp(self):
        with pytest.raises(ValueError):
            chan.fixed_points(ChoiMatrix(2, 2, -np.eye(4)))

    def test_rejects_non_square(self, rng):
        with pytest.raises(ValueError, match="fixed_points requires a square channel"):
            chan.fixed_points(random_cptp_rect(rng, 2, 3))

    def test_jordan_block_below_one(self):
        # classical chain 3 -> 2 -> 1 -> 0, each step taken with probability
        # eps: the superoperator has the eigenvalue 1 (state 0) and a 3x3
        # Jordan block at 1 - eps, so its eigenvectors are not a basis
        eps = 1e-3
        t = np.eye(4)
        for j in (1, 2, 3):
            t[j, j], t[j - 1, j] = 1 - eps, eps
        fps = chan.fixed_points(classical_choi(t))
        assert len(fps.states) == 1
        assert np.abs(fps.states[0] - basis_proj(0, 4)).max() <= 1e-12
        assert fps.eigenvalue_residuals[0] <= 1e-12

    def test_reference_state_is_cesaro_limit(self):
        # 3 -> 2 -> 0 with probability eps per step, 1 absorbing: the limit of
        # Phi^k(I/4) moves the weight of 2 and 3 onto |0><0| and keeps 1/4 on
        # |1><1|; the orthogonal projection onto the fixed space would not
        eps = 1e-3
        t = np.eye(4)
        t[2, 2], t[0, 2] = 1 - eps, eps
        t[3, 3], t[2, 3] = 1 - eps, eps
        p1 = chan.fixed_points(classical_choi(t)).projector
        assert np.linalg.matrix_rank(p1) == 2
        rho = (p1 @ np.eye(4).reshape(-1) / 4).reshape(4, 4)
        assert np.abs(rho - np.diag([0.75, 0.25, 0.0, 0.0])).max() <= 1e-12

    def test_unitary_with_phase(self):
        fps = chan.fixed_points(chan.unitary_channel(np.diag([1.0, 1j])))
        assert len(fps.states) == 2
        for i in (0, 1):
            assert min(trace_distance(s, basis_proj(i, 2)) for s in fps.states) < 1e-12
        assert max(fps.eigenvalue_residuals) < 1e-12

    def test_fallbacks_take_the_least_singular_values_then_rho(self):
        # (1 - 1e-10) times the dephasing: at fp_tol 1e-12 no singular value
        # of S_r - I is within tolerance, so the least ones (1e-10) span the
        # fixed space; neither basis state is then fixed within fp_tol, so the
        # one state left is rho = P1 I/d, with its residual 5e-11
        c = chan.choi_from_map(lambda r: (1 - 1e-10) * np.diag(np.diag(r)), 2, 2)
        fps = chan.fixed_points(c, fp_tol=1e-12)
        assert np.linalg.svd(fps.spectrum.s_r - np.eye(4), compute_uv=False).min() > 1e-11
        assert len(fps.states) == 1
        assert np.abs(fps.states[0] - np.eye(2) / 2).max() <= 1e-15
        assert fps.eigenvalue_residuals[0] == pytest.approx(5e-11, rel=1e-6)
        # at the default tolerance both basis states are fixed
        fps = chan.fixed_points(c)
        assert len(fps.states) == 2
        for i, state in enumerate(fps.states):
            assert np.abs(state - basis_proj(i, 2)).max() <= 1e-15

    def test_two_mixed_sectors(self, rng):
        # d = 4, two rank-2 mixed states on orthogonal supports in a Haar basis
        sigmas, c = mixed_sector_channel(rng, [[0.7, 0.3], [0.4, 0.6]])
        fps = chan.fixed_points(c)
        assert len(fps.states) == 2
        for sigma in sigmas:
            assert min(np.abs(s - sigma).max() for s in fps.states) < 1e-9


class TestFixedPointsProperties:
    """On random separable channels (2-3 sectors of rank 1-3, eigenvalue
    weights >= 1e-3 before normalization, Haar basis, an optional decay
    dimension) the fixed states are exactly the sector states sigma_i."""

    @given(sectors=st.lists(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=3),
                            min_size=2, max_size=3),
           extra=st.integers(0, 1),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @example(sectors=[[1.0], [1.0]], extra=0, seed=0)  # two pure states span d = 2
    @example(sectors=[[1.0], [1.0], [1.0]], extra=1, seed=0)
    @example(sectors=[[1e-3, 1.0], [1.0]], extra=0, seed=0)
    def test_recovers_sector_states(self, sectors, extra, seed):
        sigmas, c = mixed_sector_channel(np.random.default_rng(seed), sectors, extra)
        fps = chan.fixed_points(c)
        assert len(fps.states) == len(sigmas)
        for sigma in sigmas:
            assert min(trace_distance(s, sigma) for s in fps.states) <= 1e-8

    @given(sectors=st.lists(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=3),
                            min_size=2, max_size=3),
           extra=st.integers(1, 3),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @example(sectors=[[1.0], [1.0]], extra=1, seed=0)
    @example(sectors=[[1.0], [1.0]], extra=3, seed=0)
    def test_projector_gives_the_limit(self, sectors, extra, seed):
        # with `extra` decaying dimensions P1 rho is the limit of the iterates
        rng = np.random.default_rng(seed)
        _, c = mixed_sector_channel(rng, sectors, extra)
        rho = random_density(rng, c.d_in)
        settled = (chan.fixed_points(c).projector @ rho.reshape(-1)).reshape(rho.shape)
        assert trace_distance(chan.apply(c, settled), settled) <= 1e-12
        limit = chan.iterate(c, rho, 2000, stop_tol=1e-13)[-1]
        assert np.abs(settled - limit).max() <= 1e-9


def complex_fixed_point_reference(c: ChoiMatrix):
    """The superoperator's eigenvalues, and its spectral projector onto the
    fixed space, R (L^dag R)^-1 L^dag with R and L the right and left null
    vectors of S - I, all from complex LAPACK calls on S itself."""
    s = c.superop
    u, sv, vh = np.linalg.svd(s - np.eye(len(s)))
    right, left_dag = vh[sv <= chan.FP_TOL].conj().T, u[:, sv <= chan.FP_TOL].conj().T
    return np.linalg.eigvals(s), right @ np.linalg.solve(left_dag @ right, left_dag)


def fixed_point_case(family: str, d: int, rng: np.random.Generator):
    """(channel, its fixed states or None when it has one): a random CPTP
    channel, a Haar unitary channel (the eigenprojectors of U), or a separable
    channel of sectors of rank 1-2 with up to d - 2 decaying dimensions."""
    if family == "cptp":
        return chan.random_cptp_choi(d, rng), None
    if family == "unitary":
        u = haar_unitary(d, rng)
        _, vecs = np.linalg.eig(u)
        return chan.unitary_channel(u), [np.outer(v, v.conj()) / np.vdot(v, v).real for v in vecs.T]
    extra = int(rng.integers(0, d - 1))
    sectors, left = [], d - extra
    while left:
        rank = min(left, int(rng.integers(1, 3)))
        sectors.append(list(rng.uniform(0.1, 1.0, rank)))
        left -= rank
    sigmas, c = mixed_sector_channel(rng, sectors, extra)
    return c, sigmas


def same_multiset(a, b, tol: float) -> bool:
    """Do a and b pair up one to one within tol, each z of a taking its
    nearest remaining partner in b?"""
    rest = list(b)
    for z in a:
        if not rest:
            return False
        if abs(rest.pop(int(np.argmin(np.abs(np.subtract(rest, z))))) - z) > tol:
            return False
    return not rest


class TestFixedPointsRealCoordinates:
    """fixed_points works on the real matrix of S in the Hermitian basis; its
    spectrum, projector and states agree with a complex computation on S."""

    @given(family=st.sampled_from(["cptp", "unitary", "separable"]), d=st.integers(2, 8),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @example(family="cptp", d=2, seed=0)
    @example(family="cptp", d=8, seed=0)
    @example(family="unitary", d=2, seed=0)
    @example(family="unitary", d=8, seed=0)
    @example(family="separable", d=2, seed=0)
    @example(family="separable", d=8, seed=0)
    def test_matches_complex_reference(self, family, d, seed):
        c, expected = fixed_point_case(family, d, np.random.default_rng(seed))
        fps = chan.fixed_points(c)
        evals, p_ref = complex_fixed_point_reference(c)
        on_circle = np.abs(np.abs(evals) - 1) <= chan.FP_TOL
        assert same_multiset(fps.spectrum.peripheral_spectrum, evals[on_circle], 1e-12)
        assert abs(fps.spectrum.decay_modulus - np.abs(evals[~on_circle]).max(initial=0.0)) <= 1e-12
        p, s = fps.projector, c.superop
        assert np.abs(p @ p - p).max() <= 1e-12
        assert np.abs(p @ s - s @ p).max() <= 1e-12
        assert np.abs(s @ p - p).max() <= 1e-12
        assert np.abs(p - p_ref).max() <= 1e-12
        if expected is None:
            rho = (p_ref @ np.eye(d).reshape(-1)).reshape(d, d)
            expected = [rho / np.trace(rho)]
        assert len(fps.states) == len(expected)
        for state in expected:
            assert min(np.abs(got - state).max() for got in fps.states) <= 1e-12

    def test_hermitian_part_of_a_defective_choi(self, rng):
        # an anti-Hermitian defect of 1e-7 with tr_H1 = 0 keeps the channel
        # CPTP within tolerance; only the Hermitian part decides the fixed set
        sigmas, c_h = mixed_sector_channel(rng, [[0.7, 0.3], [1.0]], extra=1)
        z = np.diag([1.0, -1.0, 0.0, 0.0])
        m = rng.standard_normal((4, 4))
        c = ChoiMatrix(4, 4, c_h.matrix + 1e-7j * kron(z, m + m.T))
        assert linops.herm_defect(c.matrix) > 1e-7
        fps, ref = chan.fixed_points(c), chan.fixed_points(c_h)
        assert len(fps.states) == len(ref.states) == 2
        for got, want in zip(fps.states, ref.states):
            assert np.abs(got - want).max() <= 1e-12
        assert np.abs(fps.projector - ref.projector).max() <= 1e-12
        for sigma in sigmas:
            assert min(np.abs(s - sigma).max() for s in fps.states) <= 1e-9

    def test_unitary_eigenphases_give_exact_conjugate_pairs(self, rng):
        theta = 0.7
        v = haar_unitary(3, rng)
        u = v @ np.diag(np.exp(1j * np.array([0.0, theta, -theta]))) @ v.conj().T
        spectrum = chan.fixed_points(chan.unitary_channel(u)).spectrum.peripheral_spectrum
        assert sorted(spectrum, key=lambda z: (z.real, z.imag)) == sorted(
            (z.conjugate() for z in spectrum), key=lambda z: (z.real, z.imag))
        phases = [np.exp(1j * (a - b)) for a in (0, theta, -theta) for b in (0, theta, -theta)]
        assert same_multiset(spectrum, phases, 1e-12)

    def test_peripheral_spectrum_is_in_ascending_angle(self):
        # all nine eigenvalues of a Haar qutrit's conjugation lie on the unit
        # circle, so their moduli differ by rounding only and must not set the order
        u = haar_unitary(3, np.random.default_rng(4))
        angles = np.angle(chan.fixed_points(chan.unitary_channel(u)).spectrum.peripheral_spectrum)
        assert len(angles) == 9
        assert (np.diff(angles) >= 0).all()


class TestSpectrum:
    def test_needs_no_cptp_channel(self):
        # Choi matrix -I maps rho to -tr(rho) I: eigenvalue -2 on I, 0 on the
        # traceless operators, so nothing lies on the unit circle
        spec = chan.spectrum(ChoiMatrix(2, 2, -np.eye(4)))
        assert spec.peripheral_spectrum == []
        assert spec.decay_modulus == pytest.approx(2.0, abs=1e-12)

    def test_rejects_non_square(self, rng):
        with pytest.raises(ValueError, match="spectrum requires a square channel"):
            chan.spectrum(random_cptp_rect(rng, 2, 3))

    def test_fixed_points_solves_one_eigenproblem(self, rng, monkeypatch):
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a) or eigvals(a))
        c = chan.random_cptp_choi(3, rng)
        fps = chan.fixed_points(c)
        assert len(calls) == 1
        assert fps.spectrum.peripheral_spectrum == chan.spectrum(c).peripheral_spectrum
        assert fps.spectrum.decay_modulus == chan.spectrum(c).decay_modulus


class TestIterate:
    def test_identity_constant(self, rng):
        rho = random_density(rng, 2)
        seq = chan.iterate(chan.identity_channel(2), rho, 5)
        assert len(seq) == 5
        for s in seq:
            assert trace_distance(s, rho) < 1e-12

    def test_dephasing_converges_in_one_step(self):
        plus = linops.ket_projector(np.array([1.0, 1.0]) / np.sqrt(2))
        seq = chan.iterate(dephasing_choi(), plus, 10)
        assert np.abs(seq[0] - np.eye(2) / 2).max() < 1e-12
        for s in seq[1:]:
            assert np.abs(s - seq[0]).max() < 1e-12

    def test_stop_tol_short_circuits(self):
        plus = linops.ket_projector(np.array([1.0, 1.0]) / np.sqrt(2))
        seq = chan.iterate(dephasing_choi(), plus, 50, stop_tol=1e-10)
        assert len(seq) == 2  # second step confirms stationarity

    def test_outputs_are_states(self, rng):
        c = chan.random_cptp_choi(3, rng)
        for s in chan.iterate(c, random_density(rng, 3), 20):
            assert abs(np.trace(s).real - 1.0) < 1e-9
            assert np.linalg.eigvalsh(s).min() > -1e-9

    def test_validates_count_and_channel(self, rng):
        with pytest.raises(ValueError):
            chan.iterate(chan.identity_channel(2), np.eye(2) / 2, 0)
        with pytest.raises(ValueError):
            chan.iterate(ChoiMatrix(2, 2, -np.eye(4)), np.eye(2) / 2, 3)

    def test_rejects_non_square(self, rng):
        with pytest.raises(ValueError, match="iterate requires a square channel"):
            chan.iterate(random_cptp_rect(rng, 2, 3), np.eye(2) / 2, 1)


class TestChoiJson:
    def test_roundtrip(self, rng):
        c = chan.random_cptp_choi(2, rng)
        back = chan.choi_from_json(chan.choi_to_json(c))
        assert back.d_in == 2 and back.d_out == 2
        assert np.abs(back.matrix - c.matrix).max() < 1e-15

    def test_missing_dims(self):
        with pytest.raises(ValueError):
            chan.choi_from_json({"rows": 4, "cols": 4, "re": [0.0] * 16, "im": [0.0] * 16})

    @given(d_in=st.integers(1, 4), d_out=st.integers(1, 4),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @example(d_in=1, d_out=1, seed=0)
    @example(d_in=1, d_out=4, seed=0)
    def test_roundtrip_through_text_is_exact(self, d_in, d_out, seed):
        c = random_cptp_rect(np.random.default_rng(seed), d_in, d_out)
        back = chan.choi_from_json(json.loads(json.dumps(chan.choi_to_json(c))))
        assert (back.d_in, back.d_out) == (d_in, d_out)
        assert back.matrix.tobytes() == c.matrix.tobytes()
