import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conekit import channel as chan
from conekit import cli, engineer, linops
from conekit.conesim import haar_unitary
from conekit.engineer import (
    ConstructionError,
    SeparableMultiSpec,
    build_separable_multi,
    build_via_sdp,
    find_discrimination_projectors,
)
from conekit.linops import kron, trace_distance

from conftest import basis_proj, random_density, sample_valid_single_pair


def random_psd(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    return g @ g.conj().T


class TestComplete:
    """X + B (x) (I - tr_H1[X]), the completion every construction ends with."""

    dims = st.integers(1, 4)
    seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)

    @given(d=dims, seed=seeds)
    @example(d=1, seed=0)
    def test_trace_preserving_for_any_core(self, d, seed):
        rng = np.random.default_rng(seed)
        x = random_psd(rng, d * d, d * d) / d
        c = engineer._complete(x, random_density(rng, d))
        reduced = linops.partial_trace(c.matrix, (d, d), over=1)
        assert np.abs(reduced - np.eye(d)).max() <= 1e-12

    @given(d=dims, rank=st.integers(1, 4), seed=seeds)
    @example(d=1, rank=1, seed=0)
    @example(d=4, rank=1, seed=0)
    def test_fixes_sigma_of_a_projector_core(self, d, rank, seed):
        rng = np.random.default_rng(seed)
        sigma = random_density(rng, d)
        pi = random_psd(rng, d, min(rank, d))
        pi /= np.linalg.eigvalsh(pi).max()
        overlap = float(np.trace(pi @ sigma).real)
        assume(overlap > 1e-3)
        c = engineer._complete(kron(sigma, pi.T) / overlap, random_density(rng, d))
        assert np.abs(linops.partial_trace(c.matrix, (d, d), over=1) - np.eye(d)).max() <= 1e-12
        assert trace_distance(chan.apply(c, sigma), sigma) <= 1e-12


def engineer_single(tmp_path, capsys, sigma, b, *flags):
    """Exit code and JSON output (stdout, else stderr) of ``engineer single``."""
    paths = []
    for name, m in (("sigma", sigma), ("b", b)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(linops.matrix_to_json(m)))
    code = cli.main(["engineer", "single", "--sigma", str(paths[0]), "--b", str(paths[1]), *flags])
    captured = capsys.readouterr()
    return code, json.loads(captured.out or captured.err)


class TestSingleFixedPoint:
    """One state with its top-eigenvector projector, the core of ``engineer single``."""

    top = staticmethod(SeparableMultiSpec.from_top_eigenvector)

    def test_pure_sigma_orthogonal_b_gives_dephasing(self):
        # w = 0: the core completes to the dephasing channel, which fixes B
        # as well, so the construction is rejected
        spec = self.top(basis_proj(0, 2), basis_proj(1, 2))
        expected = kron(basis_proj(0, 2), basis_proj(0, 2)) + kron(basis_proj(1, 2), basis_proj(1, 2))
        assert np.abs(spec.channel.matrix - expected).max() < 1e-12
        with pytest.raises(ConstructionError) as exc:
            build_separable_multi(spec)
        assert exc.value.reason == "decay-weight-zero"

    def test_maximally_mixed_sigma_uses_tiebreak(self):
        b = linops.ket_projector(np.array([1.0, 1.0]) / np.sqrt(2))  # w = 2 <0|B|0> = 1
        spec = self.top(np.eye(2) / 2, b)
        assert abs(spec.cross_overlaps[0, 0] - 0.5) < 1e-12
        assert np.abs(spec.projectors[0] - basis_proj(0, 2)).max() < 1e-12
        c = build_separable_multi(spec)
        expected = kron(np.eye(2) - b, basis_proj(0, 2)) + kron(b, basis_proj(1, 2))
        assert np.abs(c.matrix - expected).max() < 1e-12
        assert trace_distance(chan.apply(c, np.eye(2) / 2), np.eye(2) / 2) < 1e-12

    def test_boundary_overlap_accepted(self):
        c = build_separable_multi(self.top(basis_proj(0, 2), basis_proj(0, 2)))
        rep = chan.is_cptp(c)
        assert rep.cp and rep.tp
        assert trace_distance(chan.apply(c, basis_proj(0, 2)), basis_proj(0, 2)) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_b_equal_to_sigma_gives_the_replacement_channel(self, rng, d, tmp_path, capsys):
        # b_weight is 1 up to rounding in either direction (1 - w of 0.0 and
        # -2.2e-16 occur at d = 3, 4); DECAY_TOL accepts both
        sigma = random_density(rng, d)
        spec = self.top(sigma, sigma)
        assert abs(1.0 - spec.b_weight) < 1e-12
        c = build_separable_multi(spec)
        rho = random_density(rng, d)
        assert trace_distance(chan.apply(c, rho), sigma) < 1e-12
        code, out = engineer_single(tmp_path, capsys, sigma, sigma)
        assert code == 0
        assert np.abs(chan.choi_from_json(out["channel"]).matrix - c.matrix).max() == 0

    def test_weight_inside_the_circle_tolerance_is_rejected(self, tmp_path, capsys):
        # w = 5e-9: 1 - w is on the unit circle of channel.spectrum, which
        # would count B as a second fixed state, so the rule rejects it too
        spec = self.top(np.diag([1.0, 0.0]), np.diag([5e-9, 1.0 - 5e-9]))
        assert spec.b_weight == pytest.approx(5e-9, abs=1e-15)
        assert len(chan.spectrum(spec.channel).peripheral_spectrum) == 2
        with pytest.raises(ConstructionError) as exc:
            build_separable_multi(spec)
        assert exc.value.reason == "decay-weight-zero"
        code, err = engineer_single(tmp_path, capsys, np.diag([1.0, 0.0]), np.diag([5e-9, 1.0 - 5e-9]))
        assert code == 3
        assert err["reason"] == "decay-weight-zero"

    def test_violation_rejected_with_named_inequality(self, tmp_path, capsys):
        # sigma = I/2 with B = |0><0| has w = <0|B|0> / lambda_max = 2
        sigma = np.eye(2) / 2
        with pytest.raises(ConstructionError) as exc:
            build_separable_multi(self.top(sigma, basis_proj(0, 2)))
        assert exc.value.reason == "decay-weight-too-large"
        code, err = engineer_single(tmp_path, capsys, sigma, basis_proj(0, 2))
        assert code == 3
        assert err["reason"] == "decay-weight-too-large"
        assert "is not in (1e-08, 2 - 1e-08)" in err["error"]
        assert err["details"] == pytest.approx({"b_weight": 2.0}, abs=1e-12)

    def test_valid_pairs_give_cptp_fixed_point(self, rng):
        for dim in (2, 3, 4):
            for _ in range(15):
                sigma, b = sample_valid_single_pair(rng, dim)
                c = build_separable_multi(self.top(sigma, b))
                rep = chan.is_cptp(c)
                assert rep.cp and rep.tp
                assert trace_distance(chan.apply(c, sigma), sigma) < 1e-9

    def test_qubit_always_cptp_even_on_violation(self, rng):
        # in dimension 2 the construction is CPTP regardless of the overlap
        # condition; the condition guards the iterable-input set instead
        for _ in range(20):
            sigma = random_density(rng, 2)
            b = random_density(rng, 2)
            c = self.top(sigma, b).channel
            rep = chan.is_cptp(c)
            assert rep.cp and rep.tp

    def test_report_fields(self, tmp_path, capsys):
        code, out = engineer_single(tmp_path, capsys, basis_proj(0, 2), np.eye(2) / 2, "--report")
        assert code == 0
        rep = out["report"]
        assert list(rep) == ["lambda_max", "vmax_overlap", "cp_factor_min_eig", "b_weight",
                             "decay_modulus", "peripheral_spectrum", "choi_min_eig",
                             "tp_residual", "cp", "tp", "fixed_point_residual"]
        assert rep["cp"] and rep["tp"]
        assert rep["fixed_point_residual"] < 1e-12
        assert abs(rep["lambda_max"] - 1.0) < 1e-12
        assert abs(rep["vmax_overlap"] - 0.5) < 1e-12
        assert abs(rep["b_weight"] - 0.5) < 1e-12
        assert abs(rep["decay_modulus"] - 0.5) < 1e-12
        assert rep["peripheral_spectrum"] == [[1.0, 0.0]]


SEEDS = st.integers(min_value=0, max_value=2 ** 32 - 1)


@st.composite
def separable_cases(draw):
    """(sigmas, B, top): one state with its top-eigenvector projector (top),
    or states on disjoint blocks of a Haar basis with their support
    projectors; B a random state of random rank."""
    d = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(SEEDS))
    b = random_psd(rng, d, int(rng.integers(1, d + 1)))
    b /= np.trace(b).real
    if draw(st.booleans()):
        return [random_density(rng, d)], b, True
    u = haar_unitary(d, rng)
    covered = int(rng.integers(1, d + 1))
    k = int(rng.integers(1, covered + 1))
    cuts = np.sort(rng.choice(np.arange(1, covered), size=k - 1, replace=False))
    sigmas = []
    for cols in np.split(u[:, :covered], cuts, axis=1):
        w = rng.uniform(0.1, 1.0, cols.shape[1])
        sigmas.append((cols * (w / w.sum())) @ cols.conj().T)
    return sigmas, b, False


class TestDecayRule:
    """Off the fixed states a separable channel has the one eigenvalue 1 - w,
    so it is built exactly when |1 - w| < 1, and its reported spectrum
    shows that eigenvalue."""

    @given(case=separable_cases())
    @example(case=([basis_proj(0, 2)], basis_proj(1, 2), True))     # w = 0
    @example(case=([np.diag([0.7, 0.3])], basis_proj(0, 2), True))  # w = 1/0.7
    @example(case=([np.eye(2) / 2], basis_proj(0, 2), True))        # w = 2
    @example(case=([np.eye(3) / 3], basis_proj(0, 3), True))        # w = 3
    def test_spectrum_is_one_minus_w_off_the_fixed_states(self, case):
        sigmas, b, top = case
        if top:
            spec = SeparableMultiSpec.from_top_eigenvector(sigmas[0], b)
        else:
            spec = SeparableMultiSpec.from_states(sigmas, b=b)
        k, w = len(sigmas), spec.b_weight
        eig = np.linalg.eigvals(spec.channel.superop)
        expected = np.sort(np.r_[np.ones(k), 1.0 - w, np.zeros(len(eig) - k - 1)])
        assert np.abs(eig.imag).max() < 1e-6
        assert np.abs(np.sort(eig.real) - expected).max() < 1e-6
        off = eig[np.argsort(np.abs(eig - 1.0))][k:]  # all but the k fixed states
        try:
            assert build_separable_multi(spec) is spec.channel
        except ConstructionError as exc:
            assert np.abs(off).max() > 1.0 - 1e-6
            assert exc.reason == ("decay-weight-zero" if w < 1.0 else "decay-weight-too-large")
        else:
            assert np.abs(off).max() < 1.0 - 1e-6

        rep = engineer.separable_condition_report(spec)
        ring = [complex(*z) for z in rep["peripheral_spectrum"]]
        if engineer._decays(w):
            assert len(ring) == k and np.abs(np.subtract(ring, 1.0)).max() < 1e-6
            assert abs(rep["decay_modulus"] - abs(1.0 - w)) < 1e-6
        elif abs(abs(1.0 - w) - 1.0) < 1e-9:  # w = 0 or 2: 1 - w joins the k ones
            assert len(ring) == k + 1
            assert np.abs(np.subtract(ring, 1.0 - w)).min() < 1e-6
        else:  # w > 2: the iterates diverge as (w - 1)^n
            assert abs(rep["decay_modulus"] - (w - 1.0)) < 1e-6


class TestDiscrimination:
    def test_orthogonal_pure_states(self):
        rep = find_discrimination_projectors([basis_proj(0, 2), basis_proj(1, 2)])
        assert rep.feasible
        assert np.abs(rep.projectors[0] - basis_proj(0, 2)).max() < 1e-10
        assert np.abs(rep.projectors[1] - basis_proj(1, 2)).max() < 1e-10
        assert np.allclose(rep.overlaps, [1.0, 1.0])

    def test_nonorthogonal_pure_states_are_discriminable(self):
        # kernel-analysis oracle: ker|+><+| = span|->, ker|0><0| = span|1>,
        # so Pi_0 = |-><-|, Pi_1 = |1><1| and both detection overlaps are 1/2
        plus = linops.ket_projector(np.array([1.0, 1.0]) / np.sqrt(2))
        minus = linops.ket_projector(np.array([1.0, -1.0]) / np.sqrt(2))
        rep = find_discrimination_projectors([basis_proj(0, 2), plus])
        assert rep.feasible
        assert np.abs(rep.projectors[0] - minus).max() < 1e-10
        assert np.abs(rep.projectors[1] - basis_proj(1, 2)).max() < 1e-10
        assert np.allclose(rep.overlaps, [0.5, 0.5])
        # cross annihilation holds exactly
        assert abs(np.trace(basis_proj(0, 2) @ rep.projectors[1]).real) < 1e-12
        assert abs(np.trace(plus @ rep.projectors[0]).real) < 1e-12

    def test_full_rank_partner_is_infeasible(self):
        rep = find_discrimination_projectors([basis_proj(0, 2), np.eye(2) / 2])
        assert not rep.feasible
        assert rep.failing_index == 0
        assert rep.kernel_ranks[0] == 0
        assert rep.overlaps[0] <= 1e-10

    def test_requires_two_states(self):
        with pytest.raises(ValueError):
            find_discrimination_projectors([basis_proj(0, 2)])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            find_discrimination_projectors([basis_proj(0, 2), np.eye(3) / 3])


class TestSeparableMulti:
    def qutrit_spec(self):
        return SeparableMultiSpec.from_states(
            [basis_proj(0, 3), basis_proj(1, 3)], b=basis_proj(2, 3)
        )

    def test_qutrit_matches_direct_expansion(self):
        # B = |2><2| has w = 0: the channel fixes it too and is rejected
        with pytest.raises(ConstructionError, match="condition 3"):
            build_separable_multi(self.qutrit_spec())
        c = self.qutrit_spec().channel
        expected = sum(kron(basis_proj(i, 3), basis_proj(i, 3)) for i in range(3))
        assert np.abs(c.matrix - expected).max() < 1e-12
        for i in (0, 1):
            s = basis_proj(i, 3)
            assert trace_distance(chan.apply(c, s), s) < 1e-12

    def test_degenerate_residual_makes_b_irrelevant(self, rng):
        states = [basis_proj(0, 2), basis_proj(1, 2)]
        spec_a = SeparableMultiSpec.from_states(states, b=random_density(rng, 2))
        spec_b = SeparableMultiSpec.from_states(states, b=random_density(rng, 2))
        # tr_H1 of the core is I, so B never acts and w = tr B = 1
        assert spec_a.b_weight == pytest.approx(1.0) and spec_b.b_weight == pytest.approx(1.0)
        ca = build_separable_multi(spec_a)
        cb = build_separable_multi(spec_b)
        assert np.abs(ca.matrix - cb.matrix).max() < 1e-12
        expected = kron(basis_proj(0, 2), basis_proj(0, 2)) + kron(basis_proj(1, 2), basis_proj(1, 2))
        assert np.abs(ca.matrix - expected).max() < 1e-12

    def test_trace_error_within_tolerance_stays_degenerate(self):
        # tr sigma_0 = 1 - 5e-8 passes check_density; the core still has
        # tr_H1[X] = I, so B never acts and both states stay fixed
        states = [np.diag([1 - 5e-8, 0.0]), np.diag([0.0, 1.0])]
        spec = SeparableMultiSpec.from_states(states)
        assert abs(spec.b_weight - 1.0) <= 1e-12
        c = build_separable_multi(spec)
        for s in states:
            assert trace_distance(chan.apply(c, s), s) < 1e-12

    @given(d=st.integers(2, 6), seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @example(d=1, seed=0)
    @example(d=2, seed=0)
    def test_decay_verdict_is_that_of_the_assembled_core(self, d, seed):
        # states on disjoint blocks of a Haar basis, traces within 1e-7 of 1,
        # with their support projectors
        rng = np.random.default_rng(seed)
        u = haar_unitary(d, rng)
        covered = int(rng.integers(1, d + 1))
        k = int(rng.integers(1, covered + 1))
        cuts = np.sort(rng.choice(np.arange(1, covered), size=k - 1, replace=False))
        sigmas, projs = [], []
        for cols in np.split(u[:, :covered], cuts, axis=1):
            w = rng.uniform(0.1, 1.0, cols.shape[1])
            w *= (1.0 + rng.uniform(-9e-8, 9e-8)) / w.sum()
            sigmas.append((cols * w) @ cols.conj().T)
            projs.append(cols @ cols.conj().T)
        b = random_density(rng, d)
        spec = SeparableMultiSpec.from_parts(sigmas, projs, b=b)
        core = sum(kron(s, p.T) / ov
                   for s, p, ov in zip(sigmas, projs, np.diag(spec.cross_overlaps)))
        x_out = linops.partial_trace(core, (d, d), over=1)
        assert abs(spec.b_weight - np.trace(x_out @ b.T).real) <= 1e-12
        if covered == d:  # tr_H1 of the core is I, so w = tr B = 1
            assert abs(spec.b_weight - 1.0) <= 1e-12

    def test_single_pure_state_reduces_to_closed_form(self):
        sigma = basis_proj(0, 2)
        b = np.eye(2) / 2
        spec = SeparableMultiSpec.from_states([sigma], b=b)
        via_multi = build_separable_multi(spec)
        # sigma (x) P^T / lambda_max, P the projector onto the top eigenvector
        w, v = linops.herm_eig(sigma)
        closed_form = engineer._complete(kron(sigma, linops.ket_projector(v[:, 0]).T) / w[0], b)
        assert np.abs(via_multi.matrix - closed_form.matrix).max() < 1e-12

    def test_condition1_error_names_annihilation(self):
        spec = self.qutrit_spec()
        bad = SeparableMultiSpec.from_parts(
            spec.sigmas,
            [spec.projectors[0], spec.projectors[1] + 0.1 * basis_proj(0, 3)],
            b=spec.b,
        )
        with pytest.raises(ConstructionError) as exc:
            build_separable_multi(bad)
        assert exc.value.reason == "cross-overlap-nonzero"

    def test_condition2_error_names_detection(self):
        bad = SeparableMultiSpec.from_parts(
            [basis_proj(0, 3), basis_proj(1, 3)],
            [basis_proj(2, 3), basis_proj(1, 3)],  # Pi_0 never detects sigma_0
            b=basis_proj(2, 3),
        )
        with pytest.raises(ConstructionError) as exc:
            build_separable_multi(bad)
        assert exc.value.reason == "zero-detection-overlap"

    def test_condition3_error_names_decay_weight(self):
        # full-kernel projectors in dim 4 put the decay weight w = 2 on a B
        # inside their common kernel
        v = [np.zeros(4) for _ in range(4)]
        for i in range(4):
            v[i][i] = 1.0
        sigma0, sigma1 = basis_proj(0, 4), basis_proj(1, 4)
        pi0 = basis_proj(0, 4) + basis_proj(2, 4) + basis_proj(3, 4)
        pi1 = basis_proj(1, 4) + basis_proj(2, 4) + basis_proj(3, 4)
        bad = SeparableMultiSpec.from_parts([sigma0, sigma1], [pi0, pi1], b=basis_proj(2, 4))
        assert bad.b_weight == pytest.approx(2.0)
        with pytest.raises(ConstructionError) as exc:
            build_separable_multi(bad)
        assert exc.value.reason == "decay-weight-too-large"

    @pytest.mark.parametrize("sigmas, projectors, b, message", [
        ([np.eye(2) / 2], [np.eye(2)], np.eye(3) / 3, "B is 3x3, but state 0 is 2x2"),
        ([np.eye(2) / 2], [np.eye(2)], np.eye(1), "B is 1x1, but state 0 is 2x2"),
        ([np.eye(2) / 2, np.eye(3) / 3], [np.eye(2), np.eye(3)], None,
         "state 1 is 3x3, but state 0 is 2x2"),
        ([np.eye(2) / 2], [np.eye(3)], None, "projector 0 is 3x3, but state 0 is 2x2"),
    ], ids=["b-larger", "b-one-by-one", "state", "projector"])
    def test_dimension_mismatch_is_named(self, sigmas, projectors, b, message):
        with pytest.raises(ValueError, match=message):
            SeparableMultiSpec.from_parts(sigmas, projectors, b=b)

    def test_infeasible_states_raise_through_from_states(self):
        with pytest.raises(ConstructionError) as exc:
            SeparableMultiSpec.from_states([basis_proj(0, 2), np.eye(2) / 2])
        assert exc.value.reason == "not-unambiguously-discriminable"
        assert exc.value.details["failing_index"] == 0

    def test_perturbed_projector_residual_grows_linearly(self):
        # the fixed-point identity fails linearly once annihilation breaks
        spec = self.qutrit_spec()
        slopes = []
        for eps in (1e-4, 1e-3, 1e-2):
            perturbed = SeparableMultiSpec.from_parts(
                spec.sigmas,
                [spec.projectors[0], spec.projectors[1] + eps * basis_proj(0, 3)],
                b=spec.b,
            )
            c = perturbed.channel
            res = trace_distance(chan.apply(c, spec.sigmas[0]), spec.sigmas[0])
            assert res >= 0.5 * eps
            slopes.append(res / eps)
        mean_slope = float(np.mean(slopes))
        assert all(abs(s - mean_slope) <= 0.2 * mean_slope for s in slopes)

    def test_report_contents(self):
        rep = engineer.separable_condition_report(self.qutrit_spec())
        assert rep["cp"] and rep["tp"]
        assert rep["max_cross_overlap"] < 1e-12
        assert max(rep["fixed_point_residuals"]) < 1e-12
        # B = |2><2| is fixed too (w = 0): three ones on the circle, nothing off it
        assert rep["b_weight"] == pytest.approx(0.0)
        assert rep["peripheral_spectrum"] == [[1.0, 0.0]] * 3
        assert rep["decay_modulus"] == pytest.approx(0.0, abs=1e-12)


class TestBuildViaSdp:
    def test_orthogonal_pure_pair(self):
        res = build_via_sdp([basis_proj(0, 2), basis_proj(1, 2)])
        assert abs(np.trace(res.x.matrix).real - 2.0) < 1e-6
        resid_op = np.eye(2) - linops.partial_trace(res.x.matrix, (2, 2), over=1)
        assert np.abs(resid_op).max() < 1e-6
        assert res.cptp.cp and res.cptp.tp
        assert max(res.residuals) < 1e-8
        # tr_H1[X] = I, so B never acts: C is the dephasing channel, with
        # eigenvalues 1, 1, 0, 0
        assert np.abs(np.array(res.spectrum.peripheral_spectrum) - 1.0).max() < 1e-6
        assert len(res.spectrum.peripheral_spectrum) == 2
        assert res.spectrum.decay_modulus < 1e-6

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_decay_state_equal_to_the_fixed_state_is_no_warning(self, d):
        # a full-rank sigma leaves no input for B: tr_H1[X] = I, so C is the
        # core itself whatever B is, with sigma its one fixed state. The
        # build emits no warning (any warning is an error under this suite's
        # filterwarnings)
        rng = np.random.default_rng(3)
        for _ in range(20):
            sigma = random_density(rng, d)
            res = build_via_sdp([sigma], b=sigma)
            assert len(res.spectrum.peripheral_spectrum) == 1
            assert abs(res.spectrum.peripheral_spectrum[0] - 1.0) < 1e-9
            assert res.spectrum.decay_modulus < 1.0 - 1e-6
            assert np.abs(res.c.matrix - build_via_sdp([sigma]).c.matrix).max() <= 1e-12

    def test_two_state_decay_is_the_spectrum_not_one_minus_w(self):
        # two full-rank qutrit states force the identity channel: every
        # eigenvalue lies on the unit circle, so nothing decays
        rng = np.random.default_rng(2)
        res = build_via_sdp([random_density(rng, 3) for _ in range(2)])
        assert res.solution.iterations == 0
        assert np.abs(res.c.matrix - chan.identity_channel(3).matrix).max() <= 1e-12
        moduli = np.abs(np.linalg.eigvals(res.c.superop))
        assert np.abs(moduli - 1.0).max() <= 1e-12
        assert len(res.spectrum.peripheral_spectrum) == 9
        assert res.spectrum.decay_modulus == 0.0

    def test_single_pure_state_recovers_closed_form_term(self):
        sigma = basis_proj(0, 2)
        res = build_via_sdp([sigma], b=basis_proj(1, 2))
        assert abs(res.solution.objective_value - 1.0) < 1e-6
        # minimum-trace X is the first term of the closed-form construction
        spec = SeparableMultiSpec.from_top_eigenvector(sigma, basis_proj(1, 2))
        first_term = kron(sigma, spec.projectors[0].T) / spec.cross_overlaps[0, 0]
        assert np.abs(res.x.matrix - first_term).max() < 1e-5

    def test_duplicated_states_match_single(self):
        rho = basis_proj(0, 2)
        res_single = build_via_sdp([rho], b=basis_proj(1, 2))
        res_dup = build_via_sdp([rho, rho], b=basis_proj(1, 2))
        assert np.abs(res_single.x.matrix - res_dup.x.matrix).max() < 1e-8
        assert abs(res_single.solution.objective_value - res_dup.solution.objective_value) < 1e-8

    def test_mixed_states_fixed(self, rng):
        states = [random_density(rng, 2)]
        res = build_via_sdp(states)
        assert res.cptp.tp
        assert max(res.residuals) < 1e-7

    def test_tp_by_construction(self, rng):
        res = build_via_sdp([random_density(rng, 3)])
        reduced = linops.partial_trace(res.c.matrix, (3, 3), over=1)
        assert np.abs(reduced - np.eye(3)).max() < 1e-9


@st.composite
def density_matrices(draw):
    """A state of random rank in dimension 2-4."""
    d = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(SEEDS))
    sigma = random_psd(rng, d, int(rng.integers(1, d + 1)))
    return sigma / np.trace(sigma).real


@st.composite
def orthogonal_pairs(draw):
    """Two states of random spectra on complementary blocks of a Haar basis of C^4."""
    rng = np.random.default_rng(draw(SEEDS))
    u = haar_unitary(4, rng)
    cut = int(rng.integers(1, 4))
    pair = []
    for cols in (u[:, :cut], u[:, cut:]):
        w = rng.uniform(0.05, 1.0, cols.shape[1])
        pair.append((cols * (w / w.sum())) @ cols.conj().T)
    return pair


class TestSdpOracles:
    """SDP cores known in closed form (module docstring of engineer)."""

    @given(sigma=density_matrices())
    @example(sigma=np.diag([0.7, 0.3]))
    @example(sigma=basis_proj(0, 3))
    @settings(max_examples=30)
    def test_one_state_gives_the_closed_form_core(self, sigma):
        # tr X = tr tr_H1[X] = rank sigma on the whole feasible set; a pure
        # sigma leaves one channel on its support, X = sigma (x) sigma^T
        rank = int(np.sum(np.linalg.eigvalsh(sigma) > 1e-10))
        res = build_via_sdp([sigma])
        assert abs(res.solution.objective_value - rank) <= 1e-7
        assert res.cptp.cp and res.cptp.tp
        assert res.residuals[0] <= 1e-7
        if rank == 1:
            assert res.solution.iterations == 0
            assert np.abs(res.x.matrix - kron(sigma, sigma.T)).max() <= 1e-12

    @given(pair=orthogonal_pairs())
    @example(pair=[np.diag([0.7, 0.3, 0.0, 0.0]), np.diag([0.0, 0.0, 0.6, 0.4])])
    @settings(max_examples=20)
    def test_orthogonal_supports_give_the_least_trace(self, pair):
        # every feasible X has tr X = rank rho, here 4; the optimum is not
        # unique, so only its value is compared
        least = sum(int(np.sum(np.linalg.eigvalsh(s) > 1e-10)) for s in pair)
        assert least == 4
        assert abs(build_via_sdp(pair).solution.objective_value - least) <= 1e-7


class TestFixedPointFace:
    """The face for the generic ``demo bell`` states: sigma0 has rank 3,
    sigma1 rank 2 with supp sigma1 inside supp sigma0, and their forced
    algebra is M_2 + C on supp rho, whose commutant is two-dimensional."""

    def bell_states(self):
        return list(cli.build_bell_demo_states(
            [0.8, 0.6, -0.6, 0.8, 0.6, 0.8, -0.8, 0.6],
            np.array([0.3, 0.4, 0.3]), np.array([0.2, 0.5, 0.3]),
        ))

    def test_isometry_has_two_orthonormal_columns(self):
        v = engineer.forced_algebra(self.bell_states()).face
        assert v.shape == (16, 2)
        assert np.abs(v.conj().T @ v - np.eye(2)).max() < 1e-12

    def test_identity_channel_lies_in_face(self):
        # every feasible X lies in the face, and the identity on supp rho
        # fixes every state; the identity on all inputs does not, as its
        # core would act on the input outside supp rho
        algebra = engineer.forced_algebra(self.bell_states())
        v, u = algebra.face, algebra.support
        w = (u @ u.conj().T).reshape(-1)
        proj = v @ v.conj().T
        x = np.outer(w, w.conj())
        assert np.abs(proj @ x @ proj - x).max() < 1e-12
        x = chan.identity_channel(4).matrix
        assert np.abs(proj @ x @ proj - x).max() > 0.1

    def test_solves_optimal_on_face(self):
        states = self.bell_states()
        res = build_via_sdp(states)
        assert res.solution.status == "optimal"
        assert "active face" not in res.solution.message  # no eigenvalue-split retry
        assert res.solution.primal_residual <= 1e-9
        assert max(res.residuals) <= 1e-9

    def test_full_rank_single_state_needs_no_face(self, rng):
        assert engineer.forced_algebra([random_density(rng, 3)]).face is None

    def test_small_eigenvalue_is_not_cut(self, rng):
        # an eigenvalue of 5e-8 is real support: cutting it would move the
        # constraints past the solver's inconsistency test
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u, _ = np.linalg.qr(g)
        states = [u @ np.diag(w) @ u.conj().T
                  for w in ([0.6, 0.4 - 5e-8, 5e-8], [0.3, 0.7 - 5e-8, 5e-8])]
        assert engineer.forced_algebra(states).support.shape[1] == 3
        # diagonal in one basis with distinct ratios: the commutant is the diagonal
        assert engineer.forced_algebra(states).face.shape[1] == 3
        res = build_via_sdp(states)
        assert res.solution.status == "optimal"
        assert max(res.residuals) <= 1e-9



def sweep_set(seed: int, index: int) -> list[np.ndarray]:
    """Set ``index`` of the sweep that draws, from default_rng(seed), d in
    2..4, k in 1..4 states and each state's rank in 1..d, a state being
    g g^dag / tr for a complex Gaussian d x rank matrix g."""
    rng = np.random.default_rng(seed)
    for _ in range(index + 1):
        d, k = int(rng.integers(2, 5)), int(rng.integers(1, 5))
        states = []
        for _ in range(k):
            s = random_psd(rng, d, int(rng.integers(1, d + 1)))
            states.append(s / np.trace(s).real)
    return states


def rank(state: np.ndarray) -> int:
    return int(np.sum(np.linalg.eigvalsh(state) > 1e-10))


PLUS = linops.ket_projector(np.array([1.0, 1.0]) / np.sqrt(2))
# states on the first two of three levels: two that commute, and two that
# force the identity on their support
COMMUTING_ON_A_PLANE = [np.diag([0.6, 0.4, 0.0]), np.diag([0.2, 0.8, 0.0])]
FORCING_ON_A_PLANE = [np.diag([0.6, 0.4, 0.0]), np.pad(PLUS, ((0, 1), (0, 1)))]
BELL_DEFAULT = list(cli.build_bell_demo_states(cli.DEFAULT_COEFFS, np.ones(3) / 3, np.ones(3) / 3))


class TestForcedAlgebra:
    """The commutant of the forced algebra: the face of the SDP, and the
    closed form when it is C I."""

    @pytest.mark.parametrize("states, dim", [
        ([np.diag([0.5, 0.3, 0.2])], 9),
        ([basis_proj(0, 3)], 1),
        ([basis_proj(0, 2), basis_proj(1, 2)], 2),
        ([np.diag([0.7, 0.3]), PLUS], 1),
        (COMMUTING_ON_A_PLANE, 2),
        (FORCING_ON_A_PLANE, 1),
        (BELL_DEFAULT, 3),
        (TestFixedPointFace().bell_states(), 2),
    ], ids=["one-full-rank", "one-pure", "orthogonal-pure", "non-commuting-pair",
            "commuting-on-a-plane", "forcing-on-a-plane", "bell-default", "bell-generic"])
    def test_commutant_dimension(self, states, dim):
        algebra = engineer.forced_algebra(states)
        assert algebra.commutant_dim == dim
        k = algebra.commutant
        assert np.abs(np.einsum("kab,lab->kl", k.conj(), k) - np.eye(dim)).max() < 1e-12
        # a *-algebra: closed under adjoints and products
        span = k.reshape(dim, -1).T
        for m in [*k.conj().swapaxes(1, 2), *(k[:, None] @ k[None, :]).reshape(-1, *k.shape[1:])]:
            coef = np.linalg.lstsq(span, m.ravel(), rcond=None)[0]
            assert np.abs(span @ coef - m.ravel()).max() < 1e-10

    def test_identity_forced_on_a_plane_is_the_closed_form(self):
        # C(Y) = Pi Y Pi + tr[(I - Pi) Y] B: the identity on supp rho, and B
        # for the input outside it
        b = np.diag([0.1, 0.2, 0.7])
        res = build_via_sdp(FORCING_ON_A_PLANE, b=b)
        sol = res.solution
        assert (sol.status, sol.iterations, sol.message) == ("optimal", 0, engineer.IDENTITY_FORCED)
        assert sol.objective_value == 2.0
        pi = np.diag([1.0, 1.0, 0.0])
        expected = np.outer(pi.ravel(), pi.ravel()) + kron(b, np.eye(3) - pi)
        assert np.abs(res.c.matrix - expected).max() <= 1e-12
        assert res.cptp.cp and res.cptp.tp

    @pytest.mark.parametrize("seed", range(8))
    def test_full_rank_qubit_pairs_give_the_identity(self, seed):
        rng = np.random.default_rng(seed)
        res = build_via_sdp([random_density(rng, 2) for _ in range(2)])
        assert res.solution.iterations == 0
        assert np.abs(res.c.matrix - chan.identity_channel(2).matrix).max() <= 1e-12
        assert res.spectrum.decay_modulus == 0.0
        assert len(res.spectrum.peripheral_spectrum) == 4

    @pytest.mark.parametrize("index, d, ranks", [(83, 4, [4, 1, 2, 3]), (176, 4, [1, 1, 3])])
    def test_sweep_sets_that_failed_solve(self, index, d, ranks):
        # 83 was "linearly inconsistent" on a face 1.1e-8 off the feasible
        # set, 176 stalled
        states = sweep_set(11, index)
        assert states[0].shape == (d, d) and [rank(s) for s in states] == ranks
        res = build_via_sdp(states)
        assert res.solution.status == "optimal"
        assert res.cptp.cp and res.cptp.tp
        assert max(res.residuals) <= 1e-7

    def test_three_states_of_ranks_two_two_three_give_a_cptp_channel(self):
        rng = np.random.default_rng(1)
        ranks = rng.integers(1, 4, size=3)
        states = [random_psd(rng, 4, int(r)) for r in ranks]
        states = [s / np.trace(s).real for s in states]
        assert [rank(s) for s in states] == [2, 2, 3]
        res = build_via_sdp(states)
        assert res.solution.status == "optimal"
        assert res.cptp.cp and res.cptp.tp
        assert max(res.residuals) <= 1e-7


@st.composite
def state_sets(draw):
    """One to three states of random ranks in dimension 2-4."""
    d = draw(st.integers(2, 4))
    k = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(SEEDS))
    states = [random_psd(rng, d, int(rng.integers(1, d + 1))) for _ in range(k)]
    return [s / np.trace(s).real for s in states]


class TestBuildViaSdpProperties:
    @given(states=state_sets())
    @example(states=COMMUTING_ON_A_PLANE)              # rank-deficient pair
    @example(states=[np.diag([0.7, 0.3]), PLUS])        # identity forced
    @example(states=[basis_proj(0, 2), basis_proj(1, 2)])  # commutant dimension 2
    @example(states=BELL_DEFAULT)
    @settings(max_examples=40)
    def test_cptp_fixing_and_closed_form_exactly_when_forced(self, states):
        res = build_via_sdp(states)
        assert res.solution.status == "optimal"
        assert res.cptp.cp and res.cptp.tp
        assert max(res.residuals) <= 1e-7
        forced = engineer.forced_algebra(states).commutant_dim == 1
        assert (res.solution.message == engineer.IDENTITY_FORCED) == forced
        assert (res.solution.iterations == 0) == forced
