import json

import numpy as np
import pytest
import scipy.linalg
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
    forced_algebra,
)
from conekit.linops import kron, trace_distance

from conftest import basis_proj, face, random_density, sample_valid_single_pair


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

    @pytest.mark.parametrize("weights, axis", [
        ([0.5, 0.5], 0), ([0.4, 0.4, 0.2], 0), ([0.2, 0.4, 0.4], 1), ([0.25] * 4, 0),
        ([0.1, 0.2, 0.7], 2),
    ])
    def test_diagonal_sigma_projects_onto_the_first_top_axis(self, weights, axis):
        spec = self.top(np.diag(weights))
        assert np.abs(spec.projectors[0] - basis_proj(axis, len(weights))).max() <= 1e-15

    def test_degenerate_top_eigenspace_is_not_split_by_rounding(self, tmp_path, capsys):
        # a 1e-16 change of sigma moved the channel by 0.12 when Pi was the
        # first eigenvector LAPACK returned for the double eigenvalue 0.4
        u = haar_unitary(3, np.random.default_rng(4))
        sigma = u @ np.diag([0.4, 0.4, 0.2]) @ u.conj().T
        nudged = sigma + np.diag([1e-16, -1e-16, 0.0])
        channels = []
        for s in (sigma, nudged):
            code, out = engineer_single(tmp_path, capsys, s, np.eye(3) / 3)
            assert code == 0
            channels.append(chan.choi_from_json(out["channel"]).matrix)
        assert np.abs(channels[0] - channels[1]).max() <= 1e-12
        pi = self.top(sigma).projectors[0]
        assert abs(np.trace(pi @ sigma).real - 0.4) <= 1e-12
        assert np.abs(pi @ pi - pi).max() <= 1e-12

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
            if exc.reason == "not-completely-positive":
                # it decays, but a channel that is not CP is refused as well
                assert np.abs(off).max() < 1.0 - 1e-6
                assert not spec.channel.cptp.cp
                assert exc.details == {"choi_min_eig": spec.channel.cptp.min_eig}
            else:
                assert np.abs(off).max() > 1.0 - 1e-6
                assert exc.reason == ("decay-weight-zero" if w < 1.0 else "decay-weight-too-large")
        else:
            assert np.abs(off).max() < 1.0 - 1e-6
            assert spec.channel.cptp.cp

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
        w, v = np.linalg.eigh(sigma)
        closed_form = engineer._complete(kron(sigma, linops.ket_projector(v[:, -1]).T) / w[-1], b)
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
        ([basis_proj(0, 2), basis_proj(1, 2)], [basis_proj(0, 2)], None,
         "one projector per state required"),
    ], ids=["b-larger", "b-one-by-one", "state", "projector", "too-few-projectors"])
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
        assert res.c.cptp.cp and res.c.cptp.tp
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
        # a state listed twice forces what it forces alone: the same core,
        # also for diag(0.7, 0.3), whose core is a centre with Newton steps
        for rho in (basis_proj(0, 2), np.diag([0.7, 0.3])):
            res_single = build_via_sdp([rho], b=basis_proj(1, 2))
            res_dup = build_via_sdp([rho, rho], b=basis_proj(1, 2))
            assert np.abs(res_single.x.matrix - res_dup.x.matrix).max() <= 1e-14
            assert res_single.solution.iterations == res_dup.solution.iterations
            assert abs(res_single.solution.objective_value - res_dup.solution.objective_value) < 1e-14

    def test_mixed_states_fixed(self, rng):
        states = [random_density(rng, 2)]
        res = build_via_sdp(states)
        assert res.c.cptp.tp
        assert max(res.residuals) < 1e-7

    def test_tp_by_construction(self, rng):
        res = build_via_sdp([random_density(rng, 3)])
        reduced = linops.partial_trace(res.c.matrix, (3, 3), over=1)
        assert np.abs(reduced - np.eye(3)).max() < 1e-9

    @pytest.mark.parametrize("seed", range(30))
    def test_an_eigenvalue_of_1e_7_is_solved(self, seed):
        # one state takes the dual Newton of its analytic centre, which
        # converges in 6-9 steps here; the interior-point solve of these sets
        # took 9-135 iterations
        sigma = eigenvalue_1e_7_state(seed)
        res = build_via_sdp([sigma])
        assert res.solution.status == "optimal"
        assert res.solution.message == engineer.ANALYTIC_CENTRE
        assert res.c.cptp.cp
        assert max(res.residuals) <= chan.FP_TOL
        # at the spectrum the build solved for, rounded from e by about 1e-16
        lam = forced_algebra([sigma]).eigenvalues
        assert max(centre_kkt(lam, centre_matrix(res))) <= 1e-12


def eigenvalue_1e_7_state(seed: int) -> np.ndarray:
    """U diag(e) U^dag in C^5, U Haar, e_0 = 1e-7 and the other four
    weights uniform in [0.1, 1.1), scaled to 1 - 1e-7, from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    e = rng.random(5) + 0.1
    e[0] = 1e-7
    e[1:] = e[1:] / e[1:].sum() * (1 - 1e-7)
    u = haar_unitary(5, rng)
    return u @ np.diag(e) @ u.conj().T


def centre_matrix(res) -> np.ndarray:
    """P[a, j] = Y[(a, j), (a, j)] of a one-state core Y = diag(vec P)."""
    y = res.solution.x
    r = int(round(np.sqrt(len(y))))
    assert not (y - np.diag(np.diag(y))).any()
    return np.diag(y).real.reshape(r, r)


def centre_kkt(lam: np.ndarray, p: np.ndarray) -> tuple[float, float]:
    """The KKT residuals of P as the analytic centre for the spectrum lam:
    primal, the largest entry of |1 - column sums of P| and |lam - P lam|;
    stationarity, the largest |P[a, j] (alpha_j + beta_a lam_j) - 1| at the
    multipliers that least-squares fit 1/P in that relative weighting."""
    r = lam.size
    primal = max(np.abs(1 - p.sum(axis=0)).max(), np.abs(lam - p @ lam).max())
    # row (a, j) of t = alpha_j + beta_a lam_j over the unknowns (alpha, beta)
    rows = np.hstack([np.tile(np.eye(r), (r, 1)),
                      np.repeat(np.eye(r), r, axis=0) * np.tile(lam, r)[:, None]])
    rows *= p.reshape(-1, 1)
    rows /= np.linalg.norm(rows, axis=0)  # beta_a runs to 1e8 for an eigenvalue of 1e-7
    coef = np.linalg.lstsq(rows, np.ones(r * r), rcond=None)[0]
    return float(primal), float(np.abs(rows @ coef - 1).max())


@st.composite
def density_matrices(draw):
    """A state of random rank in dimension 2-4."""
    d = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(SEEDS))
    sigma = random_psd(rng, d, int(rng.integers(1, d + 1)))
    return sigma / np.trace(sigma).real


@st.composite
def one_states(draw):
    """A state of random rank in dimension 2-6."""
    d = draw(st.integers(2, 6))
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
        assert res.c.cptp.cp and res.c.cptp.tp
        assert res.residuals[0] <= 1e-7
        if rank == 1:
            assert res.solution.iterations == 0
            assert np.abs(res.x.matrix - kron(sigma, sigma.T)).max() <= 1e-12

    @given(sigma=density_matrices())
    @example(sigma=np.diag([0.7, 0.3]))
    @example(sigma=np.diag([0.25, 0.25, 0.5]))
    @example(sigma=basis_proj(0, 3))
    @settings(max_examples=30)
    def test_one_state_core_is_a_classical_channel(self, sigma):
        # the core is the centre on diag(lambda): X is exactly diagonal, and
        # P[a, j] = X[(a, j), (a, j)] is a column-stochastic matrix with
        # P lambda = lambda
        algebra = forced_algebra([sigma])
        r = algebra.support.shape[1]
        lam = algebra.eigenvalues[len(sigma) - r:]
        x = build_via_sdp([sigma]).solution.x
        assert not (x - np.diag(np.diag(x))).any()
        p = np.diag(x).real.reshape(r, r)
        assert p.min() >= 0.0
        assert np.abs(p.sum(axis=0) - 1.0).max() <= 1e-9
        assert np.abs(p @ lam - lam).max() <= 1e-9

    @given(pair=orthogonal_pairs())
    @example(pair=[np.diag([0.7, 0.3, 0.0, 0.0]), np.diag([0.0, 0.0, 0.6, 0.4])])
    @settings(max_examples=20)
    def test_orthogonal_supports_give_the_least_trace(self, pair):
        # every feasible X has tr X = rank rho, here 4; the optimum is not
        # unique, so only its value is compared
        least = sum(int(np.sum(np.linalg.eigvalsh(s) > 1e-10)) for s in pair)
        assert least == 4
        assert abs(build_via_sdp(pair).solution.objective_value - least) <= 1e-7


class TestOneStateCentre:
    """One state's core is the analytic centre of its feasible set,
    Y = diag(vec P) with 1/P[a, j] = alpha_j + beta_a lam_j."""

    @pytest.mark.parametrize("lam", [
        [0.3, 0.7], [0.2, 0.3, 0.5], [0.2, 0.2, 0.2, 0.4], [0.25, 0.25, 0.5],
        np.sort(np.random.default_rng(4).dirichlet(np.ones(5))), [1e-7, 0.3, 0.7 - 1e-7],
    ], ids=["qubit", "qutrit", "three-equal", "two-equal", "r5", "1e-7"])
    def test_kkt_and_the_interior_point_oracle(self, lam):
        lam = np.asarray(lam)
        res = build_via_sdp([np.diag(lam[::-1])])
        p = centre_matrix(res)
        primal, stationarity = centre_kkt(lam, p)
        assert primal <= 1e-12 and stationarity <= 1e-12
        assert res.solution.primal_residual == pytest.approx(primal, abs=1e-15)
        assert abs(res.solution.objective_value - len(lam)) <= 1e-12
        # the interior-point solve of the same problem stops at a feasible
        # point, whose log det is no larger than the centre's
        ipm = engineer.sdpmod.solve(engineer.sdpmod.assemble_fixed_point_constraints([np.diag(lam)]))
        assert ipm.status == "optimal"
        q = np.diag(ipm.x).real.reshape(len(lam), len(lam))
        assert q.min() > 0
        assert max(np.abs(1 - q.sum(axis=0)).max(), np.abs(lam - q @ lam).max()) <= 1e-7
        assert np.log(q).sum() <= np.log(p).sum()

    def test_qubit_centre_value(self):
        # diag(0.7, 0.3): sum log P = -3.079806, above the -3.0817 of the
        # point the interior-point solve stops at, and a decay modulus of 0.113
        res = build_via_sdp([np.diag([0.7, 0.3])])
        assert np.log(centre_matrix(res)).sum() == pytest.approx(-3.079806, abs=1e-6)
        assert res.spectrum.decay_modulus == pytest.approx(0.113076, abs=1e-6)
        assert res.solution.iterations > 0

    @given(sigma=one_states(), seed=SEEDS)
    @example(sigma=np.diag([0.25, 0.25, 0.5]), seed=0)
    @example(sigma=np.eye(2) / 2, seed=1)
    @example(sigma=np.diag([0.3, 0.35 - 5e-10, 0.35 + 5e-10]), seed=2)  # a split of 1e-9
    @settings(max_examples=30)
    def test_covariant(self, sigma, seed):
        # the centre is basis-free: the channel of U sigma U^dag is the
        # U-conjugate of sigma's (B = I/d is U-invariant)
        u = haar_unitary(len(sigma), np.random.default_rng(seed))
        lift = np.kron(u, u.conj())
        c = build_via_sdp([sigma]).c.matrix
        turned = build_via_sdp([u @ sigma @ u.conj().T]).c.matrix
        assert np.abs(turned - lift @ c @ lift.conj().T).max() <= 1e-9

    def test_newton_that_misses_the_tolerance_raises(self, monkeypatch):
        # no unconverged core is returned: at a tolerance no residual meets,
        # Newton runs out of steps and the build exits numerical-limit
        monkeypatch.setattr(engineer, "CENTRE_TOL", -1.0)
        with pytest.raises(engineer.sdpmod.NumericalLimitError, match=f"after {engineer.sdpmod.MAX_ITER} steps"):
            build_via_sdp([np.diag([0.6, 0.3, 0.1])])


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
        # in the r^2 = 9 coordinates of supp rho, rank rho = 3
        v = face(engineer.forced_algebra(self.bell_states()))
        assert v.shape == (9, 2)
        assert np.abs(v.conj().T @ v - np.eye(2)).max() < 1e-12

    def test_identity_channel_lies_in_face(self):
        # every feasible core lies in the face, and the identity on supp rho,
        # |I_r>><<I_r| in its coordinates, fixes every state; lifted, the
        # face does not hold the identity on all inputs, as its core would
        # act on the input outside supp rho
        algebra = engineer.forced_algebra(self.bell_states())
        v, u = face(algebra), algebra.support
        proj = v @ v.conj().T
        w = np.eye(3).reshape(-1)
        y = np.outer(w, w)
        assert np.abs(proj @ y @ proj - y).max() < 1e-12
        lifted = np.kron(u, u.conj()) @ v
        proj = lifted @ lifted.conj().T
        x = chan.identity_channel(4).matrix
        assert np.abs(proj @ x @ proj - x).max() > 0.1

    def test_solves_optimal_on_face(self):
        # M_2 + C: both blocks have m_k = 1, so the centre is the pinching
        # onto them, and the interior-point solve on the face stops 1.3e-9
        # from it
        states = self.bell_states()
        res = build_via_sdp(states)
        assert res.solution.status == "optimal"
        assert res.solution.primal_residual == 0.0 and res.solution.iterations == 0
        assert max(res.residuals) <= 1e-9
        algebra = engineer.forced_algebra(states)
        assert sorted((n, m) for _, n, m in algebra.blocks) == [(1, 1), (2, 1)]
        pinching = sum(np.outer(z.ravel(), z.ravel().conj()) for z, _, _ in algebra.blocks)
        assert np.abs(res.solution.x - pinching).max() <= 1e-12
        u = algebra.support
        problem = engineer.sdpmod.assemble_fixed_point_constraints(u.conj().T @ np.array(states) @ u)
        ipm = engineer.sdpmod.solve(problem, face=face(algebra))
        assert ipm.status == "optimal"
        assert np.abs(ipm.x - pinching).max() <= 1e-8

    def test_full_rank_single_state_needs_no_face(self, rng):
        # the commutant is all of M_3, so the face is the whole space
        algebra = engineer.forced_algebra([random_density(rng, 3)])
        assert algebra.commutant_dim == 9
        assert [(n, m) for _, n, m in algebra.blocks] == [(1, 3)]

    def test_a_split_that_breaks_the_blocks_is_refused(self, monkeypatch):
        # the diagonal commutant of C^2 with its centre cut short to one
        # element: C^2 stays one block, holding a part of dimension 2 of the
        # commutant, which is no m^2. Unrefused, it would pass for C I
        commutant = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex)
        assert [(n, m) for _, n, m in engineer._blocks(commutant)] == [(1, 1), (1, 1)]
        svd = np.linalg.svd

        def cut_short(a, full_matrices=True):
            u, sv, vh = svd(a, full_matrices=full_matrices)
            return u, np.concatenate([[1.0], sv[1:]]), vh

        monkeypatch.setattr(np.linalg, "svd", cut_short)
        with pytest.raises(engineer.sdpmod.NumericalLimitError, match="dimension 2 of the commutant"):
            engineer._blocks(commutant)

    def test_small_eigenvalue_is_not_cut(self, rng):
        # an eigenvalue of 5e-8 is real support: cutting it would move the
        # constraints past the solver's inconsistency test
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u, _ = np.linalg.qr(g)
        states = [u @ np.diag(w) @ u.conj().T
                  for w in ([0.6, 0.4 - 5e-8, 5e-8], [0.3, 0.7 - 5e-8, 5e-8])]
        assert engineer.forced_algebra(states).support.shape[1] == 3
        # diagonal in one basis with distinct ratios: the commutant is the diagonal
        assert face(engineer.forced_algebra(states)).shape[1] == 3
        res = build_via_sdp(states)
        assert res.solution.status == "optimal"
        assert max(res.residuals) <= 1e-9



def sweep_sets(seed: int, count: int) -> list[list[np.ndarray]]:
    """The first ``count`` sets of the sweep that draws, from
    default_rng(seed), d in 2..4, k in 1..4 states and each state's rank in
    1..d, a state being g g^dag / tr for a complex Gaussian d x rank g."""
    rng = np.random.default_rng(seed)
    sets = []
    for _ in range(count):
        d, k = int(rng.integers(2, 5)), int(rng.integers(1, 5))
        states = [random_psd(rng, d, int(rng.integers(1, d + 1))) for _ in range(k)]
        sets.append([s / np.trace(s).real for s in states])
    return sets


def sweep_set(seed: int, index: int) -> list[np.ndarray]:
    """Set ``index`` of ``sweep_sets(seed, ...)``."""
    return sweep_sets(seed, index + 1)[-1]


def rank(state: np.ndarray) -> int:
    return int(np.sum(np.linalg.eigvalsh(state) > 1e-10))


PLUS = linops.ket_projector(np.array([1.0, 1.0]) / np.sqrt(2))
# states on the first two of three levels: two that commute, and two that
# force the identity on their support
COMMUTING_ON_A_PLANE = [np.diag([0.6, 0.4, 0.0]), np.diag([0.2, 0.8, 0.0])]
FORCING_ON_A_PLANE = [np.diag([0.6, 0.4, 0.0]), np.pad(PLUS, ((0, 1), (0, 1)))]
BELL_DEFAULT = list(cli.build_bell_demo_states(cli.DEFAULT_COEFFS, np.ones(3) / 3, np.ones(3) / 3))


def with_tiny_tail(u: np.ndarray, weights) -> np.ndarray:
    """U diag(weights, 1e-9, 1e-9) U^dag, normalized."""
    s = (u * np.r_[weights, 1e-9, 1e-9]) @ u.conj().T
    return s / np.trace(s).real


@st.composite
def tiny_tail_states(draw):
    """A state in dimension 3-5 in a Haar basis, with weights in [0.1, 1)
    and two of 1e-9 before normalization."""
    d = draw(st.integers(3, 5))
    rng = np.random.default_rng(draw(SEEDS))
    return with_tiny_tail(haar_unitary(d, rng), rng.uniform(0.1, 1.0, d - 2))


# rho^-1/2 amplifies rounding here by 1e9: a commutator stack built from it
# gave a commutant of dimension 5, and engineer sdp a singular scaling
TINY_TAIL = with_tiny_tail(haar_unitary(4, np.random.default_rng(1)), [0.5, 0.5])


class TestForcedAlgebra:
    """The commutant of the forced algebra: the face of the SDP, and the
    closed form when it is C I."""

    @given(sigma=tiny_tail_states())
    @example(sigma=TINY_TAIL)
    @settings(max_examples=20)
    def test_one_state_forces_only_the_scalars(self, sigma):
        # A = rho^-1/2 sigma rho^-1/2 = I, so the commutant is all of M_r,
        # however small the least eigenvalue of sigma
        algebra = engineer.forced_algebra([sigma])
        d = sigma.shape[0]
        assert algebra.support.shape[1] == d and algebra.commutant_dim == d * d
        res = build_via_sdp([sigma])
        assert res.solution.status == "optimal"
        assert res.c.cptp.cp and res.c.cptp.tp
        assert res.residuals[0] <= 1e-7

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
        assert (sol.status, sol.iterations, sol.message) == ("optimal", 0, engineer.ANALYTIC_CENTRE)
        assert sol.objective_value == 2.0
        pi = np.diag([1.0, 1.0, 0.0])
        expected = np.outer(pi.ravel(), pi.ravel()) + kron(b, np.eye(3) - pi)
        assert np.abs(res.c.matrix - expected).max() <= 1e-12
        assert res.c.cptp.cp and res.c.cptp.tp

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
        assert res.c.cptp.cp and res.c.cptp.tp
        assert max(res.residuals) <= 1e-7

    def test_three_states_of_ranks_two_two_three_give_a_cptp_channel(self):
        rng = np.random.default_rng(1)
        ranks = rng.integers(1, 4, size=3)
        states = [random_psd(rng, 4, int(r)) for r in ranks]
        states = [s / np.trace(s).real for s in states]
        assert [rank(s) for s in states] == [2, 2, 3]
        res = build_via_sdp(states)
        assert res.solution.status == "optimal"
        assert res.c.cptp.cp and res.c.cptp.tp
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
    @example(states=[np.eye(2) / 2])                     # the centre's start is exact
    @example(states=[np.eye(3) / 3])
    @settings(max_examples=40)
    def test_cptp_fixing_and_closed_form_exactly_when_forced(self, states):
        # one route for every set; its core is the identity on supp rho,
        # |I_r>><<I_r|, exactly when the commutant is C I, and no Newton step
        # is taken there
        res = build_via_sdp(states)
        assert res.solution.status == "optimal"
        assert res.solution.message == engineer.ANALYTIC_CENTRE
        assert res.c.cptp.cp and res.c.cptp.tp
        assert max(res.residuals) <= 1e-7
        algebra = engineer.forced_algebra(states)
        forced = algebra.commutant_dim == 1
        r = algebra.support.shape[1]
        identity = np.outer(np.eye(r).ravel(), np.eye(r).ravel())
        assert (np.abs(res.solution.x - identity).max() <= 1e-12) == forced
        assert res.solution.rank == algebra.commutant_dim
        if forced:
            assert res.solution.iterations == 0


@st.composite
def real_state_sets(draw):
    """Real states in dimension 2-4, in a random real orthogonal basis: one
    state of random rank, or two or three of full rank, block diagonal over
    one split of that basis, so that their forced algebra has a commutant
    larger than C I and the solve runs on a face."""
    d = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(SEEDS))
    o = np.linalg.qr(rng.standard_normal((d, d)))[0]
    if draw(st.booleans()):
        g = rng.standard_normal((d, int(rng.integers(1, d + 1))))
        blocks = [g @ g.T]
    else:
        cut = int(rng.integers(1, d))
        blocks = []
        for _ in range(draw(st.integers(2, 3))):
            g, h = rng.standard_normal((cut, cut)), rng.standard_normal((d - cut, d - cut))
            blocks.append(scipy.linalg.block_diag(g @ g.T, h @ h.T) + 0.1 * np.eye(d))
    return [o @ b @ o.T / np.trace(b) for b in blocks]


# a real pair on two blocks of C^4, 2 + 2, that do not commute inside the first
REAL_BLOCK_PAIR = [scipy.linalg.block_diag([[0.3, 0.1], [0.1, 0.2]], np.diag([0.3, 0.2])),
                   scipy.linalg.block_diag([[0.2, -0.05], [-0.05, 0.4]], np.diag([0.1, 0.3]))]


class TestRealArithmetic:
    """Real states are solved over real symmetric matrices
    (``sdp.assemble_fixed_point_constraints``), and one state on diag(lambda)
    whatever its basis, with no solve: the channel does not depend on which
    path ran."""

    @given(states=real_state_sets(), seed=SEEDS)
    @example(states=BELL_DEFAULT, seed=0)
    @example(states=TestFixedPointFace().bell_states(), seed=0)
    @example(states=COMMUTING_ON_A_PLANE, seed=0)
    @example(states=REAL_BLOCK_PAIR, seed=0)
    @settings(max_examples=30)
    def test_one_path_in_any_basis(self, states, seed):
        # a Haar unitary V makes the states complex; rotated back, the
        # channel is the one the real states give
        v = haar_unitary(len(states[0]), np.random.default_rng(seed))
        real = build_via_sdp(states)
        rotated = build_via_sdp([v @ s @ v.conj().T for s in states])
        lift = np.kron(v, v.conj())
        back = lift.conj().T @ rotated.c.matrix @ lift
        assert rotated.solution.status == real.solution.status == "optimal"
        assert rotated.solution.iterations == real.solution.iterations
        assert np.abs(back - real.c.matrix).max() <= 1e-7

    def test_a_real_pair_reaches_the_solver_real(self):
        # the oracle problem of two real states in C^4 of full-rank mean:
        # (k + 1) d(d+1)/2 = 30 real rows on 16 x 16 operators, where complex
        # ones would be 3 d^2 = 48, solved on the real face of the commutant
        algebra = engineer.forced_algebra(REAL_BLOCK_PAIR)
        u = algebra.support
        problem = engineer.sdpmod.assemble_fixed_point_constraints(
            u.conj().T @ np.array(REAL_BLOCK_PAIR) @ u)
        assert problem.constraint_ops.shape == (30, 16, 16)
        assert not problem.constraint_ops.imag.any() and not face(algebra).imag.any()
        assert engineer.sdpmod.solve(problem, face=face(algebra)).status == "optimal"
        res = build_via_sdp(REAL_BLOCK_PAIR)
        assert res.solution.status == "optimal"
        assert max(res.residuals) <= 1e-9

    def test_one_complex_state_never_reaches_the_solver(self, monkeypatch):
        # rank 3 in C^4: the core is the one-state centre on diag(lambda),
        # with no assembly and no solve
        def refuse(*args, **kwargs):
            raise AssertionError("one state reached the SDP layer")

        monkeypatch.setattr(engineer.sdpmod, "solve", refuse)
        monkeypatch.setattr(engineer.sdpmod, "assemble_fixed_point_constraints", refuse)
        u = haar_unitary(4, np.random.default_rng(3))
        sigma = (u * [0.5, 0.3, 0.2, 0.0]) @ u.conj().T
        assert np.abs(sigma.imag).max() > 0.05
        res = build_via_sdp([sigma])
        assert res.solution.message == engineer.ANALYTIC_CENTRE
        assert res.solution.status == "optimal"
        assert res.solution.x.shape == (9, 9)
        assert res.residuals[0] <= 1e-9


@st.composite
def shared_support_sets(draw):
    """One to three states of random ranks on one Haar-random r-dimensional
    subspace of C^d, d in 2..5 and r < d."""
    d = draw(st.integers(2, 5))
    r = draw(st.integers(1, d - 1))
    k = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(SEEDS))
    cols = haar_unitary(d, rng)[:, :r]
    states = [cols @ random_psd(rng, r, int(rng.integers(1, r + 1))) @ cols.conj().T
              for _ in range(k)]
    return [s / np.trace(s).real for s in states]


# an eigenvalue of 1e-14, below linops.RANK_TOL: cut from the support
_U = haar_unitary(3, np.random.default_rng(5))
BELOW_RANK_TOL = (_U * [0.6, 0.4 - 1e-14, 1e-14]) @ _U.conj().T


class TestCompressedSolve:
    """build_via_sdp compresses the states to supp rho, solves there and
    lifts the core once."""

    def test_solver_sees_only_the_support(self):
        # rank rho = 2 in C^3: the core is r^2 x r^2 = 4 x 4, and so is every
        # operator of the oracle problem; the states are real, so its rows
        # are 2 states x 3 real symmetric fixing rows and 3 trace rows, on a
        # face of the 2 diagonal units. The core is the pinching onto them
        algebra = engineer.forced_algebra(COMMUTING_ON_A_PLANE)
        u = algebra.support
        problem = engineer.sdpmod.assemble_fixed_point_constraints(
            u.conj().T @ np.array(COMMUTING_ON_A_PLANE) @ u)
        assert (problem.constraint_ops.shape, face(algebra).shape) == ((9, 4, 4), (4, 2))
        res = build_via_sdp(COMMUTING_ON_A_PLANE)
        assert res.solution.x.shape == (4, 4)
        assert res.x.matrix.shape == (9, 9)
        pinching = sum(np.outer(e, e) for e in np.eye(9)[[0, 4]])
        assert np.abs(res.x.matrix - pinching).max() <= 1e-12

    @given(states=shared_support_sets())
    @example(states=[basis_proj(0, 3)])
    @example(states=[np.diag([0.7, 0.3, 0.0, 0.0]), np.diag([0.2, 0.8, 0.0, 0.0])])
    @example(states=BELL_DEFAULT)                       # r = 3
    @example(states=[BELOW_RANK_TOL])
    @settings(max_examples=40)
    def test_cptp_fixing_and_zero_off_the_support(self, states):
        w, cols = linops.support(np.mean(states, axis=0))
        r, d = cols.shape[1], len(w)
        assert r < d
        res = build_via_sdp(states)
        assert res.c.cptp.cp and res.c.cptp.tp
        assert max(res.residuals) <= 1e-9
        assert res.solution.x.shape == (r * r, r * r)
        pi = cols @ cols.conj().T
        lift = kron(pi, pi.conj())
        x = res.x.matrix
        assert np.abs(lift @ x @ lift - x).max() <= 1e-12


def pure_pair(eps: float) -> list[np.ndarray]:
    """The pure states along (1, 0, eps) and (1, 0, -eps) of C^3: their mean
    is diag(1, 0, eps^2) / (1 + eps^2) exactly, as the cross terms cancel."""
    return [linops.ket_projector(np.array([1.0, 0.0, s * eps]) / np.hypot(1.0, eps)) for s in (1, -1)]


def near_degenerate_pair(d: int, seed: int) -> list[np.ndarray]:
    """sigma_1 = U diag(e) U^dag with U Haar and e = 1/d + 1e-10 N(0, 1),
    normalized, and sigma_2 = 0.999 sigma_1 + 0.001 tau, tau = g g^dag / tr
    for a complex Gaussian d x d matrix g drawn next, all from
    default_rng(seed): a pair that commutes only up to about 1e-10."""
    rng = np.random.default_rng(seed)
    u = haar_unitary(d, rng)
    e = 1 / d + 1e-10 * rng.standard_normal(d)
    sigma = (u * (e / e.sum())) @ u.conj().T
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    tau = g @ g.conj().T
    return [sigma, 0.999 * sigma + 0.001 * tau / np.trace(tau).real]


class TestRankRule:
    """Every support and commutant is decided by ``linops.support``'s cut at
    RANK_TOL, and ``build_via_sdp`` never returns a channel that leaves a
    state unfixed."""

    @given(eps=st.floats(1e-7, 1e-4))
    @example(eps=7e-6)  # rho's eigenvalue 4.9e-11 is kept: the identity on a plane
    @example(eps=1e-6)  # rho's eigenvalue 1e-12 is cut: the states stay 1e-6 unfixed
    @settings(max_examples=20)
    def test_pure_pair_is_fixed_exactly_or_refused(self, eps):
        states = pure_pair(eps)
        if eps ** 2 / (1 + eps ** 2) > linops.RANK_TOL:
            assert engineer.forced_algebra(states).support.shape[1] == 2
            res = build_via_sdp(states)
            assert res.c.cptp.cp and res.c.cptp.tp
            assert max(res.residuals) <= 1e-12
        else:
            with pytest.raises(engineer.sdpmod.NumericalLimitError, match="cut from its support"):
                build_via_sdp(states)

    def test_cli_exits_numerical_limit_on_an_unfixed_state(self, tmp_path, capsys):
        argv = ["engineer", "sdp"]
        for i, s in enumerate(pure_pair(1e-6)):
            (tmp_path / f"s{i}.json").write_text(json.dumps(linops.matrix_to_json(s)))
            argv += ["--sigma", str(tmp_path / f"s{i}.json")]
        assert cli.main(argv) == 4
        assert json.loads(capsys.readouterr().err)["reason"] == "numerical-limit"

    @given(d=st.integers(3, 6), seed=st.integers(0, 9))
    @example(d=4, seed=1)
    @example(d=6, seed=0)
    @settings(max_examples=10)
    def test_near_degenerate_pair_forces_the_identity(self, d, seed):
        # the states fail to commute by about 1e-10, far above the cut, so
        # the forced algebra is all of B(supp rho)
        states = near_degenerate_pair(d, seed)
        assert engineer.forced_algebra(states).commutant_dim == 1
        res = build_via_sdp(states)
        assert res.solution.iterations == 0
        assert np.abs(res.c.matrix - chan.identity_channel(d).matrix).max() <= 1e-12
        assert max(res.residuals) <= 1e-12

    @given(delta=st.floats(1e-11, 0.5))
    @example(delta=5e-8)
    @settings(max_examples=20)
    def test_partner_whose_support_holds_the_state_is_not_discriminable(self, delta):
        # supp sigma_1 holds |0>, so no projector detects sigma_0 with zero error
        states = [basis_proj(0, 3), np.diag([delta, 1 - delta, 0.0])]
        with pytest.raises(ConstructionError) as info:
            SeparableMultiSpec.from_states(states)
        assert info.value.reason == "not-unambiguously-discriminable"


def design_bank() -> list[list[np.ndarray]]:
    """The 30 state sets of the benchmark's design bank, drawn from
    default_rng(2307): for d in 2, 3, 4, k in 1, 2 states and rank d then
    ceil(d/2), 3 sets at d = 2, 4 of one state and 2 of two at d = 3, 2 of
    one state and 1 of two at d = 4, a state being g g^dag / tr for a
    complex Gaussian d x rank g."""
    rng = np.random.default_rng(2307)
    bank = []
    for d in (2, 3, 4):
        for k in (1, 2):
            size = {2: 3, 3: 4 if k == 1 else 2, 4: 2 if k == 1 else 1}[d]
            for rank in (d, -(-d // 2)):
                for _ in range(size):
                    states = [random_psd(rng, d, rank) for _ in range(k)]
                    bank.append([s / np.trace(s).real for s in states])
    return bank


def centre_face_kkt(states, y: np.ndarray) -> float:
    """How far a core Y is from the analytic centre: with V the face
    (``face``) and Y' = V^dag Y V the core on it, the relative residual of
    Y'^-1 off the real span of the face-restricted rows V^dag A_k V of
    ``sdp.assemble_fixed_point_constraints`` on the compressed states. At
    the centre, the gradient Y'^-1 of log det lies in that span (Boyd &
    Vandenberghe, sect. 8.5.3), so the residual is 0."""
    algebra = forced_algebra(states)
    u, v = algebra.support, face(algebra)
    problem = engineer.sdpmod.assemble_fixed_point_constraints(u.conj().T @ np.array(states) @ u)
    rows = (v.conj().T @ problem.constraint_ops @ v).reshape(len(problem.constraint_ops), -1).T
    inverse = np.linalg.inv(v.conj().T @ y @ v).ravel()
    rows, target = np.vstack([rows.real, rows.imag]), np.concatenate([inverse.real, inverse.imag])
    coef = np.linalg.lstsq(rows, target, rcond=None)[0]
    return float(np.linalg.norm(rows @ coef - target) / np.linalg.norm(target))


TAU = [np.diag([0.7, 0.3]), np.array([[0.5, 0.2], [0.2, 0.5]])]


def rotated_products(omega) -> list[np.ndarray]:
    """U (tau_i (x) diag(omega)) U^dag for the two non-commuting TAU, U Haar
    from default_rng(0): one block I_2 (x) M_m of the commutant."""
    u = haar_unitary(2 * len(omega), np.random.default_rng(0))
    return [u @ np.kron(t, np.diag(omega)) @ u.conj().T for t in TAU]


BLOCK_SHAPES = [((1, 2),), ((2, 2),), ((2, 3),), ((1, 2), (1, 2)), ((1, 1), (2, 2)),
                ((1, 3), (1, 1)), ((2, 1), (1, 2)), ((3, 1), (1, 1))]


@st.composite
def block_sets(draw):
    """Two or three states sum_k p_ik tau_ik (x) omega_k on blocks of shapes
    (n_k, m_k) from BLOCK_SHAPES, in a Haar basis: tau_ik and omega_k random
    full-rank states, p_i Dirichlet weights over the blocks."""
    shape = draw(st.sampled_from(BLOCK_SHAPES))
    k = draw(st.integers(2, 3))
    rng = np.random.default_rng(draw(SEEDS))
    omegas = [random_density(rng, m) for _, m in shape]
    states = []
    for p in rng.dirichlet(np.ones(len(shape)), size=k):
        states.append(scipy.linalg.block_diag(*(
            w * np.kron(random_density(rng, n), omega)
            for w, (n, _), omega in zip(p, shape, omegas))))
    u = haar_unitary(len(states[0]), rng)
    return [u @ s @ u.conj().T for s in states]


CENTRE_EXAMPLES = [
    [np.diag([0.5, 0.5, 0.0, 0.0]), np.diag([0.0, 0.0, 0.5, 0.5])],  # one value of R, two blocks
    [np.diag([0.7, 0.3, 0.0, 0.0]), np.diag([0.0, 0.0, 0.4, 0.6])],
    rotated_products([0.5, 0.3, 0.2]),
    rotated_products([0.4, 0.3, 0.3]),  # a degenerate omega
    BELL_DEFAULT,
    TestFixedPointFace().bell_states(),
]


def centre_examples(**fixed):
    """@example of every set in CENTRE_EXAMPLES, with the other arguments fixed."""
    def decorate(test):
        for states in CENTRE_EXAMPLES:
            test = example(states=states, **fixed)(test)
        return test
    return decorate


class TestAnalyticCentre:
    """Every core is the analytic centre of its feasible set on the face,
    formed block by block of the forced algebra."""

    @given(states=block_sets())
    @centre_examples()
    @settings(max_examples=25)
    def test_kkt(self, states):
        res = build_via_sdp(states)
        assert centre_face_kkt(states, res.solution.x) <= 1e-12
        assert max(res.residuals) <= chan.FP_TOL

    @given(states=block_sets())
    @centre_examples()
    @settings(max_examples=10)
    def test_log_det_at_least_the_interior_point(self, states):
        # the interior-point solve on the face stops at a feasible point,
        # whose log det is no larger than the centre's
        algebra = forced_algebra(states)
        u, v = algebra.support, face(algebra)
        problem = engineer.sdpmod.assemble_fixed_point_constraints(u.conj().T @ np.array(states) @ u)
        ipm = engineer.sdpmod.solve(problem, face=v)
        assert ipm.status == "optimal"
        centre = build_via_sdp(states).solution.x
        logdet = [np.linalg.slogdet(v.conj().T @ y @ v) for y in (centre, ipm.x)]
        assert logdet[0][0].real > 0 and logdet[1][0].real > 0
        assert logdet[1][1] <= logdet[0][1] + 1e-9

    @given(states=block_sets(), seed=SEEDS)
    @centre_examples(seed=1)
    @example(states=[np.diag([0.7, 0.3])] * 2, seed=0)  # a repeated state
    @settings(max_examples=25)
    def test_covariant(self, states, seed):
        # the centre is basis-free: the channel of U sigma_i U^dag is the
        # U-conjugate of the states' (B = I/d is U-invariant)
        u = haar_unitary(len(states[0]), np.random.default_rng(seed))
        lift = np.kron(u, u.conj())
        c = build_via_sdp(states).c.matrix
        turned = build_via_sdp([u @ s @ u.conj().T for s in states]).c.matrix
        assert np.abs(turned - lift @ c @ lift.conj().T).max() <= 1e-9

    def test_no_set_reaches_the_sdp_layer(self, monkeypatch):
        # the design bank, both Bell pairs, a real block pair, 300 sweep sets
        # and the 30 sets of one eigenvalue at 1e-7, built with the solver
        # and the assembly refused; each core is then checked against the
        # assembled rows
        def refuse(*args, **kwargs):
            raise AssertionError("a set reached the SDP layer")

        sets = [*design_bank(), BELL_DEFAULT, TestFixedPointFace().bell_states(), REAL_BLOCK_PAIR,
                *sweep_sets(29, 300), *([eigenvalue_1e_7_state(seed)] for seed in range(30))]
        monkeypatch.setattr(engineer.sdpmod, "solve", refuse)
        monkeypatch.setattr(engineer.sdpmod, "assemble_fixed_point_constraints", refuse)
        cores = []
        for states in sets:
            res = build_via_sdp(states)
            assert max(res.residuals) <= chan.FP_TOL
            cores.append(res.solution.x)
        monkeypatch.undo()
        assert max(centre_face_kkt(states, y) for states, y in zip(sets, cores)) <= 1e-12
