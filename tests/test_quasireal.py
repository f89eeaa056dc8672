import itertools
import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog, nnls

from conekit import linops, quasireal
from conekit.quasireal import (
    PolyhedralCone,
    QuasiRealization,
    cause_matrix,
    check_dharmadhikari,
    cone_membership,
    is_pointed,
    is_positive_realization,
    word_distribution,
    word_probability,
)


def coin_realization():
    half = np.array([[0.5]])
    return QuasiRealization(dim=1, alphabet=("0", "1"),
                            d_maps={"0": half, "1": half},
                            pi=np.array([1.0]), tau=np.array([1.0]))


MARKOV_T = np.array([[0.9, 0.1], [0.2, 0.8]])
MARKOV_PI = np.array([2.0 / 3.0, 1.0 / 3.0])


def markov_realization():
    """Two-state chain emitting the destination state as the symbol."""
    m0 = np.zeros((2, 2))
    m0[:, 0] = MARKOV_T[:, 0]
    m1 = np.zeros((2, 2))
    m1[:, 1] = MARKOV_T[:, 1]
    return QuasiRealization(dim=2, alphabet=("0", "1"),
                            d_maps={"0": m0, "1": m1},
                            pi=MARKOV_PI.copy(), tau=np.ones(2))


def random_positive_realization(rng: np.random.Generator, dim: int, n_symbols: int):
    """Nonnegative D_u whose sum is row-stochastic, tau = 1 and pi the
    stationary distribution of that sum."""
    maps = rng.uniform(0.0, 1.0, size=(n_symbols, dim, dim))
    maps /= maps.sum(axis=(0, 2))[None, :, None]
    w, v = np.linalg.eig(maps.sum(axis=0).T)
    pi = np.real(v[:, np.argmin(np.abs(w - 1.0))])
    return QuasiRealization(dim=dim, alphabet=tuple(str(u) for u in range(n_symbols)),
                            d_maps={str(u): m for u, m in enumerate(maps)},
                            pi=pi / pi.sum(), tau=np.ones(dim))


def markov_word_oracle(word):
    """Exhaustive path sum over hidden states, independent of the
    matrix-product machinery: sum_s0 pi[s0] T[s0,u1] T[u1,u2] ... ."""
    states = [int(u) for u in word]
    total = 0.0
    for s0 in range(2):
        p = MARKOV_PI[s0]
        prev = s0
        for s in states:
            p *= MARKOV_T[prev, s]
            prev = s
        total += p
    return total


def quasirealization(maps, pi, tau) -> QuasiRealization:
    """Symbols s0, s1, ... for the given stack of maps."""
    return QuasiRealization(dim=len(pi), alphabet=tuple(f"s{u}" for u in range(len(maps))),
                            d_maps={f"s{u}": np.asarray(m, dtype=float) for u, m in enumerate(maps)},
                            pi=np.asarray(pi, dtype=float), tau=np.asarray(tau, dtype=float))


@st.composite
def finite_quasirealizations(draw):
    """Any finite entries, dim 1..4, 1..3 symbols."""
    dim, n_symbols = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    maps = draw(arrays(float, (n_symbols, dim, dim), elements=finite))
    pi, tau = (draw(arrays(float, dim, elements=finite)) for _ in range(2))
    return quasirealization(maps, pi, tau)


class TestWordProbability:
    def test_fair_coin(self):
        q = coin_realization()
        for length in range(5):
            for word in itertools.product("01", repeat=length):
                assert word_probability(q, word) == pytest.approx(0.5 ** length)

    def test_empty_word_is_pi_tau(self):
        assert word_probability(coin_realization(), []) == pytest.approx(1.0)
        assert word_probability(markov_realization(), []) == pytest.approx(1.0)

    def test_markov_against_path_sum(self):
        q = markov_realization()
        for length in range(1, 7):
            for word in itertools.product("01", repeat=length):
                assert word_probability(q, word) == pytest.approx(
                    markov_word_oracle(word), abs=1e-12
                )

    def test_specific_bigram(self):
        # p(01) = P(enter 0) * T[0,1] = (2/3) * 0.1
        assert word_probability(markov_realization(), "01") == pytest.approx(1.0 / 15.0)

    def test_unknown_symbol(self):
        with pytest.raises(ValueError):
            word_probability(coin_realization(), "2")

    def test_distribution_sums_to_one(self):
        q = markov_realization()
        for length in range(1, 9):
            dist = word_distribution(q, length)
            assert len(dist) == 2 ** length
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-10)
            # total mass equals pi (D^c)^l tau
            ms = cause_matrix(q)
            power = np.linalg.matrix_power(ms, length)
            assert sum(dist.values()) == pytest.approx(float(q.pi @ power @ q.tau), abs=1e-12)

    def test_stationary_marginal_consistency(self):
        q = markov_realization()
        for length in range(1, 6):
            for word in itertools.product("01", repeat=length):
                p = word_probability(q, word)
                left = sum(word_probability(q, (u,) + word) for u in q.alphabet)
                right = sum(word_probability(q, word + (u,)) for u in q.alphabet)
                assert left == pytest.approx(p, abs=1e-10)
                assert right == pytest.approx(p, abs=1e-10)

    @given(dim=st.integers(1, 4), n_symbols=st.integers(1, 3),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
    @example(dim=1, n_symbols=1, seed=0)  # a single state and a single symbol
    def test_distribution_sums_to_pi_tau(self, dim, n_symbols, seed):
        q = random_positive_realization(np.random.default_rng(seed), dim, n_symbols)
        assert is_positive_realization(q).all_ok
        for length in range(1, 5):
            dist = word_distribution(q, length)
            assert len(dist) == n_symbols ** length
            assert abs(sum(dist.values()) - float(q.pi @ q.tau)) <= 1e-12

    def test_enumeration_cap(self):
        q = markov_realization()
        with pytest.raises(ValueError):
            word_distribution(q, 21)  # 2**21 > 10**6
        # 2**20000 has more digits than Python formats; the cap is stated without them
        with pytest.raises(ValueError, match=r"^2\*\*20000 words of length 20000 exceed the "
                                             r"enumeration cap 1000000$"):
            word_distribution(q, 20000)

    def test_long_words_over_one_symbol(self):
        # one symbol passes the cap at any length: one word, walked without recursion
        q = QuasiRealization(dim=2, alphabet=("0",), d_maps={"0": np.eye(2)},
                             pi=np.array([0.25, 0.5]), tau=np.array([1.0, 2.0]))
        assert word_distribution(q, 5000) == {("0",) * 5000: float(q.pi @ q.tau)}

    def test_matches_the_recursive_walk(self, rng):
        # the stack walk takes the words in the recursion's order, with the same products
        q = random_positive_realization(rng, 3, 3)
        expected = {}

        def walk(prefix, vec):
            if len(prefix) == 4:
                expected[prefix] = float(vec @ q.tau)
                return
            for u in q.alphabet:
                walk(prefix + (u,), vec @ q.d_maps[u])

        walk((), q.pi.copy())
        dist = word_distribution(q, 4)
        assert list(dist) == list(expected) and list(dist.values()) == list(expected.values())

    def test_negative_length(self):
        with pytest.raises(ValueError, match="length must be >= 0"):
            word_distribution(markov_realization(), -1)


class TestReadOnlyCopies:
    def test_realization_keeps_read_only_copies(self):
        d, pi, tau = np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([0.5, 0.5]), np.ones(2)
        q = QuasiRealization(dim=2, alphabet=("a",), d_maps={"a": d}, pi=pi, tau=tau)
        d[0, 0], pi[0], tau[0] = np.nan, np.nan, np.nan
        assert word_probability(q, "aa") == 1.0
        for a in (q.d_maps["a"], q.pi, q.tau):
            assert np.isfinite(a).all() and not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0


class TestRealizationValidation:
    @pytest.mark.parametrize("pi, tau, name", [
        ([np.nan], [1.0], "pi"), ([1.0], [np.inf], "tau"), ([np.nan], [np.inf], "pi")])
    def test_non_finite_pi_or_tau_rejected(self, pi, tau, name):
        with pytest.raises(ValueError, match=f"{name} has non-finite entries"):
            QuasiRealization(dim=1, alphabet=("a",), d_maps={"a": np.eye(1)}, pi=pi, tau=tau)


class TestCauseMatrix:
    def test_coin_gives_identity(self):
        assert np.abs(cause_matrix(coin_realization()) - np.eye(1)).max() < 1e-15

    def test_markov_gives_row_stochastic(self):
        ms = cause_matrix(markov_realization())
        assert np.abs(ms - MARKOV_T).max() < 1e-15
        assert np.abs(ms.sum(axis=1) - 1.0).max() < 1e-15

    def test_matches_manual_sum(self, rng):
        maps = {u: rng.standard_normal((3, 3)) for u in ("a", "b", "c")}
        q = QuasiRealization(dim=3, alphabet=("a", "b", "c"), d_maps=maps,
                             pi=np.ones(3) / 3, tau=np.ones(3))
        manual = maps["a"] + maps["b"] + maps["c"]
        assert np.abs(cause_matrix(q) - manual).max() < 1e-15


class TestPositiveRealization:
    def test_markov_all_true(self):
        rep = is_positive_realization(markov_realization())
        assert rep.nonneg and rep.stochastic and rep.stationary and rep.tau_ones
        assert rep.all_ok

    def test_coin_all_true(self):
        assert is_positive_realization(coin_realization()).all_ok

    def test_negative_entry_flags_nonneg(self):
        q = markov_realization()
        bad = QuasiRealization(dim=2, alphabet=q.alphabet,
                               d_maps={"0": q.d_maps["0"] - np.array([[0.0, 0.0], [0.3, 0.0]]),
                                       "1": q.d_maps["1"] + np.array([[0.0, 0.0], [0.3, 0.0]])},
                               pi=q.pi, tau=q.tau)
        rep = is_positive_realization(bad)
        assert not rep.nonneg
        assert rep.stochastic  # the cause matrix is untouched


class TestCones:
    def test_membership(self):
        orthant = PolyhedralCone(generators=np.eye(2))
        ok, res, coeffs = cone_membership(orthant, [0.3, 0.7])
        assert ok and res < 1e-12 and np.allclose(coeffs, [0.3, 0.7])
        ok, res, _ = cone_membership(orthant, [-0.5, 1.0])
        assert not ok and res > 0.1

    def test_membership_needs_the_cone_dimension(self):
        with pytest.raises(ValueError, match="vector dimension 3 != cone dimension 2"):
            cone_membership(PolyhedralCone(generators=np.eye(2)), [0.3, 0.7, 0.0])

    def test_pointedness(self):
        assert is_pointed(PolyhedralCone(generators=np.eye(2)))
        assert not is_pointed(PolyhedralCone(generators=np.array([[1.0, 0.0], [-1.0, 0.0]])))
        # a single generator is always pointed
        assert is_pointed(PolyhedralCone(generators=np.array([[1.0, 2.0]])))

    def test_cone_keeps_a_read_only_copy(self):
        g = np.eye(2)
        cone = PolyhedralCone(generators=g)
        g[0] = 0.0  # a zero generator, which the constructor rejects
        assert cone.generators.tobytes() == np.eye(2).tobytes()
        assert not cone.generators.flags.writeable
        assert is_pointed(cone) and cone_membership(cone, [0.3, 0.7])[0]
        with pytest.raises(ValueError, match="read-only"):
            cone.generators[0, 0] = 0.0

    def test_generators_validated(self):
        with pytest.raises(ValueError):
            PolyhedralCone(generators=np.array([[0.0, 0.0]]))
        with pytest.raises(ValueError):
            PolyhedralCone(generators=np.zeros((0, 2)))
        with pytest.raises(ValueError, match="at least one coordinate"):
            PolyhedralCone(generators=[[]])

    @pytest.mark.parametrize("v", [[np.nan, 1.0], [np.inf, 0.0], [-np.inf, 0.0]])
    def test_non_finite_vector_rejected(self, v):
        with pytest.raises(ValueError, match="vector has non-finite entries"):
            cone_membership(PolyhedralCone(generators=np.eye(2)), v)


def lp_pointed(generators, tol: float = quasireal.CONE_TOL) -> bool:
    """Reference verdict, independent of the NNLS: the LP max 1^T lambda over
    0 <= lambda <= 1 with G^T lambda = 0, on the generators scaled to unit
    norm (each row divided by its peak entry first, so that no square
    overflows). The cone is pointed when that maximum is within tol of 0."""
    g = np.asarray(generators, dtype=float)
    g = g / np.abs(g).max(axis=1)[:, None]
    g = g / np.linalg.norm(g, axis=1)[:, None]
    res = linprog(c=-np.ones(len(g)), A_eq=g.T, b_eq=np.zeros(g.shape[1]),
                  bounds=[(0.0, 1.0)] * len(g), method="highs")
    assert res.success, res.message
    return bool(-res.fun <= tol)


# e1 + e2 + (-(e1 + e2) + eps e3) = eps e3: dependent up to eps
def nearly_dependent(eps: float) -> np.ndarray:
    return np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, -1.0, eps]])


# a line along e1 at scale 1e15: the pointedness LP on the raw rows failed on it
LINE_AT_1E15 = np.array([[1e15, 0, 0], [-1e15, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=float)


@st.composite
def scaled_cones(draw):
    """Random cones of dimension 1..7 with 1..dim+3 generators, some with an
    added line or a dependent combination, each row scaled by 10^k for k
    in [-150, 150]."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = draw(st.integers(1, 7))
    gens = rng.standard_normal((draw(st.integers(1, dim + 3)), dim))
    if draw(st.booleans()):  # add a line
        gens = np.vstack([gens, -gens[:1]])
    if draw(st.booleans()):  # add a combination of the others, of either sign
        gens = np.vstack([gens, rng.standard_normal(len(gens)) @ gens])
    exponents = draw(arrays(int, len(gens), elements=st.integers(-150, 150)))
    return gens * 10.0 ** exponents[:, None]


class TestPointednessShortcut:
    """Pointedness, by the singular-value certificate or else one NNLS,
    against the LP reference, whose cases the rank shortcut and the LP it
    replaced were held to."""

    @pytest.mark.parametrize("k", range(1, 8))
    def test_simplex_cones(self, rng, k):
        skewed = rng.standard_normal((k, k)) + 3.0 * np.eye(k)
        for gens in (np.eye(k), skewed):
            assert is_pointed(PolyhedralCone(generators=gens))
            assert lp_pointed(gens)

    def test_random_cones(self, rng):
        for _ in range(40):
            dim = int(rng.integers(1, 6))
            gens = rng.standard_normal((int(rng.integers(1, dim + 3)), dim))
            if rng.random() < 0.3:  # add a line
                gens = np.vstack([gens, -gens[:1]])
            assert is_pointed(PolyhedralCone(generators=gens)) == lp_pointed(gens)

    @pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-7, 1e-3])
    def test_nearly_dependent_generators(self, eps):
        gens = nearly_dependent(eps)
        assert is_pointed(PolyhedralCone(generators=gens)) == lp_pointed(gens)

    @given(scaled_cones())
    @example(LINE_AT_1E15)
    @example(np.array([[1e160, 0.0], [0.0, 1.0]]))
    @example(np.array([[1e-200, 0.0], [0.0, 1.0]]))
    @example(np.eye(2))
    @example(nearly_dependent(1e-7))
    def test_matches_lp_at_any_row_scale(self, gens):
        assert is_pointed(PolyhedralCone(generators=gens)) == lp_pointed(gens)


# a line along g_0 and a ray, g_1, 139 orders of magnitude below it in scale;
# tau lies 3.254e85 from the cone, 27% of |tau|. NNLS on the raw generators
# reported a residual of 0.0 with coefficients that miss tau by 9.2e88
LINE_AND_TINY_RAY = np.array([[8861.552253776537, 2849.2020574726744, -451.17483652109047],
                              [1.245584773513067e-139, 4.200104361619653e-140, -2.4046965128501786e-139],
                              [-8861.552253776537, -2849.2020574726744, 451.17483652109047]])
TAU_OFF_LINE_AND_TINY_RAY = np.array([-1.1545021420614381e+86, -2.5886764658173764e+84, -3.6294794161509184e+85])
# that distance, from the normal of the plane of g_0 and g_1 in 50-digit arithmetic
DISTANCE_OFF_LINE_AND_TINY_RAY = 3.2542090788608118906e85


# a member whose NNLS on the raw generators, rows at scales 1, 1e-11 and 1e-18,
# stops at the residual 1.13e-6: -1e-6 g_2 is 3e5 g_5 + 2.4e5 g_6 + 1.4e12 g_8
MEMBER_RAW_NNLS_MISSES = (np.array([
    [-1.2934834824653443e-01, -3.2692331875199945e-02, 9.7462611564105420e-02, 2.5767754111499580e-01],
    [1.3340179478476661e+00, -1.1948193440611548e+00, -4.5880159505411666e-01, 6.0071183121708627e-01],
    [-9.2260574876610171e-02, 2.5829554966253143e+00, -1.2457838530836784e+00, 8.6908008839237705e-01],
    [-1.9216380778643592e-12, 1.3888841198450545e-11, -5.1143182720609471e-12, 3.6575587899155299e-12],
    [-3.0667807987175304e-12, 1.5580519597865107e-11, 5.5028163201130978e-13, -5.3441192789190025e-12],
    [6.9478865626114232e-12, -9.8807906784086537e-12, -2.0173574936735078e-12, 1.1446276511918628e-11],
    [-1.0207098640010515e-11, 9.2867818130364500e-12, -1.2974459624106260e-11, 6.7140920407523135e-12],
    [1.2934834824653441e-11, 3.2692331875199941e-12, -9.7462611564105419e-12, -2.5767754111499579e-11],
    [7.4090359766126305e-19, -1.1597026419238310e-18, 3.1372025102250225e-18, -5.0787557363647210e-18]]),
    np.array([9.2264287496593097e-08, -2.5829489260362718e-06, 1.2457783137069830e-06, -8.6908550134908249e-07]))


class TestScaleWitnesses:
    """Cones and vectors far from unit scale, whose norms overflow or
    underflow when squared."""

    def test_line_at_large_scale_is_not_pointed(self):
        assert not is_pointed(PolyhedralCone(generators=LINE_AT_1E15))
        assert is_pointed(PolyhedralCone(generators=np.array([[1e160, 0.0], [0.0, 1.0]])))

    def test_tiny_generator_is_accepted(self):
        cone = PolyhedralCone(generators=np.array([[1e-200, 0.0], [0.0, 1.0]]))
        assert is_pointed(cone)
        assert cone_membership(cone, [3.0, 1.0])[0]

    def test_norm_past_float_range_is_rejected(self):
        with pytest.raises(ValueError, match="floating-point range"):
            PolyhedralCone(generators=np.array([[1.5e308, 1.5e308]]))

    def test_huge_vector_outside_orthant(self):
        orthant = PolyhedralCone(generators=np.eye(2))
        member, residual, _ = cone_membership(orthant, [-1e160, 0.0])
        assert not member and residual == pytest.approx(1e160)
        q = quasirealization([np.diag([-1e160, 1.0])], [1.0, 1.0], [1.0, 1.0])
        assert not check_dharmadhikari(q, orthant).maps_preserve_cone

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_map_image_past_float_range(self, sign):
        # D g = (sign * 1e400, 0) for g = (1e200, 0): decided on its direction,
        # with no overflow warning (an error under this suite's filterwarnings)
        cone = PolyhedralCone(generators=np.array([[1e200, 0.0], [0.0, 1.0]]))
        q = quasirealization([np.diag([sign * 1e200, 1.0])], [1.0, 1.0], [1.0, 1.0])
        rep = check_dharmadhikari(q, cone)
        assert rep.maps_preserve_cone is (sign > 0) and rep.all_ok is (sign > 0)
        if sign > 0:
            assert (rep.worst_map_residual, rep.worst_map_case) == (0.0, None)
        else:  # the residual of D g itself, 1e400, is past the float range
            assert (rep.worst_map_residual, rep.worst_map_case) == (np.inf, ("s0", 0))

    def test_line_and_a_ray_139_orders_of_magnitude_smaller(self):
        cone = PolyhedralCone(generators=LINE_AND_TINY_RAY)
        member, residual, _ = cone_membership(cone, TAU_OFF_LINE_AND_TINY_RAY)
        assert not member
        assert residual == pytest.approx(DISTANCE_OFF_LINE_AND_TINY_RAY, rel=1e-12)
        q = quasirealization([np.eye(3)], [1.0, 1.0, 1.0], TAU_OFF_LINE_AND_TINY_RAY)
        assert not check_dharmadhikari(q, cone).tau_in_cone

    def test_member_through_generators_at_1e_minus_18(self):
        gens, v = MEMBER_RAW_NNLS_MISSES
        member, residual, coeffs = cone_membership(PolyhedralCone(generators=gens), v)
        assert member and residual < 1e-20
        assert exact_miss_squared(gens, coeffs, v) < Fraction(1e-20) ** 2

    def test_dual_condition_at_large_scale(self):
        cone = PolyhedralCone(generators=np.array([[1e160, 0.0], [0.0, 1.0]]))
        rep = check_dharmadhikari(quasirealization([np.eye(2)], [-1.0, 2.0], [1.0, 1.0]), cone)
        assert rep.tau_in_cone and rep.maps_preserve_cone and rep.pointed
        assert not rep.pi_in_dual
        assert rep.min_dual_value == -1e160
        rep = check_dharmadhikari(quasirealization([np.eye(2)], [1.0, 2.0], [1.0, 1.0]), cone)
        assert rep.all_ok


def raw_nnls_membership(generators, v, tol: float = quasireal.CONE_TOL) -> bool | None:
    """Reference verdict from scipy.optimize.nnls on the generator matrix as it
    is, with the bound tol * max(1, |v|), tested on v / max|v_i| when |v| or
    the residual is past the float range; None where that NNLS gives no
    answer: it raises its iteration-cap RuntimeError, or the residual it
    reports misses that of its own coefficients by more than the bound (rows
    ~1e140 apart in scale can read 0.0 for coefficients that miss v by far
    more than |v|). A member verdict is then proved by its coefficients; a
    non-member one is not (``MEMBER_RAW_NNLS_MISSES``)."""
    try:
        coeffs, residual = nnls(np.asarray(generators).T, v)
    except RuntimeError:
        return None
    bound = tol * max(1.0, float(linops.row_norms(v[None])[0]))
    if residual < np.inf and bound < np.inf:
        with np.errstate(over="ignore", invalid="ignore"):  # coefficients past the float range
            own = float(linops.row_norms((coeffs @ generators - v)[None])[0])
        return bool(residual <= bound) if abs(own - residual) <= bound else None
    return raw_nnls_membership(generators, v / float(np.abs(v).max()), tol)


def unit_nnls_membership(generators, v, tol: float = quasireal.CONE_TOL) -> tuple[bool, float, float]:
    """Reference verdict and residual from scipy.optimize.nnls on the
    generators scaled to unit norm (as in ``lp_pointed``) and v / max|v_i|,
    with the bound tol * max(1, |v|), the residual scaled back to v; and the
    sum of its coefficients scaled back the same way, which the rounding of
    that residual grows with (on generators dependent to rounding, NNLS
    coefficients reach ~1e15 and two NNLS residuals differ by ~10%)."""
    g = np.asarray(generators, dtype=float)
    g = g / np.abs(g).max(axis=1)[:, None]
    g = g / np.linalg.norm(g, axis=1)[:, None]
    peak = float(np.abs(v).max()) or 1.0
    coeffs, residual = nnls(g.T, v / peak)
    member = residual <= tol * max(1.0 / peak, float(np.linalg.norm(v / peak)))
    with np.errstate(over="ignore"):
        return bool(member), residual * peak if residual > 0.0 else 0.0, coeffs.sum() * peak


def image_multiple(d, g) -> np.ndarray:
    """d @ g, or a finite positive multiple of it when it is past the float
    range, with peak entry 1."""
    with np.errstate(over="ignore", invalid="ignore"):
        image = d @ g
    if not np.isfinite(image).all():
        image = (d / np.abs(d).max()) @ (g / np.abs(g).max())
        image = image / np.abs(image).max()
    return image


def exact_miss_squared(generators, coeffs, v) -> Fraction:
    """|G^T c - v|^2 in exact rational arithmetic, of the floats as they are."""
    total = Fraction(0)
    for column, x in zip(np.asarray(generators).T, v):
        r = sum((Fraction(c) * Fraction(g) for c, g in zip(coeffs, column)), Fraction(0)) - Fraction(x)
        total += r * r
    return total


@st.composite
def cones_and_vectors(draw):
    """A cone of ``scaled_cones`` with members (nonnegative combinations, a
    third of their coefficients zero, so many lie on faces), near misses
    (one coefficient of a member set to -1e-6, or a member moved off the
    generators' span by 1e-6 of its norm, when they span less than the
    space) and random vectors at any scale, most of them non-members."""
    gens = draw(scaled_cones())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lam = rng.random((4, len(gens)))
    lam[rng.random(lam.shape) < 1 / 3] = 0.0
    near = lam.copy()
    near[np.arange(4), rng.integers(len(gens), size=4)] = -1e-6
    members = lam @ gens
    _, s, vt = np.linalg.svd(gens / linops.row_norms(gens)[:, None])
    normal = vt[int((s > 1e-10 * s[0]).sum()):].sum(axis=0)  # orthogonal to the span, or 0
    off = members + 1e-6 * np.outer(linops.row_norms(members), normal / max(np.linalg.norm(normal), 1.0))
    others = rng.standard_normal((4, gens.shape[1])) * 10.0 ** rng.integers(-150, 151, (4, 1))
    return gens, np.vstack([members, near @ gens, off, others])


# a cone of two generators; 0.3 g_1 lies on its face spanned by g_1. The
# least-squares coefficient for g_0 of that vector, and of its image under
# FACE_MAP (which maps g_0 to 0.3 g_1 and fixes g_1), is exactly 0 but
# rounds to about -1e-16, so the NNLS decides them
FACE_CONE = np.array([[1.0, 0.5], [-0.5, 2.0]])
FACE_MAP = np.array([0.3 * FACE_CONE[1], FACE_CONE[1]]).T @ np.linalg.inv(FACE_CONE.T)


@st.composite
def cones_and_maps(draw):
    """A cone of ``scaled_cones`` with a map preserving it (a positive
    multiple of I) and a random map, at scales whose images of the
    generators run past the float range."""
    gens = draw(scaled_cones())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = gens.shape[1]
    return gens, [10.0 ** int(rng.integers(0, 300)) * np.eye(dim),
                  10.0 ** int(rng.integers(0, 300)) * rng.standard_normal((dim, dim))]


class TestCertificates:
    """Membership in unit coordinates against NNLS called here: the verdict
    and, within rounding, the residual of NNLS on the unit generators; a
    member wherever NNLS on the raw generators proves one (its non-member
    verdicts prove nothing: ``MEMBER_RAW_NNLS_MISSES``); and coefficients of
    every member that reproduce it, in exact arithmetic. (Pointedness is
    held to the LP in TestPointednessShortcut.)"""

    @given(cones_and_vectors())
    @example((LINE_AT_1E15, np.array([[1.0, 1.0, 1.0], [0.0, 0.0, -1.0], [-3e15, 2.0, 0.0]])))
    @example((np.array([[1e-200, 0.0], [0.0, 1.0]]), np.array([[3.0, 1.0], [-3.0, 1.0], [3e-200, 0.0]])))
    @example((nearly_dependent(1e-7), np.array([[0.0, 0.0, 1e-7], [1.0, 2.0, 0.0], [0.0, 0.0, -1.0]])))
    @example((FACE_CONE, 0.3 * FACE_CONE[1:]))
    @example((LINE_AND_TINY_RAY, TAU_OFF_LINE_AND_TINY_RAY[None]))
    @example((MEMBER_RAW_NNLS_MISSES[0], MEMBER_RAW_NNLS_MISSES[1][None]))
    def test_matches_nnls(self, case):
        gens, vectors = case
        cone = PolyhedralCone(generators=gens)
        for v in vectors:
            member, residual, coeffs = cone_membership(cone, v)
            expected, expected_residual, mass = unit_nnls_membership(gens, v)
            assert member == expected
            bound = quasireal.CONE_TOL * max(1.0, linops.row_norms(v[None])[0])
            with np.errstate(over="ignore"):
                rounding = 1e-12 * (mass + coeffs @ linops.row_norms(gens))
            assert residual == pytest.approx(expected_residual, rel=1e-9, abs=bound + rounding)
            assert member or not raw_nnls_membership(gens, v)

    @given(cones_and_vectors())
    @example((MEMBER_RAW_NNLS_MISSES[0], MEMBER_RAW_NNLS_MISSES[1][None]))
    @example((LINE_AND_TINY_RAY, np.array([LINE_AND_TINY_RAY[1], [2.0, 1.0, 0.0], TAU_OFF_LINE_AND_TINY_RAY])))
    def test_member_coefficients_reproduce_v(self, case):
        gens, vectors = case
        cone = PolyhedralCone(generators=gens)
        for v in vectors:
            member, _, coeffs = cone_membership(cone, v)
            if member:
                bound = quasireal.CONE_TOL * max(1.0, linops.row_norms(v[None])[0])
                assert np.all(coeffs >= 0.0) and np.all(np.isfinite(coeffs))
                assert exact_miss_squared(gens, coeffs, v) <= Fraction(bound) ** 2

    @given(cones_and_maps())
    @example((np.array([[1e200, 0.0], [0.0, 1.0]]), [np.diag([1e200, 1.0]), np.diag([-1e200, 1.0])]))
    @example((FACE_CONE, [FACE_MAP]))
    def test_images_at_any_scale(self, case):
        gens, maps = case
        q = quasirealization(maps, np.ones(gens.shape[1]), gens.sum(axis=0))
        rep = check_dharmadhikari(q, PolyhedralCone(generators=gens))
        images = [image_multiple(d, g) for d in maps for g in gens]
        assert rep.maps_preserve_cone == all(unit_nnls_membership(gens, x)[0] for x in images)
        raw = [raw_nnls_membership(gens, x) for x in images]
        assert rep.maps_preserve_cone or not all(raw)
        assert rep.tau_in_cone == unit_nnls_membership(gens, q.tau)[0]


class TestDharmadhikari:
    def test_markov_orthant_all_pass(self):
        rep = check_dharmadhikari(markov_realization(), PolyhedralCone(generators=np.eye(2)))
        assert rep.all_ok
        assert rep.tau_residual < 1e-10

    def test_rotation_breaks_cone_preservation(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        q = QuasiRealization(dim=2, alphabet=("0",), d_maps={"0": rot},
                             pi=np.array([1.0, 0.0]), tau=np.ones(2))
        rep = check_dharmadhikari(q, PolyhedralCone(generators=np.eye(2)))
        assert not rep.maps_preserve_cone
        assert not rep.all_ok
        assert rep.worst_map_case is not None

    def test_line_cone_not_pointed(self):
        q = markov_realization()
        cone = PolyhedralCone(generators=np.array([[1.0, 0.0], [-1.0, 0.0]]))
        rep = check_dharmadhikari(q, cone)
        assert not rep.pointed

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            check_dharmadhikari(markov_realization(), PolyhedralCone(generators=np.eye(3)))

    @pytest.mark.parametrize("transform", [
        np.array([[2.0, 1.0], [1.0, 1.0]]),
        np.array([[1.0, 0.0, 1.0], [0.0, 2.0, 1.0], [1.0, 1.0, 3.0]]),
    ])
    def test_hidden_basis_recovers_positive_realization(self, transform, rng):
        """A positive realization conjugated into a hidden basis passes the
        cone check with the transformed generators, and changing basis back
        with those generators recovers nonneg + stochastic."""
        dim = transform.shape[0]
        if dim == 2:
            base = markov_realization()
        else:
            t = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.2, 0.7]])
            evals, evecs = np.linalg.eig(t.T)
            pi = np.real(evecs[:, np.argmin(np.abs(evals - 1.0))])
            pi = pi / pi.sum()
            maps = {}
            for j in range(3):
                m = np.zeros((3, 3))
                m[:, j] = t[:, j]
                maps[str(j)] = m
            base = QuasiRealization(dim=3, alphabet=tuple(str(j) for j in range(3)),
                                    d_maps=maps, pi=pi, tau=np.ones(3))
        assert is_positive_realization(base, tol=1e-9).all_ok

        s = transform
        s_inv = np.linalg.inv(s)
        hidden = QuasiRealization(
            dim=dim, alphabet=base.alphabet,
            d_maps={u: s @ base.d_maps[u] @ s_inv for u in base.alphabet},
            pi=base.pi @ s_inv, tau=s @ base.tau,
        )
        cone = PolyhedralCone(generators=s.T.copy())  # generators = columns of s
        rep = check_dharmadhikari(hidden, cone, tol=1e-8)
        assert rep.all_ok
        # hidden realization is NOT positive in its own basis (generic s)
        assert not is_positive_realization(hidden, tol=1e-9).all_ok
        # basis change defined by the verified generators restores positivity
        restored = QuasiRealization(
            dim=dim, alphabet=hidden.alphabet,
            d_maps={u: s_inv @ hidden.d_maps[u] @ s for u in hidden.alphabet},
            pi=hidden.pi @ s, tau=s_inv @ hidden.tau,
        )
        rep2 = is_positive_realization(restored, tol=1e-9)
        assert rep2.nonneg and rep2.stochastic

    def test_same_process_after_conjugation(self):
        base = markov_realization()
        s = np.array([[2.0, 1.0], [1.0, 1.0]])
        s_inv = np.linalg.inv(s)
        hidden = QuasiRealization(
            dim=2, alphabet=base.alphabet,
            d_maps={u: s @ base.d_maps[u] @ s_inv for u in base.alphabet},
            pi=base.pi @ s_inv, tau=s @ base.tau,
        )
        for word in ("", "0", "01", "110", "0101"):
            assert word_probability(hidden, word) == pytest.approx(
                word_probability(base, word), abs=1e-12
            )


class TestJson:
    def test_quasireal_roundtrip(self):
        q = markov_realization()
        back = quasireal.quasireal_from_json(quasireal.quasireal_to_json(q))
        assert back.alphabet == q.alphabet
        for u in q.alphabet:
            assert np.abs(back.d_maps[u] - q.d_maps[u]).max() < 1e-15
        assert np.allclose(back.pi, q.pi) and np.allclose(back.tau, q.tau)

    def test_missing_map_rejected(self):
        obj = quasireal.quasireal_to_json(markov_realization())
        del obj["D"]["1"]
        with pytest.raises(ValueError):
            quasireal.quasireal_from_json(obj)

    def test_stray_maps_rejected(self):
        # a map for a symbol outside the alphabet would be dropped, and the
        # realization read as another process
        obj = {"dim": 1, "alphabet": ["0"], "D": {"0": [[0.5]], "1": [[0.5]], "2": [[0.0]]},
               "pi": [1.0], "tau": [1.0]}
        with pytest.raises(ValueError, match=r"symbols not in the alphabet: \['1', '2'\]"):
            quasireal.quasireal_from_json(obj)

    def test_symbols_unique_as_strings(self):
        # (0, "0") reads as ("0", "0"): one symbol's map would count twice
        with pytest.raises(ValueError, match=r"unique as strings, got \['0', '0'\]"):
            QuasiRealization(dim=1, alphabet=(0, "0"), d_maps={"0": [[0.5]]},
                             pi=np.array([1.0]), tau=np.array([1.0]))

    @pytest.mark.parametrize("alphabet, message", [
        ([None, True, 1.0], "alphabet entry 0 is null, not a string"),
        (["0", True], "alphabet entry 1 is true, not a string"),
        (["0", 1.0], "alphabet entry 1 is 1.0, not a string"),
        ([0, "0"], "alphabet entry 0 is 0, not a string"),
    ])
    def test_non_string_symbols_rejected_from_json(self, alphabet, message):
        # JSON symbols are strings, as the keys of D are: str() would read
        # null as 'None' and the D keys would have to be spelled that way
        obj = {"dim": 1, "alphabet": alphabet, "D": {str(u): [[0.5]] for u in alphabet},
               "pi": [1.0], "tau": [1.0]}
        with pytest.raises(ValueError, match=re.escape(message)):
            quasireal.quasireal_from_json(obj)

    def test_python_symbols_are_converted_to_strings(self):
        # conesim builds realizations on integer symbols
        q = QuasiRealization(dim=1, alphabet=(0, 1), d_maps={"0": [[0.5]], "1": [[0.5]]},
                             pi=np.array([1.0]), tau=np.array([1.0]))
        assert q.alphabet == ("0", "1")

    def test_cone_roundtrip(self):
        cone = PolyhedralCone(generators=np.array([[1.0, 2.0], [0.0, 1.0]]))
        back = quasireal.cone_from_json(quasireal.cone_to_json(cone))
        assert np.abs(back.generators - cone.generators).max() < 1e-15

    @given(q=finite_quasirealizations())
    @example(q=quasirealization([[[-0.0]]], pi=[5e-324], tau=[-1.7976931348623157e308]))
    def test_quasireal_roundtrip_through_text_is_exact(self, q):
        text = json.dumps(quasireal.quasireal_to_json(q))
        back = quasireal.quasireal_from_json(json.loads(text))
        assert (back.dim, back.alphabet) == (q.dim, q.alphabet)
        for u in q.alphabet:
            assert back.d_maps[u].tobytes() == q.d_maps[u].tobytes()
        assert back.pi.tobytes() == q.pi.tobytes() and back.tau.tobytes() == q.tau.tobytes()
