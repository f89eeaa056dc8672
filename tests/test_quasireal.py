import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linprog

from conekit import quasireal
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

    def test_generators_validated(self):
        with pytest.raises(ValueError):
            PolyhedralCone(generators=np.array([[0.0, 0.0]]))
        with pytest.raises(ValueError):
            PolyhedralCone(generators=np.zeros((0, 2)))


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
    """Pointedness by one NNLS against the LP reference, whose cases the
    rank shortcut and the LP it replaced were held to."""

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

    def test_dual_condition_at_large_scale(self):
        cone = PolyhedralCone(generators=np.array([[1e160, 0.0], [0.0, 1.0]]))
        rep = check_dharmadhikari(quasirealization([np.eye(2)], [-1.0, 2.0], [1.0, 1.0]), cone)
        assert rep.tau_in_cone and rep.maps_preserve_cone and rep.pointed
        assert not rep.pi_in_dual
        assert rep.min_dual_value == -1e160
        rep = check_dharmadhikari(quasirealization([np.eye(2)], [1.0, 2.0], [1.0, 1.0]), cone)
        assert rep.all_ok


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
