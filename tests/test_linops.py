import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conekit import linops
from conekit.conesim import haar_unitary
from conekit.linops import (
    kernel_projector,
    kron,
    matrix_from_json,
    matrix_to_json,
    partial_trace,
    support_projector,
    trace_distance,
)

from conftest import basis_proj, random_density, random_hermitian


def kron_oracle(a, b):
    """Entrywise quadruple-loop Kronecker product."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def partial_trace_oracle_over2(m, d1, d2):
    """Explicit index sum: out[i, j] = sum_k M[(i,k),(j,k)]."""
    out = np.zeros((d1, d1), dtype=complex)
    for i in range(d1):
        for j in range(d1):
            for k in range(d2):
                out[i, j] += m[i * d2 + k, j * d2 + k]
    return out


class TestCheckStates:
    def test_returns_one_stack(self, rng):
        states = [random_density(rng, 3) for _ in range(2)]
        stack = linops.check_states(iter(states))
        assert stack.shape == (2, 3, 3)
        assert stack.tobytes() == np.array(states).tobytes()

    @pytest.mark.parametrize("sigmas, message", [
        ([], "need at least one state"),
        ([np.eye(2) / 2, np.eye(3) / 3],
         "states must share one dimension: state 1 is 3x3, but state 0 is 2x2"),
        ([np.eye(2) / 2, np.eye(2)], "state trace is 2"),
    ], ids=["empty", "dimensions", "not-a-state"])
    def test_rejects(self, sigmas, message):
        with pytest.raises(ValueError, match=message):
            linops.check_states(sigmas)


class TestAsMatrix:
    def test_rejects_a_stack(self):
        with pytest.raises(ValueError, match=r"expected a matrix, got array of shape \(2, 2, 2\)"):
            linops.as_matrix(np.zeros((2, 2, 2)))


class TestStacks:
    def test_dagger_and_hermitize_act_on_each_matrix(self, rng):
        stack = rng.standard_normal((3, 4, 2, 2)) + 1j * rng.standard_normal((3, 4, 2, 2))
        for i in range(3):
            for j in range(4):
                m = stack[i, j]
                assert np.array_equal(linops.dagger(stack)[i, j], m.conj().T)
                assert np.array_equal(linops.hermitize(stack)[i, j], (m + m.conj().T) / 2.0)


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_basis_projectors(self):
        out = kron(basis_proj(0, 2), basis_proj(1, 2))
        expected = np.zeros((4, 4))
        expected[1, 1] = 1.0
        assert np.array_equal(out, expected)

    def test_matches_quadruple_loop(self, rng):
        for _ in range(5):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            assert np.abs(kron(a, b) - kron_oracle(a, b)).max() < 1e-14

    def test_associativity(self, rng):
        for _ in range(10):
            a, b, c = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(3))
            left = kron(kron(a, b), c)
            right = kron(a, kron(b, c))
            assert np.abs(left - right).max() < 1e-12


class TestPartialTrace:
    def test_product_state(self, rng):
        for _ in range(10):
            a = random_hermitian(rng, 2)
            b = random_hermitian(rng, 2)
            out = partial_trace(kron(a, b), (2, 2), over=2)
            assert np.abs(out - a * np.trace(b)).max() < 1e-10

    def test_identity_over_first(self):
        out = partial_trace(np.eye(4), (2, 2), over=1)
        assert np.abs(out - 2 * np.eye(2)).max() < 1e-15

    def test_index_sum_oracle(self, rng):
        m = random_hermitian(rng, 4)
        out = partial_trace(m, (2, 2), over=2)
        assert np.abs(out - partial_trace_oracle_over2(m, 2, 2)).max() < 1e-14

    def test_trace_preserved(self, rng):
        m = random_hermitian(rng, 6)
        for over, dims in ((1, (2, 3)), (2, (2, 3))):
            out = partial_trace(m, dims, over=over)
            assert abs(np.trace(out) - np.trace(m)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), (2, 3), over=2)
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), (2, 2), over=3)


def chained_groups(values, tol):
    """Reference for ``tolerance_groups``: walk the sorted values, opening a
    new group wherever the gap to the previous one exceeds tol."""
    order = sorted(values)
    group, label = {order[0]: 0}, 0
    for prev, cur in zip(order, order[1:]):
        label += cur - prev > tol
        group[cur] = label
    return [group[v] for v in values]


class TestToleranceGroups:
    @given(values=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=12),
           tol=st.sampled_from([0.0, 1e-10, 0.05, 0.3]))
    @example(values=[0.0, 0.2, 0.4, 1.0], tol=0.25)  # a chain is one group
    @example(values=[0.5, 0.5, -0.5], tol=0.0)
    def test_matches_the_chained_walk(self, values, tol):
        assert linops.tolerance_groups(values, tol).tolist() == chained_groups(values, tol)

    def test_keeps_the_shape_and_counts_up_with_the_value(self):
        labels = linops.tolerance_groups(np.array([[0.3, 0.1], [0.1 + 1e-12, -2.0]]), 1e-9)
        assert labels.tolist() == [[2, 1], [1, 0]]


class TestProjectors:
    def test_support_of_pure(self):
        p = basis_proj(0, 2)
        assert np.abs(support_projector(p) - p).max() < 1e-12

    def test_support_full_rank(self):
        assert np.abs(support_projector(np.eye(2) / 2) - np.eye(2)).max() < 1e-12

    def test_support_scaled_pure(self):
        plus = linops.ket_projector(np.array([1.0, 1.0]) / np.sqrt(2))
        assert np.abs(support_projector(0.6 * plus) - plus).max() < 1e-12

    def test_kernel_of_pure(self):
        assert np.abs(kernel_projector(basis_proj(0, 2)) - basis_proj(1, 2)).max() < 1e-12

    def test_kernel_full_rank(self):
        for d in (2, 3):
            assert np.abs(kernel_projector(np.eye(d) / d)).max() < 1e-12

    def test_kernel_of_bell_mixture(self):
        # generic-coefficient mixture of Bell-frame states spans a 3-dim
        # subspace; the kernel is the remaining singlet direction
        v0 = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        v1 = np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2)
        v2 = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
        v3 = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
        k1 = 0.8 * v1 + 0.6 * v2
        k2 = -0.6 * v1 + 0.8 * v2
        sigma0 = 0.3 * linops.ket_projector(v0) + 0.4 * linops.ket_projector(k1) + 0.3 * linops.ket_projector(k2)
        kernel = kernel_projector(sigma0)
        assert np.abs(kernel - linops.ket_projector(v3)).max() < 1e-10

    def test_support_plus_kernel_is_identity(self, rng):
        for dim in (2, 3, 4):
            rho = random_density(rng, dim)
            total = support_projector(rho) + kernel_projector(rho)
            assert np.abs(total - np.eye(dim)).max() < 1e-12

    def test_projector_idempotent_and_absorbing(self, rng):
        rho = random_density(rng, 4)
        p = support_projector(rho)
        assert np.abs(p @ p - p).max() < 1e-10
        assert np.abs(p @ rho - rho).max() < 1e-8

    @given(d=st.integers(2, 5), seed=st.integers(0, 2 ** 32 - 1),
           tail=st.sampled_from([1e-9, 1e-11, 1e-13, 1e-15, 0.0]))
    @example(d=3, seed=5, tail=1e-11)  # above RANK_TOL: kept
    @example(d=3, seed=5, tail=1e-13)  # below RANK_TOL: cut
    def test_support_keeps_exactly_the_eigenvalues_above_rank_tol(self, d, seed, tail):
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.1, 1.0, d)
        weights[-1] = 0.0
        weights *= (1.0 - tail) / weights.sum()
        weights[-1] = tail
        u = haar_unitary(d, rng)
        state = (u * weights) @ u.conj().T
        lam, iso = linops.support(state)
        r = d if tail > linops.RANK_TOL else d - 1
        assert iso.shape == (d, r)
        assert np.abs(iso.conj().T @ iso - np.eye(r)).max() <= 1e-12
        assert (lam[d - r:] > linops.RANK_TOL).all() and (lam[:d - r] <= linops.RANK_TOL).all()
        assert np.abs(iso @ iso.conj().T @ state - state).max() <= 1e-12

    def test_rejects_non_psd(self):
        with pytest.raises(ValueError, match="support_projector requires a PSD operator"):
            support_projector(np.diag([1.0, -1.0]))
        with pytest.raises(ValueError, match="support_projector requires a PSD operator"):
            kernel_projector(np.diag([1.0, -1.0]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            support_projector(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestTraceDistance:
    def test_self(self, rng):
        rho = random_density(rng, 3)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure(self):
        assert abs(trace_distance(basis_proj(0, 2), basis_proj(1, 2)) - 1.0) < 1e-12

    def test_pure_vs_mixed(self):
        assert abs(trace_distance(basis_proj(0, 2), np.eye(2) / 2) - 0.5) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            trace_distance(np.eye(2) / 2, np.eye(3) / 3)

    def test_triangle_inequality(self, rng):
        for _ in range(20):
            a, b, c = (random_density(rng, 3) for _ in range(3))
            assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12


class TestRowNorms:
    def test_far_from_unit_scale(self):
        rows = np.array([[1e160, 1e160], [3e-200, 4e-200], [0.0, 0.0], [1.5e308, 1.5e308]])
        norms = linops.row_norms(rows)
        assert norms[0] == pytest.approx(np.sqrt(2.0) * 1e160, rel=1e-15)
        assert norms[1] == pytest.approx(5e-200, rel=1e-15)
        assert norms[2] == 0.0 and norms[3] == np.inf

    def test_complex_rows(self):
        assert linops.row_norms(np.array([[3e200j, 4e200]])) == pytest.approx([5e200], rel=1e-15)

    @given(arrays(float, (3, 4),
                  elements=st.just(0.0) | st.floats(1e-6, 1e6) | st.floats(-1e6, -1e-6)),
           st.integers(-900, 900))
    @example(np.zeros((3, 4)), 0)
    def test_scales_exactly_by_powers_of_two(self, rows, k):
        # math.hypot neither overflows nor underflows; a power of two scales
        # every entry exactly (no entry goes subnormal), and the peak division undoes it
        norms = linops.row_norms(rows)
        assert np.allclose(norms, [math.hypot(*r) for r in rows], rtol=1e-14, atol=0.0)
        assert np.array_equal(linops.row_norms(np.ldexp(rows, k)), np.ldexp(norms, k))


class TestMatrixJson:
    def test_roundtrip(self, rng):
        m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        out = matrix_from_json(matrix_to_json(m))
        assert np.abs(out - m).max() < 1e-15

    def test_entry_count_mismatch(self):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 2, "cols": 2, "re": [1, 2, 3], "im": [0, 0, 0]})

    def test_missing_keys(self):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 1, "cols": 1, "re": [1.0]})

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            matrix_from_json({"rows": 1, "cols": 1, "re": [float("nan")], "im": [0.0]})

    # the entries are the Python floats of the per-element reference, bit for bit
    @given(m=arrays(complex, st.tuples(st.integers(1, 4), st.integers(1, 4)),
                    elements=st.complex_numbers(allow_nan=False, allow_infinity=False)))
    @example(m=np.array([[complex(-0.0, -0.0), complex(-0.0, 1.0)]]))
    @example(m=np.array([[complex(5e-324, -5e-324), complex(2.2250738585072009e-308, -1e-310)]]))
    @example(m=np.array([[complex(1.7976931348623157e308, -1.7976931348623157e308)]]))
    def test_entries_match_elementwise_floats(self, m):
        def bits(values):
            return [np.float64(x).tobytes() for x in values]

        obj = matrix_to_json(m)
        for key, part in (("re", m.real), ("im", m.imag)):
            reference = [float(x) for x in part.reshape(-1)]
            assert all(type(x) is float for x in obj[key])
            assert bits(obj[key]) == bits(reference)
            assert json.dumps(obj[key]) == json.dumps(reference)

    # through JSON text every finite entry comes back bit for bit, the sign
    # of a zero real or imaginary part included
    @given(m=arrays(complex, st.tuples(st.integers(1, 4), st.integers(1, 4)),
                    elements=st.complex_numbers(allow_nan=False, allow_infinity=False)))
    @example(m=np.array([[complex(-0.0, -0.0), complex(-0.0, 1.0)]]))
    def test_roundtrip_is_exact(self, m):
        back = matrix_from_json(json.loads(json.dumps(matrix_to_json(m))))
        assert back.shape == m.shape
        assert back.tobytes() == m.tobytes()
