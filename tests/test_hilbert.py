import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dense, haar_unitary, random_state
from qmask.hilbert import (
    MultipartiteState,
    Operator,
    StateVector,
    basis_state,
    fidelity,
    gram,
    hermitian_sqrt,
    nonsingular_spectrum,
    overlap,
    partial_trace,
    psd_check,
    unitary_completion,
)

INV2 = 1.0 / np.sqrt(2)


def bell_state():
    return MultipartiteState(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2))


class TestStateTypes:
    def test_state_vector_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            StateVector(np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="normalized"):
            StateVector(np.array([np.nan, 0.0]))

    def test_state_vector_rejects_empty(self):
        with pytest.raises(ValueError):
            StateVector(np.array([]))

    def test_one_state_type_with_one_subsystem_by_default(self):
        assert StateVector is MultipartiteState
        state = StateVector(np.array([0.6, 0.8j]))
        assert state.dims == (2,) and state.dim == 2
        assert np.allclose(partial_trace(state, 0), [[0.36, -0.48j], [0.48j, 0.64]])

    def test_multipartite_dims_must_match_length(self):
        with pytest.raises(ValueError, match="dims"):
            MultipartiteState(np.array([1, 0, 0]) / 1.0, (2, 2))

    def test_amplitudes_are_immutable(self):
        state = basis_state(2, 0)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_operator_predicates(self):
        assert Operator(np.eye(3), np.eye(3)).is_unitary()
        assert not Operator(np.eye(2), np.diag([1.0, 2.0])).is_unitary()


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        rho = partial_trace(bell_state(), 0)
        assert np.allclose(rho, np.eye(2) / 2, atol=1e-12)

    def test_product_marginal_is_pure(self, rng):
        u = random_state(3, rng)
        v = random_state(4, rng)
        product = MultipartiteState(np.kron(u.amplitudes, v.amplitudes), (3, 4))
        rho = partial_trace(product, 0)
        assert np.allclose(rho, np.outer(u.amplitudes, u.amplitudes.conj()), atol=1e-12)

    def test_diagonal_spectrum_state(self):
        # sqrt(0.7)|00> + sqrt(0.3)|11> has A marginal diag(0.7, 0.3)
        amps = np.zeros(4, dtype=complex)
        amps[0] = np.sqrt(0.7)
        amps[3] = np.sqrt(0.3)
        rho = partial_trace(MultipartiteState(amps, (2, 2)), 0)
        assert np.allclose(rho, np.diag([0.7, 0.3]), atol=1e-12)

    def test_subsystem_index_out_of_range(self):
        for keep in (2, -1):
            with pytest.raises(ValueError, match="subsystem index"):
                partial_trace(bell_state(), keep)

    def test_bulk_marginals_are_density_operators(self):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            z = rng.standard_normal(da * db) + 1j * rng.standard_normal(da * db)
            state = MultipartiteState(z / np.linalg.norm(z), (da, db))
            keep = 0 if rng.integers(2) else 1
            rho = partial_trace(state, keep)
            assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10
            assert abs(np.trace(rho) - 1.0) <= 1e-10
            assert np.linalg.eigvalsh(rho)[0] >= -1e-10


class TestGram:
    def test_orthonormal_basis_gives_identity(self):
        states = [basis_state(3, i) for i in range(3)]
        assert np.allclose(gram(states), np.eye(3), atol=1e-12)

    def test_pair_with_known_overlap(self):
        states = [basis_state(2, 0), StateVector(np.array([1, 1]) / np.sqrt(2))]
        expected = np.array([[1, INV2], [INV2, 1]])
        assert np.allclose(gram(states), expected, atol=1e-12)

    def test_gram_is_psd(self, rng):
        for _ in range(25):
            states = [random_state(3, rng) for _ in range(int(rng.integers(1, 6)))]
            ok, lowest = psd_check(gram(states))
            assert ok, lowest

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            gram([basis_state(2, 0), basis_state(3, 0)])

    @given(seed=st.integers(0, 2**31 - 1), d=st.integers(2, 5), n=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_common_unitary(self, seed, d, n):
        rng = np.random.default_rng(seed)
        states = [random_state(d, rng) for _ in range(n)]
        w = haar_unitary(d, rng)
        rotated = [StateVector(w @ s.amplitudes) for s in states]
        assert np.max(np.abs(gram(states) - gram(rotated))) <= 1e-10


class TestLinearIndependence:
    def test_basis_pair(self):
        values, _ = nonsingular_spectrum(gram([basis_state(2, 0), basis_state(2, 1)]), "A")
        assert np.allclose(values, [1.0, 1.0])

    def test_repeated_state(self):
        with pytest.raises(ValueError, match="A is singular.*linearly dependent"):
            nonsingular_spectrum(gram([basis_state(2, 0), basis_state(2, 0)]), "A")

    def test_non_parallel_pair(self):
        states = [basis_state(2, 0), StateVector(np.array([1, 1]) / np.sqrt(2))]
        values, _ = nonsingular_spectrum(gram(states), "A")
        assert np.allclose(values, [1 - INV2, 1 + INV2])


class TestUnitaryCompletion:
    def test_identity_case(self):
        basis = [basis_state(3, i) for i in range(3)]
        u = unitary_completion(basis, basis)
        assert np.allclose(dense(u), np.eye(3), atol=1e-10)

    def test_swap_of_two_basis_states(self):
        u = unitary_completion(
            [basis_state(3, 0), basis_state(3, 1)],
            [basis_state(3, 1), basis_state(3, 0)],
        )
        assert np.allclose(u.apply(np.eye(3)[0]), np.eye(3)[1], atol=1e-10)
        assert np.allclose(u.apply(np.eye(3)[1]), np.eye(3)[0], atol=1e-10)
        assert u.is_unitary()

    def test_maps_families_built_from_known_unitary(self, rng):
        # instances with equal Grams by construction; only the mapping
        # property is asserted, not equality with the generating unitary
        for _ in range(20):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(1, d + 1))
            inputs = [random_state(d, rng) for _ in range(n)]
            w = haar_unitary(d, rng)
            outputs = [StateVector(w @ s.amplitudes) for s in inputs]
            u = unitary_completion(inputs, outputs)
            assert u.is_unitary()
            for source, target in zip(inputs, outputs):
                assert np.linalg.norm(u.apply(source.amplitudes) - target.amplitudes) <= 1e-9

    def test_gram_preserved_by_result(self, rng):
        d = 4
        inputs = [random_state(d, rng) for _ in range(3)]
        w = haar_unitary(d, rng)
        outputs = [StateVector(w @ s.amplitudes) for s in inputs]
        u = unitary_completion(inputs, outputs)
        images = [StateVector(u.apply(s.amplitudes)) for s in inputs]
        assert np.max(np.abs(gram(images) - gram(inputs))) <= 1e-10

    def test_linearly_dependent_family(self):
        # the duplicate direction exercises the eigenvalue cutoff
        inputs = [basis_state(2, 0), basis_state(2, 0)]
        outputs = [basis_state(2, 1), basis_state(2, 1)]
        u = unitary_completion(inputs, outputs)
        assert u.is_unitary()
        assert np.linalg.norm(u.apply(np.eye(2)[0]) - np.eye(2)[1]) <= 1e-9

    def test_factored_form_moves_only_the_joint_span(self, rng):
        dim, n = 24, 3
        inputs = [random_state(dim, rng) for _ in range(n)]
        w = haar_unitary(dim, rng)
        outputs = [StateVector(w @ s.amplitudes) for s in inputs]
        u = unitary_completion(inputs, outputs)
        assert isinstance(u, Operator)
        assert u.dim == dim and u.span_basis.shape[1] <= 2 * n
        assert u.is_unitary() and u.unitarity_residual <= 1e-12
        vectors = rng.standard_normal((dim, 4)) + 1j * rng.standard_normal((dim, 4))
        q, w = u.span_basis, u.span_unitary
        matrix = np.eye(dim) - q @ q.conj().T + q @ w @ q.conj().T
        assert np.allclose(u.apply(vectors), matrix @ vectors, atol=1e-12)
        assert np.allclose(u.apply(vectors[:, 0]), matrix @ vectors[:, 0], atol=1e-12)
        # identity on everything orthogonal to the inputs and outputs
        span = np.column_stack([s.amplitudes for s in inputs + outputs])
        outside = vectors - span @ np.linalg.lstsq(span, vectors, rcond=None)[0]
        assert np.allclose(u.apply(outside), outside, atol=1e-12)

    def test_factored_shapes_checked(self):
        with pytest.raises(ValueError, match="span basis"):
            Operator(np.eye(3)[:, :0], np.eye(1))
        with pytest.raises(ValueError, match="span unitary has dimension 3"):
            Operator(np.eye(4)[:, :2], np.eye(3))
        u = Operator(np.eye(4)[:, :2], np.array([[0, 1], [1, 0]]))
        assert np.array_equal(dense(u), np.eye(4)[[1, 0, 2, 3]])
        assert not Operator(2 * np.eye(4)[:, :2], np.eye(2)).is_unitary()

    def test_gram_mismatch_rejected(self):
        inputs = [basis_state(2, 0), basis_state(2, 1)]
        outputs = [basis_state(2, 0), StateVector(np.array([1, 1]) / np.sqrt(2))]
        with pytest.raises(ValueError, match="Gram"):
            unitary_completion(inputs, outputs)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            unitary_completion([basis_state(2, 0)], [basis_state(3, 0)])


class TestPsdCheck:
    def test_identity(self):
        ok, lowest = psd_check(np.eye(2))
        assert ok
        assert lowest == pytest.approx(1.0, abs=1e-12)

    def test_indefinite_matrix(self):
        ok, lowest = psd_check(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert not ok
        assert lowest == pytest.approx(-1.0, abs=1e-12)

    def test_residual_style_matrix(self):
        # eigenvalues (1 - gamma) +/- s with gamma = 0.2, s = 0.9
        gamma, s = 0.2, 0.9
        ok, lowest = psd_check(np.array([[1 - gamma, s], [s, 1 - gamma]]))
        assert not ok
        assert lowest == pytest.approx(0.8 - 0.9, abs=1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            psd_check(np.array([[1.0, 1.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        # a non-finite entry makes the Hermitian residual NaN, which must fail the check
        with pytest.raises(ValueError, match="not Hermitian: residual nan"):
            psd_check(np.diag([1.0, bad]))


class TestHermitianSqrt:
    def test_identity(self):
        assert np.allclose(hermitian_sqrt(np.eye(3)), np.eye(3), atol=1e-12)

    def test_diagonal(self):
        assert np.allclose(hermitian_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12)

    def test_square_root_property(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 6))
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            matrix = z @ z.conj().T
            root = hermitian_sqrt(matrix)
            assert np.max(np.abs(root - root.conj().T)) <= 1e-10
            assert np.linalg.eigvalsh(root)[0] >= -1e-10
            assert np.max(np.abs(root @ root - matrix)) <= 1e-9 * max(1.0, np.max(np.abs(matrix)))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            hermitian_sqrt(np.diag([1.0, -0.5]))

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="not Hermitian: residual nan"):
            hermitian_sqrt(np.full((2, 2), np.nan))


class TestOverlapHelpers:
    def test_overlap_conjugation(self, rng):
        u, v = random_state(3, rng), random_state(3, rng)
        assert overlap(u, v) == pytest.approx(np.conj(overlap(v, u)))

    def test_fidelity_phase_insensitive(self, rng):
        u = random_state(4, rng)
        rotated = StateVector(np.exp(0.7j) * u.amplitudes)
        assert fidelity(u, rotated) == pytest.approx(1.0, abs=1e-12)
