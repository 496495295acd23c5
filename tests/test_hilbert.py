import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import circulant_family, dense, frame, haar_unitary, patch_kernel, random_state
from qmask import hilbert, optimizer
from qmask.optimizer import _dual_factor
from qmask.hilbert import (
    NORM_TOL,
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
    spectrum_floor,
    unitary_completion,
    verification_tolerance,
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

    @pytest.mark.parametrize("dims", [(2.7, 2.2), (2.0, 2.0), ("2", "2"), (True, 4),
                                      (np.float64(2), 2), (np.bool_(True), 4)])
    def test_dims_must_be_integers(self, dims):
        # int() would read these as (2, 2) or (1, 4)
        with pytest.raises(ValueError, match="^subsystem dimensions must be integers"):
            MultipartiteState(np.eye(4)[0], dims)

    @pytest.mark.parametrize("dims", [(4, 0), (-2, -2)])
    def test_dims_must_be_positive(self, dims):
        with pytest.raises(ValueError, match="^subsystem dimensions must be positive"):
            MultipartiteState(np.eye(4)[0], dims)

    def test_numpy_integer_dims_are_python_ints(self):
        state = MultipartiteState(np.eye(4)[0], (np.int64(2), np.int32(2)))
        assert state.dims == (2, 2) and all(type(d) is int for d in state.dims)

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
        values, _ = nonsingular_spectrum(gram([basis_state(2, 0), basis_state(2, 1)]))
        assert np.allclose(values, [1.0, 1.0])

    def test_repeated_state(self):
        with pytest.raises(ValueError, match="^inputs' Gram matrix is singular.*dependent"):
            nonsingular_spectrum(gram([basis_state(2, 0), basis_state(2, 0)]))

    def test_non_parallel_pair(self):
        states = [basis_state(2, 0), StateVector(np.array([1, 1]) / np.sqrt(2))]
        values, _ = nonsingular_spectrum(gram(states))
        assert np.allclose(values, [1 - INV2, 1 + INV2])


class TestUnitaryCompletion:
    def test_identity_case(self):
        u = unitary_completion(np.eye(3), np.eye(3))
        assert np.allclose(dense(u), np.eye(3), atol=1e-10)

    def test_swap_of_two_basis_states(self):
        u = unitary_completion(np.eye(3)[:, :2], np.eye(3)[:, [1, 0]])
        assert np.allclose(u.apply(np.eye(3)[0]), np.eye(3)[1], atol=1e-10)
        assert np.allclose(u.apply(np.eye(3)[1]), np.eye(3)[0], atol=1e-10)
        assert u.is_unitary()

    def test_maps_families_built_from_known_unitary(self, rng):
        # instances with equal Grams by construction; only the mapping
        # property is asserted, not equality with the generating unitary
        for _ in range(20):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(1, d + 1))
            inputs = frame([random_state(d, rng) for _ in range(n)])
            outputs = haar_unitary(d, rng) @ inputs
            u = unitary_completion(inputs, outputs)
            assert u.is_unitary()
            assert np.max(np.linalg.norm(u.apply(inputs) - outputs, axis=0)) <= 1e-9

    def test_gram_preserved_by_result(self, rng):
        d = 4
        inputs = frame([random_state(d, rng) for _ in range(3)])
        outputs = haar_unitary(d, rng) @ inputs
        images = unitary_completion(inputs, outputs).apply(inputs)
        assert np.max(np.abs(images.conj().T @ images - inputs.conj().T @ inputs)) <= 1e-10

    def test_linearly_dependent_family(self):
        # the duplicate direction exercises the eigenvalue cutoff
        inputs = np.eye(2)[:, [0, 0]]
        outputs = np.eye(2)[:, [1, 1]]
        u = unitary_completion(inputs, outputs)
        assert u.is_unitary()
        assert np.linalg.norm(u.apply(np.eye(2)[0]) - np.eye(2)[1]) <= 1e-9

    def test_factored_form_moves_only_the_joint_span(self, rng):
        dim, n = 24, 3
        inputs = frame([random_state(dim, rng) for _ in range(n)])
        outputs = haar_unitary(dim, rng) @ inputs
        u = unitary_completion(inputs, outputs)
        assert isinstance(u, Operator)
        assert u.dim == dim and u.span_basis.shape[1] <= 2 * n
        assert u.is_unitary() and max(u.isometry_residual, u.span_unitary_residual) <= 1e-12
        vectors = rng.standard_normal((dim, 4)) + 1j * rng.standard_normal((dim, 4))
        q, w = u.span_basis, u.span_unitary
        matrix = np.eye(dim) - q @ q.conj().T + q @ w @ q.conj().T
        assert np.allclose(u.apply(vectors), matrix @ vectors, atol=1e-12)
        assert np.allclose(u.apply(vectors[:, 0]), matrix @ vectors[:, 0], atol=1e-12)
        # identity on everything orthogonal to the inputs and outputs
        span = np.hstack([inputs, outputs])
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

    @given(seed=st.integers(0, 2**31 - 1), dim=st.integers(2, 12), n=st.integers(1, 4),
           case=st.sampled_from(["haar", "repeated-input", "shared-column"]))
    @settings(max_examples=60, deadline=None)
    def test_polar_factor_maps_the_frames(self, seed, dim, n, case):
        rng = np.random.default_rng(seed)
        n = min(n, dim)
        inputs = frame([random_state(dim, rng) for _ in range(n)])
        if case == "repeated-input" and n > 1:
            inputs[:, -1] = inputs[:, 0]
        rotation = haar_unitary(dim, rng)
        if case == "shared-column":
            # the identity on input 0, Haar on its orthogonal complement
            basis, _ = np.linalg.qr(np.column_stack([inputs[:, 0], rotation[:, 1:]]))
            outputs = Operator(basis[:, 1:], haar_unitary(dim - 1, rng)).apply(inputs)
            outputs[:, 0] = inputs[:, 0]
        else:
            outputs = rotation @ inputs
        u = unitary_completion(inputs, outputs)
        values = np.linalg.eigvalsh(inputs.conj().T @ inputs)
        tolerance = verification_tolerance(values[values > spectrum_floor(values)])
        assert np.max(np.linalg.norm(u.apply(inputs) - outputs, axis=0)) <= tolerance
        assert u.is_unitary()
        assert u.span_basis.shape[1] <= 2 * n
        # identity on everything orthogonal to both frames
        span, singular, _ = np.linalg.svd(np.hstack([inputs, outputs]), full_matrices=False)
        span = span[:, singular > spectrum_floor(singular)]
        vectors = rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))
        outside = vectors - span @ (span.conj().T @ vectors)
        assert np.max(np.abs(u.apply(outside) - outside)) <= 1e-12

    def test_gram_mismatch_rejected(self):
        outputs = np.column_stack([[1, 0], np.array([1, 1]) / np.sqrt(2)])
        with pytest.raises(ValueError, match="Gram"):
            unitary_completion(np.eye(2), outputs)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="one shape"):
            unitary_completion(np.eye(2)[:, :1], np.eye(3)[:, :1])

    @pytest.mark.parametrize("inputs, outputs", [
        (np.eye(3)[:, :2], np.eye(3)[:, :2] * [1.0, 1.0 + 2 * NORM_TOL]),
        (np.eye(3)[:, :2] * [1.0 - 2 * NORM_TOL, 1.0], np.eye(3)[:, :2]),
        (np.eye(3)[:, :2], np.column_stack([np.eye(3)[:, 0], [np.nan, 0.0, 0.0]])),
    ], ids=["output-column-long", "input-column-short", "nan-column"])
    def test_column_off_unit_norm_rejected(self, inputs, outputs):
        with pytest.raises(ValueError, match="not normalized"):
            unitary_completion(inputs, outputs)

    def test_column_within_the_norm_tolerance_accepted(self):
        scaled = np.eye(3)[:, :2] * [1.0, 1.0 + 0.99 * NORM_TOL]
        assert unitary_completion(scaled, scaled).is_unitary()

    @pytest.mark.parametrize("inputs, outputs", [
        (np.eye(3)[0], np.eye(3)[1]),
        (np.eye(3)[:, :2], np.eye(3)),
        (np.eye(3)[:, :0], np.eye(3)[:, :0]),
    ], ids=["one-dimensional", "different-shapes", "no-columns"])
    def test_frames_of_the_wrong_shape_rejected(self, inputs, outputs):
        with pytest.raises(ValueError, match="D x n arrays of one shape"):
            unitary_completion(inputs, outputs)


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

    @pytest.mark.parametrize("shape", [(2, 3), (0, 0), (4,)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(ValueError, match="^matrix must be a nonempty square matrix"):
            psd_check(np.ones(shape))

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
        message = "min eigenvalue -5.000000e-01, below the rounding floor"
        with pytest.raises(ValueError, match=message):
            hermitian_sqrt(np.diag([1.0, -0.5]))

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="not Hermitian: residual nan"):
            hermitian_sqrt(np.full((2, 2), np.nan))


class TestOverlapHelpers:
    def test_overlap_conjugation(self, rng):
        u, v = random_state(3, rng), random_state(3, rng)
        assert overlap(u, v) == pytest.approx(np.conj(overlap(v, u)))

    @pytest.mark.parametrize("call, message", [
        (lambda: basis_state(2, 2), "^basis index 2 outside dimension 2$"),
        (lambda: basis_state(2, -1), "^basis index -1 outside dimension 2$"),
        (lambda: overlap(basis_state(2, 0), basis_state(3, 0)),
         "^states have different dimensions: 2 vs 3$"),
        (lambda: gram([]), "^state list is empty$"),
    ], ids=["basis-above", "basis-negative", "overlap-dimensions", "gram-empty"])
    def test_argument_outside_its_domain_rejected(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    def test_fidelity_phase_insensitive(self, rng):
        u = random_state(4, rng)
        rotated = StateVector(np.exp(0.7j) * u.amplitudes)
        assert fidelity(u, rotated) == pytest.approx(1.0, abs=1e-12)


def kernel_cases(served=True):
    """(kernel, numpy.linalg's function, arguments) for real and complex n x n matrices,
    n = 1..8 and 64: an indefinite Hermitian one to eigensolve, a positive definite one to
    factor and a general one to invert, and solves with a vector and a matrix of right-hand
    sides, and with a real vector against either matrix. ``_solve`` serves only a real
    matrix with one right-hand side vector; with ``served`` False the cases are the other
    solves alone."""
    for n in [*range(1, 9), 64]:
        for kind in ("real", "complex"):
            rng = np.random.default_rng([n, kind == "complex"])

            def draw(*shape):
                values = rng.standard_normal(shape)
                return values + 1j * rng.standard_normal(shape) if kind == "complex" else values

            general = draw(n, n)
            positive = general @ general.conj().T + n * np.eye(n)
            hermitian = positive - 1.5 * n * np.eye(n)
            cases = [
                ("_eigh", np.linalg.eigh, (hermitian,)),
                ("_eigvalsh", np.linalg.eigvalsh, (hermitian,)),
                ("_cholesky", np.linalg.cholesky, (positive,)),
                ("_inv", np.linalg.inv, (general,)),
            ] if served else []
            for args in [(general, draw(n)), (general, draw(n, 3)), (positive, draw(n).real)]:
                if (kind == "real" and args[1].ndim == 1) == served:
                    cases.append(("_solve", np.linalg.solve, args))
            for name, reference, args in cases:
                shapes = "-".join("x".join(map(str, arg.shape)) for arg in args)
                yield pytest.param(name, reference, args, id=f"{name}-{kind}-{shapes}")


def arrays(result):
    """A kernel's result as a tuple of arrays: ``_eigh`` returns two, the others one."""
    return result if isinstance(result, tuple) else (result,)


def failing_cases():
    """(kernel, arguments) on which LAPACK fails: a singular system or matrix to invert, and
    an indefinite matrix to factor by Cholesky."""
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    yield pytest.param("_solve", (singular, np.ones(2)), id="solve-vector")
    yield pytest.param("_inv", (singular,), id="inv")
    yield pytest.param("_cholesky", (np.array([[1.0, 2.0], [2.0, 1.0]]),), id="cholesky")


class TestLapackKernels:
    """The kernels are numpy.linalg's gufuncs without its Python layer: numpy.linalg's
    results bit for bit, and a LAPACK failure left to the floating-point policy in force."""

    @pytest.mark.parametrize("name, reference, args", kernel_cases())
    def test_kernel_is_numpy_linalg_bit_for_bit(self, name, reference, args):
        expected = arrays(reference(*args))
        result = arrays(getattr(hilbert, name)(*args))
        assert len(result) == len(expected)
        for ours, theirs in zip(result, expected):
            assert ours.dtype == theirs.dtype and ours.shape == theirs.shape
            assert np.array_equal(ours, theirs)
            assert np.isfinite(ours).all()

    @pytest.mark.parametrize("name, reference, args", kernel_cases(served=False))
    def test_solve_refuses_the_calls_it_does_not_serve(self, name, reference, args):
        # numpy.linalg solves each; _solve raises rather than answer otherwise, as solve1
        # would for an n x 3 right-hand side at n = 3, read as three vectors
        assert np.isfinite(reference(*args)).all()
        if args[1].ndim != 1:
            error, message = ValueError, "one right-hand side vector"
        else:
            error, message = TypeError, "Cannot cast"
        with pytest.raises(error, match=message):
            getattr(hilbert, name)(*args)

    @pytest.mark.parametrize("name, args", failing_cases())
    def test_failure_raises_the_invalid_flag_and_never_returns_nan(self, name, args):
        kernel = getattr(hilbert, name)
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            kernel(*args)
        # numpy's default policy warns, which this suite turns into an error
        with pytest.raises(RuntimeWarning, match="invalid value"):
            kernel(*args)
        # only a caller that ignores the flag reads the failure: every entry NaN
        with np.errstate(invalid="ignore"):
            assert np.isnan(kernel(*args)).all()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_indefinite_residual_gives_no_dual_factor_and_no_warning(self, real):
        # I - G X G with g = 0.9 and a target overlap of 0.9 has the eigenvalue
        # 1 - 0.81 * 1.9 < 0: the Cholesky test fails, silently
        x = np.array([[1.0, 0.9], [0.9, 1.0]], dtype=float if real else complex)
        assert _dual_factor(np.eye(2), x, np.full(2, 0.9)) is None
        assert _dual_factor(np.eye(2), x, np.full(2, 0.5)) is not None

    def test_solves_read_a_nan_only_where_the_flag_is_ignored(self, monkeypatch):
        # every kernel call of these solves, certificates and checks, the barrier's
        # included: a result with a NaN, a failed call, reaches only a caller whose
        # policy ignores the invalid flag, _dual_factor's Cholesky test
        failed = []

        def checked(kernel):
            def call(*args):
                result = kernel(*args)
                if any(np.isnan(part).any() for part in arrays(result)):
                    failed.append(np.geterr()["invalid"])
                return result

            return call

        for name in ("_eigh", "_eigvalsh", "_solve", "_cholesky", "_inv"):
            patch_kernel(monkeypatch, name, checked)
        for n, seed in ((3, 0), (4, 1), (6, 2), (8, 3)):
            inputs, targets = circulant_family(n, n + 1, np.random.default_rng(seed))
            a, x = gram(inputs), gram(targets.states)
            for boundary_newton in (optimizer._boundary_newton, lambda *args: None):
                monkeypatch.setattr(optimizer, "_boundary_newton", boundary_newton)
                gammas, _ = optimizer.maximize_general(a, x)
                assert optimizer.feasible(a, x, gammas)[0]
                assert optimizer.certify(a, x, gammas)[0] <= 1e-8
        assert failed and set(failed) == {"ignore"}
