"""Complex linear algebra for finite-dimensional pure states, and qmask's tolerance policy.

Value types (states, operators) are immutable after construction and
validated against their defining invariants. They are plain classes on
``Immutable``, which refuses every attribute assignment and deletion
after ``__init__``; unlike dataclasses they generate no code at import,
which a CLI process would pay for on every run. There is one pure-state
type, ``MultipartiteState``: a normalized amplitude vector with its
subsystem dimensions (one subsystem unless given); ``StateVector`` names
the same class, and ``partial_trace`` addresses a subsystem by its
index. Every operation is a pure function returning new values, so
everything here is safe to call concurrently. Gram matrices and reduced
density matrices are plain Hermitian arrays; a family of n states on
which ``unitary_completion`` acts is a plain D x n array, its frame.
Reductions here and across qmask are array methods and broadcasts
(``np.abs(x).max()``, ``g[:, None] * g``), as numpy's module-level
wrappers (``np.max``, ``np.outer``) add about 1.4 us of dispatch per call
on the n <= 8 arrays the solver handles, more than their arithmetic.
For the same reason every eigensolve, linear solve, Cholesky factorization
and inverse in qmask calls a LAPACK kernel here (``_eigh``, ``_eigvalsh``,
``_solve``, ``_cholesky``, ``_inv``): the gufunc numpy.linalg calls, with
the signature it passes, so results are numpy.linalg's bit for bit,
without its type resolution, result wrapping and np.errstate per call. On
one pinned core of an x86-64 Xeon, a 6 x 6 complex ``np.linalg.eigh``
takes 10.2 us against 6.7 us for its gufunc, ``eigvalsh`` 7.1 against
4.4 us, and a real 6 x 6 ``solve`` with one right-hand side 4.8 against
1.6 us. The SVD, norms and matrix powers stay on numpy.linalg: its SVD
gufuncs were renamed between numpy 1.x and 2.x.
``Operator`` is a unitary stored by its action on a small subspace: an
orthonormal basis Q of that subspace and the k x k matrix W it applies
there, both plain arrays; it acts through ``apply``, and a dense U is
the special case Q = I.

This module also sets every numerical threshold in qmask, in three classes:

- Rounding gates ask whether a computed number is zero or non-negative up
  to rounding, against ``rounding_floor(size, scale)`` = ROUNDING_FACTOR *
  size * eps * scale, as ``numpy.linalg.matrix_rank`` does. They are the
  one PSD rule ``psd_verdict``, which ``psd_check``, the optimizer and
  ``hermitian_sqrt`` (the build's feasibility gate) apply to a spectrum,
  and the rank gates (``nonsingular_spectrum``, which gates the build and
  the optimizer's whitener, and both cuts in ``unitary_completion``).
- Input-precision gates ask whether a unit object a caller or a file
  supplied is unit: the norms of states and of frame columns, spectra
  summing to 1, unitaries, isometries and Hermitian inputs relative to their
  size; ``hermitian_matrix`` passes on the Hermitian part of an input it
  accepts. NORM_TOL covers them; MARGINAL_TOL is the fixed-reducing test's
  default. Comparisons of supplied states' inner products inherit it through
  ``precision_floor``: ``build_deterministic``'s orthogonality, the Gram
  match in ``unitary_completion`` and the branch weights in
  ``failure_branches``.
- Verification holds a map whitening a Gram matrix to VERIFY_TOL (relative
  to gamma for success probabilities), or to the rounding floor of
  cond + 1 / sqrt(gamma) when larger (``verification_tolerance``): a
  masker in ``verify_masking``, and the output frame of
  ``unitary_completion``. A masker whose tolerance exceeds VERIFY_CEILING,
  or whose inputs are singular, is not verified at all.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Sequence

import numpy as np
from numpy.linalg import _umath_linalg

# bounds |norm - 1| of a supplied state, |sum - 1| of a spectrum, max |U^dagger U - I|
# of a unitary or isometry and max |M - M^dagger| / max |M| of a Hermitian matrix
NORM_TOL = 1e-10
# bounds the entrywise gap between two members' marginals in a fixed reducing family
MARGINAL_TOL = 1e-9
# bounds 1 - fidelity, marginal gaps, |p - gamma| / gamma of a verified masker
VERIFY_TOL = 1e-8
# bounds the tolerance a verification may grow to with cond(A): beyond it, a masker
# off by a percent in fidelity or success probability would pass
VERIFY_CEILING = 1e-2
# c in c * size * eps * scale: the rounding of a size-term sum or a size x size
# eigensolve, with room for the rounding of the Gram entries it starts from
ROUNDING_FACTOR = 16
_EPS = float(np.finfo(float).eps)


def rounding_floor(size: int, scale: float = 1.0) -> float:
    """Largest magnitude a size-``size`` computation on data of ``scale`` leaves as rounding.

    Data in qmask are unit vectors, probabilities and their Gram entries, so
    ``scale`` is never taken below 1: a residual cancelling to 1e-17 came from O(1) numbers.
    """
    return ROUNDING_FACTOR * size * _EPS * max(scale, 1.0)


def precision_floor(size: int) -> float:
    """Largest gap between length-``size`` inner products of two state families that is no real gap.

    A state unit to NORM_TOL moves an inner product by up to 2 NORM_TOL, so
    two families agree to 4 NORM_TOL, plus the rounding floor.
    """
    return 4 * NORM_TOL + rounding_floor(size)


# LAPACK kernels for float64 and complex128 arrays, ``_solve`` for float64 alone (the module
# docstring says why). A failed LAPACK call fills the result with NaN and raises the invalid
# flag, which numpy.linalg turns into LinAlgError through an np.errstate per call; a kernel
# leaves the flag to the floating-point policy in force, and a successful call clears every
# flag LAPACK raised.
# Two callers meet failures: ``_boundary_newton`` raises the flag and declines, and
# ``_dual_factor`` ignores it and reads the NaN. Every other call eigensolves a finite
# Hermitian matrix, solves a positive definite system or inverts a Cholesky factor.
def _complex(matrix: np.ndarray) -> bool:
    return matrix.dtype.kind == "c"


def _eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh(matrix)``: ascending eigenvalues, and eigenvectors as columns."""
    return _umath_linalg.eigh_lo(matrix, signature="D->dD" if _complex(matrix) else "d->dd")


def _eigvalsh(matrix: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvalsh(matrix)``: ascending eigenvalues."""
    return _umath_linalg.eigvalsh_lo(matrix, signature="D->d" if _complex(matrix) else "d->d")


def _solve(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``np.linalg.solve(matrix, rhs)`` for a real matrix and one real right-hand side vector.

    A complex array fails the signature's cast with a TypeError. A matrix of
    right-hand sides is a ValueError: solve1 would read its rows as a stack of
    vectors, and silently so when it is square.
    """
    if rhs.ndim != 1:
        raise ValueError(f"_solve takes one right-hand side vector, not shape {rhs.shape}")
    return _umath_linalg.solve1(matrix, rhs, signature="dd->d")


def _cholesky(matrix: np.ndarray) -> np.ndarray:
    """``np.linalg.cholesky(matrix)``: the lower triangular L with L L^dagger = matrix."""
    return _umath_linalg.cholesky_lo(matrix, signature="D->D" if _complex(matrix) else "d->d")


def _inv(matrix: np.ndarray) -> np.ndarray:
    """``np.linalg.inv(matrix)``."""
    return _umath_linalg.inv(matrix, signature="D->D" if _complex(matrix) else "d->d")


def _frozen_complex_vector(values) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("amplitudes must form a nonempty one-dimensional sequence")
    arr.setflags(write=False)
    return arr


def square_matrix(matrix, name: str) -> np.ndarray:
    """``matrix`` as a nonempty square complex array."""
    mat = np.asarray(matrix, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] == 0:
        raise ValueError(f"{name} must be a nonempty square matrix, got shape {mat.shape}")
    return mat


def hermitian_matrix(matrix, name: str) -> np.ndarray:
    """(M + M^dagger) / 2 for a square complex M, finite and Hermitian to NORM_TOL max |M|."""
    mat = square_matrix(matrix, name)
    adjoint = mat.conj().T
    with np.errstate(invalid="ignore"):  # inf - inf: reported by the check below
        residual = float(np.abs(mat - adjoint).max())
    # written so that a NaN residual (any non-finite entry) fails the check
    if not residual <= NORM_TOL * float(np.abs(mat).max()):
        raise ValueError(f"{name} is not Hermitian: residual {residual:.3e}")
    return (mat + adjoint) / 2.0


def unitarity_residual(matrix: np.ndarray) -> float:
    """max |U^dagger U - I| entrywise, zero exactly for a unitary (or isometric) U."""
    return float(np.abs(matrix.conj().T @ matrix - np.eye(matrix.shape[1])).max())


def _check_normalized(amps: np.ndarray) -> None:
    """ValueError unless ``amps``, one vector or one per column, is unit to NORM_TOL."""
    err = float(np.abs(np.linalg.norm(amps, axis=0) - 1.0).max())
    # written so that a NaN error fails the check
    if not err <= NORM_TOL:
        raise ValueError(f"state is not normalized: |norm - 1| = {err:.3e}")


class Immutable:
    """Base of qmask's value types: ``__init__`` sets the fields through ``vars(self)``,
    and assigning or deleting an attribute afterwards raises AttributeError.

    ``functools.cached_property`` writes to the instance dictionary directly, so
    cached values still work. The fields are the class annotations, which ``repr``
    lists as a dataclass's would; equality and hashing are by identity.
    """

    def _refuse(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: attribute {name!r} "
                             "cannot be assigned or deleted")

    __setattr__ = __delattr__ = _refuse

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in type(self).__annotations__)
        return f"{type(self).__name__}({fields})"


class MultipartiteState(Immutable):
    """Normalized pure state on a tensor product of subsystems (one by default)."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]

    def __init__(self, amplitudes, dims: Sequence[int] | None = None):
        amps = _frozen_complex_vector(amplitudes)
        dims = (amps.size,) if dims is None else tuple(dims)
        # int() would truncate 2.7 to 2, read "2" and take True for 1
        if not all(isinstance(d, (int, np.integer)) and not isinstance(d, bool) for d in dims):
            raise ValueError(f"subsystem dimensions must be integers, got {dims!r}")
        dims = tuple(int(d) for d in dims)
        if not dims or any(d <= 0 for d in dims):
            raise ValueError(f"subsystem dimensions must be positive, got {dims}")
        if math.prod(dims) != amps.size:
            raise ValueError(
                f"product of dims {dims} does not match amplitude length {amps.size}"
            )
        _check_normalized(amps)
        vars(self).update(amplitudes=amps, dims=dims)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


StateVector = MultipartiteState


class Operator(Immutable):
    """Unitary U = I - Q Q^dagger + Q W Q^dagger on dimension D.

    The k orthonormal columns of Q (``span_basis``, D x k) span the only
    subspace U moves, and W (``span_unitary``, k x k) is U written in that
    basis; U is the identity on the orthogonal complement. A dense U is
    ``Operator(np.eye(D), U)``. Storage and ``apply`` cost O(D k), and
    ``is_unitary`` O(D k^2): it is the one operator check, made by ``Masker``,
    and its per-factor residuals let a file error name the faulty factor.
    Nothing of size D x D is formed.
    """

    span_basis: np.ndarray
    span_unitary: np.ndarray

    def __init__(self, span_basis, span_unitary):
        # one memory layout, so built and reloaded maskers round identically
        basis = np.array(span_basis, dtype=complex, order="C")
        if basis.ndim != 2 or not 0 < basis.shape[1] <= basis.shape[0]:
            raise ValueError(f"span basis must be a D x k matrix with 0 < k <= D, got {basis.shape}")
        unitary = square_matrix(span_unitary, "span unitary").copy()
        if unitary.shape[0] != basis.shape[1]:
            raise ValueError(
                f"span unitary has dimension {unitary.shape[0]}, "
                f"the span basis has {basis.shape[1]} columns"
            )
        basis.setflags(write=False)
        unitary.setflags(write=False)
        vars(self).update(span_basis=basis, span_unitary=unitary)

    @property
    def dim(self) -> int:
        return self.span_basis.shape[0]

    @cached_property
    def isometry_residual(self) -> float:
        """max |Q^dagger Q - I| of the span basis, evaluated once per operator."""
        return unitarity_residual(self.span_basis)

    @cached_property
    def span_unitary_residual(self) -> float:
        """max |W^dagger W - I| of the span unitary, evaluated once per operator."""
        return unitarity_residual(self.span_unitary)

    def is_unitary(self) -> bool:
        # U is unitary exactly when Q is an isometry and W is unitary
        return self.isometry_residual <= NORM_TOL and self.span_unitary_residual <= NORM_TOL

    def apply(self, vectors: np.ndarray) -> np.ndarray:
        """U times ``vectors`` (one vector, or one per column) without forming U."""
        basis = self.span_basis
        coordinates = basis.conj().T @ vectors
        return vectors + basis @ (self.span_unitary @ coordinates - coordinates)


def basis_state(dim: int, index: int) -> MultipartiteState:
    """Computational basis vector |index> in dimension ``dim``."""
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} outside dimension {dim}")
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return MultipartiteState(amps)


def overlap(u: MultipartiteState, v: MultipartiteState) -> complex:
    """Inner product <u|v>."""
    if u.amplitudes.shape != v.amplitudes.shape:
        raise ValueError(f"states have different dimensions: {u.dim} vs {v.dim}")
    return complex(np.vdot(u.amplitudes, v.amplitudes))


def fidelity(u: MultipartiteState, v: MultipartiteState) -> float:
    """Squared overlap magnitude |<u|v>|^2, the phase-insensitive state match."""
    return float(abs(overlap(u, v)) ** 2)


def partial_trace(state: MultipartiteState, keep: int) -> np.ndarray:
    """Reduced density matrix of subsystem number ``keep`` (0-based).

    Hermitian and positive semidefinite by construction (T T^dagger, T the
    amplitudes with the kept axis as rows and every other axis flattened
    into columns), with trace the squared norm of ``state``.
    """
    if not 0 <= keep < len(state.dims):
        raise ValueError(f"subsystem index {keep} outside a state with dims {state.dims}")
    axes = (keep, *range(keep), *range(keep + 1, len(state.dims)))
    rows = state.amplitudes.reshape(state.dims).transpose(axes).reshape(state.dims[keep], -1)
    # np.dot rounds as np.tensordot, which calls it; @ takes another complex kernel
    return np.dot(rows, rows.conj().T)


def gram(states: Sequence[MultipartiteState]) -> np.ndarray:
    """Hermitian Gram matrix with entries <state_i|state_j>."""
    if not states:
        raise ValueError("state list is empty")
    dims = {s.amplitudes.shape[0] for s in states}
    if len(dims) != 1:
        raise ValueError(f"states have mismatched dimensions: {sorted(dims)}")
    matrix = np.column_stack([s.amplitudes for s in states])
    g = matrix.conj().T @ matrix
    return (g + g.conj().T) / 2.0


def spectrum_floor(values: np.ndarray) -> float:
    """Rounding floor of the eigenvalues or singular values of one decomposition."""
    return rounding_floor(values.size, float(np.abs(values).max()))


def nonsingular_spectrum(gram_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Gram matrix; ValueError unless every eigenvalue clears the floor."""
    values, vectors = _eigh(gram_matrix)
    floor = spectrum_floor(values)
    if not values[0] > floor:
        raise ValueError(f"inputs' Gram matrix is singular: min eigenvalue {values[0]:.3e} "
                         f"is within the rounding floor {floor:.1e} of zero: the states are "
                         f"linearly dependent")
    return values, vectors


def verification_tolerance(gram_values: np.ndarray, min_gamma: float = 1.0) -> float:
    """Tolerance for a map that whitens a Gram matrix with ascending eigenvalues ``gram_values``.

    VERIFY_TOL, or the rounding floor of cond + 1 / sqrt(min_gamma) when that
    is larger: whitening amplifies rounding by up to cond, and post-selection
    rescales a branch of norm sqrt(gamma) to a unit vector. inf when the
    Gram matrix is singular (``nonsingular_spectrum``'s gate).
    """
    if not gram_values[0] > spectrum_floor(gram_values):
        return math.inf
    cond = float(gram_values[-1] / gram_values[0])
    return max(VERIFY_TOL, rounding_floor(gram_values.size, cond + 1.0 / math.sqrt(min_gamma)))


def psd_verdict(values: np.ndarray) -> tuple[bool, float, float]:
    """(least eigenvalue >= -floor, least eigenvalue, floor) of an ascending spectrum.

    The floor is ``spectrum_floor``. qmask's one PSD rule: ``psd_check``,
    the optimizer's admissibility test and ``hermitian_sqrt`` apply it to
    the eigenvalues they computed.
    """
    floor = spectrum_floor(values)
    return bool(values[0] >= -floor), float(values[0]), floor


def psd_check(matrix) -> tuple[bool, float]:
    """Positive-semidefiniteness test: (min eigenvalue >= -floor, min eigenvalue)."""
    return psd_verdict(_eigvalsh(hermitian_matrix(matrix, "matrix")))[:2]


def hermitian_sqrt(matrix) -> np.ndarray:
    """Hermitian PSD square root S of a Hermitian PSD matrix, with S @ S = matrix.

    One eigendecomposition both decides ``psd_verdict`` and yields S:
    eigenvalues in [-floor, 0] are rounding zeros, a lower one is a
    ValueError naming it and the floor.
    """
    eigvals, eigvecs = _eigh(hermitian_matrix(matrix, "matrix"))
    ok, lowest, floor = psd_verdict(eigvals)
    if not ok:
        raise ValueError(f"matrix has min eigenvalue {lowest:.6e}, below the rounding floor "
                         f"-{floor:.1e}")
    root = (eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))) @ eigvecs.conj().T
    return (root + root.conj().T) / 2.0


def unitary_completion(inputs: np.ndarray, outputs: np.ndarray) -> Operator:
    """Unitary U with U|input_i> = |output_i> for every column i of two D x n frames.

    Every column must be unit to NORM_TOL. Such a U exists exactly when the
    two families share their Gram matrix: here to within ``precision_floor``
    entrywise, and to within ``verification_tolerance`` once whitened by the
    inputs' Gram matrix, so that U maps each input onto its output to the
    accuracy a masker is verified to. The shared Gram is eigendecomposed
    once and both families are contracted against the same eigenvector
    weights, which yields two orthonormal frames in exact correspondence
    even for linearly dependent families (eigenvalues within
    ``spectrum_floor`` are dropped). An SVD of the two frames side by side
    gives an orthonormal basis Q of their joint span, again dropping
    singular values within the floor. Inside that span, of dimension
    k <= 2n, W is the unitary polar factor of the cross-map
    (Q^dagger F_out)(Q^dagger F_in)^dagger of the two frames, from one SVD:
    the orthogonal Procrustes solution, which carries each whitened input
    onto its output and, being the unitary nearest the cross-map, keeps
    tolerance slack in the Gram match out of U. Outside the span U is the
    identity. Nothing of size D x D is formed.
    """
    src = np.asarray(inputs, dtype=complex)
    dst = np.asarray(outputs, dtype=complex)
    if src.ndim != 2 or src.size == 0 or src.shape != dst.shape:
        raise ValueError(f"input and output frames must be nonempty D x n arrays of one "
                         f"shape, got {src.shape} and {dst.shape}")
    _check_normalized(np.hstack([src, dst]))
    gram_in = src.conj().T @ src
    gram_out = dst.conj().T @ dst
    mismatch = float(np.abs(gram_in - gram_out).max())
    floor = precision_floor(src.shape[0])
    if not mismatch <= floor:
        raise ValueError(
            f"Gram matrices differ by {mismatch:.3e}, above the input-precision floor "
            f"{floor:.1e}; no unitary can map one family onto the other"
        )
    shared = (gram_in + gram_in.conj().T) / 2.0
    eigvals, eigvecs = _eigh(shared)
    kept = eigvals > spectrum_floor(eigvals)
    weights = eigvecs[:, kept] / np.sqrt(eigvals[kept])
    frame_in = src @ weights
    frame_out = dst @ weights
    # the Gram mismatch whitened: how far the output frame is from orthonormal
    drift = float(np.abs(weights.conj().T @ gram_out @ weights - np.eye(weights.shape[1])).max())
    tolerance = verification_tolerance(eigvals[kept])
    if not drift <= tolerance:
        raise ValueError(
            f"Gram matrices differ by {drift:.3e} once whitened by the inputs' Gram matrix, "
            f"above the verification tolerance {tolerance:.1e}; no unitary maps one family "
            "onto the other that accurately"
        )
    span, singular, _ = np.linalg.svd(np.hstack([frame_in, frame_out]), full_matrices=False)
    basis = span[:, singular > spectrum_floor(singular)]
    to_span = basis.conj().T
    left, _, right = np.linalg.svd((to_span @ frame_out) @ (to_span @ frame_in).conj().T)
    return Operator(basis, left @ right)
