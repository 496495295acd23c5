"""Complex linear algebra for finite-dimensional pure states, and qmask's tolerance policy.

Value types (states, operators) are immutable after construction and
validated against their defining invariants. There is one pure-state
type, ``MultipartiteState``: a normalized amplitude vector with its
subsystem dimensions (one subsystem unless given); ``StateVector`` names
the same class, and ``partial_trace`` addresses a subsystem by its
index. Every operation is a pure function returning new values, so
everything here is safe to call concurrently. Gram matrices and reduced
density matrices are plain Hermitian arrays. ``Operator`` is a unitary
stored by its action on a small subspace: an orthonormal basis Q of that
subspace and the k x k matrix W it applies there, both plain arrays; it
acts through ``apply``, and a dense U is the special case Q = I.

This module also sets every numerical threshold in qmask, in three classes:

- Rounding gates ask whether a computed number is zero or non-negative up
  to rounding, against ``rounding_floor(size, scale)`` = ROUNDING_FACTOR *
  size * eps * scale, as ``numpy.linalg.matrix_rank`` does. They are the
  PSD gates (``psd_verdict``, ``hermitian_sqrt``, the build's feasibility
  gate) and the rank gates (``nonsingular_spectrum``, which gates the
  build and the optimizer's whitener, and both cuts in
  ``unitary_completion``).
- Input-precision gates ask whether a unit object a caller or a file
  supplied is unit: state norms, spectra summing to 1, unitaries,
  isometries and Hermitian inputs relative to their size. NORM_TOL covers
  them; MARGINAL_TOL is the fixed-reducing test's default. Comparisons of
  supplied states' inner products inherit it through ``precision_floor``:
  ``build_deterministic``'s orthogonality, the Gram match in
  ``unitary_completion`` and the branch weights in ``failure_branches``.
- Verification holds a map whitening a Gram matrix to VERIFY_TOL (relative
  to gamma for success probabilities), or to the rounding floor of
  cond + 1 / sqrt(gamma) when larger (``verification_tolerance``): a
  masker in ``verify_masking``, and the output frame of
  ``unitary_completion``. A masker whose tolerance exceeds VERIFY_CEILING,
  or whose inputs are singular, is not verified at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

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


def rounding_floor(size: int, scale: float = 1.0) -> float:
    """Largest magnitude a size-``size`` computation on data of ``scale`` leaves as rounding.

    Data in qmask are unit vectors, probabilities and their Gram entries, so
    ``scale`` is never taken below 1: a residual cancelling to 1e-17 came from O(1) numbers.
    """
    return ROUNDING_FACTOR * size * float(np.finfo(float).eps) * max(scale, 1.0)


def precision_floor(size: int) -> float:
    """Largest gap between length-``size`` inner products of two state families that is no real gap.

    A state unit to NORM_TOL moves an inner product by up to 2 NORM_TOL, so
    two families agree to 4 NORM_TOL, plus the rounding floor.
    """
    return 4 * NORM_TOL + rounding_floor(size)


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
    """``matrix`` as a square complex array, finite and Hermitian to NORM_TOL times max |entry|."""
    mat = square_matrix(matrix, name)
    with np.errstate(invalid="ignore"):  # inf - inf: reported by the check below
        residual = float(np.max(np.abs(mat - mat.conj().T)))
    # written so that a NaN residual (any non-finite entry) fails the check
    if not residual <= NORM_TOL * float(np.max(np.abs(mat))):
        raise ValueError(f"{name} is not Hermitian: residual {residual:.3e}")
    return mat


def unitarity_residual(matrix: np.ndarray) -> float:
    """max |U^dagger U - I| entrywise, zero exactly for a unitary (or isometric) U."""
    return float(np.max(np.abs(matrix.conj().T @ matrix - np.eye(matrix.shape[1]))))


def _check_normalized(amps: np.ndarray) -> None:
    err = abs(np.linalg.norm(amps) - 1.0)
    # written so that a NaN error fails the check
    if not err <= NORM_TOL:
        raise ValueError(f"state is not normalized: |norm - 1| = {err:.3e}")


@dataclass(frozen=True)
class MultipartiteState:
    """Normalized pure state on a tensor product of subsystems (one by default)."""

    amplitudes: np.ndarray
    dims: tuple[int, ...] | None = None

    def __post_init__(self):
        amps = _frozen_complex_vector(self.amplitudes)
        dims = (amps.size,) if self.dims is None else tuple(int(d) for d in self.dims)
        if not dims or any(d <= 0 for d in dims):
            raise ValueError(f"subsystem dimensions must be positive, got {dims}")
        if int(np.prod(dims)) != amps.size:
            raise ValueError(
                f"product of dims {dims} does not match amplitude length {amps.size}"
            )
        _check_normalized(amps)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


StateVector = MultipartiteState


@dataclass(frozen=True)
class Operator:
    """Unitary U = I - Q Q^dagger + Q W Q^dagger on dimension D.

    The k orthonormal columns of Q (``span_basis``, D x k) span the only
    subspace U moves, and W (``span_unitary``, k x k) is U written in that
    basis; U is the identity on the orthogonal complement. A dense U is
    ``Operator(np.eye(D), U)``. Storage and ``apply`` cost O(D k), the
    unitarity check O(D k^2); nothing of size D x D is formed.
    """

    span_basis: np.ndarray
    span_unitary: np.ndarray

    def __post_init__(self):
        # one memory layout, so built and reloaded maskers round identically
        basis = np.array(self.span_basis, dtype=complex, order="C")
        if basis.ndim != 2 or not 0 < basis.shape[1] <= basis.shape[0]:
            raise ValueError(f"span basis must be a D x k matrix with 0 < k <= D, got {basis.shape}")
        unitary = square_matrix(self.span_unitary, "span unitary").copy()
        if unitary.shape[0] != basis.shape[1]:
            raise ValueError(
                f"span unitary has dimension {unitary.shape[0]}, "
                f"the span basis has {basis.shape[1]} columns"
            )
        basis.setflags(write=False)
        unitary.setflags(write=False)
        object.__setattr__(self, "span_basis", basis)
        object.__setattr__(self, "span_unitary", unitary)

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

    @property
    def unitarity_residual(self) -> float:
        """The larger of max |Q^dagger Q - I| and max |W^dagger W - I|.

        Zero exactly when U is unitary, but not max |U^dagger U - I|
        itself: that can exceed W's residual by up to a factor of about k.
        """
        return max(self.isometry_residual, self.span_unitary_residual)

    def is_unitary(self) -> bool:
        # U is unitary exactly when Q is an isometry and W is unitary
        return self.isometry_residual <= NORM_TOL and self.span_unitary_residual <= NORM_TOL

    def apply(self, vectors: np.ndarray) -> np.ndarray:
        """U times ``vectors`` (one vector, or one per column) without forming U."""
        basis = self.span_basis
        coordinates = basis.conj().T @ vectors
        return vectors + basis @ (self.span_unitary @ coordinates - coordinates)


def basis_state(dim: int, index: int) -> StateVector:
    """Computational basis vector |index> in dimension ``dim``."""
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} outside dimension {dim}")
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps)


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

    Hermitian and positive semidefinite by construction (T T^dagger), with
    trace the squared norm of ``state``.
    """
    if not 0 <= keep < len(state.dims):
        raise ValueError(f"subsystem index {keep} outside a state with dims {state.dims}")
    tensor_form = state.amplitudes.reshape(state.dims)
    traced = tuple(i for i in range(tensor_form.ndim) if i != keep)
    return np.tensordot(tensor_form, tensor_form.conj(), axes=(traced, traced))


def _stack(states: Sequence[MultipartiteState]) -> np.ndarray:
    if not states:
        raise ValueError("state list is empty")
    dims = {s.amplitudes.shape[0] for s in states}
    if len(dims) != 1:
        raise ValueError(f"states have mismatched dimensions: {sorted(dims)}")
    return np.column_stack([s.amplitudes for s in states])


def gram(states: Sequence[MultipartiteState]) -> np.ndarray:
    """Hermitian Gram matrix with entries <state_i|state_j>."""
    matrix = _stack(states)
    g = matrix.conj().T @ matrix
    return (g + g.conj().T) / 2.0


def spectrum_floor(values: np.ndarray) -> float:
    """Rounding floor of the eigenvalues or singular values of one decomposition."""
    return rounding_floor(values.size, float(np.max(np.abs(values))))


def nonsingular_spectrum(gram_matrix: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Gram matrix; ValueError unless every eigenvalue clears the floor."""
    values, vectors = np.linalg.eigh(gram_matrix)
    floor = spectrum_floor(values)
    if not values[0] > floor:
        raise ValueError(f"{name} is singular: min eigenvalue {values[0]:.3e} is within the "
                         f"rounding floor {floor:.1e} of zero: the states are linearly dependent")
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


def psd_verdict(hermitian: np.ndarray) -> tuple[bool, float, float]:
    """(min eigenvalue >= -floor, min eigenvalue, floor) of an array already known Hermitian.

    The floor is ``spectrum_floor``. One eigensolve and no checks: the kernel
    of ``psd_check``, for callers that validated their matrices once.
    """
    values = np.linalg.eigvalsh(hermitian)
    floor = spectrum_floor(values)
    return bool(values[0] >= -floor), float(values[0]), floor


def psd_check(matrix) -> tuple[bool, float]:
    """Positive-semidefiniteness test: (min eigenvalue >= -floor, min eigenvalue)."""
    return psd_verdict(hermitian_matrix(matrix, "matrix"))[:2]


def hermitian_sqrt(matrix) -> np.ndarray:
    """Hermitian PSD square root S of a Hermitian PSD matrix, with S @ S = matrix.

    Eigenvalues in [-floor, 0] (``psd_verdict``'s gate) are rounding zeros; lower ones are rejected.
    """
    eigvals, eigvecs = np.linalg.eigh(hermitian_matrix(matrix, "matrix"))
    floor = spectrum_floor(eigvals)
    if not eigvals[0] >= -floor:
        raise ValueError(f"matrix has negative eigenvalue {eigvals[0]:.3e}, below -{floor:.1e}")
    root = (eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))) @ eigvecs.conj().T
    return (root + root.conj().T) / 2.0


def _completed(frame: np.ndarray) -> np.ndarray:
    """An orthonormal frame extended to a basis of its whole space."""
    q, _ = np.linalg.qr(frame, mode="complete")
    return np.hstack([frame, q[:, frame.shape[1]:]])


def unitary_completion(
    inputs: Sequence[MultipartiteState], outputs: Sequence[MultipartiteState]
) -> Operator:
    """Unitary U with U|input_i> = |output_i> for every i.

    Such a U exists exactly when the two families share their Gram matrix:
    here to within ``precision_floor`` entrywise, and to within
    ``verification_tolerance`` once whitened by the inputs' Gram matrix, so
    that U maps each input onto its output to the accuracy a masker is
    verified to. The shared Gram is eigendecomposed once and both families
    are contracted against the same eigenvector weights, which yields two
    orthonormal frames in exact correspondence even for linearly dependent
    families (eigenvalues within ``spectrum_floor`` are dropped). An SVD of
    the two frames side by side gives an orthonormal basis Q of their
    joint span, again dropping singular values within the floor. Inside
    that span, of dimension k <= 2n, each frame is completed to a basis
    and the basis change between the completions is W; outside it U is
    the identity. Nothing of size D x D is formed.
    """
    src = _stack(inputs)
    dst = _stack(outputs)
    if src.shape != dst.shape:
        raise ValueError(
            f"input and output families differ in shape: {src.shape} vs {dst.shape}"
        )
    gram_in = src.conj().T @ src
    gram_out = dst.conj().T @ dst
    mismatch = float(np.max(np.abs(gram_in - gram_out)))
    floor = precision_floor(src.shape[0])
    if not mismatch <= floor:
        raise ValueError(
            f"Gram matrices differ by {mismatch:.3e}, above the input-precision floor "
            f"{floor:.1e}; no unitary can map one family onto the other"
        )
    shared = (gram_in + gram_in.conj().T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(shared)
    kept = eigvals > spectrum_floor(eigvals)
    weights = eigvecs[:, kept] / np.sqrt(eigvals[kept])
    frame_in = src @ weights
    frame_out = dst @ weights
    # the Gram mismatch whitened: how far the output frame is from orthonormal
    drift = float(np.max(np.abs(weights.conj().T @ gram_out @ weights - np.eye(weights.shape[1]))))
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
    raw = _completed(to_span @ frame_out) @ _completed(to_span @ frame_in).conj().T
    # project onto the nearest unitary so tolerance slack in the Gram match
    # never leaks into U itself
    left, _, right = np.linalg.svd(raw)
    return Operator(basis, left @ right)
