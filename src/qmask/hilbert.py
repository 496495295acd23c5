"""Complex linear algebra for finite-dimensional pure states.

Value types (states, operators, density matrices) are immutable after
construction and validated against their defining invariants. Every
operation is a pure function returning new values, so everything here
is safe to call concurrently. Gram matrices are plain Hermitian arrays.
Operators are dense except ``FactoredUnitary``, which stores a unitary
by its action on a small subspace; both act on vectors through
``apply``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

import numpy as np

NORM_TOL = 1e-10
OP_TOL = 1e-10
RANK_TOL = 1e-10

State = Union["StateVector", "MultipartiteState"]


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


def _frozen_complex_matrix(values, name: str) -> np.ndarray:
    arr = square_matrix(values, name).copy()
    arr.setflags(write=False)
    return arr


def _check_hermitian(mat: np.ndarray, name: str) -> None:
    residual = float(np.max(np.abs(mat - mat.conj().T)))
    if residual > OP_TOL:
        raise ValueError(f"{name} is not Hermitian: residual {residual:.3e}")


def unitarity_residual(matrix: np.ndarray) -> float:
    """max |U^dagger U - I| entrywise, zero exactly for a unitary (or isometric) U."""
    return float(np.max(np.abs(matrix.conj().T @ matrix - np.eye(matrix.shape[1]))))


def _check_normalized(amps: np.ndarray) -> None:
    err = abs(np.linalg.norm(amps) - 1.0)
    if err > NORM_TOL:
        raise ValueError(f"state is not normalized: |norm - 1| = {err:.3e}")


def _default_labels(count: int) -> tuple[str, ...]:
    if count == 2:
        return ("A", "B")
    if count == 3:
        return ("A", "B", "P")
    return tuple(f"S{i}" for i in range(count))


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state as a complex amplitude vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _frozen_complex_vector(self.amplitudes)
        _check_normalized(amps)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True)
class MultipartiteState:
    """Normalized pure state on a tensor product of labeled subsystems."""

    amplitudes: np.ndarray
    dims: tuple[int, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        amps = _frozen_complex_vector(self.amplitudes)
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d <= 0 for d in dims):
            raise ValueError(f"subsystem dimensions must be positive, got {dims}")
        if int(np.prod(dims)) != amps.size:
            raise ValueError(
                f"product of dims {dims} does not match amplitude length {amps.size}"
            )
        labels = _default_labels(len(dims)) if self.labels is None else tuple(self.labels)
        if len(labels) != len(dims) or len(set(labels)) != len(labels):
            raise ValueError(f"labels {labels} must be distinct and match dims {dims}")
        _check_normalized(amps)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True)
class Operator:
    """Square complex matrix acting on a Hilbert space."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _frozen_complex_matrix(self.entries, "operator"))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def unitarity_residual(self) -> float:
        """max |U^dagger U - I| of the entries, evaluated once per operator."""
        return unitarity_residual(self.entries)

    def is_unitary(self, tol: float = OP_TOL) -> bool:
        return self.unitarity_residual <= tol

    def apply(self, vectors: np.ndarray) -> np.ndarray:
        """The operator times ``vectors`` (one vector, or one per column)."""
        return self.entries @ vectors


@dataclass(frozen=True)
class FactoredUnitary:
    """Unitary U = I - Q Q^dagger + Q W Q^dagger on dimension D.

    The k orthonormal columns of Q (``span_basis``, D x k) span the only
    subspace U moves, and W (``span_unitary``, k x k) is U written in that
    basis; U is the identity on the orthogonal complement. Storage and
    ``apply`` cost O(D k), the unitarity check O(D k^2); the dense
    ``entries`` are formed only when read.
    """

    span_basis: np.ndarray
    span_unitary: Operator

    def __post_init__(self):
        # one memory layout, so built and reloaded maskers round identically
        basis = np.array(self.span_basis, dtype=complex, order="C")
        if basis.ndim != 2 or not 0 < basis.shape[1] <= basis.shape[0]:
            raise ValueError(f"span basis must be a D x k matrix with 0 < k <= D, got {basis.shape}")
        if self.span_unitary.dim != basis.shape[1]:
            raise ValueError(
                f"span unitary has dimension {self.span_unitary.dim}, "
                f"the span basis has {basis.shape[1]} columns"
            )
        basis.setflags(write=False)
        object.__setattr__(self, "span_basis", basis)

    @property
    def dim(self) -> int:
        return self.span_basis.shape[0]

    @cached_property
    def isometry_residual(self) -> float:
        """max |Q^dagger Q - I| of the span basis, evaluated once per operator."""
        return unitarity_residual(self.span_basis)

    @property
    def unitarity_residual(self) -> float:
        """The larger of max |Q^dagger Q - I| and max |W^dagger W - I|.

        Zero exactly when U is unitary, but not max |U^dagger U - I|
        itself: that can exceed W's residual by up to a factor of about k.
        """
        return max(self.isometry_residual, self.span_unitary.unitarity_residual)

    def is_unitary(self, tol: float = OP_TOL) -> bool:
        # U is unitary exactly when Q is an isometry and W is unitary
        return self.isometry_residual <= tol and self.span_unitary.is_unitary(tol)

    def apply(self, vectors: np.ndarray) -> np.ndarray:
        """U times ``vectors`` (one vector, or one per column) without forming U."""
        basis = self.span_basis
        coordinates = basis.conj().T @ vectors
        return vectors + basis @ (self.span_unitary.entries @ coordinates - coordinates)

    @cached_property
    def entries(self) -> np.ndarray:
        """The dense D x D matrix, built on first read."""
        basis = self.span_basis
        moved = self.span_unitary.entries - np.eye(basis.shape[1])
        dense = np.eye(self.dim, dtype=complex) + basis @ moved @ basis.conj().T
        dense.setflags(write=False)
        return dense


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, trace-one, positive-semidefinite matrix."""

    entries: np.ndarray

    def __post_init__(self):
        mat = _frozen_complex_matrix(self.entries, "density operator")
        _check_hermitian(mat, "density operator")
        trace = complex(np.trace(mat))
        if abs(trace - 1.0) > OP_TOL:
            raise ValueError(f"density operator has trace {trace}, expected 1")
        lowest = float(np.linalg.eigvalsh(mat)[0])
        if lowest < -OP_TOL:
            raise ValueError(f"density operator has negative eigenvalue {lowest:.3e}")
        object.__setattr__(self, "entries", mat)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """Spectrum sorted in non-increasing order."""
        return np.linalg.eigvalsh(self.entries)[::-1]


def basis_state(dim: int, index: int) -> StateVector:
    """Computational basis vector |index> in dimension ``dim``."""
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} outside dimension {dim}")
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps)


def overlap(u: State, v: State) -> complex:
    """Inner product <u|v>."""
    if u.amplitudes.shape != v.amplitudes.shape:
        raise ValueError(f"states have different dimensions: {u.dim} vs {v.dim}")
    return complex(np.vdot(u.amplitudes, v.amplitudes))


def fidelity(u: State, v: State) -> float:
    """Squared overlap magnitude |<u|v>|^2, the phase-insensitive state match."""
    return float(abs(overlap(u, v)) ** 2)


def partial_trace(state: MultipartiteState, keep: str) -> DensityOperator:
    """Reduced density operator of the subsystem labeled ``keep``."""
    if keep not in state.labels:
        raise ValueError(f"unknown subsystem label {keep!r}; state has {state.labels}")
    axis = state.labels.index(keep)
    tensor_form = state.amplitudes.reshape(state.dims)
    traced = tuple(i for i in range(tensor_form.ndim) if i != axis)
    rho = np.tensordot(tensor_form, tensor_form.conj(), axes=(traced, traced))
    return DensityOperator(rho)


def _stack(states: Sequence[State]) -> np.ndarray:
    if not states:
        raise ValueError("state list is empty")
    dims = {s.amplitudes.shape[0] for s in states}
    if len(dims) != 1:
        raise ValueError(f"states have mismatched dimensions: {sorted(dims)}")
    return np.column_stack([s.amplitudes for s in states])


def gram(states: Sequence[State]) -> np.ndarray:
    """Hermitian Gram matrix with entries <state_i|state_j>."""
    matrix = _stack(states)
    g = matrix.conj().T @ matrix
    return (g + g.conj().T) / 2.0


def linearly_independent(states: Sequence[State], rank_tol: float = RANK_TOL) -> bool:
    """True when the family's Gram matrix has no eigenvalue at or below ``rank_tol``."""
    return float(np.linalg.eigvalsh(gram(states))[0]) > rank_tol


def psd_check(matrix, tol: float = OP_TOL) -> tuple[bool, float]:
    """Positive-semidefiniteness test: (min eigenvalue >= -tol, min eigenvalue)."""
    mat = square_matrix(matrix, "matrix")
    _check_hermitian(mat, "matrix")
    lowest = float(np.linalg.eigvalsh(mat)[0])
    return lowest >= -tol, lowest


def hermitian_sqrt(matrix, *, op_tol: float = OP_TOL) -> np.ndarray:
    """Hermitian PSD square root S of a Hermitian PSD matrix, with S @ S = matrix.

    Eigenvalues in [-op_tol, 0] are treated as numerical zeros; anything
    below -op_tol is rejected.
    """
    mat = square_matrix(matrix, "matrix")
    _check_hermitian(mat, "matrix")
    eigvals, eigvecs = np.linalg.eigh(mat)
    if float(eigvals[0]) < -op_tol:
        raise ValueError(f"matrix has negative eigenvalue {float(eigvals[0]):.3e}")
    root = (eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))) @ eigvecs.conj().T
    return (root + root.conj().T) / 2.0


def _completed(frame: np.ndarray) -> np.ndarray:
    """An orthonormal frame extended to a basis of its whole space."""
    q, _ = np.linalg.qr(frame, mode="complete")
    return np.hstack([frame, q[:, frame.shape[1]:]])


def unitary_completion(
    inputs: Sequence[State],
    outputs: Sequence[State],
    tol: float = OP_TOL,
    *,
    rank_tol: float = RANK_TOL,
) -> FactoredUnitary:
    """Unitary U with U|input_i> = |output_i> for every i.

    Such a U exists exactly when the two families share their Gram matrix.
    The shared Gram is eigendecomposed once and both families are
    contracted against the same eigenvector weights, which yields two
    orthonormal frames in exact correspondence even for linearly dependent
    families (eigenvalues at or below ``rank_tol`` are dropped). An SVD of
    the two frames side by side gives an orthonormal basis Q of their
    joint span, again dropping directions at or below ``rank_tol``. Inside
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
    if mismatch > tol:
        raise ValueError(
            f"Gram matrices differ by {mismatch:.3e} (tolerance {tol:.1e}); "
            "no unitary can map one family onto the other"
        )
    shared = (gram_in + gram_in.conj().T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(shared)
    kept = eigvals > rank_tol
    weights = eigvecs[:, kept] / np.sqrt(eigvals[kept])
    frame_in = src @ weights
    frame_out = dst @ weights
    span, singular, _ = np.linalg.svd(np.hstack([frame_in, frame_out]), full_matrices=False)
    basis = span[:, singular > rank_tol]
    to_span = basis.conj().T
    raw = _completed(to_span @ frame_out) @ _completed(to_span @ frame_in).conj().T
    # project onto the nearest unitary so tolerance slack in the Gram match
    # never leaks into U itself
    left, _, right = np.linalg.svd(raw)
    return FactoredUnitary(basis, Operator(left @ right))
