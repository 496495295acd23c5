"""Families of bipartite states whose marginals hide the family index.

A family {|Psi_k>} on A (x) B is *fixed reducing* when every member has
the same reduced state on A and the same reduced state on B, so neither
subsystem alone reveals k. Every such family can be written as
sum_i sqrt(alpha_i) |i>_A (x) (V_k |i>_B) where the alpha_i form the
shared marginal spectrum and each V_k is a unitary preserving all
eigenspaces of the common B marginal. ``build_general_spectrum`` is that
construction; the uniform and all-distinct spectra are calls to it with
one d x d block or d one-by-one phase blocks per member, and the two
target families the masker builders rely on are uniform-spectrum calls.
``FixedReducingSet`` holds only its states: it checks them against its
first member's marginals, and the shared marginals and spectrum are read
off any member when needed. ``marginals`` is the one place a state's
pair of marginals is formed, ``masker.simulate`` included, and
``marginal_deviations`` the one place a family's marginals are compared,
for the check here, for ``masker.verify_masking`` and for the CLI.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .hilbert import (
    MARGINAL_TOL,
    NORM_TOL,
    Immutable,
    MultipartiteState,
    partial_trace,
    square_matrix,
    unitarity_residual,
)


def _unitary_matrix(matrix, dim: int, name: str) -> np.ndarray:
    mat = square_matrix(matrix, name)
    if mat.shape != (dim, dim):
        raise ValueError(f"{name} has shape {mat.shape}, expected ({dim}, {dim})")
    residual = unitarity_residual(mat)
    if not residual <= NORM_TOL:
        raise ValueError(f"{name} is not unitary: residual {residual:.3e}")
    return mat


def marginals(state: MultipartiteState) -> tuple[np.ndarray, np.ndarray]:
    """Reduced states (rho_A, rho_B) of the two subsystems of a bipartite state."""
    if len(state.dims) != 2:
        raise ValueError(f"state is not bipartite: dims {state.dims}")
    return partial_trace(state, 0), partial_trace(state, 1)


def marginal_deviations(pairs: Sequence[tuple[np.ndarray, np.ndarray]]) -> list[float]:
    """Largest entrywise gap of each (rho_A, rho_B) pair from the first pair.

    A family's first member therefore always reads 0.
    """
    ref_a, ref_b = pairs[0]
    return [
        max(float(np.abs(rho_a - ref_a).max()), float(np.abs(rho_b - ref_b).max()))
        for rho_a, rho_b in pairs
    ]


def _family_dims(states: Sequence[MultipartiteState]) -> tuple[int, int]:
    """The (d_A, d_B) shared by every member of a nonempty bipartite family."""
    if not states:
        raise ValueError("a state family needs at least one state")
    dims = states[0].dims
    for k, state in enumerate(states):
        if len(state.dims) != 2 or state.dims != dims:
            raise ValueError(
                f"state {k} has dims {state.dims}; family members must be bipartite "
                f"with the dims of state 0, {dims}"
            )
    return dims


def _state_from_b_unitary(alphas: np.ndarray, v: np.ndarray) -> MultipartiteState:
    # sum_i sqrt(alpha_i) |i>_A (x) V|i>_B has amplitude matrix diag(sqrt(alpha)) V^T
    matrix = np.sqrt(alphas)[:, None] * v.T
    return MultipartiteState(matrix.reshape(-1), (alphas.size, alphas.size))


class FixedReducingSet(Immutable):
    """Bipartite state family with index-independent marginals.

    Every member's marginals must match the first member's to within
    MARGINAL_TOL.
    """

    states: tuple[MultipartiteState, ...]

    def __init__(self, states: Sequence[MultipartiteState]):
        states = tuple(states)
        dims = _family_dims(states)
        if dims[0] != dims[1]:
            raise ValueError(f"a fixed reducing set needs equal local dimensions, got {dims}")
        deviations = marginal_deviations([marginals(state) for state in states])
        worst = int(np.argmax(deviations))
        if not deviations[worst] <= MARGINAL_TOL:
            raise ValueError(
                f"family is not fixed reducing: state {worst} deviates from the "
                f"common marginals by {deviations[worst]:.3e}"
            )
        vars(self).update(states=states)

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def dim(self) -> int:
        return self.states[0].dims[0]


def from_states(states: Sequence[MultipartiteState]) -> FixedReducingSet:
    """Wrap an already fixed-reducing family; ``FixedReducingSet`` checks it."""
    return FixedReducingSet(states)


def build_uniform_spectrum(d: int, unitaries: Sequence) -> FixedReducingSet:
    """Family (1/sqrt(d)) sum_i |i>_A (x) (V_k |i>_B) with flat spectrum.

    Any unitary V_k is admissible here because the common marginal is
    maximally mixed, so its single eigenspace is the whole of B.
    """
    if d <= 0:
        raise ValueError("dimension must be positive")
    return build_general_spectrum(np.full(d, 1.0 / d), [[v] for v in unitaries])


def build_distinct_spectrum(
    alphas: Sequence[float], phase_rows: Sequence[Sequence[float]]
) -> FixedReducingSet:
    """Family sum_i sqrt(alpha_i) e^{i phi_ki} |i>_A |i>_B for a non-degenerate spectrum.

    With all alpha_i different, the only marginal-preserving unitaries are
    diagonal phases, one row of phases per family member.
    """
    spectrum = np.array(alphas, dtype=float)
    if (spectrum <= 0).any():
        raise ValueError("alphas must all be positive")
    if (np.diff(spectrum) >= 0).any():
        raise ValueError("alphas must be strictly decreasing (all eigenvalues distinct)")
    d = spectrum.size
    blocks = []
    for k, row in enumerate(phase_rows):
        phases = np.asarray(row, dtype=float)
        if phases.shape != (d,):
            raise ValueError(f"phase_rows[{k}] has shape {phases.shape}, expected ({d},)")
        blocks.append([[[z]] for z in np.exp(1j * phases)])
    return build_general_spectrum(spectrum, blocks)


def build_general_spectrum(
    alphas: Sequence[float], block_unitaries: Sequence[Sequence]
) -> FixedReducingSet:
    """Family for an arbitrary spectrum given per-eigenspace unitary blocks.

    ``alphas`` lists the spectrum with multiplicities, sorted non-increasing;
    equal consecutive entries share one eigenspace. ``block_unitaries[k]``
    supplies one unitary block per distinct eigenvalue (block size equal to
    its multiplicity), which is exactly the family of unitaries that keep
    every eigenspace of the common marginal invariant. A flat spectrum
    reduces this to the uniform constructor and an all-distinct spectrum to
    the diagonal-phase constructor.
    """
    spectrum = np.array(alphas, dtype=float)
    if spectrum.ndim != 1 or spectrum.size == 0:
        raise ValueError("alphas must be a nonempty sequence")
    if (spectrum < 0).any():
        raise ValueError("alphas must be non-negative")
    # written so that a NaN alpha fails the check
    if not abs(float(spectrum.sum()) - 1.0) <= NORM_TOL:
        raise ValueError(f"alphas must sum to 1, got {float(spectrum.sum())!r}")
    if (np.diff(spectrum) > 0).any():
        raise ValueError("alphas must be sorted in non-increasing order")
    # the eigenspace sizes, largest eigenvalue first
    sizes = np.unique(spectrum, return_counts=True)[1][::-1].tolist()
    starts = np.cumsum([0, *sizes[:-1]])
    states = []
    for k, blocks in enumerate(block_unitaries):
        blocks = list(blocks)
        if len(blocks) != len(sizes):
            raise ValueError(
                f"block_unitaries[{k}] supplies {len(blocks)} blocks for "
                f"{len(sizes)} distinct eigenvalues of sizes {sizes}"
            )
        v = np.zeros((spectrum.size, spectrum.size), dtype=complex)
        for j, (block, size, start) in enumerate(zip(blocks, sizes, starts)):
            v[start:start + size, start:start + size] = _unitary_matrix(
                block, size, f"block_unitaries[{k}][{j}]"
            )
        states.append(_state_from_b_unitary(spectrum, v))
    return FixedReducingSet(states)


def cyclic_targets(n: int, d: int) -> FixedReducingSet:
    """n mutually orthogonal flat-spectrum states from powers of the full d-cycle.

    Member k pairs |i>_A with |(i + k) mod d>_B, so distinct members place
    their amplitudes on disjoint diagonals and the family's Gram matrix is
    the identity for every n <= d.
    """
    if not 1 <= n <= d:
        raise ValueError(f"need 1 <= n <= d, got n={n}, d={d}")
    shift = np.roll(np.eye(d), 1, axis=0)
    return build_uniform_spectrum(
        d, [np.linalg.matrix_power(shift, k) for k in range(n)]
    )


def targets_with_overlap(d: int, c: complex) -> FixedReducingSet:
    """Two flat-spectrum states with prescribed overlap <Psi_1|Psi_2> = c.

    The second member applies a diagonal phase unitary V with
    trace(V)/d = c: every phase starts at arg(c), and after the first
    phase for odd d the rest form conjugate pairs arg(c) +/- spread, with
    spread = arccos|c| for even d and arccos((d|c| - 1)/(d - 1)) for odd d.
    """
    if d < 2:
        raise ValueError("need dimension at least 2")
    c = complex(c)
    magnitude = abs(c)
    if not magnitude <= 1 + NORM_TOL:
        raise ValueError(f"|c| = {magnitude!r} exceeds 1")
    magnitude = min(magnitude, 1.0)
    arg = float(np.angle(c)) if magnitude > 0 else 0.0
    odd = d % 2
    # (d|c|) / d is not |c| bit for bit, so even d keeps its own formula
    spread = float(np.arccos((d * magnitude - 1.0) / (d - 1.0) if odd else magnitude))
    phases = np.full(d, arg)
    phases[odd::2] += spread
    phases[odd + 1::2] -= spread
    return build_uniform_spectrum(d, [np.eye(d), np.diag(np.exp(1j * phases))])
