"""Builders and a post-selection simulator for quantum information maskers.

A masker hides which member of a known state family was supplied: it
unitarily spreads |a_k>_A (x) |b>_B over both subsystems so that every
output has identical marginals on A and on B. Families that are merely
linearly independent need a probe: the joint unitary sends each prepared
input to sqrt(gamma_k) |Psi_k>|P_0> plus a failure branch supported on
probe states orthogonal to |P_0>, and post-selecting the probe on |P_0>
completes the masking with per-input success probability gamma_k. The
efficiencies are admissible exactly when the residual matrix
A - sqrt(Gamma) X sqrt(Gamma) built from the input and target Gram
matrices is positive semidefinite; its normalized form fixes the Gram
matrix of the failure branches.

One ``Masker`` type and one builder cover both cases. The probe exists
only to carry failure branches, so ``build_probabilistic`` adds one only
when some gamma_k < 1. A mutually orthogonal family admits the
deterministic masker: no probe, a unitary on A (x) B alone and every
gamma_k = 1; ``build_deterministic`` checks that hypothesis and calls
``build_probabilistic`` with unit efficiencies. The failure branches are
not stored; ``failure_branches`` derives them from the unitary. A
masker's unitary is always in factored form (``hilbert.FactoredUnitary``),
so nothing here forms a D x D matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import optimizer
from .fixed_reducing import FixedReducingSet, cyclic_targets, marginal_deviations
from .hilbert import (
    NORM_TOL,
    OP_TOL,
    FactoredUnitary,
    MultipartiteState,
    StateVector,
    basis_state,
    fidelity,
    gram,
    hermitian_sqrt,
    linearly_independent,
    partial_trace,
    psd_check,
    unitary_completion,
)

# |weight - (1 - gamma)| allowed for a failure branch: the bound a unit-norm
# check on the branch rescaled by 1/sqrt(1 - gamma) gives at 1 - gamma = 1,
# held fixed so that rounding is not amplified as gamma approaches 1
FAILURE_WEIGHT_TOL = 2 * NORM_TOL
# every check verify_masking aggregates passes within this tolerance
VERIFY_TOL = 1e-8


@dataclass(frozen=True)
class Masker:
    """Unitary masking each input with efficiency gamma_k.

    The probe dimension is read off the unitary. A unitary on A (x) B
    (dimension d^2) means no probe, and every gamma_k must be 1: the
    deterministic masker. A unitary on A (x) B (x) P (dimension
    d^2 (n + 1)) means a probe whose basis state 0 carries every success
    branch and is the rank-one post-selection outcome; basis states 1..n
    carry the failure branches. A dense D x D unitary U is the factored
    form with Q = I: ``FactoredUnitary(np.eye(D), Operator(U))``.
    """

    inputs: tuple[StateVector, ...]
    ancilla: StateVector
    targets: FixedReducingSet
    gammas: np.ndarray
    unitary: FactoredUnitary

    def __post_init__(self):
        if not isinstance(self.unitary, FactoredUnitary):
            raise TypeError(
                f"masker unitary must be a FactoredUnitary, got {type(self.unitary).__name__}"
            )
        inputs = tuple(self.inputs)
        d = self.ancilla.dim
        n = len(inputs)
        if not inputs or any(a.dim != d for a in inputs):
            raise ValueError("inputs and ancilla must share one dimension")
        if self.targets.dim != d or self.targets.n != n:
            raise ValueError("targets do not match the input family")
        gammas = np.array(self.gammas, dtype=float)
        if gammas.shape != (n,) or not np.all((gammas > 0) & (gammas <= 1)):
            raise ValueError("efficiencies must be n values in (0, 1]")
        if self.unitary.dim not in (d * d, d * d * (n + 1)):
            raise ValueError(f"unitary must act on dimension {d * d} or {d * d * (n + 1)}")
        if self.unitary.dim == d * d and np.any(gammas < 1):
            raise ValueError("a masker without a probe needs unit efficiencies")
        if not self.unitary.is_unitary():
            raise ValueError("masker operator is not unitary")
        gammas.setflags(write=False)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "gammas", gammas)

    @property
    def n(self) -> int:
        return len(self.inputs)

    @property
    def dim(self) -> int:
        return self.ancilla.dim

    @property
    def probe_dim(self) -> int:
        return self.unitary.dim // (self.dim * self.dim)

    @cached_property
    def evolved(self) -> np.ndarray:
        """U applied to every prepared input at once: column k is U |a_k>|b>|P_0>."""
        prepared = np.column_stack(
            [_prepared(a, self.ancilla, self.probe_dim) for a in self.inputs]
        )
        outputs = self.unitary.apply(prepared)
        outputs.setflags(write=False)
        return outputs


@dataclass(frozen=True)
class MaskingOutcome:
    """Result of masking one input and post-selecting the probe."""

    success_probability: float
    post_selected_state: MultipartiteState
    fidelity_to_target: float
    marginal_A: np.ndarray
    marginal_B: np.ndarray


@dataclass(frozen=True)
class MaskingReport:
    """Aggregated verification of a masker over all of its inputs."""

    passed: bool
    success_probabilities: tuple[float, ...]
    fidelities: tuple[float, ...]
    max_marginal_deviation: float
    unitarity_residual: float


def _checked_inputs(inputs: Sequence[StateVector]) -> tuple[tuple[StateVector, ...], int]:
    family = tuple(inputs)
    if not family:
        raise ValueError("need at least one input state")
    dims = {a.dim for a in family}
    if len(dims) != 1:
        raise ValueError(f"inputs have mismatched dimensions: {sorted(dims)}")
    return family, family[0].dim


def _on_probe_start(vector: np.ndarray, probe_dim: int) -> np.ndarray:
    """``vector`` (x) |P_0>_P, or ``vector`` itself when there is no probe."""
    if probe_dim == 1:
        return vector
    return np.kron(vector, basis_state(probe_dim, 0).amplitudes)


def _prepared(state: StateVector, ancilla: StateVector, probe_dim: int) -> np.ndarray:
    """The prepared input |a>_A |b>_B |P_0>_P."""
    return _on_probe_start(np.kron(state.amplitudes, ancilla.amplitudes), probe_dim)


def _carried(probe_part: np.ndarray, d: int) -> np.ndarray:
    """The fixed |0>_A |0>_B product that carries every failure branch, (x) ``probe_part``."""
    return np.kron(basis_state(d * d, 0).amplitudes, probe_part)


def build_deterministic(
    inputs: Sequence[StateVector], targets: FixedReducingSet | None = None
) -> Masker:
    """Probe-free masker for a mutually orthogonal family.

    Checks that at most d inputs are mutually orthogonal and defaults the
    targets to the orthogonal cyclic family; the rest is
    ``build_probabilistic`` with every efficiency 1, whose unit-efficiency
    gate requires explicit targets to reproduce the inputs' Gram matrix
    (here the identity), the exact existence condition for the
    connecting unitary.
    """
    family, d = _checked_inputs(inputs)
    n = len(family)
    if n > d:
        raise ValueError(f"cannot mask {n} states in dimension {d}")
    g = gram(family)
    off_diagonal = g - np.diag(np.diag(g))
    worst = float(np.max(np.abs(off_diagonal))) if n > 1 else 0.0
    if worst > OP_TOL:
        raise ValueError(
            f"inputs are not mutually orthogonal: max off-diagonal Gram entry {worst:.6e}"
        )
    if targets is None:
        targets = cyclic_targets(n, d)
    return build_probabilistic(family, targets, np.ones(n))


def build_probabilistic(
    inputs: Sequence[StateVector], targets: FixedReducingSet, gammas: Sequence[float]
) -> Masker:
    """Masker for a linearly independent family with efficiencies ``gammas``.

    Writes A = gram(inputs) and X = gram(targets) and requires the
    residual M = A - sqrt(Gamma) X sqrt(Gamma) to be positive
    semidefinite. The failure branches are built on one fixed product
    state of A (x) B spread over the n orthogonal failure probe states
    with coefficient matrix equal to the Hermitian square root of the
    normalized residual Y = (I-Gamma)^{-1/2} M (I-Gamma)^{-1/2}, which
    gives the evolved outputs the same Gram matrix as the prepared inputs
    and hence a connecting unitary. An efficiency of exactly 1 is allowed
    only where the corresponding residual row already vanishes, since the
    failure normalization is singular there; such an input gets no
    failure branch. With every efficiency 1 the gate is the Gram match
    A = X and there is no probe: the deterministic masker. The ancilla
    on B starts in |0>.
    """
    family, d = _checked_inputs(inputs)
    n = len(family)
    if targets.n != n or targets.dim != d:
        raise ValueError("targets do not match the input family's size and dimension")
    efficiencies = np.asarray(gammas, dtype=float).reshape(-1)
    if efficiencies.shape != (n,):
        raise ValueError(f"need {n} efficiencies, got {efficiencies.shape}")
    if not np.all((efficiencies > 0) & (efficiencies <= 1)):
        raise ValueError("efficiencies must lie in (0, 1]")
    if not linearly_independent(family):
        raise ValueError("inputs are linearly dependent; no probabilistic masker exists")
    ancilla = basis_state(d, 0)

    a = gram(family)
    x = gram(targets.states)
    residual = optimizer.residual_matrix(a, x, efficiencies)
    saturated = efficiencies >= 1.0
    for i in np.flatnonzero(saturated):
        row = float(np.max(np.abs(residual[i, :])))
        if row > OP_TOL:
            raise ValueError(
                f"efficiency {i} equals 1 but row {i} of the residual has magnitude "
                f"{row:.3e}: the targets' Gram matrix deviates from the inputs' there"
            )
    ok, lowest = psd_check(residual)
    if not ok:
        raise ValueError(
            f"infeasible efficiencies: residual matrix has min eigenvalue {lowest:.6e}"
        )

    scale = np.zeros(n)
    free = ~saturated
    scale[free] = 1.0 / np.sqrt(1.0 - efficiencies[free])
    normalized = np.outer(scale, scale) * residual
    np.fill_diagonal(normalized, 1.0)
    # the congruence scaling can amplify the tolerated negative dust in M
    sqrt_tol = OP_TOL * (1.0 + float(np.max(scale)) ** 2)
    coefficients = hermitian_sqrt(np.conj(normalized), op_tol=sqrt_tol)
    # clipping that dust shortens the rows, most near the admissible boundary
    norms = np.linalg.norm(coefficients, axis=1)
    worst = int(np.argmax(np.abs(norms - 1.0)))
    if abs(norms[worst] - 1.0) > sqrt_tol:
        raise ValueError(
            f"efficiency {worst}: failure coefficients miss unit norm by "
            f"{abs(norms[worst] - 1.0):.3e}; residual matrix has min eigenvalue {lowest:.6e}"
        )
    coefficients = coefficients / norms[:, None]

    # the probe only carries failure branches
    probe_dim = n + 1 if np.any(free) else 1
    dims = (d, d, probe_dim)
    prepared = []
    outputs = []
    for i in range(n):
        prepared.append(MultipartiteState(_prepared(family[i], ancilla, probe_dim), dims))
        amplitude = np.sqrt(efficiencies[i]) * _on_probe_start(
            targets.states[i].amplitudes, probe_dim
        )
        if free[i]:
            probe_part = np.zeros(probe_dim, dtype=complex)
            probe_part[1:] = coefficients[i, :]
            # as a state, the failure branch is checked to be normalized
            failure = MultipartiteState(_carried(probe_part, d), dims)
            amplitude = amplitude + np.sqrt(1.0 - efficiencies[i]) * failure.amplitudes
        outputs.append(MultipartiteState(amplitude, dims))

    unitary = unitary_completion(prepared, outputs)
    return Masker(family, ancilla, targets, efficiencies, unitary)


def failure_branches(masker: Masker) -> tuple[MultipartiteState, ...]:
    """Normalized failure components of each evolved input, derived from the unitary.

    The failure component of input k is the evolved input minus its success
    branch sqrt(gamma_k) |Psi_k>|P_0>; its squared norm must equal
    1 - gamma_k to within FAILURE_WEIGHT_TOL, else ValueError names the
    input and the gap. A masker without a probe has no failure branches.
    Inputs with gamma = 1 have none either; an arbitrary placeholder on the
    matching failure probe state is returned for them.
    """
    d, probe_dim = masker.dim, masker.probe_dim
    if probe_dim == 1:
        return ()
    branches = []
    for k, gamma in enumerate(masker.gammas):
        branch = masker.evolved[:, k] - np.sqrt(gamma) * _on_probe_start(
            masker.targets.states[k].amplitudes, probe_dim
        )
        weight = float(np.vdot(branch, branch).real)
        gap = abs(weight - (1.0 - gamma))
        if gap > FAILURE_WEIGHT_TOL:
            raise ValueError(
                f"input {k}: failure branch weight {weight:.6e} differs from "
                f"1 - gamma = {1.0 - gamma:.6e} by {gap:.3e}"
            )
        if gamma >= 1.0:
            branch = _carried(basis_state(probe_dim, k + 1).amplitudes, d)
        else:
            branch = branch / np.sqrt(weight)
        branches.append(MultipartiteState(branch, (d, d, probe_dim)))
    return tuple(branches)


def simulate(masker: Masker, k: int) -> MaskingOutcome:
    """Mask input k and post-select the probe on the success outcome.

    The success probability is the squared norm of the projected branch,
    gamma_k (1 for a masker without a probe).
    """
    n = len(masker.inputs)
    if not 0 <= k < n:
        raise IndexError(f"state index {k} outside range 0..{n - 1}")
    d = masker.dim
    # probe basis index 0 is the rank-one success outcome
    branch = masker.evolved[:, k].reshape(d * d, masker.probe_dim)[:, 0]
    probability = float(np.vdot(branch, branch).real)
    post_selected = MultipartiteState(branch / np.sqrt(probability), (d, d))
    return MaskingOutcome(
        success_probability=probability,
        post_selected_state=post_selected,
        fidelity_to_target=fidelity(post_selected, masker.targets.states[k]),
        marginal_A=partial_trace(post_selected, 0),
        marginal_B=partial_trace(post_selected, 1),
    )


def verify_masking(masker: Masker) -> MaskingReport:
    """Simulate every input and aggregate the masking checks.

    Passes when all success probabilities match their efficiencies
    gamma_k, every post-selected state reaches its target up to
    1 - VERIFY_TOL in fidelity, the marginals agree across inputs
    entrywise, and the stored operator is unitary, all within VERIFY_TOL.
    """
    outcomes = [simulate(masker, k) for k in range(len(masker.inputs))]
    expected = tuple(float(g) for g in masker.gammas)
    probabilities = tuple(o.success_probability for o in outcomes)
    fidelities = tuple(o.fidelity_to_target for o in outcomes)
    marginal_deviation = max(
        marginal_deviations([(o.marginal_A, o.marginal_B) for o in outcomes])
    )
    unitarity = masker.unitary.unitarity_residual
    passed = (
        marginal_deviation <= VERIFY_TOL
        and max(abs(p - e) for p, e in zip(probabilities, expected)) <= VERIFY_TOL
        and max(1.0 - f for f in fidelities) <= VERIFY_TOL
        and unitarity <= VERIFY_TOL
    )
    return MaskingReport(
        passed=passed,
        success_probabilities=probabilities,
        fidelities=fidelities,
        max_marginal_deviation=marginal_deviation,
        unitarity_residual=unitarity,
    )
