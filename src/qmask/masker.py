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
matrices is positive semidefinite; it is the failure branches' Gram matrix.

One ``Masker`` type and one builder cover both cases. The probe exists
only to carry failure branches, so ``build_probabilistic`` adds one only
when some gamma_k < 1. A mutually orthogonal family admits the
deterministic masker: no probe, a unitary on A (x) B alone and every
gamma_k = 1; ``build_deterministic`` checks that hypothesis and calls
``build_probabilistic`` with unit efficiencies. The failure branches are
not stored; ``failure_branches`` derives them from the unitary. A
masker's unitary is a ``hilbert.Operator`` stored in factored form, so
nothing here forms a D x D matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import optimizer
from .fixed_reducing import FixedReducingSet, cyclic_targets, marginal_deviations, marginals
from .hilbert import VERIFY_CEILING, MultipartiteState, Operator, StateVector
from .hilbert import basis_state, fidelity, gram, hermitian_sqrt, nonsingular_spectrum
from .hilbert import precision_floor, psd_verdict, rounding_floor
from .hilbert import unitary_completion, verification_tolerance


@dataclass(frozen=True)
class Masker:
    """Unitary masking each input with efficiency gamma_k.

    The probe dimension is read off the unitary. A unitary on A (x) B
    (dimension d^2) means no probe, and every gamma_k must be 1: the
    deterministic masker. A unitary on A (x) B (x) P (dimension
    d^2 (n + 1)) means a probe whose basis state 0 carries every success
    branch and is the rank-one post-selection outcome; basis states 1..n
    carry the failure branches. A dense D x D unitary U is the factored
    form with Q = I: ``Operator(np.eye(D), U)``.
    """

    inputs: tuple[StateVector, ...]
    ancilla: StateVector
    targets: FixedReducingSet
    gammas: np.ndarray
    unitary: Operator

    def __post_init__(self):
        if not isinstance(self.unitary, Operator):
            raise TypeError(f"Masker.unitary is a {type(self.unitary).__name__}, not an Operator")
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
    """Aggregated verification of a masker over all of its inputs, with the tolerance applied."""

    passed: bool
    success_probabilities: tuple[float, ...]
    fidelities: tuple[float, ...]
    max_marginal_deviation: float
    unitarity_residual: float
    tolerance: float


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
    family = tuple(inputs)
    g = gram(family)
    n, d = len(family), family[0].dim
    if n > d:
        raise ValueError(f"cannot mask {n} states in dimension {d}")
    worst = float(np.max(np.abs(g - np.diag(np.diag(g)))))
    floor = precision_floor(d)
    if not worst <= floor:
        raise ValueError(f"inputs are not mutually orthogonal: max off-diagonal Gram entry "
                         f"{worst:.6e} is above the input-precision floor {floor:.1e}")
    if targets is None:
        targets = cyclic_targets(n, d)
    return build_probabilistic(family, targets, np.ones(n))


def build_probabilistic(
    inputs: Sequence[StateVector], targets: FixedReducingSet, gammas: Sequence[float]
) -> Masker:
    """Masker for a linearly independent family with efficiencies ``gammas``.

    Writes A = gram(inputs) and X = gram(targets) and requires the
    residual M = A - sqrt(Gamma) X sqrt(Gamma) to be positive
    semidefinite up to rounding (``hilbert.psd_verdict``). The failure
    branches sit on one fixed product state of A (x) B spread over the n
    failure probe states, with the rows of the Hermitian square root of
    conj(M) as coefficients: their Gram matrix is M, so the outputs share
    the prepared inputs' Gram matrix and a connecting unitary exists. An
    input with efficiency 1 gets the branch of weight M_kk, zero up to
    rounding and input precision. With every efficiency 1 there is no
    probe, the deterministic masker, and the gate is the Gram match A = X
    of ``unitary_completion``. Inputs so ill-conditioned that
    ``verify_masking``'s tolerance for them would exceed VERIFY_CEILING
    are rejected before any of that work: no masker of theirs could pass.
    The ancilla on B starts in |0>. Each rejection names its gate, the
    margin and the floor it was compared with.
    """
    family = tuple(inputs)
    a = gram(family)
    n, d = len(family), family[0].dim
    if targets.n != n or targets.dim != d:
        raise ValueError("targets do not match the input family's size and dimension")
    efficiencies = np.asarray(gammas, dtype=float).reshape(-1)
    if efficiencies.shape != (n,):
        raise ValueError(f"need {n} efficiencies, got {efficiencies.shape}")
    # a success branch of norm within rounding of zero carries no post-selected state
    if not np.all((efficiencies > rounding_floor(n)) & (efficiencies <= 1)):
        raise ValueError(f"efficiencies must lie in (0, 1], above the rounding floor "
                         f"{rounding_floor(n):.1e}, got {efficiencies.tolist()}")
    values, _ = nonsingular_spectrum(a, "inputs' Gram matrix")
    tolerance = verification_tolerance(values, float(np.min(efficiencies)))
    if not tolerance <= VERIFY_CEILING:
        raise ValueError(f"inputs' Gram matrix has condition number {values[-1] / values[0]:.3e}: "
                         f"a masker could be verified only to {tolerance:.3e}, above the "
                         f"ceiling {VERIFY_CEILING:.0e}")
    ancilla = basis_state(d, 0)

    # the probe only carries failure branches
    probe_dim = n + 1 if np.any(efficiencies < 1.0) else 1
    if probe_dim > 1:
        residual = optimizer.residual_matrix(a, gram(targets.states), efficiencies)
        ok, lowest, floor = psd_verdict(residual)
        if not ok:
            raise ValueError(f"infeasible efficiencies: residual matrix has min eigenvalue "
                             f"{lowest:.6e}, below the rounding floor -{floor:.1e}")
        coefficients = hermitian_sqrt(np.conj(residual))
        # clipping eigenvalues in [-floor, 0] moves a branch weight M_ii by at most the floor
        misses = np.abs(np.sum(np.abs(coefficients) ** 2, axis=1) - np.diagonal(residual).real)
        worst = int(np.argmax(misses))
        if not misses[worst] <= floor:
            raise ValueError(f"efficiency {worst}: failure branch weight misses M_ii by "
                             f"{misses[worst]:.3e}, above the rounding floor {floor:.1e}; "
                             f"residual matrix has min eigenvalue {lowest:.6e}")

    dims = (d, d, probe_dim)
    prepared = []
    outputs = []
    for i in range(n):
        prepared.append(MultipartiteState(_prepared(family[i], ancilla, probe_dim), dims))
        amplitude = np.sqrt(efficiencies[i]) * _on_probe_start(
            targets.states[i].amplitudes, probe_dim
        )
        if probe_dim > 1:
            probe_part = np.zeros(probe_dim, dtype=complex)
            probe_part[1:] = coefficients[i, :]
            amplitude = amplitude + _carried(probe_part, d)
        outputs.append(MultipartiteState(amplitude, dims))

    unitary = unitary_completion(prepared, outputs)
    return Masker(family, ancilla, targets, efficiencies, unitary)


def failure_branches(masker: Masker) -> tuple[MultipartiteState, ...]:
    """Normalized failure components of each evolved input, derived from the unitary.

    The failure component of input k is the evolved input minus its success
    branch sqrt(gamma_k) |Psi_k>|P_0>; its squared norm must equal
    1 - gamma_k, and that of the evolved input's probe-0 slice, the branch
    ``simulate`` post-selects, gamma_k, each to within
    ``hilbert.precision_floor``, what an input and a target unit to NORM_TOL
    allow, else ValueError names the input and the gap. A masker without a
    probe has no failure branches.
    Inputs with gamma = 1 have none either (a weight within that floor of
    zero); an arbitrary placeholder on the matching failure probe state is
    returned for them.
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
        # the failure weight alone misses a gamma edited towards 0: its gap
        # 2 sqrt(gamma') |sqrt(gamma') - sqrt(gamma)| vanishes with gamma'
        success = masker.evolved[:, k].reshape(d * d, probe_dim)[:, 0]
        floor = precision_floor(branch.size)
        for name, value, reference, expected in (
            ("failure branch weight", weight, "1 - gamma", 1.0 - gamma),
            ("success weight", float(np.vdot(success, success).real), "gamma", gamma),
        ):
            gap = abs(value - expected)
            if not gap <= floor:
                raise ValueError(
                    f"input {k}: {name} {value:.6e} differs from {reference} = "
                    f"{expected:.6e} by {gap:.3e}, above the input-precision floor {floor:.1e}"
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
    marginal_a, marginal_b = marginals(post_selected)
    return MaskingOutcome(
        success_probability=probability,
        post_selected_state=post_selected,
        fidelity_to_target=fidelity(post_selected, masker.targets.states[k]),
        marginal_A=marginal_a,
        marginal_B=marginal_b,
    )


def verify_masking(masker: Masker) -> MaskingReport:
    """Simulate every input and aggregate the masking checks.

    With tol = ``hilbert.verification_tolerance`` of the inputs' Gram
    spectrum and min gamma, passes when tol is at most VERIFY_CEILING
    (so never for linearly dependent inputs, where tol is inf), every
    |p_k - gamma_k| <= tol gamma_k, every fidelity to the target is at
    least 1 - tol, and the marginals (entrywise across inputs) and the
    stored operator's unitarity residual are within tol.
    """
    outcomes = [simulate(masker, k) for k in range(len(masker.inputs))]
    expected = tuple(float(g) for g in masker.gammas)
    probabilities = tuple(o.success_probability for o in outcomes)
    fidelities = tuple(o.fidelity_to_target for o in outcomes)
    marginal_deviation = max(
        marginal_deviations([(o.marginal_A, o.marginal_B) for o in outcomes])
    )
    unitarity = masker.unitary.unitarity_residual
    tol = verification_tolerance(np.linalg.eigvalsh(gram(masker.inputs)), min(masker.gammas))
    passed = (
        tol <= VERIFY_CEILING
        and marginal_deviation <= tol
        and all(abs(p - e) <= tol * e for p, e in zip(probabilities, expected))
        and max(1.0 - f for f in fidelities) <= tol
        and unitarity <= tol
    )
    return MaskingReport(
        passed=passed,
        success_probabilities=probabilities,
        fidelities=fidelities,
        max_marginal_deviation=marginal_deviation,
        unitarity_residual=unitarity,
        tolerance=tol,
    )
