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
Post-selection reads one bit, so the builder's probe has two states
whatever n: |P_0> carries every success branch and |P_1> every failure
branch, failure branch k spread over the first n basis states of
A (x) B (n <= d <= d^2), and D = 2 d^2.

One ``Masker`` type and one builder cover both cases. The probe exists
only to carry failure branches, so ``build_probabilistic`` adds one only
when some gamma_k < 1. A mutually orthogonal family admits the
deterministic masker: no probe, a unitary on A (x) B alone and every
gamma_k = 1; ``build_deterministic`` checks that hypothesis and calls
``build_probabilistic`` with unit efficiencies. The ancilla on B always
starts in |0>, the paper's fixed blank state |b>. Prepared inputs,
success and failure branches are D x n frames, one column per input.
``failure_branches`` derives the failure frame F from the unitary:
A = sqrt(Gamma) X sqrt(Gamma) + F^dagger F.
The unitary is a ``hilbert.Operator`` in factored form, so nothing here
forms a D x D matrix. ``Masker`` is an immutable value type
(``hilbert.Immutable``) that checks its fields in ``__init__``;
``MaskingOutcome`` and ``MaskingReport`` are named tuples, so two reports
compare equal field by field.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from . import optimizer
from .fixed_reducing import FixedReducingSet, cyclic_targets, marginal_deviations, marginals
from .hilbert import VERIFY_CEILING, Immutable, MultipartiteState, Operator
from .hilbert import fidelity, gram, hermitian_sqrt, nonsingular_spectrum
from .hilbert import precision_floor, rounding_floor
from .hilbert import unitary_completion, verification_tolerance


class Masker(Immutable):
    """Unitary masking each input, a state on A alone, with efficiency gamma_k.

    The ancilla on B starts in |0>. The probe dimension p is read off the
    unitary, of dimension d^2 p. With p = 1 there is no probe, and every
    gamma_k must be 1: the deterministic masker. With p >= 2 the probe's
    basis state 0 carries every success branch and is the rank-one
    post-selection outcome; the other p - 1 states carry the failure
    branches. The builder uses p = 2; any p >= 2 is accepted, so files
    written with the n + 1 probe states of earlier versions still load. A
    dense D x D unitary U is the factored form with Q = I:
    ``Operator(np.eye(D), U)``.
    """

    inputs: tuple[MultipartiteState, ...]
    targets: FixedReducingSet
    gammas: np.ndarray
    unitary: Operator

    def __init__(self, inputs: Sequence[MultipartiteState], targets: FixedReducingSet,
                 gammas, unitary: Operator):
        if not isinstance(unitary, Operator):
            raise TypeError(f"Masker.unitary is a {type(unitary).__name__}, not an Operator")
        inputs = tuple(inputs)
        if not inputs or any(a.dims != (inputs[0].dim,) for a in inputs):
            raise ValueError("inputs must be nonempty and share one subsystem of one dimension")
        d, n = inputs[0].dim, len(inputs)
        if targets.dim != d or targets.n != n:
            raise ValueError("targets do not match the input family")
        gammas = np.array(gammas, dtype=float)
        if gammas.shape != (n,) or not ((gammas > 0) & (gammas <= 1)).all():
            raise ValueError("efficiencies must be n values in (0, 1]")
        if unitary.dim % (d * d):
            raise ValueError(f"unitary dimension {unitary.dim} is not a multiple of {d * d}")
        if unitary.dim == d * d and (gammas < 1).any():
            raise ValueError("a masker without a probe needs unit efficiencies")
        if not unitary.is_unitary():
            raise ValueError("masker operator is not unitary")
        gammas.setflags(write=False)
        vars(self).update(inputs=inputs, targets=targets, gammas=gammas, unitary=unitary)

    @property
    def n(self) -> int:
        return len(self.inputs)

    @property
    def dim(self) -> int:
        return self.inputs[0].dim

    @property
    def probe_dim(self) -> int:
        return self.unitary.dim // (self.dim * self.dim)

    @cached_property
    def evolved(self) -> np.ndarray:
        """U applied to every prepared input at once: column k is U |a_k>|0>|P_0>."""
        outputs = self.unitary.apply(_prepared(self.inputs, self.probe_dim))
        outputs.setflags(write=False)
        return outputs


class MaskingOutcome(NamedTuple):
    """Result of masking one input and post-selecting the probe."""

    success_probability: float
    post_selected_state: MultipartiteState
    fidelity_to_target: float
    marginal_A: np.ndarray
    marginal_B: np.ndarray


class MaskingReport(NamedTuple):
    """What verification judges over all of a masker's inputs, the tolerance and the verdict."""

    passed: bool
    success_probabilities: tuple[float, ...]
    fidelities: tuple[float, ...]
    max_marginal_deviation: float
    tolerance: float


def _prepared(inputs: Sequence[MultipartiteState], probe_dim: int) -> np.ndarray:
    """The D x n frame of prepared inputs |a_k>_A |0>_B |P_0>_P."""
    states = np.column_stack([a.amplitudes for a in inputs])
    d = states.shape[0]
    frame = np.zeros((d * d * probe_dim, states.shape[1]), dtype=complex)
    # row i d P is |i>_A |0>_B |P_0>
    frame[::d * probe_dim] = states
    return frame


def _successes(targets: FixedReducingSet, gammas: np.ndarray, probe_dim: int) -> np.ndarray:
    """The D x n frame of success branches sqrt(gamma_k) |Psi_k>|P_0>."""
    states = np.column_stack([t.amplitudes for t in targets.states])
    frame = np.zeros((states.shape[0] * probe_dim, states.shape[1]), dtype=complex)
    # row j P is |j>_AB |P_0>
    frame[::probe_dim] = states
    return np.sqrt(gammas) * frame


def build_deterministic(inputs: Sequence[MultipartiteState]) -> Masker:
    """Probe-free masker of a mutually orthogonal family into ``cyclic_targets(n, d)``.

    Checks that at most d inputs are mutually orthogonal; the rest is
    ``build_probabilistic`` with every efficiency 1, whose gate, the Gram
    match A = X in ``unitary_completion``, holds as both Gram matrices are
    the identity. Other targets: ``build_probabilistic(inputs, targets, np.ones(n))``.
    """
    family = tuple(inputs)
    g = gram(family)
    n, d = len(family), family[0].dim
    if n > d:
        raise ValueError(f"cannot mask {n} states in dimension {d}")
    worst = float(np.abs(g - np.diag(g.diagonal())).max())
    floor = precision_floor(d)
    if not worst <= floor:
        raise ValueError(f"inputs are not mutually orthogonal: max off-diagonal Gram entry "
                         f"{worst:.6e} is above the input-precision floor {floor:.1e}")
    return build_probabilistic(family, cyclic_targets(n, d), np.ones(n))


def build_probabilistic(
    inputs: Sequence[MultipartiteState], targets: FixedReducingSet, gammas: Sequence[float]
) -> Masker:
    """Masker for a linearly independent family with efficiencies ``gammas``.

    Writes A = gram(inputs) and X = gram(targets). The failure branches
    sit on the failure probe state |P_1>, over the first n basis states
    of A (x) B: the failure block is F = sqrt(M), the Hermitian square
    root of M = A - sqrt(Gamma) X sqrt(Gamma), whose column k holds input
    k's coefficients. F^dagger F = M is the matching equation
    A = sqrt(Gamma) X sqrt(Gamma) + F^dagger F, so the outputs share the
    prepared inputs' Gram matrix and a connecting unitary exists. That root
    is the only feasibility gate: ``hermitian_sqrt`` rejects an M with an
    eigenvalue below the rounding floor (``hilbert.psd_verdict``) as
    infeasible efficiencies, and a root whose columns miss the branch
    weights leaves outputs that
    ``unitary_completion``'s column-norm and Gram gates reject. An
    input with efficiency 1 gets the branch of weight M_kk, zero up to
    rounding and input precision. With every efficiency 1 there is no
    probe, the deterministic masker, and the gate is the Gram match A = X
    of ``unitary_completion``. Inputs so ill-conditioned that
    ``verify_masking``'s tolerance for them would exceed VERIFY_CEILING
    are rejected before any of that work: no masker of theirs could pass.
    Each rejection names its gate, the margin and the floor it was held to.
    """
    family = tuple(inputs)
    a = gram(family)
    n, d = len(family), family[0].dim
    if targets.n != n or targets.dim != d:
        raise ValueError("targets do not match the input family's size and dimension")
    efficiencies = np.asarray(gammas, dtype=float).reshape(-1)
    if efficiencies.size != n:
        raise ValueError(f"need {n} efficiencies, got {efficiencies.size}")
    # a success branch of norm within rounding of zero carries no post-selected state
    if not ((efficiencies > rounding_floor(n)) & (efficiencies <= 1)).all():
        raise ValueError(f"efficiencies must lie in (0, 1], above the rounding floor "
                         f"{rounding_floor(n):.1e}, got {efficiencies.tolist()}")
    # the probe only carries failure branches, and only they need the residual
    probe_dim = 2 if (efficiencies < 1.0).any() else 1
    values, _ = nonsingular_spectrum(a)
    tolerance = verification_tolerance(values, float(efficiencies.min()))
    if not tolerance <= VERIFY_CEILING:
        raise ValueError(f"inputs' Gram matrix has condition number {values[-1] / values[0]:.3e}: "
                         f"a masker could be verified only to {tolerance:.3e}, above the "
                         f"ceiling {VERIFY_CEILING:.0e}")

    outputs = _successes(targets, efficiencies, probe_dim)
    if probe_dim > 1:
        residual = optimizer.residual_matrix(a, gram(targets.states), efficiencies)
        try:
            failures = hermitian_sqrt(residual)
        except ValueError as exc:
            raise ValueError(f"infeasible efficiencies: residual {exc}") from exc
        # failure block row i on |i>_AB |P_1>, row 2i + 1; its n <= d rows fit in d^2
        outputs[1:2 * n:2] += failures

    unitary = unitary_completion(_prepared(family, probe_dim), outputs)
    return Masker(family, targets, efficiencies, unitary)


def failure_branches(masker: Masker) -> np.ndarray:
    """The D x n frame F of failure branches, derived from the unitary.

    Column k is the evolved input minus its success branch
    sqrt(gamma_k) |Psi_k>|P_0>, so F^dagger F is the residual matrix M.
    Its squared norm must equal 1 - gamma_k, and that of the evolved
    input's probe-0 slice, the branch ``simulate`` post-selects, gamma_k,
    each to within ``hilbert.precision_floor``, what an input and a
    target unit to NORM_TOL allow, else ValueError names the first input
    off and the gap. A masker without a probe has none: a D x 0 frame.
    """
    d, n, probe_dim = masker.dim, masker.n, masker.probe_dim
    if probe_dim == 1:
        return np.zeros((masker.unitary.dim, 0), dtype=complex)
    branches = masker.evolved - _successes(masker.targets, masker.gammas, probe_dim)
    # the failure weight alone misses a gamma edited towards 0: its gap
    # 2 sqrt(gamma') |sqrt(gamma') - sqrt(gamma)| vanishes with gamma'
    successes = masker.evolved.reshape(d * d, probe_dim, n)[:, 0, :]
    checks = (
        ("failure branch weight", (np.abs(branches) ** 2).sum(axis=0), "1 - gamma",
         1.0 - masker.gammas),
        ("success weight", (np.abs(successes) ** 2).sum(axis=0), "gamma", masker.gammas),
    )
    floor = precision_floor(branches.shape[0])
    # written so that a NaN gap counts as off
    off = ~np.array([np.abs(value - expected) <= floor for _, value, _, expected in checks])
    if off.any():
        k = int(off.any(axis=0).argmax())
        name, value, reference, expected = checks[int(np.argmax(off[:, k]))]
        raise ValueError(
            f"input {k}: {name} {value[k]:.6e} differs from {reference} = {expected[k]:.6e} "
            f"by {abs(value[k] - expected[k]):.3e}, above the input-precision floor {floor:.1e}"
        )
    return branches


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
    least 1 - tol, and the marginals (entrywise across inputs) are within
    tol. The operator is neither gated nor reported here: every ``Masker``
    holds it unitary to NORM_TOL, below any tol.
    """
    outcomes = [simulate(masker, k) for k in range(len(masker.inputs))]
    expected = tuple(float(g) for g in masker.gammas)
    probabilities = tuple(o.success_probability for o in outcomes)
    fidelities = tuple(o.fidelity_to_target for o in outcomes)
    marginal_deviation = max(
        marginal_deviations([(o.marginal_A, o.marginal_B) for o in outcomes])
    )
    tol = verification_tolerance(np.linalg.eigvalsh(gram(masker.inputs)), min(masker.gammas))
    passed = (
        tol <= VERIFY_CEILING
        and marginal_deviation <= tol
        and all(abs(p - e) <= tol * e for p, e in zip(probabilities, expected))
        and max(1.0 - f for f in fidelities) <= tol
    )
    return MaskingReport(
        passed=passed,
        success_probabilities=probabilities,
        fidelities=fidelities,
        max_marginal_deviation=marginal_deviation,
        tolerance=tol,
    )
