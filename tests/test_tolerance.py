"""The tolerance policy at the corners: s -> 1, t -> 1, t = s or tied to it by
1 - t = r (1 - s), saturated gamma = 1, a singular target Gram matrix and odd d.

Every gate is a rounding floor scaled to its problem (``hilbert.rounding_floor``),
so the library builds exactly the maskers its own verifier accepts.
"""

import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import overlap_family, paper_formula
from qmask.fileio import load_masker, save_masker
from qmask.fixed_reducing import cyclic_targets, from_states, targets_with_overlap
from qmask.hilbert import (
    NORM_TOL,
    VERIFY_CEILING,
    MultipartiteState,
    Operator,
    StateVector,
    basis_state,
    gram,
    hermitian_sqrt,
    nonsingular_spectrum,
    rounding_floor,
    unitary_completion,
)
from qmask.masker import Masker, build_deterministic, build_probabilistic, verify_masking
from qmask.optimizer import (
    feasible,
    max_prob_two,
    maximize_general,
    residual_matrix,
    uniform_feasibility_boundary,
)

# 1 - s for the corner grid: cond(A) = (1 + s) / (1 - s) runs from 2e6 to 2e11
ONE_MINUS_S = (1e-6, 1e-8, 1e-9, 1e-10, 1e-11)
SEEDS = (1, 2, 3)


def corner_cells():
    for gap in ONE_MINUS_S:
        s = 1.0 - gap
        for t in (0.0, 0.5, s):
            yield pytest.param(s, t, id=f"1-s={gap:g},t={'s' if t == s else t}")


def grams(inputs, targets):
    return gram(inputs), gram(targets.states)


@pytest.mark.parametrize("s, t", corner_cells())
def test_corner_grid_solves_builds_and_verifies(s, t):
    bound = paper_formula(s, t)
    for seed in SEEDS:
        inputs, targets = overlap_family(s, t, seed)
        a, x = grams(inputs, targets)
        gammas, prob = maximize_general(a, x)
        assert verify_masking(build_probabilistic(inputs, targets, gammas)).passed
        # the closed form of the unrotated pair; rotating perturbs 1 - s by rounding,
        # which moves the optimum by a relative cond(A) eps
        assert prob <= bound * (1.0 + rounding_floor(2, np.linalg.cond(a)))


# at t = s the optimum is gamma = 1, so 1 % above it is outside (0, 1]
@pytest.mark.parametrize("s, t", [cell for cell in corner_cells() if cell.values[1] in (0.0, 0.5)])
def test_corner_grid_rejects_one_percent_above_the_optimum(s, t):
    request = np.full(2, 1.01 * paper_formula(s, t) ** 0.5)
    for seed in SEEDS:
        inputs, targets = overlap_family(s, t, seed)
        with pytest.raises(ValueError, match=r"^infeasible efficiencies: .* below the rounding"):
            build_probabilistic(inputs, targets, request)


def test_verification_rejects_a_masker_claiming_twice_its_efficiencies():
    inputs, targets = overlap_family(1.0 - 1e-9, 0.0, 1)
    gammas, _ = maximize_general(*grams(inputs, targets))
    built = build_probabilistic(inputs, targets, gammas)
    assert verify_masking(built).passed
    # an absolute |p - gamma| <= 1e-8 passes this: gamma is about 1e-9
    assert not verify_masking(
        Masker(built.inputs, built.targets, 2 * built.gammas, built.unitary)).passed


def test_verification_fails_for_linearly_dependent_inputs():
    # the identity maps |0>|0> to a target of fidelity 1/2: no tolerance may let it pass
    same = (basis_state(2, 0), basis_state(2, 0))
    identity = Operator(np.eye(4), np.eye(4))
    report = verify_masking(Masker(same, cyclic_targets(2, 2), [1.0, 1.0], identity))
    assert report.tolerance == np.inf
    assert not report.passed


def test_verification_fails_beyond_the_tolerance_ceiling():
    # cond(A) about 1e13 asks for a tolerance near 0.07, which would pass 2 gamma claimed
    inputs, targets = overlap_family(1.0 - 2e-13, 0.0, 1)
    a, x = grams(inputs, targets)
    gammas, _ = maximize_general(a, x)
    with pytest.raises(ValueError, match=r"condition number \S+: .* verified only to \S+, "
                                         r"above the ceiling 1e-02"):
        build_probabilistic(inputs, targets, gammas)
    # the masker the builder used to return, assembled by hand: sqrt(gamma_k) |Psi_k>|P_0>
    # plus a failure branch on |00> with the probe coefficients sqrt(conj(M))[k]
    ancilla, start = basis_state(2, 0).amplitudes, basis_state(3, 0).amplitudes
    coefficients = hermitian_sqrt(np.conj(residual_matrix(a, x, gammas)))
    prepared, outputs = [], []
    for k, (state, target) in enumerate(zip(inputs, targets.states)):
        prepared.append(np.kron(np.kron(state.amplitudes, ancilla), start))
        failure = np.kron(basis_state(4, 0).amplitudes, np.concatenate([[0.0], coefficients[k]]))
        outputs.append(np.sqrt(gammas[k]) * np.kron(target.amplitudes, start) + failure)
    unitary = unitary_completion(np.column_stack(prepared), np.column_stack(outputs))
    built = Masker(inputs, targets, gammas, unitary)
    report = verify_masking(built)
    assert min(report.fidelities) > 1.0 - 1e-6
    assert report.tolerance > VERIFY_CEILING
    assert not report.passed
    assert not verify_masking(
        Masker(built.inputs, built.targets, 2 * built.gammas, built.unitary)).passed


def test_unit_efficiencies_whose_gram_gap_is_amplified_are_rejected():
    # |s - t| = 1e-10 is within input precision, but whitening by A (cond 2e10) makes it O(1)
    inputs, targets = overlap_family(1.0 - 1e-10, 1.0, 1)
    with pytest.raises(ValueError, match=r"once whitened .* above the verification tolerance"):
        build_probabilistic(inputs, targets, [1.0, 1.0])


@pytest.mark.parametrize("ends", [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)])
def test_unit_efficiencies_build_on_states_off_unit_norm_within_the_tolerance(ends):
    # orthonormal up to norms 1 +/- 0.99 NORM_TOL, and a pair with s = t = 0.6
    scales = [1.0 + 0.99 * NORM_TOL * end for end in ends]
    basis = [StateVector(c * basis_state(3, k).amplitudes) for k, c in enumerate(scales)]
    assert verify_masking(build_deterministic(basis)).passed
    pair = [StateVector(scales[0] * np.array([1.0, 0.0])),
            StateVector(scales[1] * np.array([0.6, 0.8]))]
    targets = targets_with_overlap(2, 0.6)
    gammas, _ = maximize_general(*grams(pair, targets))
    assert verify_masking(build_probabilistic(pair, targets, gammas)).passed
    assert verify_masking(build_probabilistic(pair, targets, [1.0, 1.0])).passed


def test_states_at_opposite_ends_of_the_norm_tolerance_build_and_reload(tmp_path):
    # a failure branch weight absorbs both norm errors: up to 2 NORM_TOL (1 + gamma)
    up, down = 1.0 + 0.99 * NORM_TOL, 1.0 - 0.99 * NORM_TOL
    inputs = [StateVector(up * np.array([1.0, 0.0])), StateVector(up * np.array([0.6, 0.8]))]
    targets = from_states([MultipartiteState(down * psi.amplitudes, (2, 2))
                           for psi in targets_with_overlap(2, 0.0).states])
    built = build_probabilistic(inputs, targets, [0.3, 0.3])
    save_masker(built, tmp_path / "masker.json")
    assert verify_masking(load_masker(tmp_path / "masker.json")).passed


# 1 - s down to 2.5e-12, so cond(A) stays below 8e11
corner_s = st.one_of(
    st.floats(1.0, 11.6).map(lambda k: 1.0 - 10.0 ** -k),
    st.floats(0.0, 0.99),
)
corner_t = st.one_of(
    st.just("s"),
    # tied to s: 1 - t = r (1 - s)
    st.tuples(st.just("r"), st.floats(0.5, 2.0)),
    st.floats(1.0, 12.0).map(lambda k: 1.0 - 10.0 ** -k),
    st.just(1.0),
    st.floats(0.0, 1.0),
)
# (d, n): two inputs on a qubit or a qutrit, three on a qutrit
shapes = st.sampled_from([(2, 2), (3, 2), (3, 3)])


def corner_family(s, t, seed, shape):
    """The corner's inputs and targets, and the target overlap a ``corner_t`` draw stands for."""
    if t == "s":
        t = s
    elif isinstance(t, tuple):
        t = max(1.0 - t[1] * (1.0 - s), 0.0)
    d, n = shape
    return (*overlap_family(s, t, seed, d, n), t)


@given(s=corner_s, t=corner_t, seed=st.integers(0, 2**32 - 1), shape=shapes,
       request=st.sampled_from(["solver", "hand", "saturated"]), factor=st.floats(0.5, 1.5))
@settings(max_examples=150, deadline=None)
# a third input and target orthogonal to the rest: the boundary Newton step overflows exp(y)
@example(s=0.9, t=("r", 2.0), seed=0, shape=(3, 3), request="solver", factor=1.0)
def test_every_masker_the_builder_returns_verifies(s, t, seed, shape, request, factor):
    inputs, targets, t = corner_family(s, t, seed, shape)
    a, x = grams(inputs, targets)
    if request == "solver":
        gammas = maximize_general(a, x)[0]
    else:
        assume(shape[1] == 2 and 0.0 < s <= t)
        # gamma_1 = 1 leaves residual row 0 zero exactly when gamma_2 = (s / t)^2
        gammas = [1.0, (s / t) ** 2] if request == "saturated" else None
        if request == "hand":
            gammas = np.full(2, min(factor * max_prob_two(s, t)[1][0], 1.0))
    try:
        built = build_probabilistic(inputs, targets, gammas)
    except ValueError as exc:
        # every rejection names the floor or tolerance its margin was compared with
        assert re.search(r"(floor|tolerance) -?\d", str(exc))
        return
    assert verify_masking(built).passed


@given(s=st.one_of(st.floats(1.0, 11.0).map(lambda k: 1.0 - 10.0 ** -k), st.floats(0.0, 0.99)),
       t=corner_t, seed=st.integers(0, 2**32 - 1), shape=shapes)
@settings(max_examples=100, deadline=None)
# 1.01 times the optimum 1 / 1.01 rounds to exactly 1
@example(s=0.0, t=0.01, seed=0, shape=(2, 2))
def test_every_infeasible_request_raises_a_named_error(s, t, seed, shape):
    inputs, targets, t = corner_family(s, t, seed, shape)
    gamma = 1.01 * paper_formula(s, t) ** 0.5
    assume(gamma <= 1.0)
    # equal efficiencies 1 % above the two-input optimum; a third input keeps efficiency 1e-3
    request = [gamma, gamma, 1e-3][:shape[1]]
    assert not feasible(*grams(inputs, targets), request)[0]
    # with every efficiency 1 there is no probe, and the Gram match A = X is the gate
    message = (r"^Gram matrices differ by .*, above the input-precision floor "
               if min(request) == 1.0 else
               r"^infeasible efficiencies: residual matrix has min eigenvalue -.*, below the "
               r"rounding floor -")
    with pytest.raises(ValueError, match=message):
        build_probabilistic(inputs, targets, request)


@given(s=corner_s, t=corner_t, seed=st.integers(0, 2**32 - 1), shape=shapes)
@settings(max_examples=100, deadline=None)
# as above, with a singular target Gram matrix
@example(s=0.9, t=1.0, seed=0, shape=(3, 3))
def test_no_family_conditioned_below_1e12_is_called_singular(s, t, seed, shape):
    inputs, targets, _ = corner_family(s, t, seed, shape)
    a, x = grams(inputs, targets)
    assert np.linalg.cond(a) < 1e12
    nonsingular_spectrum(a)
    uniform_feasibility_boundary(a, x)
    gammas, _ = maximize_general(a, x)
    build_probabilistic(inputs, targets, gammas)
