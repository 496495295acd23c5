import dataclasses
import sys

import numpy as np
import pytest

from helpers import (
    dense,
    max_marginal_deviation,
    random_independent,
    random_orthonormal,
    random_state,
)
from qmask import hilbert, masker as masker_module
from qmask.fileio import load_masker, masker_to_json, save_masker
from qmask.fixed_reducing import cyclic_targets, targets_with_overlap
from qmask.hilbert import (
    MultipartiteState,
    Operator,
    StateVector,
    basis_state,
    fidelity,
    gram,
)
from qmask.masker import (
    build_deterministic,
    build_probabilistic,
    failure_branches,
    simulate,
    verify_masking,
)
from qmask.optimizer import maximize_general, residual_matrix, uniform_feasibility_boundary

INV2 = 1.0 / np.sqrt(2)


def overlap_pair():
    return [basis_state(2, 0), StateVector(np.array([1, 1]) / np.sqrt(2))]


class TestBuildDeterministic:
    def test_basis_pair_maps_to_cyclic_targets(self):
        masker = build_deterministic([basis_state(2, 0), basis_state(2, 1)])
        assert masker.unitary.is_unitary()
        for k in range(2):
            outcome = simulate(masker, k)
            assert outcome.success_probability == pytest.approx(1.0, abs=1e-12)
            assert outcome.fidelity_to_target >= 1 - 1e-12
            assert np.allclose(outcome.marginal_A, np.eye(2) / 2, atol=1e-10)
            assert np.allclose(outcome.marginal_B, np.eye(2) / 2, atol=1e-10)

    def test_single_state_masks_to_maximally_entangled(self, rng):
        d = 3
        masker = build_deterministic([random_state(d, rng)])
        outcome = simulate(masker, 0)
        reference = MultipartiteState(np.eye(d).reshape(-1) / np.sqrt(d), (d, d))
        assert fidelity(outcome.post_selected_state, reference) >= 1 - 1e-10

    def test_random_orthonormal_families(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(1, d + 1))
            masker = build_deterministic(random_orthonormal(n, d, rng))
            assert masker.unitary.is_unitary()
            images = [simulate(masker, k).post_selected_state for k in range(n)]
            assert max_marginal_deviation(images) <= 1e-9

    def test_explicit_matching_targets(self):
        inputs = [basis_state(3, 0), basis_state(3, 1)]
        masker = build_deterministic(inputs, targets=cyclic_targets(2, 3))
        assert verify_masking(masker).passed

    def test_rejects_non_orthogonal_inputs(self):
        with pytest.raises(ValueError, match="orthogonal"):
            build_deterministic(overlap_pair())

    def test_rejects_too_many_states(self):
        inputs = [
            basis_state(2, 0),
            basis_state(2, 1),
            StateVector(np.array([1, 1]) / np.sqrt(2)),
        ]
        with pytest.raises(ValueError, match="cannot mask"):
            build_deterministic(inputs)

    def test_rejects_target_gram_mismatch(self):
        inputs = [basis_state(2, 0), basis_state(2, 1)]
        with pytest.raises(ValueError, match="Gram"):
            build_deterministic(inputs, targets=targets_with_overlap(2, 0.5))


class TestBuildProbabilistic:
    def test_unit_efficiencies_reduce_to_deterministic(self):
        inputs = [basis_state(3, 0), basis_state(3, 1)]
        targets = cyclic_targets(2, 3)
        probabilistic = build_probabilistic(inputs, targets, [1.0, 1.0])
        deterministic = build_deterministic(inputs, targets=targets)
        # no failure branch, so no probe: the very same masker
        assert probabilistic.probe_dim == 1
        assert masker_to_json(probabilistic) == masker_to_json(deterministic)
        for k in range(2):
            a = simulate(probabilistic, k)
            b = simulate(deterministic, k)
            assert a.success_probability == pytest.approx(1.0, abs=1e-9)
            assert b.success_probability == pytest.approx(1.0, abs=1e-9)
            assert np.max(np.abs(a.marginal_A - b.marginal_A)) <= 1e-9
            assert np.max(np.abs(a.marginal_B - b.marginal_B)) <= 1e-9

    def test_partial_saturation_keeps_the_probe(self, tmp_path):
        # residual [[0, 0], [0, 0.64]]: input 0 saturates, input 1 keeps a failure branch
        inputs = [basis_state(2, 0), StateVector(np.array([0.3, np.sqrt(0.91)]))]
        masker = build_probabilistic(inputs, targets_with_overlap(2, 0.5), [1.0, 0.36])
        assert masker.probe_dim == 3
        report = verify_masking(masker)
        assert report.passed
        path = tmp_path / "masker.json"
        save_masker(masker, path)
        assert verify_masking(load_masker(path)) == report

    def test_feasible_low_efficiency_pair(self):
        # residual [[0.9, 1/sqrt2], [1/sqrt2, 0.9]] has eigenvalues 0.9 +/- 1/sqrt2
        targets = cyclic_targets(2, 2)
        residual = residual_matrix(
            gram(overlap_pair()), gram(targets.states), [0.1, 0.1]
        )
        expected_eigs = np.array([0.9 - INV2, 0.9 + INV2])
        assert np.allclose(np.linalg.eigvalsh(residual), expected_eigs, atol=1e-12)

        masker = build_probabilistic(overlap_pair(), targets, [0.1, 0.1])
        for k in range(2):
            outcome = simulate(masker, k)
            assert outcome.success_probability == pytest.approx(0.1, abs=1e-8)
            assert outcome.fidelity_to_target >= 1 - 1e-8

    def test_infeasible_efficiencies_rejected(self):
        # 0.7 - 1/sqrt2 < 0, so gamma = 0.3 is out of reach
        with pytest.raises(ValueError, match="eigenvalue"):
            build_probabilistic(overlap_pair(), cyclic_targets(2, 2), [0.3, 0.3])

    def test_linearly_dependent_inputs_rejected(self):
        inputs = [basis_state(2, 0), basis_state(2, 0)]
        with pytest.raises(ValueError, match="dependent"):
            build_probabilistic(inputs, cyclic_targets(2, 2), [0.1, 0.1])

    @pytest.mark.parametrize("s, t", [(0.3, 0.5), (0.9, 0.95), (0.999, 0.99), (1 - 1e-9, 0.0)])
    def test_builds_at_the_admissible_boundary(self, s, t):
        # the optimizer's efficiencies sit just inside the boundary, where the residual is
        # nearly singular
        inputs = [basis_state(2, 0), StateVector(np.array([s, np.sqrt(1 - s * s)]))]
        targets = targets_with_overlap(2, t)
        gammas, _ = maximize_general(gram(inputs), gram(targets.states))
        assert verify_masking(build_probabilistic(inputs, targets, gammas)).passed

    def test_failure_coefficients_far_from_unit_norm_rejected(self, monkeypatch):
        # a square root whose rows miss unit norm by more than its tolerance
        monkeypatch.setattr(masker_module, "hermitian_sqrt", lambda m: 0.9 * np.eye(2))
        with pytest.raises(ValueError, match="efficiency 0: .* min eigenvalue"):
            build_probabilistic(overlap_pair(), cyclic_targets(2, 2), [0.1, 0.1])

    @pytest.mark.parametrize("bad", [0.0, 1.5, np.nan])
    def test_efficiency_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            build_probabilistic(overlap_pair(), cyclic_targets(2, 2), [bad, 0.1])

    def test_unit_efficiency_with_residual_rejected(self):
        with pytest.raises(ValueError, match="residual"):
            build_probabilistic(overlap_pair(), cyclic_targets(2, 2), [1.0, 0.1])

    def test_gram_matching_reconstruction(self, rng):
        # the failure-branch Gram matrix must complete the matching equation
        for _ in range(10):
            n, d = int(rng.integers(2, 4)), int(rng.integers(2, 5))
            n = min(n, d)
            inputs = random_independent(n, d, rng)
            targets = cyclic_targets(n, d)
            a = gram(inputs)
            x = gram(targets.states)
            boundary = uniform_feasibility_boundary(a, x)
            gammas = np.full(n, boundary / 2)
            masker = build_probabilistic(inputs, targets, gammas)
            y_actual = gram(failure_branches(masker))
            root_g = np.sqrt(gammas)
            root_c = np.sqrt(1 - gammas)
            reconstructed = (
                np.outer(root_g, root_g) * x + np.outer(root_c, root_c) * y_actual
            )
            assert np.max(np.abs(reconstructed - a)) <= 1e-9

    def test_failure_branches_recoverable_from_unitary(self, rng, tmp_path):
        inputs = random_independent(2, 3, rng)
        targets = cyclic_targets(2, 3)
        boundary = uniform_feasibility_boundary(
            gram(inputs), gram(targets.states)
        )
        masker = build_probabilistic(inputs, targets, np.full(2, boundary / 2))
        path = tmp_path / "masker.json"
        save_masker(masker, path)
        for built, loaded in zip(failure_branches(masker), failure_branches(load_masker(path))):
            assert fidelity(built, loaded) == pytest.approx(1.0, abs=1e-9)


class TestSimulate:
    def test_success_probabilities_match_efficiencies(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 4))
            d = int(rng.integers(max(2, n), 5))
            inputs = random_independent(n, d, rng)
            targets = cyclic_targets(n, d)
            boundary = uniform_feasibility_boundary(
                gram(inputs), gram(targets.states)
            )
            gammas = boundary * rng.uniform(0.2, 0.8, size=n)
            masker = build_probabilistic(inputs, targets, np.minimum(gammas, 1.0))
            for k in range(n):
                outcome = simulate(masker, k)
                assert outcome.success_probability == pytest.approx(
                    masker.gammas[k], abs=1e-8
                )
                assert outcome.fidelity_to_target >= 1 - 1e-8

    def test_marginals_identical_across_inputs(self, rng):
        inputs = random_independent(3, 3, rng)
        targets = cyclic_targets(3, 3)
        boundary = uniform_feasibility_boundary(
            gram(inputs), gram(targets.states)
        )
        masker = build_probabilistic(inputs, targets, np.full(3, boundary / 2))
        outcomes = [simulate(masker, k) for k in range(3)]
        for outcome in outcomes[1:]:
            assert np.max(np.abs(outcome.marginal_A - outcomes[0].marginal_A)) <= 1e-8
            assert np.max(np.abs(outcome.marginal_B - outcomes[0].marginal_B)) <= 1e-8

    def test_unitary_must_be_factored(self):
        masker = build_deterministic([basis_state(2, 0), basis_state(2, 1)])
        with pytest.raises(TypeError, match="Operator"):
            dataclasses.replace(masker, unitary=dense(masker.unitary))

    def test_index_out_of_range(self):
        masker = build_deterministic([basis_state(2, 0), basis_state(2, 1)])
        with pytest.raises(IndexError):
            simulate(masker, 2)
        with pytest.raises(IndexError):
            simulate(masker, -1)

    def test_outputs_keep_the_input_gram(self, rng):
        # unitarity means the full evolved vectors reproduce the input Gram
        inputs = random_independent(2, 3, rng)
        targets = cyclic_targets(2, 3)
        masker = build_probabilistic(inputs, targets, [0.05, 0.05])
        prepared = [
            np.kron(
                np.kron(a.amplitudes, masker.ancilla.amplitudes),
                basis_state(3, 0).amplitudes,
            )
            for a in inputs
        ]
        evolved = [
            MultipartiteState(masker.unitary.apply(p), (3, 3, 3)) for p in prepared
        ]
        assert np.max(np.abs(gram(evolved) - gram(inputs))) <= 1e-10


class TestVerifyMasking:
    def test_unitarity_residual_evaluated_once(self, monkeypatch):
        targets = cyclic_targets(2, 2)
        calls = []
        residual = hilbert.unitarity_residual
        # count it wherever a qmask module binds it
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "qmask" and vars(module).get("unitarity_residual") is residual:
                monkeypatch.setattr(
                    module, "unitarity_residual", lambda m: calls.append(m.shape) or residual(m)
                )
        masker = build_probabilistic(overlap_pair(), targets, [0.1, 0.1])
        report = verify_masking(masker)
        assert report.passed and report.unitarity_residual <= 1e-10
        # the factored unitary's two factors: Q's isometry and W's unitarity, once each
        factors = [masker.unitary.span_basis.shape, masker.unitary.span_unitary.shape]
        assert sorted(calls) == sorted(factors)

    def test_deterministic_masker_passes(self, rng):
        masker = build_deterministic(random_orthonormal(3, 4, rng))
        report = verify_masking(masker)
        assert report.passed
        assert tuple(masker.gammas) == (1.0, 1.0, 1.0)

    def test_probabilistic_masker_passes(self, rng):
        inputs = random_independent(2, 2, rng)
        targets = cyclic_targets(2, 2)
        boundary = uniform_feasibility_boundary(
            gram(inputs), gram(targets.states)
        )
        masker = build_probabilistic(inputs, targets, np.full(2, boundary / 2))
        report = verify_masking(masker)
        assert report.passed
        assert report.unitarity_residual <= 1e-12

    def test_perturbed_unitary_fails_fidelity(self, rng):
        masker = build_deterministic([basis_state(2, 0), basis_state(2, 1)])
        noise = 1e-3 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        left, _, right = np.linalg.svd(dense(masker.unitary) + noise)
        broken = dataclasses.replace(masker, unitary=Operator(np.eye(4), left @ right))
        report = verify_masking(broken)
        assert not report.passed
        assert min(report.fidelities) < 1 - 1e-8
