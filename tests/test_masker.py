import sys

import numpy as np
import pytest

from helpers import (
    dense,
    max_marginal_deviation,
    patch_kernel,
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
    hermitian_sqrt,
)
from qmask.masker import (
    Masker,
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
        masker = build_probabilistic(inputs, cyclic_targets(2, 3), np.ones(2))
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
            build_probabilistic(inputs, targets_with_overlap(2, 0.5), np.ones(2))


class TestBuildProbabilistic:
    def test_unit_efficiencies_reduce_to_deterministic(self):
        inputs = [basis_state(3, 0), basis_state(3, 1)]
        targets = cyclic_targets(2, 3)
        probabilistic = build_probabilistic(inputs, targets, [1.0, 1.0])
        deterministic = build_deterministic(inputs)
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
        assert masker.probe_dim == 2
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
        # a square root whose rows miss the branch weights M_kk leaves the outputs off unit
        # norm, which the completion's column-norm gate rejects
        monkeypatch.setattr(masker_module, "hermitian_sqrt", lambda m: 0.9 * np.eye(2))
        with pytest.raises(ValueError, match="not normalized"):
            build_probabilistic(overlap_pair(), cyclic_targets(2, 2), [0.1, 0.1])

    def test_residual_is_decomposed_once(self, monkeypatch):
        # the square root is the feasibility gate, and the completion needs no QR
        calls = {"hermitian_sqrt": 0, "eigvalsh": 0, "qr": 0}

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(masker_module, "hermitian_sqrt",
                            counted("hermitian_sqrt", masker_module.hermitian_sqrt))
        patch_kernel(monkeypatch, "_eigvalsh", lambda kernel: counted("eigvalsh", kernel))
        monkeypatch.setattr(np.linalg, "qr", counted("qr", np.linalg.qr))
        masker = build_probabilistic(overlap_pair(), cyclic_targets(2, 2), [0.1, 0.1])
        assert masker.probe_dim == 2
        assert calls == {"hermitian_sqrt": 1, "eigvalsh": 0, "qr": 0}

    @pytest.mark.parametrize("bad", [0.0, 1.5, np.nan])
    def test_efficiency_outside_unit_interval_rejected(self, bad):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            build_probabilistic(overlap_pair(), cyclic_targets(2, 2), [bad, 0.1])

    @pytest.mark.parametrize("targets", [cyclic_targets(1, 2), cyclic_targets(2, 3)],
                             ids=["other-n", "other-d"])
    def test_targets_of_another_family_rejected(self, targets):
        with pytest.raises(ValueError, match="^targets do not match the input family's size"):
            build_probabilistic(overlap_pair(), targets, [0.1, 0.1])

    def test_failure_block_is_the_residual_root(self):
        # F = sqrt(M) on |i>_AB |P_1>, rows 2i + 1 for i < n, and nothing elsewhere:
        # F^dagger F = M is the matching equation
        inputs, targets, gammas = overlap_pair(), targets_with_overlap(2, 0.3), [0.2, 0.3]
        branches = failure_branches(build_probabilistic(inputs, targets, gammas))
        root = hermitian_sqrt(residual_matrix(gram(inputs), gram(targets.states), gammas))
        assert np.max(np.abs(branches[1:4:2] - root)) <= 1e-12
        assert np.max(np.abs(np.delete(branches, [1, 3], axis=0))) <= 1e-12

    def test_efficiency_count_checked_with_the_residual(self):
        # the residual's own check decides the count, with the optimizer's message
        with pytest.raises(ValueError, match=r"^need 2 efficiencies, got 3$"):
            build_probabilistic(overlap_pair(), cyclic_targets(2, 2), [0.1, 0.1, 0.1])

    @pytest.mark.parametrize("count", [1, 3])
    def test_unit_efficiency_count_checked_without_a_residual(self, monkeypatch, count):
        # with every efficiency 1 there is no probe, so neither the targets' Gram matrix
        # nor the residual is formed, and the count is checked with the same message
        inputs = [basis_state(2, 0), basis_state(2, 1)]
        monkeypatch.setattr(masker_module.optimizer, "residual_matrix", None)
        assert build_probabilistic(inputs, cyclic_targets(2, 2), np.ones(2)).probe_dim == 1
        with pytest.raises(ValueError, match=rf"^need 2 efficiencies, got {count}$"):
            build_probabilistic(inputs, cyclic_targets(2, 2), np.ones(count))

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
            branches = failure_branches(masker)
            root_g = np.sqrt(gammas)
            reconstructed = np.outer(root_g, root_g) * x + branches.conj().T @ branches
            assert np.max(np.abs(reconstructed - a)) <= 1e-9

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_probe_has_two_states_for_every_n(self, rng, d):
        for n in range(1, d + 1):
            inputs, targets = random_independent(n, d, rng), cyclic_targets(n, d)
            boundary = uniform_feasibility_boundary(gram(inputs), gram(targets.states))
            masker = build_probabilistic(inputs, targets, np.full(n, boundary / 2))
            assert masker.probe_dim == 2 and masker.unitary.dim == 2 * d * d
            assert verify_masking(masker).passed

    def test_failure_branches_recoverable_from_unitary(self, rng, tmp_path):
        inputs = random_independent(2, 3, rng)
        targets = cyclic_targets(2, 3)
        boundary = uniform_feasibility_boundary(
            gram(inputs), gram(targets.states)
        )
        masker = build_probabilistic(inputs, targets, np.full(2, boundary / 2))
        path = tmp_path / "masker.json"
        save_masker(masker, path)
        built, loaded = failure_branches(masker), failure_branches(load_masker(path))
        assert built.shape == loaded.shape == (2 * 3 * 3, 2)
        assert np.max(np.abs(built - loaded)) <= 1e-9


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
            Masker(masker.inputs, masker.targets, masker.gammas, dense(masker.unitary))

    @pytest.mark.parametrize("field, value, message", [
        ("targets", cyclic_targets(1, 2), "^targets do not match the input family$"),
        ("targets", cyclic_targets(2, 3), "^targets do not match the input family$"),
        ("gammas", [1.0], r"^efficiencies must be n values in \(0, 1\]$"),
        ("gammas", [0.0, 1.0], r"^efficiencies must be n values in \(0, 1\]$"),
        ("gammas", [1.5, 1.0], r"^efficiencies must be n values in \(0, 1\]$"),
        ("unitary", Operator(np.eye(5), np.eye(5)), "^unitary dimension 5 is not a multiple of 4$"),
        ("gammas", [0.5, 1.0], "^a masker without a probe needs unit efficiencies$"),
        ("unitary", Operator(np.eye(4), np.diag([1.0, 1.0, 1.0, 2.0])),
         "^masker operator is not unitary$"),
    ], ids=["targets-other-n", "targets-other-d", "gammas-shape", "gammas-zero",
            "gammas-above-one", "unitary-dimension", "probe-free-below-one", "not-unitary"])
    def test_inconsistent_fields_rejected(self, field, value, message):
        masker = build_deterministic([basis_state(2, 0), basis_state(2, 1)])
        fields = {"inputs": masker.inputs, "targets": masker.targets, "gammas": masker.gammas,
                  "unitary": masker.unitary}
        with pytest.raises(ValueError, match=message):
            Masker(**{**fields, field: value})

    def test_inputs_must_live_on_one_subsystem(self):
        # a masker file stores its inputs with dims [d], so a bipartite input could not reload
        masker = build_deterministic([basis_state(4, 0), basis_state(4, 1)])
        split = tuple(MultipartiteState(a.amplitudes, (2, 2)) for a in masker.inputs)
        with pytest.raises(ValueError, match="one subsystem"):
            Masker(split, masker.targets, masker.gammas, masker.unitary)

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
        ancilla = basis_state(3, 0).amplitudes
        prepared = np.column_stack([
            np.kron(np.kron(a.amplitudes, ancilla), basis_state(2, 0).amplitudes) for a in inputs
        ])
        evolved = masker.unitary.apply(prepared)
        assert np.array_equal(evolved, masker.evolved)
        assert np.max(np.abs(evolved.conj().T @ evolved - gram(inputs))) <= 1e-10


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
        assert report.passed
        assert max(masker.unitary.isometry_residual, masker.unitary.span_unitary_residual) <= 1e-10
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
        assert max(masker.unitary.isometry_residual, masker.unitary.span_unitary_residual) <= 1e-12

    def test_perturbed_unitary_fails_fidelity(self, rng):
        masker = build_deterministic([basis_state(2, 0), basis_state(2, 1)])
        noise = 1e-3 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        left, _, right = np.linalg.svd(dense(masker.unitary) + noise)
        broken = Masker(masker.inputs, masker.targets, masker.gammas,
                        Operator(np.eye(4), left @ right))
        report = verify_masking(broken)
        assert not report.passed
        assert min(report.fidelities) < 1 - 1e-8


def value_types():
    """One value of each of qmask's six value types, by type name."""
    masker = build_probabilistic([basis_state(2, 0), StateVector(np.array([0.6, 0.8]))],
                                 cyclic_targets(2, 2), [0.2, 0.2])
    values = [masker, masker.inputs[0], masker.unitary, masker.targets,
              simulate(masker, 0), verify_masking(masker)]
    return {type(value).__name__: value for value in values}


@pytest.mark.parametrize("name", ["Masker", "MultipartiteState", "Operator", "FixedReducingSet",
                                  "MaskingOutcome", "MaskingReport"])
def test_value_types_refuse_assignment_and_deletion(name):
    # each field is set once, at construction
    value = value_types()[name]
    fields = type(value).__annotations__
    assert fields
    for field in fields:
        kept = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, kept)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is kept
    with pytest.raises(AttributeError):
        value.unknown_field = 0


def test_value_types_list_their_fields_in_repr():
    for name, value in value_types().items():
        assert repr(value).startswith(f"{name}({next(iter(type(value).__annotations__))}="), name
