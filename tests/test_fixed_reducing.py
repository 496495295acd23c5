import numpy as np
import pytest

from helpers import haar_unitary, max_marginal_deviation
from qmask.fixed_reducing import (
    FixedReducingSet,
    build_distinct_spectrum,
    build_general_spectrum,
    build_uniform_spectrum,
    cyclic_targets,
    from_states,
    marginal_deviations,
    marginals,
    targets_with_overlap,
)
from qmask.hilbert import MARGINAL_TOL, MultipartiteState, fidelity, gram, overlap

INV2 = 1.0 / np.sqrt(2)


def bell_family():
    return [
        MultipartiteState(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2)),
        MultipartiteState(np.array([0, 1, 1, 0]) / np.sqrt(2), (2, 2)),
    ]


def marginals_by_hand(state):
    # independent oracle: trace blocks of the full projector
    da, db = state.dims
    projector = np.outer(state.amplitudes, state.amplitudes.conj()).reshape(da, db, da, db)
    return np.einsum("ibjb->ij", projector), np.einsum("aiaj->ij", projector)


class TestVerify:
    def test_bell_family_passes(self):
        assert max_marginal_deviation(bell_family()) <= 1e-12
        FixedReducingSet(bell_family())

    def test_family_with_product_state_fails(self):
        family = [bell_family()[0], MultipartiteState(np.array([1, 0, 0, 0]) * 1.0, (2, 2))]
        assert max_marginal_deviation(family) >= 0.4
        with pytest.raises(ValueError, match="not fixed reducing: state 1"):
            FixedReducingSet(family)

    def test_distinct_phase_families_pass(self):
        first = build_distinct_spectrum([0.7, 0.3], [[0.0, 0.0], [0.0, np.pi / 4]])
        second = build_distinct_spectrum([0.7, 0.3], [[0.0, 0.0], [0.0, np.pi / 2]])
        assert max_marginal_deviation(first.states + second.states) <= MARGINAL_TOL
        FixedReducingSet(first.states + second.states)

    def test_dims_mismatch_rejected(self):
        first = MultipartiteState(np.array([1, 0, 0, 0]) * 1.0, (2, 2))
        for second in (
            MultipartiteState(np.eye(9)[0].astype(complex), (3, 3)),
            MultipartiteState(np.array([1, 0, 0, 0]) * 1.0, (2, 2, 1)),
        ):
            with pytest.raises(ValueError, match=r"state 1 has dims .* bipartite with the dims"):
                from_states([first, second])

    def test_from_states_recovers_structure(self):
        states = bell_family()
        family = from_states(states)
        assert all(a is b for a, b in zip(family.states, states)) and (family.n, family.dim) == (2, 2)
        marginal_a, _ = marginals(family.states[0])
        assert np.allclose(marginal_a, np.eye(2) / 2, atol=1e-12)
        assert np.allclose(np.linalg.eigvalsh(marginal_a), [0.5, 0.5], atol=1e-12)

    def test_marginal_deviations_measure_from_first_pair(self):
        product = MultipartiteState(np.array([1, 0, 0, 0]) * 1.0, (2, 2))
        pairs = [marginals(state) for state in bell_family() + [product]]
        assert marginal_deviations(pairs) == pytest.approx([0.0, 0.0, 0.5], abs=1e-15)
        assert marginal_deviations(pairs[::-1]) == pytest.approx([0.0, 0.5, 0.5], abs=1e-15)

    def test_set_names_worst_state(self):
        partial = MultipartiteState(np.array([np.sqrt(0.8), 0, 0, np.sqrt(0.2)]), (2, 2))
        product = MultipartiteState(np.array([1, 0, 0, 0]) * 1.0, (2, 2))
        family = (bell_family()[0], partial, product)
        with pytest.raises(ValueError, match="fixed reducing: state 2 deviates .* 5.000e-01"):
            FixedReducingSet(family)

    def test_marginals_need_two_subsystems(self):
        with pytest.raises(ValueError, match=r"^state is not bipartite: dims \(4,\)$"):
            marginals(MultipartiteState(np.eye(4)[0], (4,)))

    def test_unequal_local_dimensions_rejected(self):
        with pytest.raises(ValueError, match=r"needs equal local dimensions, got \(2, 3\)$"):
            FixedReducingSet([MultipartiteState(np.eye(6)[0], (2, 3))])

    def test_from_states_rejects_bad_family(self):
        family = [bell_family()[0], MultipartiteState(np.array([1, 0, 0, 0]) * 1.0, (2, 2))]
        with pytest.raises(ValueError, match="fixed reducing"):
            from_states(family)


class TestUniformSpectrum:
    @pytest.mark.parametrize("d", [0, -1])
    def test_rejects_a_dimension_below_one(self, d):
        with pytest.raises(ValueError, match="^dimension must be positive$"):
            build_uniform_spectrum(d, [])

    def test_d2_identity_and_swap_give_bell_pair(self):
        swap = np.array([[0, 1], [1, 0]], dtype=complex)
        family = build_uniform_spectrum(2, [np.eye(2), swap])
        expected = bell_family()
        for state, reference in zip(family.states, expected):
            assert np.allclose(state.amplitudes, reference.amplitudes, atol=1e-12)

    def test_random_unitaries_verify(self, rng):
        for d in (2, 3, 4, 5):
            family = build_uniform_spectrum(d, [haar_unitary(d, rng) for _ in range(3)])
            assert max_marginal_deviation(family.states) <= 1e-12
            marginal_a, _ = marginals(family.states[0])
            assert np.allclose(marginal_a, np.eye(d) / d, atol=1e-12)

    def test_d3_cyclic_shift_marginals(self):
        shift = np.roll(np.eye(3), 1, axis=0)
        family = build_uniform_spectrum(3, [np.eye(3), shift])
        for state in family.states:
            rho_a, rho_b = marginals_by_hand(state)
            assert np.allclose(rho_a, np.eye(3) / 3, atol=1e-12)
            assert np.allclose(rho_b, np.eye(3) / 3, atol=1e-12)

    def test_non_unitary_rejected(self):
        for block in (np.diag([1.0, 2.0]), np.full((2, 2), np.nan)):
            with pytest.raises(ValueError, match="not unitary"):
                build_uniform_spectrum(2, [np.eye(2), block])


class TestDistinctSpectrum:
    def test_marginals_are_the_spectrum(self):
        family = build_distinct_spectrum([0.7, 0.3], [[0.0, 0.0], [0.0, np.pi]])
        for state in family.states:
            rho_a, rho_b = marginals_by_hand(state)
            assert np.allclose(rho_a, np.diag([0.7, 0.3]), atol=1e-12)
            assert np.allclose(rho_b, np.diag([0.7, 0.3]), atol=1e-12)

    def test_pairwise_overlaps_match_phase_sums(self, rng):
        # oracle: <Psi_j|Psi_k> = sum_i alpha_i e^{i (phi_ki - phi_ji)}
        alphas = np.array([0.5, 0.3, 0.2])
        rows = rng.uniform(0, 2 * np.pi, size=(3, 3))
        family = build_distinct_spectrum(alphas, rows)
        for j in range(3):
            for k in range(3):
                expected = np.sum(alphas * np.exp(1j * (rows[k] - rows[j])))
                assert overlap(family.states[j], family.states[k]) == pytest.approx(
                    expected, abs=1e-12
                )

    def test_identical_phase_rows_give_equal_states(self):
        family = build_distinct_spectrum([0.6, 0.4], [[0.1, 0.2], [0.1, 0.2]])
        assert fidelity(family.states[0], family.states[1]) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_a_phase_row_of_the_wrong_length(self):
        with pytest.raises(ValueError, match=r"^phase_rows\[1\] has shape \(3,\), expected \(2,\)$"):
            build_distinct_spectrum([0.6, 0.4], [[0.0, 0.0], [0.0, 0.0, 0.0]])

    def test_rejects_repeated_or_nonpositive(self):
        with pytest.raises(ValueError, match="strictly decreasing"):
            build_distinct_spectrum([0.5, 0.5], [[0.0, 0.0]])
        with pytest.raises(ValueError, match="positive"):
            build_distinct_spectrum([1.0, 0.0], [[0.0, 0.0]])
        with pytest.raises(ValueError, match="strictly decreasing"):
            build_distinct_spectrum([0.3, 0.7], [[0.0, 0.0]])


class TestGeneralSpectrum:
    def test_flat_spectrum_reduces_to_uniform(self, rng):
        v = haar_unitary(3, rng)
        general = build_general_spectrum(np.full(3, 1 / 3), [[np.eye(3)], [v]])
        uniform = build_uniform_spectrum(3, [np.eye(3), v])
        for a, b in zip(general.states, uniform.states):
            assert np.allclose(a.amplitudes, b.amplitudes, atol=1e-12)

    def test_distinct_spectrum_reduces_to_phase_rows(self):
        phases = np.array([0.4, 1.3])
        blocks = [[np.array([[1.0]]), np.array([[1.0]])],
                  [np.exp(1j * phases[:1, None]), np.exp(1j * phases[1:, None])]]
        general = build_general_spectrum([0.7, 0.3], blocks)
        distinct = build_distinct_spectrum([0.7, 0.3], [[0.0, 0.0], phases])
        for a, b in zip(general.states, distinct.states):
            assert np.allclose(a.amplitudes, b.amplitudes, atol=1e-12)

    def test_degenerate_block_verifies(self, rng):
        # spectrum (0.5, 0.25, 0.25): one free 2x2 block on the degenerate part
        blocks = [[np.array([[1.0]]), np.eye(2)],
                  [np.array([[np.exp(0.3j)]]), haar_unitary(2, rng)]]
        family = build_general_spectrum([0.5, 0.25, 0.25], blocks)
        assert max_marginal_deviation(family.states) <= 1e-12
        for state in family.states:
            rho_a, rho_b = marginals_by_hand(state)
            assert np.allclose(rho_a, np.diag([0.5, 0.25, 0.25]), atol=1e-12)
            assert np.allclose(rho_b, np.diag([0.5, 0.25, 0.25]), atol=1e-12)

    @pytest.mark.parametrize("alphas, message", [
        ([], "^alphas must be a nonempty sequence$"),
        ([[0.5, 0.5]], "^alphas must be a nonempty sequence$"),
        ([1.2, -0.2], "^alphas must be non-negative$"),
        ([0.5, 0.4], "^alphas must sum to 1, got 0.9$"),
        ([0.4, 0.6], "^alphas must be sorted in non-increasing order$"),
    ], ids=["empty", "nested", "negative", "sum", "increasing"])
    def test_rejects_a_malformed_spectrum(self, alphas, message):
        with pytest.raises(ValueError, match=message):
            build_general_spectrum(alphas, [[np.eye(2)]])

    @pytest.mark.parametrize("position", range(3))
    @pytest.mark.parametrize("build", [
        lambda alphas: build_general_spectrum(alphas, [[np.eye(1)] * 3]),
        lambda alphas: build_distinct_spectrum(alphas, [np.zeros(3)]),
    ], ids=["general", "distinct"])
    def test_nan_alpha_fails_the_spectrum_checks(self, build, position):
        # NaN passes every ordered comparison; the sum check is written to catch it
        alphas = [0.5, 0.3, 0.2]
        alphas[position] = np.nan
        with pytest.raises(ValueError, match="^alphas must sum to 1, got nan$"):
            build(alphas)

    def test_block_structure_mismatch_rejected(self):
        with pytest.raises(ValueError, match="blocks"):
            build_general_spectrum([0.5, 0.25, 0.25], [[np.eye(3)]])
        with pytest.raises(ValueError, match="shape"):
            build_general_spectrum([0.5, 0.25, 0.25], [[np.eye(2), np.eye(1)]])

    def test_mixing_eigenspaces_breaks_marginals(self):
        # a rotation between eigenspaces of different eigenvalues leaves the
        # A marginal intact but shifts the B marginal, so the set's marginal
        # check is the authority that catches it
        alphas = np.array([0.5, 0.25, 0.25])
        theta = 0.7
        mixer = np.eye(3, dtype=complex)
        mixer[0, 0] = np.cos(theta)
        mixer[0, 1] = -np.sin(theta)
        mixer[1, 0] = np.sin(theta)
        mixer[1, 1] = np.cos(theta)
        states = []
        for v in (np.eye(3, dtype=complex), mixer):
            matrix = np.sqrt(alphas)[:, None] * v.T
            states.append(MultipartiteState(matrix.reshape(-1), (3, 3)))
        assert max_marginal_deviation(states) > 1e-3
        with pytest.raises(ValueError, match="not fixed reducing: state 1"):
            FixedReducingSet(states)


class TestCyclicTargets:
    def test_n2_d2_is_bell_pair_with_identity_gram(self):
        family = cyclic_targets(2, 2)
        for state, reference in zip(family.states, bell_family()):
            assert np.allclose(state.amplitudes, reference.amplitudes, atol=1e-12)
        assert np.allclose(gram(family.states), np.eye(2), atol=1e-12)

    def test_n2_d3_orthogonal_with_mixed_marginals(self):
        family = cyclic_targets(2, 3)
        assert np.allclose(gram(family.states), np.eye(2), atol=1e-12)
        for state in family.states:
            rho_a, rho_b = marginals_by_hand(state)
            assert np.allclose(rho_a, np.eye(3) / 3, atol=1e-12)
            assert np.allclose(rho_b, np.eye(3) / 3, atol=1e-12)

    def test_n3_d3_pairwise_orthogonal(self):
        family = cyclic_targets(3, 3)
        for i in range(3):
            for j in range(3):
                expected = 1.0 if i == j else 0.0
                assert overlap(family.states[i], family.states[j]) == pytest.approx(
                    expected, abs=1e-12
                )

    def test_gram_identity_for_all_shapes(self):
        for d in range(1, 7):
            for n in range(1, d + 1):
                family = cyclic_targets(n, d)
                assert np.max(np.abs(gram(family.states) - np.eye(n))) <= 1e-10

    def test_rejects_more_states_than_dimension(self):
        with pytest.raises(ValueError, match="n <= d"):
            cyclic_targets(3, 2)


class TestTargetsWithOverlap:
    def test_overlap_grid(self):
        magnitudes = (0.0, 0.25, 0.5, 0.75, 1.0)
        phases = (0.0, np.pi / 4, np.pi / 2)
        for d in (2, 3, 4, 5):
            for magnitude in magnitudes:
                for phase in phases:
                    c = magnitude * np.exp(1j * phase)
                    family = targets_with_overlap(d, c)
                    assert abs(overlap(family.states[0], family.states[1]) - c) <= 1e-9
                    assert max_marginal_deviation(family.states) <= 1e-10

    def test_half_overlap_d2(self):
        # conjugate phase pair +/- pi/3 gives trace/2 = cos(pi/3) = 0.5
        family = targets_with_overlap(2, 0.5)
        assert overlap(family.states[0], family.states[1]) == pytest.approx(0.5, abs=1e-12)

    def test_zero_overlap_matches_cyclic_orthogonality(self):
        family = targets_with_overlap(2, 0.0)
        assert abs(overlap(family.states[0], family.states[1])) <= 1e-12

    def test_unit_overlap_gives_equal_states(self):
        family = targets_with_overlap(3, 1.0)
        assert fidelity(family.states[0], family.states[1]) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_dimension_one(self):
        with pytest.raises(ValueError, match="^need dimension at least 2$"):
            targets_with_overlap(1, 0.5)

    def test_rejects_magnitude_above_one(self):
        for c in (1.5, float("nan")):
            with pytest.raises(ValueError, match="exceeds"):
                targets_with_overlap(2, c)


class TestConstructorInvariant:
    def test_all_constructors_verify_tightly(self, rng):
        families = [
            build_uniform_spectrum(5, [haar_unitary(5, rng) for _ in range(3)]),
            build_distinct_spectrum(
                [0.4, 0.3, 0.2, 0.1], rng.uniform(0, 2 * np.pi, size=(3, 4))
            ),
            build_general_spectrum(
                [0.4, 0.2, 0.2, 0.2],
                [[np.array([[1.0]]), haar_unitary(3, rng)] for _ in range(3)],
            ),
            cyclic_targets(4, 5),
            targets_with_overlap(5, 0.3 * np.exp(0.5j)),
        ]
        for family in families:
            assert max_marginal_deviation(family.states) <= 1e-10

    @pytest.mark.parametrize("build", [
        lambda: build_uniform_spectrum(2, []),
        lambda: build_distinct_spectrum([0.6, 0.4], []),
        lambda: build_general_spectrum([1.0], []),
        lambda: from_states([]),
    ], ids=["uniform", "distinct", "general", "from_states"])
    def test_empty_family_rejected_by_the_set(self, build):
        # FixedReducingSet alone decides that a family has a member
        with pytest.raises(ValueError, match="^a state family needs at least one state$"):
            build()
