import importlib.util
import sys
from collections import Counter
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    GAP_TOL,
    circulant_family,
    haar_unitary,
    log_prob,
    max_prob_grid_oracle,
    overlap_family,
    paper_formula,
    patch_kernel,
    random_independent,
    random_state,
    residual_is_psd,
    two_input_optimum,
)
from qmask.hilbert import _EPS, MultipartiteState, StateVector, basis_state, gram, rounding_floor
from qmask.fixed_reducing import cyclic_targets, from_states
from qmask.masker import build_probabilistic, verify_masking
from qmask import optimizer
from qmask.optimizer import (
    DEFAULT_S_VALUES,
    UNIFORM_SHORTFALL,
    _BOUNDARY_EVALUATIONS,
    _admissible,
    _boundary_newton,
    _cluster_terms,
    _dual_factor,
    _eigensystem,
    _formula_bound,
    _gap,
    _log_det_terms,
    _pair_entries,
    _solve_inputs,
    _top_terms,
    _two_input_high,
    _two_input_low,
    _whitener,
    certify,
    dual_bound,
    feasible,
    max_prob_two,
    maximize_general,
    probability_curves,
    residual_matrix,
    success_probability,
    uniform_feasibility_boundary,
)

INV2 = 1.0 / np.sqrt(2)
SKEW = np.array([[1.0, 0.5], [0.0, 1.0]])
# the resolution at which the old bisection stepped past the uniform boundary
BOUNDARY_OFFSET = 1e-10

# (n, d, seed, Prob) of the coordinate ascent maximize_general ran before the
# barrier solver replaced it, on the instances ``frozen_instance`` builds
COORDINATE_ASCENT = (
    (3, 3, 1, 0.0006806691715544618),
    (3, 3, 2, 0.0012349149725361733),
    (3, 4, 1, 0.0005230355727395296),
    (3, 4, 2, 0.00010486101084422657),
    (4, 4, 1, 4.313179205449437e-08),
    (4, 4, 2, 3.0960058570575636e-10),
    (4, 5, 1, 0.00019263583331468944),
    (4, 5, 2, 0.0003151017517189796),
    (5, 5, 1, 1.9275444160063394e-08),
    (5, 5, 2, 8.499586326565516e-15),
    (5, 6, 1, 2.000316659927072e-08),
    (5, 6, 2, 2.568992792530723e-05),
    (6, 6, 1, 3.121602267587192e-11),
    (6, 6, 2, 9.399009380392946e-08),
    (6, 7, 1, 6.735864467752792e-09),
    (6, 7, 2, 1.6876693879877113e-07),
    (8, 8, 1, 1.5165900984897118e-21),
    (8, 8, 2, 7.441036354876149e-20),
    (8, 9, 1, 2.0176849251050533e-11),
    (8, 9, 2, 3.010223212351335e-19),
)
# two-input (s, t): interior points, the corners s, t -> 1 and the diagonal t = s
TWO_INPUT_POINTS = (
    (0.0, 0.5), (0.25, 0.75), (0.5, 0.0), (0.75, 0.25), (0.9, 0.5), (0.5, 0.9),
    (0.999, 0.99), (0.99, 0.999), (1.0 - 1e-6, 0.5), (1.0 - 1e-9, 0.0), (0.0, 1.0 - 1e-9),
    (0.0, 0.0), (0.3, 0.3), (0.999, 0.999), (1.0 - 1e-9, 1.0 - 1e-9),
)


def flat_targets(n, d, rng, real=False):
    """States (1/sqrt d) sum_i |i> (x) V_k|i> with Haar V_k: both marginals are I/d.

    Where ``real`` the V_k are Haar orthogonal, and the states real-valued.
    """
    return [MultipartiteState(haar_unitary(d, rng, real).T.reshape(-1) / np.sqrt(d), (d, d))
            for _ in range(n)]


def frozen_instance(n, d, seed):
    rng = np.random.default_rng(seed)
    inputs = random_independent(n, d, rng)
    return inputs, flat_targets(n, d, rng)


def benchmark_instances():
    """The benchmark's instance generator, loaded from its file without changing it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "instances.py"
    spec = importlib.util.spec_from_file_location("perfbench_instances", path)
    instances = importlib.util.module_from_spec(spec)
    # its dataclass looks the module up by name while the file runs
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sys.modules, spec.name, instances)
        spec.loader.exec_module(instances)
    return instances


def sweep_pass(seed):
    """optimize-sweep's first pass at ``seed``, placed as the benchmark places it: the 14
    two-input grid points, then seven shapes for each n = d = 3..8."""
    instances = benchmark_instances()
    grid = instances.TWO_INPUT_GRID
    problems = [instances.two_input("optimize-sweep", seed, index, *point)
                for index, point in enumerate(grid)]
    shapes = [(n, number) for n in range(3, 9) for number in range(7)]
    problems += [instances.probabilistic("optimize-sweep", seed, len(grid) + index, n, n, number)
                 for index, (n, number) in enumerate(shapes)]
    return problems


def two_state_matrices(s, t):
    return np.array([[1.0, s], [s, 1.0]]), np.array([[1.0, t], [t, 1.0]])


class TestSuccessProbability:
    def test_unit_efficiencies(self):
        assert success_probability((1.0, 1.0)) == 1.0

    def test_halves(self):
        assert success_probability((0.5, 0.5)) == pytest.approx(0.25)

    def test_equal_optimum_rounding(self):
        assert success_probability((0.2929, 0.2929)) == pytest.approx(0.0858, abs=1e-4)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            success_probability((1.1, 0.5))
        # NaN fails every comparison, so the range test must be written as inclusion
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            success_probability((np.nan, 0.5))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            feasible(np.eye(2), np.eye(2), (np.nan, 0.5))

    def test_rejects_no_efficiency(self):
        with pytest.raises(ValueError, match="^need at least one efficiency$"):
            success_probability([])


class TestFeasible:
    def test_small_efficiency_limit(self, rng):
        # for vanishing efficiencies the residual tends to the input Gram
        for _ in range(10):
            inputs = random_independent(3, 4, rng)
            a = gram(inputs)
            ok, lowest = feasible(a, np.eye(3), np.full(3, 1e-9))
            assert ok
            assert lowest > 0

    def test_boundary_when_grams_match(self):
        a, x = two_state_matrices(0.5, 0.5)
        ok, lowest = feasible(a, x, (1.0, 1.0))
        assert ok
        assert lowest == pytest.approx(0.0, abs=1e-12)

    def test_two_state_threshold(self):
        # with s = 1/sqrt2 and orthogonal targets: feasible iff gamma <= 1 - 1/sqrt2
        a, x = two_state_matrices(INV2, 0.0)
        ok_in, lowest_in = feasible(a, x, (0.29, 0.29))
        ok_out, lowest_out = feasible(a, x, (0.30, 0.30))
        assert ok_in and lowest_in == pytest.approx(0.71 - INV2, abs=1e-12)
        assert not ok_out and lowest_out == pytest.approx(0.70 - INV2, abs=1e-12)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sizes differ"):
            feasible(np.eye(2), np.eye(3), (0.5, 0.5))

    @pytest.mark.parametrize("solve", [
        maximize_general,
        uniform_feasibility_boundary,
        # every other public function of (A, X_P), at valid efficiencies or a valid dual point
        pytest.param(lambda a, x: residual_matrix(a, x, (0.5, 0.5)), id="residual_matrix"),
        pytest.param(lambda a, x: feasible(a, x, (0.5, 0.5)), id="feasible"),
        pytest.param(lambda a, x: certify(a, x, (0.5, 0.5)), id="certify"),
        pytest.param(lambda a, x: dual_bound(a, x, (np.eye(2), np.ones(2))), id="dual_bound"),
    ])
    @pytest.mark.parametrize("a, x, message", [
        (np.eye(2), np.eye(3), r"sizes differ: A is \(2, 2\), X_P is \(3, 3\)"),
        (SKEW, np.eye(2), "^A is not Hermitian"),
        (np.eye(2), SKEW, "^X_P is not Hermitian"),
        # a non-finite entry makes the Hermitian residual NaN
        (np.full((2, 2), np.nan), np.eye(2), "^A is not Hermitian: residual nan"),
        (np.eye(2), np.diag([1.0, np.inf]), "^X_P is not Hermitian: residual nan"),
        # the barrier ignores the cap gamma_i <= 1 that a unit diagonal sets, and on this
        # pair it returned gamma = (0.9235, 1) with certified gap 5.6
        (np.array([[1.0, 0.5], [0.5, 2.0]]), np.array([[1.0, 0.3], [0.3, 1.0]]),
         "^A is not the Gram matrix of unit states: diagonal entry 1 is off 1 by 1.000e"),
        (np.eye(2), np.diag([1.0, 0.5]), "^X_P is not the Gram matrix of unit states"),
    ])
    def test_solve_names_the_faulty_matrix(self, solve, a, x, message):
        with pytest.raises(ValueError, match=message):
            solve(a, x)

    def test_feasible_judges_every_pair_the_solver_solves(self):
        # A is Hermitian only to 1e-12; X is its Hermitian part, so the solve saturates at
        # gamma = 1 and the residual is zero, not the anti-Hermitian remainder of A
        a = np.array([[1.0, 0.5 + 1e-12j], [0.5, 1.0]])
        x = (a + a.conj().T) / 2
        gammas, prob = maximize_general(a, x)
        assert np.array_equal(gammas, np.ones(2)) and prob == 1.0
        assert feasible(a, x, gammas) == (True, 0.0)

    def test_residual_matrix_values(self):
        a, x = two_state_matrices(INV2, 0.0)
        residual = residual_matrix(a, x, (0.1, 0.1))
        assert np.allclose(residual, [[0.9, INV2], [INV2, 0.9]], atol=1e-12)


class TestMaxProbTwo:
    def test_equal_overlaps_reach_one(self):
        for value in (0.0, 0.3, 0.77, 1.0):
            prob, gammas = max_prob_two(value, value)
            assert prob == 1.0
            assert gammas == (1.0, 1.0)

    def test_parallel_inputs_with_distinct_targets(self):
        assert max_prob_two(1.0, 0.5)[0] == 0.0

    def test_orthogonal_inputs_with_half_targets(self):
        assert max_prob_two(0.0, 0.5)[0] == pytest.approx(4.0 / 9.0, abs=1e-15)

    def test_half_inputs_with_orthogonal_targets(self):
        prob, gammas = max_prob_two(0.5, 0.0)
        assert prob == pytest.approx(0.25, abs=1e-15)
        assert gammas[0] == gammas[1] == pytest.approx(0.5, abs=1e-15)

    def test_gammas_product_equals_probability(self):
        for s in (0.1, 0.4, 0.9):
            for t in (0.0, 0.5, 0.8):
                prob, (g1, g2) = max_prob_two(s, t)
                assert g1 * g2 == pytest.approx(prob, abs=1e-12)

    @pytest.mark.parametrize("s", [0.0, 0.3, 0.999, 1.0])
    def test_unit_target_overlap(self, s):
        # X is singular at t = 1, so det is linear in u and its one root gamma = (1 + s) / 2
        # decides, 1 at s = 1: the returned gamma is provably feasible, the next float up
        # is not, and both sit within a float or two of the root
        prob, gammas = max_prob_two(s, 1.0)
        gamma = gammas[0]
        assert gammas == (gamma, gamma) and prob == gamma * gamma
        assert gamma == pytest.approx((1.0 + s) / 2.0, rel=4 * _EPS, abs=0.0)
        a, x = two_state_matrices(s, 1.0)
        assert residual_is_psd(a, x, gammas)
        assert gamma == 1.0 or not residual_is_psd(a, x, np.nextafter(gammas, 2.0))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="s"):
            max_prob_two(1.2, 0.5)
        with pytest.raises(ValueError, match="t"):
            max_prob_two(0.5, -0.1)

    @given(
        s=st.floats(min_value=0.0, max_value=1.0),
        t=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounded_and_one_only_on_diagonal(self, s, t):
        prob, _ = max_prob_two(s, t)
        assert 0.0 <= prob <= 1.0
        if abs(s - t) > 1e-12:
            assert prob < 1.0
        if s == t:
            assert prob == 1.0

    def test_unimodal_in_target_overlap(self):
        for s in (0.0, 0.25, 0.5, 0.75, 1.0):
            t_grid = np.linspace(0.0, 1.0, 201)
            probs = [max_prob_two(s, float(t))[0] for t in t_grid]
            for t_left, p_left, p_right in zip(t_grid[:-1], probs[:-1], probs[1:]):
                if t_left + 1.0 / 200 <= s:
                    assert p_right >= p_left
                elif t_left >= s:
                    assert p_right <= p_left


class TestGridOracle:
    def test_unconstrained_origin(self):
        assert max_prob_grid_oracle(0.0, 0.0, 500) == 1.0

    def test_known_two_state_value(self):
        # the oracle is the independent check of the closed form
        expected = (1.0 - INV2) ** 2
        value = max_prob_grid_oracle(INV2, 0.0, 1000)
        assert abs(value - expected) <= 2.0 / 1000

    def test_agreement_on_coarse_lattice(self):
        grid_steps = 400
        for s in np.linspace(0.0, 1.0, 9):
            for t in np.linspace(0.0, 1.0, 9):
                closed = max_prob_two(float(s), float(t))[0]
                brute = max_prob_grid_oracle(float(s), float(t), grid_steps)
                assert abs(closed - brute) <= 2.0 / grid_steps


class TestMaximizeGeneral:
    def test_matches_closed_form_for_two_states(self):
        # the solver and max_prob_two read one quantity, the paper's formula to rounding
        for s, t in TWO_INPUT_POINTS:
            a, x = two_state_matrices(s, t)
            gammas, prob = maximize_general(a, x)
            assert (prob, tuple(gammas)) == max_prob_two(s, t), (s, t)
            assert prob == pytest.approx(paper_formula(s, t), rel=1e-14, abs=0.0), (s, t)
            assert feasible(a, x, gammas)[0]

    def test_identical_grams_give_unit_efficiencies(self):
        a, x = two_state_matrices(0.4, 0.4)
        gammas, prob = maximize_general(a, x)
        assert np.allclose(gammas, 1.0)
        assert prob == 1.0

    def test_single_input(self):
        # gamma = 1 is admissible for one unit state, and a 1 x 1 Gram matrix of a unit
        # state is [[1]]
        gammas, prob = maximize_general([[1.0]], [[1.0]])
        assert gammas.tolist() == [1.0] and prob == 1.0
        with pytest.raises(ValueError, match="^X_P is not the Gram matrix of unit states"):
            maximize_general([[1.0]], [[2.0]])

    def test_three_state_instance_beats_coarse_grid(self, rng):
        inputs = random_independent(3, 3, rng)
        a = gram(inputs)
        x = gram(cyclic_targets(3, 3).states)
        gammas, prob = maximize_general(a, x)
        ok, _ = feasible(a, x, gammas)
        assert ok
        # batched brute force over a coarse grid as an independent oracle
        axis = np.linspace(0.0, 1.0, 41)
        g1, g2, g3 = np.meshgrid(axis, axis, axis, indexing="ij")
        grid = np.stack([g1, g2, g3], axis=-1).reshape(-1, 3)
        roots = np.sqrt(grid)
        residuals = a[None, :, :] - (roots[:, :, None] * roots[:, None, :]) * x[None, :, :]
        lowest = np.linalg.eigvalsh(residuals)[:, 0]
        feasible_products = np.where(lowest >= -1e-10, np.prod(grid, axis=1), 0.0)
        assert prob >= float(np.max(feasible_products)) - 0.02

    def test_locally_undominated(self):
        a, x = two_state_matrices(0.5, 0.0)
        gammas, _ = maximize_general(a, x)
        for i in range(2):
            bumped = gammas.copy()
            bumped[i] = bumped[i] + 1e-4
            if bumped[i] > 1.0:
                continue
            ok, _ = feasible(a, x, bumped)
            assert not ok

    def test_search_never_calls_the_checked_test(self, monkeypatch, rng):
        # inputs are checked once per solve; Newton steps use bare factorizations
        calls = []
        for name in ("feasible", "psd_check"):
            original = getattr(optimizer, name)

            def counted(*args, _original=original, _name=name):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(optimizer, name, counted)
        a = gram(random_independent(3, 3, rng))
        x = gram(cyclic_targets(3, 3).states)
        maximize_general(a, x)
        uniform_feasibility_boundary(a, x)
        assert calls == []

    def test_singular_inputs_rejected(self):
        singular = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="singular"):
            maximize_general(singular, np.eye(2))


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=2, max_value=5),
    offset=st.floats(min_value=-BOUNDARY_OFFSET, max_value=BOUNDARY_OFFSET),
)
@settings(max_examples=60, deadline=None)
def test_search_predicate_matches_feasible(seed, n, offset):
    # the unchecked gamma = 1 test of A - X, handed sqrt(Gamma) X sqrt(Gamma) for X, answers
    # as the checked feasible() does, also within BOUNDARY_OFFSET of the uniform boundary,
    # where the answer flips
    rng = np.random.default_rng(seed)
    a, x, _ = _solve_inputs(gram(random_independent(n, n + 1, rng)),
                            gram([random_state(n + 1, rng) for _ in range(n)]))
    boundary = uniform_feasibility_boundary(a, x)
    trials = [np.full(n, boundary), np.full(n, min(boundary + BOUNDARY_OFFSET, 1.0)),
              np.clip(np.full(n, boundary + offset), 0.0, 1.0), rng.uniform(0.0, 1.0, n)]
    for gammas in trials:
        root = np.sqrt(gammas)
        assert _admissible(a, root[:, None] * root * x) == feasible(a, x, gammas)[0]


class TestUniformBoundary:
    def test_closed_form_sits_on_the_boundary(self, rng):
        for n in (2, 3, 5):
            a = gram(random_independent(n, n + 1, rng))
            x = gram([random_state(n + 1, rng) for _ in range(n)])
            boundary = uniform_feasibility_boundary(a, x)
            assert 0.0 < boundary < 1.0
            ok, lowest = feasible(a, x, np.full(n, boundary))
            assert ok and abs(lowest) <= 1e-12
            assert not feasible(a, x, np.full(n, boundary * (1.0 + 1e-6)))[0]

    def test_capped_at_one(self):
        with pytest.raises(ValueError, match="^X_P is not the Gram matrix of unit states"):
            uniform_feasibility_boundary(np.eye(2), np.diag([1.0, 0.5]))
        assert uniform_feasibility_boundary(*two_state_matrices(0.4, 0.4)) == pytest.approx(1.0)
        # A - c X has the eigenvalues (1 - c) +- (0.4 - 0.2 c)
        assert uniform_feasibility_boundary(*two_state_matrices(0.4, 0.2)) == pytest.approx(0.75)

    def test_singular_inputs_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            uniform_feasibility_boundary(np.ones((2, 2)), np.eye(2))


class TestSymmetricOptimum:
    """Problems whose optimum is known exactly: c*^n, with c* the uniform boundary.

    The feasible set in g = sqrt(gamma) is convex and sum log g_i is concave
    and symmetric, so when a permutation acting transitively on the inputs
    maps A and X both to themselves, or both to their conjugates, averaging an
    optimum over it gives an equal-efficiency optimum. The swap does so for
    every n = 2 pair; the cyclic shift does so for ``circulant_family``.
    """

    @staticmethod
    def assert_exact(a, x):
        n = a.shape[0]
        gammas, _ = maximize_general(a, x)
        true_gap = n * np.log(uniform_feasibility_boundary(a, x)) - log_prob(gammas)
        floor = rounding_floor(n, np.linalg.cond(a))
        assert -floor <= true_gap <= 2 * GAP_TOL
        assert certify(a, x, gammas)[0] >= true_gap - floor

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_two_inputs_at_any_phases(self, seed):
        rng = np.random.default_rng(seed)
        a = gram(random_independent(2, 3, rng))
        self.assert_exact(a, gram([random_state(3, rng) for _ in range(2)]))

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=3, max_value=16),
        extra=st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=80, deadline=None)
    def test_circulant_family(self, seed, n, extra):
        inputs, targets = circulant_family(n, n + extra, np.random.default_rng(seed))
        self.assert_exact(gram(inputs), gram(targets.states))

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("n", [32, 64])
    def test_circulant_family_at_large_n(self, n, seed):
        inputs, targets = circulant_family(n, n, np.random.default_rng(seed))
        self.assert_exact(gram(inputs), gram(targets.states))


@contextmanager
def counted_factorizations():
    """Calls inside the block, by name: ``_log_det_terms`` (one Cholesky each), the
    boundary Newton try's evaluations ``_eigensystem`` (one eigh each) and cluster steps
    ``_cluster_step``, the uniform boundary ``_uniform_boundary`` (one eigvalsh), and the
    eigensolvers, counted as ``eigh`` and ``eigvalsh``: the LAPACK kernels ``_eigh`` and
    ``_eigvalsh`` of ``qmask.hilbert``, through which every qmask module calls them."""
    calls = Counter()

    def counter(name, original):
        def counted(*args):
            calls[name] += 1
            return original(*args)

        return counted

    with pytest.MonkeyPatch.context() as patch:
        for name in ("_log_det_terms", "_eigensystem", "_cluster_step", "_uniform_boundary"):
            patch.setattr(optimizer, name, counter(name, getattr(optimizer, name)))
        for name in ("eigh", "eigvalsh"):
            patch_kernel(patch, f"_{name}", lambda kernel, _name=name: counter(_name, kernel))
        yield calls


@pytest.fixture
def factorizations():
    with counted_factorizations() as calls:
        yield calls


@contextmanager
def barrier_only():
    """Inside the block every solve of three or more inputs runs the barrier and returns its
    point, as the boundary Newton try declines. One or two inputs never reach the barrier."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimizer, "_boundary_newton", lambda *args: None)
        yield


def formula_gap(a, x, gammas):
    """``certify``'s gap without its rounding allowance: the duality formula's alone."""
    a, x, values = _solve_inputs(a, x, gammas)
    return _gap(a, x, _whitener(a), values, _formula_bound)[0]


def gaussian_pair(n, k):
    """Draw k of the large-n sample: Gaussian n x n inputs and n x n^2 targets, rows normalized."""
    rng = np.random.default_rng([11, n, k])
    rows = [rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)) for m in (n, n * n)]
    return [gram([MultipartiteState(row / np.linalg.norm(row)) for row in r]) for r in rows]


@st.composite
def tied_corners(draw):
    """(s, t) with 1 - s = 10^-U(6, 11.6) and 1 - t = r (1 - s), r in [0.5, 2]."""
    gap = 10.0 ** -draw(st.floats(6.0, 11.6))
    return 1.0 - gap, 1.0 - draw(st.floats(0.5, 2.0)) * gap


class TestMaximizeCertified:
    def test_log_det_derivatives_match_central_differences(self, rng):
        # at a non-uniform g, where B = X G and B^dagger = G X differ
        n = 4
        a = gram(random_independent(n, n, rng))
        x = gram(flat_targets(n, n, rng))
        whitener = _whitener(a)
        g = np.sqrt(uniform_feasibility_boundary(a, x)) * np.array([0.3, 0.8, 0.5, 0.65])

        def log_det(values):
            return -np.linalg.slogdet(a - np.outer(values, values) * x)[1]

        def terms(values):
            # the kernel returns half the gradient and Hessian
            half_gradient, half_hessian = _log_det_terms(whitener, x, values)
            return 2.0 * half_gradient, 2.0 * half_hessian

        gradient, hessian = terms(g)
        step = 1e-6 * np.min(g)
        for i in range(n):
            shift = np.zeros(n)
            shift[i] = step
            difference = (log_det(g + shift) - log_det(g - shift)) / (2 * step)
            assert difference == pytest.approx(gradient[i], rel=1e-6)
            column = (terms(g + shift)[0] - terms(g - shift)[0]) / (2 * step)
            assert np.max(np.abs(column - hessian[:, i])) <= 1e-6 * np.max(np.abs(hessian))
        assert np.allclose(hessian, hessian.T, rtol=0.0, atol=1e-9 * np.max(np.abs(hessian)))

    def test_strict_feasibility_needs_positive_g(self):
        # the residual I - G X G is the same at g and at -g, and positive definite here;
        # a negative g_i is still no point of the barrier's domain
        a, x = two_state_matrices(0.0, 0.5)
        whitener = _whitener(a)
        g = np.array([-0.5, 0.5])
        np.linalg.cholesky(np.eye(2) - np.outer(g, g) * x)
        assert _dual_factor(whitener, x, g) is None
        assert _log_det_terms(whitener, x, g) is None
        assert _dual_factor(whitener, x, np.abs(g)) is not None

    @pytest.mark.parametrize("n, d, seed, ascent", COORDINATE_ASCENT)
    def test_never_below_coordinate_ascent(self, n, d, seed, ascent):
        inputs, targets = frozen_instance(n, d, seed)
        a, x = gram(inputs), gram(targets)
        gammas, prob = maximize_general(a, x)
        # the ascent stepped up to 1e-10 past its boundaries; the barrier stops 1e-8 inside
        assert prob >= ascent * (1.0 - 1e-8)
        assert feasible(a, x, gammas)[0]
        gap, dual = certify(a, x, gammas)
        assert 0.0 <= gap <= 1e-6
        assert dual_bound(a, x, dual) - np.log(prob) == pytest.approx(gap, abs=1e-12)

    def test_newton_step_budget(self, factorizations):
        # the barrier's own budget, with the boundary Newton try declining: one
        # factorization at the start and one per damped Newton or tangent step;
        # with t growing 100-fold per stage, loose centring before the last stage
        # and a tangent step between stages, the solves on this list took 14 to 27,
        # 17 in the median; the budget leaves room for other BLAS builds
        steps = []
        for n, d, seed, _ in COORDINATE_ASCENT:
            inputs, targets = frozen_instance(n, d, seed)
            factorizations.clear()
            with barrier_only():
                maximize_general(gram(inputs), gram(targets))
            steps.append(factorizations["_log_det_terms"])
        assert max(steps) <= 32
        assert np.median(steps) <= 20

    @pytest.mark.parametrize("limit", range(1, 9))
    def test_step_limit_keeps_a_feasible_point(self, monkeypatch, limit):
        # a barrier solve cut short still returns a strictly feasible point, and
        # certify still bounds its distance from the optimum, if only loosely; on
        # this instance the cut at 5 systems lands right after the first tangent
        # step, and at 4 and 8 the tangent's own system would pass the limit
        inputs, targets = frozen_instance(4, 4, 1)
        a, x = gram(inputs), gram(targets)
        _, best = maximize_general(a, x)
        solves = []
        monkeypatch.setattr(optimizer, "_boundary_newton", lambda *args: None)
        monkeypatch.setattr(optimizer, "NEWTON_STEP_LIMIT", limit)
        patch_kernel(monkeypatch, "_solve", lambda solve: lambda *args: solves.append(args)
                     or solve(*args))
        gammas, prob = maximize_general(a, x)
        assert len(solves) <= limit
        assert feasible(a, x, gammas)[1] > 0.0
        assert prob < best
        assert certify(a, x, gammas)[0] >= np.log(best / prob)

    # three inputs on a qutrit at t = 1 - r (1 - s); the first example is the worst solve
    # of 200 such corners, which factored 18 399 systems when the step halvings ran outside
    # the limit; in the other two (2 of 3000 draws) a stage before the last reads a
    # negative decrement, and the solve ends at the last centred point, as a tangent step
    # from there reaches points no dual certifies. Two inputs never reach the barrier
    @given(corner=tied_corners(), seed=st.integers(0, 2**32 - 1))
    @example(corner=(0.9999999999974581, 0.999999999997127), seed=44)
    @example(corner=(0.9999999992721714, 0.9999999992122941), seed=658651313)
    @example(corner=(0.9999999999958836, 0.999999999992822), seed=1443136099)
    @settings(max_examples=60, deadline=None)
    def test_corner_solve_factors_within_the_step_limit(self, corner, seed):
        s, t = corner
        inputs, targets = overlap_family(s, t, seed, d=3, n=3)
        a, x = gram(inputs), gram(targets.states)
        with counted_factorizations() as factorizations, barrier_only():
            gammas, _ = maximize_general(a, x)
        # the start's factorization, then at most one per counted system
        assert factorizations["_log_det_terms"] <= optimizer.NEWTON_STEP_LIMIT + 1
        # the residual's least eigenvalue (cond(A) near 1e12) is below eigvalsh's
        # rounding, so its sign is noise; the Cholesky factor behind a finite
        # certified gap shows the point is strictly feasible
        assert feasible(a, x, gammas)[0]
        assert np.isfinite(certify(a, x, gammas)[0])

    @pytest.mark.parametrize("k", range(8))
    @pytest.mark.parametrize("n", [16, 64])
    def test_last_stage_centres_to_its_path_gap(self, n, k):
        # the last stage, t = 1 / UNIFORM_SHORTFALL at every n, centres while its decrement
        # falls, so the duality formula's gap reads the central path's 2n / t to within the
        # rounding allowance certify adds to it. At n = 64 a last stage at t = 1e12 stalls
        # in rounding, with formula gaps of 2.8e-5 to 4.6e-4 on five of these draws
        a, x = gaussian_pair(n, k)
        with barrier_only():
            gammas, _ = maximize_general(a, x)
        t = 1.0 / UNIFORM_SHORTFALL
        formula = formula_gap(a, x, gammas)
        assert abs(formula - 2.0 * n / t) <= certify(a, x, gammas)[0] - formula

    @pytest.mark.parametrize("n, d, seed", [(3, 3, 1), (3, 4, 2), (4, 4, 1)])
    def test_optimum_builds_a_verified_masker(self, n, d, seed):
        inputs, targets = frozen_instance(n, d, seed)
        gammas, _ = maximize_general(gram(inputs), gram(targets))
        masker = build_probabilistic(inputs, from_states(targets), gammas)
        assert masker.unitary.dim == 2 * d * d <= 100
        assert verify_masking(masker).passed

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=3, max_value=8),
        extra=st.integers(min_value=0, max_value=2),
    )
    @example(seed=12369536, n=8, extra=0)
    @settings(max_examples=40, deadline=None)
    def test_random_optimum_is_certified(self, seed, n, extra):
        # inputs of condition number at most 1e6 (a Gram of n unit states has
        # eigenvalues at most n) against random targets in dimension n + extra; two inputs
        # have no dual point (TestTwoInputBracket)
        rng = np.random.default_rng(seed)
        a = gram(random_independent(n, n, rng, min_gram_eig=n * 1e-6))
        x = gram([random_state(n + extra, rng) for _ in range(n)])
        assert np.linalg.cond(a) <= 1e6
        gammas, prob = maximize_general(a, x)
        # the residual is positive definite in exact arithmetic. Its computed least eigenvalue
        # can fall below eigvalsh's rounding: -4.8e-16 at the @example, where the margin of
        # UNIFORM_SHORTFALL / n on the whitened residual is about 1e-16 unwhitened
        assert feasible(a, x, gammas)[0]
        assert residual_is_psd(a, x, gammas, definite=True)
        gap, dual = certify(a, x, gammas)
        assert 0.0 <= gap <= 1e-6
        assert dual_bound(a, x, dual) - np.log(prob) == pytest.approx(gap, abs=1e-12)

    def test_any_dual_point_bounds_the_optimum(self, rng):
        # weak duality: every C and h give an upper bound, finite or not
        a = gram(random_independent(3, 3, rng))
        x = gram(flat_targets(3, 3, rng))
        log_best = np.log(maximize_general(a, x)[1])
        for _ in range(50):
            c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            assert dual_bound(a, x, (c, rng.uniform(0.0, 1.0, 3))) >= log_best
        assert dual_bound(a, x, (np.zeros((3, 3)), np.ones(3))) == np.inf

    def test_certify_edge_points(self):
        a, x = two_state_matrices(0.5, 0.0)
        # no efficiency exceeds 1, so unit efficiencies are optimal if admissible
        assert certify(a, x, (1.0, 1.0)) == (0.0, None)
        # beyond the boundary gamma <= 1/2, and at gamma = 0, nothing is certified
        assert certify(a, x, (0.9, 0.9)) == (np.inf, None)
        # (0, 0.3) is feasible, but log Prob is -inf
        assert certify(a, x, (0.0, 0.3)) == (np.inf, None)
        # no barrier point of three inputs has g_i = 0: _dual_factor alone rejects it
        assert certify(np.eye(3), np.eye(3), (0.0, 0.3, 0.3)) == (np.inf, None)
        with pytest.raises(ValueError, match="need 2 efficiencies"):
            certify(a, x, (0.1, 0.1, 0.1))
        with pytest.raises(ValueError, match="^A is not Hermitian"):
            certify(SKEW, x, (0.1, 0.1))

    @pytest.mark.parametrize("dual, message", [
        ((np.eye(2), np.ones(3)), "3 x 3 matrix and 3 reals"),
        ((np.eye(3), np.ones(2)), "3 x 3 matrix and 3 reals"),
        ((np.full((3, 3), np.nan), np.ones(3)), "finite"),
    ])
    def test_dual_bound_rejects_malformed_points(self, dual, message):
        with pytest.raises(ValueError, match=message):
            dual_bound(np.eye(3), np.eye(3), dual)


def counted_solve(a, x):
    """``maximize_general(a, x)`` and the calls ``counted_factorizations`` counts in it."""
    with counted_factorizations() as calls:
        gammas, prob = maximize_general(a, x)
    return gammas, prob, calls


class TestTwoInputBracket:
    """One or two inputs take ``_two_input_low`` alone: equal efficiencies at the largest
    float whose residual is PSD in exact arithmetic, and a certificate from
    ``_two_input_high`` that needs no dual point. ``helpers.two_input_optimum`` is the
    independent judge of both ends."""

    @staticmethod
    def corner_sample():
        """40 tied corners, drawn as ``tied_corners`` draws them: 1 - s = 10^-U(6, 11.6),
        1 - t = r (1 - s) with r in [0.5, 2], on a qubit or a qutrit."""
        rng = np.random.default_rng(19)
        for _ in range(40):
            gap, r = 10.0 ** -rng.uniform(6.0, 11.6), rng.uniform(0.5, 2.0)
            d, seed = int(rng.integers(2, 4)), int(rng.integers(0, 2**31))
            yield 1.0 - gap, 1.0 - r * gap, seed, d

    def test_corners_match_the_exact_oracle(self):
        for s, t, seed, d in self.corner_sample():
            inputs, targets = overlap_family(s, t, seed, d=d)
            a, x, _ = _solve_inputs(gram(inputs), gram(targets.states))
            low, high = two_input_optimum(a, x)
            assert _two_input_low(a, x) == low, (s, t, seed, d)
            gammas, prob = maximize_general(a, x)
            # certify's search of the upper end, from its start at the returned point
            start = np.sqrt(gammas[0] * gammas[-1])
            assert _two_input_high(_pair_entries(a, x), start) == high, (s, t, seed, d)
            # the largest provably feasible float, and the bracket spans at most two floats
            assert residual_is_psd(a, x, gammas), (s, t, seed, d)
            assert (gammas == 1.0).all() or not residual_is_psd(a, x, np.nextafter(gammas, 2.0))
            if (gammas < 1.0).all():
                assert gammas.tolist() == [low, low] and prob == low * low
                assert high <= np.nextafter(np.nextafter(low, 2.0), 2.0)
            # no dual point, and 2 log(high / low) with its rounding bound: at most 2 ulps,
            # 4 eps, in log Prob, and at least the oracle's high over each gamma_i
            gap, dual = certify(a, x, gammas)
            assert dual is None and 0.0 <= gap <= 4.5 * _EPS, (s, t, seed, d, gap)
            if (gammas < 1.0).all():
                assert gap >= sum(np.log1p((high - g) / g) for g in gammas), (s, t, seed, d)
                assert np.log(prob) + gap >= 2.0 * np.log(high) - 2.0 * _EPS, (s, t, seed, d)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @example(seed=0)
    @example(seed=2**32 - 1)
    @settings(max_examples=150, deadline=None)
    def test_two_inputs_take_the_exact_routine(self, seed):
        # no barrier, no boundary try, no uniform boundary: A's whitener and the gamma = 1
        # test are the solve's only decompositions. The optimum is c*^2 with c* the uniform
        # boundary, which its own eigensolve computes only to rounding
        rng = np.random.default_rng(seed)
        a = gram(random_independent(2, 3, rng))
        x = gram([random_state(3, rng) for _ in range(2)])
        gammas, prob, calls = counted_solve(a, x)
        assert calls == {"eigh": 1, "eigvalsh": 1}
        assert gammas[0] == gammas[1] and prob == gammas[0] * gammas[1]
        bound = uniform_feasibility_boundary(a, x) ** 2
        floor = rounding_floor(2, np.linalg.cond(a))
        assert bound * (1.0 - floor) <= prob <= bound * (1.0 + floor)

    @pytest.mark.parametrize("s, t", TWO_INPUT_POINTS)
    def test_two_input_certificate(self, s, t):
        # one quantity: the solver's point is max_prob_two's, and its certificate is
        # 2 log(high / low) plus its rounding bound, with no dual point
        a, x = two_state_matrices(s, t)
        gammas, prob = maximize_general(a, x)
        gap, dual = certify(a, x, gammas)
        assert dual is None
        if prob == 1.0:
            assert gap == 0.0
            return
        assert 0.0 < gap <= 4.5 * _EPS
        low, high = two_input_optimum(a, x)
        assert gammas.tolist() == [low, low]
        # the oracle's high bounds the paper's formula in exact arithmetic, and the gap
        # reaches it: at least 2 log(high / low), which certify sums term by term
        assert paper_formula(Fraction(s), Fraction(t)) <= Fraction(high) ** 2
        assert gap >= 2.0 * np.log1p((high - low) / low)
        # the certified bound covers the paper's float formula, up to its rounding and log's
        assert np.log(paper_formula(s, t)) <= np.log(prob) + gap + 4.0 * _EPS
        assert prob * np.exp(gap) >= paper_formula(s, t) * (1.0 - 4.0 * _EPS)

    def test_corner_at_the_rounding_floor_builds_a_verified_masker(self):
        # at 1 - s = 2.7e-12 (cond(A) = 7e11) the residual at the optimum is singular up to
        # rounding, yet the masker verifies
        s, t = 0.9999999999972616, 0.9999999999968378
        inputs, targets = overlap_family(s, t, 2)
        a, x = gram(inputs), gram(targets.states)
        gammas, prob = maximize_general(a, x)
        assert feasible(a, x, gammas)[0]
        assert verify_masking(build_probabilistic(inputs, targets, gammas)).passed
        # the closed form of the unrotated pair, which the rotation's rounding moves
        bound = paper_formula(s, t)
        assert abs(prob / bound - 1.0) <= rounding_floor(2, np.linalg.cond(a))

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), d=st.sampled_from([2, 3]))
    @example(seed=0, d=2)
    @example(seed=0, d=3)
    @settings(max_examples=30, deadline=None)
    def test_optimum_builds_a_verified_masker(self, seed, d):
        # two inputs against flat targets at any phases
        rng = np.random.default_rng(seed)
        inputs, targets = random_independent(2, d, rng), from_states(flat_targets(2, d, rng))
        gammas, _ = maximize_general(gram(inputs), gram(targets.states))
        assert verify_masking(build_probabilistic(inputs, targets, gammas)).passed

    def test_one_input_is_the_pair_diag_a_diag_x(self):
        # a unit diagonal off 1 by up to the precision floor can still cap one input's
        # gamma below 1: the largest float with a - g^2 x >= 0
        a, x = np.array([[1.0]]), np.array([[1.0 + 2e-10]])
        gammas, prob = maximize_general(a, x)
        assert residual_is_psd(a, x, gammas)
        assert not residual_is_psd(a, x, np.nextafter(gammas, 2.0))
        assert prob == gammas[0] == pytest.approx(1.0 / (1.0 + 2e-10), rel=4 * _EPS, abs=0.0)
        gap, dual = certify(a, x, gammas)
        assert dual is None and 0.0 < gap <= 4.5 * _EPS


class TestTryGate:
    """Three or more inputs first try the boundary Newton solve, whose point is returned
    without a barrier solve when its formula gap, ``certify``'s gap before the rounding
    allowance, is within 3n UNIFORM_SHORTFALL. Every other problem runs the barrier and
    returns its point, which its last stage t = 1 / UNIFORM_SHORTFALL centres at the try's
    own target."""

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=3, max_value=16),
        extra=st.integers(min_value=0, max_value=2),
        barrier=st.booleans(),
    )
    @example(seed=0, n=3, extra=0, barrier=True)
    @example(seed=1, n=16, extra=2, barrier=True)
    @example(seed=1033, n=12, extra=2, barrier=True)  # cond(A) = 1.9e5
    # these two start with their top two eigenvalues within 1 %
    @example(seed=1, n=6, extra=0, barrier=False)
    @example(seed=3, n=16, extra=1, barrier=False)
    @settings(max_examples=80, deadline=None)
    def test_circulant_families_run_the_barrier(self, seed, n, extra, barrier):
        # the optimum is c*^n, with equal efficiencies: the boundary Newton try, or the
        # barrier where the try declines or is made to, reaches c*^n within certify's gap
        inputs, targets = circulant_family(n, n + extra, np.random.default_rng(seed))
        a, x = gram(inputs), gram(targets.states)
        with barrier_only() if barrier else nullcontext():
            gammas, _, calls = counted_solve(a, x)
        if barrier:
            assert calls["_log_det_terms"] > 0
        true_gap = n * np.log(uniform_feasibility_boundary(a, x)) - log_prob(gammas)
        floor = rounding_floor(n, np.linalg.cond(a))
        assert -floor <= true_gap <= certify(a, x, gammas)[0] + floor

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=3, max_value=8),
        extra=st.integers(min_value=0, max_value=2),
    )
    @example(seed=0, n=3, extra=0)
    @example(seed=0, n=6, extra=0)  # the first balancing step meets a negative (K g)_i
    @settings(max_examples=60, deadline=None)
    def test_three_or_more_inputs_take_the_boundary_try(self, seed, n, extra):
        # three or more inputs go to the boundary Newton try, whose point returns only
        # when certified, and to the barrier where it is not
        rng = np.random.default_rng(seed)
        a = gram(random_independent(n, n + extra, rng))
        x = gram([random_state(n + extra, rng) for _ in range(n)])
        gammas, _, calls = counted_solve(a, x)
        assert calls["_eigensystem"] > 0
        assert calls["_log_det_terms"] > 0 or certify(a, x, gammas)[0] <= GAP_TOL

    def test_try_within_its_formula_gap_is_solved_once(self):
        # a try whose point is strictly feasible with a formula gap within its gate, but whose
        # certified gap is mostly rounding allowance (about 1.9e-7 at n = 32): the formula gap
        # alone gates the try, so the point is returned without a barrier solve. The barrier,
        # run alone, returns the same Prob with a certified gap within 1 % of it
        a, x = gaussian_pair(32, 0)
        tried = []
        with pytest.MonkeyPatch.context() as patch:
            # the solve's one _gap call is the gate's, on the try's point
            patch.setattr(optimizer, "_gap", lambda *args: tried.append(args[3]) or _gap(*args))
            gammas, prob, calls = counted_solve(a, x)
        (trial,) = tried
        assert gammas is trial
        assert calls["_eigensystem"] > 0
        assert calls["_log_det_terms"] == 0
        gap = certify(a, x, gammas)[0]
        assert formula_gap(a, x, gammas) <= GAP_TOL < gap
        with barrier_only():
            barrier_gammas, barrier_prob = maximize_general(a, x)
        assert np.log(prob) == pytest.approx(np.log(barrier_prob), abs=1e-11)
        assert gap == pytest.approx(certify(a, x, barrier_gammas)[0], rel=1e-2)

    @pytest.mark.parametrize("n", [32, 64])
    def test_try_failing_its_formula_gate_returns_the_barriers_bytes(self, n):
        # draw 1 of the large-n sample: the try stops short of its target, with a formula
        # gap of 1.8 (n = 32) and 1.7 (n = 64) times 2n UNIFORM_SHORTFALL, so the barrier
        # runs, and its point is returned as the barrier-only solve returns it
        a, x = gaussian_pair(n, 1)
        tried = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(optimizer, "_boundary_newton",
                          lambda *args: tried.append(_boundary_newton(*args)) or tried[-1])
            gammas, _, calls = counted_solve(a, x)
        (trial,) = tried
        assert formula_gap(a, x, trial) > 3.0 * n * UNIFORM_SHORTFALL
        assert calls["_log_det_terms"] > 0
        with barrier_only():
            barrier_gammas, _ = maximize_general(a, x)
        assert gammas.tobytes() == barrier_gammas.tobytes()

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_benchmark_sweep_is_solved_once(self, factorizations, seed):
        # the first pass of optimize-sweep: every try is returned, and no two-input solve
        # decomposes anything past A's whitener and the gamma = 1 test
        problems = sweep_pass(seed)
        assert len(problems) == 56
        for index, problem in enumerate(problems):
            factorizations.clear()
            maximize_general(*problem.gram_pair())
            assert factorizations["_log_det_terms"] == 0
            if index < 14:
                assert factorizations == {"eigh": 1, "eigvalsh": 1}, index

    def test_benchmark_sweep_shapes_take_the_try(self, factorizations):
        # optimize-sweep's 42 Gram pairs of three or more inputs, which every seed places
        # by unitaries: no solve runs the barrier, and only shape 52, random_shape(8, 8, 3),
        # takes pair steps
        instances = benchmark_instances()
        paired = []
        for n in range(3, 9):
            for number in range(7):
                inputs, targets = instances.random_shape(n, n, number)
                factorizations.clear()
                maximize_general(gram([StateVector(row) for row in inputs]),
                                 gram([StateVector(row) for row in targets]))
                assert factorizations["_log_det_terms"] == 0, (n, number)
                if factorizations["_cluster_step"]:
                    paired.append((n, number))
        assert paired == [(8, 3)]

    @pytest.mark.parametrize("case, expected", [
        ("saturated", (1, 1)), ("two-inputs", (1, 1)), ("barrier", (1, 2)), ("newton", (1, 2)),
        ("cluster", (1, 2))])
    def test_each_solve_decomposes_three_matrices_at_most(self, factorizations, case, expected):
        # A's whitener (eigh) and the gamma = 1 test (eigvalsh); past that test, one or two
        # inputs decompose nothing more, and three or more make
        # one eigh per evaluation of the boundary Newton try, within its budget,
        # then either the eigvalsh that scales its predicted last step onto the boundary
        # or, where the barrier runs, the uniform boundary's eigvalsh. Each cluster step
        # also decomposes two r x r multipliers (an eigh and an eigvalsh), not an n x n
        # matrix.
        # The barrier case is an asymmetric three-input pair whose try declines at its
        # first Newton decrement (-67); the newton case is accepted at a simple top
        # eigenvalue, and the cluster case at a double one
        if case == "barrier":
            rng = np.random.default_rng(189)
            a = gram(random_independent(3, 4, rng))
            x = gram([random_state(4, rng) for _ in range(3)])
        elif case in ("newton", "cluster"):
            inputs, targets = frozen_instance(4, 4, 1 if case == "newton" else 22)
            a, x = gram(inputs), gram(targets)
        else:
            a, x = two_state_matrices(0.4, 0.4 if case == "saturated" else 0.0)
        factorizations.clear()
        maximize_general(a, x)
        evaluations, cluster_steps = factorizations["_eigensystem"], factorizations["_cluster_step"]
        assert evaluations <= _BOUNDARY_EVALUATIONS
        assert (evaluations > 0) == (case in ("barrier", "newton", "cluster"))
        assert (cluster_steps > 0) == (case == "cluster")
        assert (factorizations["eigh"] - evaluations - cluster_steps,
                factorizations["eigvalsh"] - cluster_steps) == expected
        assert (factorizations["_log_det_terms"] > 0) == (case == "barrier")

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=2, max_value=64),
        barrier=st.booleans(),
    )
    @example(seed=0, n=2, barrier=False)
    @example(seed=0, n=2, barrier=True)
    @example(seed=0, n=64, barrier=True)
    # c* = 7.2e-7, so Prob = c*^63 underflows to 0.0 and log Prob is summed from the gammas
    @example(seed=207034607, n=63, barrier=False)
    @settings(max_examples=30, deadline=None)
    def test_certificate_bounds_the_true_gap_of_circulant_families(self, seed, n, barrier):
        # the optimum is c*^n, so log c*^n - log Prob is the true gap, on either path:
        # infinite gaps fail the try's gate and return the barrier's point; two inputs take
        # neither
        inputs, targets = circulant_family(n, n, np.random.default_rng(seed))
        a, x = gram(inputs), gram(targets.states)
        with counted_factorizations() as calls, pytest.MonkeyPatch.context() as patch:
            if barrier:
                patch.setattr(optimizer, "_gap", lambda *args: (np.inf, None))
            gammas, _ = maximize_general(a, x)
        assert (calls["_eigensystem"] > 0) == (n > 2)
        if barrier or n <= 2:
            assert (calls["_log_det_terms"] > 0) == (barrier and n > 2)
        true_gap = n * np.log(uniform_feasibility_boundary(a, x)) - log_prob(gammas)
        # c* itself is computed, so each comparison holds up to its rounding
        floor = rounding_floor(n, np.linalg.cond(a))
        assert certify(a, x, gammas)[0] >= true_gap - floor
        assert true_gap >= -floor


class TestExactFeasibility:
    """Returned efficiencies judged in exact arithmetic by ``helpers.residual_is_psd``, not by
    the floating-point Cholesky factorization of the whitened residual that the solver applies."""

    def test_sweep_points_are_exactly_feasible(self):
        # optimize-sweep's first pass at seed 1: every returned point with some gamma_i < 1,
        # the 42 shapes of n >= 3 and 10 of the 14 two-input grid points
        checked = Counter()
        for problem in sweep_pass(1):
            a, x, _ = _solve_inputs(*problem.gram_pair())
            gammas, _ = maximize_general(a, x)
            if (gammas < 1.0).any():
                checked[a.shape[0]] += 1
                assert residual_is_psd(a, x, gammas)
        assert checked == {2: 10, **{n: 7 for n in range(3, 9)}}

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_sweep_corner_point_is_exactly_feasible(self, seed):
        # grid point 12, (s, t) = (1 - 1e-9, 0), cond(A) = 2e9, where the uniform boundary c*
        # from a float eigensolve lies above the exact optimum at seeds 3, 7, 9 and 10: the
        # returned gamma is the largest float whose residual is PSD in exact arithmetic
        problem = sweep_pass(seed)[12]
        assert (problem.s, problem.t) == pytest.approx((1.0 - 1e-9, 0.0), abs=1e-12)
        a, x, _ = _solve_inputs(*problem.gram_pair())
        gammas, _ = maximize_general(a, x)
        assert (gammas < 1.0).all()
        assert residual_is_psd(a, x, gammas)
        assert not residual_is_psd(a, x, np.nextafter(gammas, 2.0))

    def test_unit_efficiencies_are_admitted_within_the_rounding_floor(self):
        # gamma = 1 is returned where _admissible finds A - X's least eigenvalue at or above
        # minus its rounding floor: on the sweep's two-input grid, points 0, 4, 7 and 13 at
        # every seed. There the residual plus rounding_floor(2) I is PSD in exact arithmetic,
        # and the residual itself only by chance, at 3 of these 40 solves
        unit, exact = set(), set()
        for seed in range(1, 11):
            for index, problem in enumerate(sweep_pass(seed)[:14]):
                a, x, _ = _solve_inputs(*problem.gram_pair())
                gammas, _ = maximize_general(a, x)
                if (gammas == 1.0).all():
                    unit.add((seed, index))
                    assert residual_is_psd(a, x, gammas, rounding_floor(2))
                    if residual_is_psd(a, x, gammas):
                        exact.add((seed, index))
        assert unit == {(seed, index) for seed in range(1, 11) for index in (0, 4, 7, 13)}
        assert exact == {(1, 7), (4, 0), (7, 13)}


def faulting_pairs():
    """Gram pairs whose boundary Newton try fails inside: a third input and target
    orthogonal to the rest leave lambda_max flat in y_3, so the Newton step overflows
    exp(y) (the two overlap pairs, as tests/test_tolerance.py's corners draw them) or
    the Newton matrix is singular (the cyclic pair)."""
    for t in (1.0 - 2.0 * (1.0 - 0.9), 1.0):
        inputs, targets = overlap_family(0.9, t, 0, d=3, n=3)
        yield pytest.param(gram(inputs), gram(targets.states), id=f"overlap-t={t:g}")
    inputs = [basis_state(3, 0), StateVector(np.array([0.6, 0.8, 0.0])), basis_state(3, 2)]
    yield pytest.param(gram(inputs), gram(cyclic_targets(3, 3).states), id="cyclic")


def rank_one_pair(n, d, rng):
    """A Gram pair (A, X) with targets that are one state up to phases, so X has rank one,
    and inputs with those phases whose Gram matrix is otherwise I - E, E >= 0 entrywise
    of spectral radius at most 0.9. Then K = Re(X o (A^-1)^T) = (I - E)^-1 >= 0
    entrywise: L = log g' K g is convex in y = log g, and the Newton objective concave."""
    e = rng.uniform(size=(n, n))
    e += e.T
    np.fill_diagonal(e, 0.0)
    e *= rng.uniform(0.1, 0.9) / np.linalg.eigvalsh(e)[-1]
    frame = haar_unitary(d, rng)[:, :n] @ np.linalg.cholesky(np.eye(n) - e).T
    phases = np.exp(2j * np.pi * rng.uniform(size=n))
    target = random_state(d, rng).amplitudes
    return (gram([StateVector(phase * column) for phase, column in zip(phases, frame.T)]),
            gram([StateVector(phase * target) for phase in phases]))


class TestBoundaryNewton:
    """For three or more inputs ``maximize_general`` first tries Newton's method on the
    boundary lambda_max(N G X G N^dagger) = 1 and returns its point when its formula gap is
    within 3n UNIFORM_SHORTFALL; otherwise the barrier runs from scratch."""

    @staticmethod
    def draw_point(seed, n, real):
        """A Gram pair of n inputs against flat targets, real-valued where ``real``, its
        whitener and a point y."""
        rng = np.random.default_rng(seed)
        a = gram(random_independent(n, n, rng, real=real))
        x = gram(flat_targets(n, n, rng, real))
        return x, _whitener(a), rng.uniform(-0.5, 0.5, n)

    @staticmethod
    def central_difference(function, y, i, step=1e-4):
        """d function / dy_i at y by the five-point stencil, accurate to O(step^4): at
        n = 3 on real pairs the two-point one's O(step^2) error reached 1.8e-9."""
        shift = np.zeros(y.size)
        shift[i] = step
        return (8.0 * (function(y + shift) - function(y - shift))
                - (function(y + 2 * shift) - function(y - 2 * shift))) / (12.0 * step)

    # the derivatives are smooth where the eigenvalues differentiated stay apart from
    # the next one down; the draws keep them at least 5 % apart
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=3, max_value=12),
        real=st.booleans(),
    )
    @example(seed=20250810, n=5, real=False)
    @example(seed=0, n=12, real=True)
    @settings(max_examples=30, deadline=None)
    def test_top_eigenvalue_derivatives_match_central_differences(self, seed, n, real):
        x, whitener, y = self.draw_point(seed, n, real)

        def log_top(values):
            m = whitener * np.exp(values)
            return np.log(np.linalg.eigvalsh(m @ x @ m.conj().T)[-1])

        def top_gradient(values):
            return _top_terms(x, _eigensystem(whitener, x, values))[1]

        eigensystem = _eigensystem(whitener, x, y)
        assume(eigensystem[0][-2] <= 0.95 * eigensystem[0][-1])
        value, gradient, hessian = _top_terms(x, eigensystem)
        assert value == pytest.approx(log_top(y), abs=1e-14)
        # L(y + c) = L(y) + 2c, so the gradient sums to 2 and the Hessian's rows to 0
        assert gradient.sum() == pytest.approx(2.0, abs=1e-12)
        assert np.max(np.abs(hessian.sum(axis=1))) <= 1e-12
        for i in range(n):
            assert self.central_difference(log_top, y, i) == pytest.approx(gradient[i], abs=1e-9)
            column = self.central_difference(top_gradient, y, i)
            assert np.max(np.abs(column - hessian[:, i])) <= 1e-8
        assert np.allclose(hessian, hessian.T, rtol=0.0, atol=1e-12 * np.max(np.abs(hessian)))

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=3, max_value=12),
        real=st.booleans(),
    )
    @example(seed=20250810, n=6, real=False)
    @example(seed=1, n=12, real=True)
    @settings(max_examples=30, deadline=None)
    def test_top_two_eigenvalue_sum_derivatives_match_central_differences(self, seed, n, real):
        # with W = I the cluster terms at r = 2 are the derivatives of lambda_1 + lambda_2,
        # smooth where lambda_2 > lambda_3; the eigenvector-rotation term couples the
        # cluster to the rest of the spectrum only
        x, whitener, y = self.draw_point(seed, n, real)

        def top_two(values):
            m = whitener * np.exp(values)
            return np.linalg.eigvalsh(m @ x @ m.conj().T)[-2:].sum()

        def two_gradient(values):
            return _cluster_terms(x, _eigensystem(whitener, x, values), np.eye(2))[1]

        eigensystem = _eigensystem(whitener, x, y)
        assume(eigensystem[0][-3] <= 0.95 * eigensystem[0][-2])
        jacobian, gradient, hessian = _cluster_terms(x, eigensystem, np.eye(2))
        assert jacobian.shape == (n, 2, 2)
        assert np.allclose(np.trace(jacobian, axis1=1, axis2=2).real, gradient, rtol=1e-12)
        assert np.max(np.abs(jacobian - jacobian.conj().transpose(0, 2, 1))) <= 1e-14
        # sum_i dH / dy_i = 2H, so the gradient sums to twice the value, the Hessian's
        # rows to twice the gradient
        assert gradient.sum() == pytest.approx(2.0 * top_two(y), rel=1e-12)
        assert np.max(np.abs(hessian.sum(axis=1) - 2.0 * gradient)) <= 1e-12 * top_two(y)
        # the sum is not scaled to 1 as L is, so the differences are compared relative to it
        scale = top_two(y)
        for i in range(n):
            difference = self.central_difference(top_two, y, i)
            assert difference == pytest.approx(gradient[i], abs=1e-9 * scale)
            column = self.central_difference(two_gradient, y, i)
            assert np.max(np.abs(column - hessian[:, i])) <= 1e-8 * scale
        assert np.allclose(hessian, hessian.T, rtol=0.0, atol=1e-12 * np.max(np.abs(hessian)))

    def test_cluster_hessian_is_that_of_the_canonical_cluster_block(self):
        # for any Hermitian W the cluster terms are the derivatives of <W, B(y)>, with
        # B(y) = S^-1 U0^dagger P H P U0 S^-1 the top two's block in the basis carried
        # from U0 without rotation inside the cluster: P projects on the cluster at y
        # and S = (U0^dagger P U0)^(1/2). This checks the off-diagonal pairs, which
        # W = I leaves out
        n = 6
        x, whitener, y0 = self.draw_point(20250810, n, False)
        weights = np.array([[1.3, 0.4 - 0.7j], [0.4 + 0.7j, 0.6]])
        base = _eigensystem(whitener, x, y0)[1][:, -2:]

        def carried(y):
            m = whitener * np.exp(y)
            h = m @ x @ m.conj().T
            vectors = np.linalg.eigh(h)[1][:, -2:]
            projected = base.conj().T @ vectors
            values, rotation = np.linalg.eigh(projected @ projected.conj().T)
            root_inverse = (rotation / np.sqrt(values)) @ rotation.conj().T
            block = projected @ vectors.conj().T @ h @ vectors @ projected.conj().T
            return np.trace(weights @ root_inverse @ block @ root_inverse).real

        eigensystem = _eigensystem(whitener, x, y0)
        assert eigensystem[0][-2] > 1.05 * eigensystem[0][-3]
        _, gradient, hessian = _cluster_terms(x, eigensystem, weights)
        scale = abs(carried(y0))
        step = 1e-4
        for i in range(n):
            shift = np.zeros(n)
            shift[i] = step
            difference = (carried(y0 + shift) - carried(y0 - shift)) / (2 * step)
            assert difference == pytest.approx(gradient[i], abs=1e-7 * scale)
            for j in range(n):
                other = np.zeros(n)
                other[j] = step
                second = (carried(y0 + shift + other) - carried(y0 + shift - other)
                          - carried(y0 - shift + other) + carried(y0 - shift - other)) / (4 * step**2)
                assert second == pytest.approx(hessian[i, j], abs=1e-5 * scale)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=3, max_value=12),
        extra=st.integers(min_value=0, max_value=2),
        real=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_accepted_points_are_certified(self, seed, n, extra, real):
        # from n of about 12 on the top eigenvalue is often double at the optimum, where
        # the cluster step returns the point; real draws give real Gram pairs, whose
        # top eigenvalue is double at the optimum of most shapes
        rng = np.random.default_rng(seed)
        a = gram(random_independent(n, n + extra, rng, real=real))
        x = gram(flat_targets(n, n + extra, rng, real))
        tried = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(optimizer, "_boundary_newton",
                          lambda *args: tried.append(_boundary_newton(*args)) or tried[-1])
            gammas, prob = maximize_general(a, x)
        assume(tried[0] is not None and gammas is tried[0])
        gap = certify(a, x, gammas)[0]
        assert 0.0 <= gap <= GAP_TOL
        with barrier_only():
            barrier_prob = maximize_general(a, x)[1]
        assert np.log(prob) >= np.log(barrier_prob) - gap

    def test_diverging_balancing_keeps_the_most_balanced_start(self):
        # inputs near the basis and targets one state up to phases, where K has entries
        # down to -0.44 of its largest diagonal one: the spread max/min of g_i (K g)_i
        # reads 2.87 at the uniform g, then 2.76, 3.55, 8.04 and 137 over four balancing
        # steps, and a try from the last of them declines. It starts from the first step
        n = 6
        rng = np.random.default_rng(137)
        noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        rows = np.eye(n) + 0.5 * noise / np.sqrt(2 * n)
        a = gram([StateVector(row / np.linalg.norm(row)) for row in rows])
        phases = np.exp(2j * np.pi * rng.uniform(size=n))
        a, x, _ = _solve_inputs(a, np.outer(phases.conj(), phases))
        whitener = _whitener(a)
        gammas = _boundary_newton(x, whitener)
        assert gammas is not None
        assert _gap(a, x, whitener, gammas)[0] <= GAP_TOL

    def test_double_top_eigenvalue_is_returned_by_the_cluster_step(self, factorizations):
        # at this shape's optimum the whitened residual I - N G X G N^dagger has two
        # eigenvalues near 0, so lambda_max is double there and not smooth: once the top
        # two come within 1 % the try goes on with Newton steps on the pair, and its
        # point is certified without a barrier solve
        inputs, targets = frozen_instance(4, 4, 22)
        a, x = gram(inputs), gram(targets)
        gammas, prob = maximize_general(a, x)
        assert factorizations["_cluster_step"] > 0
        assert factorizations["_eigensystem"] <= _BOUNDARY_EVALUATIONS
        assert factorizations["_log_det_terms"] == 0
        m = _whitener(a) * np.sqrt(gammas)
        assert np.linalg.eigvalsh(np.eye(4) - m @ x @ m.conj().T)[1] <= 1e-8
        gap = certify(a, x, gammas)[0]
        assert 0.0 <= gap <= GAP_TOL
        with barrier_only():
            barrier_prob = maximize_general(a, x)[1]
        assert np.log(prob) >= np.log(barrier_prob) - gap

    def test_sweeps_double_top_eigenvalue_shape_is_returned(self, factorizations):
        # the benchmark's optimize-sweep shape 52 (n = 8), whose top eigenvalue is double
        # at the optimum; the sweep places it by unitaries, which keep its Gram pair
        inputs, targets = benchmark_instances().random_shape(8, 8, 3)
        a, x = gram([StateVector(row) for row in inputs]), gram([StateVector(row) for row in targets])
        gammas, prob = maximize_general(a, x)
        assert factorizations["_cluster_step"] > 0
        assert factorizations["_log_det_terms"] == 0
        m = _whitener(a) * np.sqrt(gammas)
        assert np.linalg.eigvalsh(np.eye(8) - m @ x @ m.conj().T)[1] <= 1e-8
        gap = certify(a, x, gammas)[0]
        assert 0.0 <= gap <= GAP_TOL
        with barrier_only():
            barrier_prob = maximize_general(a, x)[1]
        assert np.log(prob) >= np.log(barrier_prob) - gap

    @pytest.mark.parametrize("case", ["corner", "near-double"])
    def test_declined_try_falls_back_to_the_barriers_bytes(self, factorizations, case):
        # a try that evaluates and declines leaves no trace in the result. The three-input
        # corner declines by one of two routes, and on the same input bytes the route can
        # differ between processes: in a fresh process its first Newton step overflows
        # exp(y) in _eigensystem, and the caught FloatingPointError declines; in some
        # full-suite runs its top two eigenvalues come within 1 % first, and it declines
        # there, as a cluster step needs four inputs or more. Each route makes at least two
        # evaluations and no cluster step, which is all that is asserted of it. The
        # benchmark's simulate-reuse shape 0 has a simple top eigenvalue at its optimum with
        # lambda_2 / lambda_1 = 0.991, where the pair's multiplier turns indefinite after one
        # positive definite step, and the try declines there, after 5 evaluations and 2 pair
        # steps
        if case == "corner":
            inputs, targets = overlap_family(0.99, 0.999, 0, d=3, n=3)
            a, x = gram(inputs), gram(targets.states)
        else:
            inputs, targets = benchmark_instances().random_shape(5, 8, 0)
            a = gram([StateVector(row) for row in inputs])
            x = gram([StateVector(row) for row in targets])
        gammas, prob = maximize_general(a, x)
        assert 1 < factorizations["_eigensystem"] <= _BOUNDARY_EVALUATIONS
        assert (factorizations["_cluster_step"] > 0) == (case == "near-double")
        if case == "near-double":
            assert (factorizations["_eigensystem"], factorizations["_cluster_step"]) == (5, 2)
        assert factorizations["_log_det_terms"] > 0
        with barrier_only():
            barrier_gammas, barrier_prob = maximize_general(a, x)
        assert gammas.tobytes() == barrier_gammas.tobytes() and prob == barrier_prob

    def test_three_inputs_starting_at_a_double_top_eigenvalue_decline_at_once(self, factorizations):
        # orthonormal inputs (N = I, so balancing keeps g = 1) and targets of pairwise overlap
        # -0.4: H = X at the start, whose top eigenvalue 1.4 is double, and a pair step needs
        # four inputs or more. The barrier then finds the symmetric optimum, every gamma 1 / 1.4
        x = np.full((3, 3), -0.4)
        np.fill_diagonal(x, 1.0)
        assert _boundary_newton(x, np.eye(3)) is None
        assert factorizations["_eigensystem"] == 1
        gammas, prob = maximize_general(np.eye(3), x)
        assert factorizations["_log_det_terms"] > 0
        assert 0.0 <= 3.0 * np.log(1.0 / 1.4) - np.log(prob) <= certify(np.eye(3), x, gammas)[0]

    def test_pair_step_with_an_indefinite_multiplier_declines(self, factorizations):
        # the benchmark's cli-pipeline shape 1 hands off where its top two are 14 % apart,
        # and its first pair step's multiplier is already indefinite: the try declines, and
        # the barrier's point is returned
        inputs, targets = benchmark_instances().random_shape(4, 6, 1)
        a = gram([StateVector(row) for row in inputs])
        x = gram([StateVector(row) for row in targets])
        gammas, _ = maximize_general(a, x)
        assert factorizations["_cluster_step"] == 1
        assert factorizations["_log_det_terms"] > 0
        with barrier_only():
            barrier_gammas, _ = maximize_general(a, x)
        assert gammas.tobytes() == barrier_gammas.tobytes()
        assert certify(a, x, gammas)[0] <= GAP_TOL

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=4, max_value=12),
        real=st.booleans(),
    )
    @example(seed=108, n=5, real=True)  # its one pair step's multiplier is indefinite
    @example(seed=2, n=12, real=False)  # returned after six pair steps
    @settings(max_examples=40, deadline=None)
    def test_hand_off_is_one_way(self, seed, n, real):
        # once a pair step is taken the try takes no Newton step on f again: it returns
        # from the pair step or declines, and a try whose point is returned is certified
        rng = np.random.default_rng(seed)
        a = gram(random_independent(n, n, rng, real=real))
        x = gram(flat_targets(n, n, rng, real))
        order, tried = [], []

        def logged(name):
            original = getattr(optimizer, name)
            return lambda *args: order.append(name) or original(*args)

        with pytest.MonkeyPatch.context() as patch:
            for name in ("_top_terms", "_cluster_step"):
                patch.setattr(optimizer, name, logged(name))
            patch.setattr(optimizer, "_boundary_newton",
                          lambda *args: tried.append(_boundary_newton(*args)) or tried[-1])
            gammas, _ = maximize_general(a, x)
        if "_cluster_step" in order:
            assert "_top_terms" not in order[order.index("_cluster_step"):]
        if gammas is tried[0]:
            assert certify(a, x, gammas)[0] <= GAP_TOL

    def test_real_pair_with_a_singular_pair_step_falls_back_to_the_barrier(self, factorizations):
        # draw 0 of the real n = 6 sample: real inputs near the basis and real Gaussian
        # targets. Its top two eigenvalues coalesce and the try hands off to the pair step,
        # whose (n + 4) system is singular for a real Gram pair: the solve fails, which the
        # try's floating-point policy raises, the try declines, and the barrier's point is
        # certified
        n = d = 6
        rng = np.random.default_rng([7, n, n, 0, 1])
        noise = rng.standard_normal((n, d))
        targets = rng.standard_normal((n, d * d))
        rows = np.eye(n, d) + 0.5 * noise / np.sqrt(d)
        a = gram([MultipartiteState(row / np.linalg.norm(row)) for row in rows])
        x = gram([MultipartiteState(row / np.linalg.norm(row)) for row in targets])
        gammas, _ = maximize_general(a, x)
        assert factorizations["_cluster_step"] == 1
        assert factorizations["_log_det_terms"] > 0
        assert certify(a, x, gammas)[0] <= GAP_TOL
        assert feasible(a, x, gammas)[0]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a, x", faulting_pairs())
    def test_failed_evaluations_fall_back_to_the_barrier(self, a, x):
        a, x, _ = _solve_inputs(a, x)
        assert _boundary_newton(x, _whitener(a)) is None
        gammas, prob = maximize_general(a, x)
        with barrier_only():
            barrier_gammas, barrier_prob = maximize_general(a, x)
        assert gammas.tobytes() == barrier_gammas.tobytes() and prob == barrier_prob
        assert feasible(a, x, gammas)[0]
        assert np.isfinite(certify(a, x, gammas)[0])

    def test_evaluation_budget(self, factorizations):
        # one evaluation at the start and one per step or step halving: on this list the
        # try returned a certified point on 19 of 20 instances, after 2 to 5
        # evaluations, 3 in the median (5 to 10, 6 in the median, from the uniform start
        # and with a last evaluation that only confirmed convergence); the bounds leave
        # room for other BLAS builds
        evaluations = []
        for n, d, seed, _ in COORDINATE_ASCENT:
            inputs, targets = frozen_instance(n, d, seed)
            factorizations.clear()
            maximize_general(gram(inputs), gram(targets))
            if factorizations["_log_det_terms"] == 0:
                evaluations.append(factorizations["_eigensystem"])
        assert len(evaluations) >= 18
        assert np.median(evaluations) <= 4
        assert max(evaluations) <= 7

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=3, max_value=8),
        extra=st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=40, deadline=None)
    def test_rank_one_targets_are_returned(self, seed, n, extra):
        # with X of rank one the trace relaxation is exact, so balancing starts the try
        # at the optimum up to its few steps: the point is returned and certified after
        # one or two evaluations (3 to 5 from the uniform start); the bound leaves room
        # for other BLAS builds
        a, x = rank_one_pair(n, n + extra, np.random.default_rng(seed))
        tried = []
        with counted_factorizations() as calls, pytest.MonkeyPatch.context() as patch:
            patch.setattr(optimizer, "_boundary_newton",
                          lambda *args: tried.append(_boundary_newton(*args)) or tried[-1])
            gammas, _ = maximize_general(a, x)
        assert tried[0] is not None and gammas is tried[0]
        assert 0.0 <= certify(a, x, gammas)[0] <= GAP_TOL
        assert calls["_eigensystem"] <= 3


class TestProbabilityCurves:
    def test_row_order_and_shape(self):
        rows = probability_curves((0.0, 1.0), 3)
        assert [(r[0], r[1]) for r in rows] == [
            (0.0, 0.0), (0.0, 0.5), (0.0, 1.0),
            (1.0, 0.0), (1.0, 0.5), (1.0, 1.0),
        ]

    def test_default_curves_hit_one_at_matching_overlap(self):
        rows = probability_curves()
        for s in DEFAULT_S_VALUES:
            matching = [r for r in rows if r[0] == s and r[1] == s]
            assert len(matching) == 1
            assert matching[0][2] == 1.0

    def test_parallel_input_row_is_zero_until_the_end(self):
        rows = [r for r in probability_curves() if r[0] == 1.0]
        for _, t, prob in rows:
            assert prob == (1.0 if t == 1.0 else 0.0)

    def test_orthogonal_input_row_starts_at_one(self):
        rows = [r for r in probability_curves() if r[0] == 0.0]
        assert rows[0][1] == 0.0
        assert rows[0][2] == 1.0

    def test_each_row_searches_one_float(self, monkeypatch):
        # a row reads the optimum's low end alone, so it searches only that end: one
        # _largest_passing search per row, 505 for the default table
        searches = []
        search = optimizer._largest_passing
        monkeypatch.setattr(optimizer, "_largest_passing",
                            lambda *args: searches.append(args) or search(*args))
        rows = probability_curves()
        assert len(searches) == len(rows) == len(DEFAULT_S_VALUES) * 101
