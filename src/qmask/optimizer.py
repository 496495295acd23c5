"""Feasibility analysis and maximization of the masking success probability.

A choice of efficiencies Gamma = diag(gamma_1, ..., gamma_n) is feasible
when the residual matrix A - sqrt(Gamma) X sqrt(Gamma) is positive
semidefinite, where A and X are the Gram matrices of the inputs and of
the masked targets. The overall success probability is the product of
the efficiencies; for two states its maximum has the closed form
min(((1 - s) / (1 - t))^2, ((1 + s) / (1 + t))^2) in the overlap
magnitudes s = |<a_1|a_2>| and t = |<Psi_1|Psi_2>|, attained with equal
efficiencies.

For n states the problem is convex in g = sqrt(gamma): by the Schur
complement, A - G X G >= 0 with G = diag(g) is the linear matrix
inequality [[A, G X^(1/2)], [X^(1/2) G, I]] >= 0, and log prod(gamma) =
2 sum_i log g_i is concave: a max-det problem (Boyd and Vandenberghe,
Convex Optimization, ch. 11). ``maximize_general`` solves it with a log
barrier; ``certify`` and ``dual_bound`` bound the distance of any point from
the optimum through Lagrange duality.
"""

from __future__ import annotations

import math

import numpy as np

from .hilbert import hermitian_matrix, nonsingular_spectrum, psd_check, psd_verdict, square_matrix

DEFAULT_S_VALUES = (0.0, 0.25, 0.5, 0.75, 1.0)
# factor by which the barrier weight t grows between centring stages; a tangent
# step along the central path carries each stage's point to the next stage
BARRIER_GROWTH = 100.0
# the barrier stops once the central path's gap 2n / t in log Prob is this small
GAP_TOL = 1e-8
# linear systems one solve factors at most, centring tests and tangent steps included
NEWTON_STEP_LIMIT = 500


def _gammas_array(gammas) -> np.ndarray:
    values = np.asarray(gammas, dtype=float).reshape(-1)
    if values.size == 0:
        raise ValueError("need at least one efficiency")
    if not np.all((values >= 0.0) & (values <= 1.0)):
        raise ValueError("efficiencies must lie in [0, 1]")
    return values


def success_probability(gammas) -> float:
    """Product of the efficiencies."""
    return float(np.prod(_gammas_array(gammas)))


def _same_size(a: np.ndarray, x: np.ndarray) -> None:
    if a.shape != x.shape:
        raise ValueError(f"matrix sizes differ: A is {a.shape}, X_P is {x.shape}")


def _residual(a: np.ndarray, x: np.ndarray, values: np.ndarray) -> np.ndarray:
    root = np.sqrt(values)
    return a - np.outer(root, root) * x


def residual_matrix(A, X_P, gammas) -> np.ndarray:
    """A - sqrt(Gamma) X sqrt(Gamma), the Gram weight left for failure branches."""
    a = square_matrix(A, "A")
    x = square_matrix(X_P, "X_P")
    _same_size(a, x)
    values = _gammas_array(gammas)
    if values.size != a.shape[0]:
        raise ValueError(f"need {a.shape[0]} efficiencies, got {values.size}")
    return _residual(a, x, values)


def feasible(A, X_P, gammas) -> tuple[bool, float]:
    """Whether the efficiencies are admissible, plus the residual's min eigenvalue."""
    return psd_check(residual_matrix(A, X_P, gammas))


def _solve_inputs(A, X_P) -> tuple[np.ndarray, np.ndarray]:
    """A and X_P checked once for a solve: Hermitian, finite and of one square shape."""
    a = hermitian_matrix(A, "A")
    x = hermitian_matrix(X_P, "X_P")
    _same_size(a, x)
    return a, x


def _admissible(a: np.ndarray, x: np.ndarray, values: np.ndarray) -> bool:
    """``feasible(a, x, values)[0]`` for inputs ``_solve_inputs`` has checked.

    One n x n eigensolve of the residual, nothing else.
    """
    return psd_verdict(_residual(a, x, values))[0]


def _ratio_squared(numerator: float, denominator: float) -> float:
    if denominator == 0.0:
        return 1.0 if numerator == 0.0 else math.inf
    return (numerator / denominator) ** 2


def max_prob_two(s: float, t: float) -> tuple[float, tuple[float, float]]:
    """Best success probability for two inputs, with the optimal efficiencies.

    Evaluates min(((1 - s) / (1 - t))^2, ((1 + s) / (1 + t))^2) using the
    conventions x/0 = infinity for x > 0 and 0/0 = 1, and returns equal
    efficiencies gamma_1 = gamma_2 = sqrt(prob), which attain the bound.
    """
    for name, value in (("s", s), ("t", t)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    prob = float(min(
        _ratio_squared(1.0 - s, 1.0 - t),
        _ratio_squared(1.0 + s, 1.0 + t),
        1.0,
    ))
    root = math.sqrt(prob)
    return prob, (root, root)


def _whitener(a: np.ndarray) -> np.ndarray:
    """N with N A N^dagger = I, from A's eigendecomposition; rejects a singular A."""
    values, vectors = nonsingular_spectrum(a, "inputs' Gram matrix")
    return (vectors / np.sqrt(values)).conj().T


def _uniform_boundary(x: np.ndarray, whitener: np.ndarray) -> float:
    # A - c X >= 0 exactly when c lambda_max(N X N^dagger) <= 1
    top = float(np.linalg.eigvalsh(whitener @ x @ whitener.conj().T)[-1])
    return 1.0 if top <= 1.0 else 1.0 / top


def uniform_feasibility_boundary(A, X_P) -> float:
    """Largest c for which the uniform efficiencies Gamma = c I are feasible.

    Closed form min(1, 1 / lambda_max(N X_P N^dagger)), where N whitens A
    (N A N^dagger = I): one eigendecomposition of A and one eigensolve.
    A and X_P are checked once (square, same size, finite and Hermitian;
    an error names the faulty one), and a singular A is rejected.
    """
    a, x = _solve_inputs(A, X_P)
    return _uniform_boundary(x, _whitener(a))


def _dual_factor(whitener: np.ndarray, x: np.ndarray, g: np.ndarray) -> np.ndarray | None:
    """C with C^dagger C = (A - G X G)^-1, or None when g is not strictly feasible.

    Factors the whitened residual R' = I - (N G) X (N G)^dagger = L L^dagger
    by Cholesky, so C = L^-1 N; a failed factorization means R' is not
    positive definite.
    """
    m = whitener * g
    try:
        factor = np.linalg.cholesky(np.eye(g.size) - m @ x @ m.conj().T)
    except np.linalg.LinAlgError:
        return None
    return np.linalg.inv(factor) @ whitener


def _log_det_terms(whitener: np.ndarray, x: np.ndarray, g: np.ndarray):
    """Gradient and Hessian of -log det(A - G X G) at g = sqrt(gamma), G = diag(g).

    None when g is not strictly feasible. With S = C^dagger C, B = X G and
    K = B S B^dagger the derivatives are 2 Re (B S)_ii and
    2 Re[(BS)_ij (BS)_ji + S_ji (K_ij + X_ij)].
    """
    c = _dual_factor(whitener, x, g)
    if c is None:
        return None
    s = c.conj().T @ c
    b = x * g
    bs = b @ s
    hessian = 2.0 * (bs * bs.T + s.T * (bs @ b.conj().T + x)).real
    return 2.0 * np.diagonal(bs).real, hessian


def _dual_bound(a: np.ndarray, x: np.ndarray, c: np.ndarray, g: np.ndarray) -> float:
    n = g.size
    # first-order bound on the evaluation's rounding, through |C|, |A| and |X|:
    # sums of up to n^2 terms, each a few complex products deep
    slack = 2.0 * (n + 2) ** 2 * np.finfo(float).eps
    c_abs, x_abs, outer = np.abs(c), np.abs(x), np.outer(g, g)
    cg = c * g
    r = np.einsum("ki,ki->i", c.conj(), cg @ x).real
    r_low = r - slack * np.einsum("ki,ki->i", c_abs, np.abs(cg) @ x_abs)
    if not np.all(r_low > 0.0):
        return math.inf
    trace = n + np.einsum("ij,ij->", c @ (a + outer * x), c.conj()).real
    trace_high = trace + slack * (n + np.sum((c_abs @ (np.abs(a) + np.abs(outer) * x_abs)) * c_abs))
    return 2.0 * float(np.sum(np.log(trace_high / (2.0 * n * r_low))))


def dual_bound(A, X_P, dual) -> float:
    """Upper bound on log Prob over all feasible efficiencies, from a dual point.

    With g = sqrt(gamma), A - G X G >= 0 is the linear matrix inequality
    F(g) = F_0 + sum_i g_i F_i = [[A, G X^(1/2)], [X^(1/2) G, I]] >= 0. For
    any Z >= 0 with c_i = tr(Z F_i) < 0, weak duality gives
    log prod(gamma) <= 2 [tr(Z F_0) - sum_i (1 + log(-c_i))].

    ``dual`` is a pair (C, h): an n x n matrix and n reals, standing for
    Z = alpha ([I, -H X^(1/2)]^dagger C^dagger C [I, -H X^(1/2)] + 0 (+) I)
    with H = diag(h). That Z is positive semidefinite for every C and h,
    and X^(1/2) cancels from the bound: c_i = -2 alpha Re(S H X)_ii and
    tr(Z F_0) = alpha [tr(S A) + n + tr(H S H X)] with S = C^dagger C. The
    best alpha is n over that bracket. The bound is raised by a bound on
    its own rounding error and costs O(n^3). It is infinite when some c_i
    is not certainly negative: the point then certifies nothing.
    """
    a, x = _solve_inputs(A, X_P)
    n = a.shape[0]
    c = np.asarray(dual[0], dtype=complex)
    h = np.asarray(dual[1], dtype=float).reshape(-1)
    if c.shape != (n, n) or h.shape != (n,):
        raise ValueError(f"dual point must be an {n} x {n} matrix and {n} reals")
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(h))):
        raise ValueError("dual point must be finite")
    return _dual_bound(a, x, c, h)


def certify(A, X_P, gammas) -> tuple[float, tuple[np.ndarray, np.ndarray] | None]:
    """Certified gap of the efficiencies ``gammas``, with the dual point that proves it.

    Returns (gap, dual) with log(best Prob) - log prod(gammas) <= gap, so
    the best success probability is at most prod(gammas) * exp(gap), and
    gap = ``dual_bound(A, X_P, dual) - log prod(gammas)``. The dual point
    is (C, sqrt(gamma)) with C^dagger C = (A - G X G)^-1: the Lagrange
    multiplier that the log barrier pairs with a point on its central
    path, which is where ``maximize_general`` stops, so its gap there is
    at most about 2 GAP_TOL plus the rounding allowance. Unit efficiencies
    have gap 0 and no dual point, as no efficiency exceeds 1; other
    efficiencies that are not strictly feasible have an infinite gap and
    no dual point. O(n^3).
    """
    a, x = _solve_inputs(A, X_P)
    values = _gammas_array(gammas)
    if values.size != a.shape[0]:
        raise ValueError(f"need {a.shape[0]} efficiencies, got {values.size}")
    if np.all(values == 1.0):
        return 0.0, None
    g = np.sqrt(values)
    c = _dual_factor(_whitener(a), x, g) if np.all(g > 0.0) else None
    if c is None:
        return math.inf, None
    return _dual_bound(a, x, c, g) - float(np.sum(np.log(values))), (c, g)


def _spread(u: np.ndarray) -> float:
    """Second-order excess of ``certify``'s gap at g over 2n / t: sum_i (u_i / mean(u) - 1)^2.

    u_i = g_i d(-log det)/dg_i, which is 2t for every i on the central path.
    """
    return float(np.sum((u / np.mean(u) - 1.0) ** 2))


def maximize_general(A, X_P) -> tuple[np.ndarray, float]:
    """Globally optimal efficiencies for any number of inputs, within the certified gap.

    Returns (gammas, prob). If gamma = 1 is admissible it is the optimum.
    Otherwise the log-barrier method minimizes
    -2t sum_i log g_i - log det(A - G X G) over g = sqrt(gamma), starting
    from half the uniform boundary at t = 1. Each stage centres by damped
    Newton steps of length 1 / (1 + lambda), with lambda the Newton
    decrement, until lambda^2 <= 1e-2. Between stages t grows by
    BARRIER_GROWTH, and g moves along the central path's tangent, linear
    in 1 / t: g + (t - t / BARRIER_GROWTH) K^-1 (2 / g), with K the Newton
    matrix of the centring test. The last stage, where the central path's
    gap 2n / t is at most GAP_TOL, also centres until u_i =
    g_i d(-log det)/dg_i, all 2t on the central path, spread by
    sum_i (u_i / mean(u) - 1)^2 <= GAP_TOL, or until the decrement stops
    falling: in an ill-conditioned residual rounding can hold the spread
    above GAP_TOL. Before its rounding allowance
    ``certify``'s gap at g is 2 sum_i log((2 + mean(u)) / u_i), about
    4n / mean(u) plus that spread, which a small lambda does not bound
    where the log-det Hessian dominates the barrier's. Every step is
    halved until g > 0 and the residual passes a Cholesky factorization,
    so the returned efficiencies are strictly feasible even when
    NEWTON_STEP_LIMIT cuts the solve short; ``certify`` bounds their
    distance from the global optimum.

    A and X_P are checked once per solve (square, same size, finite and
    Hermitian; an error names the faulty one); a singular A is rejected.
    """
    a, x = _solve_inputs(A, X_P)
    n = a.shape[0]
    whitener = _whitener(a)
    ones = np.ones(n)
    if _admissible(a, x, ones):
        return ones, 1.0

    g = np.full(n, math.sqrt(_uniform_boundary(x, whitener) / 2.0))
    gradient, hessian = _log_det_terms(whitener, x, g)
    t = 1.0
    systems = 0
    previous = math.inf  # decrement2 of the stage's preceding centring test
    while systems < NEWTON_STEP_LIMIT:
        systems += 1
        last = 2.0 * n / t <= GAP_TOL
        barrier_gradient = gradient - 2.0 * t / g
        newton = hessian + np.diag(2.0 * t / (g * g))
        delta = np.linalg.solve(newton, -barrier_gradient)
        decrement2 = float(-barrier_gradient @ delta)
        # below 1e-2 the decrement falls quadratically in exact arithmetic, so
        # one that does not fall, or a negative one, measures rounding
        converging = 0.0 < decrement2 < previous
        previous = decrement2
        if decrement2 > 1e-2 or (last and converging and _spread(g * gradient) > GAP_TOL):
            # step' K step < 1 and K >= diag(2t / g^2) keep g + step > 0
            step = delta / (1.0 + math.sqrt(decrement2))
        elif last or systems == NEWTON_STEP_LIMIT:
            break
        else:
            systems += 1
            step = (t - t / BARRIER_GROWTH) * np.linalg.solve(newton, 2.0 / g)
            t *= BARRIER_GROWTH
            previous = math.inf
            while np.min(g + step) <= 0.0:
                step = step / 2.0
        # rounding, or the tangent's reach, can leave the feasible set
        while (terms := _log_det_terms(whitener, x, g + step)) is None:
            step = step / 2.0
        g = g + step
        gradient, hessian = terms
    gammas = np.minimum(g * g, 1.0)
    return gammas, float(np.prod(gammas))


def probability_curves(
    s_values: tuple[float, ...] = DEFAULT_S_VALUES, t_steps: int = 101
) -> list[tuple[float, float, float]]:
    """Rows (s, t, prob_max) over a uniform t grid for each input overlap s."""
    t_grid = np.linspace(0.0, 1.0, int(t_steps))
    return [
        (float(s), float(t), max_prob_two(float(s), float(t))[0])
        for s in s_values
        for t in t_grid
    ]
