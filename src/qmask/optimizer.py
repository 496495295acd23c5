"""Feasibility analysis and maximization of the masking success probability.

A choice of efficiencies Gamma = diag(gamma_1, ..., gamma_n) is feasible
when the residual matrix A - sqrt(Gamma) X sqrt(Gamma) is positive
semidefinite, where A and X are the Gram matrices of the inputs and of
the masked targets. The overall success probability is the product of
the efficiencies; for two states its maximum has the closed form
min(((1 - s) / (1 - t))^2, ((1 + s) / (1 + t))^2) in the overlap
magnitudes s = |<a_1|a_2>| and t = |<Psi_1|Psi_2>|, attained with equal
efficiencies.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .hilbert import OP_TOL, hermitian_matrix, psd_check, psd_verdict, square_matrix

DEFAULT_S_VALUES = (0.0, 0.25, 0.5, 0.75, 1.0)
# resolution of every bisection for an efficiency boundary
BISECT_TOL = 1e-10
# coordinate-ascent sweeps maximize_general runs at most
MAX_SWEEPS = 64


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

    The search's predicate: one n x n eigensolve of the residual, nothing else.
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


@lru_cache(maxsize=4)
def _efficiency_grid(grid_steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    g = np.linspace(0.0, 1.0, grid_steps + 1)
    product = np.outer(g, g)
    complement = np.outer(1.0 - g, 1.0 - g)
    for arr in (product, complement):
        arr.setflags(write=False)
    root = np.sqrt(product)
    root.setflags(write=False)
    return product, complement, root


def max_prob_grid_oracle(s: float, t: float, grid_steps: int = 1000) -> float:
    """Brute-force maximum of gamma_1 * gamma_2 over a uniform grid.

    Keeps grid points where the two-state residual matrix
    [[1 - gamma_1, z], [conj(z), 1 - gamma_2]] is positive semidefinite,
    with |z| = |s - sqrt(gamma_1 gamma_2) t| as granted by optimal phase
    alignment. Serves as an independent check of the closed form.
    """
    product, complement, root = _efficiency_grid(grid_steps)
    determinant = complement - (s - root * t) ** 2
    feasible_points = determinant >= -1e-12
    if not np.any(feasible_points):
        return 0.0
    return float(np.max(np.where(feasible_points, product, 0.0)))


def _largest_feasible(ok, low) -> float:
    """Largest c in [low, 1] with ok(c), to within BISECT_TOL; ok(low) must hold.

    Tries 1 first, then bisects.
    """
    if ok(1.0):
        return 1.0
    high = 1.0
    while high - low > BISECT_TOL:
        mid = (low + high) / 2.0
        if ok(mid):
            low = mid
        else:
            high = mid
    return low


def _uniform_boundary(a: np.ndarray, x: np.ndarray) -> float:
    if float(np.linalg.eigvalsh(a)[0]) <= OP_TOL:
        raise ValueError(
            "inputs' Gram matrix is singular: no positive efficiencies are feasible "
            "(the input states are not linearly independent)"
        )
    n = a.shape[0]
    return _largest_feasible(lambda c: _admissible(a, x, np.full(n, c)), 0.0)


def uniform_feasibility_boundary(A, X_P) -> float:
    """Largest c for which the uniform efficiencies Gamma = c I are feasible.

    Resolved to within BISECT_TOL from below. A and X_P are checked once
    (square, same size, finite and Hermitian; an error names the faulty
    one); each bisection step then costs one n x n eigensolve.
    """
    return _uniform_boundary(*_solve_inputs(A, X_P))


def maximize_general(A, X_P) -> tuple[np.ndarray, float]:
    """Locally maximal efficiencies for any number of inputs.

    Bisects the uniform scale first, then performs coordinate ascent on
    log gamma_i under the eigenvalue feasibility constraint: each sweep
    pushes one efficiency to its per-coordinate boundary while the others
    stay fixed, to within BISECT_TOL. Sweeps stop once no efficiency
    moves by more than BISECT_TOL (or after MAX_SWEEPS). The result is
    feasible and locally undominated up to BISECT_TOL: raising any single
    efficiency by clearly more than that breaks feasibility (or leaves
    [0, 1]); global optimality is not certified.

    A and X_P are checked once per solve (square, same size, finite and
    Hermitian; an error names the faulty one). Every bisection step after
    that costs one n x n eigensolve of the residual, the test ``feasible``
    makes without its input checks.
    """
    a, x = _solve_inputs(A, X_P)
    n = a.shape[0]
    if n < 2:
        raise ValueError("need at least two states to optimize over")

    gammas = np.full(n, _uniform_boundary(a, x))
    for _ in range(MAX_SWEEPS):
        moved = 0.0
        for i in range(n):
            trial = gammas.copy()

            def ok(value: float) -> bool:
                trial[i] = value
                return _admissible(a, x, trial)

            trial[i] = _largest_feasible(ok, gammas[i])
            moved = max(moved, trial[i] - gammas[i])
            gammas = trial
        if moved <= BISECT_TOL:
            break
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
