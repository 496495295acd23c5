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
barrier, after a cheaper try where one is certified: the uniform point for
one or two inputs, and for three or more Newton's method on the boundary
lambda_max(N G X G N^dagger) = 1 (N A N^dagger = I), which converges
quadratically where that eigenvalue is simple (Overton, SIAM J. Optim.
2(1), 1992). ``certify`` and ``dual_bound`` bound the distance of any point
from the optimum through Lagrange duality, and ``certify``'s gap alone
decides whether a try's point is returned. Each public function of (A, X_P)
checks them through ``_solve_inputs``.
"""

from __future__ import annotations

import math

import numpy as np

from .hilbert import hermitian_matrix, nonsingular_spectrum, psd_check, psd_verdict

DEFAULT_S_VALUES = (0.0, 0.25, 0.5, 0.75, 1.0)
# factor by which the barrier weight t grows between centring stages; a tangent
# step along the central path carries each stage's point to the next stage
BARRIER_GROWTH = 100.0
# the barrier stops once the central path's gap 2n / t in log Prob is this small
GAP_TOL = 1e-8
# n x n systems one solve factors at most past its start: one per damped Newton
# step (its linear solve and the Cholesky test that accepts the step), and one
# more per tangent step's solve and per step halving's Cholesky test
NEWTON_STEP_LIMIT = 500
# relative shortfall of Prob below c*^n at which the uniform optimum of one or two
# inputs is returned: every gamma_i = c* (1 - UNIFORM_SHORTFALL / n), the central-path
# point at t = 1 / UNIFORM_SHORTFALL = 1e10, where the barrier's last stage ends.
# The residual's least whitened eigenvalue, UNIFORM_SHORTFALL / n, is then as large
# as at the barrier's optimum, and certify's gap is about 2n UNIFORM_SHORTFALL
UNIFORM_SHORTFALL = 1e-10
# lambda_max evaluations one boundary Newton try makes at most, its start's and every
# step halving's included, as NEWTON_STEP_LIMIT counts them
_BOUNDARY_EVALUATIONS = 14


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


def _residual(a: np.ndarray, x: np.ndarray, values: np.ndarray) -> np.ndarray:
    root = np.sqrt(values)
    return a - np.outer(root, root) * x


def _solve_inputs(A, X_P, gammas=None) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The one check of a masking problem, made by every public function of (A, X_P).

    Returns the Hermitian parts of A and X_P, finite and of one square shape
    (an error names the faulty one), and n efficiencies in [0, 1] or None.
    """
    a = hermitian_matrix(A, "A")
    x = hermitian_matrix(X_P, "X_P")
    if a.shape != x.shape:
        raise ValueError(f"matrix sizes differ: A is {a.shape}, X_P is {x.shape}")
    values = None if gammas is None else _gammas_array(gammas)
    if values is not None and values.size != a.shape[0]:
        raise ValueError(f"need {a.shape[0]} efficiencies, got {values.size}")
    return a, x, values


def residual_matrix(A, X_P, gammas) -> np.ndarray:
    """A - sqrt(Gamma) X sqrt(Gamma) of the checked problem, exactly Hermitian: the failure Gram."""
    return _residual(*_solve_inputs(A, X_P, gammas))


def feasible(A, X_P, gammas) -> tuple[bool, float]:
    """Whether the efficiencies are admissible, as the solver judges, and the least eigenvalue."""
    return psd_check(residual_matrix(A, X_P, gammas))


def _admissible(a: np.ndarray, x: np.ndarray, values: np.ndarray) -> bool:
    """``feasible(a, x, values)[0]`` for inputs ``_solve_inputs`` has checked.

    One n x n eigensolve of the residual, nothing else.
    """
    return psd_verdict(np.linalg.eigvalsh(_residual(a, x, values)))[0]


def max_prob_two(s: float, t: float) -> tuple[float, tuple[float, float]]:
    """Best success probability for two inputs, with the optimal efficiencies.

    Evaluates min(((1 - s) / (1 - t))^2, ((1 + s) / (1 + t))^2, 1) and
    returns equal efficiencies gamma_1 = gamma_2 = sqrt(prob), which attain
    the bound. Only 1 - t can vanish: at t = 1 the first ratio is taken as
    infinite, and the second, ((1 + s) / 2)^2 <= 1, decides.
    """
    for name, value in (("s", s), ("t", t)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    prob = float(min(
        ((1.0 - s) / (1.0 - t)) ** 2 if t < 1.0 else math.inf,
        ((1.0 + s) / (1.0 + t)) ** 2,
        1.0,
    ))
    root = math.sqrt(prob)
    return prob, (root, root)


def _whitener(a: np.ndarray) -> np.ndarray:
    """N with N A N^dagger = I, from A's eigendecomposition; rejects a singular A."""
    values, vectors = nonsingular_spectrum(a, "inputs' Gram matrix")
    return (vectors / np.sqrt(values)).conj().T


def _uniform_boundary(x: np.ndarray, whitener: np.ndarray) -> float:
    """The uniform boundary c* = min(1, 1 / lambda_max(N X N^dagger)), from one eigvalsh.

    A - c X >= 0 exactly when c lambda_max(N X N^dagger) <= 1.
    """
    top = float(np.linalg.eigvalsh(whitener @ x @ whitener.conj().T)[-1])
    return 1.0 if top <= 1.0 else 1.0 / top


def uniform_feasibility_boundary(A, X_P) -> float:
    """Largest c for which the uniform efficiencies Gamma = c I are feasible.

    Closed form min(1, 1 / lambda_max(N X_P N^dagger)), where N whitens A
    (N A N^dagger = I): one eigendecomposition of A and one eigensolve.
    A and X_P pass ``_solve_inputs``, as at every entry, and a singular A
    is rejected.
    """
    a, x, _ = _solve_inputs(A, X_P)
    return _uniform_boundary(x, _whitener(a))


def _dual_factor(whitener: np.ndarray, x: np.ndarray, g: np.ndarray) -> np.ndarray | None:
    """C with C^dagger C = (A - G X G)^-1, or None when g is not strictly feasible.

    Strictly feasible means every g_i > 0 and a whitened residual
    R' = I - (N G) X (N G)^dagger that factors by Cholesky as L L^dagger,
    so C = L^-1 N; a failed factorization means R' is not positive definite.
    This is the barrier's one test of a point, and ``certify``'s.
    """
    if not g.min() > 0.0:
        return None
    m = whitener * g
    try:
        factor = np.linalg.cholesky(np.eye(g.size) - m @ x @ m.conj().T)
    except np.linalg.LinAlgError:
        return None
    return np.linalg.inv(factor) @ whitener


def _log_det_terms(whitener: np.ndarray, x: np.ndarray, g: np.ndarray):
    """Half the gradient and Hessian of -log det(A - G X G) at g = sqrt(gamma), G = diag(g).

    None when g is not strictly feasible. With S = C^dagger C, B = X G and
    K = B S B^dagger the halves are Re (B S)_ii and
    Re[(BS)_ij (BS)_ji + S_ji (K_ij + X_ij)]; the Hessian is a fresh array,
    which the caller may change in place.
    """
    c = _dual_factor(whitener, x, g)
    if c is None:
        return None
    s = c.conj().T @ c
    b = x * g
    bs = b @ s
    hessian = bs @ b.conj().T
    hessian += x
    np.multiply(s.T, hessian, out=hessian)
    hessian += bs * bs.T
    return bs.diagonal().real, hessian.real


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


def _gap(
    a: np.ndarray, x: np.ndarray, whitener: np.ndarray, values: np.ndarray
) -> tuple[float, tuple[np.ndarray, np.ndarray] | None]:
    """``certify``'s (gap, dual point) at efficiencies in [0, 1].

    (inf, None) when they are not strictly feasible, a zero efficiency included.
    """
    g = np.sqrt(values)
    c = _dual_factor(whitener, x, g)
    if c is None:
        return math.inf, None
    return _dual_bound(a, x, c, g) - float(np.sum(np.log(values))), (c, g)


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
    a, x, _ = _solve_inputs(A, X_P)
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
    a, x, values = _solve_inputs(A, X_P, gammas)
    if np.all(values == 1.0):
        return 0.0, None
    return _gap(a, x, _whitener(a), values)


def _top_terms(whitener: np.ndarray, x: np.ndarray, y: np.ndarray):
    """L = log lambda_max(N G X G N^dagger) at g = exp(y), with its gradient and Hessian in y.

    One eigh, of H = M X M^dagger with M = N G. None unless the top eigenvalue
    lambda is positive and simple, the next one more than 1 % below it. With
    eigenvectors u_k of H, z_k = N^dagger u_k, w = z_top and V = X G Z,
    perturbation theory gives d lambda / d g_i = 2 Re(conj(w_i) V_i,top) and
    d2 lambda / d g_i d g_j = 2 Re(conj(w_i) X_ij w_j)
    + 2 Re sum_{k != top} p_ik conj(p_jk) / (lambda - lambda_k), with
    p_ik = conj(w_i) V_ik + conj(V_i,top) z_ik. Here they are taken in y, with
    G Z = M^dagger U in place of Z, and divided by lambda.
    """
    g = np.exp(y)
    m = whitener * g
    m_dagger = m.conj().T
    values, vectors = np.linalg.eigh(m @ x @ m_dagger)
    top = values[-1]
    if not (0.0 < top and values[-2] < 0.99 * top):
        return None
    z = m_dagger @ vectors
    v = x @ z
    w, vw = z[:, -1].conj(), v[:, -1].conj()
    p = w[:, None] * v[:, :-1]
    p += vw[:, None] * z[:, :-1]
    scale = 2.0 / top
    gradient = scale * (w * v[:, -1]).real
    hessian = (p / (top - values[:-1])) @ p.conj().T
    hessian += w[:, None] * x * w.conj()
    hessian = scale * hessian.real
    hessian.flat[::g.size + 1] += gradient
    hessian -= np.outer(gradient, gradient)
    return math.log(top), gradient, hessian


@np.errstate(all="raise", under="ignore")
def _boundary_newton(x: np.ndarray, whitener: np.ndarray) -> np.ndarray | None:
    """The optimum of three or more inputs by Newton's method on the boundary, or None.

    On the boundary lambda_max(N G X G N^dagger) = 1, log Prob is
    2 (sum_i y_i - (n / 2) L) with y = log g and L = log lambda_max, and that
    expression is invariant under g -> c g, as lambda_max is homogeneous of
    degree 2 in g. Newton's method maximizes f(y) = sum_i y_i - (n / 2) L - L^2 / 2,
    whose last term fixes the scale at L = 0, from the uniform boundary point.
    Steps are damped as the barrier's are while the squared decrement exceeds
    1e-2, and halved until f does not fall. Where lambda_max is simple at the
    optimum it converges quadratically (Overton, SIAM J. Optim. 2(1), 1992).
    It stops once the squared decrement is at most 1e-15 n, where rounding
    hides f's progress, and returns g^2 (1 - UNIFORM_SHORTFALL / n) / lambda_max,
    scaled onto the boundary as the uniform trial is. It declines, returning
    None, when the top two eigenvalues come within 1 %, when the decrement is
    not positive, when an evaluation fails or overflows, or once
    _BOUNDARY_EVALUATIONS evaluations are spent.
    """
    n = x.shape[0]
    try:
        terms = _top_terms(whitener, x, np.zeros(n))
        if terms is None:
            return None
        # the uniform boundary point, where L = 0; L's derivatives do not change with scale
        log_top, gradient, hessian = terms
        y = np.full(n, -log_top / 2.0)
        log_top, value, evaluations = 0.0, float(y.sum()), 1
        while True:
            weight = n / 2.0 + log_top
            f_gradient = 1.0 - weight * gradient
            delta = np.linalg.solve(-weight * hessian - np.outer(gradient, gradient), -f_gradient)
            decrement2 = float(f_gradient @ delta)
            if not decrement2 > 0.0:
                return None
            if decrement2 <= 1e-15 * n:
                return np.minimum(np.exp(2.0 * y - log_top) * (1.0 - UNIFORM_SHORTFALL / n), 1.0)
            step = delta / (1.0 + math.sqrt(decrement2)) if decrement2 > 1e-2 else delta
            while True:
                if evaluations == _BOUNDARY_EVALUATIONS:
                    return None
                evaluations += 1
                terms = _top_terms(whitener, x, y + step)
                if terms is None:
                    return None
                trial = float((y + step).sum()) - (n / 2.0 + terms[0] / 2.0) * terms[0]
                if trial >= value:
                    break
                step = step / 2.0
            y, value = y + step, trial
            log_top, gradient, hessian = terms
    except (np.linalg.LinAlgError, FloatingPointError):
        return None


def _spread(u: np.ndarray) -> float:
    """Second-order excess of ``certify``'s gap at g over 2n / t: sum_i (u_i / mean(u) - 1)^2.

    u_i = g_i d(-log det)/dg_i, which is 2t for every i on the central path.
    """
    return float(((u / u.mean() - 1.0) ** 2).sum())


def maximize_general(A, X_P) -> tuple[np.ndarray, float]:
    """Globally optimal efficiencies for any number of inputs, within the certified gap.

    Returns (gammas, prob). If gamma = 1 is admissible it is the optimum.
    Otherwise a try comes first, and its point is returned without a barrier
    solve when ``certify``'s gap there, about 2n UNIFORM_SHORTFALL plus its
    rounding allowance, is at most GAP_TOL: the certificate alone decides,
    and ill-conditioned problems whose rounding allowance exceeds GAP_TOL go
    to the barrier. One or two inputs have an optimum with equal
    efficiencies (the swap maps A and X to their conjugates), so their try is
    every gamma_i = c* (1 - UNIFORM_SHORTFALL / n), where the barrier's last
    stage would end, with the uniform boundary c* from one eigensolve of
    N X N^dagger (N A N^dagger = I). Three or more inputs try Newton's method
    on the boundary (``_boundary_newton``): from the uniform boundary point
    it maximizes sum_i y_i - (n / 2) L - L^2 / 2 over y = log g, with
    L = log lambda_max(N G X G N^dagger), and scales its point onto the
    boundary as the uniform one is. It declines when the top two eigenvalues
    come within 1 %, when the Newton decrement is not positive, when an
    evaluation fails or overflows, or after _BOUNDARY_EVALUATIONS = 14
    evaluations, one eigh each, step halvings included. Every solve whose
    try is not returned runs the barrier from scratch, with c* as above.
    The log-barrier method minimizes
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
    where the log-det Hessian dominates the barrier's. Every step, a
    Newton step or a tangent, is halved in one loop until ``_dual_factor``
    accepts g + step: every g_i > 0 and the residual passes a Cholesky
    factorization. The solve ends at the last g that passed once the
    halved step falls below eps g, where it no longer moves g, or once
    NEWTON_STEP_LIMIT, which counts every halving too, is spent. So the
    returned efficiencies are strictly feasible however the solve ends, and
    ``certify`` bounds their distance from the global optimum. A stage before
    the last whose squared decrement reads zero or negative, which only
    rounding produces, ends the solve at the last point that passed its
    centring test, as a tangent step from an uncentred point can reach points
    no dual certifies.

    A and X_P pass ``_solve_inputs``, as at every entry, and a singular A
    is rejected.
    """
    a, x, _ = _solve_inputs(A, X_P)
    n = a.shape[0]
    whitener = _whitener(a)
    ones = np.ones(n)
    # judged on the unwhitened residual, not as lambda_max(N X N^dagger) <= 1: at
    # s = t = 1 - 1e-9 (cond(A) = 2e9) that eigenvalue reads 1 + 3.4e-7, and deciding
    # gamma = 1 from it gave Prob 0.99999966 where gamma = 1 is admissible
    if _admissible(a, x, ones):
        return ones, 1.0
    if n <= 2:
        boundary = _uniform_boundary(x, whitener)
        gammas = np.full(n, boundary * (1.0 - UNIFORM_SHORTFALL / n))
    else:
        # only the barrier's start needs c*
        boundary, gammas = None, _boundary_newton(x, whitener)
    if gammas is not None and _gap(a, x, whitener, gammas)[0] <= GAP_TOL:
        return gammas, float(gammas.prod())
    if boundary is None:
        boundary = _uniform_boundary(x, whitener)

    g = np.full(n, math.sqrt(boundary / 2.0))
    gradient, hessian = _log_det_terms(whitener, x, g)
    t = 1.0
    systems = 0
    previous = math.inf  # decrement2 of the stage's preceding centring test
    centred = g  # the point of the last stage that passed its centring test
    eps = np.finfo(float).eps
    # the terms are halves, and so are the barrier's gradient and Newton matrix
    # below: scaling by 2 is exact, so each step and decrement is as unhalved
    while systems < NEWTON_STEP_LIMIT:
        systems += 1
        last = 2.0 * n / t <= GAP_TOL
        barrier_gradient = gradient - t / g
        newton = hessian  # a fresh array per step, turned into the Newton matrix in place
        newton.flat[::n + 1] += t / (g * g)
        delta = np.linalg.solve(newton, -barrier_gradient)
        decrement2 = -2.0 * float(barrier_gradient @ delta)
        # below 1e-2 the decrement falls quadratically in exact arithmetic, so
        # one that does not fall, or a negative one, measures rounding
        converging = 0.0 < decrement2 < previous
        previous = decrement2
        if decrement2 > 1e-2 or (last and converging and _spread(g * gradient) > GAP_TOL):
            # step' K step < 1 and K >= diag(2t / g^2) keep g + step > 0
            step = delta / (1.0 + math.sqrt(decrement2))
        elif last or systems == NEWTON_STEP_LIMIT:
            break
        elif not decrement2 > 0.0:
            # before the last stage this is rounding, not centring, and a tangent from
            # here can reach points no dual certifies: end at the last centred point
            g = centred
            break
        else:
            centred = g
            systems += 1
            step = (t - t / BARRIER_GROWTH) * np.linalg.solve(newton, 1.0 / g)
            t *= BARRIER_GROWTH
            previous = math.inf
        # rounding, or the tangent's reach, can leave the feasible set; below
        # eps g a halved step no longer moves g
        terms = _log_det_terms(whitener, x, g + step)
        while terms is None and systems < NEWTON_STEP_LIMIT and (abs(step) >= eps * g).any():
            systems += 1
            step = step / 2.0
            terms = _log_det_terms(whitener, x, g + step)
        if terms is None:
            break
        g = g + step
        gradient, hessian = terms
    gammas = np.minimum(g * g, 1.0)
    return gammas, float(gammas.prod())


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
