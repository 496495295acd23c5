"""Feasibility analysis and maximization of the masking success probability.

A choice of efficiencies Gamma = diag(gamma_1, ..., gamma_n) is feasible
when the residual matrix A - sqrt(Gamma) X sqrt(Gamma) is positive
semidefinite, where A and X are the Gram matrices of the inputs and of
the masked targets. The overall success probability is the product of
the efficiencies; for two states its maximum has the closed form
min(((1 - s) / (1 - t))^2, ((1 + s) / (1 + t))^2) in the overlap
magnitudes s = |<a_1|a_2>| and t = |<Psi_1|Psi_2>|, attained with equal
efficiencies. ``_two_input_low`` solves any one or two inputs exactly, in
integers: ``max_prob_two`` and ``maximize_general`` read that quantity from
it alone, and ``certify`` bounds it from above with ``_two_input_high``.

For n states the problem is convex in g = sqrt(gamma): by the Schur
complement, A - G X G >= 0 with G = diag(g) is the linear matrix
inequality [[A, G X^(1/2)], [X^(1/2) G, I]] >= 0, and log prod(gamma) =
2 sum_i log g_i is concave: a max-det problem (Boyd and Vandenberghe,
Convex Optimization, ch. 11). For three or more inputs ``maximize_general``
solves it with a log barrier, after a cheaper try where one is certified:
``_boundary_newton``, Newton's method on the boundary
lambda_max(N G X G N^dagger) = 1 (N A N^dagger = I). Both stop at the one
interior margin UNIFORM_SHORTFALL fixes. ``certify`` and ``dual_bound``
bound the distance of any point from the optimum through Lagrange duality;
the duality formula's gap, before ``certify``'s rounding allowance, decides
whether a try's point is returned. Each public function of (A, X_P) checks
them through ``_solve_inputs``.
"""

from __future__ import annotations

import math

import numpy as np

from .hilbert import _EPS, _cholesky, _eigh, _eigvalsh, _inv, _solve, hermitian_matrix
from .hilbert import nonsingular_spectrum, precision_floor, psd_check, psd_verdict

DEFAULT_S_VALUES = (0.0, 0.25, 0.5, 0.75, 1.0)
# factor by which the barrier weight t grows between centring stages; a tangent
# step along the central path carries each stage's point to the next stage
BARRIER_GROWTH = 100.0
# n x n systems one solve factors at most past its start: one per damped Newton
# step (its linear solve and the Cholesky test that accepts the step), and one
# more per tangent step's solve and per step halving's Cholesky test
NEWTON_STEP_LIMIT = 500
# the one interior margin of every solve of three or more inputs. The boundary Newton
# try scales its returned g^2 by 1 - UNIFORM_SHORTFALL / n, and the barrier's last stage
# is t = 1 / UNIFORM_SHORTFALL = 1e10: both end where the residual's least whitened
# eigenvalue is about UNIFORM_SHORTFALL / n and the formula gap about 2n UNIFORM_SHORTFALL
UNIFORM_SHORTFALL = 1e-10
# lambda_max evaluations one boundary Newton try makes at most, its start's and every
# step halving's included, as NEWTON_STEP_LIMIT counts them
_BOUNDARY_EVALUATIONS = 14


def _gammas_array(gammas) -> np.ndarray:
    values = np.asarray(gammas, dtype=float).reshape(-1)
    if values.size == 0:
        raise ValueError("need at least one efficiency")
    if not ((values >= 0.0) & (values <= 1.0)).all():
        raise ValueError("efficiencies must lie in [0, 1]")
    return values


def success_probability(gammas) -> float:
    """Product of the efficiencies."""
    return float(_gammas_array(gammas).prod())


def _residual(a: np.ndarray, x: np.ndarray, values: np.ndarray) -> np.ndarray:
    root = np.sqrt(values)
    return a - root[:, None] * root * x


def _solve_inputs(A, X_P, gammas=None) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The one check of a masking problem, made by every public function of (A, X_P).

    Returns the Hermitian parts of A and X_P, finite and of one square shape,
    with every diagonal entry 1 to within ``precision_floor(n)``: Gram matrices
    of unit states (an error names the faulty one). Then the residual's
    diagonal, 1 - gamma_i, caps each feasible gamma_i at 1, and two inputs have
    an equal-efficiency optimum. Also returns n efficiencies in [0, 1] or None.
    """
    a = hermitian_matrix(A, "A")
    x = hermitian_matrix(X_P, "X_P")
    if a.shape != x.shape:
        raise ValueError(f"matrix sizes differ: A is {a.shape}, X_P is {x.shape}")
    n = a.shape[0]
    floor = precision_floor(n)
    off = np.abs(np.concatenate((a.diagonal(), x.diagonal())) - 1.0)
    if not off.max() <= floor:
        k = int(np.argmax(off > floor))
        raise ValueError(f"{('A', 'X_P')[k // n]} is not the Gram matrix of unit states: "
                         f"diagonal entry {k % n} is off 1 by {off[k]:.3e}, above the "
                         f"precision floor {floor:.1e}")
    values = None if gammas is None else _gammas_array(gammas)
    if values is not None and values.size != n:
        raise ValueError(f"need {n} efficiencies, got {values.size}")
    return a, x, values


def residual_matrix(A, X_P, gammas) -> np.ndarray:
    """A - sqrt(Gamma) X sqrt(Gamma) of the checked problem, exactly Hermitian: the failure Gram."""
    return _residual(*_solve_inputs(A, X_P, gammas))


def feasible(A, X_P, gammas) -> tuple[bool, float]:
    """Whether the efficiencies are admissible, as the solver judges, and the least eigenvalue."""
    return psd_check(residual_matrix(A, X_P, gammas))


def _admissible(a: np.ndarray, x: np.ndarray) -> bool:
    """``feasible(a, x, ones)[0]`` for inputs ``_solve_inputs`` has checked: gamma = 1.

    One n x n eigensolve of A - X, which is the residual at gamma = 1 bit for
    bit (sqrt(1) = 1 and 1 X = X), nothing else.
    """
    return psd_verdict(_eigvalsh(a - x))[0]


def _pair_entries(a: np.ndarray, x: np.ndarray) -> list[int]:
    """a_11, a_22, Re a_12, Im a_12, x_11, x_22, Re x_12, Im x_12 exactly, as integers over one 2^k.

    One input stands for the pair diag(a, a), diag(x, x), whose optimal
    product g_1 g_2 is the one input's gamma.
    """
    values = []
    for m in (a, x):
        off = complex(m[0, 1]) if m.shape[0] == 2 else 0j
        values += [m[0, 0].real, m[-1, -1].real, off.real, off.imag]
    # every denominator is a power of two
    ratios = [float(value).as_integer_ratio() for value in values]
    k = max(den.bit_length() for _, den in ratios)
    return [num << (k - den.bit_length()) for num, den in ratios]


def _pair_is_psd(entries: list[int], g_1: float, g_2: float) -> bool:
    """Whether A - G X G is PSD in exact arithmetic at the floats g_1, g_2 (``_pair_entries``)."""
    a_11, a_22, a_re, a_im, x_11, x_22, x_re, x_im = entries
    (p_1, q_1), (p_2, q_2) = g_1.as_integer_ratio(), g_2.as_integer_ratio()
    # the residual's entries times 2^k q_1^2, 2^k q_2^2 and 2^k q_1 q_2
    r_11 = a_11 * q_1 * q_1 - p_1 * p_1 * x_11
    r_22 = a_22 * q_2 * q_2 - p_2 * p_2 * x_22
    p, q = p_1 * p_2, q_1 * q_2
    off2 = (a_re * q - p * x_re) ** 2 + (a_im * q - p * x_im) ** 2
    return r_11 >= 0 and r_22 >= 0 and r_11 * r_22 >= off2


def _product_is_feasible(entries: list[int], p: float) -> bool:
    """Whether some split g_1 g_2 = p leaves A - G X G PSD in exact arithmetic (AM-GM)."""
    a_11, a_22, a_re, a_im, x_11, x_22, x_re, x_im = entries
    num, den = p.as_integer_ratio()
    # a_11 a_22 and p^2 x_11 x_22, and M, times 2^2k den^2
    d, e = a_11 * a_22 * den * den, num * num * x_11 * x_22
    m = d + e - (a_re * den - num * x_re) ** 2 - (a_im * den - num * x_im) ** 2
    return e <= d and m >= 0 and m * m >= 4 * d * e


def _two_input_low(a: np.ndarray, x: np.ndarray) -> float:
    """The optimal equal efficiency of one or two inputs: the largest one proved feasible.

    That is the largest float gamma <= 1 whose equal efficiencies, with
    g = sqrt(gamma) rounded as ``residual_matrix`` rounds it, leave A - g^2 X
    PSD in exact arithmetic (``_pair_is_psd``). With u = g^2 that is
    a_ii - u x_ii >= 0 and det = alpha u^2 - 2 beta u + c >= 0. The search
    starts from det's stable smaller root c / (beta + sqrt(beta^2 - alpha c)),
    its terms computed exactly and rounded once, steps out by doubling
    multiples of that float's ulp until the answer changes, and bisects.
    Integers only, from ``float.as_integer_ratio``.
    """
    entries = _pair_entries(a, x)
    a_11, a_22, a_re, a_im, x_11, x_22, x_re, x_im = entries
    # det's coefficients times 2^2k, with 2 beta; the root is the same at any scale
    alpha = x_11 * x_22 - x_re * x_re - x_im * x_im
    beta2 = a_11 * x_22 + a_22 * x_11 - 2 * (a_re * x_re + a_im * x_im)
    c = a_11 * a_22 - a_re * a_re - a_im * a_im
    scale = 1 << 2 * a_11.bit_length()
    discriminant = (beta2 * beta2 - 4 * alpha * c) / (scale * scale)
    denominator = beta2 / scale + math.sqrt(max(discriminant, 0.0))
    # the denominator vanishes only where det has no smaller positive root, as at A = X
    guess = min(max(2.0 * (c / scale) / denominator, 0.0), 1.0) if denominator > 0.0 else 1.0

    def feasible(gamma: float) -> bool:
        g = math.sqrt(gamma)
        return gamma <= 1.0 and _pair_is_psd(entries, g, g)

    return _largest_passing(feasible, guess)


def _two_input_high(entries: list[int], start: float) -> float:
    """The first float high above ``start`` that bounds every feasible product p = g_1 g_2.

    The cap gamma_i <= 1 is relaxed, so the best Prob of two inputs
    (``_pair_entries``) is at most high^2 (high for one input). The best split
    of p, AM-GM's, leaves the diagonal product (sqrt(a_11 a_22) - p sqrt(x_11 x_22))^2,
    so some split is feasible exactly when p^2 x_11 x_22 <= a_11 a_22 and
    M = a_11 a_22 + p^2 x_11 x_22 - |a_12 - p x_12|^2 is at least
    2 p sqrt(a_11 a_22 x_11 x_22): M >= 0 and M^2 >= 4 p^2 a_11 a_22 x_11 x_22
    (``_product_is_feasible``). The feasible p form an interval from 0; every
    p <= ``start`` is taken to pass.
    """
    return math.nextafter(_largest_passing(
        lambda p: p <= start or _product_is_feasible(entries, p), start), math.inf)


def _largest_passing(passes, guess: float) -> float:
    """The largest float that ``passes``, a test that holds from 0 up to a point and fails beyond.

    Steps out from ``guess`` by doubling multiples of its ulp until the answer
    changes, then bisects; 0 is taken to pass.
    """
    low = high = guess
    step = math.ulp(guess)
    if passes(guess):
        high = guess + step
        while passes(high):
            low, step = high, 2.0 * step
            high = low + step
    else:
        low = max(guess - step, 0.0)
        while low > 0.0 and not passes(low):
            high, step = low, 2.0 * step
            low = max(high - step, 0.0)
    while (middle := low + (high - low) / 2.0) not in (low, high):
        if passes(middle):
            low = middle
        else:
            high = middle
    return low


def max_prob_two(s: float, t: float) -> tuple[float, tuple[float, float]]:
    """Best success probability for two inputs, with the optimal efficiencies.

    ``_two_input_low``'s optimum of the real pair A = [[1, s], [s, 1]],
    X = [[1, t], [t, 1]]: equal efficiencies gamma_1 = gamma_2 = low and
    Prob = low^2. In exact arithmetic that is the paper's closed form
    min(((1 - s) / (1 - t))^2, ((1 + s) / (1 + t))^2, 1), the smaller root of
    det and the unit cap; here it is the largest float gamma that is provably
    feasible, a float or two from the exact optimum.
    """
    for name, value in (("s", s), ("t", t)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    gamma = _two_input_low(np.array([[1.0, s], [s, 1.0]]), np.array([[1.0, t], [t, 1.0]]))
    return gamma * gamma, (gamma, gamma)


def _whitener(a: np.ndarray) -> np.ndarray:
    """N with N A N^dagger = I, from A's eigendecomposition; rejects a singular A."""
    values, vectors = nonsingular_spectrum(a)
    return (vectors / np.sqrt(values)).conj().T


def _uniform_boundary(x: np.ndarray, whitener: np.ndarray) -> float:
    """The uniform boundary c* = min(1, 1 / lambda_max(N X N^dagger)), from one eigvalsh.

    A - c X >= 0 exactly when c lambda_max(N X N^dagger) <= 1.
    """
    top = float(_eigvalsh(whitener @ x @ whitener.conj().T)[-1])
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
    so C = L^-1 N; a failed factorization, all NaN, means R' is not positive
    definite. This is the barrier's one test of a point, and ``certify``'s.
    """
    if not g.min() > 0.0:
        return None
    m = whitener * g
    residual = np.eye(g.size) - m @ x @ m.conj().T
    # the one kernel call whose failure is routine: the barrier halves its steps on it
    with np.errstate(invalid="ignore"):
        factor = _cholesky(residual)
    if math.isnan(factor[0, 0].real):
        return None
    return _inv(factor) @ whitener


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


def _dual_terms(a: np.ndarray, x: np.ndarray, c: np.ndarray, g: np.ndarray):
    """r_i = Re(S G X)_ii and tr(S A) + n + tr(G S G X), S = C^dagger C, G = diag(g).

    ``dual_bound``'s expression is 2 sum_i log(trace / (2n r_i)) in these terms.
    """
    r = (c.conj() * ((c * g) @ x)).sum(axis=0).real
    trace = g.size + np.vdot(c, c @ (a + g[:, None] * g * x)).real
    return r, trace


def _log_bound(r: np.ndarray, trace: float) -> float:
    """2 sum_i log(trace / (2n r_i)), infinite unless every r_i is positive."""
    # written so that a NaN r certifies nothing
    if not r.min() > 0.0:
        return math.inf
    return 2.0 * float(np.log(trace / (2.0 * r.size * r)).sum())


def _formula_bound(a: np.ndarray, x: np.ndarray, c: np.ndarray, g: np.ndarray) -> float:
    """``_dual_bound`` without its rounding allowance: the duality formula alone."""
    return _log_bound(*_dual_terms(a, x, c, g))


def _dual_bound(a: np.ndarray, x: np.ndarray, c: np.ndarray, g: np.ndarray) -> float:
    n = g.size
    r, trace = _dual_terms(a, x, c, g)
    # first-order bound on the evaluation's rounding, through |C|, |A| and |X|:
    # sums of up to n^2 terms, each a few complex products deep
    slack = 2.0 * (n + 2) ** 2 * _EPS
    c_abs, x_abs = np.abs(c), np.abs(x)
    r_low = r - slack * (c_abs * (np.abs(c * g) @ x_abs)).sum(axis=0)
    trace_high = trace + slack * (
        n + ((c_abs @ (np.abs(a) + np.abs(g[:, None] * g) * x_abs)) * c_abs).sum())
    return _log_bound(r_low, trace_high)


def _gap(
    a: np.ndarray, x: np.ndarray, whitener: np.ndarray, values: np.ndarray, bound=_dual_bound
) -> tuple[float, tuple[np.ndarray, np.ndarray] | None]:
    """``certify``'s (gap, dual point) at efficiencies in [0, 1].

    (inf, None) when they are not strictly feasible, a zero efficiency included.
    With ``bound=_formula_bound`` the gap is the duality formula's alone, before
    the rounding allowance.
    """
    g = np.sqrt(values)
    c = _dual_factor(whitener, x, g)
    if c is None:
        return math.inf, None
    return bound(a, x, c, g) - float(np.log(values).sum()), (c, g)


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
    if not (np.isfinite(c).all() and np.isfinite(h).all()):
        raise ValueError("dual point must be finite")
    return _dual_bound(a, x, c, h)


def certify(A, X_P, gammas) -> tuple[float, tuple[np.ndarray, np.ndarray] | None]:
    """Certified gap of the efficiencies ``gammas``, with the dual point that proves it.

    Returns (gap, dual) with log(best Prob) - log prod(gammas) <= gap, so
    the best success probability is at most prod(gammas) * exp(gap). Unit
    efficiencies have gap 0 and no dual point, as no efficiency exceeds 1.

    For three or more inputs gap = ``dual_bound(A, X_P, dual) - log prod(gammas)``.
    The dual point is (C, sqrt(gamma)) with C^dagger C = (A - G X G)^-1: the
    Lagrange multiplier that the log barrier pairs with a point on its
    central path. At ``maximize_general``'s point, the barrier's centred at
    its last stage t = 1 / UNIFORM_SHORTFALL or a try's that passed its gate,
    the gap is about 2n UNIFORM_SHORTFALL plus the rounding allowance.
    Efficiencies that are not strictly feasible have an infinite gap and no
    dual point. O(n^3).

    One or two inputs need no dual point, and ``dual`` is None: the bound is
    high^n, with high the first float above sqrt(gamma_1 gamma_2) at which
    ``_two_input_high``'s AM-GM test proves no product g_1 g_2 feasible, so
    the gap is sum_i log(high / gamma_i), raised by a bound on its own rounding. It is
    infinite unless every efficiency is positive and the residual at
    g = sqrt(gamma), rounded to floats, is PSD in exact arithmetic. At
    ``maximize_general``'s point, with diagonals 1 to rounding, the bracket
    spans a float or two, and the gap is a few eps; a diagonal off 1 by up to
    ``precision_floor`` can cap one gamma_i first and widen it to about that.
    """
    a, x, values = _solve_inputs(A, X_P, gammas)
    if (values == 1.0).all():
        return 0.0, None
    whitener = _whitener(a)
    if values.size > 2:
        return _gap(a, x, whitener, values)
    entries, root = _pair_entries(a, x), np.sqrt(values)
    if not (values.min() > 0.0 and _pair_is_psd(entries, root[0], root[-1])):
        return math.inf, None
    # sum_i log(high / gamma_i), each term from its small relative difference, raised by
    # a first-order bound on the rounding of that difference, of log1p and of the sum
    high = _two_input_high(entries, math.sqrt(values[0] * values[-1]))
    shifts = [(high - value) / value for value in values.tolist()]
    terms = [math.log1p(shift) for shift in shifts]
    slack = sum(abs(shift) / (1.0 + shift) + abs(term) for shift, term in zip(shifts, terms))
    return sum(terms) + 2.0 * _EPS * slack, None


def _eigensystem(whitener: np.ndarray, x: np.ndarray, y: np.ndarray):
    """One evaluation of the boundary Newton try: one eigh of H = M X M^dagger, M = N G, g = exp(y).

    Returns H's eigenvalues in ascending order, its eigenvectors U, Z = M^dagger U
    and V = X Z.
    """
    m = whitener * np.exp(y)
    m_dagger = m.conj().T
    values, vectors = _eigh(m @ x @ m_dagger)
    z = m_dagger @ vectors
    return values, vectors, z, x @ z


def _pair_terms(x: np.ndarray, eigensystem, r: int, a: int, b: int):
    """Perturbation terms of the pair (a, b), a <= b, of H's top r eigenvectors u_0..u_(r-1).

    Returns half the Jacobian entry, (J_i)_ab / 2 with (J_i)_ab = u_a^dagger (dH / dy_i) u_b
    = conj(z_ia) v_ib + conj(v_ia) z_ib over i (Re(conj(z_ia) v_ia) where a = b), and the n x n matrix
    T_ab = sum_k p_a,ik conj(p_b,jk) D_abk + X_ij conj(z_ia) z_jb, with
    p_a,ik = u_a^dagger (dH / dy_i) u_k = conj(z_ia) v_ik + conj(v_ia) z_ik over the
    eigenvectors k outside the cluster and
    D_abk = (1 / (lambda_a - lambda_k) + 1 / (lambda_b - lambda_k)) / 2: the rotation
    of the eigenvectors, by second-order perturbation theory of the invariant
    subspace, smooth in y while lambda_r > lambda_(r+1). ``_cluster_terms`` sums
    these over the pairs; ``_top_terms`` is its one pair at r = 1.
    """
    values, _, z, v = eigensystem
    z_a, v_a = z[:, a - r].conj(), v[:, a - r].conj()
    coupling = z_a[:, None] * v[:, :-r]
    coupling += v_a[:, None] * z[:, :-r]
    if a == b:
        half_jacobian = (z_a * v[:, a - r]).real
        term = (coupling / (values[a - r] - values[:-r])) @ coupling.conj().T
    else:
        half_jacobian = 0.5 * (z_a * v[:, b - r] + v_a * z[:, b - r])
        other = z[:, b - r].conj()[:, None] * v[:, :-r] + v[:, b - r].conj()[:, None] * z[:, :-r]
        inverse_gaps = 0.5 / (values[a - r] - values[:-r]) + 0.5 / (values[b - r] - values[:-r])
        term = (coupling * inverse_gaps) @ other.conj().T
    term += z_a[:, None] * x * z[:, b - r]
    return half_jacobian, term


def _cluster_terms(x: np.ndarray, eigensystem, weights: np.ndarray):
    """Derivatives in y = log g of <W, U^dagger H U>, U the eigenvectors of H's top r eigenvalues.

    W = ``weights`` is r x r Hermitian, written in the basis U. Returns the
    Jacobian J_i = U^dagger (dH / dy_i) U as an n x r x r stack, the gradient
    tr(W J_i) and the Hessian delta_ij tr(W J_i) + 2 Re F_ij with
    F = sum_ab W_ba T_ab (``_pair_terms``). F is Hermitian, as T_ba = T_ab^dagger,
    so each pair a < b is taken once, with its transpose. With W = I these are
    the derivatives of the sum of the top r eigenvalues.
    """
    n, r = x.shape[0], weights.shape[0]
    jacobian = np.empty((n, r, r), dtype=complex)
    gradient = hessian = 0.0
    for a in range(r):
        for b in range(a, r):
            half_jacobian, term = _pair_terms(x, eigensystem, r, a, b)
            jacobian[:, a, b] = 2.0 * half_jacobian
            jacobian[:, b, a] = jacobian[:, a, b].conj()
            gradient_part = (weights[b, a] * jacobian[:, a, b]).real
            hessian_part = 2.0 * (weights[b, a] * term).real
            if a != b:
                # the pair (b, a) adds the conjugates: W_ab (J_i)_ba and W_ab T_ba
                gradient_part = 2.0 * gradient_part
                hessian_part = hessian_part + hessian_part.T
            gradient = gradient + gradient_part
            hessian = hessian + hessian_part
    hessian.flat[::n + 1] += gradient
    return jacobian, gradient, hessian


def _top_terms(x: np.ndarray, eigensystem):
    """L = log lambda_max(N G X G N^dagger), with its gradient and Hessian in y.

    The r = 1 case of ``_cluster_terms``, its one pair (``_pair_terms``) with
    W = 1 / lambda_max, lambda_max > 0: the gradient (d lambda / dy) / lambda, and
    the Hessian (d2 lambda / dy2) / lambda less the gradient's outer square.
    """
    top = eigensystem[0][-1]
    half_jacobian, term = _pair_terms(x, eigensystem, 1, 0, 0)
    gradient = (2.0 / top) * half_jacobian
    hessian = (2.0 / top) * term.real
    hessian.flat[::gradient.size + 1] += gradient
    hessian -= gradient[:, None] * gradient
    return math.log(top), gradient, hessian


def _cluster_step(x: np.ndarray, eigensystem, weights: np.ndarray):
    """The Newton step in y on the cluster of H's top r eigenvalues, with its multiplier.

    Solves the (n + r^2) system of the linearized equations
    U^dagger H U = I - eps W^-1, eps = lambda_max(W) UNIFORM_SHORTFALL / n, and
    tr(W' J_i) = 2 Re(G X G N^dagger U W' U^dagger N)_ii = 1 for every i, whose
    matrix is [[K, P], [P', 0]] with K the Hessian of <W, U^dagger H U>. A Hermitian
    r x r matrix J has the real coordinates Re J + Im J, and W' those of S with
    W' = (S + S') / 2 + i (S - S') / 2, so that tr(W' J) = sum_ab S_ab (Re J + Im J)_ab;
    P holds the J_i's coordinates. Returns the step and W', in the basis U.
    """
    values = eigensystem[0]
    n, r = values.size, weights.shape[0]
    jacobian, _, hessian = _cluster_terms(x, eigensystem, weights)
    size = n + r * r
    system = np.zeros((size, size))
    system[:n, :n] = hessian
    system[:n, n:] = (jacobian.real + jacobian.imag).reshape(n, r * r)
    system[n:, :n] = system[:n, n:].T
    spectrum, basis = _eigh(weights)
    target = (basis * (-spectrum[-1] * UNIFORM_SHORTFALL / n / spectrum)) @ basis.conj().T
    target.flat[::r + 1] += 1.0 - values[-r:]
    rhs = np.ones(size)
    rhs[n:] = (target.real + target.imag).reshape(-1)
    solution = _solve(system, rhs)
    s = solution[n:].reshape(r, r)
    return solution[:n], 0.5 * ((1.0 + 1.0j) * s + (1.0 - 1.0j) * s.T)


@np.errstate(all="raise", under="ignore")
def _boundary_newton(x: np.ndarray, whitener: np.ndarray) -> np.ndarray | None:
    """The optimum of three or more inputs by Newton's method on the boundary, or None.

    On the boundary lambda_max(N G X G N^dagger) = 1, log Prob is
    2 (sum_i y_i - (n / 2) L) with y = log g and L = log lambda_max, and that
    expression is invariant under g -> c g, as lambda_max is homogeneous of
    degree 2 in g. Newton's method maximizes f(y) = sum_i y_i - (n / 2) L - L^2 / 2,
    whose last term fixes the scale at L = 0. It starts on the boundary, near
    the optimum of the trace relaxation: the most balanced of the uniform g
    and four balancing steps g <- sqrt(g / K g) towards equal g_i (K g)_i,
    K = Re(X o (N^dagger N)^T), so that g' K g = tr(N G X G N^dagger),
    stopping at the first K g that is not positive and finite.
    Steps are damped as the barrier's are while the squared decrement exceeds
    1e-2, and halved until f does not fall. Where lambda_max is simple at the
    optimum it converges quadratically (Overton, SIAM J. Optim. 2(1), 1992).

    Where the top two eigenvalues coalesce lambda_max is not smooth, and with four
    or more inputs the try hands off to Newton's method on the cluster of the top
    r = 2 (Overton and Womersley, SIAM J. Matrix Anal. Appl. 16(3), 1995): at an
    evaluated point whose top two are within 1 %, or where they are within 15 % and
    their first-order values along the next step come within 1 %. Its unknowns are
    y and an r x r Hermitian multiplier W in the basis U of the cluster's
    eigenvectors; each evaluation solves one (n + r^2) system (``_cluster_step``),
    and its r^2 equations need n >= r^2 unknowns. W starts at n / (2 tr U^dagger H U) I
    and is carried to the next evaluation's basis U' as R^dagger W R, R = U^dagger U',
    across the free rotation eigh gives U'. When the step's multiplier has an
    eigenvalue that is not positive, the optimum's top eigenvalue is simple: r drops
    to 1 and the Newton step on f goes on from that point, which may not hand off
    again before the next step. Once a multiplier that was positive definite has
    turned indefinite, the try hands off no more: a trial whose top two are within
    1 % is then taken only where f does not fall. Cluster steps are halved until f
    does not fall.

    Once the squared decrement is at most 1e-6, or a cluster step is at most 1e-8 in
    every y_i, it takes the full step without evaluating there, and returns
    g^2 (1 - UNIFORM_SHORTFALL / n) / lambda_max at the new g, scaled onto the
    boundary as the uniform trial is by one eigvalsh. A cluster step aims at the
    interior point whose whitened residual on the cluster, I - U^dagger H U, is
    eps W^-1 with least eigenvalue UNIFORM_SHORTFALL / n, so that scaling moves it by
    rounding only: the certificate's dual point there is W, as the barrier's is on
    its central path. At r = 1 that point is the scaled one. A cluster step must
    start within about 1e-8 of its target, as the residual on the cluster, about
    1e-11, must be right to its rounding; a simple top eigenvalue needs only its
    scale. The try declines, returning None, when the top two eigenvalues come
    within 1 % with fewer than four inputs, or at a trial where f falls after a
    multiplier turned indefinite, when the decrement is not positive, when
    an evaluation or a solve fails or overflows, or once _BOUNDARY_EVALUATIONS
    evaluations are spent.
    """
    n = x.shape[0]
    try:
        # g' K g = tr(N G X G N^dagger) >= lambda_max, so the g that maximizes
        # sum_i log g_i on g' K g = 1, where every g_i (K g)_i is equal, is the optimum
        # where N G X G N^dagger has rank one. Balancing approaches it (Knight, Ruiz and
        # Ucar, SIAM J. Matrix Anal. Appl. 35(3), 2014), but negative entries of K can
        # make it diverge: keep the most balanced g
        k = (x * (whitener.conj().T @ whitener).T).real
        g = start = np.ones(n)
        least = math.inf
        for balancing in range(5):
            if balancing:
                g = np.sqrt(g / kg)
            kg = k @ g
            # g > 0, so the balance g_i (K g)_i has the signs of K g
            balance = g * kg
            low, high = np.minimum.reduce(balance), np.maximum.reduce(balance)
            if not (low > 0.0 and high < math.inf):
                break
            if high / low < least:
                least, start = high / low, g
        y = np.log(start)
        values, vectors, z, v = _eigensystem(whitener, x, y)
        # scaled onto the boundary, where L = 0: g -> g / sqrt(lambda_max) divides H by
        # lambda_max, and Z and V by its square root
        root = math.sqrt(values[-1])
        y = y - math.log(values[-1]) / 2.0
        eigensystem = (values / values[-1], vectors, z / root, v / root)
        value = float(y.sum())
        # r = 1 takes Newton steps on f, r = 2 cluster steps; dropped: r fell back to 1
        # at this point, which may not hand off again before the next step; positive: a
        # cluster step's multiplier has been positive definite, so back at r = 1 it has
        # turned indefinite since, and the try hands off no more
        r, dropped, positive, evaluations = 1, False, False, 1
        coalesced = values[-2] >= 0.99 * values[-1]
        while True:
            if coalesced:
                # the cluster step's r^2 = 4 equations need as many unknowns
                if n < 4:
                    return None
                # tr(W sum_i J_i) = 2 tr(W U^dagger H U) = n, as at the optimum
                r, coalesced = 2, False
                weights = np.eye(2) * (n / (2.0 * eigensystem[0][-2:].sum()))
            if r == 1:
                log_top, gradient, hessian = _top_terms(x, eigensystem)
                weight = n / 2.0 + log_top
                # minus f's gradient, so that delta solves (f's Hessian) delta = -(its gradient)
                descent = weight * gradient - 1.0
                delta = _solve(-weight * hessian - gradient[:, None] * gradient, descent)
                decrement2 = -float(descent @ delta)
                if not decrement2 > 0.0:
                    return None
                done = decrement2 <= 1e-6
                step = delta / (1.0 + math.sqrt(decrement2)) if decrement2 > 1e-2 else delta
                # where the top two are within 15 %, their values to first order along the
                # step: lambda_k + (d lambda_k / dy) step, d lambda_k / dy_i = 2 Re(conj(z_ik) v_ik)
                values, _, z, v = eigensystem
                if n >= 4 and not (done or dropped or positive) and values[-2] >= 0.85 * values[-1]:
                    coalesced = (values[-2] + 2.0 * np.vdot(z[:, -2], v[:, -2] * step).real
                                 >= 0.99 * values[-1] * (1.0 + gradient @ step))
                    if coalesced:
                        continue
            else:
                delta, multiplier = _cluster_step(x, eigensystem, weights)
                if not _eigvalsh(multiplier)[0] > 0.0:
                    # the optimum's top eigenvalue is simple: back to the Newton step on f
                    r, dropped = 1, True
                    continue
                positive = True
                done = np.abs(delta).max() <= 1e-8
                step = delta
            if done:
                # the full step is predicted to end within rounding of its target:
                # scale it onto the boundary with one eigvalsh, not a full evaluation
                g = np.exp(y + delta)
                m = whitener * g
                top = float(_eigvalsh(m @ x @ m.conj().T)[-1])
                return np.minimum(g * g / top * (1.0 - UNIFORM_SHORTFALL / n), 1.0)
            while True:
                if evaluations == _BOUNDARY_EVALUATIONS:
                    return None
                evaluations += 1
                trial_y = y + step
                trial_system = _eigensystem(whitener, x, trial_y)
                values = trial_system[0]
                log_trial = math.log(values[-1])
                trial = float(trial_y.sum()) - (n / 2.0 + log_trial / 2.0) * log_trial
                coalesced = r == 1 and values[-2] >= 0.99 * values[-1]
                if coalesced and positive:
                    # no second hand-off: a trial within 1 % is taken only where f rises
                    if not trial >= value:
                        return None
                    coalesced = False
                if coalesced or trial >= value:
                    break
                step = step / 2.0
            if r > 1:
                # W from the old cluster basis U to the new one U': R^dagger W R, R = U^dagger U'
                rotation = eigensystem[1][:, -r:].conj().T @ trial_system[1][:, -r:]
                weights = rotation.conj().T @ multiplier @ rotation
            y, value, eigensystem, dropped = trial_y, trial, trial_system, False
    except FloatingPointError:
        return None


def maximize_general(A, X_P) -> tuple[np.ndarray, float]:
    """Globally optimal efficiencies for any number of inputs, within the certified gap.

    Returns (gammas, prob). If gamma = 1 is admissible it is the optimum.
    One or two inputs otherwise have an optimum with equal efficiencies
    (with unit diagonals the swap maps A and X to their conjugates), and
    every gamma_i is ``_two_input_low``'s: the largest float whose
    residual is PSD in exact arithmetic, a float or two below the optimum
    where the diagonals are 1 to rounding.
    Three or more inputs try Newton's method on the boundary
    lambda_max(N G X G N^dagger) = 1 (N A N^dagger = I), which
    ``_boundary_newton`` describes, and its point is returned without a
    barrier solve when its formula gap, ``certify``'s gap before the rounding
    allowance, is at most 3n UNIFORM_SHORTFALL. At the try's target the
    formula gap is about 2n UNIFORM_SHORTFALL. The allowance, which grows
    with n and cond(A), bounds the rounding of the bound's own evaluation,
    which no point can lower: the gate does not compute it, and ``certify``
    still adds it. Every solve whose try is not returned runs the barrier
    from scratch and returns the barrier's point.
    The log-barrier method minimizes
    -2t sum_i log g_i - log det(A - G X G) over g = sqrt(gamma), starting
    from half the uniform boundary c* (``uniform_feasibility_boundary``) at
    t = 1. Each stage centres by damped Newton steps of length
    1 / (1 + lambda), with lambda the Newton decrement, until
    lambda^2 <= 1e-2. Between stages t grows by
    BARRIER_GROWTH, and g moves along the central path's tangent, linear
    in 1 / t: g + (t - t / BARRIER_GROWTH) K^-1 (2 / g), with K the Newton
    matrix of the centring test. The last stage, t = 1 / UNIFORM_SHORTFALL,
    where the central path's gap 2n / t is the try's target for every n,
    centres on past lambda^2 <= 1e-2
    while lambda^2 is positive and still falling, and ends at the first step
    where it is neither: below 1e-2 it falls quadratically in exact
    arithmetic, so one that does not fall measures rounding. Every step, a
    Newton step or a tangent, is halved in one loop until ``_dual_factor``
    accepts g + step: every g_i > 0 and the whitened residual passes a
    Cholesky factorization. The solve ends at the last g that passed once the
    halved step falls below eps g, where it no longer moves g, or once
    NEWTON_STEP_LIMIT, which counts every halving too, is spent. A stage before
    the last whose squared decrement reads zero or negative, which only
    rounding produces, ends the solve at the last point that passed its
    centring test, as a tangent step from an uncentred point can reach points
    no dual certifies.

    However a solve of three or more inputs ends, a returned gamma other than
    gamma = 1 is a point whose whitened residual passed a floating-point
    Cholesky factorization, and ``certify`` bounds its distance from the
    global optimum. That is a test in floating point, not a proof of
    feasibility: at ill-conditioned corners the returned gamma can be
    infeasible in exact arithmetic. gamma = 1 is admitted by ``_admissible``'s
    eigenvalue test, within the rounding floor.

    A and X_P pass ``_solve_inputs``, as at every entry: Gram matrices of unit
    states, whose unit diagonal caps each feasible gamma_i at 1, so the barrier,
    which ignores that cap, solves the capped problem. A singular A is rejected.
    """
    a, x, _ = _solve_inputs(A, X_P)
    n = a.shape[0]
    whitener = _whitener(a)
    # judged on the unwhitened residual, not as lambda_max(N X N^dagger) <= 1: at
    # s = t = 1 - 1e-9 (cond(A) = 2e9) that eigenvalue reads 1 + 3.4e-7, and deciding
    # gamma = 1 from it gave Prob 0.99999966 where gamma = 1 is admissible
    if _admissible(a, x):
        return np.ones(n), 1.0
    if n <= 2:
        gammas = np.full(n, _two_input_low(a, x))
        return gammas, float(gammas.prod())
    gammas = _boundary_newton(x, whitener)
    # the try aims at a whitened margin of UNIFORM_SHORTFALL / n, where the formula gap
    # is about 2n UNIFORM_SHORTFALL: 1.5 times that passes tries at their target and
    # fails those that stopped short
    if gammas is not None and (_gap(a, x, whitener, gammas, _formula_bound)[0]
                               <= 3.0 * n * UNIFORM_SHORTFALL):
        return gammas, float(gammas.prod())

    g = np.full(n, math.sqrt(_uniform_boundary(x, whitener) / 2.0))
    gradient, hessian = _log_det_terms(whitener, x, g)
    t = 1.0
    systems = 0
    previous = math.inf  # decrement2 of the stage's preceding centring test
    centred = g  # the point of the last stage that passed its centring test
    # the terms are halves, and so are the barrier's gradient and Newton matrix
    # below: scaling by 2 is exact, so each step and decrement is as unhalved
    while systems < NEWTON_STEP_LIMIT:
        systems += 1
        last = t >= 1.0 / UNIFORM_SHORTFALL
        barrier_gradient = gradient - t / g
        newton = hessian  # a fresh array per step, turned into the Newton matrix in place
        newton.flat[::n + 1] += t / (g * g)
        delta = _solve(newton, -barrier_gradient)
        decrement2 = -2.0 * float(barrier_gradient @ delta)
        # below 1e-2 the decrement falls quadratically in exact arithmetic, so
        # one that does not fall, or a negative one, measures rounding
        converging = 0.0 < decrement2 < previous
        previous = decrement2
        if decrement2 > 1e-2 or (last and converging):
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
            step = (t - t / BARRIER_GROWTH) * _solve(newton, 1.0 / g)
            t *= BARRIER_GROWTH
            previous = math.inf
        # rounding, or the tangent's reach, can leave the feasible set; below
        # eps g a halved step no longer moves g
        terms = _log_det_terms(whitener, x, g + step)
        while terms is None and systems < NEWTON_STEP_LIMIT and (abs(step) >= _EPS * g).any():
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
