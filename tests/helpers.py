"""Shared random-instance generators and reference computations for the test suite."""

import re
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

from qmask.fixed_reducing import marginal_deviations, marginals
from qmask.hilbert import MultipartiteState, gram, rounding_floor

README = Path(__file__).resolve().parent.parent / "README.md"
# the certified gap in log Prob that tests hold a solve of three or more inputs to
GAP_TOL = 1e-8


def haar_unitary(d, rng, real=False):
    """Haar-random d x d unitary, or orthogonal matrix where ``real``."""
    if real:
        z = rng.standard_normal((d, d))
    else:
        z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    # fix column phases (signs where real) so the distribution is Haar
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(d, rng, real=False):
    z = rng.standard_normal(d) if real else rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return MultipartiteState(z / np.linalg.norm(z))


def random_orthonormal(n, d, rng):
    u = haar_unitary(d, rng)
    return [MultipartiteState(u[:, i]) for i in range(n)]


def random_independent(n, d, rng, min_gram_eig=1e-3, real=False):
    """Random family that is linearly independent with a solid margin, real-valued where ``real``."""
    while True:
        states = [random_state(d, rng, real) for _ in range(n)]
        if np.linalg.eigvalsh(gram(states))[0] > min_gram_eig:
            return states


def frame(states):
    """The D x n array whose columns are the states' amplitudes."""
    return np.column_stack([state.amplitudes for state in states])


def dense(operator):
    """The D x D matrix of a ``hilbert.Operator``, formed through its ``apply``."""
    return operator.apply(np.eye(operator.dim))


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
    feasible_points = determinant >= -rounding_floor(2)
    if not np.any(feasible_points):
        return 0.0
    return float(np.max(np.where(feasible_points, product, 0.0)))


def residual_is_psd(a, x, gammas, shift=0.0):
    """Whether A - G X G + shift I is positive semidefinite in exact arithmetic.

    g = ``np.sqrt(gammas)`` is taken as floats, as the solver takes it, and every
    float of A, X (both exactly Hermitian), g and ``shift`` is converted exactly
    to a ``Fraction``. The residual R is PSD exactly when its real 2n x 2n
    embedding [[Re R, -Im R], [Im R, Re R]] is, which an LDL^T in rationals
    decides: a negative pivot, or a zero pivot with a nonzero entry below it,
    means it is not.
    """
    a, x = np.asarray(a, dtype=complex), np.asarray(x, dtype=complex)
    assert (a == a.conj().T).all() and (x == x.conj().T).all()
    g = [Fraction(value) for value in np.sqrt(np.asarray(gammas, dtype=float))]
    n = len(g)

    real, imag = ([[Fraction(part(a[i, j])) - g[i] * g[j] * Fraction(part(x[i, j]))
                    for j in range(n)] for i in range(n)]
                  for part in (np.real, np.imag))
    for i in range(n):
        real[i][i] += Fraction(shift)
    m = [real[i] + [-value for value in imag[i]] for i in range(n)]
    m += [imag[i] + real[i] for i in range(n)]
    for k in range(2 * n):
        pivot = m[k][k]
        if pivot < 0 or (pivot == 0 and any(m[i][k] for i in range(k + 1, 2 * n))):
            return False
        if pivot == 0:
            continue
        for i in range(k + 1, 2 * n):
            factor = m[i][k] / pivot
            if factor:
                for j in range(k + 1, 2 * n):
                    m[i][j] -= factor * m[k][j]
    return True


def paper_formula(s, t):
    """min(((1 - s) / (1 - t))^2, ((1 + s) / (1 + t))^2, 1), the paper's two-input optimum.

    In floats for float s, t, as the paper writes it, and exactly for ``Fraction`` s, t.
    """
    first = ((1 - s) / (1 - t)) ** 2 if t < 1 else 1
    return min(first, ((1 + s) / (1 + t)) ** 2, 1)


def two_input_optimum(a, x):
    """The exact bracket (low, high) of a two-input problem, by bisection over floats in rationals.

    ``low`` is the largest float gamma <= 1 at which equal efficiencies, with
    g = ``np.sqrt(gamma)``, leave A - g^2 X PSD in exact arithmetic. ``high``
    is the least float above ``low`` at which no split g_1 g_2 = high of the
    product leaves it PSD: by AM-GM on the actual diagonals, the best split
    leaves the diagonal product (sqrt(a_11 a_22) - p sqrt(x_11 x_22))^2, so
    some split works exactly when p^2 x_11 x_22 <= a_11 a_22 and
    M = a_11 a_22 + p^2 x_11 x_22 - |a_12 - p x_12|^2 satisfies M >= 0 and
    M^2 >= 4 p^2 a_11 a_22 x_11 x_22. So the best Prob lies in [low^2, high^2].
    Every float of A and X is converted exactly to a ``Fraction``, and each
    bisection runs over the bit patterns of nonnegative floats, which are ordered as
    the floats are.
    """
    (a_11, a_12), (_, a_22) = [[Fraction(complex(v).real) for v in row] for row in a]
    (x_11, x_12), (_, x_22) = [[Fraction(complex(v).real) for v in row] for row in x]
    a_i, x_i = Fraction(complex(a[0][1]).imag), Fraction(complex(x[0][1]).imag)

    def off_diagonal(p):
        return (a_12 - p * x_12) ** 2 + (a_i - p * x_i) ** 2

    def equal_split(gamma):
        u = Fraction(float(np.sqrt(gamma))) ** 2
        r_11, r_22 = a_11 - u * x_11, a_22 - u * x_22
        return r_11 >= 0 and r_22 >= 0 and r_11 * r_22 >= off_diagonal(u)

    def some_split(p):
        d, e = a_11 * a_22, p * p * x_11 * x_22
        m = d + e - off_diagonal(p)
        return e <= d and m >= 0 and m * m >= 4 * d * e

    def last(test, low, high):
        """The last float bit pattern in [low, high) passing ``test``, which passes at low
        and fails from some point on."""
        while high - low > 1:
            middle = (low + high) // 2
            low, high = (middle, high) if test(to_float(middle)) else (low, middle)
        return low

    def to_float(bits):
        return float(np.int64(bits).view(np.float64))

    def to_bits(value):
        return int(np.float64(value).view(np.int64))

    one = to_bits(1.0)
    low = one if equal_split(1.0) else last(equal_split, 0, one)
    above = last(lambda p: p <= to_float(low) or some_split(Fraction(p)), low, to_bits(2.0))
    return to_float(low), to_float(above + 1)


def max_marginal_deviation(states):
    """Largest entrywise gap of any member's marginals from the first member's."""
    return max(marginal_deviations([marginals(state) for state in states]))


def library_tour() -> str:
    """The README's one ``python`` code block."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    return blocks[0]


def circulant_family(n, d, rng):
    """n inputs a_k = V^k a_0 on C^d with fixed reducing targets (I (x) W^k) Psi_0, k < n.

    With omega = e^(2 pi i / n), V = diag(omega^(i mod n)) and W = diag(omega^p_i)
    for random integers p_i, a random a_0 and Psi_0 maximally entangled. d >= n
    lets V's exponents cover every residue mod n, so the inputs are independent.
    Both Gram matrices are circulant: the cyclic shift of the inputs fixes them,
    so averaging an optimum over the shifts gives an equal-efficiency one, and
    the optimum is c*^n with c* = ``uniform_feasibility_boundary(A, X)``.
    """
    from qmask.fixed_reducing import FixedReducingSet

    omega = np.exp(2j * np.pi / n)
    v = omega ** (np.arange(d) % n)
    w = omega ** rng.integers(0, n, d)
    a_0 = random_state(d, rng).amplitudes
    inputs = [MultipartiteState(v ** k * a_0) for k in range(n)]
    targets = FixedReducingSet(
        [MultipartiteState(np.diag(w ** k).reshape(-1) / np.sqrt(d), (d, d)) for k in range(n)])
    return inputs, targets


def overlap_family(s, t, seed, d=2, n=2):
    """Inputs with <a_1|a_2> = s and flat-spectrum targets with <Psi_1|Psi_2> = t on C^d.

    With n = 3 (and d >= 3) a third input orthogonal to both and a third
    target orthogonal to both (the cyclic shift) join them, so t = 1 makes
    the target Gram matrix singular at rank 2 of 3. The inputs are rotated
    by a Haar unitary and the targets by local Haar unitaries W_A (x) W_B,
    drawn from ``seed``: the Gram pair is the unrotated one, up to the
    rounding the rotation adds.
    """
    from qmask.fixed_reducing import cyclic_targets, from_states, targets_with_overlap

    rng = np.random.default_rng(seed)
    shape = np.zeros((n, d), dtype=complex)
    shape[0, 0] = 1.0
    shape[1, :2] = s, np.sqrt(1.0 - s * s)
    if n == 3:
        shape[2, 2] = 1.0
    inputs = [MultipartiteState(row) for row in shape @ haar_unitary(d, rng).T]
    members = [*targets_with_overlap(d, t).states, cyclic_targets(2, d).states[1]]
    w_a, w_b = haar_unitary(d, rng), haar_unitary(d, rng)
    targets = from_states([
        MultipartiteState((w_a @ psi.amplitudes.reshape(d, d) @ w_b.T).reshape(-1), (d, d))
        for psi in members[:n]
    ])
    return inputs, targets
