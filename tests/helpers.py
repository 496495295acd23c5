"""Shared random-instance generators and reference computations for the test suite."""

import re
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np

from qmask.fixed_reducing import marginal_deviations, marginals
from qmask.hilbert import MultipartiteState, gram, rounding_floor

README = Path(__file__).resolve().parent.parent / "README.md"


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
