"""Shared random-instance generators for the test suite."""

import numpy as np

from qmask.hilbert import StateVector, gram


def haar_unitary(d, rng):
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    # fix column phases so the distribution is Haar
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(d, rng):
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return StateVector(z / np.linalg.norm(z))


def random_orthonormal(n, d, rng):
    u = haar_unitary(d, rng)
    return [StateVector(u[:, i]) for i in range(n)]


def random_independent(n, d, rng, min_gram_eig=1e-3):
    """Random family that is linearly independent with a solid margin."""
    while True:
        states = [random_state(d, rng) for _ in range(n)]
        if np.linalg.eigvalsh(gram(states))[0] > min_gram_eig:
            return states



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
    from qmask.hilbert import MultipartiteState

    rng = np.random.default_rng(seed)
    shape = np.zeros((n, d), dtype=complex)
    shape[0, 0] = 1.0
    shape[1, :2] = s, np.sqrt(1.0 - s * s)
    if n == 3:
        shape[2, 2] = 1.0
    inputs = [StateVector(row) for row in shape @ haar_unitary(d, rng).T]
    members = [*targets_with_overlap(d, t).states, cyclic_targets(2, d).states[1]]
    w_a, w_b = haar_unitary(d, rng), haar_unitary(d, rng)
    targets = from_states([
        MultipartiteState((w_a @ psi.amplitudes.reshape(d, d) @ w_b.T).reshape(-1), (d, d))
        for psi in members[:n]
    ])
    return inputs, targets
