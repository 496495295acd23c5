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
