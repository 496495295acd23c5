"""Seeded instance generation for the qmask benchmark.

Every instance is built from numpy arrays only; qmask sees the states
as files or arrays, never the generator. An instance has a *shape* and a
*placement*:

- the shape fixes the input Gram matrix A and the target Gram matrix X.
  Shapes come from a fixed master stream, so every seed poses the
  optimizer the same Gram pairs and ``prob_geomean`` compares like with
  like across seeds;
- the placement is drawn from ``--seed`` and the instance index: a Haar
  unitary rotates the inputs and local Haar unitaries W_A (x) W_B move the
  targets. Both leave A and X unchanged up to rounding, but the state
  vectors, the files and the rounding of every Gram entry differ per seed
  and per operation, so no two operations hand qmask identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MASTER_SEED = 20190501

# tags keep the per-workload streams of one seed independent of each other
WORKLOAD_TAGS = {"cli-pipeline": 1, "simulate-reuse": 2, "optimize-sweep": 3}

# two-input (s, t) grid: interior points, the corners s -> 1 and t -> 1,
# the diagonal t = s, and the three points where maximize_general is
# known to exceed the closed form
TWO_INPUT_GRID = (
    (0.0, 0.0), (0.0, 0.5), (0.3, 0.0), (0.5, 0.3), (0.5, 0.5), (0.5, 0.9),
    (0.7, 0.2), (0.9, 0.9), (0.9, 0.5), (0.99, 0.0), (0.999, 0.99),
    (0.3, 1.0 - 1e-9), (1.0 - 1e-9, 0.0), (1.0 - 1e-9, 1.0 - 1e-9),
)


@dataclass(frozen=True)
class Instance:
    """One masking problem: inputs on C^d and bipartite targets on C^d (x) C^d.

    ``targets`` is None for a deterministic instance, whose targets are
    qmask's default cyclic family. ``s`` and ``t`` are set for two-input
    instances and hold the overlap magnitudes measured on the placed states.
    """

    index: int
    kind: str  # "prob" or "det"
    d: int
    inputs: np.ndarray  # (n, d) complex
    targets: np.ndarray | None  # (n, d*d) complex
    s: float | None = None
    t: float | None = None

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def big_d(self) -> int:
        """Dimension D of the masker unitary."""
        return self.d * self.d * (self.n + 1) if self.kind == "prob" else self.d * self.d

    def gram_pair(self) -> tuple[np.ndarray, np.ndarray]:
        a = self.inputs.conj() @ self.inputs.T
        x = self.targets.conj() @ self.targets.T
        return (a + a.conj().T) / 2, (x + x.conj().T) / 2


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def placement_rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOAD_TAGS[workload], index])


def _normalized(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def random_shape(n: int, d: int, number: int) -> tuple[np.ndarray, np.ndarray]:
    """Shape ``number`` for (d, n) from the master stream.

    Inputs are the first n basis vectors plus a complex Gaussian
    perturbation of norm about 1/2, so they are linearly independent
    with a solid margin; targets are flat-spectrum states
    (1/sqrt d) sum_i |i> (x) V_k|i> with Haar-random V_k.
    """
    rng = np.random.default_rng([MASTER_SEED, d, n, number])
    noise = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    inputs = _normalized(np.eye(n, d, dtype=complex) + 0.5 * noise / np.sqrt(2 * d))
    targets = np.stack([haar_unitary(d, rng).T.reshape(-1) / np.sqrt(d) for _ in range(n)])
    return inputs, targets


def two_input_shape(s: float, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Real overlaps <a_1|a_2> = s and <Psi_1|Psi_2> = t on d = 2."""
    inputs = np.array([[1.0, 0.0], [s, np.sqrt(max(1.0 - s * s, 0.0))]], dtype=complex)
    phi = np.arccos(t)
    # flat spectrum: amplitude matrices diag(1, 1)/sqrt 2 and diag(e^{i phi}, e^{-i phi})/sqrt 2
    targets = np.array([
        [1.0, 0.0, 0.0, 1.0],
        [np.exp(1j * phi), 0.0, 0.0, np.exp(-1j * phi)],
    ]) / np.sqrt(2)
    return inputs, targets


def place(inputs: np.ndarray, targets: np.ndarray | None, d: int,
          rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray | None]:
    """Rotate inputs by a Haar U and targets by local Haar W_A (x) W_B."""
    placed_inputs = _normalized(inputs @ haar_unitary(d, rng).T)
    if targets is None:
        return placed_inputs, None
    w_a, w_b = haar_unitary(d, rng), haar_unitary(d, rng)
    matrices = targets.reshape(-1, d, d)
    moved = np.einsum("ij,kjl,ml->kim", w_a, matrices, w_b).reshape(len(targets), d * d)
    return placed_inputs, _normalized(moved)


def probabilistic(workload: str, seed: int, index: int, d: int, n: int, number: int) -> Instance:
    inputs, targets = place(*random_shape(n, d, number), d, placement_rng(seed, workload, index))
    return Instance(index, "prob", d, inputs, targets)


def deterministic(workload: str, seed: int, index: int, d: int) -> Instance:
    """d orthonormal inputs: the columns of a seeded Haar unitary."""
    u = haar_unitary(d, placement_rng(seed, workload, index))
    return Instance(index, "det", d, np.ascontiguousarray(u.T), None)


def two_input(workload: str, seed: int, index: int, s: float, t: float) -> Instance:
    inputs, targets = place(*two_input_shape(s, t), 2, placement_rng(seed, workload, index))
    measured_s = float(abs(np.vdot(inputs[0], inputs[1])))
    measured_t = float(abs(np.vdot(targets[0], targets[1])))
    return Instance(index, "prob", 2, inputs, targets, min(measured_s, 1.0), min(measured_t, 1.0))


def _pairs(vector: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in vector]


def write_state_set(path: Path, dims: tuple[int, ...], vectors: np.ndarray) -> None:
    """State-set file in qmask's documented format, written without qmask."""
    document = {"dims": list(dims), "states": [_pairs(v) for v in vectors]}
    path.write_text(json.dumps(document) + "\n", encoding="utf-8")
