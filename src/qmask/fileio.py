"""JSON file formats for state sets and maskers.

Complex numbers are stored as two-element [re, im] arrays throughout, so
files are locale- and format-unambiguous and round-trip bit exactly
through Python's float repr. Files are written as compact, unindented
JSON (an indent would force CPython's pure-Python encoder); indented
files with the same schema load through the same parser.

A masker file carries ``"version": 2`` and the two arrays of its
``hilbert.Operator``, U = I - Q Q^dagger + Q W Q^dagger: ``span_basis``
is Q (D rows of k pairs, k <= 2n), an orthonormal basis of the only
subspace U moves, and ``unitary`` is W (k x k), U written in that basis.
The file grows as O(D n) rather than O(D^2). Files without a version
(version 1) have no ``span_basis``: their ``unitary`` is the dense
D x D matrix, which is the operator with Q = I. They load as such, Q
formed only once that matrix has parsed as D x D, and are written back
as version 2 with k = D, which the reader accepts as well. On load Q
must be orthonormal, W unitary, the targets fixed reducing, every
failure branch weight equal to 1 - gamma_k and every success weight
gamma_k; any failure is a ``FileFormatError`` naming the field.

Loading converts each array of pairs with one numpy call and checks its
shape, its numeric type and that it holds no JSON booleans. Only when
that check fails is the array walked level by level, so the error names
the first offending entry, e.g. ``span_basis[3][7]``.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import Sequence

import numpy as np

from . import fixed_reducing, masker as masking
from .hilbert import NORM_TOL, MultipartiteState, Operator, StateVector

MASKER_VERSION = 2


class FileFormatError(ValueError):
    """Malformed input file; the message names the offending field."""


def _require(condition: bool, field: str, detail: str) -> None:
    if not condition:
        raise FileFormatError(f"field '{field}': {detail}")


def _pairs_to_json(values: np.ndarray) -> list:
    """Nested lists of [re, im] Python floats, which keep their exact repr."""
    values = np.asarray(values, dtype=complex)
    return np.stack([values.real, values.imag], -1).tolist()


def _write_json(path, document: dict) -> None:
    Path(path).write_text(json.dumps(document, separators=(",", ":")) + "\n", encoding="utf-8")


def _first_fault(data, field: str, shape: tuple[int, ...]) -> None:
    """Raise FileFormatError at the first entry of ``data`` that breaks ``shape`` [re, im] pairs."""
    if not shape:
        _require(isinstance(data, list) and len(data) == 2
                 and all(type(part) in (int, float) for part in data),
                 field, f"expected a two-element [re, im] number pair, got {data!r}")
        return
    _require(isinstance(data, list) and len(data) == shape[0], field,
             f"expected a list of {shape[0]} entries")
    for i, entry in enumerate(data):
        _first_fault(entry, f"{field}[{i}]", shape[1:])


def _complex_array(data, field: str, shape: tuple[int, ...]) -> np.ndarray:
    """``data``, nested lists of [re, im] JSON number pairs, as a complex array of ``shape``.

    Well-formed data convert in one numpy pass; only otherwise is ``data``
    walked level by level, so that the error names the first bad entry.
    """
    try:
        pairs = np.asarray(data)
    except ValueError:  # ragged nesting
        pairs = None
    if pairs is not None and pairs.shape == (*shape, 2) and pairs.dtype.kind in "if":
        leaves = data
        for _ in shape:
            leaves = itertools.chain.from_iterable(leaves)
        # np.asarray turns a JSON true among numbers into 1 without complaint
        if set(map(type, leaves)) <= {int, float}:
            return np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0]
    _first_fault(data, field, shape)
    # well-formed pairs numpy keeps as objects: integers of magnitude 2^64 or more, never amplitudes
    raise FileFormatError(f"field '{field}': holds an integer far too large for an amplitude")


def _dims_from_json(data, field: str) -> tuple[int, ...]:
    _require(
        isinstance(data, list) and data
        and all(isinstance(d, int) and not isinstance(d, bool) and d > 0 for d in data),
        field,
        f"expected a nonempty list of positive integers, got {data!r}",
    )
    return tuple(data)


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"field 'document': {path} is not valid JSON ({exc})") from exc
    _require(isinstance(document, dict), "document", "top level must be a JSON object")
    return document


def state_set_to_json(dims: Sequence[int], vectors: Sequence[np.ndarray]) -> dict:
    return {
        "dims": [int(d) for d in dims],
        "states": [_pairs_to_json(v) for v in vectors],
    }


def state_set_from_json(
    document: dict, field: str = "", *, renormalize: bool = False
) -> tuple[tuple[int, ...], list[np.ndarray]]:
    """The dims and vectors of a state set; optional ``labels`` are checked, not returned."""
    prefix = f"{field}." if field else ""
    dims = _dims_from_json(document.get("dims"), f"{prefix}dims")
    total = int(np.prod(dims))
    raw_states = document.get("states")
    _require(isinstance(raw_states, list) and raw_states, f"{prefix}states",
             "expected a nonempty list of state vectors")
    vectors = []
    for i, raw in enumerate(raw_states):
        vector = _complex_array(raw, f"{prefix}states[{i}]", (total,))
        norm = float(np.linalg.norm(vector))
        if renormalize:
            _require(norm > 0, f"{prefix}states[{i}]", "cannot renormalize the zero vector")
            vector = vector / norm
        else:
            _require(
                abs(norm - 1.0) <= NORM_TOL,
                f"{prefix}states[{i}]",
                f"is not normalized (|norm - 1| = {abs(norm - 1.0):.3e}); "
                "pass --renormalize to repair",
            )
        vectors.append(vector)
    labels = document.get("labels")
    if labels is not None:
        _require(
            isinstance(labels, list) and len(labels) == len(vectors)
            and all(isinstance(l, str) for l in labels),
            f"{prefix}labels",
            "expected one string per state",
        )
    return dims, vectors


def load_state_set(
    path, *, renormalize: bool = False
) -> tuple[tuple[int, ...], list[np.ndarray]]:
    """Read a state-set file, validating shape and normalization."""
    return state_set_from_json(_load_json(path), renormalize=renormalize)


def save_state_set(path, dims, vectors) -> None:
    _write_json(path, state_set_to_json(dims, vectors))


def _ancilla_index(ancilla: StateVector) -> int:
    index = int(np.argmax(np.abs(ancilla.amplitudes)))
    residual = ancilla.amplitudes.copy()
    residual[index] -= 1.0
    if not float(np.max(np.abs(residual))) <= NORM_TOL:
        raise ValueError(
            "only computational-basis ancilla states can be written to a masker file"
        )
    return index


def masker_to_json(m) -> dict:
    """Serializable form of a masker; inverse of masker_from_json."""
    d = m.dim
    document = {
        "dims": [d, d],
        "version": MASKER_VERSION,
        "span_basis": _pairs_to_json(m.unitary.span_basis),
        "unitary": _pairs_to_json(m.unitary.span_unitary),
        "targets": state_set_to_json(
            (d, d), [s.amplitudes for s in m.targets.states]
        ),
        "inputs": state_set_to_json((d,), [a.amplitudes for a in m.inputs]),
        "ancilla_index": _ancilla_index(m.ancilla),
    }
    if m.probe_dim > 1:
        document["kind"] = "probabilistic"
        document["dims"] = [d, d, m.probe_dim]
        document["gammas"] = [float(g) for g in m.gammas]
        document["probe_dim"] = m.probe_dim
    else:
        document["kind"] = "deterministic"
    return document


def _unitary_from_json(document: dict, total: int, n: int) -> Operator:
    """The masker unitary: W in the basis ``span_basis`` (version 2), or dense with Q = I."""
    version = document.get("version", 1)
    _require(version in (1, MASKER_VERSION) and not isinstance(version, bool), "version",
             f"expected 1 or {MASKER_VERSION}, got {version!r}")
    size = total
    if version == MASKER_VERSION:
        raw_basis = document.get("span_basis")
        # k <= 2n for a built masker; k = D for one loaded from a version-1 file
        _require(isinstance(raw_basis, list) and raw_basis and isinstance(raw_basis[0], list)
                 and (0 < len(raw_basis[0]) <= min(2 * n, total) or len(raw_basis[0]) == total),
                 "span_basis",
                 f"expected {total} rows of k <= {min(2 * n, total)} or k = {total} [re, im] pairs")
        size = len(raw_basis[0])
        basis = _complex_array(raw_basis, "span_basis", (total, size))
    span_unitary = _complex_array(document.get("unitary"), "unitary", (size, size))
    # a dense U is the factored form with Q = I, formed only once U has parsed as D x D
    operator = Operator(basis if version == MASKER_VERSION else np.eye(total), span_unitary)
    _require(operator.span_unitary_residual <= NORM_TOL, "unitary",
             f"is not unitary: residual {operator.span_unitary_residual:.3e}")
    _require(operator.isometry_residual <= NORM_TOL, "span_basis",
             f"columns are not orthonormal: residual {operator.isometry_residual:.3e}")
    return operator


def masker_from_json(document: dict):
    kind = document.get("kind")
    _require(kind in ("deterministic", "probabilistic"), "kind",
             f"expected 'deterministic' or 'probabilistic', got {kind!r}")
    dims = _dims_from_json(document.get("dims"), "dims")
    expected_subsystems = 2 if kind == "deterministic" else 3
    _require(len(dims) == expected_subsystems, "dims",
             f"a {kind} masker acts on {expected_subsystems} subsystems, got {len(dims)}")
    _require(dims[0] == dims[1], "dims", f"local dimensions must match, got {dims}")
    d = dims[0]

    input_dims, input_vectors = state_set_from_json(document.get("inputs") or {}, "inputs")
    _require(input_dims == (d,), "inputs.dims", f"expected [{d}], got {list(input_dims)}")
    inputs = tuple(StateVector(v) for v in input_vectors)
    n = len(inputs)

    target_dims, target_vectors = state_set_from_json(document.get("targets") or {}, "targets")
    _require(target_dims == (d, d), "targets.dims", f"expected [{d}, {d}], got {list(target_dims)}")
    _require(len(target_vectors) == n, "targets.states", f"expected {n} target states")
    try:
        targets = fixed_reducing.from_states(
            [MultipartiteState(v, (d, d)) for v in target_vectors]
        )
    except ValueError as exc:
        raise FileFormatError(f"field 'targets': {exc}") from exc

    ancilla_index = document.get("ancilla_index")
    _require(
        isinstance(ancilla_index, int) and not isinstance(ancilla_index, bool)
        and 0 <= ancilla_index < d,
        "ancilla_index",
        f"expected an integer in [0, {d - 1}], got {ancilla_index!r}",
    )
    ancilla_state = StateVector(np.eye(d, dtype=complex)[ancilla_index])

    unitary = _unitary_from_json(document, int(np.prod(dims)), n)

    if kind == "deterministic":
        gammas = np.ones(n)
    else:
        probe_dim = document.get("probe_dim")
        _require(probe_dim == n + 1, "probe_dim", f"expected {n + 1}, got {probe_dim!r}")
        _require(dims[2] == probe_dim, "dims", f"probe subsystem must have dimension {probe_dim}")
        raw_gammas = document.get("gammas")
        _require(
            isinstance(raw_gammas, list) and len(raw_gammas) == n
            and all(isinstance(g, (int, float)) and not isinstance(g, bool) for g in raw_gammas),
            "gammas",
            f"expected {n} numbers",
        )
        gammas = np.asarray(raw_gammas, dtype=float)
        _require(bool(np.all(gammas > 0)) and bool(np.all(gammas <= 1)), "gammas",
                 "efficiencies must lie in (0, 1]")
    m = masking.Masker(inputs, ancilla_state, targets, gammas, unitary)
    # the only check that the efficiencies and targets belong to the unitary
    try:
        masking.failure_branches(m)
    except ValueError as exc:
        raise FileFormatError(
            f"field 'gammas': disagrees with the unitary and targets at {exc}"
        ) from exc
    return m


def load_masker(path):
    """Read a masker file back into a masker value."""
    return masker_from_json(_load_json(path))


def save_masker(m, path) -> None:
    """Write a masker to ``path`` as JSON; round-trips losslessly."""
    _write_json(path, masker_to_json(m))
