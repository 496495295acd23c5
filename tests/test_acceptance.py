"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import time

import numpy as np

from helpers import (
    haar_unitary,
    max_marginal_deviation,
    max_prob_grid_oracle,
    random_independent,
    random_orthonormal,
)
from qmask.cli import main
from qmask.fixed_reducing import (
    FixedReducingSet,
    build_distinct_spectrum,
    build_general_spectrum,
    build_uniform_spectrum,
    cyclic_targets,
    targets_with_overlap,
)
from qmask.hilbert import MultipartiteState, StateVector, basis_state, gram
from qmask.masker import (
    build_deterministic,
    build_probabilistic,
    failure_branches,
    simulate,
    verify_masking,
)
from qmask.optimizer import max_prob_two, uniform_feasibility_boundary


def _verdict(number: int, description: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {number}] {status}: {description}")
    assert not failures, f"criterion {number} failed: " + "; ".join(failures)


def test_criterion_1_two_state_closed_form_vs_grid_oracle():
    failures = []
    started = time.monotonic()
    lattice = [i / 10 for i in range(11)]
    for s in lattice:
        for t in lattice:
            closed = max_prob_two(s, t)[0]
            brute = max_prob_grid_oracle(s, t, 1000)
            if abs(closed - brute) > 0.002:
                failures.append(f"(s={s}, t={t}): |{closed} - {brute}| > 0.002")
    elapsed = time.monotonic() - started
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    _verdict(1, "closed form matches the grid oracle on the 11x11 lattice "
                f"(grid_steps=1000, {elapsed:.1f}s)", failures)


def test_criterion_2_curve_csv_reproduction(tmp_path):
    failures = []
    csv_path = tmp_path / "curves.csv"
    if main(["figure1", "--out", str(csv_path)]) != 0:
        failures.append("figure1 command failed")
    rows = {}
    for line in csv_path.read_text().strip().splitlines()[1:]:
        s_text, t_text, prob_text = line.split(",")
        rows.setdefault(float(s_text), []).append((float(t_text), float(prob_text)))

    spot_checks = [(0.25, 0.0, 0.5625), (0.5, 0.0, 0.25), (0.0, 0.5, 4.0 / 9.0)]
    for s, t, expected in spot_checks:
        actual = dict(rows[s])[t]
        if abs(actual - expected) > 1e-9:
            failures.append(f"spot value (s={s}, t={t}) = {actual}, expected {expected}")

    for s in (0.0, 0.25, 0.5, 0.75, 1.0):
        curve = sorted(rows[s])
        nearest_t, nearest_prob = min(curve, key=lambda pair: abs(pair[0] - s))
        if nearest_t == s and nearest_prob != 1.0:
            failures.append(f"s={s}: on-grid peak is {nearest_prob}, expected exactly 1.0")
        if nearest_t != s and abs(nearest_prob - 1.0) > 1e-3:
            failures.append(f"s={s}: peak near t={nearest_t} is {nearest_prob}")
        for (t_left, p_left), (t_right, p_right) in zip(curve[:-1], curve[1:]):
            if t_right <= s and p_right < p_left:
                failures.append(f"s={s}: decreasing at t={t_right} before the peak")
            if t_left >= s and p_right > p_left:
                failures.append(f"s={s}: increasing at t={t_left} after the peak")
    for t, prob in sorted(rows[1.0]):
        expected = 1.0 if t == 1.0 else 0.0
        if prob != expected:
            failures.append(f"s=1 row at t={t} is {prob}, expected {expected}")
    _verdict(2, "default curve CSV has the right peaks, monotonicity, and spot values",
             failures)


def test_criterion_3_deterministic_property_suite():
    failures = []
    started = time.monotonic()
    rng = np.random.default_rng(3)
    for trial in range(100):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(1, d + 1))
        try:
            masker = build_deterministic(random_orthonormal(n, d, rng))
        except ValueError as exc:
            failures.append(f"trial {trial} (n={n}, d={d}): build failed: {exc}")
            continue
        report = verify_masking(masker)
        if masker.unitary.is_unitary() is False:
            failures.append(f"trial {trial}: operator not unitary to 1e-10")
        if min(report.fidelities) < 1 - 1e-9:
            failures.append(f"trial {trial}: fidelity {min(report.fidelities)}")
        if report.max_marginal_deviation > 1e-9:
            failures.append(f"trial {trial}: marginal deviation {report.max_marginal_deviation}")
    elapsed = time.monotonic() - started
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    _verdict(3, "100 random orthonormal families mask deterministically "
                f"(d in 2..5, {elapsed:.1f}s)", failures)


def test_criterion_4_probabilistic_property_suite():
    failures = []
    started = time.monotonic()
    rng = np.random.default_rng(4)
    for trial in range(100):
        n = int(rng.integers(2, 4))
        d = int(rng.integers(max(2, n), 5))
        inputs = random_independent(n, d, rng)
        targets = cyclic_targets(n, d)
        a = gram(inputs)
        x = gram(targets.states)
        gammas = np.full(n, uniform_feasibility_boundary(a, x) / 2)
        try:
            masker = build_probabilistic(inputs, targets, gammas)
        except ValueError as exc:
            failures.append(f"trial {trial} (n={n}, d={d}): build failed: {exc}")
            continue
        for k in range(n):
            outcome = simulate(masker, k)
            if abs(outcome.success_probability - gammas[k]) > 1e-8:
                failures.append(
                    f"trial {trial}, input {k}: probability "
                    f"{outcome.success_probability} vs gamma {gammas[k]}"
                )
            if outcome.fidelity_to_target < 1 - 1e-8:
                failures.append(f"trial {trial}, input {k}: fidelity {outcome.fidelity_to_target}")
        branches = failure_branches(masker)
        root_g = np.sqrt(gammas)
        reconstructed = np.outer(root_g, root_g) * x + branches.conj().T @ branches
        residual = float(np.max(np.abs(reconstructed - a)))
        if residual > 1e-9:
            failures.append(f"trial {trial}: Gram reconstruction residual {residual}")
    elapsed = time.monotonic() - started
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    _verdict(4, "100 random linearly independent families mask probabilistically at "
                f"half the uniform feasibility boundary ({elapsed:.1f}s)", failures)


def test_criterion_5_round_trip_optimum_attainment():
    failures = []
    for s in (0.0, 0.25, 0.5, 0.75):
        for t in (0.0, 0.25, 0.5, 0.75):
            prob_max, gammas = max_prob_two(s, t)
            if prob_max <= 0.0:
                continue
            inputs = [
                basis_state(2, 0),
                StateVector(np.array([s, np.sqrt(1.0 - s * s)])),
            ]
            targets = targets_with_overlap(2, t)
            try:
                masker = build_probabilistic(inputs, targets, gammas)
            except ValueError as exc:
                failures.append(f"(s={s}, t={t}): optimal efficiencies infeasible: {exc}")
                continue
            measured = 1.0
            for k in range(2):
                measured *= simulate(masker, k).success_probability
            if abs(measured - prob_max) > 1e-6:
                failures.append(f"(s={s}, t={t}): measured {measured}, expected {prob_max}")
    _verdict(5, "closed-form optimal efficiencies are feasible and reproduce the "
                "maximum probability on the (s, t) grid", failures)


def test_criterion_6_fixed_reducing_verifier():
    failures = []
    rng = np.random.default_rng(6)
    families = {
        "uniform d=4": build_uniform_spectrum(4, [haar_unitary(4, rng) for _ in range(3)]),
        "distinct d=3": build_distinct_spectrum(
            [0.5, 0.3, 0.2], rng.uniform(0, 2 * np.pi, size=(3, 3))
        ),
        "degenerate d=3": build_general_spectrum(
            [0.5, 0.25, 0.25],
            [[np.array([[1.0]]), haar_unitary(2, rng)] for _ in range(2)],
        ),
        "cyclic n=3 d=5": cyclic_targets(3, 5),
        "overlap c=0.6i d=4": targets_with_overlap(4, 0.6j),
    }
    for name, family in families.items():
        deviation = max_marginal_deviation(family.states)
        if deviation > 1e-10:
            failures.append(f"{name}: deviation {deviation}")
    bell = MultipartiteState(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2))
    product = MultipartiteState(np.array([1, 0, 0, 0]) * 1.0, (2, 2))
    try:
        FixedReducingSet([bell, product])
    except ValueError:
        pass
    else:
        failures.append("negative control (entangled + product pair) passed the verifier")
    _verdict(6, "every constructor passes the marginal verifier at 1e-10 and the "
                "negative control fails", failures)


def test_criterion_7_deterministic_as_probabilistic_special_case():
    failures = []
    inputs = [basis_state(3, 0), basis_state(3, 1)]
    targets = cyclic_targets(2, 3)
    probabilistic = build_probabilistic(inputs, targets, [1.0, 1.0])
    deterministic = build_deterministic(inputs)
    for k in range(2):
        a = simulate(probabilistic, k)
        b = simulate(deterministic, k)
        if abs(a.success_probability - 1.0) > 1e-9:
            failures.append(f"input {k}: probabilistic branch probability {a.success_probability}")
        if abs(b.success_probability - 1.0) > 1e-9:
            failures.append(f"input {k}: deterministic probability {b.success_probability}")
        dev = max(
            float(np.max(np.abs(a.marginal_A - b.marginal_A))),
            float(np.max(np.abs(a.marginal_B - b.marginal_B))),
        )
        if dev > 1e-9:
            failures.append(f"input {k}: marginal deviation {dev}")
    _verdict(7, "unit efficiencies with matching Gram matrices reproduce the "
                "deterministic masker", failures)
