"""Command-line front end: build, verify, and simulate maskers; emit curve data.

Exit codes: 0 success, 1 domain failure (hypothesis violated or
infeasible), 2 input or I/O error.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import fixed_reducing, masker as masking, optimizer
from .fileio import FileFormatError, load_masker, load_state_set, save_masker
from .fixed_reducing import MARGINAL_TOL
from .hilbert import gram


def _efficiencies(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from exc
    if not all(0.0 < g <= 1.0 for g in values):
        raise argparse.ArgumentTypeError(f"efficiencies must lie in (0, 1], got {text!r}")
    return values


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from exc


def _tolerance(text: str) -> float:
    value = _number(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and non-negative, got {text!r}")
    return value


def _overlap_magnitude(text: str) -> float:
    value = _number(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"overlap magnitude must lie in [0, 1], got {text!r}")
    return value


def _target_overlap(text: str) -> float:
    value = _number(text)
    if not abs(value) <= 1.0:
        raise argparse.ArgumentTypeError(f"target overlap must lie in [-1, 1], got {text!r}")
    return value


def _grid_points(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError(f"number of grid points must be non-negative, got {value}")
    return value


def _format(value: float) -> str:
    return f"{value:.12g}"


def _print_matrix(name: str, entries: np.ndarray) -> None:
    print(f"{name}:")
    # rounding first, and + 0j to clear signed zeros, keeps dust below the
    # printed precision from showing as data
    print(np.array_str(np.round(entries, 9) + 0j, precision=9, suppress_small=True))


def _cmd_verify_fixed_reducing(args) -> int:
    states = load_state_set(args.input, renormalize=args.renormalize)
    subsystems = len(states[0].dims)
    if subsystems != 2:
        raise FileFormatError(
            f"field 'dims': need exactly 2 subsystems for marginal checks, got {subsystems}"
        )
    deviations = fixed_reducing.marginal_deviations([fixed_reducing.marginals(s) for s in states])
    for k, deviation in enumerate(deviations):
        print(f"state {k}: marginal deviation {deviation:.3e}")
    worst = max(deviations)
    if worst <= args.tol:
        print(f"PASS (max deviation {worst:.3e}, tolerance {args.tol:.1e})")
        return 0
    print(f"FAIL (max deviation {worst:.3e}, tolerance {args.tol:.1e})")
    return 1


def _load_input_states(args) -> tuple:
    states = load_state_set(args.input, renormalize=args.renormalize)
    dims = states[0].dims
    if len(dims) != 1:
        raise FileFormatError(
            f"field 'dims': masker inputs live on a single subsystem, got {len(dims)}"
        )
    if args.dim is not None and args.dim != dims[0]:
        raise FileFormatError(
            f"field 'dims': file declares dimension {dims[0]}, --dim says {args.dim}"
        )
    return states


def _print_verification(report: masking.MaskingReport) -> None:
    print("success probabilities:", " ".join(_format(p) for p in report.success_probabilities))
    print("fidelities:", " ".join(_format(f) for f in report.fidelities))
    print(f"max marginal deviation: {report.max_marginal_deviation:.3e}")
    print(f"verification: {'PASS' if report.passed else 'FAIL'} "
          f"(tolerance {report.tolerance:.1e}, probabilities relative to gamma)")


def _verify_and_save(m, out) -> int:
    """Print the verification block; write the masker only when it passes."""
    report = masking.verify_masking(m)
    _print_verification(report)
    if not report.passed:
        return 1
    if out:
        save_masker(m, out)
        print(f"wrote masker to {out}")
    return 0


def _cmd_mask_det(args) -> int:
    inputs = _load_input_states(args)
    m = masking.build_deterministic(inputs)
    print(f"deterministic masker: {len(inputs)} states, dimension {m.dim}")
    return _verify_and_save(m, args.out)


def _cmd_mask_prob(args) -> int:
    inputs = _load_input_states(args)
    n = len(inputs)
    d = inputs[0].dim
    if args.targets is not None:
        target_states = load_state_set(args.targets, renormalize=args.renormalize)
        t_dims = target_states[0].dims
        if t_dims != (d, d):
            raise FileFormatError(f"--targets: targets have dims {t_dims}, inputs need {(d, d)}")
        targets = fixed_reducing.from_states(target_states)
        flag = "--targets"
    else:
        targets = fixed_reducing.targets_with_overlap(d, args.target_overlap)
        flag = "--target-overlap"
    if targets.n != n:
        raise FileFormatError(f"{flag}: got {targets.n} targets for {n} inputs")
    if args.gammas is not None and len(args.gammas) != n:
        raise FileFormatError(f"--gammas: need {n} efficiencies, got {len(args.gammas)}")

    a = gram(inputs)
    x = gram(targets.states)
    if args.maximize:
        gammas, prob = optimizer.maximize_general(a, x)
    else:
        gammas = np.asarray(args.gammas, dtype=float)
        prob = optimizer.success_probability(gammas)
    _, margin = optimizer.feasible(a, x, gammas)

    m = masking.build_probabilistic(inputs, targets, gammas)
    print("gammas:", " ".join(_format(g) for g in gammas))
    print(f"Prob(M): {_format(prob)}")
    if args.maximize:
        print(f"optimality gap (certified): {optimizer.certify(a, x, gammas)[0]:.1e}")
    print(f"feasibility margin (min eigenvalue): {_format(margin)}")
    return _verify_and_save(m, args.out)


def _cmd_simulate(args) -> int:
    m = load_masker(args.masker)
    if args.state is not None:
        if not 0 <= args.state < m.n:
            raise FileFormatError(f"--state: index {args.state} outside range 0..{m.n - 1}")
        outcome = masking.simulate(m, args.state)
        print(f"state {args.state}:")
        print(f"success probability: {_format(outcome.success_probability)}")
        print(f"fidelity to target: {_format(outcome.fidelity_to_target)}")
        _print_matrix("marginal A", outcome.marginal_A)
        _print_matrix("marginal B", outcome.marginal_B)
        return 0
    report = masking.verify_masking(m)
    pairs = zip(report.success_probabilities, report.fidelities)
    for k, (probability, fidelity) in enumerate(pairs):
        print(
            f"state {k}: success probability {_format(probability)}, "
            f"fidelity {_format(fidelity)}"
        )
    first = masking.simulate(m, 0)
    _print_matrix("marginal A", first.marginal_A)
    _print_matrix("marginal B", first.marginal_B)
    print(f"cross-state marginal deviation: {report.max_marginal_deviation:.3e}")
    return 0


def _cmd_figure1(args) -> int:
    rows = optimizer.probability_curves(tuple(args.s_values), args.steps)
    lines = ["s,t,prob_max"]
    lines.extend(",".join(_format(v) for v in row) for row in rows)
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmask",
        description="Build, verify, and simulate quantum information maskers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-fixed-reducing",
                       help="check that a bipartite state set has index-independent marginals")
    p.add_argument("input", help="state-set JSON file with two subsystems")
    p.add_argument("--tol", type=_tolerance, default=MARGINAL_TOL,
                   help="entrywise marginal tolerance (default %(default)g)")
    p.add_argument("--renormalize", action="store_true",
                   help="repair unnormalized input vectors instead of rejecting them")
    p.set_defaults(handler=_cmd_verify_fixed_reducing)

    p = sub.add_parser("mask-det", help="build a deterministic masker for orthonormal states")
    p.add_argument("input", help="state-set JSON file with one subsystem")
    p.add_argument("--dim", type=int, default=None, help="expected dimension of the input space")
    p.add_argument("--out", default=None, help="path for the masker JSON file")
    p.add_argument("--renormalize", action="store_true",
                   help="repair unnormalized input vectors instead of rejecting them")
    p.set_defaults(handler=_cmd_mask_det)

    p = sub.add_parser("mask-prob",
                       help="build a probabilistic masker for linearly independent states")
    p.add_argument("input", help="state-set JSON file with one subsystem")
    p.add_argument("--dim", type=int, default=None, help="expected dimension of the input space")
    target_group = p.add_mutually_exclusive_group(required=True)
    target_group.add_argument("--targets", default=None,
                              help="state-set JSON file of bipartite target states")
    target_group.add_argument("--target-overlap", type=_target_overlap, default=None,
                              help="build two targets with this mutual overlap")
    gamma_group = p.add_mutually_exclusive_group(required=True)
    gamma_group.add_argument("--gammas", type=_efficiencies, default=None,
                             help="comma-separated efficiencies, one per input")
    gamma_group.add_argument("--maximize", action="store_true",
                             help="maximize the success probability first and print the "
                                  "certified optimality gap")
    p.add_argument("--out", default=None, help="path for the masker JSON file")
    p.add_argument("--renormalize", action="store_true",
                   help="repair unnormalized input vectors instead of rejecting them")
    p.set_defaults(handler=_cmd_mask_prob)

    p = sub.add_parser("simulate", help="run a saved masker and report the outcomes")
    p.add_argument("masker", help="masker JSON file")
    p.add_argument("--state", type=int, default=None,
                   help="input index to simulate (0-based); all of them when omitted")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("figure1",
                       help="emit CSV of the maximum success probability versus target overlap")
    p.add_argument("--s-values", type=_overlap_magnitude, nargs="+",
                   default=list(optimizer.DEFAULT_S_VALUES),
                   help="input overlap magnitudes, one curve each (default %(default)s)")
    p.add_argument("--steps", type=_grid_points, default=101,
                   help="number of target-overlap grid points (default %(default)s)")
    p.add_argument("--out", default=None, help="CSV path (stdout when omitted)")
    p.set_defaults(handler=_cmd_figure1)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (FileFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
