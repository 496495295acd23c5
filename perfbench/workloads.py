"""The benchmark's workloads: set-up, one operation, and its correctness check.

Each workload is a closed loop with one client. It exposes
``setup_one(j)`` for j < ``setup_size`` (one set-up repetition: one
instance with its files), ``item(i)`` (the input of operation i) and
``execute(item, op, recorder)`` (runs the operation, traced when a
recorder is given, and checks its output). Operations cycle through a
pass of ``pass_length`` instance shapes; the first pass is exactly
determined by the seed, so quality figures and call counts are taken
over it.

Correctness is judged from what the program printed or returned, never
from an exit code alone: a nonzero exit fails an operation, but exit 0
passes it only when every check below holds (tolerance ``TOL``):

- every success probability equals its efficiency gamma_k (1 for a
  deterministic masker);
- every fidelity to its target is at least 1 - TOL;
- the cross-input marginal deviation is at most TOL;
- a deterministic masker's build reports ``verification: PASS``;
- the efficiencies are admissible: A - sqrt(G) X sqrt(G) has no eigenvalue
  below -TOL, computed here from the generated states;
- Prob(M) is the product of the efficiencies, and for two inputs it is
  at most the closed form (see ``two_input_bound``) plus TOL.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import instances

TOL = 1e-8
# bound on the rounding error of an overlap measured on unit vectors in C^2 or C^4
OVERLAP_ROUNDING = 1e-14
SUBPROCESS_TIMEOUT_S = 120


@dataclass
class OpResult:
    op: int
    latency: float  # wall-clock seconds
    ok: bool
    detail: str = ""
    scaled: float = 0.0  # latency rescaled to the reference machine speed
    prob: float | None = None  # reported Prob(M) of a probabilistic instance
    ratio: float | None = None  # Prob(M) / closed form, two-input instances only
    masker_bytes: int = 0  # size of the masker file written or read
    unitary_bytes: int = 0  # computed: 16 D^2 per dense masker unitary handled


def closed_form(s: float, t: float) -> float:
    """Best two-input success probability min(((1-s)/(1-t))^2, ((1+s)/(1+t))^2, 1)."""

    def ratio_squared(num: float, den: float) -> float:
        if den == 0.0:
            return 1.0 if num == 0.0 else math.inf
        return (num / den) ** 2

    return min(ratio_squared(1.0 - s, 1.0 - t), ratio_squared(1.0 + s, 1.0 + t), 1.0)


def two_input_bound(s: float, t: float) -> float:
    """Largest closed-form value for overlaps within ``OVERLAP_ROUNDING`` of (s, t).

    The overlaps are measured on placed states, so each carries rounding
    error; near s, t -> 1 the closed form magnifies it (by 2 / (1 - t)),
    and the exact optimum of the Gram pair the optimizer sees may sit
    that far above closed_form(s, t). The closed form is monotone in s and
    t on each side of the diagonal s = t, where it equals 1, so the
    maximum over the box is at a corner or, when the box meets the
    diagonal, 1.
    """
    delta = OVERLAP_ROUNDING
    if abs(s - t) <= 2 * delta:
        return 1.0
    return max(closed_form(min(max(s + ds, 0.0), 1.0), min(max(t + dt, 0.0), 1.0))
               for ds in (-delta, delta) for dt in (-delta, delta))


def lowest_residual_eigenvalue(a: np.ndarray, x: np.ndarray, gammas) -> float:
    root = np.sqrt(np.asarray(gammas, dtype=float))
    residual = a - np.outer(root, root) * x
    return float(np.linalg.eigvalsh((residual + residual.conj().T) / 2)[0])


def check_efficiencies(a: np.ndarray, x: np.ndarray, gammas, prob: float) -> str | None:
    gammas = np.asarray(gammas, dtype=float)
    if gammas.shape != (a.shape[0],):
        return f"expected {a.shape[0]} efficiencies, got {gammas.size}"
    if np.any(gammas <= 0) or np.any(gammas > 1):
        return f"efficiencies outside (0, 1]: {gammas.tolist()}"
    product = float(np.prod(gammas))
    if abs(prob - product) > 1e-9 * product:
        return f"Prob(M) {prob!r} is not the product of the efficiencies {product!r}"
    lowest = lowest_residual_eigenvalue(a, x, gammas)
    if lowest < -TOL:
        return f"efficiencies are not admissible: residual eigenvalue {lowest:.3e}"
    return None


_STATE_LINE = re.compile(r"^state (\d+): success probability (\S+), fidelity (\S+)$", re.M)
_DEVIATION_LINE = re.compile(r"^cross-state marginal deviation: (\S+)$", re.M)
_GAMMAS_LINE = re.compile(r"^gammas: (.+)$", re.M)
_PROB_LINE = re.compile(r"^Prob\(M\): (\S+)$", re.M)
_VERDICT_LINE = re.compile(r"^verification: (PASS|FAIL)\b", re.M)


def check_simulation(stdout: str, expected) -> tuple[str | None, list[float]]:
    """Check ``qmask simulate`` output against the expected success probabilities."""
    rows = _STATE_LINE.findall(stdout)
    if [int(k) for k, _, _ in rows] != list(range(len(expected))):
        return f"simulate reported states {[int(k) for k, _, _ in rows]}, expected {len(expected)}", []
    probabilities = [float(p) for _, p, _ in rows]
    for k, ((_, _, fid), p, e) in enumerate(zip(rows, probabilities, expected)):
        if abs(p - e) > TOL:
            return f"state {k}: success probability {p!r} differs from {e!r}", probabilities
        if float(fid) < 1.0 - TOL:
            return f"state {k}: fidelity {fid} below 1 - {TOL:g}", probabilities
    deviation = _DEVIATION_LINE.search(stdout)
    if deviation is None:
        return "simulate printed no cross-state marginal deviation", probabilities
    if float(deviation.group(1)) > TOL:
        return f"cross-state marginal deviation {deviation.group(1)} above {TOL:g}", probabilities
    return None, probabilities


def parse_mask_prob(stdout: str) -> tuple[list[float], float] | None:
    gammas, prob = _GAMMAS_LINE.search(stdout), _PROB_LINE.search(stdout)
    if gammas is None or prob is None:
        return None
    return [float(g) for g in gammas.group(1).split()], float(prob.group(1))


class Cli:
    """Runs ``python -m qmask``, or the traced launcher, as a child process."""

    def __init__(self, env: dict[str, str], workdir: Path):
        self.env = env
        self.workdir = workdir
        self.launcher = str(Path(__file__).resolve().parent / "spans.py")
        self._spans_files = 0

    def run(self, args: list[str], op: int, recorder=None) -> subprocess.CompletedProcess:
        if recorder is None:
            return self._run([sys.executable, "-m", "qmask", *args])
        self._spans_files += 1
        spans_path = self.workdir / f"spans-{self._spans_files}.json"
        spawn = time.perf_counter()
        argv = [sys.executable, self.launcher, str(spans_path), str(op), repr(spawn), "--", *args]
        completed = self._run(argv)
        if spans_path.exists():
            recorder.add_process_spans(json.loads(spans_path.read_text(encoding="utf-8")))
            spans_path.unlink()
        return completed

    def _run(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(argv, env=self.env, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S, check=False)


def _exit_problem(step: str, completed: subprocess.CompletedProcess) -> str | None:
    if completed.returncode == 0:
        return None
    tail = completed.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
    return f"{step} exited {completed.returncode}: {tail[0]}"


class CliPipeline:
    """Inputs file -> ``mask-prob --maximize`` or ``mask-det`` -> masker file -> ``simulate``."""

    name = "cli-pipeline"
    prob_d, prob_n = 6, 4
    det_d = 12
    pass_length = 4  # three probabilistic operations, then one deterministic
    setup_size = 24  # instances generated before timing; later ones are made between operations

    def __init__(self, seed: int, workdir: Path, cli: Cli):
        self.seed, self.workdir, self.cli = seed, workdir, cli
        self.pool: list[tuple] = []

    def describe(self) -> str:
        d, n = self.prob_d, self.prob_n
        return (f"probabilistic (d, n) = ({d}, {n}), D = {d * d * (n + 1)}; "
                f"deterministic d = {self.det_d}, n = {self.det_d}, D = {self.det_d ** 2}; "
                f"3 of every 4 operations probabilistic")

    def _make(self, i: int) -> tuple:
        inputs_path = self.workdir / f"inputs-{i}.json"
        if i % self.pass_length == self.pass_length - 1:
            inst = instances.deterministic(self.name, self.seed, i, self.det_d)
            instances.write_state_set(inputs_path, (inst.d,), inst.inputs)
            return inst, inputs_path, None
        inst = instances.probabilistic(self.name, self.seed, i, self.prob_d, self.prob_n,
                                       i % self.pass_length)
        targets_path = self.workdir / f"targets-{i}.json"
        instances.write_state_set(inputs_path, (inst.d,), inst.inputs)
        instances.write_state_set(targets_path, (inst.d, inst.d), inst.targets)
        return inst, inputs_path, targets_path

    def setup_one(self, j: int) -> None:
        self.pool.append(self._make(j))

    def item(self, i: int) -> tuple:
        return self.pool[i] if i < len(self.pool) else self._make(i)

    def execute(self, item: tuple, op: int, recorder=None) -> OpResult:
        inst, inputs_path, targets_path = item
        masker_path = self.workdir / f"masker-{op}.json"
        if inst.kind == "det":
            build = ["mask-det", str(inputs_path), "--out", str(masker_path)]
        else:
            build = ["mask-prob", str(inputs_path), "--targets", str(targets_path),
                     "--maximize", "--out", str(masker_path)]
        start = time.perf_counter()
        built = self.cli.run(build, op, recorder)
        simulated = None
        if built.returncode == 0:
            simulated = self.cli.run(["simulate", str(masker_path)], op, recorder)
        latency = time.perf_counter() - start
        result = OpResult(op, latency, False, unitary_bytes=16 * inst.big_d ** 2)
        if masker_path.exists():
            result.masker_bytes = masker_path.stat().st_size
            masker_path.unlink()
        result.detail = self._problem(inst, built, simulated, result) or ""
        result.ok = not result.detail
        return result

    @staticmethod
    def _problem(inst, built, simulated, result: OpResult) -> str | None:
        step = "mask-det" if inst.kind == "det" else "mask-prob"
        problem = _exit_problem(step, built)
        if problem:
            return problem
        if inst.kind == "det":
            verdict = _VERDICT_LINE.search(built.stdout)
            if verdict is None or verdict.group(1) != "PASS":
                return "mask-det did not report verification: PASS"
            expected = [1.0] * inst.n
        else:
            parsed = parse_mask_prob(built.stdout)
            if parsed is None:
                return "mask-prob printed no gammas or Prob(M)"
            expected, result.prob = parsed
            a, x = inst.gram_pair()
            problem = check_efficiencies(a, x, expected, result.prob)
            if problem:
                return problem
        problem = _exit_problem("simulate", simulated)
        if problem:
            return problem
        return check_simulation(simulated.stdout, expected)[0]


class SimulateReuse:
    """``simulate`` on maskers the library built and saved during set-up."""

    name = "simulate-reuse"
    d, n = 8, 5
    files = 4

    def __init__(self, seed: int, workdir: Path, cli: Cli):
        self.seed, self.workdir, self.cli = seed, workdir, cli
        self.maskers: list[tuple] = []
        self.pass_length = self.setup_size = self.files

    def describe(self) -> str:
        d, n = self.d, self.n
        return (f"probabilistic (d, n) = ({d}, {n}), D = {d * d * (n + 1)}; "
                f"{self.files} masker files reused in turn")

    def setup_one(self, j: int) -> None:
        from qmask import fileio, fixed_reducing, hilbert, masker, optimizer

        inst = instances.probabilistic(self.name, self.seed, j, self.d, self.n, j)
        a, x = inst.gram_pair()
        gammas, _ = optimizer.maximize_general(a, x)
        targets = fixed_reducing.from_states(
            [hilbert.MultipartiteState(v, (self.d, self.d)) for v in inst.targets])
        built = masker.build_probabilistic(
            [hilbert.StateVector(v) for v in inst.inputs], targets, gammas)
        path = self.workdir / f"masker-{j}.json"
        fileio.save_masker(built, path)
        self.maskers.append((inst, path, [float(g) for g in gammas], a, x))

    def item(self, i: int) -> tuple:
        return self.maskers[i % self.files]

    def execute(self, item: tuple, op: int, recorder=None) -> OpResult:
        inst, path, gammas, a, x = item
        start = time.perf_counter()
        simulated = self.cli.run(["simulate", str(path)], op, recorder)
        latency = time.perf_counter() - start
        result = OpResult(op, latency, False, masker_bytes=path.stat().st_size,
                          unitary_bytes=16 * inst.big_d ** 2)
        problem = _exit_problem("simulate", simulated)
        if problem is None:
            problem, probabilities = check_simulation(simulated.stdout, gammas)
            if problem is None:
                result.prob = float(np.prod(probabilities))
                problem = check_efficiencies(a, x, gammas, result.prob)
        result.detail = problem or ""
        result.ok = problem is None
        return result


class OptimizeSweep:
    """In-process ``maximize_general`` + ``feasible`` on a seeded stream of Gram pairs.

    Random shapes with D = d^2 (n + 1) <= 100 are then built and verified.
    Two-input instances are checked against the closed form instead:
    ``build_probabilistic`` currently rejects about a quarter of two-input
    optimizer outputs, which lie up to 1e-10 outside the admissible set;
    that defect is measured by ``over_bound_frac``.
    """

    name = "optimize-sweep"
    sizes = tuple(range(3, 9))
    # two-input solves are several times cheaper than n >= 3 ones; keeping them
    # a quarter of the pass puts the median latency inside the n >= 3 bulk
    shapes_per_size = 7
    max_built_dim = 100

    def __init__(self, seed: int, workdir: Path, cli: Cli):
        self.seed = seed
        self.pool: list[tuple] = []
        self.pass_length = len(instances.TWO_INPUT_GRID) + len(self.sizes) * self.shapes_per_size
        self.setup_size = self.pass_length

    def describe(self) -> str:
        return (f"{len(instances.TWO_INPUT_GRID)} two-input (s, t) points on d = 2; "
                f"n = d in {self.sizes[0]}..{self.sizes[-1]}, {self.shapes_per_size} shapes each; "
                f"build + verify where D <= {self.max_built_dim}")

    def _make(self, i: int) -> tuple:
        j = i % self.pass_length
        grid = instances.TWO_INPUT_GRID
        if j < len(grid):
            inst = instances.two_input(self.name, self.seed, i, *grid[j])
        else:
            k = j - len(grid)
            n = self.sizes[k // self.shapes_per_size]
            inst = instances.probabilistic(self.name, self.seed, i, n, n, k % self.shapes_per_size)
        return (inst, *inst.gram_pair())

    def setup_one(self, j: int) -> None:
        self.pool.append(self._make(j))

    def item(self, i: int) -> tuple:
        return self.pool[i] if i < len(self.pool) else self._make(i)

    def execute(self, item: tuple, op: int, recorder=None) -> OpResult:
        from qmask import fixed_reducing, hilbert, masker, optimizer

        inst, a, x = item
        build = inst.s is None and inst.big_d <= self.max_built_dim
        if recorder is not None:
            recorder.install(op)
        report = None
        start = time.perf_counter()
        try:
            gammas, prob = optimizer.maximize_general(a, x)
            admissible, _ = optimizer.feasible(a, x, gammas)
            if build:
                targets = fixed_reducing.from_states(
                    [hilbert.MultipartiteState(v, (inst.d, inst.d)) for v in inst.targets])
                built = masker.build_probabilistic(
                    [hilbert.StateVector(v) for v in inst.inputs], targets, gammas)
                report = masker.verify_masking(built)
            latency = time.perf_counter() - start
        except Exception as exc:  # any exception fails the operation, not the run
            return OpResult(op, time.perf_counter() - start, False, f"{type(exc).__name__}: {exc}")
        finally:
            if recorder is not None:
                recorder.uninstall()
        result = OpResult(op, latency, False, prob=float(prob),
                          unitary_bytes=16 * inst.big_d ** 2 if build else 0)
        problem = None if admissible else "feasible() rejects the optimizer's own efficiencies"
        if inst.s is not None:
            bound = two_input_bound(inst.s, inst.t)
            result.ratio = result.prob / bound if bound > 0 else math.inf
            if result.prob > bound + TOL:
                problem = problem or (f"Prob(M) {result.prob!r} exceeds the closed form "
                                      f"{bound!r} by more than {TOL:g}")
        problem = problem or check_efficiencies(a, x, gammas, result.prob)
        if problem is None and report is not None:
            problem = _report_problem(report, gammas)
        result.detail = problem or ""
        result.ok = problem is None
        return result


def _report_problem(report, gammas) -> str | None:
    for k, (p, g) in enumerate(zip(report.success_probabilities, gammas)):
        if abs(p - g) > TOL:
            return f"state {k}: success probability {p!r} differs from gamma {g!r}"
    if min(report.fidelities) < 1.0 - TOL:
        return f"fidelity {min(report.fidelities)!r} below 1 - {TOL:g}"
    if report.max_marginal_deviation > TOL:
        return f"marginal deviation {report.max_marginal_deviation:.3e} above {TOL:g}"
    if not report.passed:
        return "verify_masking reports FAIL"
    return None


WORKLOADS = {cls.name: cls for cls in (CliPipeline, SimulateReuse, OptimizeSweep)}
