"""qmask benchmark: one command, three workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli-pipeline --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

- ``cli-pipeline``: ``python -m qmask mask-prob --maximize`` or ``mask-det``
  on generated input files, then ``simulate`` on the masker file;
- ``simulate-reuse``: ``python -m qmask simulate`` on masker files the
  library built during set-up;
- ``optimize-sweep``: in-process ``maximize_general`` + ``feasible`` on a
  seeded stream of Gram pairs, with build + verify at small D.

The program under test is the checkout's ``src/qmask``; nothing is
installed and nothing outside the checkout is read or written. Scratch
files live in ``.bench_work/`` and are removed at exit.

Times are rescaled to a reference machine speed. On a shared host the
speed of one core swings by up to 1.6x within seconds, which no run
length averages away. So the process and its CLI children are pinned to
one core, a short calibration runs after every set-up repetition and
every operation, and each wall-clock time is multiplied by
``CALIBRATION_REF_S`` over the mean of the calibrations just before and
just after it (see ``Clock``). The results are seconds on a machine
where the calibration takes ``CALIBRATION_REF_S``; the raw wall-clock
median is printed alongside.

With ``--trace 0`` the last stdout line is a JSON object whose metrics
are the end-to-end metrics; with ``--trace 1`` every operation runs once
untraced and once traced (alternating which goes first), and the metrics
are the per-layer self times, call counts and the tracing overhead. The
lines before it report the same figures for a reader, the run
environment, and the correctness verdict.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# a run must end within 180 s; stop starting operations well before that
LOOP_DEADLINE_S = 150.0
# calibration time that maps one wall second to one reference second
CALIBRATION_REF_S = 1.5e-3
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("cli-pipeline", "simulate-reuse", "optimize-sweep")

# per-layer self-time metrics, named after their spans: mean rescaled seconds per operation
LAYER_TIMES = [f"{span}_s" for span in (
    "cli.startup", "cli.mask_prob", "cli.mask_det", "cli.simulate",
    "optimizer.maximize_general", "optimizer.feasible",
    "masker.build_probabilistic", "masker.build_deterministic", "masker.verify_masking",
    "masker.simulate", "masker.failure_branches",
    "hilbert.unitary_completion", "hilbert.is_unitary", "hilbert.psd_check",
    "hilbert.hermitian_sqrt", "hilbert.partial_trace",
    "fixed_reducing.from_states",
    "fileio.save_masker", "fileio.load_masker", "fileio.load_state_set",
)]
# per-layer call counts over the first pass of the instance cycle
LAYER_CALLS = [f"{span}_calls" for span in (
    "optimizer.feasible", "hilbert.is_unitary", "hilbert.psd_check")]


def pin_blas() -> None:
    """One BLAS thread here and in every CLI child, whatever the core count.

    On two cores, one thread ran both the small eigenproblems of the
    optimizer and the D <= 384 dense algebra faster and steadier than two.
    """
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = "1"


def pin_cpu() -> None:
    """Pin this process, and so its children, to the lowest CPU it may use."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Clock:
    """Rescales wall-clock durations by the machine speed measured next to them.

    Every duration is multiplied by ``CALIBRATION_REF_S`` over the mean of
    the calibrations taken just before and just after it. A calibration is
    a fixed slice of small numpy eigensolves, interpreter arithmetic and a
    JSON round trip, without qmask. Across runs on the same host it cut the
    spread of the median latency from 5.5 % to 2.2 % on cli-pipeline, better
    than calibrating with a bare interpreter start or with one factor per run.
    """

    def __init__(self):
        import numpy as np

        self._eigvalsh = np.linalg.eigvalsh
        self._matrix = np.add.outer(np.arange(6.0), np.arange(6.0)) % 5 + np.eye(6)
        self._document = [[float(i), -0.5 * i] for i in range(200)]
        self._previous = self.calibration()

    def calibration(self) -> float:
        start = time.perf_counter()
        for _ in range(40):
            self._eigvalsh(self._matrix)
        total = 0
        for i in range(5000):
            total += i * i
        json.loads(json.dumps(self._document))
        return time.perf_counter() - start

    def rescale(self, seconds: float) -> float:
        """Call right after the timed work ends; returns reference seconds."""
        current = self.calibration()
        scaled = seconds * CALIBRATION_REF_S / ((self._previous + current) / 2)
        self._previous = current
        return scaled


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ[BLAS_THREAD_VARIABLES[0]]),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (latency, percentile). With ten samples or fewer no such
    percentile exists and the maximum is reported as the 100th percentile.
    """
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= 10:
        return ordered[-1], 100.0
    return ordered[count - 11], 100.0 * (count - 10) / count


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else 0.0


def set_up(workload, clock: Clock) -> list[float]:
    """Run every set-up repetition; returns their rescaled durations."""
    durations = []
    for j in range(workload.setup_size):
        start = time.perf_counter()
        workload.setup_one(j)
        durations.append(clock.rescale(time.perf_counter() - start))
    return durations


def measure(workload, seconds: float, clock: Clock, recorder) -> tuple[list, list]:
    """Closed loop, one client: whole passes of operations until ``seconds`` have passed.

    Stopping at a pass boundary keeps the mix of instance shapes, and so
    every statistic over it, the same from run to run.
    """
    untraced, traced = [], []
    loop_start = time.perf_counter()
    op = 0
    while op % workload.pass_length or time.perf_counter() - loop_start < seconds:
        if time.perf_counter() - START > LOOP_DEADLINE_S:
            break
        item = workload.item(op)
        order = ((False, True) if op % 2 == 0 else (True, False)) if recorder else (False,)
        for traced_run in order:
            result = workload.execute(item, op, recorder if traced_run else None)
            result.scaled = clock.rescale(result.latency)
            (traced if traced_run else untraced).append(result)
        op += 1
    return untraced, traced


def end_to_end(results: list, setups: list[float], pass_length: int) -> tuple[dict, list[str]]:
    latencies = [r.scaled for r in results]
    tail, percentile = tail_latency(latencies)
    first_pass = [r for r in results if r.op < pass_length]
    probs = [r.prob for r in first_pass if r.ok and r.prob]
    two_input = [r for r in first_pass if r.ratio is not None]
    over = [r for r in two_input if r.ratio > 1.0]
    failed = sum(not r.ok for r in results)
    self_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail, "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "prob_geomean": (geomean(probs), "prob"),
        "peak_rss_mb": (max(self_peak, child_peak) / 1024.0, "MiB"),
    }
    notes = [
        f"setup_s: median of {len(setups)} set-up repetitions (one instance each)",
        f"op_p50_s: median of {len(latencies)} operations; unscaled wall clock "
        f"{statistics.median(r.latency for r in results)!r} s",
        f"op_tail_s: p{percentile:.1f} of {len(latencies)} operations, 10 beyond it"
        if len(latencies) > 10 else
        f"op_tail_s: maximum of {len(latencies)} operations (fewer than 11 samples)",
        "ops_per_s: operations per second of client busy time, one client",
        f"fail_frac: {failed / len(results):.6g} ({failed} of {len(results)} operations failed)",
        f"prob_geomean: over {len(probs)} probabilistic instances of the first pass",
        (f"over_bound_frac: {len(over) / len(two_input):.6g} ({len(over)} of {len(two_input)} "
         f"two-input instances above max_prob_two; largest ratio "
         f"{max(r.ratio for r in two_input):.10g})") if two_input else
        "over_bound_frac: n/a (no two-input instances)",
        f"peak_rss_mb: largest of this process ({self_peak / 1024:.1f} MiB) and its "
        f"CLI children ({child_peak / 1024:.1f} MiB)",
    ]
    return metrics, notes


def per_layer(recorder, traced: list, untraced: list, pass_length: int) -> dict:
    """Mean rescaled self time per traced operation, first-pass counts, overhead."""
    import spans

    scale = {r.op: r.scaled / r.latency for r in traced}
    totals = {}
    for (op, name), value in spans.self_times(recorder.spans).items():
        totals[name] = totals.get(name, 0.0) + value * scale[op]
    metrics = {name: (totals.get(name[:-2], 0.0) / len(traced), "s") for name in LAYER_TIMES}
    counts = spans.call_counts(recorder.spans, set(range(pass_length)))
    for name in LAYER_CALLS:
        metrics[name] = (counts.get(name[: -len("_calls")], 0), "count")
    first_pass = [r for r in traced if r.op < pass_length]
    metrics["hilbert.unitary_bytes"] = (sum(r.unitary_bytes for r in first_pass), "bytes")
    metrics["fileio.masker_bytes"] = (sum(r.masker_bytes for r in first_pass), "bytes")
    overhead = (statistics.median(r.scaled for r in traced)
                - statistics.median(r.scaled for r in untraced))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads
    from spans import Recorder

    workdir = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        workload = workloads.WORKLOADS[name](seed, workdir, workloads.Cli(env, workdir))
        clock = Clock()
        setups = set_up(workload, clock)
        recorder = Recorder() if trace else None
        untraced, traced = measure(workload, seconds, clock, recorder)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    results = untraced + traced
    print(f"workload: {name}  seed: {seed}  seconds: {seconds:g}  trace: {int(trace)}")
    print(f"sizes: {workload.describe()}")
    print("env: " + json.dumps(environment(), sort_keys=True))
    e2e, notes = end_to_end(untraced, setups, workload.pass_length)
    for metric, (value, unit) in e2e.items():
        print(f"{metric}: {value!r} {unit}")
    for note in notes:
        print(f"  {note}")
    metrics = e2e
    if trace:
        metrics = per_layer(recorder, traced, untraced, workload.pass_length)
        traced_p50 = statistics.median(r.scaled for r in traced)
        print(f"traced op_p50_s: {traced_p50!r} s over {len(traced)} traced operations "
              f"(*_s: mean self time per traced operation; *_calls and *_bytes: computed "
              f"counts over the first pass of {workload.pass_length} operations, exact for a "
              f"seed; unitary_bytes is 16 D^2 per masker)")
        for metric, (value, unit) in metrics.items():
            print(f"{metric}: {value!r} {unit}")
    failures = [r for r in results if not r.ok]
    for r in failures[:5]:
        print(f"FAILED operation {r.op}: {r.detail}")
    print(f"correct: {'PASS' if not failures else 'FAIL'} "
          f"({len(results) - len(failures)} of {len(results)} operations passed every check)")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Run every workload, each in a fresh process so peak memory stays its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        completed = subprocess.run(argv, capture_output=True, text=True, check=False)
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        if completed.returncode != 0:
            return completed.returncode
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qmask benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not (SRC / "qmask" / "__init__.py").is_file():
        fail(f"no qmask sources under {SRC}; run from a checkout of the repository")
    if args.workload == "all":
        return run_all(args)

    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    pin_cpu()
    pin_blas()  # before numpy loads; children inherit the environment
    sys.path.insert(0, str(SRC))
    import qmask

    if Path(qmask.__file__).resolve().parent != SRC / "qmask":
        fail(f"imported qmask from {qmask.__file__}, not from {SRC}")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
