"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q (from the repo root)."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import instances  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# per-layer metrics each workload must move; the union is every per-layer metric
EXERCISED = {
    "cli-pipeline": set(run.LAYER_TIMES) | set(run.LAYER_CALLS)
    | {"hilbert.unitary_bytes", "fileio.masker_bytes"},
    "simulate-reuse": {
        "cli.startup_s", "cli.simulate_s", "masker.simulate_s", "masker.failure_branches_s",
        "hilbert.is_unitary_s", "hilbert.partial_trace_s", "fixed_reducing.from_states_s",
        "fileio.load_masker_s", "hilbert.is_unitary_calls", "hilbert.unitary_bytes",
        "fileio.masker_bytes",
    },
    "optimize-sweep": {
        "optimizer.maximize_general_s", "optimizer.feasible_s", "masker.build_probabilistic_s",
        "masker.verify_masking_s", "masker.simulate_s", "hilbert.unitary_completion_s",
        "hilbert.is_unitary_s", "hilbert.psd_check_s", "hilbert.hermitian_sqrt_s",
        "hilbert.partial_trace_s", "fixed_reducing.from_states_s", "optimizer.feasible_calls",
        "hilbert.is_unitary_calls", "hilbert.psd_check_calls", "hilbert.unitary_bytes",
    },
}


def bench_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
                OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, env=bench_env(),
                          capture_output=True, text=True, timeout=170, check=False)


def test_same_seed_generates_identical_instances(tmp_path):
    for make in (
        lambda seed: instances.probabilistic("cli-pipeline", seed, 5, 6, 4, 1),
        lambda seed: instances.deterministic("cli-pipeline", seed, 3, 12),
        lambda seed: instances.two_input("optimize-sweep", seed, 9, 0.5, 0.3),
    ):
        first, again, other = make(7), make(7), make(8)
        assert np.array_equal(first.inputs, again.inputs)
        assert not np.allclose(first.inputs, other.inputs)
        if first.targets is not None:
            assert np.array_equal(first.targets, again.targets)
            # the placement moves the states but keeps the Gram pair the optimizer sees
            for mine, theirs in zip(first.gram_pair(), other.gram_pair()):
                assert np.allclose(mine, theirs, atol=1e-12)
    paths = []
    for name in ("a", "b"):
        workdir = tmp_path / name
        workdir.mkdir()
        workload = workloads.CliPipeline(7, workdir, None)
        for j in range(workload.setup_size):
            workload.setup_one(j)
        paths.append(sorted(workdir.iterdir()))
    assert [p.name for p in paths[0]] == [p.name for p in paths[1]]
    assert all(a.read_bytes() == b.read_bytes() for a, b in zip(*paths))


class SmallReuse(workloads.SimulateReuse):
    d, n, files = 3, 2, 1


def _edit_unitary(path: Path, edit) -> None:
    document = json.loads(path.read_text(encoding="utf-8"))
    edit(document["unitary"])
    path.write_text(json.dumps(document), encoding="utf-8")


def test_perturbed_masker_file_is_a_failed_operation(tmp_path):
    workload = SmallReuse(3, tmp_path, workloads.Cli(bench_env(), tmp_path))
    workload.setup_one(0)
    item = workload.item(0)
    assert workload.execute(item, 0).ok

    def perturb(unitary):
        unitary[0][0][0] += 1e-6

    _edit_unitary(item[1], perturb)
    perturbed = workload.execute(item, 1)
    assert not perturbed.ok and "exited" in perturbed.detail


def test_wrong_masker_that_exits_zero_fails_the_check(tmp_path):
    from qmask import fileio, hilbert, masker

    path = tmp_path / "masker.json"
    fileio.save_masker(masker.build_deterministic([hilbert.basis_state(3, k) for k in range(3)]),
                       path)

    def identity(unitary):
        size = len(unitary)
        unitary[:] = [[[float(i == j), 0.0] for j in range(size)] for i in range(size)]

    # still unitary, so the file loads and simulate exits 0, yet it masks nothing
    _edit_unitary(path, identity)
    completed = workloads.Cli(bench_env(), tmp_path).run(["simulate", str(path)], 0)
    assert completed.returncode == 0
    problem, _ = workloads.check_simulation(completed.stdout, [1.0, 1.0, 1.0])
    assert problem is not None and "fidelity" in problem


def test_metric_names_are_well_formed():
    results = [workloads.OpResult(op, 0.1 + op, True, scaled=0.1 + op, prob=0.5)
               for op in range(12)]
    emitted, _ = run.end_to_end(results, [0.01, 0.02], 4)
    layer = set(run.LAYER_TIMES) | set(run.LAYER_CALLS) | {
        "hilbert.unitary_bytes", "fileio.masker_bytes", "trace.overhead_s"}
    assert set(emitted) == {m["name"] for m in SPEC["end_to_end"]}
    assert layer == {m["name"] for m in SPEC["per_layer"]}
    names = [*emitted, *layer, *(w["name"] for w in SPEC["workloads"])]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)


def test_tail_and_two_input_bound():
    latencies = [float(v) for v in range(30)]
    assert run.tail_latency(latencies) == (19.0, pytest.approx(100 * 20 / 30))
    assert run.tail_latency(latencies[:10]) == (9.0, 100.0)
    assert workloads.two_input_bound(0.5, 0.3) == pytest.approx(workloads.closed_form(0.5, 0.3))
    assert workloads.two_input_bound(0.5, 0.3) >= workloads.closed_form(0.5, 0.3)
    assert workloads.two_input_bound(1 - 1e-9, 1 - 1e-9 + 1e-15) == 1.0


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_short_traced_run_emits_every_layer_metric(workload):
    completed = run_bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1")
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    silent = sorted(name for name in EXERCISED[workload] if not metrics[name]["value"] > 0)
    assert not silent, f"per-layer metrics that read 0 on {workload}: {silent}"


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_bench("--workload", "optimize-sweep", "--seed", "1", "--seconds", "1",
                          "--trace", "0", cwd=tmp_path)
    assert completed.returncode != 0
    assert completed.stdout == ""
