import ast
import gc
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import dense
import qmask
from qmask import fileio, masker as masking
from qmask.cli import main
from qmask.fileio import load_masker, load_state_set, masker_to_json, save_masker, state_set_to_json
from qmask.fixed_reducing import cyclic_targets, targets_with_overlap
from qmask.hilbert import (
    NORM_TOL, MultipartiteState, Operator, StateVector, basis_state, unitary_completion,
)
from qmask.masker import Masker, build_deterministic, build_probabilistic, verify_masking
from qmask.optimizer import max_prob_two

INV2 = 1.0 / np.sqrt(2)
# floats whose repr round trip is easy to break: signed zero, subnormal, near overflow, inexact sum
AWKWARD = [-0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1 + 0.2]
# a (d, n) = (3, 2) masker written with a probe of n + 1 = 3 states, before the two-state
# probe, and what `simulate` printed for it then
LEGACY_MASKER = Path(__file__).parent / "data" / "masker-3-2-probe-3.json"
LEGACY_SIMULATE = Path(__file__).parent / "data" / "masker-3-2-probe-3.simulate.txt"


def complex_array(real, imag):
    """Complex array assembled part by part, so signed zeros survive."""
    values = np.empty(np.shape(real), dtype=complex)
    values.real, values.imag = real, imag
    return values


def bits(values):
    return np.ascontiguousarray(values, dtype=complex).view(np.uint64)


def canonical(document) -> str:
    # float repr tells -0.0 from 0.0, where == does not
    return json.dumps(document, sort_keys=True)


def dense_document(masker) -> dict:
    """The masker in the version-1 layout earlier versions wrote: no version, a dense unitary."""
    document = masker_to_json(masker)
    for key in ("version", "span_basis"):
        del document[key]
    document["unitary"] = [
        [[float(z.real), float(z.imag)] for z in row] for row in dense(masker.unitary)
    ]
    return document


def assert_resaved_as_version_2(resaved, document) -> None:
    """``resaved`` is the version-1 ``document`` written back: version 2, Q = I, W its matrix."""
    resaved = dict(resaved)
    size = len(document["unitary"])
    identity = [[[float(i == j), 0.0] for j in range(size)] for i in range(size)]
    assert resaved.pop("version") == 2
    assert canonical(resaved.pop("span_basis")) == canonical(identity)
    # everything else, the unitary's awkward floats included, is the version-1 file
    assert canonical(resaved) == canonical(document)


def overlap_pair_masker():
    inputs = [basis_state(2, 0), StateVector(np.array([INV2, INV2]))]
    return build_probabilistic(inputs, cyclic_targets(2, 2), [0.1, 0.1])


def three_input_masker():
    return build_probabilistic(
        [basis_state(3, 0), StateVector(np.array([0.6, 0.8, 0.0])), basis_state(3, 2)],
        cyclic_targets(3, 3),
        [0.3, 0.2, 0.4],
    )


def saved(tmp_path, masker, layout) -> tuple[Path, dict]:
    """Write ``masker`` as a factored (version 2) or dense (version 1) file."""
    document = masker_to_json(masker) if layout == "factored" else dense_document(masker)
    path = tmp_path / f"{layout}.json"
    path.write_text(json.dumps(document))
    return path, document


def rewrite(path, document) -> None:
    path.write_text(json.dumps(document))


def perturb_first_entry(rows) -> None:
    rows[0][0][0] += 1e-6


def product_second_target(document) -> None:
    document["targets"]["states"][1] = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]


def write_state_set(path, dims, vectors):
    document = {
        "dims": list(dims),
        "states": [
            [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex)]
            for v in vectors
        ],
    }
    path.write_text(json.dumps(document))
    return str(path)


@pytest.fixture
def bell_file(tmp_path):
    return write_state_set(
        tmp_path / "bell.json",
        (2, 2),
        [np.array([1, 0, 0, 1]) / np.sqrt(2), np.array([0, 1, 1, 0]) / np.sqrt(2)],
    )


@pytest.fixture
def loose_bell_file(tmp_path):
    # norm 1 + 9e-11 is within NORM_TOL, so each marginal has trace 1 + 1.8e-10
    scale = (1 + 9e-11) / np.sqrt(2)
    return write_state_set(
        tmp_path / "loose_bell.json",
        (2, 2),
        [scale * np.array([1, 0, 0, 1]), scale * np.array([0, 1, 1, 0])],
    )


@pytest.fixture
def basis_pair_file(tmp_path):
    return write_state_set(tmp_path / "basis.json", (2,), [[1, 0], [0, 1]])


@pytest.fixture
def overlap_pair_file(tmp_path):
    return write_state_set(tmp_path / "pair.json", (2,), [[1, 0], [INV2, INV2]])


class TestVerifyFixedReducing:
    def test_bell_pair_passes(self, bell_file, capsys):
        assert main(["verify-fixed-reducing", bell_file]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "state 1" in out

    def test_states_admitted_within_norm_tolerance_pass(self, loose_bell_file, capsys):
        assert main(["verify-fixed-reducing", loose_bell_file]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_family_with_product_state_fails(self, tmp_path, capsys):
        path = write_state_set(
            tmp_path / "bad.json",
            (2, 2),
            [np.array([1, 0, 0, 1]) / np.sqrt(2), np.array([1, 0, 0, 0])],
        )
        assert main(["verify-fixed-reducing", path]) == 1
        out = capsys.readouterr().out
        assert "state 1: marginal deviation 5.000e-01" in out
        assert "FAIL" in out

    def test_tolerance_flag_sets_the_test(self, tmp_path, capsys):
        # both states are bipartite but their marginals differ by 1e-6
        path = write_state_set(tmp_path / "near.json", (2, 2), [
            np.array([1, 0, 0, 1]) / np.sqrt(2),
            np.array([np.sqrt(0.5 + 1e-6), 0, 0, np.sqrt(0.5 - 1e-6)]),
        ])
        assert main(["verify-fixed-reducing", path]) == 1
        assert "FAIL" in capsys.readouterr().out
        assert main(["verify-fixed-reducing", path, "--tol", "1e-5"]) == 0
        assert "PASS (max deviation 1.000e-06, tolerance 1.0e-05)" in capsys.readouterr().out

    def test_single_subsystem_set_is_input_error(self, basis_pair_file, capsys):
        assert main(["verify-fixed-reducing", basis_pair_file]) == 2
        assert "need exactly 2 subsystems for marginal checks, got 1" in capsys.readouterr().err

    def test_integer_too_large_for_an_amplitude_names_field(self, tmp_path, capsys):
        # numpy keeps an integer of 2^64 or more as an object, never as an amplitude
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"dims": [2, 2], "states": [
            [[2**64, 0], [0, 0], [0, 0], [0, 0]]]}))
        assert main(["verify-fixed-reducing", str(path)]) == 2
        assert "holds an integer far too large for an amplitude" in capsys.readouterr().err

    def test_truncated_file_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "truncated.json"
        path.write_text('{"dims": [2, 2], "sta')
        assert main(["verify-fixed-reducing", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_wrong_vector_length_names_field(self, tmp_path, capsys):
        path = write_state_set(tmp_path / "short.json", (2, 2), [[1, 0, 0]])
        assert main(["verify-fixed-reducing", path]) == 2
        assert "states[0]" in capsys.readouterr().err

    def test_unnormalized_needs_renormalize_flag(self, tmp_path, capsys):
        path = write_state_set(tmp_path / "loose.json", (2, 2), [[1, 0, 0, 1]])
        assert main(["verify-fixed-reducing", path]) == 2
        assert "renormalize" in capsys.readouterr().err
        assert main(["verify-fixed-reducing", path, "--renormalize"]) == 0


class TestMaskDet:
    def test_basis_pair_round_trip(self, basis_pair_file, tmp_path, capsys):
        out_path = tmp_path / "masker.json"
        assert main(["mask-det", basis_pair_file, "--out", str(out_path)]) == 0
        assert "PASS" in capsys.readouterr().out
        assert main(["simulate", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "success probability 1" in out

    def test_three_orthonormal_states_d3(self, tmp_path, capsys):
        path = write_state_set(tmp_path / "triple.json", (3,), np.eye(3))
        assert main(["mask-det", path, "--dim", "3", "--out", str(tmp_path / "m.json")]) == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("end", [1.0, -1.0])
    def test_states_off_unit_norm_within_the_tolerance(self, tmp_path, capsys, end):
        path = write_state_set(tmp_path / "triple.json", (3,),
                               (1.0 + 0.99 * NORM_TOL * end) * np.eye(3))
        assert main(["mask-det", path]) == 0
        assert "verification: PASS" in capsys.readouterr().out

    def test_renormalize_of_a_norm_not_finite_names_field(self, tmp_path, capsys):
        # 1e200 squared overflows, so the norm is inf and the scaled vector 0
        path = tmp_path / "huge.json"
        path.write_text('{"dims":[2],"states":[[[1e200,0],[0,0]],[[0,0],[1,0]]]}')
        assert main(["mask-det", str(path), "--renormalize"]) == 2
        err = capsys.readouterr().err
        assert "field 'states[0]'" in err and "renormalize" not in err

    @pytest.mark.parametrize("renormalize", [[], ["--renormalize"]], ids=["plain", "renormalize"])
    @pytest.mark.parametrize("entry, message", [
        ("NaN", "field 'document': NaN is not a JSON number"),
        ("Infinity", "field 'document': Infinity is not a JSON number"),
        ("-Infinity", "field 'document': -Infinity is not a JSON number"),
        # a number beyond the float range parses as inf
        ("1e400", "field 'states[0][0]': expected a two-element [re, im] pair of finite numbers"),
    ], ids=["nan", "infinity", "minus-infinity", "overflow"])
    def test_amplitude_not_finite_is_input_error(
        self, tmp_path, capsys, entry, message, renormalize
    ):
        path = tmp_path / "states.json"
        path.write_text('{"dims":[2],"states":[[[%s,0],[0,0]],[[0,0],[1,0]]]}' % entry)
        with warnings.catch_warnings():
            # a numpy RuntimeWarning would print to stderr beside the error
            warnings.simplefilter("error")
            assert main(["mask-det", str(path), *renormalize]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert "renormalize" not in err

    def test_dims_whose_product_passes_64_bits_name_the_length(self, tmp_path, capsys):
        # a 64-bit product of these dims wraps around to 0
        path = tmp_path / "huge.json"
        path.write_text('{"dims": [4294967296, 4294967296], "states": [[[1, 0]]]}')
        assert main(["mask-det", str(path)]) == 2
        assert f"field 'states[0]': expected a list of {2 ** 64} entries" in capsys.readouterr().err

    def test_orthonormal_basis_written_to_twelve_digits(self, tmp_path, capsys, rng):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        rounded = np.round(q.T, 12)
        # inner products of about 1e-12, far above rounding but within input precision
        assert np.max(np.abs(rounded.conj() @ rounded.T - np.eye(3))) > 1e-14
        assert main(["mask-det", write_state_set(tmp_path / "basis.json", (3,), rounded)]) == 0
        assert "verification: PASS" in capsys.readouterr().out

    def test_malformed_labels_are_input_error(self, basis_pair_file, capsys):
        path = Path(basis_pair_file)
        document = json.loads(path.read_text())
        for labels, code in ((["a", "b"], 0), ([1], 2), ([1, "b"], 2), ("a,b", 2)):
            path.write_text(json.dumps({**document, "labels": labels}))
            assert main(["mask-det", basis_pair_file]) == code
            assert code == 0 or "'labels'" in capsys.readouterr().err

    def test_overlapping_pair_rejected(self, overlap_pair_file, capsys):
        assert main(["mask-det", overlap_pair_file]) == 1
        err = capsys.readouterr().err
        assert "off-diagonal" in err
        assert "7.07" in err  # reports the offending Gram magnitude 1/sqrt2


class TestMaskProb:
    def test_maximize_reports_closed_form_optimum(self, overlap_pair_file, tmp_path, capsys):
        out_path = tmp_path / "masker.json"
        code = main([
            "mask-prob", overlap_pair_file,
            "--target-overlap", "0", "--maximize", "--out", str(out_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        values = {
            line.split(":")[0]: line.split(":")[1].strip()
            for line in out.splitlines() if ":" in line
        }
        assert float(values["Prob(M)"]) == pytest.approx((1 - INV2) ** 2, abs=1e-6)
        gammas = [float(g) for g in values["gammas"].split()]
        assert gammas == pytest.approx([1 - INV2, 1 - INV2], abs=1e-6)
        lines = out.splitlines()
        gap_line = lines[lines.index(f"Prob(M): {values['Prob(M)']}") + 1]
        assert gap_line.startswith("optimality gap (certified): ")
        assert 0.0 <= float(values["optimality gap (certified)"]) <= 1e-6

        assert main(["simulate", str(out_path), "--state", "0"]) == 0
        sim_out = capsys.readouterr().out
        prob_line = next(l for l in sim_out.splitlines() if l.startswith("success probability"))
        assert float(prob_line.split(":")[1]) == pytest.approx(1 - INV2, abs=1e-6)

    def test_explicit_gammas_report_margin(self, overlap_pair_file, tmp_path, capsys):
        out_path = tmp_path / "masker.json"
        code = main([
            "mask-prob", overlap_pair_file,
            "--target-overlap", "0", "--gammas", "0.1,0.1", "--out", str(out_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        margin_line = next(l for l in out.splitlines() if "feasibility margin" in l)
        assert float(margin_line.split(":")[1]) == pytest.approx(0.9 - INV2, abs=1e-9)
        assert "optimality gap" not in out  # certified only for --maximize
        assert out_path.exists()

    def test_infeasible_gammas_exit_one(self, overlap_pair_file, capsys):
        code = main([
            "mask-prob", overlap_pair_file, "--target-overlap", "0", "--gammas", "0.3,0.3",
        ])
        assert code == 1
        assert "eigenvalue" in capsys.readouterr().err

    def test_linearly_dependent_inputs_exit_one(self, tmp_path, capsys):
        path = write_state_set(tmp_path / "dep.json", (2,), [[1, 0], [1, 0]])
        code = main(["mask-prob", path, "--target-overlap", "0", "--gammas", "0.1,0.1"])
        assert code == 1
        assert "dependent" in capsys.readouterr().err

    def test_targets_file(self, overlap_pair_file, tmp_path, capsys):
        targets = cyclic_targets(2, 2)
        targets_path = write_state_set(
            tmp_path / "targets.json", (2, 2), [s.amplitudes for s in targets.states]
        )
        code = main([
            "mask-prob", overlap_pair_file, "--targets", targets_path, "--gammas", "0.1,0.1",
        ])
        assert code == 0

    def test_targets_admitted_within_norm_tolerance_build(
        self, basis_pair_file, loose_bell_file, capsys
    ):
        code = main([
            "mask-prob", basis_pair_file, "--targets", loose_bell_file, "--gammas", "0.3,0.3",
        ])
        assert code == 0
        assert "verification: PASS" in capsys.readouterr().out

    def test_unit_gammas_write_the_deterministic_masker(self, basis_pair_file, tmp_path):
        targets_path = write_state_set(
            tmp_path / "targets.json", (2, 2), [s.amplitudes for s in cyclic_targets(2, 2).states]
        )
        paths = [tmp_path / "prob.json", tmp_path / "det.json"]
        assert main([
            "mask-prob", basis_pair_file,
            "--targets", targets_path, "--gammas", "1,1", "--out", str(paths[0]),
        ]) == 0
        assert main(["mask-det", basis_pair_file, "--out", str(paths[1])]) == 0
        documents = [json.loads(path.read_text()) for path in paths]
        assert documents[0]["kind"] == "deterministic"
        assert documents[0] == documents[1]

    def test_maximize_accepts_a_single_input(self, tmp_path, capsys):
        path = write_state_set(tmp_path / "one.json", (2,), [[0.6, 0.8]])
        targets_path = write_state_set(
            tmp_path / "t.json", (2, 2), [cyclic_targets(1, 2).states[0].amplitudes])
        out_path = tmp_path / "masker.json"
        code = main(["mask-prob", path, "--targets", targets_path, "--maximize",
                     "--out", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "gammas: 1\n" in out and "verification: PASS" in out
        assert json.loads(out_path.read_text())["kind"] == "deterministic"

    def test_overlap_targets_need_two_inputs(self, tmp_path, capsys):
        path = write_state_set(tmp_path / "triple.json", (3,), np.eye(3))
        code = main(["mask-prob", path, "--target-overlap", "0", "--gammas", "0.1,0.1,0.1"])
        assert code == 2
        assert "--target-overlap: got 2 targets for 3 inputs" in capsys.readouterr().err

    def test_wrong_targets_count_is_input_error(self, tmp_path, capsys):
        path = write_state_set(tmp_path / "triple.json", (3,), np.eye(3))
        targets = cyclic_targets(2, 3)
        targets_path = write_state_set(
            tmp_path / "targets.json", (3, 3), [s.amplitudes for s in targets.states]
        )
        # the count is checked before the optimizer runs
        code = main(["mask-prob", path, "--targets", targets_path, "--maximize"])
        assert code == 2
        assert "--targets: got 2 targets for 3 inputs" in capsys.readouterr().err

    @pytest.mark.parametrize("gammas", [["--maximize"], ["--gammas", "0.5,0.5"]])
    def test_wrong_targets_dimension_is_input_error(
        self, overlap_pair_file, tmp_path, capsys, gammas
    ):
        cyclic = [s.amplitudes for s in cyclic_targets(2, 3).states]
        shapes = [((3, 3), cyclic), ((2, 3), np.eye(6)[:2]), ((2, 2, 2), np.eye(8)[:2])]
        # a (2, 3) or three-subsystem family cannot be fixed reducing, so the
        # dimension is checked before the target set is built
        for dims, vectors in shapes:
            targets_path = write_state_set(tmp_path / "targets.json", dims, vectors)
            code = main(["mask-prob", overlap_pair_file, "--targets", targets_path, *gammas])
            assert code == 2
            message = f"--targets: targets have dims {dims}, inputs need (2, 2)"
            assert message in capsys.readouterr().err

    def test_wrong_gammas_count_is_input_error(self, overlap_pair_file, capsys):
        code = main([
            "mask-prob", overlap_pair_file, "--target-overlap", "0", "--gammas", "0.1,0.1,0.1",
        ])
        assert code == 2
        assert "--gammas: need 2 efficiencies, got 3" in capsys.readouterr().err

    def test_negative_target_overlap_is_valid(self, overlap_pair_file):
        code = main([
            "mask-prob", overlap_pair_file, "--target-overlap", "-0.5", "--gammas", "0.1,0.1",
        ])
        assert code == 0

    def test_prints_verification_block(self, overlap_pair_file, tmp_path, capsys):
        out_path = tmp_path / "masker.json"
        code = main([
            "mask-prob", overlap_pair_file,
            "--target-overlap", "0", "--gammas", "0.1,0.1", "--out", str(out_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "success probabilities: 0.1 0.1" in out
        assert "verification: PASS" in out
        assert out_path.exists()

    def test_verification_line_prints_the_applied_tolerance(self, tmp_path, capsys):
        s = 1.0 - 1e-9
        path = write_state_set(tmp_path / "close.json", (2,), [[1, 0], [s, np.sqrt(1 - s * s)]])
        gamma = max_prob_two(s, 0.0)[1][0]
        argv = ["mask-prob", path, "--target-overlap", "0", "--gammas", f"{gamma!r},{gamma!r}"]
        assert main(argv) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        inputs = [basis_state(2, 0), StateVector(np.array([s, np.sqrt(1 - s * s)]))]
        tolerance = masking.verify_masking(
            build_probabilistic(inputs, targets_with_overlap(2, 0.0), [gamma, gamma])).tolerance
        # cond(A) is about 2e9, so the tolerance is well above VERIFY_TOL
        assert tolerance > 1e-6
        assert line.startswith(f"verification: PASS (tolerance {tolerance:.1e},")

    @pytest.mark.parametrize("end", [1.0, -1.0])
    def test_maximize_at_t_equal_s_on_states_off_unit_norm(self, tmp_path, capsys, end):
        scale = 1.0 + 0.99 * NORM_TOL * end
        path = write_state_set(tmp_path / "pair.json", (2,),
                               [[scale, 0], [0.6 * scale, 0.8 * scale]])
        assert main(["mask-prob", path, "--target-overlap", "0.6", "--maximize"]) == 0
        assert "verification: PASS" in capsys.readouterr().out

    def test_efficiencies_above_the_optimum_exit_one_and_write_nothing(self, tmp_path, capsys):
        s = 1.0 - 1e-9
        path = write_state_set(tmp_path / "close.json", (2,), [[1, 0], [s, np.sqrt(1 - s * s)]])
        gamma = 1.01 * max_prob_two(s, 0.0)[1][0]
        out_path = tmp_path / "masker.json"
        code = main([
            "mask-prob", path, "--target-overlap", "0",
            "--gammas", f"{gamma!r},{gamma!r}", "--out", str(out_path),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert re.search(r"infeasible efficiencies: .* min eigenvalue -\S+, below the rounding "
                         r"floor -\S+", err)
        assert not out_path.exists()

    def test_failed_verification_exits_one_and_writes_nothing(
        self, overlap_pair_file, tmp_path, capsys, monkeypatch
    ):
        build = masking.build_probabilistic

        def broken_build(*args, **kwargs):
            # the identity is unitary, so the masker is well formed, but it masks nothing
            built = build(*args, **kwargs)
            identity = np.eye(built.unitary.dim)
            return Masker(built.inputs, built.ancilla_index, built.targets, built.gammas,
                          Operator(identity, identity))

        monkeypatch.setattr(masking, "build_probabilistic", broken_build)
        out_path = tmp_path / "masker.json"
        code = main([
            "mask-prob", overlap_pair_file,
            "--target-overlap", "0", "--gammas", "0.1,0.1", "--out", str(out_path),
        ])
        assert code == 1
        assert "verification: FAIL" in capsys.readouterr().out
        assert not out_path.exists()

    @pytest.mark.parametrize("command, inputs, options", [
        ("mask-prob", "overlap_pair_file", ["--target-overlap", "0", "--gammas", "0.1,0.1"]),
        # orthonormal inputs, so only the --dim check can fail
        ("mask-det", "basis_pair_file", []),
    ], ids=["mask-prob", "mask-det"])
    def test_declared_dim_mismatch_is_input_error(
        self, request, capsys, command, inputs, options
    ):
        code = main([command, request.getfixturevalue(inputs), "--dim", "3", *options])
        assert code == 2
        assert "dims" in capsys.readouterr().err

    @pytest.mark.parametrize("command, options", [
        ("mask-prob", ["--target-overlap", "0", "--gammas", "0.1,0.1"]),
        ("mask-det", []),
    ], ids=["mask-prob", "mask-det"])
    def test_bipartite_inputs_are_input_error(self, bell_file, capsys, command, options):
        assert main([command, bell_file, *options]) == 2
        assert "masker inputs live on a single subsystem, got 2" in capsys.readouterr().err


class TestSimulate:
    @pytest.mark.parametrize("index", ["99", "2", "-1"])
    def test_bad_index_is_input_error(self, basis_pair_file, tmp_path, capsys, index):
        masker_path = tmp_path / "masker.json"
        assert main(["mask-det", basis_pair_file, "--out", str(masker_path)]) == 0
        capsys.readouterr()
        assert main(["simulate", str(masker_path), "--state", index]) == 2
        assert capsys.readouterr().err == f"error: --state: index {index} outside range 0..1\n"

    def test_marginal_deviation_matches_verify_masking(self, tmp_path, capsys):
        path = tmp_path / "masker.json"
        save_masker(three_input_masker(), path)
        assert main(["simulate", str(path)]) == 0
        expected = f"{verify_masking(load_masker(path)).max_marginal_deviation:.3e}"
        assert f"cross-state marginal deviation: {expected}" in capsys.readouterr().out

    def test_unitary_applied_once_per_loaded_masker(self, tmp_path, monkeypatch):
        path = tmp_path / "masker.json"
        save_masker(three_input_masker(), path)
        calls = []
        apply = Operator.apply

        def counted(self, vectors):
            calls.append(np.shape(vectors))
            return apply(self, vectors)

        monkeypatch.setattr(Operator, "apply", counted)
        assert main(["simulate", str(path)]) == 0
        assert calls == [(9 * 2, 3)]


@pytest.mark.parametrize("command", ["simulate", "mask-det", "verify-fixed-reducing"])
@pytest.mark.parametrize("content", [b"\xff\xfe", b"[" * 200_000 + b"]" * 200_000],
                         ids=["not-utf-8", "nested-200000-deep"])
def test_undecodable_file_is_input_error(tmp_path, capsys, command, content):
    # a UnicodeDecodeError is a ValueError, and deep nesting a RecursionError: neither is
    # a domain failure
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main([command, str(path)]) == 2
    assert f"error: field 'document': {path} is not valid JSON" in capsys.readouterr().err


class TestFigure1:
    def test_csv_spot_values_and_determinism(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(["figure1", "--out", str(first)]) == 0
        assert main(["figure1", "--out", str(second)]) == 0
        data = first.read_text()
        assert data == second.read_text()
        lines = data.strip().splitlines()
        assert lines[0] == "s,t,prob_max"
        rows = {tuple(line.split(",")[:2]): line.split(",")[2] for line in lines[1:]}
        assert float(rows[("0.25", "0")]) == pytest.approx(0.5625, abs=1e-9)
        assert float(rows[("0.5", "0")]) == pytest.approx(0.25, abs=1e-9)
        assert float(rows[("0", "0.5")]) == pytest.approx(4 / 9, abs=1e-9)
        assert rows[("0.5", "0.5")] == "1"
        assert rows[("1", "0.5")] == "0"

    def test_stdout_when_no_path(self, capsys):
        assert main(["figure1", "--steps", "3", "--s-values", "0"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "s,t,prob_max"
        assert len(out.strip().splitlines()) == 4

    def test_unwritable_path_is_io_error(self, tmp_path, capsys):
        assert main(["figure1", "--out", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, message", [
        ("--steps", "-1", "non-negative"),
        ("--s-values", "1.5", "[0, 1]"),
        ("--s-values", "nan", "[0, 1]"),
        ("--gammas", "1.5,0.1", "(0, 1]"),
        ("--gammas", "0,0.1", "(0, 1]"),
        ("--gammas", "nan,0.1", "(0, 1]"),
        ("--target-overlap", "2", "[-1, 1]"),
        ("--target-overlap", "nan", "[-1, 1]"),
        ("--tol", "nan", "finite and non-negative"),
        ("--tol", "inf", "finite and non-negative"),
        ("--tol", "-1", "finite and non-negative"),
        ("--steps", "2.5", "expected an integer"),
        ("--s-values", "half", "expected a number"),
        ("--gammas", "0.1,x", "comma-separated numbers"),
        ("--target-overlap", "x", "expected a number"),
    ])
    def test_out_of_range_argument_is_input_error(
        self, flag, value, message, overlap_pair_file, capsys
    ):
        # the mask-prob flags need an input file and the other required flag
        mask_prob = {"--gammas": ["--target-overlap", "0"], "--target-overlap": ["--gammas", "0.1"]}
        if flag in mask_prob:
            argv = ["mask-prob", overlap_pair_file, *mask_prob[flag], flag, value]
        elif flag == "--tol":
            argv = ["verify-fixed-reducing", overlap_pair_file, flag, value]
        else:
            argv = ["figure1", flag, value]
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and message in err


MASK_DET_BASIS = """\
deterministic masker: 2 states, dimension 2
success probabilities: 1 1
fidelities: 1 1
max marginal deviation: *
verification: PASS (tolerance 1.0e-08, probabilities relative to gamma)
"""
FIGURE1_GRID = """\
s,t,prob_max
0,0,1
0,0.5,0.444444444444
0,1,0.25
0.5,0,0.25
0.5,0.5,1
0.5,1,0.5625
"""
# a fixed run of every subcommand and every argument rule: (argv, exit code, stdout),
# with stdout None where its digits depend on BLAS rounding; {dir} holds ``pinned_files``
CLI_PINS = [
    ("verify-fixed-reducing {dir}/bell.json", 0, None),
    ("verify-fixed-reducing {dir}/product.json", 1, None),
    ("verify-fixed-reducing {dir}/basis.json", 2, ""),
    ("verify-fixed-reducing {dir}/bell.json --tol 1e-5 --renormalize", 0, None),
    ("mask-det {dir}/basis.json", 0, MASK_DET_BASIS),
    ("mask-det {dir}/basis.json --dim 2 --renormalize", 0, MASK_DET_BASIS),
    ("mask-det {dir}/pair.json", 1, ""),
    ("mask-det {dir}/basis.json --dim 3", 2, ""),
    ("mask-prob {dir}/pair.json --target-overlap 0 --maximize", 0, None),
    ("mask-prob {dir}/pair.json --targets {dir}/bell.json --gammas 0.1,0.1 --out {dir}/m.json",
     0, None),
    ("mask-prob {dir}/pair.json --target-overlap 0 --gammas 0.9,0.9", 1, ""),
    ("mask-prob {dir}/pair.json --target-overlap 0 --gammas 0.5", 2, ""),
    ("mask-prob {dir}/pair.json --dim 3 --target-overlap 0 --maximize", 2, ""),
    ("simulate {dir}/masker.json", 0, None),
    ("simulate {dir}/masker.json --state 1", 0, None),
    ("simulate {dir}/masker.json --state 2", 2, ""),
    ("figure1 --s-values 0 0.5 --steps 3", 0, FIGURE1_GRID),
    ("figure1 --steps 0", 0, "s,t,prob_max\n"),
    ("figure1 --out {dir}", 2, ""),
    # argparse's rejections: stdout stays empty
    ("", 2, ""),
    ("mask-prob {dir}/pair.json --maximize", 2, ""),
    ("mask-prob {dir}/pair.json --target-overlap 0 --maximize --gammas 0.1,0.1", 2, ""),
    ("verify-fixed-reducing {dir}/bell.json --tol -1", 2, ""),
    ("verify-fixed-reducing {dir}/bell.json --tol x", 2, ""),
    ("mask-det {dir}/basis.json --dim x", 2, ""),
    ("mask-prob {dir}/pair.json --target-overlap 0 --gammas 1.5,0.1", 2, ""),
    ("mask-prob {dir}/pair.json --target-overlap 0 --gammas 0.1,x", 2, ""),
    ("mask-prob {dir}/pair.json --gammas 0.1,0.1 --target-overlap 2", 2, ""),
    ("mask-prob {dir}/pair.json --gammas 0.1,0.1 --target-overlap x", 2, ""),
    ("simulate {dir}/masker.json --state x", 2, ""),
    ("figure1 --s-values 1.5", 2, ""),
    ("figure1 --s-values half", 2, ""),
    ("figure1 --steps -1", 2, ""),
    ("figure1 --steps 2.5", 2, ""),
]


@pytest.fixture
def pinned_files(tmp_path):
    write_state_set(tmp_path / "bell.json", (2, 2),
                    [np.array([1, 0, 0, 1]) / np.sqrt(2), np.array([0, 1, 1, 0]) / np.sqrt(2)])
    write_state_set(tmp_path / "product.json", (2, 2),
                    [np.array([1, 0, 0, 1]) / np.sqrt(2), np.array([1, 0, 0, 0])])
    write_state_set(tmp_path / "basis.json", (2,), [[1, 0], [0, 1]])
    write_state_set(tmp_path / "pair.json", (2,), [[1, 0], [INV2, INV2]])
    save_masker(build_deterministic([basis_state(2, 0), basis_state(2, 1)]),
                tmp_path / "masker.json")
    return tmp_path


@pytest.mark.parametrize("argv, code, stdout", CLI_PINS, ids=[pin[0] for pin in CLI_PINS])
def test_pinned_invocation(pinned_files, capsys, argv, code, stdout):
    try:
        exited = main(argv.format(dir=pinned_files).split())
    except SystemExit as exc:
        exited = exc.code
    assert exited == code
    if stdout is not None:
        # the deviation of the masker's marginals is rounding dust
        out = re.sub(r"(max marginal deviation: )\S+", r"\1*", capsys.readouterr().out)
        assert out == stdout


class TestMaskerFiles:
    def test_round_trip_preserves_verification_report(self, tmp_path, rng):
        inputs = [basis_state(2, 0), StateVector(np.array([INV2, INV2]))]
        masker = build_probabilistic(inputs, cyclic_targets(2, 2), [0.1, 0.2])
        path = tmp_path / "masker.json"
        save_masker(masker, path)
        loaded = load_masker(path)
        original_report = verify_masking(masker)
        loaded_report = verify_masking(loaded)
        assert loaded_report == original_report
        assert np.array_equal(dense(loaded.unitary), dense(masker.unitary))
        assert np.array_equal(loaded.gammas, masker.gammas)

    def test_round_trip_is_lossless(self, tmp_path):
        masker = build_probabilistic(
            [basis_state(2, 0), StateVector(np.array([INV2, INV2]))],
            cyclic_targets(2, 2),
            [0.05, 0.15],
        )
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_masker(masker, first)
        save_masker(load_masker(first), second)
        assert first.read_text() == second.read_text()

    @pytest.mark.parametrize("s, gap", [(0.3, 1e-11), (0.3, 1e-13), (0.9, 1e-13)])
    def test_round_trip_near_unit_efficiency(self, tmp_path, s, gap):
        # 1 - gamma is ~1e-11 here: the failure branch weight, not its rescaled norm, is checked
        _, gammas = max_prob_two(s, s - gap)
        inputs = [basis_state(2, 0), StateVector(np.array([s, np.sqrt(1 - s * s)]))]
        masker = build_probabilistic(inputs, targets_with_overlap(2, s - gap), gammas)
        assert verify_masking(masker).passed
        path = tmp_path / "masker.json"
        save_masker(masker, path)
        assert verify_masking(load_masker(path)) == verify_masking(masker)
        assert main(["simulate", str(path)]) == 0

    @pytest.mark.parametrize("edit, index", [
        (lambda document: document["gammas"].__setitem__(1, 0.15), 1),
        (lambda document: document["targets"]["states"].reverse(), 0),
        # the failure branch weight of a gamma edited towards 0 stays within the floor
        (lambda document: document["gammas"].__setitem__(1, 1e-30), 1),
    ], ids=["edited-gamma", "swapped-targets", "gamma-towards-zero"])
    def test_gammas_disagreeing_with_unitary_are_input_error(
        self, tmp_path, capsys, edit, index
    ):
        for layout in ("factored", "dense"):
            path, document = saved(tmp_path, overlap_pair_masker(), layout)
            edit(document)
            rewrite(path, document)
            assert main(["simulate", str(path)]) == 2
            err = capsys.readouterr().err
            assert "'gammas'" in err and f"input {index}" in err

    @pytest.mark.parametrize("field, value", [("inputs", [1, 2]), ("targets", "abc")])
    def test_state_set_that_is_not_an_object_names_field(self, tmp_path, capsys, field, value):
        path, document = saved(tmp_path, overlap_pair_masker(), "factored")
        document[field] = value
        rewrite(path, document)
        assert main(["simulate", str(path)]) == 2
        assert f"field '{field}': expected a JSON object" in capsys.readouterr().err

    def test_unnormalized_embedded_state_names_field_without_a_flag_hint(self, tmp_path, capsys):
        path, document = saved(tmp_path, overlap_pair_masker(), "factored")
        document["inputs"]["states"][0][0][0] *= 1.001
        rewrite(path, document)
        assert main(["simulate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "field 'inputs.states[0]': state is not normalized" in err
        assert "renormalize" not in err

    def test_ancilla_index_reaches_the_evolution(self, tmp_path, capsys):
        built = overlap_pair_masker()
        # the built masker's outputs, reached from inputs prepared with |1>_B |P_0>_P
        start = basis_state(2 * built.probe_dim, built.probe_dim).amplitudes
        prepared = np.column_stack([np.kron(a.amplitudes, start) for a in built.inputs])
        masker = Masker(built.inputs, 1, built.targets, built.gammas,
                        unitary_completion(prepared, built.evolved))
        report = verify_masking(masker)
        assert report.passed
        assert not verify_masking(
            Masker(masker.inputs, 0, masker.targets, masker.gammas, masker.unitary)).passed
        path = tmp_path / "masker.json"
        save_masker(masker, path)
        assert json.loads(path.read_text())["ancilla_index"] == 1
        loaded = load_masker(path)
        assert loaded.ancilla_index == 1 and verify_masking(loaded) == report
        assert main(["simulate", str(path)]) == 0
        printed = capsys.readouterr().out
        for k, probability in enumerate(report.success_probabilities):
            assert f"state {k}: success probability {probability:.12g}," in printed

    def test_edited_ancilla_index_is_input_error(self, tmp_path, capsys):
        path, document = saved(tmp_path, overlap_pair_masker(), "factored")
        assert document["ancilla_index"] == 0
        document["ancilla_index"] = 1
        rewrite(path, document)
        assert main(["simulate", str(path)]) == 2
        assert "field 'gammas'" in capsys.readouterr().err

    def test_corrupt_kind_rejected(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"kind": "other"}))
        assert main(["simulate", str(path)]) == 2
        assert "kind" in capsys.readouterr().err

    def test_pair_codec_is_bit_exact_on_awkward_floats(self):
        vector = complex_array(AWKWARD, np.roll(AWKWARD, 1))
        matrix = np.stack([np.roll(vector, k) for k in range(vector.size)])
        pairs = json.loads(json.dumps(fileio._pairs_to_json(vector)))
        decoded_vector = fileio._complex_array(pairs, "states[0]", vector.shape)
        decoded_matrix = fileio._complex_array(
            json.loads(json.dumps(fileio._pairs_to_json(matrix))), "unitary", matrix.shape)
        assert np.array_equal(bits(decoded_vector), bits(vector))
        assert np.array_equal(bits(decoded_matrix), bits(matrix))
        # the reference decoder builds each pair with Python's complex, independent of numpy
        assert np.array_equal(bits([complex(re, im) for re, im in pairs]), bits(decoded_vector))

    @pytest.mark.parametrize("dims", [(3,), (2, 2)], ids=["single", "bipartite"])
    def test_state_set_round_trip_is_bit_exact(self, tmp_path, dims):
        third = np.sqrt(1.0 - (0.1 + 0.2) ** 2)
        parts = [-0.0, 0.1 + 0.2, -5e-324, 0.0], [5e-324, -0.0, third, -0.0]
        vector = complex_array(*(part[:int(np.prod(dims))] for part in parts))
        path = tmp_path / "states.json"
        path.write_text(json.dumps(state_set_to_json([MultipartiteState(vector, dims)] * 2)))
        states = load_state_set(path)
        assert len(states) == 2 and all(state.dims == dims for state in states)
        assert all(np.array_equal(bits(state.amplitudes), bits(vector)) for state in states)

    def test_masker_round_trip_is_bit_exact_on_awkward_floats(self, tmp_path):
        path, document = saved(
            tmp_path, build_deterministic([basis_state(2, 0), basis_state(2, 1)]), "dense")
        unitary = document["unitary"]
        assert unitary[0][1] == [0.0, 0.0] and unitary[0][2] == [0.0, 0.0]
        unitary[0][1] = [-0.0, 5e-324]
        unitary[0][2] = [-5e-324, -0.0]
        rewrite(path, document)
        loaded = load_masker(path)
        resaved = tmp_path / "resaved.json"
        save_masker(loaded, resaved)
        assert_resaved_as_version_2(json.loads(resaved.read_text()), document)
        reloaded = load_masker(resaved)
        assert np.array_equal(bits(reloaded.unitary.span_unitary),
                              bits(loaded.unitary.span_unitary))

        inputs = [basis_state(2, 0), StateVector(np.array([0.1, np.sqrt(0.99)]))]
        probabilistic = build_probabilistic(inputs, cyclic_targets(2, 2), [0.1 + 0.2, 0.1])
        save_masker(probabilistic, path)
        assert "0.30000000000000004" in path.read_text()
        loaded = load_masker(path)
        assert np.array_equal(loaded.gammas, probabilistic.gammas)
        assert np.array_equal(bits(dense(loaded.unitary)), bits(dense(probabilistic.unitary)))

    @pytest.mark.parametrize("edit, field", [
        (lambda u: u[0][0].__setitem__(0, True), "unitary[0][0]"),
        # np.asarray would read this false as the 0.0 it replaces
        (lambda u: u[0][1].__setitem__(0, False), "unitary[0][1]"),
        (lambda u: u[1][2].__setitem__(1, "0.5"), "unitary[1][2]"),
        (lambda u: u[2][0].append(0.0), "unitary[2][0]"),
        (lambda u: u[3].pop(), "unitary[3]"),
        (lambda u: u.pop(), "'unitary'"),
    ], ids=["true", "false-at-zero", "string", "three-element-pair", "short-row", "row-count"])
    def test_malformed_unitary_names_field(self, tmp_path, capsys, edit, field):
        path, document = saved(
            tmp_path, build_deterministic([basis_state(2, 0), basis_state(2, 1)]), "dense")
        edit(document["unitary"])
        rewrite(path, document)
        assert main(["simulate", str(path)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("name, edit, field", [
        ("span_basis", lambda q: q[0][0].__setitem__(0, True), "span_basis[0][0]"),
        ("span_basis", lambda q: q[2][1].__setitem__(1, "0.5"), "span_basis[2][1]"),
        ("span_basis", lambda q: q[3].pop(), "span_basis[3]"),
        ("span_basis", lambda q: q.pop(), "'span_basis'"),
        ("unitary", lambda w: w[1][0].__setitem__(0, False), "unitary[1][0]"),
        ("unitary", lambda w: w[0].__setitem__(1, "x"), "unitary[0][1]"),
        ("unitary", lambda w: w[2].pop(), "unitary[2]"),
        # one row and one column fewer: a k that disagrees with the span basis
        ("unitary", lambda w: [row.pop() for row in w] and w.pop(), "'unitary'"),
    ], ids=["basis-true", "basis-string", "basis-short-row", "basis-row-count",
            "unitary-false", "unitary-string", "unitary-short-row", "unitary-wrong-k"])
    def test_malformed_span_factors_name_field(self, tmp_path, capsys, name, edit, field):
        path, document = saved(tmp_path, overlap_pair_masker(), "factored")
        edit(document[name])
        rewrite(path, document)
        assert main(["simulate", str(path)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("layout, edit, field", [
        ("dense", lambda doc: perturb_first_entry(doc["unitary"]), "'unitary'"),
        ("factored", lambda doc: perturb_first_entry(doc["span_basis"]), "'span_basis'"),
        ("factored", lambda doc: perturb_first_entry(doc["unitary"]), "'unitary'"),
        ("dense", product_second_target, "'targets'"),
        ("factored", product_second_target, "'targets'"),
    ], ids=["dense-not-unitary", "basis-not-isometric", "factored-not-unitary",
            "dense-targets-not-fixed-reducing", "factored-targets-not-fixed-reducing"])
    def test_invalid_masker_file_is_input_error(self, tmp_path, capsys, layout, edit, field):
        path, document = saved(tmp_path, overlap_pair_masker(), layout)
        edit(document)
        rewrite(path, document)
        assert main(["simulate", str(path)]) == 2
        assert field in capsys.readouterr().err

    def test_short_dense_unitary_is_rejected_before_a_d_by_d_allocation(self, tmp_path):
        # version 1 has Q = I: a file of ~60 kB must not make the loader allocate 8 D^2 bytes
        d = 40
        document = masker_to_json(build_deterministic([basis_state(d, 0), basis_state(d, 1)]))
        del document["version"], document["span_basis"]
        document["unitary"] = [[[0.0, 0.0]] * d ** 2]  # one row of the dense D x D matrix
        path = tmp_path / "short.json"
        rewrite(path, document)
        tracemalloc.start()
        try:
            with pytest.raises(fileio.FileFormatError, match="'unitary'"):
                load_masker(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < d ** 4

    def test_unknown_version_is_input_error(self, tmp_path, capsys):
        path, document = saved(tmp_path, overlap_pair_masker(), "factored")
        document["version"] = 3
        rewrite(path, document)
        assert main(["simulate", str(path)]) == 2
        assert "'version'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, field", [
        ("ancilla_index", 2, "ancilla_index"),
        ("ancilla_index", -1, "ancilla_index"),
        ("ancilla_index", 0.0, "ancilla_index"),
        ("ancilla_index", True, "ancilla_index"),
        ("probe_dim", 1, "probe_dim"),
        ("probe_dim", 3, "probe_dim"),
        ("probe_dim", "3", "probe_dim"),
        ("probe_dim", 3.0, "probe_dim"),
        ("gammas", None, "gammas"),
        ("gammas", [0.1], "gammas"),
        ("gammas", [True, 0.2], "gammas"),
        ("gammas", [0, 0.2], "gammas"),
        ("gammas", [1.5, 0.2], "gammas"),
        ("dims", [2, 2], "dims"),
        ("dims", [2, 3, 3], "dims"),
        ("inputs.dims", [3], "inputs.states[0]"),
        ("inputs.dims", [1, 2], "inputs.dims"),
        ("version", 0, "version"),
        ("version", "2", "version"),
        ("version", 2.0, "version"),
    ], ids=["ancilla-out-of-range", "ancilla-negative", "ancilla-float", "ancilla-true",
            "probe-short", "probe-long", "probe-string", "probe-float", "gammas-missing",
            "gammas-one-entry", "gammas-true", "gammas-zero", "gammas-above-one",
            "dims-without-probe", "dims-unequal", "inputs-dims-length", "inputs-dims-bipartite",
            "version-zero", "version-string", "version-float"])
    def test_edited_field_is_input_error(self, tmp_path, capsys, key, value, field):
        path, document = saved(tmp_path, overlap_pair_masker(), "factored")
        *parents, name = key.split(".")
        owner = document
        for parent in parents:
            owner = owner[parent]
        if value is None:
            del owner[name]
        else:
            owner[name] = value
        rewrite(path, document)
        assert main(["simulate", str(path)]) == 2
        assert f"field '{field}'" in capsys.readouterr().err

    def test_identity_unitary_loads_and_masks_nothing(self, tmp_path, capsys):
        path, document = saved(
            tmp_path, build_deterministic([basis_state(3, k) for k in range(3)]), "factored")
        size = len(document["unitary"])
        document["unitary"] = [[[float(i == j), 0.0] for j in range(size)] for i in range(size)]
        rewrite(path, document)
        # W = I makes U = I: a valid unitary, so the file loads, but no input is masked
        assert main(["simulate", str(path), "--state", "1"]) == 0
        fidelity = re.search(r"^fidelity to target: (\S+)$", capsys.readouterr().out, re.M)
        assert float(fidelity.group(1)) < 0.5

    def test_dense_file_simulates_like_factored_and_resaves(self, tmp_path, capsys):
        masker = build_probabilistic(
            [basis_state(3, 0), StateVector(np.array([0.6, 0.8, 0.0])), basis_state(3, 2)],
            cyclic_targets(3, 3),
            [0.3, 0.2, 0.4],
        )
        factored, _ = saved(tmp_path, masker, "factored")
        dense, document = saved(tmp_path, masker, "dense")
        printed = []
        for path in (factored, dense):
            assert main(["simulate", str(path)]) == 0
            printed.append(capsys.readouterr().out.splitlines())
        # everything but the deviation prints identically: the marginals' rounding
        # dust, ~1e-16, depends on how U is applied and stays below the printed digits
        assert printed[0][:-1] == printed[1][:-1]
        for lines in printed:
            assert lines[-1].startswith("cross-state marginal deviation")
            assert float(lines[-1].split(":")[1]) <= 1e-12
        loaded = load_masker(dense)
        assert np.array_equal(loaded.unitary.span_basis, np.eye(masker.unitary.dim))
        assert verify_masking(loaded).passed
        resaved = tmp_path / "resaved.json"
        save_masker(loaded, resaved)
        assert_resaved_as_version_2(json.loads(resaved.read_text()), document)
        # D = 36 > 2n: the re-saved file loads and simulates as the version-1 file does
        assert verify_masking(load_masker(resaved)).passed
        assert main(["simulate", str(resaved)]) == 0
        assert capsys.readouterr().out.splitlines() == printed[1]

    def test_file_size_is_linear_in_dimension(self, tmp_path):
        def size(d, n):
            tilted = (np.eye(d) + 0.2 * np.roll(np.eye(d), 1, axis=1))[:n]
            inputs = [StateVector(row / np.linalg.norm(row)) for row in tilted]
            masker = build_probabilistic(inputs, cyclic_targets(n, d), np.full(n, 0.05))
            assert masker.unitary.dim == 2 * d * d
            path = tmp_path / f"masker-{d}-{n}.json"
            save_masker(masker, path)
            return path.stat().st_size

        # (d, n) = (8, 5) is D = 128; at n = 4, D grows 4x from (4, 4) to (8, 4)
        assert size(8, 5) < 200_000
        assert size(8, 4) / size(4, 4) < 1.5 * 4

    def test_file_with_the_earlier_probe_simulates_as_written(self, capsys):
        assert json.loads(LEGACY_MASKER.read_text())["probe_dim"] == 3
        assert main(["simulate", str(LEGACY_MASKER)]) == 0
        assert capsys.readouterr().out == LEGACY_SIMULATE.read_text()

    @pytest.mark.parametrize("edit, named", [
        (lambda document: document.__setitem__("probe_dim", 2), "field 'probe_dim'"),
        (lambda document: document["dims"].__setitem__(2, 2), "dims[2] = 2"),
        (lambda document: document.__setitem__("span_basis", document["span_basis"][:18]),
         "field 'span_basis'"),
    ], ids=["probe_dim", "dims", "span_basis-rows"])
    def test_probe_sizes_that_disagree_are_input_error(self, tmp_path, capsys, edit, named):
        # probe_dim, dims[2] and the operator's D / d^2 are 3 in the file; each edit changes one
        document = json.loads(LEGACY_MASKER.read_text())
        edit(document)
        path = tmp_path / "masker.json"
        rewrite(path, document)
        assert main(["simulate", str(path)]) == 2
        assert named in capsys.readouterr().err

    def test_indented_file_from_earlier_versions_loads(self, tmp_path):
        masker = build_probabilistic(
            [basis_state(2, 0), StateVector(np.array([INV2, INV2]))],
            cyclic_targets(2, 2),
            [0.05, 0.15],
        )
        legacy = tmp_path / "legacy.json"
        legacy.write_text(json.dumps(masker_to_json(masker), indent=1) + "\n")
        loaded = load_masker(legacy)
        assert np.array_equal(bits(dense(loaded.unitary)), bits(dense(masker.unitary)))
        assert np.array_equal(loaded.gammas, masker.gammas)
        assert verify_masking(loaded) == verify_masking(masker)
        compact = tmp_path / "compact.json"
        save_masker(loaded, compact)
        assert compact.read_text().count("\n") == 1
        assert compact.stat().st_size < legacy.stat().st_size


def test_pipeline_never_forms_the_dense_unitary(
    overlap_pair_file, basis_pair_file, tmp_path, monkeypatch
):
    # forming a dense U means applying U to D columns; the pipeline applies it to its n = 2 inputs
    apply, widths = Operator.apply, []

    def narrow(self, vectors):
        widths.append(1 if np.ndim(vectors) == 1 else np.shape(vectors)[1])
        assert widths[-1] <= 2, f"masker unitary applied to {widths[-1]} columns"
        return apply(self, vectors)

    monkeypatch.setattr(Operator, "apply", narrow)
    out_path = tmp_path / "masker.json"
    for build in (["mask-prob", overlap_pair_file, "--target-overlap", "0", "--maximize"],
                  ["mask-det", basis_pair_file]):
        assert main([*build, "--out", str(out_path)]) == 0
        assert main(["simulate", str(out_path)]) == 0
    assert widths


def python(*args, cwd=None) -> subprocess.CompletedProcess:
    """A child interpreter that imports this checkout's qmask."""
    src = str(Path(qmask.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=60)


def test_cli_import_loads_no_scipy():
    code = ("import qmask.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    completed = python("-c", code)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"


def test_cli_import_loads_only_what_numpy_argparse_and_json_load():
    # every CLI process pays for each module it imports (logging alone costs a few
    # milliseconds, dataclasses and the code it generates about 8), so qmask.cli adds
    # its own modules and __future__
    code = "import sys, {}; print(' '.join(sorted(sys.modules)))"
    loaded = []
    for imports in ("numpy, argparse, json", "qmask.cli"):
        completed = python("-c", code.format(imports))
        assert completed.returncode == 0, completed.stderr
        loaded.append(set(completed.stdout.split()))
    base, cli = loaded
    extra = {name for name in cli - base
             if name != "__future__"
             and name.split(".")[0] != "qmask"}
    assert extra == set()
    assert "qmask.cli" in cli


def test_package_import_loads_no_numpy_and_resolves_every_name():
    # a bare import qmask leaves numpy to __main__.run, after it turned the collector off
    package = Path(qmask.__file__).parent
    submodules = sorted(path.stem for path in package.glob("*.py") if not path.stem.startswith("_"))
    code = ("import sys, qmask; print('numpy' in sys.modules); "
            f"names = qmask.__all__ + {submodules!r}; "
            "print([name for name in names if not hasattr(qmask, name)]); "
            "print(sorted(set(names) - set(dir(qmask)))); "
            f"print(all(getattr(qmask, m) is sys.modules['qmask.' + m] for m in {submodules!r})); "
            "print(hasattr(qmask, 'no_such_name'))")
    completed = python("-c", code)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split("\n")[:5] == ["False", "[]", "[]", "True", "False"]


def test_cli_import_loads_every_module_the_benchmark_traces():
    # the benchmark's recorder reads sys.modules for each traced module right after
    # importing qmask.cli, so a module cli imported lazily would fail every traced child
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    code = ("import importlib.util, sys; "
            f"spec = importlib.util.spec_from_file_location('perfbench_spans', {str(path)!r}); "
            "spans = importlib.util.module_from_spec(spec); spec.loader.exec_module(spans); "
            "import qmask.cli; "
            "print(sorted({m for m, _ in spans.TRACED_FUNCTIONS.values()} - set(sys.modules))); "
            "spans.Recorder().install(0)")
    completed = python("-c", code)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"


class TestProcessEntry:
    def test_run_turns_the_collector_off_before_numpy_loads(self, overlap_pair_file, tmp_path):
        # the imports' allocations would trigger dozens of collections that find no garbage
        out = str(tmp_path / "masker.json")
        assert main(["mask-prob", overlap_pair_file, "--target-overlap", "0", "--maximize",
                     "--out", out]) == 0
        code = ("import gc, sys; from qmask.__main__ import run; "
                "collections = []; "
                "gc.callbacks.append(lambda phase, info: collections.append(phase)); "
                "numpy_loaded = 'numpy' in sys.modules; "
                f"sys.argv = ['qmask', 'simulate', {out!r}]; code = run(); "
                "print(numpy_loaded, len(collections), gc.isenabled(), "
                "gc.get_freeze_count() > 0, code)")
        completed = python("-c", code)
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.splitlines()[-1] == "False 0 False True 0"

    def test_process_prints_what_main_prints(self, overlap_pair_file, tmp_path, capsys,
                                             monkeypatch):
        monkeypatch.chdir(tmp_path)
        runs = (["mask-prob", overlap_pair_file, "--target-overlap", "0", "--maximize",
                 "--out", "masker.json"],
                ["simulate", "masker.json"])
        expected = []
        for argv in runs:
            assert main(argv) == 0
            expected.append(capsys.readouterr().out)
        written = (tmp_path / "masker.json").read_bytes()
        for argv, out in zip(runs, expected):
            completed = python("-m", "qmask", *argv, cwd=tmp_path)
            assert (completed.returncode, completed.stderr) == (0, "")
            assert completed.stdout == out
        assert (tmp_path / "masker.json").read_bytes() == written

    def test_input_error_exits_two_with_its_message(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert main(["simulate", missing]) == 2
        message = capsys.readouterr().err
        assert missing in message
        completed = python("-m", "qmask", "simulate", missing)
        assert (completed.returncode, completed.stdout, completed.stderr) == (2, "", message)

    def test_main_leaves_the_collector_alone(self, overlap_pair_file, tmp_path, capsys):
        # a frozen heap is never collected again, so only the process exit may freeze it
        frozen, enabled = gc.get_freeze_count(), gc.isenabled()
        out = str(tmp_path / "masker.json")
        assert main(["mask-prob", overlap_pair_file, "--target-overlap", "0",
                     "--maximize", "--out", out]) == 0
        assert main(["simulate", out]) == 0
        assert main(["simulate", str(tmp_path / "missing.json")]) == 2
        assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)

    def test_script_runs_the_function_python_m_runs(self):
        # a text match, as tomllib is not in every supported Python
        root = Path(__file__).resolve().parents[1]
        scripts = re.findall(r'^qmask = "qmask\.__main__:(\w+)"$',
                             (root / "pyproject.toml").read_text(encoding="utf-8"), re.M)
        assert len(scripts) == 1
        entry = Path(qmask.__file__).with_name("__main__.py").read_text(encoding="utf-8")
        assert re.findall(r"^    raise SystemExit\((\w+)\(\)\)$", entry, re.M) == scripts
        assert callable(getattr(importlib.import_module("qmask.__main__"), scripts[0]))


def test_exports_resolve_without_duplicates():
    assert len(set(qmask.__all__)) == len(qmask.__all__)
    for name in qmask.__all__:
        getattr(qmask, name)


def test_dir_lists_every_export_and_submodule():
    package = Path(qmask.__file__).parent
    submodules = {path.stem for path in package.glob("*.py") if not path.stem.startswith("_")}
    assert {*qmask.__all__, *submodules} <= set(dir(qmask))


def benchmark_spans():
    """The benchmark's span recorder module, loaded from its file without changing it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def recorded_spans(run) -> set[str]:
    """Names of the spans the benchmark's recorder sees while ``run()`` calls the library."""
    recorder = benchmark_spans().Recorder()
    recorder.install(0)
    try:
        run()
    finally:
        recorder.uninstall()
    return {span[0] for span in recorder.spans}


def test_traced_functions_resolve():
    # the benchmark traces these by name; a rename would silently zero its metrics
    spans = benchmark_spans()
    for module, attribute in spans.TRACED_FUNCTIONS.values():
        assert callable(getattr(importlib.import_module(module), attribute, None)), attribute
    assert callable(Operator.__dict__.get("is_unitary"))


def test_cli_pipeline_records_every_traced_span(
    overlap_pair_file, basis_pair_file, tmp_path, capsys
):
    # a build that stopped calling a traced function would read 0 in its benchmark metric
    targets_path = write_state_set(
        tmp_path / "targets.json", (2, 2), [s.amplitudes for s in cyclic_targets(2, 2).states])
    prob_path, det_path = str(tmp_path / "prob.json"), str(tmp_path / "det.json")
    codes = []

    def pipeline():
        codes.append(main(["mask-prob", overlap_pair_file, "--maximize", "--targets",
                           targets_path, "--out", prob_path]))
        codes.append(main(["mask-det", basis_pair_file, "--out", det_path]))
        codes.extend(main(["simulate", path]) for path in (prob_path, det_path))

    recorded = recorded_spans(pipeline)
    capsys.readouterr()
    assert codes == [0, 0, 0, 0]
    spans = benchmark_spans()
    assert recorded >= {*spans.TRACED_FUNCTIONS, spans.IS_UNITARY_SPAN}


def test_optimize_sweep_path_records_its_spans():
    from qmask import fixed_reducing, hilbert, optimizer

    inputs = [basis_state(3, 0), StateVector(np.array([0.6, 0.8, 0.0])), basis_state(3, 2)]
    target_states = cyclic_targets(3, 3).states

    def sweep_operation():
        a, x = hilbert.gram(inputs), hilbert.gram(target_states)
        gammas, _ = optimizer.maximize_general(a, x)
        assert optimizer.feasible(a, x, gammas)[0]
        targets = fixed_reducing.from_states(target_states)
        assert masking.verify_masking(masking.build_probabilistic(inputs, targets, gammas)).passed

    assert recorded_spans(sweep_operation) >= {
        "hilbert.hermitian_sqrt", "hilbert.unitary_completion", "hilbert.is_unitary",
        "hilbert.psd_check", "masker.simulate", "hilbert.partial_trace",
    }


def test_masker_operator_check_is_the_traced_method(tmp_path, monkeypatch):
    # the benchmark times Operator.is_unitary; a masker operator of another type, or a
    # build or load that checks it some other way, would zero that metric silently
    calls = []
    is_unitary = Operator.is_unitary
    monkeypatch.setattr(Operator, "is_unitary", lambda self: calls.append(self) or is_unitary(self))
    masker = overlap_pair_masker()
    assert type(masker.unitary) is Operator
    assert len(calls) == 1
    path = tmp_path / "masker.json"
    save_masker(masker, path)
    load_masker(path)
    assert len(calls) == 2


def test_benchmark_library_reads_resolve():
    # the benchmark also calls the library in-process; a rename would fail its operations
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    modules = {"fileio", "fixed_reducing", "hilbert", "masker", "optimizer"}
    module_reads, report_reads = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                module_reads.add((node.value.id, node.attr))
            elif node.value.id == "report":
                report_reads.add(node.attr)
    assert module_reads and report_reads
    for module, attribute in sorted(module_reads):
        assert hasattr(importlib.import_module(f"qmask.{module}"), attribute), (module, attribute)
    fields = set(masking.MaskingReport._fields)
    assert report_reads <= fields, report_reads - fields
