import ast
import dataclasses
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import dense
import qmask
from qmask import fileio, masker as masking
from qmask.cli import main
from qmask.fileio import (
    load_masker, load_state_set, masker_to_json, save_masker, save_state_set,
)
from qmask.fixed_reducing import cyclic_targets, targets_with_overlap
from qmask.hilbert import NORM_TOL, Operator, StateVector, basis_state
from qmask.masker import build_deterministic, build_probabilistic, verify_masking
from qmask.optimizer import max_prob_two

INV2 = 1.0 / np.sqrt(2)
# floats whose repr round trip is easy to break: signed zero, subnormal, near overflow, inexact sum
AWKWARD = [-0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1 + 0.2]


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
            return dataclasses.replace(built, unitary=Operator(identity, identity))

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


class TestSimulate:
    def test_bad_index_is_input_error(self, basis_pair_file, tmp_path, capsys):
        masker_path = tmp_path / "masker.json"
        assert main(["mask-det", basis_pair_file, "--out", str(masker_path)]) == 0
        capsys.readouterr()
        assert main(["simulate", str(masker_path), "--state", "99"]) == 2
        assert "99" in capsys.readouterr().err

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
        assert calls == [(9 * 4, 3)]


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

    def test_state_set_round_trip_is_bit_exact(self, tmp_path):
        third = np.sqrt(1.0 - (0.1 + 0.2) ** 2)
        vector = complex_array([-0.0, 0.1 + 0.2, -5e-324], [5e-324, -0.0, third])
        path = tmp_path / "states.json"
        save_state_set(path, (3,), [vector])
        dims, vectors = load_state_set(path)
        assert dims == (3,)
        assert np.array_equal(bits(vectors[0]), bits(vector))

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
            assert masker.unitary.dim == d * d * (n + 1)
            path = tmp_path / f"masker-{d}-{n}.json"
            save_masker(masker, path)
            return path.stat().st_size

        # (d, n) = (8, 5) is D = 384; at n = 4, D grows 4x from (4, 4) to (8, 4)
        assert size(8, 5) < 200_000
        assert size(8, 4) / size(4, 4) < 1.5 * 4

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


def test_cli_import_loads_no_scipy():
    src = str(Path(qmask.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import qmask.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    completed = subprocess.run([sys.executable, "-c", code], env=env,
                               capture_output=True, text=True, timeout=60, check=True)
    assert completed.stdout.strip() == "[]"


def test_exports_resolve_without_duplicates():
    assert len(set(qmask.__all__)) == len(qmask.__all__)
    for name in qmask.__all__:
        getattr(qmask, name)


def test_traced_functions_resolve():
    # the benchmark traces these by name; a rename would silently zero its metrics
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, attribute in spans.TRACED_FUNCTIONS.values():
        assert callable(getattr(importlib.import_module(module), attribute, None)), attribute
    assert callable(Operator.__dict__.get("is_unitary"))


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
    fields = {field.name for field in dataclasses.fields(masking.MaskingReport)}
    assert report_reads <= fields, report_reads - fields
