"""End-to-end tests for the command-line interface.

Commands are exercised in-process through ``entrypoint`` so exit codes,
stdout, and stderr can be asserted exactly; subprocess tests cover the
``python -m vbselect`` wiring and training under two BLAS thread counts.
"""

import contextlib
import errno
import io
import json
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vbselect
from vbselect import calibration, cli, dataset, inference, selection
from vbselect.calibration import ece
from vbselect.cli import entrypoint, role_seed
from vbselect.dataset import (
    FeatureDataset,
    SplitRatios,
    SyntheticConfig,
    generate_synthetic,
    load_csv,
    save_csv,
    smote_oversample,
    stratified_split,
    stratified_split_indices,
)
from vbselect.training import LayerInitConfig, TrainConfig, save_trace_csv, train
from vbselect.vbll import load_layer, save_layer


def run_cli(capsys, argv):
    code = entrypoint(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_clean_success(code, err):
    assert code == 0
    assert err == ""


def assert_single_line_error(code, err, expected_code):
    assert code == expected_code
    assert err.startswith("error:")
    assert err.endswith("\n")
    assert err.count("\n") == 1


def child_env(**extra):
    """os.environ for a `python -m vbselect` child, plus `extra`.

    The child must import the same vbselect as this process, whether that
    came from an install, PYTHONPATH or pytest's pythonpath.
    """
    src = os.path.dirname(os.path.dirname(vbselect.__file__))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""), **extra)


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def write_overflow_csv(pipeline, tmp_path, row):
    """The validation split with one row whose class-0 logit overflows.

    The row lies along the signs of class 0's weight means at 1.7e308, a
    legal CSV value, so its logit is inf under the first posterior draw.
    """
    val = load_csv(pipeline["val"])
    features = val.features.copy()
    features[row] = 1.7e308 * np.sign(load_layer(pipeline["model"]).weight_mu[0])
    path = os.path.join(tmp_path, "overflow.csv")
    save_csv(FeatureDataset(features, val.labels, val.num_classes), path)
    return path


def assert_failed_rerun_leaves_one_runs_outputs(capsys, monkeypatch, tmp_path,
                                                argv_of, last, how):
    """Fail each output of a second run in turn; what is left is one run's.

    argv_of(run, out) is the command line of run 0 or run 1 (another seed or
    threshold) writing into the directory out, where it writes nothing else.
    Run 1 fails on its k-th output, where a directory stands (`how` is
    "directory") or whose commit fails for want of space ("replace"). Every
    file left must then equal the same run's copy, and `last`, the file the
    command writes last, must be absent.
    """
    copies = []
    for run in (0, 1):
        out = os.path.join(tmp_path, f"run{run}")
        os.mkdir(out)
        assert_clean_success(*run_cli(capsys, argv_of(run, out))[::2])
        copies.append({name: read_bytes(os.path.join(out, name))
                       for name in os.listdir(out)})
    assert copies[0].keys() == copies[1].keys() and last in copies[0]
    real_replace = os.replace
    for k, name in enumerate(sorted(copies[0])):
        out = os.path.join(tmp_path, f"fail{k}")
        os.mkdir(out)
        assert_clean_success(*run_cli(capsys, argv_of(0, out))[::2])
        target = os.path.join(out, name)
        with monkeypatch.context() as patch:
            if how == "directory":
                os.unlink(target)
                os.mkdir(target)
            else:
                def replace(src, dst):
                    if os.fspath(dst) == target:
                        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), dst)
                    real_replace(src, dst)

                patch.setattr(os, "replace", replace)
            code, _, err = run_cli(capsys, argv_of(1, out))
        assert_single_line_error(code, err, 2)
        left = {entry: read_bytes(os.path.join(out, entry))
                for entry in os.listdir(out) if os.path.isfile(os.path.join(out, entry))}
        runs = {0, 1}
        for entry, data in left.items():
            runs &= {run for run in (0, 1) if copies[run].get(entry) == data}
        assert runs, f"failing {name}: {sorted(left)} mix two runs"
        assert last not in left


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen -> split -> train once; many tests share the artifacts."""
    root = tmp_path_factory.mktemp("pipeline")
    data = os.path.join(root, "full.csv")
    splits = os.path.join(root, "splits")
    model = os.path.join(root, "model.json")
    trace = os.path.join(root, "trace.csv")
    assert entrypoint([
        "gen", "--classes", "3", "--dim", "8", "--per-class", "80",
        "--separation", "3.0", "--noise", "1.0", "--seed", "7", "--out", data,
    ]) == 0
    assert entrypoint([
        "split", "--in", data, "--seed", "7", "--out", splits,
    ]) == 0
    assert entrypoint([
        "train",
        "--train", os.path.join(splits, "train.csv"),
        "--val", os.path.join(splits, "val.csv"),
        "--epochs", "12", "--batch-size", "32", "--seed", "7",
        "--model-out", model, "--trace-out", trace,
    ]) == 0
    return {
        "root": root,
        "data": data,
        "splits": splits,
        "model": model,
        "trace": trace,
        "val": os.path.join(splits, "val.csv"),
    }


class TestGen:
    def test_writes_loadable_csv(self, capsys, tmp_path):
        out = os.path.join(tmp_path, "data.csv")
        code, _, err = run_cli(capsys, [
            "gen", "--classes", "3", "--dim", "4", "--per-class", "20",
            "--seed", "5", "--out", out,
        ])
        assert_clean_success(code, err)
        ds = load_csv(out)
        assert ds.n_samples == 60
        assert ds.feature_dim == 4
        assert ds.num_classes == 3

    def test_per_class_list(self, capsys, tmp_path):
        out = os.path.join(tmp_path, "data.csv")
        code, _, err = run_cli(capsys, [
            "gen", "--classes", "3", "--dim", "4",
            "--per-class", "10,20,30", "--seed", "1", "--out", out,
        ])
        assert_clean_success(code, err)
        assert tuple(load_csv(out).class_counts()) == (10, 20, 30)

    def test_zero_count_names_class(self, capsys, tmp_path):
        out = os.path.join(tmp_path, "data.csv")
        code, _, err = run_cli(capsys, [
            "gen", "--classes", "3", "--dim", "4",
            "--per-class", "10,0,30", "--seed", "1", "--out", out,
        ])
        assert_single_line_error(code, err, 1)
        assert "class 1" in err

    def test_unparseable_per_class_rejected(self, capsys, tmp_path):
        out = os.path.join(tmp_path, "data.csv")
        code, _, err = run_cli(capsys, ["gen", "--per-class", "3,x", "--out", out])
        assert_single_line_error(code, err, 1)
        assert err == "error: cannot parse class counts from '3,x'\n"
        assert not os.path.exists(out)

    def test_same_seed_byte_identical(self, capsys, tmp_path):
        paths = [os.path.join(tmp_path, name) for name in ("a.csv", "b.csv")]
        for path in paths:
            code, _, err = run_cli(capsys, [
                "gen", "--classes", "2", "--dim", "3", "--per-class", "15",
                "--seed", "9", "--out", path,
            ])
            assert_clean_success(code, err)
        assert read_bytes(paths[0]) == read_bytes(paths[1])

    def test_different_seed_differs(self, capsys, tmp_path):
        paths = [os.path.join(tmp_path, name) for name in ("a.csv", "b.csv")]
        for seed, path in zip(("1", "2"), paths):
            run_cli(capsys, [
                "gen", "--classes", "2", "--dim", "3", "--per-class", "15",
                "--seed", seed, "--out", path,
            ])
        assert read_bytes(paths[0]) != read_bytes(paths[1])

    def test_unwritable_path_is_io_error(self, capsys, tmp_path):
        out = os.path.join(tmp_path, "missing_dir", "data.csv")
        code, _, err = run_cli(capsys, [
            "gen", "--classes", "2", "--dim", "3", "--per-class", "5",
            "--out", out,
        ])
        assert_single_line_error(code, err, 2)

    def test_missing_required_option(self, capsys):
        code, _, err = run_cli(capsys, ["gen", "--classes", "3"])
        assert_single_line_error(code, err, 1)
        assert "out" in err


def write_options_file(path, args):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(arg + "\n" for arg in args))


class TestOptionsFiles:
    """An @FILE argument stands for the file's lines, one argument per line."""

    GEN = ["--classes", "4", "--dim", "6", "--per-class", "12", "--seed", "3"]

    def test_file_supplies_options(self, capsys, tmp_path):
        options = os.path.join(tmp_path, "gen.txt")
        write_options_file(options, self.GEN)
        from_file, from_flags = (os.path.join(tmp_path, f"{name}.csv")
                                 for name in ("file", "flags"))
        code, _, err = run_cli(capsys, ["gen", "@" + options, "--out", from_file])
        assert_clean_success(code, err)
        code, _, err = run_cli(capsys, ["gen", *self.GEN, "--out", from_flags])
        assert_clean_success(code, err)
        assert read_bytes(from_file) == read_bytes(from_flags)
        assert load_csv(from_file).feature_dim == 6

    def test_byte_order_mark_is_skipped(self, capsys, tmp_path):
        options = os.path.join(tmp_path, "gen.txt")
        write_options_file(options, ["\ufeff" + self.GEN[0], *self.GEN[1:]])
        assert read_bytes(options).startswith(b"\xef\xbb\xbf--classes")
        from_file, from_flags = (os.path.join(tmp_path, f"{name}.csv")
                                 for name in ("file", "flags"))
        code, _, err = run_cli(capsys, ["gen", "@" + options, "--out", from_file])
        assert_clean_success(code, err)
        code, _, err = run_cli(capsys, ["gen", *self.GEN, "--out", from_flags])
        assert_clean_success(code, err)
        assert read_bytes(from_file) == read_bytes(from_flags)

    @classmethod
    def command_args(cls, command, pipeline, out):
        """(options to keep in a file, output flags) for a run of command into out."""
        scoring = ["--model", pipeline["model"], "--data", pipeline["val"],
                   "--mc-samples", "4", "--seed", "3"]
        return {
            "gen": (cls.GEN, ["--out", os.path.join(out, "data.csv")]),
            "split": (["--in", pipeline["data"], "--train", "0.6", "--val", "0.2",
                       "--test", "0.2", "--seed", "3"], ["--out", out]),
            "balance": (["--in", pipeline["val"], "--target", "40", "--k-neighbors", "3",
                         "--seed", "3"], ["--out", os.path.join(out, "balanced.csv")]),
            "train": (["--train", os.path.join(pipeline["splits"], "train.csv"),
                       "--val", pipeline["val"], "--epochs", "2", "--batch-size", "32",
                       "--seed", "3"],
                      ["--model-out", os.path.join(out, "model.json"),
                       "--trace-out", os.path.join(out, "trace.csv")]),
            "eval": ([*scoring, "--threshold", "0.6", "--measure", "entropy",
                      "--save-samples"], ["--out", out]),
            "sweep": ([*scoring, "--grid", "0.5,0.7"],
                      ["--out", os.path.join(out, "curve.csv")]),
            "gradcheck": (["--classes", "2", "--dim", "3", "--seed", "1"], []),
        }[command]

    @pytest.mark.parametrize("command", ["split", "balance", "train", "eval", "sweep"])
    def test_every_command_reads_a_file(self, capsys, pipeline, tmp_path, command):
        written = []
        for name in ("file", "flags"):
            out = os.path.join(tmp_path, name)
            os.mkdir(out)
            options, outputs = self.command_args(command, pipeline, out)
            if name == "file":
                write_options_file(os.path.join(tmp_path, "options.txt"), options)
                options = ["@" + os.path.join(tmp_path, "options.txt")]
            code, _, err = run_cli(capsys, [command, *options, *outputs])
            assert_clean_success(code, err)
            written.append({entry: read_bytes(os.path.join(out, entry))
                            for entry in os.listdir(out)})
        assert written[0] and written[0] == written[1]

    @pytest.mark.parametrize("flags_first,dim", [(False, 9), (True, 6)],
                             ids=["file_then_flag", "flag_then_file"])
    def test_later_value_wins(self, capsys, tmp_path, flags_first, dim):
        options = os.path.join(tmp_path, "gen.txt")
        write_options_file(options, self.GEN)
        out = os.path.join(tmp_path, "data.csv")
        args = ["@" + options, "--dim", "9"]
        if flags_first:
            args = args[1:] + args[:1]
        code, _, err = run_cli(capsys, ["gen", *args, "--out", out])
        assert_clean_success(code, err)
        assert load_csv(out).feature_dim == dim

    def test_lines_are_taken_literally(self, capsys, tmp_path, monkeypatch):
        # An @ line inside a file is a plain argument, here an output path;
        # on the command line, ./@name is the way to give such a path.
        monkeypatch.chdir(tmp_path)
        write_options_file("gen.txt", [*self.GEN, "--out", "@inner.csv"])
        code, _, err = run_cli(capsys, ["gen", "@gen.txt"])
        assert_clean_success(code, err)
        code, _, err = run_cli(capsys, ["gen", *self.GEN, "--out", "./@outer.csv"])
        assert_clean_success(code, err)
        assert read_bytes("@inner.csv") == read_bytes("@outer.csv")

    def test_blank_line_is_an_empty_argument(self, capsys, tmp_path):
        options = os.path.join(tmp_path, "gen.txt")
        write_options_file(options, [*self.GEN, ""])
        out = os.path.join(tmp_path, "data.csv")
        code, _, err = run_cli(capsys, ["gen", "@" + options, "--out", out])
        assert_single_line_error(code, err, 1)
        assert err == "error: unrecognized arguments: \n"
        assert not os.path.exists(out)

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        missing = os.path.join(tmp_path, "missing.txt")
        code, _, err = run_cli(capsys, ["gen", "@" + missing, "--out", missing])
        assert_single_line_error(code, err, 2)
        assert missing in err

    def test_value_goes_through_the_flags_type(self, capsys, pipeline, tmp_path):
        options = os.path.join(tmp_path, "eval.txt")
        write_options_file(options, ["--mc-samples", "2.5"])
        out = os.path.join(tmp_path, "eval")
        code, _, err = run_cli(capsys, [
            "eval", "--model", pipeline["model"], "--data", pipeline["val"],
            "@" + options, "--out", out,
        ])
        assert_single_line_error(code, err, 1)
        assert err == "error: argument --mc-samples: invalid int value: '2.5'\n"
        assert not os.path.exists(out)

    MISTYPED = [
        ("gen", ["--classes", ""], "argument --classes: invalid int value: ''"),
        ("gen", ["--dim", "3.0"], "argument --dim: invalid int value: '3.0'"),
        ("gen", ["--seed", "true"], "argument --seed: invalid int value: 'true'"),
        ("gen", ["--noise", "true"], "argument --noise: invalid float value: 'true'"),
        ("gen", ["--separation", "4.0x"],
         "argument --separation: invalid float value: '4.0x'"),
        ("split", ["--train", "half"], "argument --train: invalid float value: 'half'"),
        ("balance", ["--k-neighbors", "2.5"],
         "argument --k-neighbors: invalid int value: '2.5'"),
        ("train", ["--epochs", "1.9"], "argument --epochs: invalid int value: '1.9'"),
        ("train", ["--lr", "fast"], "argument --lr: invalid float value: 'fast'"),
        ("train", ["--batch-size", ""], "argument --batch-size: invalid int value: ''"),
        ("eval", ["--ece-bins", "1.5"], "argument --ece-bins: invalid int value: '1.5'"),
        ("eval", ["--threshold", "high"],
         "argument --threshold: invalid float value: 'high'"),
        ("eval", ["--save-samples", "false"], "unrecognized arguments: false"),
        ("sweep", ["--mc-samples", "2.5"],
         "argument --mc-samples: invalid int value: '2.5'"),
        ("gradcheck", ["--h", "small"], "argument --h: invalid float value: 'small'"),
    ]

    @pytest.mark.parametrize("command,lines,message", MISTYPED, ids=[
        f"{command}-{lines[0].lstrip('-')}" for command, lines, _ in MISTYPED
    ])
    def test_mistyped_value_rejected(
        self, capsys, pipeline, tmp_path, command, lines, message
    ):
        # Each value in a file meets its flag's own type, whatever the command.
        options = os.path.join(tmp_path, "options.txt")
        write_options_file(options, lines)
        out = os.path.join(tmp_path, "out")
        os.mkdir(out)
        flags, outputs = self.command_args(command, pipeline, out)
        code, out_text, err = run_cli(capsys, [command, *flags, "@" + options, *outputs])
        assert_single_line_error(code, err, 1)
        assert err == f"error: {message}\n"
        assert out_text == ""
        assert os.listdir(out) == []

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_measure_outside_its_choices_rejected(
        self, capsys, pipeline, tmp_path, command
    ):
        # argparse's choices, not the library, reject the measure now. The
        # list of choices after the value is worded differently across Pythons.
        options = os.path.join(tmp_path, "options.txt")
        write_options_file(options, ["--measure", "variance"])
        out = os.path.join(tmp_path, "out")
        os.mkdir(out)
        flags, outputs = self.command_args(command, pipeline, out)
        code, _, err = run_cli(capsys, [command, *flags, "@" + options, *outputs])
        assert_single_line_error(code, err, 1)
        assert err.startswith("error: argument --measure: invalid choice: 'variance'")
        assert os.listdir(out) == []

    def test_config_option_is_gone(self, capsys, pipeline, tmp_path):
        out = os.path.join(tmp_path, "eval")
        code, _, err = run_cli(capsys, [
            "eval", "--model", pipeline["model"], "--data", pipeline["val"],
            "--config", "x.json", "--out", out,
        ])
        assert_single_line_error(code, err, 1)
        assert err == "error: unrecognized arguments: --config x.json\n"
        assert not os.path.exists(out)


class TestNegativeSeed:
    """A negative --seed is refused before any command reads or writes."""

    @pytest.mark.parametrize("command", [
        "gen", "split", "balance", "train", "eval", "sweep", "gradcheck",
    ])
    def test_one_error_line_and_no_output(self, capsys, pipeline, tmp_path, command):
        out = os.path.join(tmp_path, "out")
        os.mkdir(out)
        options, outputs = TestOptionsFiles.command_args(command, pipeline, out)
        code, stdout, err = run_cli(capsys, [command, *options, "--seed", "-1", *outputs])
        assert_single_line_error(code, err, 1)
        assert err == "error: argument --seed: must be nonnegative, got -1\n"
        assert stdout == ""
        assert os.listdir(out) == []

    def test_eval_keeps_an_earlier_runs_reports(self, capsys, pipeline, tmp_path):
        out = os.path.join(tmp_path, "report")
        argv = ["eval", "--model", pipeline["model"], "--data", pipeline["val"],
                "--mc-samples", "4", "--out", out]
        assert_clean_success(*run_cli(capsys, argv)[::2])
        before = {name: read_bytes(os.path.join(out, name)) for name in os.listdir(out)}
        code, _, err = run_cli(capsys, [*argv, "--seed", "-3"])
        assert_single_line_error(code, err, 1)
        assert err == "error: argument --seed: must be nonnegative, got -3\n"
        assert before and {
            name: read_bytes(os.path.join(out, name)) for name in os.listdir(out)
        } == before


class TestCsvErrorsNameFile:
    """load_csv's preamble and row errors name the file before the line."""

    @pytest.mark.parametrize("text,message", [
        ("# classes=x\nf0,label\n0.5,0\n", "line 1: bad class directive '# classes=x'"),
        ("# classes=1\nf0,label\n0.5,0\n", "line 1: declared class count must be at least 2"),
        ("f0,lbl\n0.5,0\n", "line 1: header must end with a 'label' column"),
        ("f1,label\n0.5,0\n", "line 1: feature columns must be named f0..f0"),
        ("f0,label\n0.5,0\n0.5,0,1\n", "line 3: expected 2 fields, got 3"),
        ("f0,label\n0.5,0\nx,1\n", "line 3: non-numeric feature value 'x'"),
        ("# classes=2\nf0,label\n0.5,0\ninf,1\n", "line 4: non-finite feature value 'inf'"),
        ("# classes=2\nf0,label\n0.5,0\nnan,1\n", "line 4: non-finite feature value 'nan'"),
        ("f0,label\n0.5,-1\n", "line 2: negative label -1"),
        ("# classes=2\nf0,label\n0.5,0\n0.5,2\n", "line 4: label 2 exceeds declared classes 2"),
        ("f0,label\n", "no data rows"),
        ("f0,label\n0.5,0\n0.25,0\n", "num_classes must be at least 2"),
        ("# classes=3\n", "missing header row"),
    ], ids=["directive", "class_count", "label_column", "feature_names", "fields",
            "non_numeric", "inf", "nan", "negative_label", "undeclared_label", "no_rows",
            "one_class", "directive_only"])
    def test_error_names_csv(self, capsys, pipeline, tmp_path, text, message):
        data = os.path.join(tmp_path, "bad.csv")
        with open(data, "w", encoding="utf-8") as handle:
            handle.write(text)
        out = os.path.join(tmp_path, "out")
        # eval reads a model and a CSV, so only the file name says which failed.
        code, _, err = run_cli(capsys, [
            "eval", "--model", pipeline["model"], "--data", data, "--out", out,
        ])
        assert_single_line_error(code, err, 1)
        assert err == f"error: {data}: {message}\n"
        assert not os.path.exists(out)


def test_defaults_match_library_configs(capsys, tmp_path):
    """A command run without hyperparameter flags uses the configs' defaults."""
    cli_csv, lib_csv = tmp_path / "cli.csv", tmp_path / "lib.csv"
    code, _, err = run_cli(capsys, [
        "gen", "--classes", "3", "--dim", "4", "--per-class", "30", "--out", str(cli_csv),
    ])
    assert_clean_success(code, err)
    save_csv(generate_synthetic(SyntheticConfig(3, 4, (30, 30, 30)),
                                seed=role_seed(0, "gen")), lib_csv)
    assert read_bytes(cli_csv) == read_bytes(lib_csv)

    splits = tmp_path / "splits"
    code, _, err = run_cli(capsys, ["split", "--in", str(cli_csv), "--out", str(splits)])
    assert_clean_success(code, err)
    parts = stratified_split(load_csv(lib_csv), SplitRatios(), seed=role_seed(0, "split"))
    for name, part in zip(("train", "val", "test"), parts):
        save_csv(part, tmp_path / f"lib_{name}.csv")
        assert read_bytes(splits / f"{name}.csv") == read_bytes(tmp_path / f"lib_{name}.csv")

    model, trace = tmp_path / "model.json", tmp_path / "trace.csv"
    code, _, err = run_cli(capsys, [
        "train", "--train", str(splits / "train.csv"), "--val", str(splits / "val.csv"),
        "--model-out", str(model), "--trace-out", str(trace),
    ])
    assert_clean_success(code, err)
    layer, lib_trace = train(
        load_csv(splits / "train.csv"), load_csv(splits / "val.csv"),
        LayerInitConfig(seed=role_seed(0, "init")), TrainConfig(seed=role_seed(0, "train")),
    )
    save_layer(layer, tmp_path / "lib_model.json")
    save_trace_csv(lib_trace, tmp_path / "lib_trace.csv")
    assert read_bytes(model) == read_bytes(tmp_path / "lib_model.json")
    assert read_bytes(trace) == read_bytes(tmp_path / "lib_trace.csv")


@pytest.mark.parametrize("command", ["split", "eval"])
def test_label_beyond_int64_names_line(capsys, pipeline, tmp_path, command):
    data = os.path.join(tmp_path, "big.csv")
    with open(data, "w", encoding="utf-8") as handle:
        handle.write(
            ",".join(f"f{j}" for j in range(8)) + ",label\n"
            + "0," * 8 + "0\n" + "0," * 8 + "99999999999999999999\n"
        )
    out = os.path.join(tmp_path, "out")
    argv = {
        "split": ["split", "--in", data, "--out", out],
        "eval": ["eval", "--model", pipeline["model"], "--data", data, "--out", out],
    }[command]
    code, _, err = run_cli(capsys, argv)
    assert_single_line_error(code, err, 1)
    assert "line 3: label 99999999999999999999 out of range" in err
    assert not os.path.exists(out)


class TestSplit:
    def test_default_ratios(self, capsys, pipeline, tmp_path):
        out = os.path.join(tmp_path, "splits")
        code, _, err = run_cli(capsys, [
            "split", "--in", pipeline["data"], "--seed", "3", "--out", out,
        ])
        assert_clean_success(code, err)
        sizes = {
            name: load_csv(os.path.join(out, f"{name}.csv")).n_samples
            for name in ("train", "val", "test")
        }
        assert sizes == {"train": 168, "val": 36, "test": 36}

    def test_explicit_ratios(self, capsys, pipeline, tmp_path):
        out = os.path.join(tmp_path, "splits")
        code, _, err = run_cli(capsys, [
            "split", "--in", pipeline["data"], "--train", "0.5",
            "--val", "0.25", "--test", "0.25", "--seed", "3", "--out", out,
        ])
        assert_clean_success(code, err)
        assert load_csv(os.path.join(out, "train.csv")).n_samples == 120

    def test_outputs_partition_input(self, capsys, pipeline, tmp_path):
        out = os.path.join(tmp_path, "splits")
        run_cli(capsys, [
            "split", "--in", pipeline["data"], "--seed", "3", "--out", out,
        ])
        with open(pipeline["data"], "r", encoding="utf-8") as handle:
            original = sorted(handle.read().splitlines()[2:])
        recombined = []
        for name in ("train", "val", "test"):
            with open(os.path.join(out, f"{name}.csv"), encoding="utf-8") as handle:
                recombined.extend(handle.read().splitlines()[2:])
        assert sorted(recombined) == original

    def test_small_class_fails_cleanly(self, capsys, tmp_path):
        bad = os.path.join(tmp_path, "bad.csv")
        with open(bad, "w", encoding="utf-8") as handle:
            handle.write("# classes=2\nf0,label\n0.5,0\n0.25,0\n0.75,0\n1.0,1\n")
        code, _, err = run_cli(capsys, [
            "split", "--in", bad, "--out", os.path.join(tmp_path, "splits"),
        ])
        assert_single_line_error(code, err, 1)
        assert "class 1" in err

    def test_missing_input_is_io_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, [
            "split", "--in", os.path.join(tmp_path, "nope.csv"),
            "--out", os.path.join(tmp_path, "splits"),
        ])
        assert_single_line_error(code, err, 2)

    @pytest.mark.parametrize("how", ["directory", "replace"])
    def test_failed_rerun_leaves_one_runs_outputs(
        self, capsys, monkeypatch, pipeline, tmp_path, how
    ):
        def argv_of(run, out):
            return ["split", "--in", pipeline["data"], "--seed", str(run), "--out", out]

        assert_failed_rerun_leaves_one_runs_outputs(
            capsys, monkeypatch, tmp_path, argv_of, "test.csv", how
        )


class TestBalance:
    @pytest.fixture()
    def imbalanced(self, capsys, tmp_path):
        path = os.path.join(tmp_path, "imbalanced.csv")
        code, _, err = run_cli(capsys, [
            "gen", "--classes", "3", "--dim", "4",
            "--per-class", "30,60,45", "--seed", "2", "--out", path,
        ])
        assert_clean_success(code, err)
        return path

    def test_default_target_equalizes_to_max(self, capsys, imbalanced, tmp_path):
        out = os.path.join(tmp_path, "balanced.csv")
        code, _, err = run_cli(capsys, [
            "balance", "--in", imbalanced, "--seed", "4", "--out", out,
        ])
        assert_clean_success(code, err)
        assert tuple(load_csv(out).class_counts()) == (60, 60, 60)

    def test_explicit_target(self, capsys, imbalanced, tmp_path):
        out = os.path.join(tmp_path, "balanced.csv")
        code, _, err = run_cli(capsys, [
            "balance", "--in", imbalanced, "--target", "80",
            "--seed", "4", "--out", out,
        ])
        assert_clean_success(code, err)
        assert tuple(load_csv(out).class_counts()) == (80, 80, 80)

    def test_target_below_current_rejected(self, capsys, imbalanced, tmp_path):
        code, _, err = run_cli(capsys, [
            "balance", "--in", imbalanced, "--target", "50",
            "--out", os.path.join(tmp_path, "balanced.csv"),
        ])
        assert_single_line_error(code, err, 1)

    def test_determinism(self, capsys, imbalanced, tmp_path):
        paths = [os.path.join(tmp_path, name) for name in ("a.csv", "b.csv")]
        for path in paths:
            run_cli(capsys, [
                "balance", "--in", imbalanced, "--seed", "6", "--out", path,
            ])
        assert read_bytes(paths[0]) == read_bytes(paths[1])


def quiet_cli(argv):
    """The exit code of one CLI run, its stdout and stderr discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return entrypoint(argv)


def same_arrays(a, b):
    return (a.num_classes == b.num_classes
            and a.features.tobytes() == b.features.tobytes()
            and a.labels.tobytes() == b.labels.tobytes())


CSV_EDGE_FEATURES = np.array([
    -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
    -1.7976931348623157e308,
])


@st.composite
def split_inputs(draw):
    """(dataset, seed): K classes of 4 to 12 rows in random order, features
    at random scales, in half the draws with about 15% edge values (-0.0,
    subnormals, the float64 extremes)."""
    k = draw(st.integers(2, 4))
    d = draw(st.integers(1, 4))
    counts = draw(st.lists(st.integers(4, 12), min_size=k, max_size=k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = sum(counts)
    features = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-300, 300, (n, d))
    edge = rng.random((n, d)) < draw(st.sampled_from([0.0, 0.15]))
    features = np.where(edge, rng.choice(CSV_EDGE_FEATURES, (n, d)), features)
    labels = rng.permutation(np.repeat(np.arange(k), counts))
    return FeatureDataset(features, labels, k), draw(st.integers(0, 2**16))


@settings(max_examples=60, deadline=None)
@given(case=split_inputs())
def test_split_and_balance_write_save_csv_bytes_of_library_parts(case):
    """On save_csv-written input, the copied rows are the bytes save_csv
    writes for the library's split and SMOTE datasets."""
    ds, seed = case
    with tempfile.TemporaryDirectory() as tmp:
        data, splits = os.path.join(tmp, "data.csv"), os.path.join(tmp, "splits")
        expected, balanced = os.path.join(tmp, "expected.csv"), os.path.join(tmp, "bal.csv")
        save_csv(ds, data)
        assert quiet_cli(["split", "--in", data, "--seed", str(seed), "--out", splits]) == 0
        parts = stratified_split(ds, SplitRatios(), seed=role_seed(seed, "split"))
        for name, part in zip(("train", "val", "test"), parts):
            save_csv(part, expected)
            assert read_bytes(os.path.join(splits, f"{name}.csv")) == read_bytes(expected)
        code = quiet_cli(["balance", "--in", os.path.join(splits, "train.csv"),
                          "--seed", str(seed), "--out", balanced])
        train_ds = parts[0]
        try:
            with np.errstate(all="ignore"):
                want = smote_oversample(
                    train_ds, (max(train_ds.class_counts()),) * train_ds.num_classes,
                    seed=role_seed(seed, "balance"),
                )
        except ValueError:  # a synthesized row overflowed to inf
            assert code == 1 and not os.path.exists(balanced)
            return
        assert code == 0
        save_csv(want, expected)
        assert read_bytes(balanced) == read_bytes(expected)


class TestRowsKeepTheirText:
    """split and balance copy each input row's text; only SMOTE rows are
    formatted, and the preamble is always the canonical one."""

    # CRLF line ends, no class directive, blank and whitespace-only lines,
    # and fields %.17g would write otherwise. Class 0 has 8 rows, 1 has 5
    # and 2 has 4, so balance synthesizes rows for classes 1 and 2.
    ROWS = [
        "1.0,1e0,0", " 2.5,+3,0", "3.50,-0,0", "4,.5,0", "5.0 ,6,+0", "6e0,7E0,0",
        "7,8.000,0", "8.0,9,0 ",
        "-1.0,1e1,1", "-2,2.0,1", " -3,3,1", "-4.5,+4,1", "-5,5e0, 1",
        "10.0,-10,2", "11,-11.0,2", "1.2e1,-12,2", "13,-13,2",
    ]

    @pytest.fixture()
    def hand_written(self, tmp_path):
        lines = ["f0,f1,label", *self.ROWS[:9], "", "   ", *self.ROWS[9:], ""]
        path = os.path.join(tmp_path, "hand.csv")
        with open(path, "wb") as handle:
            handle.write("\r\n".join(lines).encode("utf-8"))
        return path

    def test_split_copies_rows(self, capsys, hand_written, tmp_path):
        out = os.path.join(tmp_path, "splits")
        code, _, err = run_cli(capsys, ["split", "--in", hand_written, "--seed", "2",
                                        "--out", out])
        assert_clean_success(code, err)
        ds = load_csv(hand_written)
        indices = stratified_split_indices(ds, SplitRatios(), seed=role_seed(2, "split"))
        parts = stratified_split(ds, SplitRatios(), seed=role_seed(2, "split"))
        for name, sel, part in zip(("train", "val", "test"), indices, parts):
            path = os.path.join(out, f"{name}.csv")
            assert read_bytes(path).decode("utf-8") == "\n".join(
                ["# classes=3", "f0,f1,label", *(self.ROWS[i] for i in sel)]
            ) + "\n"
            assert same_arrays(load_csv(path), part)

    def test_balance_copies_rows_and_formats_synthetic_ones(
        self, capsys, hand_written, tmp_path
    ):
        out = os.path.join(tmp_path, "balanced.csv")
        code, _, err = run_cli(capsys, ["balance", "--in", hand_written, "--seed", "2",
                                        "--out", out])
        assert_clean_success(code, err)
        ds = load_csv(hand_written)
        want = smote_oversample(ds, (8, 8, 8), seed=role_seed(2, "balance"))
        lines = read_bytes(out).decode("utf-8").split("\n")
        assert lines[:2] == ["# classes=3", "f0,f1,label"]
        assert lines[2:19] == self.ROWS
        synthetic = want.features[ds.n_samples:].tolist(), want.labels[ds.n_samples:]
        assert lines[19:] == [
            ",".join(format(x, ".17g") for x in row) + f",{label}"
            for row, label in zip(*synthetic)
        ] + [""]
        assert len(lines) == 2 + 24 + 1
        assert same_arrays(load_csv(out), want)

    def test_byte_order_mark_input(self, capsys, tmp_path):
        data = os.path.join(tmp_path, "bom.csv")
        text = "f0,label\n" + "".join(f"{i}.5,{i % 2}\n" for i in range(8))
        with open(data, "w", encoding="utf-8") as handle:
            handle.write("\ufeff" + text)
        out = os.path.join(tmp_path, "splits")
        code, _, err = run_cli(capsys, ["split", "--in", data, "--out", out])
        assert_clean_success(code, err)
        assert read_bytes(os.path.join(out, "val.csv")).startswith(b"# classes=2\nf0,label\n")


class TestTrain:
    def test_writes_model_and_trace(self, pipeline):
        layer = load_layer(pipeline["model"])
        assert layer.feature_dim == 8
        assert layer.num_classes == 3
        with open(pipeline["trace"], "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert lines[0] == "epoch,total,nll,kl,val_nll,val_acc"
        assert len(lines) == 13

    def test_rerun_is_byte_identical(self, capsys, pipeline, tmp_path):
        model = os.path.join(tmp_path, "model.json")
        trace = os.path.join(tmp_path, "trace.csv")
        code, _, err = run_cli(capsys, [
            "train",
            "--train", os.path.join(pipeline["splits"], "train.csv"),
            "--val", pipeline["val"],
            "--epochs", "12", "--batch-size", "32", "--seed", "7",
            "--model-out", model, "--trace-out", trace,
        ])
        assert_clean_success(code, err)
        assert read_bytes(model) == read_bytes(pipeline["model"])
        assert read_bytes(trace) == read_bytes(pipeline["trace"])

    @pytest.mark.parametrize("how", ["directory", "replace"])
    def test_failed_rerun_leaves_one_runs_outputs(
        self, capsys, monkeypatch, pipeline, tmp_path, how
    ):
        def argv_of(run, out):
            return [
                "train", "--train", os.path.join(pipeline["splits"], "train.csv"),
                "--val", pipeline["val"], "--epochs", "2", "--seed", str(run),
                "--model-out", os.path.join(out, "model.json"),
                "--trace-out", os.path.join(out, "trace.csv"),
            ]

        assert_failed_rerun_leaves_one_runs_outputs(
            capsys, monkeypatch, tmp_path, argv_of, "model.json", how
        )

    def test_dim_mismatch_rejected(self, capsys, pipeline, tmp_path):
        other = os.path.join(tmp_path, "other.csv")
        run_cli(capsys, [
            "gen", "--classes", "3", "--dim", "5", "--per-class", "10",
            "--seed", "1", "--out", other,
        ])
        code, _, err = run_cli(capsys, [
            "train", "--train", os.path.join(pipeline["splits"], "train.csv"),
            "--val", other,
            "--model-out", os.path.join(tmp_path, "m.json"),
            "--trace-out", os.path.join(tmp_path, "t.csv"),
        ])
        assert_single_line_error(code, err, 1)
        assert "feature" in err

    def test_class_count_mismatch_rejected(self, capsys, pipeline, tmp_path):
        other = os.path.join(tmp_path, "other.csv")
        run_cli(capsys, [
            "gen", "--classes", "4", "--dim", "8", "--per-class", "10",
            "--seed", "1", "--out", other,
        ])
        code, _, err = run_cli(capsys, [
            "train", "--train", os.path.join(pipeline["splits"], "train.csv"),
            "--val", other,
            "--model-out", os.path.join(tmp_path, "m.json"),
            "--trace-out", os.path.join(tmp_path, "t.csv"),
        ])
        assert_single_line_error(code, err, 1)
        assert "class" in err

    def test_prior_scale_with_overflowing_square_rejected(
        self, capsys, pipeline, tmp_path
    ):
        model = os.path.join(tmp_path, "m.json")
        code, _, err = run_cli(capsys, [
            "train", "--train", os.path.join(pipeline["splits"], "train.csv"),
            "--val", pipeline["val"], "--epochs", "1", "--prior-scale", "1e200",
            "--model-out", model, "--trace-out", os.path.join(tmp_path, "t.csv"),
        ])
        assert_single_line_error(code, err, 1)
        assert "prior_scale must have a finite square, got 1e+200" in err
        assert not os.path.exists(model)

    @pytest.mark.parametrize("flags,message", [
        # One step per epoch moves every mean by about 1e300: the parameters
        # stay finite, but the epoch's KL (mu squared) does not.
        (["--lr", "1e300", "--epochs", "2", "--batch-size", "256"],
         "non-finite loss at epoch 1"),
        # s^2 underflows to 0, so the first step's KL gradient divides by it.
        (["--prior-scale", "1e-300"], "non-finite parameter after step 1 (epoch 1)"),
        # A finite rho whose sigma, 1e308, overflows sigma * eps in the
        # first step's Flipout draw.
        (["--rho-init", "1e308"], "non-finite parameter after step 1 (epoch 1)"),
    ], ids=["loss", "parameter", "rho_init_1e308"])
    def test_non_finite_training_exits_3(self, capsys, pipeline, tmp_path, flags, message):
        model = os.path.join(tmp_path, "m.json")
        trace = os.path.join(tmp_path, "t.csv")
        code, _, err = run_cli(capsys, [
            "train", "--train", os.path.join(pipeline["splits"], "train.csv"),
            "--val", pipeline["val"], *flags, "--model-out", model, "--trace-out", trace,
        ])
        assert_single_line_error(code, err, 3)
        assert err == f"error: {message}\n"
        assert os.listdir(tmp_path) == []

    def test_corrupt_csv_names_line(self, capsys, tmp_path):
        bad = os.path.join(tmp_path, "bad.csv")
        with open(bad, "w", encoding="utf-8") as handle:
            handle.write(
                "# classes=2\nf0,label\n0.5,0\n0.25,1\nnot_a_number,0\n0.75,1\n"
            )
        code, _, err = run_cli(capsys, [
            "train", "--train", bad, "--val", bad,
            "--model-out", os.path.join(tmp_path, "m.json"),
            "--trace-out", os.path.join(tmp_path, "t.csv"),
        ])
        assert_single_line_error(code, err, 1)
        assert "line 5" in err

    def test_artifacts_do_not_depend_on_blas_thread_count(self, capsys, tmp_path):
        # OpenBLAS splits some products by its thread count; a K=100, D=256
        # head on 300 rows ends each epoch on a 44-row batch, whose x @ W.T
        # gave other last bits at two threads before the CLI held one.
        data = os.path.join(tmp_path, "data.csv")
        code, _, err = run_cli(capsys, [
            "gen", "--classes", "100", "--dim", "256", "--per-class", "3",
            "--seed", "0", "--out", data,
        ])
        assert_clean_success(code, err)
        outputs = []
        for threads in ("1", "2"):
            model = os.path.join(tmp_path, f"model{threads}.json")
            trace = os.path.join(tmp_path, f"trace{threads}.csv")
            result = subprocess.run(
                [sys.executable, "-m", "vbselect", "train", "--train", data,
                 "--val", data, "--epochs", "2", "--batch-size", "128", "--seed", "0",
                 "--model-out", model, "--trace-out", trace],
                capture_output=True, text=True,
                env=child_env(OPENBLAS_NUM_THREADS=threads),
            )
            assert (result.returncode, result.stderr) == (0, "")
            outputs.append((read_bytes(model), read_bytes(trace)))
        assert outputs[0] == outputs[1]


class TestEval:
    def run_eval(self, capsys, pipeline, out, extra=()):
        argv = [
            "eval", "--model", pipeline["model"], "--data", pipeline["val"],
            "--threshold", "0.7", "--seed", "7", "--out", out,
        ] + list(extra)
        return run_cli(capsys, argv)

    def test_writes_all_artifacts(self, capsys, pipeline, tmp_path):
        out = os.path.join(tmp_path, "eval")
        code, _, err = self.run_eval(capsys, pipeline, out)
        assert_clean_success(code, err)
        for name in (
            "summary.json", "predictions.csv", "histogram.csv",
            "confusion_all.csv", "confusion_accepted.csv", "calibration.json",
        ):
            assert os.path.exists(os.path.join(out, name)), name

    def test_summary_schema_and_consistency(self, capsys, pipeline, tmp_path):
        out = os.path.join(tmp_path, "eval")
        self.run_eval(capsys, pipeline, out)
        with open(os.path.join(out, "summary.json"), encoding="utf-8") as handle:
            summary = json.load(handle)
        for field in (
            "accuracy_accepted", "coverage", "rejection_rate", "ece",
            "ece_accepted", "overall_accuracy", "n_samples", "threshold",
            "measure", "mc_samples", "ece_bins", "seed", "toolkit_version",
        ):
            assert field in summary, field
        assert abs(summary["coverage"] + summary["rejection_rate"] - 1.0) <= 1e-12
        assert summary["threshold"] == 0.7
        assert summary["mc_samples"] == 20
        assert summary["seed"] == 7
        assert summary["n_samples"] == 36
        assert summary["toolkit_version"] == vbselect.__version__

    def test_zero_threshold_degenerate_gate(self, capsys, pipeline, tmp_path):
        out = os.path.join(tmp_path, "eval")
        code, _, err = run_cli(capsys, [
            "eval", "--model", pipeline["model"], "--data", pipeline["val"],
            "--threshold", "0.0", "--seed", "7", "--out", out,
        ])
        assert_clean_success(code, err)
        with open(os.path.join(out, "summary.json"), encoding="utf-8") as handle:
            summary = json.load(handle)
        assert summary["coverage"] == 1.0
        assert summary["accuracy_accepted"] == summary["overall_accuracy"]

    def test_emitted_ece_recomputable_from_predictions(
        self, capsys, pipeline, tmp_path
    ):
        out = os.path.join(tmp_path, "eval")
        self.run_eval(capsys, pipeline, out)
        with open(os.path.join(out, "summary.json"), encoding="utf-8") as handle:
            summary = json.load(handle)
        with open(os.path.join(out, "predictions.csv"), encoding="utf-8") as handle:
            rows = [line.split(",") for line in handle.read().splitlines()[1:]]
        confidence = np.array([float(r[3]) for r in rows])
        correctness = np.array([r[1] == r[2] for r in rows])
        assert ece(confidence, correctness, num_bins=15).ece == summary["ece"]

    def test_histogram_has_threshold_marker(self, capsys, pipeline, tmp_path):
        out = os.path.join(tmp_path, "eval")
        self.run_eval(capsys, pipeline, out)
        with open(os.path.join(out, "histogram.csv"), encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert lines[0] == "bin_lower,bin_upper,count"
        assert lines[-1] == "# threshold=0.7"
        counts = [int(line.split(",")[2]) for line in lines[1:-1]]
        assert len(counts) == 20
        assert sum(counts) == 36

    @pytest.mark.parametrize("measure", ["entropy", "mutual_info"])
    def test_histogram_has_no_marker_for_another_measure(
        self, capsys, pipeline, tmp_path, measure
    ):
        # The histogram's axis is confidence; an entropy or mutual-information
        # threshold is not a point on it.
        out = os.path.join(tmp_path, "eval")
        code, _, err = self.run_eval(capsys, pipeline, out, ["--measure", measure])
        assert_clean_success(code, err)
        with open(os.path.join(out, "histogram.csv"), encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 21
        assert not any(line.startswith("#") for line in lines)

    def test_save_samples_flag(self, capsys, pipeline, tmp_path):
        out = os.path.join(tmp_path, "eval")
        code, _, err = self.run_eval(capsys, pipeline, out, ["--save-samples"])
        assert_clean_success(code, err)
        grid = np.load(os.path.join(out, "samples.npy"))
        assert grid.shape == (36, 20, 3) and grid.dtype == np.float64
        layer, ds = load_layer(pipeline["model"]), load_csv(pipeline["val"])
        seed = role_seed(7, "inference")
        expected = inference.predictive_posterior(layer, ds, 20, seed=seed).prob_samples
        assert grid.tobytes() == expected.tobytes()
        mean_probs = inference.score_posterior(layer, ds, 20, seed=seed).mean_probs
        assert grid.mean(axis=1).tobytes() == mean_probs.tobytes()
        assert "samples.csv" not in os.listdir(out)

    def test_failed_chunk_leaves_no_partial_report(
        self, capsys, pipeline, tmp_path, monkeypatch
    ):
        # Four rows per chunk at S = 20, K = 3. Row 5, in the second chunk,
        # lies along the signs of class 0's weights, so its class-0 logit
        # overflows to inf once the first chunk's samples were written. The
        # engine names the row.
        monkeypatch.setattr(inference, "_MIN_CHUNK_ROWS", 4)
        monkeypatch.setattr(inference, "_CHUNK_BYTES", 4 * 20 * 3 * 8)
        data = write_overflow_csv(pipeline, tmp_path, 5)
        offsets = []
        real_pwrite = inference._pwrite

        def recording_pwrite(fd, data, offset):
            offsets.append(offset)
            real_pwrite(fd, data, offset)

        monkeypatch.setattr(inference, "_pwrite", recording_pwrite)
        out = os.path.join(tmp_path, "eval")
        code, _, err = run_cli(capsys, [
            "eval", "--model", pipeline["model"], "--data", data,
            "--threshold", "0.7", "--seed", "7", "--out", out, "--save-samples",
        ])
        assert_single_line_error(code, err, 1)
        assert "data row 5: logits are not finite under posterior draw 0" in err
        # The header and chunk 0's records were written; the failing chunk's
        # never were. Chunks after it may have been, by another thread. The
        # npy header of a (36, 20, 3) array takes 128 bytes.
        header, chunk = 128, 4 * 20 * 3 * 8
        assert offsets[0] == 0 and header in offsets
        assert header + chunk not in offsets
        assert os.listdir(out) == []

    @pytest.mark.parametrize("how", ["directory", "replace"])
    def test_failed_rerun_leaves_one_runs_outputs(
        self, capsys, monkeypatch, pipeline, tmp_path, how
    ):
        def argv_of(run, out):
            return [
                "eval", "--model", pipeline["model"], "--data", pipeline["val"],
                "--threshold", ("0.7", "0.9")[run], "--seed", str(run),
                "--save-samples", "--out", out,
            ]

        assert_failed_rerun_leaves_one_runs_outputs(
            capsys, monkeypatch, tmp_path, argv_of, "summary.json", how
        )

    def test_accepted_only_ece(self, capsys, pipeline, tmp_path):
        # summary.json holds the ECE over every row and, beside it, the ECE
        # over the rows the gate accepted, both at --ece-bins.
        out = os.path.join(tmp_path, "eval")
        code, _, err = self.run_eval(capsys, pipeline, out)
        assert_clean_success(code, err)
        with open(os.path.join(out, "summary.json"), encoding="utf-8") as handle:
            summary = json.load(handle)
        with open(os.path.join(out, "predictions.csv"), encoding="utf-8") as handle:
            rows = [line.split(",") for line in handle.read().splitlines()[1:]]
        confidence = np.array([float(r[3]) for r in rows])
        correctness = np.array([r[1] == r[2] for r in rows])
        mask = confidence >= 0.7
        assert 0 < mask.sum() < len(mask)
        assert ece(confidence[mask], correctness[mask], 15).ece == summary["ece_accepted"]
        assert ece(confidence, correctness, 15).ece == summary["ece"]
        assert summary["measure"] == "confidence"
        assert summary["ece_bins"] == 15

    def test_model_data_mismatch(self, capsys, pipeline, tmp_path):
        other = os.path.join(tmp_path, "other.csv")
        run_cli(capsys, [
            "gen", "--classes", "3", "--dim", "5", "--per-class", "10",
            "--seed", "1", "--out", other,
        ])
        code, _, err = run_cli(capsys, [
            "eval", "--model", pipeline["model"], "--data", other,
            "--out", os.path.join(tmp_path, "eval"),
        ])
        assert_single_line_error(code, err, 1)

    def test_model_data_class_count_mismatch(self, capsys, pipeline, tmp_path):
        other = os.path.join(tmp_path, "other.csv")
        run_cli(capsys, [
            "gen", "--classes", "4", "--dim", "8", "--per-class", "10",
            "--seed", "1", "--out", other,
        ])
        out = os.path.join(tmp_path, "eval")
        code, _, err = run_cli(capsys, [
            "eval", "--model", pipeline["model"], "--data", other, "--out", out,
        ])
        assert_single_line_error(code, err, 1)
        assert err == "error: model/data class count mismatch: 3 vs 4\n"
        assert not os.path.exists(out)

    def test_accepted_only_ece_with_nothing_accepted(self, capsys, pipeline, tmp_path):
        # No mean confidence reaches 1.0 here, so the gate accepts no row:
        # both accepted-case numbers are left out, and the rest is reported.
        out = os.path.join(tmp_path, "eval")
        code, _, err = self.run_eval(capsys, pipeline, out, ["--threshold", "1.0"])
        assert_clean_success(code, err)
        with open(os.path.join(out, "summary.json"), encoding="utf-8") as handle:
            summary = json.load(handle)
        assert summary["coverage"] == 0.0
        assert "accuracy_accepted" not in summary
        assert "ece_accepted" not in summary
        assert "ece" in summary

    def test_failed_reports_leave_no_samples_file(
        self, capsys, monkeypatch, pipeline, tmp_path
    ):
        # The grid is written while the rows are scored; a report writer
        # then fails, and the grid goes with the reports.
        def failing_writer(histogram, path):
            assert os.path.exists(os.path.join(out, "samples.npy"))
            raise OSError(errno.ENOSPC, "No space left on device", path)

        monkeypatch.setattr(cli, "save_histogram_csv", failing_writer)
        out = os.path.join(tmp_path, "eval")
        code, _, err = self.run_eval(
            capsys, pipeline, out, ["--save-samples", "--mc-samples", "100"]
        )
        assert_single_line_error(code, err, 2)
        assert "No space left on device" in err
        assert os.listdir(out) == []

    def test_ece_accepted_only_is_gone(self, capsys, pipeline, tmp_path):
        # summary.json always carries both ECEs, so the switch that chose
        # between them is no option.
        out = os.path.join(tmp_path, "eval")
        code, _, err = self.run_eval(capsys, pipeline, out, ["--ece-accepted-only"])
        assert_single_line_error(code, err, 1)
        assert "ece-accepted-only" in err
        assert not os.path.exists(out)

    def test_model_not_json_names_the_model(self, capsys, pipeline, tmp_path):
        model = os.path.join(tmp_path, "model.json")
        with open(model, "w", encoding="utf-8") as handle:
            handle.write('{"weight_mu": ')
        out = os.path.join(tmp_path, "eval")
        code, _, err = run_cli(capsys, [
            "eval", "--model", model, "--data", pipeline["val"], "--out", out,
        ])
        assert_single_line_error(code, err, 1)
        assert err.startswith(f"error: {model}: not valid JSON (")
        assert err.endswith(")\n")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("field,value", [
        ("weight_mu", "1.5"),
        ("bias_rho", True),
        ("bias_mu", {}),
        ("prior_scale", True),
        ("prior_scale", "2.0"),
        ("prior_scale", None),
        ("format_version", True),
        ("format_version", 1.0),
        ("feature_dim", 8.0),
        pytest.param("weight_rho", 10**400, id="weight_rho-1e400"),
        pytest.param("prior_scale", 10**400, id="prior_scale-1e400"),
    ], ids=str)
    def test_mistyped_model_rejected(self, capsys, pipeline, tmp_path, field, value):
        with open(pipeline["model"], encoding="utf-8") as handle:
            doc = json.load(handle)
        if isinstance(doc[field], list):  # replace the first entry
            row = doc[field][0] if isinstance(doc[field][0], list) else doc[field]
            row[0] = value
        else:
            doc[field] = value
        model = os.path.join(tmp_path, "model.json")
        with open(model, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        out = os.path.join(tmp_path, "eval")
        code, _, err = run_cli(capsys, [
            "eval", "--model", model, "--data", pipeline["val"], "--out", out,
        ])
        assert_single_line_error(code, err, 1)
        assert f"{model}: {field} must" in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("field,value,shown", [
        ("format_version", True, "a JSON integer, got True"),
        ("format_version", 1.0, "a JSON integer, got 1.0"),
        ("format_version", [1] * 10_000, "a JSON integer, got a JSON array"),
        ("num_classes", "3" * 100, "a JSON integer, got a JSON string"),
        ("prior_scale", {"a": [1.0] * 100}, "a JSON number, got a JSON object"),
    ], ids=["true", "1.0", "array", "string", "object"])
    def test_mistyped_scalar_quoted_only_when_short(
        self, capsys, pipeline, tmp_path, field, value, shown
    ):
        with open(pipeline["model"], encoding="utf-8") as handle:
            doc = json.load(handle)
        doc[field] = value
        model = os.path.join(tmp_path, "model.json")
        with open(model, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        code, _, err = run_cli(capsys, [
            "eval", "--model", model, "--data", pipeline["val"],
            "--out", os.path.join(tmp_path, "eval"),
        ])
        assert_single_line_error(code, err, 1)
        assert err == f"error: {model}: {field} must be {shown}\n"

    @pytest.mark.parametrize("depth,message", [
        (500, "weight_mu must be a rectangular array of numbers"),
        (50_000, "JSON nests too deeply to parse"),
    ])
    def test_deeply_nested_model_rejected(
        self, capsys, pipeline, tmp_path, depth, message
    ):
        # 500 levels pass the JSON parser and reach the array checks; 50 000
        # exceed the parser's own recursion limit.
        with open(pipeline["model"], encoding="utf-8") as handle:
            doc = json.load(handle)
        doc["weight_mu"] = "NESTED"
        model = os.path.join(tmp_path, "model.json")
        with open(model, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(doc).replace(
                '"NESTED"', "[" * depth + "1.0" + "]" * depth
            ))
        out = os.path.join(tmp_path, "eval")
        code, _, err = run_cli(capsys, [
            "eval", "--model", model, "--data", pipeline["val"], "--out", out,
        ])
        assert_single_line_error(code, err, 1)
        assert err == f"error: {model}: {message}\n"
        assert not os.path.exists(out)

    def test_ragged_model_array_rejected(self, capsys, pipeline, tmp_path):
        with open(pipeline["model"], encoding="utf-8") as handle:
            doc = json.load(handle)
        doc["weight_mu"][1] = doc["weight_mu"][1][:2]
        model = os.path.join(tmp_path, "model.json")
        with open(model, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        out = os.path.join(tmp_path, "eval")
        code, _, err = run_cli(capsys, [
            "eval", "--model", model, "--data", pipeline["val"], "--out", out,
        ])
        assert_single_line_error(code, err, 1)
        assert err == (
            f"error: {model}: weight_mu must be a rectangular array of numbers\n"
        )
        assert not os.path.exists(out)

    @pytest.mark.parametrize("field,value,message", [
        ("bias_mu", [0.0], "bias parameters must be length-K vectors"),
        ("weight_mu", [0.0], "weight_mu must be a K x D matrix"),
        ("weight_rho", [[0.0]], "weight_rho shape must match weight_mu"),
        ("bias_rho", [float("nan")] * 3, "bias_rho contains non-finite values"),
        ("prior_scale", -1.0, "prior_scale must be positive and finite"),
        ("feature_dim", 9, "declared dimensions do not match arrays"),
    ], ids=["bias_mu_length", "weight_mu_ndim", "weight_rho_shape", "bias_rho_nan",
            "prior_scale_negative", "feature_dim_mismatch"])
    def test_invalid_layer_names_the_model(
        self, capsys, pipeline, tmp_path, field, value, message
    ):
        with open(pipeline["model"], encoding="utf-8") as handle:
            doc = json.load(handle)
        doc[field] = value
        model = os.path.join(tmp_path, "model.json")
        with open(model, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        out = os.path.join(tmp_path, "eval")
        code, _, err = run_cli(capsys, [
            "eval", "--model", model, "--data", pipeline["val"], "--out", out,
        ])
        assert_single_line_error(code, err, 1)
        assert err == f"error: {model}: {message}\n"
        assert not os.path.exists(out)

    def test_overflowing_sigma_blames_the_model(self, capsys, pipeline, tmp_path):
        # A legal weight_rho of 1e308 makes sigma * eps overflow in a draw.
        with open(pipeline["model"], encoding="utf-8") as handle:
            doc = json.load(handle)
        doc["weight_rho"] = [[1e308] * len(row) for row in doc["weight_rho"]]
        model = os.path.join(tmp_path, "model.json")
        with open(model, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        out = os.path.join(tmp_path, "eval")
        code, _, err = run_cli(capsys, [
            "eval", "--model", model, "--data", pipeline["val"], "--out", out,
            "--save-samples",
        ])
        assert_single_line_error(code, err, 1)
        assert re.fullmatch(
            r"error: posterior draw \d+ is not finite: "
            r"the model's weight/bias sigma overflows float64\n", err
        )
        assert os.listdir(out) == []

    def test_determinism(self, capsys, pipeline, tmp_path):
        outs = [os.path.join(tmp_path, name) for name in ("a", "b")]
        for out in outs:
            code, _, err = self.run_eval(capsys, pipeline, out)
            assert_clean_success(code, err)
        for name in (
            "summary.json", "predictions.csv", "histogram.csv",
            "confusion_all.csv", "confusion_accepted.csv", "calibration.json",
        ):
            assert read_bytes(os.path.join(outs[0], name)) == read_bytes(
                os.path.join(outs[1], name)
            ), name


JSON_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([10**400, -(10**400), 1e308, -0.0, 5e-324])
)
JSON_TREES = st.recursive(
    JSON_LEAVES,
    lambda kids: (
        st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=4), kids, max_size=4)
    ),
    max_leaves=16,
)
NUMBER_TREES = st.recursive(
    st.integers() | st.floats(), lambda kids: st.lists(kids, max_size=4), max_leaves=16
)


@st.composite
def malformed_models(draw, doc):
    """A JSON tree, or the model document `doc` with one field replaced by a
    JSON tree, one field dropped, or an unknown field added."""
    kind = draw(st.sampled_from(["tree", "replace", "drop", "add"]))
    if kind == "tree":
        return draw(JSON_TREES)
    doc, field = dict(doc), draw(st.sampled_from(sorted(doc)))
    if kind == "replace":
        doc[field] = draw(JSON_TREES | NUMBER_TREES)
    elif kind == "drop":
        del doc[field]
    else:
        doc[draw(st.text(max_size=4).filter(lambda key: key not in doc))] = draw(JSON_TREES)
    return doc


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_malformed_model_ends_in_one_error_line_naming_it(pipeline, data):
    with open(pipeline["model"], encoding="utf-8") as handle:
        doc = data.draw(malformed_models(json.load(handle)))
    with tempfile.TemporaryDirectory() as tmp:
        model = os.path.join(tmp, "model.json")
        with open(model, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        try:
            load_layer(model)
            valid = True
        except ValueError:
            valid = False
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = entrypoint([
                "eval", "--model", model, "--data", pipeline["val"],
                "--mc-samples", "4", "--out", os.path.join(tmp, "eval"),
            ])
    err = stderr.getvalue()
    if code == 0:
        assert valid and err == ""
    else:
        assert_single_line_error(code, err, 1)
        assert valid or err.startswith(f"error: {model}: ")


class TestSweep:
    def test_default_grid_rows_and_invariant(self, capsys, pipeline, tmp_path):
        out = os.path.join(tmp_path, "curve.csv")
        code, _, err = run_cli(capsys, [
            "sweep", "--model", pipeline["model"], "--data", pipeline["val"],
            "--seed", "7", "--out", out,
        ])
        assert_clean_success(code, err)
        with open(out, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert lines[0] == "threshold,coverage,rejection_rate,selective_accuracy"
        assert len(lines) == 10
        coverages = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(a >= b for a, b in zip(coverages, coverages[1:]))

    # Only a mutual_info sweep scores the per-draw entropies, which eval
    # always scores; each threshold splits the validation rows.
    @pytest.mark.parametrize("measure,grid,threshold", [
        ("confidence", [], "0.7"),
        ("entropy", ["--grid", "0.2,0.35,0.5"], "0.35"),
        ("mutual_info", ["--grid", "0.0001,0.0002,0.0004"], "0.0002"),
    ], ids=["confidence", "entropy", "mutual_info"])
    def test_sweep_row_matches_eval(
        self, capsys, pipeline, tmp_path, measure, grid, threshold
    ):
        curve_path = os.path.join(tmp_path, "curve.csv")
        eval_out = os.path.join(tmp_path, "eval")
        code, _, err = run_cli(capsys, [
            "sweep", "--model", pipeline["model"], "--data", pipeline["val"],
            "--measure", measure, *grid, "--seed", "7", "--out", curve_path,
        ])
        assert_clean_success(code, err)
        code, _, err = run_cli(capsys, [
            "eval", "--model", pipeline["model"], "--data", pipeline["val"],
            "--measure", measure, "--threshold", threshold, "--seed", "7",
            "--out", eval_out,
        ])
        assert_clean_success(code, err)
        with open(os.path.join(eval_out, "summary.json"), encoding="utf-8") as handle:
            summary = json.load(handle)
        assert 0.0 < summary["coverage"] < 1.0
        with open(curve_path, encoding="utf-8") as handle:
            rows = [line.split(",") for line in handle.read().splitlines()[1:]]
        row = next(r for r in rows if float(r[0]) == float(threshold))
        assert float(row[1]) == summary["coverage"]
        assert float(row[2]) == summary["rejection_rate"]
        assert float(row[3]) == summary["accuracy_accepted"]

    def test_custom_grid(self, capsys, pipeline, tmp_path):
        out = os.path.join(tmp_path, "curve.csv")
        code, _, err = run_cli(capsys, [
            "sweep", "--model", pipeline["model"], "--data", pipeline["val"],
            "--grid", "0.6,0.8", "--seed", "7", "--out", out,
        ])
        assert_clean_success(code, err)
        with open(out, encoding="utf-8") as handle:
            assert len(handle.read().splitlines()) == 3

    def test_overflowing_row_named(self, capsys, pipeline, tmp_path):
        out = os.path.join(tmp_path, "curve.csv")
        code, _, err = run_cli(capsys, [
            "sweep", "--model", pipeline["model"],
            "--data", write_overflow_csv(pipeline, tmp_path, 11),
            "--seed", "7", "--out", out,
        ])
        assert_single_line_error(code, err, 1)
        assert err == (
            "error: data row 11: logits are not finite under posterior draw 0\n"
        )
        assert not os.path.exists(out)

    @pytest.mark.parametrize("measure", ["confidence", "entropy", "mutual_info"])
    def test_takes_per_draw_entropies_only_for_a_mutual_info_gate(
        self, capsys, pipeline, tmp_path, monkeypatch, measure
    ):
        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs["mutual_info"])
            return score_posterior(*args, **kwargs)

        score_posterior = cli.score_posterior
        monkeypatch.setattr(cli, "score_posterior", spy)
        code, _, err = run_cli(capsys, [
            "sweep", "--model", pipeline["model"], "--data", pipeline["val"],
            "--measure", measure, "--grid", "0.05,0.5", "--seed", "7",
            "--out", os.path.join(tmp_path, "curve.csv"),
        ])
        assert_clean_success(code, err)
        code, _, err = run_cli(capsys, [
            "eval", "--model", pipeline["model"], "--data", pipeline["val"],
            "--measure", measure, "--threshold", "0.5", "--seed", "7",
            "--out", os.path.join(tmp_path, "eval"),
        ])
        assert_clean_success(code, err)
        assert calls == [measure == "mutual_info", True]

    def test_unsorted_grid_rejected(self, capsys, pipeline, tmp_path):
        code, _, err = run_cli(capsys, [
            "sweep", "--model", pipeline["model"], "--data", pipeline["val"],
            "--grid", "0.8,0.6", "--out", os.path.join(tmp_path, "c.csv"),
        ])
        assert_single_line_error(code, err, 1)
        assert err == "error: grid must be strictly increasing\n"

    def test_unparseable_grid_rejected(self, capsys, pipeline, tmp_path):
        out = os.path.join(tmp_path, "c.csv")
        code, _, err = run_cli(capsys, [
            "sweep", "--model", pipeline["model"], "--data", pipeline["val"],
            "--grid", "0.5,x", "--out", out,
        ])
        assert_single_line_error(code, err, 1)
        assert err == "error: cannot parse threshold grid from '0.5,x'\n"
        assert not os.path.exists(out)

    def test_out_of_range_threshold_reported_before_order(
        self, capsys, pipeline, tmp_path
    ):
        # Each threshold is gated before the curve checks their order.
        out = os.path.join(tmp_path, "c.csv")
        code, _, err = run_cli(capsys, [
            "sweep", "--model", pipeline["model"], "--data", pipeline["val"],
            "--grid", "0.9,1.5,0.5", "--out", out,
        ])
        assert_single_line_error(code, err, 1)
        assert err == "error: threshold must lie in [0, 1] for confidence, got 1.5\n"
        assert not os.path.exists(out)


class _Reached(Exception):
    """Raised by a stand-in for a stage an option check must come before."""


def _refuse_stage(name):
    def stage(*args, **kwargs):
        raise _Reached(f"{name} was reached")

    return stage


class TestOptionsCheckedFirst:
    """eval and sweep reject a bad option value before they parse or score.

    The CSV parse and the scoring are replaced by stand-ins that raise, so a
    check that came after either would not give its one error line.
    """

    @pytest.fixture
    def staged(self, monkeypatch):
        monkeypatch.setattr(cli, "load_csv", _refuse_stage("load_csv"))
        monkeypatch.setattr(cli, "score_posterior", _refuse_stage("score_posterior"))

    @pytest.mark.parametrize("flags,message", [
        (["--threshold", "1.5"], "threshold must lie in [0, 1] for confidence, got 1.5"),
        (["--threshold", "-0.5", "--measure", "entropy"],
         "threshold must be nonnegative for entropy, got -0.5"),
        (["--threshold", "nan", "--measure", "mutual_info"],
         "threshold must be nonnegative for mutual_info, got nan"),
        (["--mc-samples", "0"], "mc_samples must be at least 1, got 0"),
        (["--ece-bins", "0"], "num_bins must be at least 1"),
    ], ids=["threshold", "entropy_threshold", "nan_threshold", "mc_samples", "ece_bins"])
    def test_eval(self, capsys, pipeline, tmp_path, staged, flags, message):
        out = os.path.join(tmp_path, "eval")
        code, _, err = run_cli(capsys, [
            "eval", "--model", pipeline["model"], "--data", pipeline["val"],
            *flags, "--save-samples", "--out", out,
        ])
        assert_single_line_error(code, err, 1)
        assert err == f"error: {message}\n"
        assert not os.path.exists(os.path.join(out, "samples.npy"))
        assert not os.path.exists(out)

    @pytest.mark.parametrize("flags,message", [
        (["--grid", "0.8,0.6"], "grid must be strictly increasing"),
        (["--grid", "0.9,1.5,0.5"], "threshold must lie in [0, 1] for confidence, got 1.5"),
        (["--grid", "0.5,x"], "cannot parse threshold grid from '0.5,x'"),
        (["--grid=-0.1,0.5", "--measure", "entropy"],
         "threshold must be nonnegative for entropy, got -0.1"),
        (["--mc-samples", "-1"], "mc_samples must be at least 1, got -1"),
        (["--grid", ""], "cannot parse threshold grid from ''"),
    ], ids=["unsorted", "out_of_range_before_order", "unparseable", "entropy_grid",
            "mc_samples", "empty_grid"])
    def test_sweep(self, capsys, pipeline, tmp_path, staged, flags, message):
        out = os.path.join(tmp_path, "curve.csv")
        code, _, err = run_cli(capsys, [
            "sweep", "--model", pipeline["model"], "--data", pipeline["val"],
            *flags, "--out", out,
        ])
        assert_single_line_error(code, err, 1)
        assert err == f"error: {message}\n"
        assert not os.path.exists(out)

    def test_stand_ins_are_reached_by_good_options(self, pipeline, tmp_path, staged):
        # Guards the tests above: with good options both commands reach a stand-in.
        for command in (["eval", "--out", os.path.join(tmp_path, "eval")],
                        ["sweep", "--out", os.path.join(tmp_path, "curve.csv")]):
            with pytest.raises(_Reached, match="load_csv was reached"):
                entrypoint([*command, "--model", pipeline["model"],
                            "--data", pipeline["val"]])


def test_confusion_matrices_built_only_where_written(
    capsys, pipeline, tmp_path, monkeypatch
):
    """sweep writes no confusion matrix and builds none; eval builds the two it writes."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return confusion_matrix(*args, **kwargs)

    confusion_matrix = selection.confusion_matrix
    for module in (selection, cli):
        monkeypatch.setattr(module, "confusion_matrix", spy, raising=False)
    counts = {}
    for command, out in (("sweep", "curve.csv"), ("eval", "eval")):
        calls.clear()
        code, _, err = run_cli(capsys, [
            command, "--model", pipeline["model"], "--data", pipeline["val"],
            "--seed", "7", "--out", os.path.join(tmp_path, out),
        ])
        assert_clean_success(code, err)
        counts[command] = len(calls)
    assert counts == {"sweep": 0, "eval": 2}


class TestUndecodableInputs:
    """An input file that does not decode ends in one error line naming it."""

    @staticmethod
    def argv(kind, pipeline, path, out):
        return {
            "csv": ["split", "--in", path, "--out", out],
            "options_file": ["gen", "@" + path, "--out", out],
            "model": ["eval", "--model", path, "--data", pipeline["val"], "--out", out],
        }[kind]

    @pytest.mark.parametrize("kind", ["csv", "options_file", "model"])
    def test_non_utf8_file_named(self, capsys, pipeline, tmp_path, kind):
        path = os.path.join(tmp_path, "input")
        with open(path, "wb") as handle:
            handle.write(b"\xff{}\n")
        out = os.path.join(tmp_path, "out")
        code, _, err = run_cli(capsys, self.argv(kind, pipeline, path, out))
        assert_single_line_error(code, err, 1)
        assert err == (
            f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte\n"
        )
        assert not os.path.exists(out)

    def test_oversized_integer_named(self, capsys, pipeline, tmp_path):
        # json.loads refuses an integer past Python's int-string digit limit
        # with advice (sys.set_int_max_str_digits) no CLI user can follow.
        with open(pipeline["model"], encoding="utf-8") as handle:
            doc = {**json.load(handle), "num_classes": "BIG"}
        path = os.path.join(tmp_path, "input.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(doc).replace('"BIG"', "1" * 5000))
        out = os.path.join(tmp_path, "out")
        code, _, err = run_cli(capsys, self.argv("model", pipeline, path, out))
        assert_single_line_error(code, err, 1)
        limit = sys.get_int_max_str_digits()
        assert err == f"error: {path}: a JSON integer has more than {limit} digits\n"
        assert not os.path.exists(out)


class _NumpyOutOfMemory:
    """numpy with an allocator that refuses every request, as for a huge one."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, *args, **kwargs):
        raise MemoryError(
            f"Unable to allocate 74.5 GiB for an array with shape {shape} "
            "and data type float64"
        )


class _NumpyRefusingHuge:
    """numpy that refuses an array of over 10**7 values, and any random draw.

    A test that reaches a draw fails at once rather than drawing millions.
    """

    class random:
        @staticmethod
        def default_rng(*args, **kwargs):
            raise AssertionError("a random generator was made")

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, *args, **kwargs):
        if np.prod(shape) > 10**7:
            return _NumpyOutOfMemory.empty(shape)
        return np.empty(shape, *args, **kwargs)

    @staticmethod
    def arange(stop, *args, **kwargs):
        if stop > 10**7:
            return _NumpyOutOfMemory.empty((stop,))
        return np.arange(stop, *args, **kwargs)


def _refuse_allocation(*args, **kwargs):
    raise MemoryError("Unable to allocate 119. TiB for an array")


class TestOutOfMemory:
    def test_huge_mc_samples(self, capsys, pipeline, tmp_path, monkeypatch):
        monkeypatch.setattr(inference, "np", _NumpyOutOfMemory())
        out = os.path.join(tmp_path, "eval")
        code, _, err = run_cli(capsys, [
            "eval", "--model", pipeline["model"], "--data", pipeline["val"],
            "--mc-samples", "1000000000", "--save-samples", "--out", out,
        ])
        assert_single_line_error(code, err, 1)
        assert err.startswith("error: out of memory: Unable to allocate")
        assert os.listdir(out) == []

    def test_huge_ece_bins(self, capsys, pipeline, tmp_path, monkeypatch):
        monkeypatch.setattr(calibration, "np", _NumpyRefusingHuge())
        out = os.path.join(tmp_path, "eval")
        code, _, err = run_cli(capsys, [
            "eval", "--model", pipeline["model"], "--data", pipeline["val"],
            "--ece-bins", "100000000000", "--out", out,
        ])
        assert_single_line_error(code, err, 1)
        assert err.startswith("error: out of memory: Unable to allocate")
        assert "shape (100000000001,)" in err
        assert os.listdir(out) == []

    def test_huge_per_class(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "generate_synthetic", _refuse_allocation)
        out = os.path.join(tmp_path, "data.csv")
        code, _, err = run_cli(capsys, [
            "gen", "--per-class", "1000000000000", "--out", out,
        ])
        assert_single_line_error(code, err, 1)
        assert err.startswith("error: out of memory: Unable to allocate")
        assert not os.path.exists(out)

    def test_huge_balance_target(self, capsys, pipeline, tmp_path, monkeypatch):
        # The whole (N + synthesized) x D output is the first request that
        # grows with the target, and it comes before any row is drawn.
        monkeypatch.setattr(dataset, "np", _NumpyRefusingHuge())
        out = os.path.join(tmp_path, "balanced.csv")
        code, _, err = run_cli(capsys, [
            "balance", "--in", pipeline["data"], "--target", "3000000", "--out", out,
        ])
        assert_single_line_error(code, err, 1)
        assert err.startswith("error: out of memory: Unable to allocate")
        assert "shape (9000000, 8)" in err
        assert not os.path.exists(out)


BEYOND_INT64 = 99999999999999999999


class TestValuesBeyondTheirRange:
    """An option value its rule must refuse, not let numpy or Python overflow on."""

    @staticmethod
    def argv(command, pipeline, out):
        return {
            "gen": ["gen", "--out", os.path.join(out, "data.csv")],
            "balance": ["balance", "--in", pipeline["data"],
                        "--out", os.path.join(out, "balanced.csv")],
            "train": [
                "train", "--train", os.path.join(pipeline["splits"], "train.csv"),
                "--val", pipeline["val"], "--model-out", os.path.join(out, "model.json"),
                "--trace-out", os.path.join(out, "trace.csv"),
            ],
        }[command]

    @pytest.mark.parametrize("command,flags,message", [
        ("gen", ["--classes", str(BEYOND_INT64)],
         f"num_classes {BEYOND_INT64} exceeds the largest list length, {sys.maxsize}"),
        ("balance", ["--target", str(BEYOND_INT64)], "target_counts must fit in int64"),
        ("train", ["--lr", "inf"], "learning_rate must be finite, got inf"),
        ("train", ["--rho-init", "inf"], "rho_init must be finite, got inf"),
        ("train", ["--rho-init", "nan"], "rho_init must be finite, got nan"),
    ], ids=["gen_classes", "balance_target",
            "train_lr_inf", "train_rho_init_inf", "train_rho_init_nan"])
    def test_one_error_line_and_no_output(
        self, capsys, pipeline, tmp_path, command, flags, message
    ):
        out = os.path.join(tmp_path, "out")
        os.makedirs(out)
        code, _, err = run_cli(capsys, self.argv(command, pipeline, out) + flags)
        assert_single_line_error(code, err, 1)
        assert err == f"error: {message}\n"
        assert os.listdir(out) == []


class TestRemovedTrainOptions:
    """Adam's decay rates and epsilon and the init range are constants now:
    an old command line or options file that sets one fails, never silently."""

    @pytest.mark.parametrize("flag,value,from_file", [
        ("--adam-beta1", "0.5", False), ("--adam-beta2", "0.5", False),
        ("--adam-eps", "1e-7", False), ("--mu-init-scale", "0.5", False),
        ("--adam-eps", "1e-7", True),
    ], ids=["adam_beta1", "adam_beta2", "adam_eps", "mu_init_scale", "adam_eps_options_file"])
    def test_one_error_line_and_no_output(
        self, capsys, pipeline, tmp_path, flag, value, from_file
    ):
        out = os.path.join(tmp_path, "out")
        os.mkdir(out)
        extra = [flag, value]
        if from_file:
            options = os.path.join(tmp_path, "old_options.txt")
            write_options_file(options, extra)
            extra = ["@" + options]
        code, _, err = run_cli(capsys, [
            "train", "--train", os.path.join(pipeline["splits"], "train.csv"),
            "--val", pipeline["val"], "--epochs", "1", *extra,
            "--model-out", os.path.join(out, "model.json"),
            "--trace-out", os.path.join(out, "trace.csv"),
        ])
        assert_single_line_error(code, err, 1)
        assert err == f"error: unrecognized arguments: {flag} {value}\n"
        assert os.listdir(out) == []


class TestWriteErrorsNameThePath:
    """An output path in a missing directory, or one where a directory
    stands, fails with exit 2 and one line naming that path, not the
    temporary file it was written through, and leaves no temporary file."""

    @staticmethod
    def argv(command, pipeline, target, out):
        return {
            "gen": ["gen", "--per-class", "10", "--out", target],
            "sweep": ["sweep", "--model", pipeline["model"], "--data", pipeline["val"],
                      "--mc-samples", "4", "--out", target],
            "train": ["train", "--train", os.path.join(pipeline["splits"], "train.csv"),
                      "--val", pipeline["val"], "--epochs", "1",
                      "--trace-out", os.path.join(out, "trace.csv"), "--model-out", target],
        }[command]

    @pytest.mark.parametrize("command", ["gen", "sweep", "train"])
    @pytest.mark.parametrize("case", ["missing_directory", "is_a_directory"])
    def test_one_line_naming_the_path(self, capsys, pipeline, tmp_path, command, case):
        out = os.path.join(tmp_path, "out")
        os.mkdir(out)
        if case == "missing_directory":
            target = os.path.join(out, "missing", "file")
            message = f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {target!r}"
        else:
            target = os.path.join(out, "adir")
            os.mkdir(target)
            message = f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {target!r}"
        code, _, err = run_cli(capsys, self.argv(command, pipeline, target, out))
        assert_single_line_error(code, err, 2)
        assert err == f"error: {message}\n"
        left = [os.path.join(root, name) for root, _, names in os.walk(tmp_path)
                for name in names]
        assert not [path for path in left if path.endswith(".tmp")]


class TestGradcheck:
    def test_default_passes(self, capsys):
        code, out, err = run_cli(capsys, ["gradcheck"])
        assert_clean_success(code, err)
        assert out.count("\n") == 1
        assert out.startswith("max_relative_error=")
        assert float(out.split("=")[1]) <= 1e-4

    def test_deterministic_per_seed(self, capsys):
        _, out_a, _ = run_cli(capsys, ["gradcheck", "--seed", "3"])
        _, out_b, _ = run_cli(capsys, ["gradcheck", "--seed", "3"])
        assert out_a == out_b

    def test_coarse_step_fails_with_diagnostic(self, capsys):
        code, out, err = run_cli(capsys, ["gradcheck", "--h", "1.0"])
        assert code == 1
        assert out.startswith("max_relative_error=")
        assert err.startswith("error:")
        assert err.count("\n") == 1


    @pytest.mark.parametrize("flags", [
        ["--h", "1e300"],  # every loss is NaN
        ["--h", "0"],
        ["--batch-size", "0"],
    ], ids=" ".join)
    def test_degenerate_problem_fails(self, capsys, flags):
        code, _, err = run_cli(capsys, ["gradcheck", *flags])
        assert_single_line_error(code, err, 1)


class TestDeclaredOptions:
    """Each command's dests and defaults: what its handler receives."""

    # command -> (its required options, vars() of the parse without the command)
    CASES = {
        "gen": (["--out", "O"], {
            "num_classes": 5, "feature_dim": 16, "samples_per_class": "1000",
            "class_separation": 4.0, "noise_scale": 1.0, "seed": 0, "out": "O",
        }),
        "split": (["--in", "I", "--out", "O"], {
            "in_path": "I", "train": 0.7, "val": 0.15, "test": 0.15, "seed": 0,
            "out": "O",
        }),
        "balance": (["--in", "I", "--out", "O"], {
            "in_path": "I", "target": None, "k_neighbors": 5, "seed": 0, "out": "O",
        }),
        "train": (["--train", "T", "--val", "V", "--model-out", "M", "--trace-out", "R"], {
            "train": "T", "val": "V", "epochs": 30, "batch_size": 128,
            "learning_rate": 0.01, "rho_init": -5.0, "prior_scale": 1.0, "seed": 0,
            "model_out": "M", "trace_out": "R",
        }),
        "eval": (["--model", "M", "--data", "D", "--out", "O"], {
            "model": "M", "data": "D", "threshold": 0.7, "measure": "confidence",
            "mc_samples": 20, "ece_bins": 15, "save_samples": False, "seed": 0,
            "out": "O",
        }),
        "sweep": (["--model", "M", "--data", "D", "--out", "O"], {
            "model": "M", "data": "D", "grid": None, "measure": "confidence",
            "mc_samples": 20, "seed": 0, "out": "O",
        }),
        "gradcheck": ([], {
            "num_classes": 3, "feature_dim": 4, "batch_size": 8, "h": 1e-05, "seed": 0,
        }),
    }

    @pytest.mark.parametrize("command", CASES)
    def test_required_options_only(self, command):
        required, expected = self.CASES[command]
        expected = {"command": command, **expected}
        opts = vars(cli._build_parser().parse_args([command, *required]))
        assert opts == expected
        # == takes 0 for False and 5.0 for 5; a handler may not.
        assert {k: type(v) for k, v in opts.items()} == {
            k: type(v) for k, v in expected.items()
        }


class TestParserBehavior:
    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, ["frobnicate"])
        assert_single_line_error(code, err, 1)

    def test_missing_command(self, capsys):
        code, _, err = run_cli(capsys, [])
        assert_single_line_error(code, err, 1)

    def test_bad_measure_choice(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, [
            "eval", "--model", "m", "--data", "d",
            "--measure", "variance", "--out", os.path.join(tmp_path, "o"),
        ])
        assert_single_line_error(code, err, 1)

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, ["--help"])
        assert code == 0
        assert "gen" in out and "gradcheck" in out

    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "vbselect", "gradcheck"],
            capture_output=True, text=True, env=child_env(),
        )
        assert result.returncode == 0
        assert result.stdout.startswith("max_relative_error=")
        assert result.stderr == ""

    def test_module_invocation_reports_missing_option(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "vbselect", "eval", "--data", "x.csv"],
            capture_output=True, text=True, env=child_env(), cwd=tmp_path,
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == (
            "error: the following arguments are required: --model, --out\n"
        )
