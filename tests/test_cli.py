"""End-to-end tests for the command-line interface.

Commands are exercised in-process through ``entrypoint`` so exit codes,
stdout, and stderr can be asserted exactly; one subprocess test covers the
``python -m vbselect`` wiring.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import vbselect
from vbselect import cli, inference
from vbselect.calibration import ece
from vbselect.cli import entrypoint, role_seed
from vbselect.dataset import (
    FeatureDataset,
    SplitRatios,
    SyntheticConfig,
    generate_synthetic,
    load_csv,
    save_csv,
    stratified_split,
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

    def test_config_file_supplies_options(self, capsys, tmp_path):
        out = os.path.join(tmp_path, "data.csv")
        config = os.path.join(tmp_path, "config.json")
        with open(config, "w", encoding="utf-8") as handle:
            json.dump({
                "num_classes": 4, "feature_dim": 6, "samples_per_class": 12,
                "seed": 3, "out": out,
            }, handle)
        code, _, err = run_cli(capsys, ["gen", "--config", config])
        assert_clean_success(code, err)
        ds = load_csv(out)
        assert ds.num_classes == 4
        assert ds.feature_dim == 6
        assert tuple(ds.class_counts()) == (12, 12, 12, 12)

    def test_flags_override_config(self, capsys, tmp_path):
        out = os.path.join(tmp_path, "data.csv")
        config = os.path.join(tmp_path, "config.json")
        with open(config, "w", encoding="utf-8") as handle:
            json.dump({
                "num_classes": 4, "feature_dim": 6, "samples_per_class": 12,
                "out": out,
            }, handle)
        code, _, err = run_cli(capsys, [
            "gen", "--config", config, "--dim", "9",
        ])
        assert_clean_success(code, err)
        assert load_csv(out).feature_dim == 9

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        config = os.path.join(tmp_path, "config.json")
        with open(config, "w", encoding="utf-8") as handle:
            json.dump({"num_classes": 3, "typo_key": 1}, handle)
        code, _, err = run_cli(capsys, ["gen", "--config", config])
        assert_single_line_error(code, err, 1)
        assert "typo_key" in err

    def test_missing_required_option(self, capsys):
        code, _, err = run_cli(capsys, ["gen", "--classes", "3"])
        assert_single_line_error(code, err, 1)
        assert "out" in err


class TestConfigTypes:
    """A config value must have the JSON type the option's flag would give."""

    @staticmethod
    def argv(command, pipeline, out):
        return {
            "gen": ["gen", "--out", out],
            "balance": ["balance", "--in", pipeline["data"], "--out", out],
            "train": [
                "train", "--train", os.path.join(pipeline["splits"], "train.csv"),
                "--val", pipeline["val"], "--model-out", out,
                "--trace-out", out + ".trace",
            ],
            "eval": ["eval", "--model", pipeline["model"], "--data", pipeline["val"],
                     "--out", out],
            "sweep": ["sweep", "--model", pipeline["model"], "--data", pipeline["val"],
                      "--out", out],
        }[command]

    @pytest.mark.parametrize("command,config", [
        ("gen", {"num_classes": None}),
        ("gen", {"feature_dim": [3]}),
        ("gen", {"samples_per_class": 2.5}),
        ("gen", {"samples_per_class": [2, 3.0]}),
        ("gen", {"seed": True}),
        ("gen", {"noise_scale": True}),
        ("gen", {"class_separation": "4.0"}),
        ("balance", {"target": [80.5]}),
        ("train", {"epochs": 1.9}),
        ("eval", {"save_samples": "false"}),
        ("eval", {"ece_accepted_only": 1}),
        ("eval", {"threshold": None}),
        ("sweep", {"grid": [0.5, True]}),
        # JSON integers beyond float64 range pass the type check but must
        # still end in one error line.
        pytest.param("train", {"learning_rate": 10**400}, id="train-learning_rate-1e400"),
        pytest.param("sweep", {"grid": [0.5, 10**400]}, id="sweep-grid-1e400"),
    ], ids=lambda value: value if isinstance(value, str) else json.dumps(value))
    def test_mistyped_value_rejected(self, capsys, pipeline, tmp_path, command, config):
        path = os.path.join(tmp_path, "config.json")
        small = {"num_classes": 2, "feature_dim": 3, "samples_per_class": 5}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**small, **config} if command == "gen" else config, handle)
        out = os.path.join(tmp_path, "out")
        code, _, err = run_cli(
            capsys, self.argv(command, pipeline, out) + ["--config", path]
        )
        assert_single_line_error(code, err, 1)
        assert repr(next(iter(config))) in err
        assert not os.path.exists(out)

    def test_deeply_nested_config_rejected(self, capsys, tmp_path):
        path = os.path.join(tmp_path, "config.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"seed": ' + "[" * 50_000 + "]" * 50_000 + "}")
        out = os.path.join(tmp_path, "out")
        code, _, err = run_cli(capsys, ["gen", "--config", path, "--out", out])
        assert_single_line_error(code, err, 1)
        assert err == f"error: {path}: JSON nests too deeply to parse\n"
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
            "overall_accuracy", "n_samples", "threshold", "mc_samples",
            "seed", "toolkit_version",
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

    def test_save_samples_flag(self, capsys, pipeline, tmp_path):
        out = os.path.join(tmp_path, "eval")
        code, _, err = self.run_eval(capsys, pipeline, out, ["--save-samples"])
        assert_clean_success(code, err)
        path = os.path.join(out, "samples.csv")
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert lines[0] == "index,sample,p0,p1,p2"
        assert len(lines) == 1 + 36 * 20

    def test_failed_chunk_leaves_no_partial_report(
        self, capsys, pipeline, tmp_path, monkeypatch
    ):
        # Four rows per chunk at S = 20, K = 3. Row 5, in the second chunk,
        # lies along the signs of class 0's weights, so its class-0 logit
        # overflows to inf once the first chunk's samples were written. The
        # engine names the row; its own softmax output is never re-checked
        # by _check_probs, which only guards caller-supplied grids.
        monkeypatch.setattr(inference, "_CHUNK_BYTES", 4 * 20 * 3 * 8)
        data = write_overflow_csv(pipeline, tmp_path, 5)
        calls = {"check": 0, "write": 0}
        real_write = inference._write_sample_rows

        def counting_check(probs):
            calls["check"] += 1

        def counting_write(handle, start, probs):
            calls["write"] += 1
            real_write(handle, start, probs)

        monkeypatch.setattr(inference, "_check_probs", counting_check)
        monkeypatch.setattr(inference, "_write_sample_rows", counting_write)
        out = os.path.join(tmp_path, "eval")
        code, _, err = run_cli(capsys, [
            "eval", "--model", pipeline["model"], "--data", data,
            "--threshold", "0.7", "--seed", "7", "--out", out, "--save-samples",
        ])
        assert_single_line_error(code, err, 1)
        assert "data row 5: logits are not finite under posterior draw 0" in err
        assert calls == {"check": 0, "write": 1}
        assert os.listdir(out) == []

    def test_accepted_only_ece(self, capsys, pipeline, tmp_path):
        out = os.path.join(tmp_path, "eval")
        code, _, err = self.run_eval(
            capsys, pipeline, out, ["--ece-accepted-only"]
        )
        assert_clean_success(code, err)
        with open(os.path.join(out, "summary.json"), encoding="utf-8") as handle:
            summary = json.load(handle)
        with open(os.path.join(out, "predictions.csv"), encoding="utf-8") as handle:
            rows = [line.split(",") for line in handle.read().splitlines()[1:]]
        confidence = np.array([float(r[3]) for r in rows])
        correctness = np.array([r[1] == r[2] for r in rows])
        mask = confidence >= 0.7
        assert ece(confidence[mask], correctness[mask], 15).ece == summary["ece"]

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

    @pytest.mark.parametrize("depth", [500, 50_000])
    def test_deeply_nested_model_rejected(self, capsys, pipeline, tmp_path, depth):
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
        assert not os.path.exists(out)

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

    def test_sweep_row_matches_eval(self, capsys, pipeline, tmp_path):
        curve_path = os.path.join(tmp_path, "curve.csv")
        eval_out = os.path.join(tmp_path, "eval")
        run_cli(capsys, [
            "sweep", "--model", pipeline["model"], "--data", pipeline["val"],
            "--seed", "7", "--out", curve_path,
        ])
        run_cli(capsys, [
            "eval", "--model", pipeline["model"], "--data", pipeline["val"],
            "--threshold", "0.7", "--seed", "7", "--out", eval_out,
        ])
        with open(os.path.join(eval_out, "summary.json"), encoding="utf-8") as handle:
            summary = json.load(handle)
        with open(curve_path, encoding="utf-8") as handle:
            rows = [line.split(",") for line in handle.read().splitlines()[1:]]
        row = next(r for r in rows if float(r[0]) == 0.7)
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

    def test_unsorted_grid_rejected(self, capsys, pipeline, tmp_path):
        code, _, err = run_cli(capsys, [
            "sweep", "--model", pipeline["model"], "--data", pipeline["val"],
            "--grid", "0.8,0.6", "--out", os.path.join(tmp_path, "c.csv"),
        ])
        assert_single_line_error(code, err, 1)
        assert err == "error: grid must be strictly increasing\n"

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

    def test_huge_per_class(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "generate_synthetic", _refuse_allocation)
        out = os.path.join(tmp_path, "data.csv")
        code, _, err = run_cli(capsys, [
            "gen", "--per-class", "1000000000000", "--out", out,
        ])
        assert_single_line_error(code, err, 1)
        assert err.startswith("error: out of memory: Unable to allocate")
        assert not os.path.exists(out)


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
        # The child must import the same vbselect as this process, whether
        # that came from an install, PYTHONPATH or pytest's pythonpath.
        src = os.path.dirname(os.path.dirname(vbselect.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
        result = subprocess.run(
            [sys.executable, "-m", "vbselect", "gradcheck"],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("max_relative_error=")
        assert result.stderr == ""
