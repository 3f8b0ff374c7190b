"""The benchmark's workloads, written as vbselect CLI command chains.

Every workload is a function of its directory layout and the workload seed:
``prep`` commands build the inputs once per process and are not part of the
timed chain; ``chain`` commands form one timed pass and write only below the
pass directory, so two passes can be compared file by file.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

# README scale with unequal classes, so `balance` synthesises 2100 SMOTE rows.
PIPELINE_GEN = ["--classes", "5", "--dim", "16", "--per-class", "1600,1200,1000,700,500"]
README_GEN = ["--classes", "5", "--dim", "16", "--per-class", "1000"]
WIDE_GEN = ["--classes", "100", "--dim", "256", "--per-class", "50"]
BULK_GEN = ["--classes", "5", "--dim", "16", "--per-class", "20000"]
MC_SAMPLES = "100"

# Flags whose value names a file or directory the command writes.
OUTPUT_FLAGS = ("--out", "--model-out", "--trace-out")


def _data_prep(gen_flags, out, seed):
    """gen -> split -> balance into `out`, as in the README chain."""
    s = str(seed)
    data, splits = os.path.join(out, "data.csv"), os.path.join(out, "splits")
    return [
        ["gen", *gen_flags, "--seed", s, "--out", data],
        ["split", "--in", data, "--seed", s, "--out", splits],
        ["balance", "--in", os.path.join(splits, "train.csv"), "--seed", s,
         "--out", os.path.join(out, "balanced.csv")],
    ]


def _train(data_dir, out, seed):
    return ["train", "--train", os.path.join(data_dir, "balanced.csv"),
            "--val", os.path.join(data_dir, "splits", "val.csv"), "--epochs", "30",
            "--seed", str(seed), "--model-out", os.path.join(out, "model.json"),
            "--trace-out", os.path.join(out, "trace.csv")]


def _eval_sweep(model, data, out, seed, *eval_flags):
    """eval and sweep at one S, so the sweep's tau=0.7 row must equal the report."""
    s = str(seed)
    return [
        ["eval", "--model", model, "--data", data, "--threshold", "0.7",
         "--mc-samples", MC_SAMPLES, *eval_flags, "--seed", s,
         "--out", os.path.join(out, "report")],
        ["sweep", "--model", model, "--data", data, "--mc-samples", MC_SAMPLES,
         "--seed", s, "--out", os.path.join(out, "sweep.csv")],
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prep: Callable[[str, int], list]  # (inputs dir, seed) -> commands
    chain: Callable[[str, str, int], list]  # (inputs dir, pass dir, seed) -> commands
    eval_inputs: Callable[[str, str], tuple]  # (inputs dir, pass dir) -> (model, data)


def _pipeline_chain(inputs, out, seed):
    test = os.path.join(out, "splits", "test.csv")
    return [
        *_data_prep(PIPELINE_GEN, out, seed),
        _train(out, out, seed),
        *_eval_sweep(os.path.join(out, "model.json"), test, out, seed, "--save-samples"),
    ]


def _wide_chain(inputs, out, seed):
    test = os.path.join(inputs, "splits", "test.csv")
    return [_train(inputs, out, seed),
            *_eval_sweep(os.path.join(out, "model.json"), test, out, seed)]


def _bulk_prep(inputs, seed):
    # The README chain trains the model; its eval and sweep on the small test
    # split also warm every code path the timed passes use, so the first timed
    # pass is not a cold outlier. gen draws the class means before the
    # samples, so the 100k-row set shares the README set's class geometry.
    model = os.path.join(inputs, "model.json")
    return [
        *_data_prep(README_GEN, inputs, seed),
        _train(inputs, inputs, seed),
        *_eval_sweep(model, os.path.join(inputs, "splits", "test.csv"),
                     os.path.join(inputs, "readme"), seed),
        ["gen", *BULK_GEN, "--seed", str(seed), "--out", os.path.join(inputs, "bulk.csv")],
    ]


def _bulk_chain(inputs, out, seed):
    return _eval_sweep(os.path.join(inputs, "model.json"),
                       os.path.join(inputs, "bulk.csv"), out, seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pipeline",
            "full README chain with a 2100-row SMOTE balance and a saved S=100 grid: "
            "per-command overhead, small CSV I/O and the grid writer",
            prep=lambda inputs, seed: [],
            chain=_pipeline_chain,
            eval_inputs=lambda inputs, out: (os.path.join(out, "model.json"),
                                             os.path.join(out, "splits", "test.csv")),
        ),
        Workload(
            "wide",
            "K=100, D=256 head: README step count at 25.6k parameters, so training "
            "is bound by matmuls, noise draws and Adam, not Python overhead",
            prep=lambda inputs, seed: _data_prep(WIDE_GEN, inputs, seed),
            chain=_wide_chain,
            eval_inputs=lambda inputs, out: (os.path.join(out, "model.json"),
                                             os.path.join(inputs, "splits", "test.csv")),
        ),
        Workload(
            "bulk-eval",
            "eval and sweep at S=100 on 100k rows, no training: the 0.38 GiB "
            "sample grid, scoring, gating and a large CSV parse",
            prep=_bulk_prep,
            chain=_bulk_chain,
            eval_inputs=lambda inputs, out: (os.path.join(inputs, "model.json"),
                                             os.path.join(inputs, "bulk.csv")),
        ),
    )
}


def outputs_of(argv):
    """Paths a command writes, from its output flags."""
    return [argv[i + 1] for i, flag in enumerate(argv[:-1]) if flag in OUTPUT_FLAGS]
