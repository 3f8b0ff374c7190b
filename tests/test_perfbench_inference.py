"""perfbench's ``isolated_inference`` runs on the grid API that src binds.

``perfbench/run.py --trace 1`` calls ``isolated_inference`` once per
workload. It builds ``PredictionSet`` records positionally, reads their
``num_classes``, scores one with ``uncertainty_scores`` and writes a slice
with ``save_prob_samples_csv``. This test runs the function itself on a
small model, so a change that breaks any of those fails here and not only
in a traced benchmark run. run.py is a standalone script, so it is imported
from its path, with perfbench/ on sys.path for the modules beside it.
"""

import importlib
import importlib.util
import math
import os
from pathlib import Path

from vbselect.cli import entrypoint
from vbselect.dataset import load_csv

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("vbselect.cli", "vbselect.inference", "vbselect.vbll", "vbselect.dataset")


def load_run(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def test_isolated_inference_measures_a_trained_model(monkeypatch, tmp_path):
    data, splits = str(tmp_path / "full.csv"), str(tmp_path / "splits")
    model = str(tmp_path / "model.json")
    for argv in (
        ["gen", "--classes", "3", "--dim", "4", "--per-class", "250", "--seed", "1",
         "--out", data],
        ["split", "--in", data, "--seed", "1", "--out", splits],
        ["train", "--train", os.path.join(splits, "train.csv"),
         "--val", os.path.join(splits, "val.csv"), "--epochs", "3", "--seed", "1",
         "--model-out", model, "--trace-out", str(tmp_path / "trace.csv")],
    ):
        assert entrypoint(argv) == 0
    run = load_run(monkeypatch)
    # All 750 rows, as many as the pipeline workload scores: the timing loop
    # sums every time it took on each pass, so a much smaller grid would
    # spin it for minutes (see PredictionSet).
    work = tmp_path / "work"
    work.mkdir()
    modules = {name: importlib.import_module(name) for name in MODULES}

    metrics = run.isolated_inference(modules, model, data, 0, str(work), write_slice=True)

    assert set(metrics) == {
        "inference.grid_bytes", "inference.peak_alloc_mib", "inference.peak_alloc_per_grid",
        "inference.prediction_set.s", "inference.save_prob_samples_csv.s",
        "inference.save_prob_samples_csv.bytes",
    }
    n, s = load_csv(data).n_samples, int(run.MC_SAMPLES)
    assert metrics["inference.grid_bytes"] == n * s * 3 * 8
    assert all(math.isfinite(value) and value > 0 for value in metrics.values())
    # The slice holds every row here, one line per (row, draw) after the header.
    with open(work / "samples-slice.csv", encoding="utf-8") as handle:
        assert sum(1 for _ in handle) == 1 + n * s
    assert metrics["inference.save_prob_samples_csv.bytes"] == os.path.getsize(
        work / "samples-slice.csv")
