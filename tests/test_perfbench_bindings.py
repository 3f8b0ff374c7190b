"""The vbselect names and values the benchmark under perfbench/ reads are still there.

``perfbench/run.py --trace 1`` wraps every name in ``tracer.TARGETS`` on the
module that binds it, and ``isolated_inference`` in ``perfbench/run.py``
calls the full-grid API directly. A traced run is the only other place
either would fail, so a change to src/ that drops one of these names fails
here instead. The tracer's work counters read the arguments and results of
the calls they wrap, so a small chain runs under the tracer here too. The
tracer is a standalone script, not part of the package, so it is imported
from its path.
"""

import ast
import importlib
import importlib.util
import math
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)


def _isolated_inference_reads():
    """(module, attribute) pairs isolated_inference reads, parsed from run.py.

    It reaches each module as ``modules["vbselect.x"]``, either directly or
    through a local name assigned from it, so every attribute read on one of
    those is a name the benchmark needs.
    """
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    func = next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "isolated_inference")

    def module_of(node):
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id == "modules" and isinstance(node.slice, ast.Constant)):
            return node.slice.value
        return None

    aliases = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    pairs = zip(target.elts, node.value.elts)
                else:
                    pairs = [(target, node.value)]
                for name, value in pairs:
                    if isinstance(name, ast.Name) and module_of(value):
                        aliases[name.id] = module_of(value)
    reads = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name):
                module = aliases.get(node.value.id)
            else:
                module = module_of(node.value)
            if module:
                reads.add((module, node.attr))
    return sorted(reads)


ISOLATED_INFERENCE = _isolated_inference_reads()

BOUND = [
    (module, name) for module, names in tracer.TARGETS.items() for name in names
] + ISOLATED_INFERENCE


@pytest.mark.parametrize("module,name", BOUND, ids=[f"{m}.{n}" for m, n in BOUND])
def test_name_is_bound_and_callable(module, name):
    value = getattr(importlib.import_module(module), name, None)
    assert callable(value), f"{module} no longer binds a callable {name}"


def test_isolated_inference_reads_the_grid_api():
    # Guards the parser above: if it stopped finding run.py's reads, the
    # table would shrink and the guard would pass vacuously.
    assert ("vbselect.inference", "predictive_posterior") in ISOLATED_INFERENCE
    assert len({module for module, _ in ISOLATED_INFERENCE}) >= 4


def test_traced_chain_closes_every_span_and_counts_its_work(tmp_path):
    modules = {name: importlib.import_module(name) for name in tracer.TARGETS}
    cli, dataset = modules["vbselect.cli"], importlib.import_module("vbselect.dataset")
    path = {name: str(tmp_path / name) for name in (
        "data.csv", "splits", "balanced.csv", "model.json", "trace.csv", "report", "curve.csv")}
    train_csv, val_csv, test_csv = (
        os.path.join(path["splits"], f"{part}.csv") for part in ("train", "val", "test"))
    chain = [
        ["gen", "--classes", "3", "--dim", "4", "--per-class", "30", "--out", path["data.csv"]],
        ["split", "--in", path["data.csv"], "--out", path["splits"]],
        ["balance", "--in", train_csv, "--out", path["balanced.csv"]],
        ["train", "--train", path["balanced.csv"], "--val", val_csv, "--epochs", "2",
         "--batch-size", "16", "--model-out", path["model.json"],
         "--trace-out", path["trace.csv"]],
        ["eval", "--model", path["model.json"], "--data", test_csv, "--mc-samples", "4",
         "--out", path["report"]],
        ["sweep", "--model", path["model.json"], "--data", test_csv, "--mc-samples", "4",
         "--out", path["curve.csv"]],
    ]
    traced = tracer.Tracer()
    with traced.installed(modules):
        for argv in chain:
            assert cli.entrypoint(argv) == 0, argv
    assert cli.train is importlib.import_module("vbselect.training").train

    assert traced.spans and all(span["end"] is not None for span in traced.spans)
    counters = {span_name: counter for names in tracer.TARGETS.values()
                for span_name, counter in names.values()}
    counted = {counters[span["name"]] for span in traced.spans if span["counts"]}
    assert {tracer._train_work, tracer._thresholds, tracer._fields,
            tracer._file_bytes} <= counted
    assert all(span["counts"] for span in traced.spans if counters[span["name"]])

    totals = traced.totals()[None]
    balanced = dataset.load_csv(path["balanced.csv"])
    n, d, k = balanced.n_samples, balanced.feature_dim, balanced.num_classes
    assert totals["training.train.steps"] == 2 * math.ceil(n / 16)
    assert totals["training.train.flops"] == 2 * 8 * n * d * k
    assert totals["selection.threshold_sweep.thresholds"] == 9
    loaded = [path["balanced.csv"], val_csv, test_csv, test_csv]
    assert totals["dataset.load_csv.fields"] == sum(
        dataset.load_csv(csv).n_samples * (d + 1) for csv in loaded)
    for span_name, written in (("dataset.save_csv", path["data.csv"]),
                               ("vbll.save_layer", path["model.json"]),
                               ("training.save_trace_csv", path["trace.csv"]),
                               ("selection.save_curve_csv", path["curve.csv"])):
        assert totals[span_name + ".bytes"] == os.path.getsize(written)
