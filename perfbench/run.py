#!/usr/bin/env python3
"""vbselect benchmark: closed-loop CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0

One client, one process per workload: each CLI command runs in-process
through ``vbselect.cli.entrypoint`` and starts after the previous one
returns. The timed chain repeats for about ``--seconds`` (at least twice),
and times are medians over the passes, each command's time scaled to a fixed
host speed by reference-kernel samples taken around it (see reference.py).
``--trace 0`` reports the end-to-end
metrics named in BENCHMARK.json; ``--trace 1`` runs untraced and then traced
passes and reports the per-layer metrics. Every pass is checked (exit code,
empty stderr, sha256 of every artifact equal across passes, traced or not;
quality gates and the sweep/eval invariant on the first pass). The last
stdout line is one JSON object; the exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc

import checks
import reference
from tracer import TARGETS, Tracer
from workloads import MC_SAMPLES, WORKLOADS, outputs_of

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 9
# Prep commands run once per process, so a time taken only there (prep_s on
# wide and bulk-eval, train_s on bulk-eval) would rest on a single sample.
PREP_REPEATS = 3
READY = "import sys; sys.path.insert(0, 'src'); import vbselect.cli; print('ready', flush=True)"
# Off the pipeline workload the S=100 grid is too large to write, so the grid
# writer is timed on a leading slice holding as many values as pipeline's grid.
SLICE_VALUES = 750 * 100 * 5
PREP_COMMANDS = ("gen", "split", "balance")
COMPUTED = ("dataset.load_csv.fields", "dataset.load_csv.us_per_field",
            "training.steps", "training.step_flops", "training.step_us",
            "inference.grid_bytes", "inference.peak_alloc_per_grid")


def blas_threads():
    """OpenBLAS's own thread count, asked from the library numpy loaded."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(handle, name):
                return int(getattr(handle, name)())
    return None


def environment(seed, nproc):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": blas_threads(),
            "seed": seed}


def at_nominal_speed(seconds, ref_before, ref_after):
    """Seconds measured between two reference-kernel samples, scaled to the
    kernel's nominal host speed (see reference.py)."""
    ratio = reference.NOMINAL_S / ((ref_before + ref_after) / 2)
    return seconds * ratio**reference.ELASTICITY


def measure_setup(refs):
    """Median time, at nominal host speed, from spawning a fresh interpreter
    until vbselect.cli is imported. Kernel samples are appended to refs."""
    times = []
    refs.append(reference.sample())
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", READY], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as child:
            ready = child.stdout.readline().strip() == "ready"
            seconds = time.perf_counter() - start
        if not ready or child.returncode != 0:
            raise RuntimeError("set-up child did not import vbselect.cli")
        refs.append(reference.sample())
        times.append(at_nominal_speed(seconds, *refs[-2:]))
    return statistics.median(times)


class Runner:
    """Runs CLI commands in-process and records times, artifacts and failures."""

    def __init__(self, entrypoint, tracer, refs):
        self.entrypoint = entrypoint
        self.tracer = tracer
        self.refs = refs  # reference kernel samples, one before and after each command
        self.ops = []  # per command run: label, argv, seconds (scaled), wall_clock_s, failures

    def command(self, argv, label, traced):
        self.refs.append(reference.sample())
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if traced:
                span_index = len(self.tracer.spans)
                span = self.tracer.open("cli." + argv[0])
            start = time.perf_counter()
            code = self.entrypoint(argv)
            seconds = time.perf_counter() - start
            if traced:
                self.tracer.close(span)
        self.refs.append(reference.sample())
        op = {"label": label, "argv": argv, "wall_clock_s": seconds,
              "seconds": at_nominal_speed(seconds, *self.refs[-2:]), "failures": []}
        if traced:
            op["span"] = span_index
        if code != 0:
            op["failures"].append(f"exit code {code}")
        if err.getvalue():
            op["failures"].append(f"stderr: {err.getvalue().strip()[:200]}")
        self.ops.append(op)
        return op

    def find(self, label, command):
        """The op that ran `command` in pass `label`, else in prep."""
        for wanted in (label, "prep"):
            for op in self.ops:
                if op["label"] == wanted and op["argv"][0] == command:
                    return op
        raise KeyError(command)

    def owner(self, label, path):
        for op in self.ops:
            if op["label"] == label and any(
                path == out or path.startswith(out + os.sep) for out in outputs_of(op["argv"])
            ):
                return op
        raise KeyError(path)

    def command_seconds(self, commands):
        """Median over the timed passes of the summed time of `commands`;
        over the prep repeats for commands that run only in prep."""
        per_label = {}
        for op in self.ops:
            if op["argv"][0] in commands:
                per_label[op["label"]] = per_label.get(op["label"], 0.0) + op["seconds"]
        timed = [v for label, v in per_label.items() if not label.startswith("prep")]
        return statistics.median(timed or per_label.values())

    def failed(self):
        return sum(1 for op in self.ops if op["failures"])


def run_workload(workload, seed, seconds, trace, work, modules, refs):
    tracer = Tracer()
    runner = Runner(modules["vbselect.cli"].entrypoint, tracer, refs)

    def phase(traced):
        return tracer.installed(modules) if traced else contextlib.nullcontext()

    def check_digests(label, root, expected):
        found = checks.digests(root)
        if not expected:
            expected.update(found)
        for rel in sorted(set(found) | set(expected)):
            if found.get(rel) != expected.get(rel):
                runner.owner(label, os.path.join(root, rel))["failures"].append(
                    f"{rel}: sha256 differs from the first run")

    # The timed chain reads the first prep's outputs; repeats only add
    # timing samples and must reproduce the first prep byte for byte.
    inputs = os.path.join(work, "prep")
    tracer.pass_id = "prep"
    prep_expected = {}
    for repeat in range(1 if trace else PREP_REPEATS):
        label = "prep" if repeat == 0 else f"prep{repeat}"
        root = inputs if repeat == 0 else os.path.join(work, label)
        os.makedirs(root)
        with phase(trace):
            for argv in workload.prep(root, seed):
                runner.command(argv, label, trace)
        check_digests(label, root, prep_expected)
        if repeat:
            shutil.rmtree(root)

    walls = {False: [], True: []}  # traced? -> [pass seconds at nominal speed]
    expected = {}
    first_dir = os.path.join(work, "pass0")

    def passes(budget, min_passes, traced):
        start = time.perf_counter()
        while True:
            label = f"pass{sum(map(len, walls.values()))}"
            pass_dir = os.path.join(work, label)
            os.makedirs(pass_dir)
            commands = workload.chain(inputs, pass_dir, seed)
            tracer.pass_id = label
            gc.collect()
            pass_start = time.perf_counter()
            with phase(traced):
                ops = [runner.command(argv, label, traced) for argv in commands]
            pass_elapsed = time.perf_counter() - pass_start
            walls[traced].append(sum(op["seconds"] for op in ops))
            check_digests(label, pass_dir, expected)
            if pass_dir != first_dir:
                shutil.rmtree(pass_dir)
            elapsed = time.perf_counter() - start
            if len(walls[traced]) >= min_passes and elapsed + pass_elapsed > budget:
                return

    if trace:
        passes(seconds / 2, 1, traced=False)
        passes(seconds / 2, 1, traced=True)
    else:
        passes(seconds, 2, traced=False)

    trace_csv = os.path.join(first_dir, "trace.csv")
    if not os.path.exists(trace_csv):
        trace_csv = os.path.join(inputs, "trace.csv")
    quality = checks.quality(trace_csv, os.path.join(first_dir, "report"))
    found = checks.sweep_invariant_failures(os.path.join(first_dir, "sweep.csv"),
                                            quality["summary"])
    if workload.name == "pipeline":
        found += checks.gate_failures(quality)
    for command, message in found:
        runner.find("pass0", command)["failures"].append(message)

    if trace:
        model, data = workload.eval_inputs(inputs, first_dir)
        metrics = layer_metrics(tracer, walls, quality)
        metrics.update(isolated_inference(
            modules, model, data, seed, work,
            write_slice=metrics["inference.save_prob_samples_csv.s"] == 0.0))
        covered = tracer.subtree_self_times()
        for op in runner.ops:
            if "span" in op:
                span = tracer.spans[op["span"]]
                gap = span["end"] - span["start"] - covered[op["span"]]
                if abs(gap) > 1e-6:
                    op["failures"].append(f"layer and cli self times miss the span by {gap} s")
    else:
        metrics = {
            "wall_s": statistics.median(walls[False]),
            "prep_s": runner.command_seconds(PREP_COMMANDS),
            "train_s": runner.command_seconds(("train",)),
            "eval_s": runner.command_seconds(("eval",)),
            "sweep_s": runner.command_seconds(("sweep",)),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_share": 1.0 - runner.failed() / len(runner.ops),
            "val_acc": quality["val_acc"],
            # None when the gate accepts nothing; the pipeline gate fails then.
            "selective_acc": quality["selective_acc"] or 0.0,
        }
    passes_run = {"untraced": len(walls[False]), "traced": len(walls[True])}
    return runner, metrics, quality, tracer, passes_run


def layer_metrics(tracer, walls, quality):
    totals = tracer.totals()
    traced = [label for label in totals if label != "prep"]

    def value(field):
        """One execution of the workload: the prep once plus the median traced pass."""
        return totals["prep"].get(field, 0.0) + statistics.median(
            totals[label].get(field, 0.0) for label in traced)

    metrics = {}
    for names in TARGETS.values():
        for span_name, _ in names.values():
            metrics[span_name + ".s"] = value(span_name + ".s")
    for command in ("gen", "split", "balance", "train", "eval", "sweep"):
        metrics[f"cli.{command}.self_s"] = value(f"cli.{command}.s")
    fields = value("dataset.load_csv.fields")
    steps = value("training.train.steps")
    metrics.update({
        "dataset.load_csv.fields": fields,
        "dataset.load_csv.us_per_field": 1e6 * metrics["dataset.load_csv.s"] / fields,
        "dataset.save_csv.bytes": value("dataset.save_csv.bytes"),
        "training.steps": steps,
        "training.step_us": 1e6 * value("training.train.incl") / steps,
        "training.step_flops": value("training.train.flops") / steps,
        "vbll.kl_to_prior.calls_per_step": value("vbll.kl_to_prior.calls") / steps,
        "inference.save_prob_samples_csv.bytes": value("inference.save_prob_samples_csv.bytes"),
        "selection.threshold_sweep.thresholds": value("selection.threshold_sweep.thresholds"),
        "selection.aurc": quality["aurc"],
        "calibration.ece_value": quality["ece"],
        "cli.trace_overhead_s": statistics.median(walls[True]) - statistics.median(walls[False]),
    })
    return metrics


def isolated_inference(modules, model, data, seed, work, write_slice):
    """Inference costs timed outside the chain, on the workload's own eval data."""
    cli, inference = modules["vbselect.cli"], modules["vbselect.inference"]
    layer = modules["vbselect.vbll"].load_layer(model)
    ds = modules["vbselect.dataset"].load_csv(data)
    s = int(MC_SAMPLES)
    gc.collect()
    tracemalloc.start()
    try:
        pred = inference.predictive_posterior(
            layer, ds, mc_samples=s, seed=cli.role_seed(seed, "inference"))
        inference.uncertainty_scores(pred)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    grid_bytes = math.prod(pred.prob_samples.shape) * 8
    times = []
    while len(times) < 3 or sum(times) < 1.0:
        start = time.perf_counter()
        inference.PredictionSet(pred.prob_samples, pred.mean_probs, pred.predicted, s)
        times.append(time.perf_counter() - start)
    out = {
        "inference.grid_bytes": grid_bytes,
        "inference.peak_alloc_mib": peak / 2**20,
        "inference.peak_alloc_per_grid": peak / grid_bytes,
        "inference.prediction_set.s": statistics.median(times),
    }
    if write_slice:
        rows = math.ceil(SLICE_VALUES / (s * pred.num_classes))
        part = inference.PredictionSet(pred.prob_samples[:rows], pred.mean_probs[:rows],
                                       pred.predicted[:rows], s)
        path = os.path.join(work, "samples-slice.csv")
        start = time.perf_counter()
        inference.save_prob_samples_csv(part, path)
        out["inference.save_prob_samples_csv.s"] = time.perf_counter() - start
        out["inference.save_prob_samples_csv.bytes"] = os.path.getsize(path)
    return out


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return [(m["name"], m["unit"]) for m in json.load(handle)[kind]]


def run_one(args):
    if not os.path.isfile(os.path.join(SRC, "vbselect", "cli.py")):
        print(f"error: no vbselect sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    # OpenBLAS reads this once, when numpy loads it: cap its threads at nproc.
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "")
    if not threads.isdigit() or not 0 < int(threads) <= nproc:
        os.environ["OPENBLAS_NUM_THREADS"] = str(nproc)
    sys.path.insert(0, SRC)
    import vbselect.cli  # noqa: F401  (also compiles bytecode before set-up is timed)

    modules = {name: sys.modules[name] for name in (
        "vbselect.cli", "vbselect.training", "vbselect.inference",
        "vbselect.vbll", "vbselect.dataset")}
    names = declared("per_layer" if args.trace else "end_to_end")
    refs = []
    setup_s = None if args.trace else measure_setup(refs)
    env = environment(args.seed, nproc)
    work = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        runner, metrics, quality, tracer, passes_run = run_workload(
            WORKLOADS[args.workload], args.seed, args.seconds, args.trace, work, modules, refs)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)
    if setup_s is not None:
        metrics["setup_s"] = setup_s
    host_ref_s = statistics.median(refs)

    print("env " + json.dumps(env, sort_keys=True))
    print(f"passes {json.dumps(passes_run)}; commands run {len(runner.ops)}")
    pass_wall_clock = {}
    for op in runner.ops:
        if op["label"] != "prep":
            pass_wall_clock[op["label"]] = pass_wall_clock.get(op["label"], 0.0) + op["wall_clock_s"]
    print(f"reference kernel median {host_ref_s * 1e3:.3f} ms over {len(refs)} samples "
          f"(nominal {reference.NOMINAL_S * 1e3:.1f} ms); median pass "
          f"{statistics.median(pass_wall_clock.values()):.4g} s wall-clock")
    for name, unit in names:
        tag = " (computed)" if name in COMPUTED else ""
        print(f"{args.workload:>9}  {name:<40} {metrics[name]:>14.6g} {unit}{tag}")
    print(f"quality val_acc={quality['val_acc']} selective_acc={quality['selective_acc']} "
          f"ece={quality['ece']} aurc={quality['aurc']}")
    for op in runner.ops:
        for message in op["failures"]:
            print(f"FAIL {op['label']} {op['argv'][0]}: {message}")

    os.makedirs(OUT_ROOT, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "passes": passes_run,
              "host_ref_s": host_ref_s,
              "metrics": {name: metrics[name] for name, _ in names},
              "computed": [name for name, _ in names if name in COMPUTED],
              "quality": {k: v for k, v in quality.items() if k != "summary"},
              "commands": runner.ops,
              "spans": tracer.spans}
    out_path = os.path.join(
        OUT_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)

    failed = runner.failed()
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runner.ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names},
    }))
    return 0 if failed == 0 else 1


def run_all(args):
    """Each workload in its own process; prints all metrics, fails if any run failed."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or child.returncode
        if child.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
