"""Command-line interface wiring the toolkit into reproducible runs.

Commands: gen, split, balance, train, eval, sweep, gradcheck. Every option
can come from a ``--config`` JSON file (keys named like the option
destinations); explicit flags override config values, and unknown config
keys are rejected. All randomness flows from one ``--seed`` flag, fanned out
to per-role sub-seeds (gen/split/balance/init/train/inference) so that every
command is a deterministic function of its inputs, flags, and seed.

Exit codes: 0 success, 1 validation error or a request too large for memory,
2 I/O error, 3 numerical failure (non-finite values encountered during
training). Error paths print a single diagnostic line to stderr; success
paths print nothing there. Every output file is written atomically, so a
failed command never leaves a half-written one behind. A command with
several outputs (split, train, eval) first removes every one it is about to
write, and writes last the one a reader opens first (model.json,
summary.json): after a failure, the outputs left all come from one run.

``eval`` and ``sweep`` score the posterior with ``score_posterior``, which
streams row chunks and never builds the N x S x K sample grid in memory;
``eval --save-samples`` has it write that grid to ``samples.npy``. Both
check their option values (sample count, threshold or grid, bin count) with
the library's own rules before they read a file.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .calibration import (
    check_num_bins,
    confidence_histogram,
    ece,
    save_calibration_json,
    save_histogram_csv,
)
# stratified_split is unused here but stays bound: perfbench/tracer.py wraps it.
from .dataset import (  # noqa: F401
    SplitRatios,
    SyntheticConfig,
    csv_preamble,
    format_rows,
    generate_synthetic,
    load_csv,
    load_csv_rows,
    save_csv,
    smote_oversample,
    stratified_split,
    stratified_split_indices,
)
from .atomic import write_json, write_lines
from .blas import one_blas_thread
# predictive_posterior, uncertainty_scores and save_prob_samples_csv are
# unused here but stay bound: perfbench/tracer.py wraps these names.
from .inference import (  # noqa: F401
    check_mc_samples,
    predictive_posterior,
    save_predictions_csv,
    save_prob_samples_csv,
    score_posterior,
    uncertainty_scores,
)
from .selection import (
    MEASURES,
    apply_rejection,
    check_grid,
    check_threshold,
    confusion_matrix,
    save_confusion_csv,
    save_curve_csv,
    threshold_sweep,
)
from .training import (
    LayerInitConfig,
    NonFiniteError,
    TrainConfig,
    gradcheck,
    gradcheck_instance,
    save_trace_csv,
    train,
)
from .vbll import json_value_text, load_layer, read_json, save_layer

__all__ = ["entrypoint", "main", "role_seed"]

GRADCHECK_TOLERANCE = 1e-4

# Fixed role labels for fanning the global seed out to sub-seeds. The ids are
# part of the determinism contract: changing them changes every artifact.
_ROLES = {"gen": 0, "split": 1, "balance": 2, "init": 3, "train": 4, "inference": 5}


def role_seed(seed: int, role: str) -> int:
    """Derive the deterministic sub-seed used for one pipeline role."""
    sequence = np.random.SeedSequence([int(seed), _ROLES[role]])
    return int(sequence.generate_state(1)[0])


class _Parser(argparse.ArgumentParser):
    """argparse that reports problems as ValueError instead of exiting."""

    def error(self, message):
        raise ValueError(message)


@dataclass(frozen=True)
class _Option:
    flag: str
    dest: str
    kind: object  # int, float, str, or the literal string "flag"
    default: object
    help: str
    required: bool = False


_SEED = _Option("--seed", "seed", int, 0, "global seed; fanned out per role")
_MODEL = _Option("--model", "model", str, None, "model JSON path", required=True)
_DATA = _Option("--data", "data", str, None, "evaluation dataset CSV", required=True)
_MEASURE = _Option("--measure", "measure", str, "confidence",
                   "gate measure: confidence, entropy, or mutual_info")
_MC_SAMPLES = _Option("--mc-samples", "mc_samples", int, 20, "posterior samples")

# command -> (help, options). An option whose dest names a library config
# field takes its default from that field, so each default is declared once.
_COMMANDS = {
    "gen": ("generate a synthetic blob dataset CSV", [
        _Option("--classes", "num_classes", int, 5, "number of classes"),
        _Option("--dim", "feature_dim", int, 16, "feature dimension"),
        _Option("--per-class", "samples_per_class", str, "1000",
                "per-class count, or a comma list with one count per class"),
        _Option("--separation", "class_separation", float,
                SyntheticConfig.class_separation,
                "radius of the sphere holding class means"),
        _Option("--noise", "noise_scale", float, SyntheticConfig.noise_scale,
                "isotropic noise scale"),
        _SEED,
        _Option("--out", "out", str, None, "output CSV path", required=True),
    ]),
    "split": ("stratified train/val/test split of a dataset CSV", [
        _Option("--in", "in_path", str, None, "input dataset CSV", required=True),
        _Option("--train", "train", float, SplitRatios.train, "training fraction"),
        _Option("--val", "val", float, SplitRatios.val, "validation fraction"),
        _Option("--test", "test", float, SplitRatios.test, "test fraction"),
        _SEED,
        _Option("--out", "out", str, None,
                "output directory for train/val/test CSVs", required=True),
    ]),
    "balance": ("oversample minority classes by interpolation", [
        _Option("--in", "in_path", str, None, "input dataset CSV", required=True),
        _Option("--target", "target", str, None,
                "per-class target count or comma list; default: largest class"),
        _Option("--k-neighbors", "k_neighbors", int, 5,
                "neighbors considered per synthetic point"),
        _SEED,
        _Option("--out", "out", str, None, "output CSV path", required=True),
    ]),
    "train": ("fit the variational layer and write model + trace", [
        _Option("--train", "train", str, None, "training split CSV", required=True),
        _Option("--val", "val", str, None, "validation split CSV", required=True),
        _Option("--epochs", "epochs", int, TrainConfig.epochs, "training epochs"),
        _Option("--batch-size", "batch_size", int, TrainConfig.batch_size,
                "minibatch size"),
        _Option("--lr", "learning_rate", float, TrainConfig.learning_rate,
                "Adam learning rate"),
        _Option("--adam-beta1", "adam_beta1", float, TrainConfig.adam_beta1,
                "Adam beta1"),
        _Option("--adam-beta2", "adam_beta2", float, TrainConfig.adam_beta2,
                "Adam beta2"),
        _Option("--adam-eps", "adam_epsilon", float, TrainConfig.adam_epsilon,
                "Adam epsilon"),
        _Option("--mc-passes", "train_mc_samples", int, TrainConfig.train_mc_samples,
                "Monte Carlo passes per training step"),
        _Option("--patience", "early_stop_patience", int, TrainConfig.early_stop_patience,
                "early-stopping patience in epochs (off when omitted)"),
        _Option("--mu-init-scale", "mu_init_scale", float, LayerInitConfig.mu_init_scale,
                "uniform init range for posterior means"),
        _Option("--rho-init", "rho_init", float, LayerInitConfig.rho_init,
                "initial rho (sigma = softplus(rho))"),
        _Option("--prior-scale", "prior_scale", float, LayerInitConfig.prior_scale,
                "prior standard deviation"),
        _SEED,
        _Option("--model-out", "model_out", str, None,
                "output model JSON path", required=True),
        _Option("--trace-out", "trace_out", str, None,
                "output training-trace CSV path", required=True),
    ]),
    "eval": ("rejection + calibration report for a trained model", [
        _MODEL, _DATA,
        _Option("--threshold", "threshold", float, 0.7, "rejection threshold"),
        _MEASURE, _MC_SAMPLES,
        _Option("--ece-bins", "ece_bins", int, 15, "calibration bins"),
        _Option("--save-samples", "save_samples", "flag", False,
                "also write the full posterior sample grid to samples.npy"),
        _SEED,
        _Option("--out", "out", str, None, "output directory", required=True),
    ]),
    "sweep": ("rejection metrics across a threshold grid", [
        _MODEL, _DATA,
        _Option("--grid", "grid", str, None,
                "comma list of thresholds; default 0.50..0.90 step 0.05"),
        _MEASURE, _MC_SAMPLES,
        _SEED,
        _Option("--out", "out", str, None, "output curve CSV path", required=True),
    ]),
    "gradcheck": ("compare analytic gradients against finite differences", [
        _Option("--classes", "num_classes", int, 3, "problem classes"),
        _Option("--dim", "feature_dim", int, 4, "problem feature dimension"),
        _Option("--batch-size", "batch_size", int, 8, "problem batch size"),
        _Option("--h", "h", float, 1e-5, "finite-difference step"),
        _SEED,
    ]),
}


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="vbselect",
        description="Selective prediction with a variational Bayesian linear head.",
    )
    subparsers = parser.add_subparsers(
        dest="command", metavar="command", required=True, parser_class=_Parser
    )
    for command, (help_text, options) in _COMMANDS.items():
        sub = subparsers.add_parser(command, help=help_text)
        sub.add_argument(
            "--config", dest="config", type=str, default=None,
            help="JSON file of option values; flags override it",
        )
        for option in options:
            if option.kind == "flag":
                kind = {"action": "store_true"}
            else:
                choices = MEASURES if option.dest == "measure" else None
                kind = {"type": option.kind, "choices": choices}
            sub.add_argument(
                option.flag, dest=option.dest, default=None, help=option.help, **kind
            )
    return parser


# The JSON types a config value may have, by option kind; bool is a type of
# its own here, so true/false never pass for a number. The options whose flag
# takes a comma list also take a JSON list, and counts a bare integer.
_CONFIG_TYPES = {
    int: ("an integer", (int,)),
    float: ("a number", (int, float)),
    str: ("a string", (str,)),
    "flag": ("true or false", (bool,)),
}
_COUNTS = ("a string, an integer or a list of integers", (str, int), (int,))
_CONFIG_LISTS = {
    "samples_per_class": _COUNTS,
    "target": _COUNTS,
    "grid": ("a string or a list of numbers", (str,), (int, float)),
}


def _check_config_value(option: _Option, value) -> None:
    """Reject a config value of a JSON type the option's flag could not give."""
    what, types = _CONFIG_TYPES[option.kind]
    items = ()
    if option.dest in _CONFIG_LISTS:
        what, types, items = _CONFIG_LISTS[option.dest]
    if value is None:
        ok = option.default is None
    elif type(value) is list:
        ok = bool(items) and all(type(item) in items for item in value)
    else:
        ok = type(value) in types
    if not ok:
        raise ValueError(
            f"config key {option.dest!r} must be {what}, got {json_value_text(value)}"
        )


def _merge_options(args: argparse.Namespace, options: list[_Option]) -> dict:
    """Overlay flags > config file > defaults; reject unknown or mistyped config keys.

    Every error in the config file's contents names the file.
    """
    allowed = {option.dest for option in options}
    config = {}
    if args.config is not None:
        config = read_json(args.config)
        if not isinstance(config, dict):
            raise ValueError(f"{args.config}: config file must hold a JSON object")
        unknown = sorted(set(config) - allowed)
        if unknown:
            raise ValueError(f"{args.config}: unknown config keys: {unknown}")
    merged = {}
    for option in options:
        if option.dest in config:
            try:
                _check_config_value(option, config[option.dest])
            except ValueError as exc:
                raise ValueError(f"{args.config}: {exc}") from None
        value = getattr(args, option.dest)
        if value is None:
            value = config.get(option.dest, option.default)
        if value is None and option.required:
            raise ValueError(f"missing required option {option.flag}")
        try:
            if value is not None and option.kind is float:
                value = float(value)
            elif type(value) is list and float in _CONFIG_LISTS[option.dest][2]:
                value = [float(item) for item in value]  # a config file's grid
        except OverflowError:  # a config file's JSON integer beyond 1.8e308
            raise ValueError(
                f"{args.config}: config key {option.dest!r} must be within float64 range"
            ) from None
        merged[option.dest] = value
    return merged


def _parse_counts(value, num_classes: int) -> tuple:
    """Accept an int, a comma string, or a list of ints; broadcast singletons."""
    if isinstance(value, str):
        try:
            value = [int(piece) for piece in value.split(",")]
        except ValueError:
            raise ValueError(f"cannot parse class counts from {value!r}") from None
    parts = value if isinstance(value, list) else [value]
    if len(parts) == 1:
        if num_classes > sys.maxsize:  # where repeating a list overflows
            raise ValueError(
                f"num_classes {num_classes} exceeds the largest list length, {sys.maxsize}"
            )
        parts = parts * num_classes
    return tuple(parts)


def _parse_grid(value):
    """Floats from a comma string; a config file's list (already floats) and None pass through."""
    if not isinstance(value, str):
        return value
    try:
        return [float(piece) for piece in value.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse threshold grid from {value!r}") from None


def _config(cls, opts: dict, **values):
    """A `cls` config from the options named like its fields, overlaid by `values`."""
    return cls(**{field.name: opts[field.name] for field in fields(cls)} | values)


def _remove_outputs(paths) -> None:
    """Unlink the output paths, given in the order written, last one first.

    So none is left from an earlier run, and if one cannot be removed, the
    last, whose presence marks a complete set, is already gone.
    """
    for path in reversed(paths):
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)


def _cmd_gen(opts: dict) -> int:
    counts = _parse_counts(opts["samples_per_class"], opts["num_classes"])
    config = _config(SyntheticConfig, opts, samples_per_class=counts)
    ds = generate_synthetic(config, seed=role_seed(opts["seed"], "gen"))
    save_csv(ds, opts["out"])
    return 0


def _cmd_split(opts: dict) -> int:
    # Each part's rows keep their input text: a %.17g row reloads bit for
    # bit, so formatting it again would only write the same text.
    ds, rows = load_csv_rows(opts["in_path"])
    ratios = _config(SplitRatios, opts)
    parts = stratified_split_indices(ds, ratios, seed=role_seed(opts["seed"], "split"))
    os.makedirs(opts["out"], exist_ok=True)
    paths = [os.path.join(opts["out"], f"{name}.csv") for name in ("train", "val", "test")]
    _remove_outputs(paths)
    for path, part in zip(paths, parts):
        write_lines(path, csv_preamble(ds) + [rows[i] for i in part.tolist()])
    return 0


def _cmd_balance(opts: dict) -> int:
    ds, rows = load_csv_rows(opts["in_path"])
    if opts["target"] is None:
        targets = (max(ds.class_counts()),) * ds.num_classes
    else:
        targets = _parse_counts(opts["target"], ds.num_classes)
    balanced = smote_oversample(
        ds, targets, opts["k_neighbors"], seed=role_seed(opts["seed"], "balance")
    )
    # The originals come first, in input order, and keep their text; only
    # the synthesized rows are formatted.
    n = ds.n_samples
    synthetic = format_rows(balanced.features[n:], balanced.labels[n:])
    write_lines(opts["out"], [*csv_preamble(ds), *rows, *synthetic])
    return 0


def _cmd_train(opts: dict) -> int:
    train_ds = load_csv(opts["train"])
    val_ds = load_csv(opts["val"])
    init_config = _config(LayerInitConfig, opts, seed=role_seed(opts["seed"], "init"))
    config = _config(TrainConfig, opts, seed=role_seed(opts["seed"], "train"))
    layer, trace = train(train_ds, val_ds, init_config, config)
    _remove_outputs([opts["trace_out"], opts["model_out"]])
    save_trace_csv(trace, opts["trace_out"])
    save_layer(layer, opts["model_out"])
    return 0


def _load_eval_inputs(opts: dict):
    """The model and dataset, checked against each other."""
    layer = load_layer(opts["model"])
    ds = load_csv(opts["data"])
    if ds.feature_dim != layer.feature_dim:
        raise ValueError(
            f"model/data feature dimension mismatch: "
            f"{layer.feature_dim} vs {ds.feature_dim}"
        )
    if ds.num_classes != layer.num_classes:
        raise ValueError(
            f"model/data class count mismatch: "
            f"{layer.num_classes} vs {ds.num_classes}"
        )
    return layer, ds


def _score(layer, ds, opts: dict, samples=None, mutual_info=True):
    return score_posterior(
        layer, ds, mc_samples=opts["mc_samples"],
        seed=role_seed(opts["seed"], "inference"), samples=samples,
        mutual_info=mutual_info,
    )


# Every file eval writes into --out, in the order written: summary.json,
# which a reader opens first, goes last. All are removed before the first
# write, samples.npy even without --save-samples, so no file is left from
# an earlier run.
_EVAL_OUTPUTS = (
    "samples.npy", "predictions.csv", "histogram.csv", "confusion_all.csv",
    "confusion_accepted.csv", "calibration.json", "summary.json",
)


def _cmd_eval(opts: dict) -> int:
    # Option values first, so that a bad one costs no parse, scoring or write.
    check_mc_samples(opts["mc_samples"])
    check_threshold(opts["threshold"], opts["measure"])
    check_num_bins(opts["ece_bins"])
    layer, ds = _load_eval_inputs(opts)
    out = opts["out"]
    os.makedirs(out, exist_ok=True)
    paths = [os.path.join(out, name) for name in _EVAL_OUTPUTS]
    _remove_outputs(paths)
    samples = os.path.join(out, "samples.npy") if opts["save_samples"] else None
    posterior = _score(layer, ds, opts, samples)
    try:
        _write_eval_reports(ds, posterior, opts)
    except BaseException:
        # A report that fails (on a full disk, say) leaves no samples.npy,
        # which can be far larger than every report together.
        _remove_outputs(paths)
        raise
    return 0


def _write_eval_reports(ds, posterior, opts: dict) -> None:
    report = apply_rejection(
        posterior, ds.labels, opts["threshold"], measure=opts["measure"]
    )
    confidence = posterior.confidence
    correctness = posterior.predicted == ds.labels
    calibration = ece(confidence, correctness, opts["ece_bins"])
    # The marker is a point on the confidence axis: only a confidence gate has one.
    marker = opts["threshold"] if opts["measure"] == "confidence" else None
    histogram = confidence_histogram(confidence, num_bins=20, threshold=marker)
    out = opts["out"]
    save_predictions_csv(posterior, ds.labels, os.path.join(out, "predictions.csv"))
    save_histogram_csv(histogram, os.path.join(out, "histogram.csv"))
    for name, mask in (("all", np.ones(ds.n_samples, dtype=bool)),
                       ("accepted", report.accepted_mask)):
        matrix = confusion_matrix(posterior.predicted, ds.labels, mask, ds.num_classes)
        save_confusion_csv(matrix, os.path.join(out, f"confusion_{name}.csv"))
    save_calibration_json(calibration, os.path.join(out, "calibration.json"))
    summary = {
        "coverage": report.coverage,
        "rejection_rate": report.rejection_rate,
        "ece": calibration.ece,
        "overall_accuracy": report.overall_accuracy,
        "n_samples": ds.n_samples,
        "threshold": opts["threshold"],
        "measure": opts["measure"],
        "mc_samples": opts["mc_samples"],
        "ece_bins": opts["ece_bins"],
        "seed": opts["seed"],
        "toolkit_version": __version__,
    }
    # Both accepted-case numbers are undefined, and omitted, when the gate
    # accepts nothing.
    if report.selective_accuracy is not None:
        mask = report.accepted_mask
        summary["accuracy_accepted"] = report.selective_accuracy
        summary["ece_accepted"] = ece(
            confidence[mask], correctness[mask], opts["ece_bins"]
        ).ece
    write_json(os.path.join(out, "summary.json"), summary)


def _cmd_sweep(opts: dict) -> int:
    # Option values first, as in eval.
    check_mc_samples(opts["mc_samples"])
    grid = check_grid(_parse_grid(opts["grid"]), opts["measure"])
    layer, ds = _load_eval_inputs(opts)
    # Only a mutual_info gate reads the per-draw entropies.
    posterior = _score(layer, ds, opts, mutual_info=opts["measure"] == "mutual_info")
    curve = threshold_sweep(posterior, ds.labels, grid=grid, measure=opts["measure"])
    save_curve_csv(curve, opts["out"])
    return 0


def _cmd_gradcheck(opts: dict) -> int:
    layer, batch, labels = gradcheck_instance(
        opts["num_classes"], opts["feature_dim"], opts["batch_size"],
        seed=opts["seed"],
    )
    worst = gradcheck(
        layer, batch, labels, n_train=opts["batch_size"],
        h=opts["h"], seed=opts["seed"],
    )
    print(f"max_relative_error={worst:.3g}")
    if not worst <= GRADCHECK_TOLERANCE:  # a NaN error fails too
        raise ValueError(
            f"gradient check failed: {worst:.3g} exceeds {GRADCHECK_TOLERANCE}"
        )
    return 0


_HANDLERS = {
    "gen": _cmd_gen,
    "split": _cmd_split,
    "balance": _cmd_balance,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "gradcheck": _cmd_gradcheck,
}


def entrypoint(argv=None) -> int:
    """Run one command; returns the process exit code instead of raising."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        options = _merge_options(args, _COMMANDS[args.command][1])
        # The NonFiniteError guard inside training is the real detector;
        # numpy's own warnings would only smear multi-line noise on stderr.
        # OpenBLAS splits some products by its thread count, so artifacts are
        # byte-identical across thread counts only with it held at one.
        with np.errstate(all="ignore"), one_blas_thread():
            return _HANDLERS[args.command](options)
    except SystemExit as exc:  # argparse --help
        return int(exc.code) if exc.code else 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy raises this at once for an allocation the host cannot back,
        # e.g. from a huge --mc-samples or --per-class.
        message = str(exc) or "allocation failed"
        print(f"error: out of memory: {message}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonFiniteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(entrypoint())
