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
failed command never leaves a half-written one behind.

``eval`` and ``sweep`` score the posterior with ``score_posterior``, which
streams row chunks and never builds the N x S x K sample grid.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .calibration import (
    confidence_histogram,
    ece,
    save_calibration_json,
    save_histogram_csv,
)
from .dataset import (
    SplitRatios,
    SyntheticConfig,
    generate_synthetic,
    load_csv,
    save_csv,
    smote_oversample,
    stratified_split,
)
from .atomic import atomic_write
# predictive_posterior, uncertainty_scores and save_prob_samples_csv are
# unused here but stay bound: perfbench/tracer.py wraps these names.
from .inference import (  # noqa: F401
    predictive_posterior,
    save_predictions_csv,
    save_prob_samples_csv,
    score_posterior,
    uncertainty_scores,
)
from .selection import (
    MEASURES,
    apply_rejection,
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
from .vbll import load_layer, save_layer

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
    flags: tuple
    dest: str
    kind: object  # int, float, str, or the literal string "flag"
    default: object
    required: bool
    help: str


def _opt(flag, dest, kind, default, help, required=False):
    return _Option((flag,), dest, kind, default, required, help)


_COMMON = [
    _opt("--seed", "seed", int, 0, "global seed; fanned out per role"),
]

_OPTIONS = {
    "gen": [
        _opt("--classes", "num_classes", int, 5, "number of classes"),
        _opt("--dim", "feature_dim", int, 16, "feature dimension"),
        _opt("--per-class", "samples_per_class", str, "1000",
             "per-class count, or a comma list with one count per class"),
        _opt("--separation", "class_separation", float, 4.0,
             "radius of the sphere holding class means"),
        _opt("--noise", "noise_scale", float, 1.0, "isotropic noise scale"),
        *_COMMON,
        _opt("--out", "out", str, None, "output CSV path", required=True),
    ],
    "split": [
        _opt("--in", "in_path", str, None, "input dataset CSV", required=True),
        _opt("--train", "train", float, 0.70, "training fraction"),
        _opt("--val", "val", float, 0.15, "validation fraction"),
        _opt("--test", "test", float, 0.15, "test fraction"),
        *_COMMON,
        _opt("--out", "out", str, None,
             "output directory for train/val/test CSVs", required=True),
    ],
    "balance": [
        _opt("--in", "in_path", str, None, "input dataset CSV", required=True),
        _opt("--target", "target", str, None,
             "per-class target count or comma list; default: largest class"),
        _opt("--k-neighbors", "k_neighbors", int, 5,
             "neighbors considered per synthetic point"),
        *_COMMON,
        _opt("--out", "out", str, None, "output CSV path", required=True),
    ],
    "train": [
        _opt("--train", "train", str, None, "training split CSV", required=True),
        _opt("--val", "val", str, None, "validation split CSV", required=True),
        _opt("--epochs", "epochs", int, 30, "training epochs"),
        _opt("--batch-size", "batch_size", int, 128, "minibatch size"),
        _opt("--lr", "learning_rate", float, 1e-2, "Adam learning rate"),
        _opt("--adam-beta1", "adam_beta1", float, 0.9, "Adam beta1"),
        _opt("--adam-beta2", "adam_beta2", float, 0.999, "Adam beta2"),
        _opt("--adam-eps", "adam_epsilon", float, 1e-8, "Adam epsilon"),
        _opt("--mc-passes", "train_mc_samples", int, 1,
             "Monte Carlo passes per training step"),
        _opt("--patience", "early_stop_patience", int, None,
             "early-stopping patience in epochs (off when omitted)"),
        _opt("--mu-init-scale", "mu_init_scale", float, 0.1,
             "uniform init range for posterior means"),
        _opt("--rho-init", "rho_init", float, -5.0,
             "initial rho (sigma = softplus(rho))"),
        _opt("--prior-scale", "prior_scale", float, 1.0,
             "prior standard deviation"),
        *_COMMON,
        _opt("--model-out", "model_out", str, None,
             "output model JSON path", required=True),
        _opt("--trace-out", "trace_out", str, None,
             "output training-trace CSV path", required=True),
    ],
    "eval": [
        _opt("--model", "model", str, None, "model JSON path", required=True),
        _opt("--data", "data", str, None, "evaluation dataset CSV", required=True),
        _opt("--threshold", "threshold", float, 0.7, "rejection threshold"),
        _opt("--measure", "measure", str, "confidence",
             "gate measure: confidence, entropy, or mutual_info"),
        _opt("--mc-samples", "mc_samples", int, 20, "posterior samples"),
        _opt("--ece-bins", "ece_bins", int, 15, "calibration bins"),
        _opt("--ece-accepted-only", "ece_accepted_only", "flag", False,
             "compute calibration over accepted samples only"),
        _opt("--save-samples", "save_samples", "flag", False,
             "also write the full posterior sample grid"),
        *_COMMON,
        _opt("--out", "out", str, None, "output directory", required=True),
    ],
    "sweep": [
        _opt("--model", "model", str, None, "model JSON path", required=True),
        _opt("--data", "data", str, None, "evaluation dataset CSV", required=True),
        _opt("--grid", "grid", str, None,
             "comma list of thresholds; default 0.50..0.90 step 0.05"),
        _opt("--measure", "measure", str, "confidence",
             "gate measure: confidence, entropy, or mutual_info"),
        _opt("--mc-samples", "mc_samples", int, 20, "posterior samples"),
        *_COMMON,
        _opt("--out", "out", str, None, "output curve CSV path", required=True),
    ],
    "gradcheck": [
        _opt("--classes", "num_classes", int, 3, "problem classes"),
        _opt("--dim", "feature_dim", int, 4, "problem feature dimension"),
        _opt("--batch-size", "batch_size", int, 8, "problem batch size"),
        _opt("--h", "h", float, 1e-5, "finite-difference step"),
        *_COMMON,
    ],
}

_HELP = {
    "gen": "generate a synthetic blob dataset CSV",
    "split": "stratified train/val/test split of a dataset CSV",
    "balance": "oversample minority classes by interpolation",
    "train": "fit the variational layer and write model + trace",
    "eval": "rejection + calibration report for a trained model",
    "sweep": "rejection metrics across a threshold grid",
    "gradcheck": "compare analytic gradients against finite differences",
}


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="vbselect",
        description="Selective prediction with a variational Bayesian linear head.",
    )
    subparsers = parser.add_subparsers(
        dest="command", metavar="command", required=True, parser_class=_Parser
    )
    for command, options in _OPTIONS.items():
        sub = subparsers.add_parser(command, help=_HELP[command])
        sub.add_argument(
            "--config", dest="config", type=str, default=None,
            help="JSON file of option values; flags override it",
        )
        for option in options:
            if option.kind == "flag":
                sub.add_argument(
                    *option.flags, dest=option.dest, action="store_true",
                    default=None, help=option.help,
                )
            elif option.dest == "measure":
                sub.add_argument(
                    *option.flags, dest=option.dest, choices=MEASURES,
                    default=None, help=option.help,
                )
            else:
                sub.add_argument(
                    *option.flags, dest=option.dest, type=option.kind,
                    default=None, help=option.help,
                )
    return parser


def _merge_options(args: argparse.Namespace, options: list[_Option]) -> dict:
    """Overlay flags > config file > defaults; reject unknown config keys."""
    allowed = {option.dest for option in options}
    config = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as handle:
            config = json.load(handle)
        if not isinstance(config, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(config) - allowed)
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
    merged = {}
    for option in options:
        value = getattr(args, option.dest)
        if value is None:
            value = config.get(option.dest, option.default)
        if value is None and option.required:
            raise ValueError(f"missing required option {option.flags[0]}")
        if value is not None and option.kind in (int, float):
            value = option.kind(value)
        if option.kind == "flag":
            value = bool(value)
        merged[option.dest] = value
    return merged


def _parse_counts(value, num_classes: int) -> tuple:
    """Accept an int, a comma string, or a list; broadcast singletons."""
    try:
        if isinstance(value, str):
            parts = [int(piece) for piece in value.split(",")]
        elif isinstance(value, (list, tuple)):
            parts = [int(piece) for piece in value]
        else:
            parts = [int(value)]
    except (TypeError, ValueError):
        raise ValueError(f"cannot parse class counts from {value!r}") from None
    if len(parts) == 1:
        parts = parts * num_classes
    return tuple(parts)


def _parse_grid(value):
    if value is None:
        return None
    try:
        if isinstance(value, str):
            return [float(piece) for piece in value.split(",")]
        return [float(piece) for piece in value]
    except (TypeError, ValueError):
        raise ValueError(f"cannot parse threshold grid from {value!r}") from None


def _write_json(payload: dict, path: str) -> None:
    with atomic_write(path) as handle:
        handle.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _cmd_gen(opts: dict) -> int:
    counts = _parse_counts(opts["samples_per_class"], opts["num_classes"])
    config = SyntheticConfig(
        num_classes=opts["num_classes"],
        feature_dim=opts["feature_dim"],
        samples_per_class=counts,
        class_separation=opts["class_separation"],
        noise_scale=opts["noise_scale"],
    )
    ds = generate_synthetic(config, seed=role_seed(opts["seed"], "gen"))
    save_csv(ds, opts["out"])
    return 0


def _cmd_split(opts: dict) -> int:
    ds = load_csv(opts["in_path"])
    ratios = SplitRatios(opts["train"], opts["val"], opts["test"])
    parts = stratified_split(ds, ratios, seed=role_seed(opts["seed"], "split"))
    os.makedirs(opts["out"], exist_ok=True)
    for name, part in zip(("train", "val", "test"), parts):
        save_csv(part, os.path.join(opts["out"], f"{name}.csv"))
    return 0


def _cmd_balance(opts: dict) -> int:
    ds = load_csv(opts["in_path"])
    if opts["target"] is None:
        targets = (max(ds.class_counts()),) * ds.num_classes
    else:
        targets = _parse_counts(opts["target"], ds.num_classes)
    balanced = smote_oversample(
        ds, targets, opts["k_neighbors"], seed=role_seed(opts["seed"], "balance")
    )
    save_csv(balanced, opts["out"])
    return 0


def _cmd_train(opts: dict) -> int:
    train_ds = load_csv(opts["train"])
    val_ds = load_csv(opts["val"])
    if train_ds.feature_dim != val_ds.feature_dim:
        raise ValueError(
            f"train/val feature dimension mismatch: "
            f"{train_ds.feature_dim} vs {val_ds.feature_dim}"
        )
    if train_ds.num_classes != val_ds.num_classes:
        raise ValueError(
            f"train/val class count mismatch: "
            f"{train_ds.num_classes} vs {val_ds.num_classes}"
        )
    init_config = LayerInitConfig(
        mu_init_scale=opts["mu_init_scale"],
        rho_init=opts["rho_init"],
        prior_scale=opts["prior_scale"],
        seed=role_seed(opts["seed"], "init"),
    )
    config = TrainConfig(
        epochs=opts["epochs"],
        batch_size=opts["batch_size"],
        learning_rate=opts["learning_rate"],
        adam_beta1=opts["adam_beta1"],
        adam_beta2=opts["adam_beta2"],
        adam_epsilon=opts["adam_epsilon"],
        train_mc_samples=opts["train_mc_samples"],
        seed=role_seed(opts["seed"], "train"),
        early_stop_patience=opts["early_stop_patience"],
    )
    layer, trace = train(train_ds, val_ds, init_config, config)
    save_layer(layer, opts["model_out"])
    save_trace_csv(trace, opts["trace_out"])
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


def _score(layer, ds, opts: dict, samples=None):
    return score_posterior(
        layer, ds, mc_samples=opts["mc_samples"],
        seed=role_seed(opts["seed"], "inference"), samples=samples,
    )


def _cmd_eval(opts: dict) -> int:
    layer, ds = _load_eval_inputs(opts)
    out = opts["out"]
    os.makedirs(out, exist_ok=True)
    # samples.csv fills while the chunks are scored; it replaces any old copy
    # only once every other report file is written.
    samples_csv = (
        atomic_write(os.path.join(out, "samples.csv"))
        if opts["save_samples"] else contextlib.nullcontext()
    )
    with samples_csv as samples:
        _write_eval_reports(ds, _score(layer, ds, opts, samples), opts)
    return 0


def _write_eval_reports(ds, pred, opts: dict) -> None:
    scores = pred.scores
    report = apply_rejection(
        scores, pred.predicted, ds.labels, opts["threshold"],
        measure=opts["measure"], num_classes=ds.num_classes,
    )
    correctness = pred.predicted == ds.labels
    if opts["ece_accepted_only"]:
        if report.accepted_count == 0:
            raise ValueError(
                "no samples accepted: accepted-only calibration is undefined"
            )
        mask = report.accepted_mask
        calibration = ece(
            scores.confidence[mask], correctness[mask], opts["ece_bins"]
        )
    else:
        calibration = ece(scores.confidence, correctness, opts["ece_bins"])
    histogram = confidence_histogram(
        scores.confidence, num_bins=20, threshold=opts["threshold"]
    )
    out = opts["out"]
    save_predictions_csv(
        pred, scores, ds.labels, os.path.join(out, "predictions.csv")
    )
    save_histogram_csv(histogram, os.path.join(out, "histogram.csv"))
    save_confusion_csv(report.confusion_all, os.path.join(out, "confusion_all.csv"))
    save_confusion_csv(
        report.confusion_accepted, os.path.join(out, "confusion_accepted.csv")
    )
    save_calibration_json(calibration, os.path.join(out, "calibration.json"))
    summary = {
        "coverage": report.coverage,
        "rejection_rate": report.rejection_rate,
        "ece": calibration.ece,
        "overall_accuracy": report.overall_accuracy,
        "n_samples": ds.n_samples,
        "threshold": opts["threshold"],
        "mc_samples": opts["mc_samples"],
        "seed": opts["seed"],
        "toolkit_version": __version__,
    }
    if report.selective_accuracy is not None:
        summary["accuracy_accepted"] = report.selective_accuracy
    _write_json(summary, os.path.join(out, "summary.json"))


def _cmd_sweep(opts: dict) -> int:
    layer, ds = _load_eval_inputs(opts)
    pred = _score(layer, ds, opts)
    curve = threshold_sweep(
        pred.scores, pred.predicted, ds.labels, grid=_parse_grid(opts["grid"]),
        measure=opts["measure"], num_classes=ds.num_classes,
    )
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
    if worst > GRADCHECK_TOLERANCE:
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
        options = _merge_options(args, _OPTIONS[args.command])
        # The NonFiniteError guard inside training is the real detector;
        # numpy's own warnings would only smear multi-line noise on stderr.
        with np.errstate(all="ignore"):
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
