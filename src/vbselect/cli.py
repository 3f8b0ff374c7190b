"""Command-line interface wiring the toolkit into reproducible runs.

Commands: gen, split, balance, train, eval, sweep, gradcheck. ``_COMMANDS``
gives each its handler, its help and its options, every option as the flag
and keywords of its ``add_argument`` call, so argparse checks each value
with the flag's own type and choices. An ``@FILE`` argument stands for the
file's lines, one argument per line, so a run's options can be kept in a
file; where an option is given twice, the later value wins. All randomness
flows from one ``--seed`` flag, a nonnegative integer, fanned out to
per-role sub-seeds (gen/split/balance/init/train/inference) so that every
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
from dataclasses import fields

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


def _expand_options_files(argv) -> list[str]:
    """argv with each ``@FILE`` argument replaced by the file's lines, one per line.

    This is argparse's own options-file format, read here rather than by its
    ``fromfile_prefix_chars`` so that the file is UTF-8 on every Python, an
    unreadable one is an OSError (exit 2) and one that does not decode names
    itself. Lines are taken literally: a blank line is an empty argument, and
    an ``@`` inside a file names no further file. One leading byte-order mark
    is skipped; a decode error's offset still counts from the file's start.
    """
    expanded = []
    for arg in argv:
        if not arg.startswith("@"):
            expanded.append(arg)
            continue
        try:
            with open(arg[1:], encoding="utf-8") as handle:
                expanded += handle.read().removeprefix("\ufeff").splitlines()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{arg[1:]}: {exc}") from None
    return expanded


def _parse_counts(text: str, num_classes: int) -> tuple:
    """Counts from a comma string; a single count is repeated for every class."""
    try:
        parts = [int(piece) for piece in text.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse class counts from {text!r}") from None
    if len(parts) == 1:
        if num_classes > sys.maxsize:  # where repeating a list overflows
            raise ValueError(
                f"num_classes {num_classes} exceeds the largest list length, {sys.maxsize}"
            )
        parts = parts * num_classes
    return tuple(parts)


def _parse_grid(text):
    """Floats from a comma string; None, the default grid, passes through."""
    if text is None:
        return None
    try:
        return [float(piece) for piece in text.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse threshold grid from {text!r}") from None


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


# Options several commands share, each as (flag, add_argument keywords).
_SEED = ("--seed", dict(type=int, default=0, help="global seed; fanned out per role"))
_MODEL = ("--model", dict(required=True, help="model JSON path"))
_DATA = ("--data", dict(required=True, help="evaluation dataset CSV"))
_MEASURE = ("--measure", dict(choices=MEASURES, default="confidence",
                              help="gate measure: confidence, entropy, or mutual_info"))
_MC_SAMPLES = ("--mc-samples", dict(type=int, default=20, help="posterior samples"))

# command -> (handler, help, options). An option gives a dest where the
# handler or a library config field names its value otherwise than the flag.
# An option that fills a config field takes that field's default, so each
# default is declared once.
_COMMANDS = {
    "gen": (_cmd_gen, "generate a synthetic blob dataset CSV", [
        ("--classes", dict(dest="num_classes", type=int, default=5,
                           help="number of classes")),
        ("--dim", dict(dest="feature_dim", type=int, default=16, help="feature dimension")),
        ("--per-class", dict(dest="samples_per_class", default="1000",
                             help="per-class count, or a comma list with one count per class")),
        ("--separation", dict(dest="class_separation", type=float,
                              default=SyntheticConfig.class_separation,
                              help="radius of the sphere holding class means")),
        ("--noise", dict(dest="noise_scale", type=float, default=SyntheticConfig.noise_scale,
                         help="isotropic noise scale")),
        _SEED,
        ("--out", dict(required=True, help="output CSV path")),
    ]),
    "split": (_cmd_split, "stratified train/val/test split of a dataset CSV", [
        ("--in", dict(dest="in_path", required=True, help="input dataset CSV")),
        ("--train", dict(type=float, default=SplitRatios.train, help="training fraction")),
        ("--val", dict(type=float, default=SplitRatios.val, help="validation fraction")),
        ("--test", dict(type=float, default=SplitRatios.test, help="test fraction")),
        _SEED,
        ("--out", dict(required=True, help="output directory for train/val/test CSVs")),
    ]),
    "balance": (_cmd_balance, "oversample minority classes by interpolation", [
        ("--in", dict(dest="in_path", required=True, help="input dataset CSV")),
        ("--target", dict(help="per-class target count or comma list; default: largest class")),
        ("--k-neighbors", dict(type=int, default=5,
                               help="neighbors considered per synthetic point")),
        _SEED,
        ("--out", dict(required=True, help="output CSV path")),
    ]),
    "train": (_cmd_train, "fit the variational layer and write model + trace", [
        ("--train", dict(required=True, help="training split CSV")),
        ("--val", dict(required=True, help="validation split CSV")),
        ("--epochs", dict(type=int, default=TrainConfig.epochs, help="training epochs")),
        ("--batch-size", dict(type=int, default=TrainConfig.batch_size,
                              help="minibatch size")),
        ("--lr", dict(dest="learning_rate", type=float, default=TrainConfig.learning_rate,
                      help="Adam learning rate")),
        ("--rho-init", dict(type=float, default=LayerInitConfig.rho_init,
                            help="initial rho (sigma = softplus(rho))")),
        ("--prior-scale", dict(type=float, default=LayerInitConfig.prior_scale,
                               help="prior standard deviation")),
        _SEED,
        ("--model-out", dict(required=True, help="output model JSON path")),
        ("--trace-out", dict(required=True, help="output training-trace CSV path")),
    ]),
    "eval": (_cmd_eval, "rejection + calibration report for a trained model", [
        _MODEL, _DATA,
        ("--threshold", dict(type=float, default=0.7, help="rejection threshold")),
        _MEASURE, _MC_SAMPLES,
        ("--ece-bins", dict(type=int, default=15, help="calibration bins")),
        ("--save-samples", dict(action="store_true",
                                help="also write the full posterior sample grid to samples.npy")),
        _SEED,
        ("--out", dict(required=True, help="output directory")),
    ]),
    "sweep": (_cmd_sweep, "rejection metrics across a threshold grid", [
        _MODEL, _DATA,
        ("--grid", dict(help="comma list of thresholds; default 0.50..0.90 step 0.05")),
        _MEASURE, _MC_SAMPLES,
        _SEED,
        ("--out", dict(required=True, help="output curve CSV path")),
    ]),
    "gradcheck": (_cmd_gradcheck, "compare analytic gradients against finite differences", [
        ("--classes", dict(dest="num_classes", type=int, default=3, help="problem classes")),
        ("--dim", dict(dest="feature_dim", type=int, default=4,
                       help="problem feature dimension")),
        ("--batch-size", dict(type=int, default=8, help="problem batch size")),
        ("--h", dict(type=float, default=1e-5, help="finite-difference step")),
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
    for command, (_, help_text, options) in _COMMANDS.items():
        sub = subparsers.add_parser(command, help=help_text)
        for flag, keywords in options:
            sub.add_argument(flag, **keywords)
    return parser


def entrypoint(argv=None) -> int:
    """Run one command; returns the process exit code instead of raising."""
    parser = _build_parser()
    try:
        args = parser.parse_args(
            _expand_options_files(sys.argv[1:] if argv is None else argv)
        )
        # Every command has --seed; refused here, before a handler removes
        # an earlier run's outputs.
        if args.seed < 0:
            raise ValueError(f"argument --seed: must be nonnegative, got {args.seed}")
        # The NonFiniteError guard inside training is the real detector;
        # numpy's own warnings would only smear multi-line noise on stderr.
        # OpenBLAS splits some products by its thread count, so artifacts are
        # byte-identical across thread counts only with it held at one.
        with np.errstate(all="ignore"), one_blas_thread():
            return _COMMANDS[args.command][0](vars(args))
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
