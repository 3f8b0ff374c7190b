"""Run the standard CLI chains in-process and print the sha256 of every artifact.

Usage, from the repository root:

    python3 tools/artifact_digests.py OUT_DIR

OUT_DIR must not exist yet. The script imports vbselect from this checkout's
``src/``, runs each chain below through ``vbselect.cli.entrypoint`` and
prints one ``sha256  path`` line per file written, with paths relative to
OUT_DIR, sorted. Two checkouts whose outputs match byte for byte print the
same lines, so a change meant to keep every artifact can be checked with
``diff`` on the two listings. A leading ``#`` line names the numpy version
with the highest CPU dispatch target numpy enabled on this host (e.g.
``AVX512_SPR``; ``NPY_DISABLE_CPU_FEATURES`` lowers it), and numpy's BLAS
with its version, core type and thread count (``vbselect.blas.blas_info``;
``OPENBLAS_CORETYPE`` forces the core type): the build and CPU kernels the
digests hold for. Two listings from different kernels differ in some float
digests, and this line shows why. The thread count is the caller's; every
command runs with BLAS held at one thread, so no digest depends on it.

After the digests it runs a fixed list of commands that must fail (see
``_error_cases``), with inputs written under ``OUT_DIR/errors/``, and prints
one ``name: exit CODE: stderr`` line for each, paths relative to OUT_DIR. An
exception that escapes the CLI is listed as ``raised`` with its type and
message. The same ``diff`` then shows changes to the error contract too.

Chains (all at seed 0):

* ``readme/``: the README quick start's gen, split, balance and train;
* ``readme_eval/``, ``readme_eval_samples/``, ``readme_eval_mi/``: eval of the
  README model on its test split at S=20, as in the README, then with
  ``--save-samples``, then gated on mutual information;
* ``readme_sweep.csv``, ``readme_sweep_ent.csv``, ``readme_sweep_mi.csv``:
  sweep on confidence, on entropy and on mutual information (the one sweep
  that takes the per-draw entropies);
* ``wide/``: a K=100, D=256 head (50 rows per class, 30 epochs), then eval
  ``--save-samples`` and sweep at S=100 on its test split;
* ``bulk.csv``, ``bulk_eval/``, ``bulk_sweep.csv``, ``bulk_eval_samples/``:
  eval and sweep of the README model at S=100 on 100 000 rows, and eval at
  S=4 with ``--save-samples``;
* ``hand/``: split and balance of a hand-written CSV (see
  ``_write_hand_written_csv``), whose rows those commands copy as read;
* ``paper/``: the README pipeline on class counts 1600, 1200, 1000, 700 and
  500 at separation 2.0, where a confidence gate rejects a real share of the
  test split, then eval of its model at S=100 with ``--threshold 0.7``
  (``paper/eval_0.7/``) and ``0.9`` (``paper/eval_0.9/``).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from vbselect.blas import blas_info  # noqa: E402
from vbselect.cli import entrypoint  # noqa: E402
from vbselect.dataset import FeatureDataset, load_csv, save_csv  # noqa: E402


def _chains(out: str) -> list[list[str]]:
    def p(*parts):
        return os.path.join(out, *parts)

    readme, wide, paper = p("readme"), p("wide"), p("paper")
    model, test = p("readme", "model.json"), p("readme", "splits", "test.csv")
    wide_model, wide_test = p("wide", "model.json"), p("wide", "splits", "test.csv")

    def data_prep(directory, gen_flags):
        return [
            ["gen", *gen_flags, "--seed", "0", "--out", os.path.join(directory, "data.csv")],
            ["split", "--in", os.path.join(directory, "data.csv"), "--train", "0.7",
             "--val", "0.15", "--test", "0.15", "--seed", "0",
             "--out", os.path.join(directory, "splits")],
            ["balance", "--in", os.path.join(directory, "splits", "train.csv"),
             "--seed", "0", "--out", os.path.join(directory, "balanced.csv")],
            ["train", "--train", os.path.join(directory, "balanced.csv"),
             "--val", os.path.join(directory, "splits", "val.csv"), "--epochs", "30",
             "--seed", "0", "--model-out", os.path.join(directory, "model.json"),
             "--trace-out", os.path.join(directory, "trace.csv")],
        ]

    readme_eval = ["eval", "--model", model, "--data", test, "--threshold", "0.7",
                   "--mc-samples", "20", "--seed", "0"]
    return [
        *data_prep(readme, ["--classes", "5", "--dim", "16", "--per-class", "1000",
                            "--separation", "4.0", "--noise", "1.0"]),
        [*readme_eval, "--measure", "confidence", "--out", p("readme_eval")],
        [*readme_eval, "--measure", "confidence", "--save-samples",
         "--out", p("readme_eval_samples")],
        ["eval", "--model", model, "--data", test, "--threshold", "0.05",
         "--measure", "mutual_info", "--seed", "0", "--out", p("readme_eval_mi")],
        ["sweep", "--model", model, "--data", test, "--seed", "0",
         "--out", p("readme_sweep.csv")],
        ["sweep", "--model", model, "--data", test, "--measure", "entropy",
         "--seed", "0", "--out", p("readme_sweep_ent.csv")],
        ["sweep", "--model", model, "--data", test, "--measure", "mutual_info",
         "--grid", "0.01,0.02,0.05,0.1", "--seed", "0", "--out", p("readme_sweep_mi.csv")],
        *data_prep(wide, ["--classes", "100", "--dim", "256", "--per-class", "50"]),
        ["eval", "--model", wide_model, "--data", wide_test, "--threshold", "0.7",
         "--mc-samples", "100", "--seed", "0", "--save-samples", "--out", p("wide", "eval")],
        ["sweep", "--model", wide_model, "--data", wide_test, "--mc-samples", "100",
         "--seed", "0", "--out", p("wide", "sweep.csv")],
        ["gen", "--classes", "5", "--dim", "16", "--per-class", "20000", "--seed", "0",
         "--out", p("bulk.csv")],
        ["eval", "--model", model, "--data", p("bulk.csv"), "--threshold", "0.7",
         "--mc-samples", "100", "--seed", "0", "--out", p("bulk_eval")],
        ["sweep", "--model", model, "--data", p("bulk.csv"), "--mc-samples", "100",
         "--seed", "0", "--out", p("bulk_sweep.csv")],
        ["eval", "--model", model, "--data", p("bulk.csv"), "--mc-samples", "4",
         "--seed", "0", "--save-samples", "--out", p("bulk_eval_samples")],
        ["split", "--in", p("hand", "data.csv"), "--seed", "0",
         "--out", p("hand", "splits")],
        ["balance", "--in", p("hand", "splits", "train.csv"), "--seed", "0",
         "--out", p("hand", "balanced.csv")],
        *data_prep(paper, ["--classes", "5", "--dim", "16",
                           "--per-class", "1600,1200,1000,700,500", "--separation", "2.0"]),
        *(["eval", "--model", p("paper", "model.json"),
           "--data", p("paper", "splits", "test.csv"), "--threshold", threshold,
           "--mc-samples", "100", "--seed", "0", "--out", p("paper", f"eval_{threshold}")]
          for threshold in ("0.7", "0.9")),
    ]


def _write_hand_written_csv(path: str) -> None:
    """A dataset CSV as typed by hand: CRLF line ends, no class directive,
    blank lines, and fields that %.17g would write otherwise ("-2.2",
    "1.500000e+00", " 3 ", "+0.5"). Its classes hold 12, 8 and 6 rows, so
    balance synthesizes rows for two of them."""
    forms = ["{:.1f}", "{:e}", " {:g} ", "{:+}", "{:.3f}", "{}"]
    lines = ["f0,f1,f2,label"]
    counts = (12, 8, 6)
    for i in range(max(counts)):
        for c, count in enumerate(counts):
            if i < count:
                values = (c * 3 + i * 0.5, i - c * 2.25, (i % 4) * 1.5 - c)
                lines.append(",".join(
                    forms[(i + j + c) % len(forms)].format(v) for j, v in enumerate(values)
                ) + f",{c}")
        if i % 5 == 4:
            lines.append("")
    with open(path, "wb") as handle:
        handle.write(("\r\n".join(lines) + "\r\n").encode("utf-8"))


def _error_cases(out: str) -> list[tuple[str, list[str]]]:
    """(name, argv) of commands that must fail; writes their inputs to errors/."""
    errors = os.path.join(out, "errors")
    os.makedirs(errors)
    model = os.path.join(out, "readme", "model.json")
    test = os.path.join(out, "readme", "splits", "test.csv")
    with open(model, encoding="utf-8") as handle:
        doc = json.load(handle)
    # Row 0 along the signs of class 0's mean weights: its logit overflows.
    ds = load_csv(test)
    features = ds.features.copy()
    features[0] = 1.7e308 * np.sign(doc["weight_mu"][0])
    overflow = os.path.join(errors, "overflow.csv")
    save_csv(FeatureDataset(features, ds.labels, ds.num_classes), overflow)
    # weight_mu with a short second row, and weight_rho whose sigma times a
    # standard normal overflows float64.
    ragged, overflowing_sigma = (
        os.path.join(errors, name) for name in ("ragged.json", "sigma.json")
    )
    huge_rho = [[1e308] * len(row) for row in doc["weight_rho"]]
    for path, field, value in (
        (ragged, "weight_mu", [doc["weight_mu"][0][:2], *doc["weight_mu"][1:]]),
        (overflowing_sigma, "weight_rho", huge_rho),
    ):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**doc, field: value}, handle)
    # The model with weight_mu replaced by one number in nested lists.
    doc["weight_mu"] = "NESTED"
    nested = {}
    for depth in (500, 50_000):
        nested[depth] = os.path.join(errors, f"nested_{depth}.json")
        with open(nested[depth], "w", encoding="utf-8") as handle:
            handle.write(json.dumps(doc).replace(
                '"NESTED"', "[" * depth + "1.0" + "]" * depth
            ))
    # A 5000-digit integer: more digits than json.loads will parse.
    big_int = os.path.join(errors, "big_int.json")
    with open(big_int, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(doc).replace('"NESTED"', "1" * 5000))
    # Byte 0xff starts no UTF-8 text; one file stands in for a CSV, an
    # options file and a model.
    non_utf8 = os.path.join(errors, "non_utf8")
    with open(non_utf8, "wb") as handle:
        handle.write(b"\xff\n")
    # The same byte after a byte-order mark, at file offset 5.
    bom_non_utf8 = os.path.join(errors, "bom_non_utf8.csv")
    with open(bom_non_utf8, "wb") as handle:
        handle.write(b"\xef\xbb\xbfab\xff")
    # An options file holding a value its flag's type refuses, and CSVs that
    # decode but break a preamble or row rule, each error naming the CSV.
    bad_inputs = {
        "mistyped_options.txt": "--mc-samples\n2.5\n",
        "bad_directive.csv": "# classes=x\nf0,label\n0.5,0\n",
        "bad_row.csv": "# classes=2\nf0,label\n0.5,0\nnot_a_number,1\n",
        "non_finite.csv": "# classes=2\nf0,label\n0.5,0\ninf,1\n",
    }
    for name, text in bad_inputs.items():
        with open(os.path.join(errors, name), "w", encoding="utf-8") as handle:
            handle.write(text)

    # The test split declared with one class more than the training split.
    six_classes = os.path.join(errors, "six_classes.csv")
    save_csv(FeatureDataset(ds.features, ds.labels, ds.num_classes + 1), six_classes)

    def train(val, *flags):
        return ["train", "--train", os.path.join(out, "readme", "balanced.csv"),
                "--val", val, "--epochs", "1", *flags,
                "--model-out", os.path.join(errors, "model.json"),
                "--trace-out", os.path.join(errors, "trace.csv")]

    def sweep(grid):
        return ["sweep", "--model", model, "--data", test, "--grid", grid,
                "--out", os.path.join(errors, "sweep.csv")]

    # An output path in a missing directory, and one where a directory stands.
    a_directory = os.path.join(errors, "a_directory")
    os.makedirs(a_directory)

    def gen(path):
        return ["gen", "--per-class", "10", "--out", path]

    def evaluate(model_path, data, *flags):
        return ["eval", "--model", model_path, "--data", data, *flags,
                "--out", os.path.join(errors, "eval")]

    return [
        ("unsorted_grid", sweep("0.8,0.6")),
        ("unsorted_grid_out_of_range", sweep("0.9,1.5,0.5")),
        ("dimension_mismatch", evaluate(os.path.join(out, "wide", "model.json"), test)),
        ("overflowing_row", evaluate(model, overflow)),
        ("nested_model_500", evaluate(nested[500], test)),
        ("nested_model_50000", evaluate(nested[50_000], test)),
        ("ragged_model", evaluate(ragged, test)),
        ("overflowing_sigma", evaluate(overflowing_sigma, test)),
        ("options_file_mistyped",
         evaluate(model, test, "@" + os.path.join(errors, "mistyped_options.txt"))),
        ("negative_seed", evaluate(model, test, "--seed", "-1")),
        ("train_val_dimension_mismatch",
         train(os.path.join(out, "wide", "splits", "val.csv"))),
        ("train_val_class_count_mismatch", train(six_classes)),
        # One step per epoch moves every mean by about 1e300: the parameters
        # stay finite, but the epoch's KL (mu squared) does not.
        ("train_non_finite_loss",
         train(test, "--lr", "1e300", "--epochs", "2", "--batch-size", "4096")),
        ("big_int_model", evaluate(big_int, test)),
        ("non_utf8_csv", evaluate(model, non_utf8)),
        ("bom_non_utf8_csv", evaluate(model, bom_non_utf8)),
        ("options_file_non_utf8", evaluate(model, test, "@" + non_utf8)),
        ("non_utf8_model", evaluate(non_utf8, test)),
        ("csv_bad_directive", evaluate(model, os.path.join(errors, "bad_directive.csv"))),
        ("csv_bad_row", evaluate(model, os.path.join(errors, "bad_row.csv"))),
        ("csv_non_finite_feature", evaluate(model, os.path.join(errors, "non_finite.csv"))),
        ("out_in_missing_directory", gen(os.path.join(errors, "missing", "data.csv"))),
        ("out_is_a_directory", gen(a_directory)),
    ]


def _numpy_dispatch() -> str:
    """The highest of numpy's CPU dispatch targets enabled on this host."""
    try:
        from numpy._core import _multiarray_umath as extension
        targets, enabled = extension.__cpu_dispatch__, extension.__cpu_features__
    except (ImportError, AttributeError):
        return "unknown"
    return next((t for t in reversed(targets) if enabled.get(t)), "baseline")


def _run(command: list[str]) -> tuple[int, str]:
    """(exit code, stderr) of one in-process CLI run; stdout is discarded."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = entrypoint(command)
    return code, stderr.getvalue()


def _failure(command: list[str], out: str) -> str:
    """How one failing command ends, on one line, with paths relative to out."""
    try:
        code, stderr = _run(command)
        result = f"exit {code}: {stderr.strip()}"
    except Exception as exc:  # an exception the CLI let escape
        result = f"raised {type(exc).__name__}: {exc}"
    return result.replace(out + os.sep, "").replace("\n", " | ")


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: artifact_digests.py OUT_DIR", file=sys.stderr)
        return 2
    out = argv[0]
    if os.path.exists(out):
        print(f"error: {out} already exists", file=sys.stderr)
        return 2
    info = blas_info()
    blas = ("BLAS not found" if info is None
            else "%s %s, BLAS threads %d, core %s" % info)
    print(f"# numpy {np.__version__}, CPU dispatch {_numpy_dispatch()}, {blas}")
    for directory in ("readme", "wide", "hand", "paper"):
        os.makedirs(os.path.join(out, directory))
    _write_hand_written_csv(os.path.join(out, "hand", "data.csv"))
    for command in _chains(out):
        code, stderr = _run(command)
        if code != 0 or stderr:
            print(f"error: {' '.join(command)} exited {code}: {stderr.strip()}",
                  file=sys.stderr)
            return 1
    files = sorted(
        os.path.relpath(os.path.join(root, name), out)
        for root, _, names in os.walk(out) for name in names
    )
    for rel in files:
        print(f"{_sha256(os.path.join(out, rel))}  {rel}")
    for name, command in _error_cases(out):
        print(f"{name}: {_failure(command, out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
