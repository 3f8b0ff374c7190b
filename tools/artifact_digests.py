"""Run the standard CLI chains in-process and print the sha256 of every artifact.

Usage, from the repository root:

    python3 tools/artifact_digests.py OUT_DIR

OUT_DIR must not exist yet. The script imports vbselect from this checkout's
``src/``, runs each chain below through ``vbselect.cli.entrypoint`` and
prints one ``sha256  path`` line per file written, with paths relative to
OUT_DIR, sorted. Two checkouts whose outputs match byte for byte print the
same lines, so a change meant to keep every artifact can be checked with
``diff`` on the two listings.

Chains (all at seed 0):

* ``readme/``: the README quick start's gen, split, balance and train;
* ``readme_eval/``, ``readme_eval_samples/``, ``readme_eval_mi/``: eval of the
  README model on its test split at S=20, as in the README, then with
  ``--save-samples``, then gated on mutual information;
* ``readme_sweep.csv``, ``readme_sweep_ent.csv``: sweep on confidence and on
  entropy;
* ``wide/``: a K=100, D=256 head (50 rows per class, 30 epochs), then eval
  ``--save-samples`` and sweep at S=100 on its test split;
* ``bulk.csv``, ``bulk_eval/``, ``bulk_sweep.csv``, ``bulk_eval_samples/``:
  eval and sweep of the README model at S=100 on 100 000 rows, and eval at
  S=4 with ``--save-samples``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from vbselect.cli import entrypoint  # noqa: E402


def _chains(out: str) -> list[list[str]]:
    def p(*parts):
        return os.path.join(out, *parts)

    readme, wide = p("readme"), p("wide")
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
    ]


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
    for directory in ("readme", "wide"):
        os.makedirs(os.path.join(out, directory))
    for command in _chains(out):
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = entrypoint(command)
        if code != 0 or stderr.getvalue():
            print(f"error: {' '.join(command)} exited {code}: {stderr.getvalue().strip()}",
                  file=sys.stderr)
            return 1
    files = sorted(
        os.path.relpath(os.path.join(root, name), out)
        for root, _, names in os.walk(out) for name in names
    )
    for rel in files:
        print(f"{_sha256(os.path.join(out, rel))}  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
