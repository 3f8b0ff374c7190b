"""Output checks on the artifacts of one pass.

CSV artifacts are read by header name, never by column position, so a
column added to or reordered in an artifact does not break the checks.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np

SWEEP_TAU = 0.7
# Criterion-6 quality gates, checked on the pipeline workload.
MIN_VAL_ACC = 0.90
MAX_ECE = 0.05
SELECTIVE_SLACK = 0.005


def digests(root):
    """sha256 of every file below root, keyed by path relative to root."""
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as handle:
                out[os.path.relpath(path, root)] = hashlib.sha256(handle.read()).hexdigest()
    return out


def read_rows(path):
    """Rows of a CSV as dicts keyed by header, skipping '#' comment lines."""
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(line for line in handle if not line.startswith("#")))


def aurc(predictions_csv):
    """Area under the risk-coverage curve, accepting by descending confidence.

    Ties keep file order; the curve is the running error rate of the k most
    confident predictions, averaged over k = 1..N.
    """
    rows = read_rows(predictions_csv)
    confidence = np.array([float(r["confidence"]) for r in rows])
    wrong = np.array([r["label"] != r["predicted"] for r in rows])
    order = np.argsort(-confidence, kind="stable")
    risk = np.cumsum(wrong[order]) / np.arange(1, len(order) + 1)
    return float(risk.mean())


def quality(trace_csv, report_dir):
    """Deterministic result metrics of one pass."""
    with open(os.path.join(report_dir, "summary.json"), encoding="utf-8") as handle:
        summary = json.load(handle)
    return {
        "val_acc": float(read_rows(trace_csv)[-1]["val_acc"]),
        "selective_acc": summary.get("accuracy_accepted"),
        "ece": summary["ece"],
        "aurc": aurc(os.path.join(report_dir, "predictions.csv")),
        "summary": summary,
    }


def gate_failures(q):
    """Criterion-6 gates: messages keyed by the command whose output failed."""
    out = []
    if not q["val_acc"] >= MIN_VAL_ACC:
        out.append(("train", f"val_acc {q['val_acc']} < {MIN_VAL_ACC}"))
    if not q["ece"] <= MAX_ECE:
        out.append(("eval", f"ece {q['ece']} > {MAX_ECE}"))
    if q["selective_acc"] is None or not q["selective_acc"] >= q["val_acc"] - SELECTIVE_SLACK:
        out.append(("eval", f"selective_acc {q['selective_acc']} < val_acc - {SELECTIVE_SLACK}"))
    return out


def sweep_invariant_failures(sweep_csv, summary):
    """Criterion 7: the sweep row at tau=0.7 equals summary.json field for field."""
    rows = [r for r in read_rows(sweep_csv) if float(r["threshold"]) == SWEEP_TAU]
    if len(rows) != 1:
        return [("sweep", f"expected one sweep row at tau={SWEEP_TAU}, found {len(rows)}")]
    row = rows[0]
    pairs = [("coverage", "coverage"), ("rejection_rate", "rejection_rate"),
             ("selective_accuracy", "accuracy_accepted")]
    if "overall_accuracy" in row:
        pairs.append(("overall_accuracy", "overall_accuracy"))
    out = []
    for column, key in pairs:
        cell = row[column]
        swept = float(cell) if cell != "" else None
        if swept != summary.get(key):
            out.append(("sweep", f"sweep {column}={swept} but summary {key}={summary.get(key)}"))
    return out
