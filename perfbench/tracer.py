"""In-memory spans around calls into vbselect's modules.

The tracer replaces, for the length of a traced phase, the names that
``vbselect.cli`` and ``vbselect.training`` bind with timing wrappers, and
restores them afterwards; nothing under ``src/`` changes. A span records its
name, pass, start, end and parent span; a layer's self time is its span minus
the time its child spans cover. Work counts are computed from the call's
arguments and result after the span closes.
"""

from __future__ import annotations

import contextlib
import math
import os
import time
from collections import defaultdict


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[-1])}


def _fields(args, kwargs, result):
    return {"fields": result.n_samples * (result.feature_dim + 1)}


def _train_work(args, kwargs, result):
    # Per step, the Flipout forward and backward passes are four B x D x K
    # matrix products: 8 * B * D * K FLOPs per Monte Carlo pass.
    train_ds, _, _, config = args
    n, d = train_ds.n_samples, train_ds.feature_dim
    epochs = len(result[1])
    return {
        "steps": epochs * math.ceil(n / config.batch_size),
        "flops": epochs * 8 * n * d * train_ds.num_classes * config.train_mc_samples,
    }


def _thresholds(args, kwargs, result):
    return {"thresholds": len(result.reports)}


# module -> {bound name: (span name, work counter or None)}
TARGETS = {
    "vbselect.cli": {
        "generate_synthetic": ("dataset.generate_synthetic", None),
        "load_csv": ("dataset.load_csv", _fields),
        "save_csv": ("dataset.save_csv", _file_bytes),
        "stratified_split": ("dataset.stratified_split", None),
        "smote_oversample": ("dataset.smote_oversample", None),
        "load_layer": ("vbll.load_layer", None),
        "save_layer": ("vbll.save_layer", _file_bytes),
        "train": ("training.train", _train_work),
        "save_trace_csv": ("training.save_trace_csv", _file_bytes),
        "predictive_posterior": ("inference.predictive_posterior", None),
        "uncertainty_scores": ("inference.uncertainty_scores", None),
        "save_predictions_csv": ("inference.save_predictions_csv", _file_bytes),
        "save_prob_samples_csv": ("inference.save_prob_samples_csv", _file_bytes),
        "apply_rejection": ("selection.apply_rejection", None),
        "threshold_sweep": ("selection.threshold_sweep", _thresholds),
        "save_curve_csv": ("selection.save_curve_csv", _file_bytes),
        "save_confusion_csv": ("selection.save_confusion_csv", _file_bytes),
        "ece": ("calibration.ece", None),
        "confidence_histogram": ("calibration.confidence_histogram", None),
        "save_calibration_json": ("calibration.save_calibration_json", _file_bytes),
        "save_histogram_csv": ("calibration.save_histogram_csv", _file_bytes),
    },
    "vbselect.training": {
        "flipout_noise": ("vbll.flipout_noise", None),
        "flipout_logits": ("vbll.flipout_logits", None),
        "kl_to_prior": ("vbll.kl_to_prior", None),
        "adam_step": ("training.adam_step", None),
    },
}


class Tracer:
    def __init__(self):
        self.spans = []  # dicts: name, pass, parent, start, end, counts
        self.pass_id = None
        self._stack = []

    def open(self, name):
        span = {"name": name, "pass": self.pass_id,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(), "end": None, "counts": {}}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                span["counts"] = counter(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, modules):
        """Wrap every TARGETS name in the given imported modules, then restore."""
        saved = []
        try:
            for module_name, names in TARGETS.items():
                module = modules[module_name]
                for attr, (span_name, counter) in names.items():
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self._wrap(original, span_name, counter))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self):
        """Each span's duration minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        return [s["end"] - s["start"] - c for s, c in zip(self.spans, child_time)]

    def totals(self):
        """pass id -> {"<span>.s": self time, ".incl", ".calls", ".<count>"}."""
        out = defaultdict(lambda: defaultdict(float))
        for span, self_time in zip(self.spans, self.self_times()):
            sums, name = out[span["pass"]], span["name"]
            sums[name + ".s"] += self_time
            sums[name + ".incl"] += span["end"] - span["start"]
            sums[name + ".calls"] += 1
            for key, value in span["counts"].items():
                sums[f"{name}.{key}"] += value
        return out

    def subtree_self_times(self):
        """Top-level span index -> summed self times of it and every span below."""
        roots = []
        covered = defaultdict(float)
        for span, self_time in zip(self.spans, self.self_times()):
            parent = span["parent"]
            roots.append(len(roots) if parent is None else roots[parent])
            covered[roots[-1]] += self_time
        return covered
