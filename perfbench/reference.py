"""A fixed reference kernel that tracks the host's speed during a run.

On a shared host the same code runs up to twice as fast at one time as at
another, and the shift lasts from seconds to tens of minutes. The benchmark
samples this kernel right before and right after every command and scales
the command's wall time by ``(NOMINAL_S / kernel time) ** ELASTICITY``:
seconds at a fixed host speed. vbselect's costs are mostly interpreter overhead (per-step
Python around small numpy calls, CSV text formatting and parsing), so the
kernel is made of the same: small matrix products in a Python loop, and
float formatting and parsing. It stays on one thread and imports nothing
from vbselect, so no change to the program can move it.
"""

from __future__ import annotations

import math
import time

import numpy as np

# The kernel's time on a quiet 2-core host (Python 3.11, numpy 2.4.6).
NOMINAL_S = 0.004
# Command times move less than the kernel's under host interference. Over 981
# benchmark commands the log-log slope of command time on kernel time was 0.62
# within runs and 0.33 across runs (151 per-run medians); full scaling (1.0)
# over-corrected numpy-bound commands, so the benchmark scales by the square root.
ELASTICITY = 0.5
REPEATS = 3

_rng = np.random.default_rng(0)
_ROWS = _rng.standard_normal((528, 16))
_HEAD = _rng.standard_normal((5, 16))


def _kernel():
    total = 0.0
    for i in range(400):
        total += float((_ROWS[i : i + 128] @ _HEAD.T).sum())
    text = ",".join(repr(float(v)) for v in _ROWS[:120].ravel())
    return total + sum(float(field) for field in text.split(","))


def sample():
    """Fastest of a few kernel runs, in seconds."""
    best = math.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best
