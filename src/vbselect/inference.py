"""Monte Carlo predictive posterior and per-sample uncertainty scores.

Prediction draws S independent weight samples from the posterior (plain
reparameterized draws, not Flipout — inference wants exchangeable posterior
samples, not a variance-reduction trick), pushes the rows through each
sampled linear head, and averages the softmax outputs. Uncertainty is scored
from the resulting distribution over probability vectors:

* confidence — max of the mean probabilities,
* entropy — H[p-bar] in nats,
* expected_entropy — mean over samples of H[p^(s)],
* mutual_info — max(0, entropy - expected_entropy), the epistemic part.

Sample s always draws from ``default_rng([seed, s])``, so runs with a larger
S extend a smaller run sample-for-sample and samples can be computed in any
order (or in parallel) without changing results.

The per-row results, mean_probs, predicted and the four scores, make one
``PosteriorSummary``. The gate, the threshold sweep and the predictions
writer take it whole, so its one constructor owns the shape rules.

``score_posterior`` is the scoring engine, and the one the ``eval`` and
``sweep`` commands use. It takes the S weight draws once, then scores the
row chunks on a ``ThreadPoolExecutor``. Where draws hold at least
``_POOLED_DRAW_MIN_VALUES`` values each, the pool's threads take the draws
too, each a contiguous range of s, before any chunk is scored; all S stay
held for the whole call either way, S x K x (D+1) floats. A chunk is at least
``_MIN_CHUNK_ROWS`` rows (or all N), and it is worked a block of draws at a
time, as many as fit ``_CHUNK_BYTES``: each pool thread fills its own
(draws, K, rows) view of a block's probabilities, checks it and folds it
into its own rows of the per-row results. So it needs O(N·K + S·K·D +
threads x chunk) memory and never holds the N x S x K grid. Below 8 classes the
buffer behind the view is class-major, so every fold over the K classes,
the shift, the divide and the sum over draws run over contiguous rows; from
8 classes it is draw-major (draws, rows, K), the layout in which numpy sums
the contiguous class axis pairwise as over the grid. Either way the logits
come from one batched matmul per block into a draw-major array, each draw
the same gemm as `rows @ weights[s].T` (``_logits``). No result depends on
the thread count or on where the blocks split: every sum over the K
classes is a left-to-right fold of the classes in numpy's own order
(``_sum_classes``), the mean over the S draws adds them one by one in
order, as numpy does over the (N, S, K) grid's draw axis, and each row's S
per-draw entropies are averaged pairwise once the last block is in. While
the threads run, numpy's OpenBLAS is held at one thread
(``blas.one_blas_thread``); where it cannot be, the calling thread scores
every chunk. With ``samples``, the thread that scored a block also writes
that block's records into an ``.npy`` file at their own offsets, so the
saved grid takes the same pool path.

``predictive_posterior`` copies the same chunks into the full grid, so it
matches ``score_posterior`` bit for bit, and returns them in a
``PredictionSet``, a record that copies the grid and checks nothing.
``uncertainty_scores`` and ``save_prob_samples_csv`` read that record.
The four names are left out of ``__all__``: they stay only because the
benchmark under ``perfbench/`` binds them.
"""

from __future__ import annotations

import io
import math
import os
import threading
from contextvars import copy_context
from dataclasses import dataclass

import numpy as np

from .atomic import atomic_write, write_lines
from .blas import one_blas_thread, usable_cpus
from .vbll import VBLinearLayer, check_features

__all__ = [
    "PosteriorSummary",
    "score_posterior",
    "save_predictions_csv",
]

# Size of one block's (draws, K, rows) float64 buffer. A chunk takes as many
# rows as fit it with all S draws, but at least _MIN_CHUNK_ROWS; its draws
# are then worked as many at a time as fit it. At N=100k, S=100, K=5 on two
# scoring threads, 2 MiB chunks scored in 0.167 s against 0.173 s for 1 MiB
# and 0.166 s for 4 MiB ones (median of 7 on a 2-core VM, draw-major
# buffers). The draws are the outer axis so that one batched matmul fills a
# block of them (one gemm per draw), and the sums over draws become
# whole-array adds over long contiguous rows; below 8 classes the per-row
# folds over K do too (see _class_major).
# A chunk never holds a single row unless N = 1: numpy sends 1-row matmuls
# to gemv, which rounds differently from gemm. A problem in one chunk
# matches the full-batch product bit for bit on every kernel measured, and
# so do several chunks at K=5 and K=12, D=16. Otherwise BLAS may pick its
# kernel by matrix size, so the last bit of a probability can depend on how
# many rows share its chunk: measured at K=100, D=256, at K=20, D=64 under
# the default SkylakeX kernel, and at K=8, 20 and 100, D=16 under Haswell.
_CHUNK_BYTES = 2 * 2**20

# The fewest rows in a chunk (at least 2, see above). BLAS packs each draw's
# K x D weights once per gemm, so a chunk of few rows packs them over and
# over: at K=100, D=256, S=100 only 26 rows fit _CHUNK_BYTES. The logits of
# 750 such rows, each chunk in blocks of draws within _CHUNK_BYTES, on one
# BLAS thread (median of 7, 2-core VM); every row count gave the same bits
# under both kernels:
#
#   rows per chunk          26     64    128    256    750
#   SkylakeX (default)  188 ms 134 ms 115 ms 108 ms 110 ms
#   Haswell             220 ms 186 ms 137 ms 128 ms 128 ms
#
# K=5 at S=100 fits 524 rows, so such chunks keep all S draws in one block.
_MIN_CHUNK_ROWS = 128

# The most threads that score chunks at once: two, the most that has been
# benchmarked (on a 2-core VM). Each thread holds about 1.75 x _CHUNK_BYTES
# of its own at K=5, S=100 (tracemalloc peak: its buffer, row maxima, and
# either a class-major chunk's logits scratch or _entropy's temporaries, a
# quarter of the buffer each), and its reductions hold the GIL, so whether
# more threads pay for that memory is unmeasured.
_MAX_WORKERS = 2

# The fewest values, K x (D+1), in one posterior draw for the scoring pool
# to take the S draws; smaller draws are taken inline. Each draw seeds its
# own stream, which holds the GIL, so it is the size of a draw, not the S x
# K x (D+1) total, that decides: draws plus the start of two pool threads,
# pooled against inline (median of 40 interleaved pairs, one BLAS thread,
# 2-core VM):
#
#   values a draw    S    inline   pooled  pooled faster in
#   85 (K=5, D=16)  100   0.74 ms  1.04 ms   0 of 40
#   490             400   4.17 ms  4.47 ms   0 of 40
#   1620            100   1.87 ms  1.91 ms  20 of 40
#   1940            100   2.10 ms  1.27 ms  38 of 40
#   2600             20   0.51 ms  0.43 ms  26 of 40
#   25700 (K=100,   100  19.97 ms 10.61 ms  40 of 40
#          D=256)
_POOLED_DRAW_MIN_VALUES = 2_000


@dataclass(frozen=True)
class PredictionSet:
    """Softmax outputs per MC weight sample, plus their mean and argmax.

    prob_samples is N x S x K; mean_probs is the sample mean over axis 1;
    predicted is the argmax of mean_probs. Nothing is checked: the record
    holds what it is given, with its own copy of the grid.
    """

    prob_samples: np.ndarray
    mean_probs: np.ndarray
    predicted: np.ndarray
    mc_samples: int

    def __post_init__(self):
        # perfbench/run.py times this constructor until the times add up to
        # 1 s, summing the whole list of times on each pass, so the loop
        # costs the square of its passes. Without the copy (about 1 us a
        # construction) it had reached 0.2 s of its 1 s after 30 s on the
        # pipeline grid; the copy, 0.18 ms there, ends it in about 1 s (on a
        # 2-core VM).
        grid = np.array(self.prob_samples, dtype=np.float64)
        object.__setattr__(self, "prob_samples", grid)

    @property
    def num_classes(self) -> int:
        return self.prob_samples.shape[2]


@dataclass(frozen=True)
class PosteriorSummary:
    """Per-row results of the predictive posterior, as score_posterior returns them.

    mean_probs is the N x K mean over the S draws of each row's softmax and
    predicted its argmax, ties broken toward the lowest class index. The
    scores follow: confidence, entropy, expected_entropy and mutual_info, N
    each. expected_entropy and mutual_info are both None when the posterior
    was scored with ``mutual_info=False``; no gate or writer that needs them
    accepts such a summary. Construction checks only the shapes, not the
    arithmetic, and freezes the arrays without copying them.
    """

    mean_probs: np.ndarray
    predicted: np.ndarray
    confidence: np.ndarray
    entropy: np.ndarray
    expected_entropy: np.ndarray | None
    mutual_info: np.ndarray | None

    def __post_init__(self):
        if (self.expected_entropy is None) != (self.mutual_info is None):
            raise ValueError(
                "expected_entropy and mutual_info must both be given or both be None"
            )
        mean_probs = np.asarray(self.mean_probs, dtype=np.float64)
        if mean_probs.ndim != 2:
            raise ValueError(f"mean_probs must be N x K, got shape {mean_probs.shape}")
        arrays = {"mean_probs": mean_probs,
                  "predicted": np.asarray(self.predicted, dtype=np.int64)}
        for name in ("confidence", "entropy", "expected_entropy", "mutual_info"):
            if getattr(self, name) is not None:
                arrays[name] = np.asarray(getattr(self, name), dtype=np.float64)
        n = mean_probs.shape[0]
        for name, arr in arrays.items():
            if name != "mean_probs" and arr.shape != (n,):
                raise ValueError(f"{name} must have length {n}, got shape {arr.shape}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _class_major(num_classes: int) -> bool:
    """Whether a chunk's buffer is class-major (S, K, rows), not (S, rows, K).

    Below 8 classes every sum over them is a fold of K class slices
    (_sum_classes), which a class-major buffer makes K adds over contiguous
    rows. From 8 classes numpy sums pairwise along the contiguous class axis
    of a draw-major buffer, and that order fixes the bits; along a
    class-major one it would add the K slices left to right.
    """
    return num_classes < 8


def _sum_classes(block: np.ndarray, axis: int = -1) -> np.ndarray:
    """``block.sum(axis=axis, keepdims=True)`` without its slow loop.

    numpy sums fewer than 8 terms as ``0.0 + a0 + a1 + ...`` from left to
    right, one short reduction per row. Folding the class slices in that
    order gives the same bits in K whole-array adds, over contiguous rows
    when `axis` is the class axis of a class-major chunk. The 0.0 start
    matters: it turns a row of -0.0 into 0.0, as numpy does. From 8 terms on
    numpy sums pairwise, so its own sum is used. Where the sum is NaN, both
    are NaN but may carry different NaN bits (numpy keeps the first NaN
    term, the fold the last); the engine never sums a NaN.
    """
    k = block.shape[axis]
    if k == 0 or k >= 8:
        return block.sum(axis=axis, keepdims=True)
    head = (slice(None),) * (axis % block.ndim)
    total = block[(*head, slice(0, 1))] + 0.0
    for j in range(1, k):
        total += block[(*head, slice(j, j + 1))]
    return total


def _entropy(probs: np.ndarray, axis: int = -1) -> np.ndarray:
    """Shannon entropy in nats along `axis`, with 0 ln 0 taken as 0.

    `probs` holds probability rows: values in [0, 1], some positive in each.
    """
    p = np.asarray(probs, dtype=np.float64)
    # A zero p takes the log of the least subnormal, so its term is -0.0,
    # where a guard of ln 1 would give +0.0. Each row also holds a p = 1
    # term (+0.0) or a nonzero one, and beside either a -0.0 changes no sum,
    # so both guards give the same bits; np.maximum costs about half of
    # np.where(p > 0, p, 1). One temporary the size of p.
    terms = np.maximum(p, 5e-324)
    np.log(terms, out=terms)
    terms *= p
    return -_sum_classes(terms, axis).squeeze(axis)


def _scores(
    mean_probs: np.ndarray, expected_entropy: np.ndarray | None
) -> PosteriorSummary:
    """The summary of mean probabilities and, if given, per-row expected entropies."""
    # No entropy over K classes exceeds ln K, but a row within about 1e-11 of
    # uniform can round one ulp past it; the clamp keeps both entropies, and
    # so mutual_info, within [0, ln K].
    log_k = math.log(mean_probs.shape[1])
    entropy = np.minimum(_entropy(mean_probs), log_k)
    if expected_entropy is not None:
        expected_entropy = np.minimum(expected_entropy, log_k)
    return PosteriorSummary(
        mean_probs=mean_probs,
        predicted=np.argmax(mean_probs, axis=1),
        confidence=mean_probs.max(axis=1),
        entropy=entropy,
        expected_entropy=expected_entropy,
        mutual_info=(
            None if expected_entropy is None
            else np.maximum(0.0, entropy - expected_entropy)
        ),
    )


def check_mc_samples(mc_samples: int) -> None:
    """The one rule on a posterior sample count: at least 1."""
    if mc_samples < 1:
        raise ValueError(f"mc_samples must be at least 1, got {mc_samples}")


def _chunk_rows(n: int, mc_samples: int, num_classes: int) -> int:
    """Rows per chunk: as many as fit _CHUNK_BYTES with all S draws, at
    least _MIN_CHUNK_ROWS, at most n."""
    return min(n, max(_MIN_CHUNK_ROWS, _CHUNK_BYTES // (mc_samples * num_classes * 8)))


def _chunk_bounds(n: int, mc_samples: int, num_classes: int) -> list[tuple[int, int]]:
    """(start, stop) row ranges covering range(n), each of _chunk_rows rows.

    A single row left over at the end joins the chunk before it, so no chunk
    has one row unless n == 1.
    """
    starts = list(range(0, n, _chunk_rows(n, mc_samples, num_classes)))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def _block_draws(n: int, mc_samples: int, num_classes: int) -> int:
    """Draws per block: as many as fit _CHUNK_BYTES with a chunk's rows, 1 to S."""
    rows = _chunk_rows(n, mc_samples, num_classes)
    return min(mc_samples, max(1, _CHUNK_BYTES // (rows * num_classes * 8)))


def _posterior_draws(
    layer: VBLinearLayer, mc_samples: int, seed: int, pool=None, workers: int = 1
):
    """The S weight draws: (S, D, K) transposed weights and (S, 1, K) biases.

    All S up front, in one allocation made on the calling thread: small (S x
    K x (D+1)) next to the grid, and an absurd S fails here at once rather
    than draw by draw. Each draw's noise fills its own contiguous slots,
    weights first, from ``default_rng([seed, s])`` as ``sample_weights``
    draws it; sigma and mu, the softplus taken once, then apply in place, so
    the draws equal ``sample_weights``' bit for bit (sigma x eps + mu).
    Without `pool` the calling thread takes every draw. With it, an
    executor, `workers` of its threads each take a contiguous range of s and
    apply sigma and mu to that range; since each draw has its own stream and
    slots, no bit depends on which thread took it. A draw that is not finite
    can only come from the model, whose sigma times a standard normal
    overflowed, so the calling thread reports the lowest such draw here,
    never a data row; numpy's overflow warning is silenced for it.
    """
    k = layer.num_classes
    weights = np.empty((mc_samples, k, layer.feature_dim))
    biases = np.empty((mc_samples, 1, k))
    weight_sigma, bias_sigma = layer.weight_sigma, layer.bias_sigma

    def fill(first: int, stop: int) -> None:
        for s in range(first, stop):
            rng = np.random.default_rng([seed, s])
            rng.standard_normal(out=weights[s])
            rng.standard_normal(out=biases[s, 0])
        part_w, part_b = weights[first:stop], biases[first:stop]
        with np.errstate(over="ignore", invalid="ignore"):
            part_w *= weight_sigma
            part_w += layer.weight_mu
            part_b *= bias_sigma
            part_b += layer.bias_mu

    if pool is None:
        fill(0, mc_samples)
    else:
        edges = [mc_samples * i // workers for i in range(workers + 1)]
        futures = [pool.submit(fill, a, b) for a, b in zip(edges, edges[1:]) if a < b]
        for future in futures:
            future.result()
    finite = np.isfinite(weights).all(axis=(1, 2)) & np.isfinite(biases).all(axis=(1, 2))
    if not finite.all():
        raise ValueError(
            f"posterior draw {int(finite.argmin())} is not finite: "
            "the model's weight/bias sigma overflows float64"
        )
    # The (S, D, K) view hands BLAS the transposed operand that draw s's own
    # `rows @ weights[s].T` would, so each batch item is the same gemm.
    return weights.transpose(0, 2, 1), biases


def _sub_block(draws: int) -> int:
    """Draws per sub-block of a block: a quarter of them, rounded up, holds
    a sub-block's temporaries to a quarter of the block."""
    return -(-draws // 4)


def _logits(features, weights_t, biases, probs) -> None:
    """Write each draw's logits of `features` into probs, a (draws, K, rows) view.

    The product is always ``np.matmul(features, weights_t[draws], out=...)``
    into a draw-major (draws, rows, K) array, so each draw's gemm rounds as
    `rows @ weights[s].T` does. A draw-major buffer takes the product in
    place. A class-major one takes it a sub-block of draws at a time through
    scratch, from which one transposing add of the biases moves it in; the
    scratch is freed before the entropies' temporaries of the same size are
    taken. A product written class-major by BLAS itself, ``weights @
    features.T`` or an ``out`` that numpy meets by swapping the operands, is
    another gemm: under OPENBLAS_CORETYPE=Haswell it moved the last bits of
    K=5 probabilities.
    """
    draws, k, rows = probs.shape
    if not _class_major(k):
        draw_major = probs.transpose(0, 2, 1)
        np.matmul(features, weights_t, out=draw_major)
        draw_major += biases
        return
    step = _sub_block(draws)
    scratch = np.empty((step, rows, k))
    for first in range(0, draws, step):
        block = slice(first, min(first + step, draws))
        logits = scratch[: block.stop - first]
        np.matmul(features, weights_t[block], out=logits)
        np.add(logits.transpose(0, 2, 1), biases[block].transpose(0, 2, 1),
               out=probs[block])


def _softmax_block(features, weights_t, biases, probs, peak):
    """Fill probs, a (draws, K, rows) view, with the softmax of `features` under each draw.

    peak is (draws, 1, rows) scratch. Returns None, or, where some row's
    logits are not finite under some draw, the (draws, rows) mask of those
    rows and draws, with probs left unfinished.
    """
    k = probs.shape[1]
    # The finite-maximum check below reports an overflowing row, not numpy's
    # warnings; the caller's error state is back once the block is done.
    with np.errstate(over="ignore", invalid="ignore"):
        _logits(features, weights_t, biases, probs)
        # vbll.softmax over the whole block, step for step, so the same bits.
        # Below 8 classes numpy's max over the short class axis is slow;
        # folding the K class slices with np.maximum gives the same maximum
        # (NaN still propagates, and a -0.0 against a 0.0 maximum gives the
        # same exp). A draw-major buffer's class axis is contiguous, so one
        # max over it takes every row's: at K=100 on a block of 20 draws x
        # 128 rows, 119 us against 193 us for the K - 1 strided folds.
        if _class_major(k):
            np.copyto(peak, probs[:, :1])
            for j in range(1, k):
                np.maximum(peak, probs[:, j : j + 1], out=peak)
        else:
            probs.transpose(0, 2, 1).max(axis=2, out=peak[:, 0])
        if not np.isfinite(peak).all():
            return ~np.isfinite(peak[:, 0])
        # A finite maximum bounds every logit of its row, so each exp is in
        # [0, 1] and the maximum's own is exactly 1. The row sum thus lies in
        # [1, K], and the K quotients sum to 1 within K * 2.2e-16.
        probs -= peak
        np.exp(probs, out=probs)
        probs /= _sum_classes(probs, axis=1)
    return None


def _softmax_chunk(features, start, blocks, scratch, reduce) -> None:
    """Score `features`, data rows start.., under every draw, a block of draws at a time.

    blocks lists (first, weights_t, biases) for draws first.. of each block,
    in draw order, and scratch is the thread's (buffer, row maxima) pair of
    flat arrays, large enough for a block of these rows. reduce(start, first,
    probs) gets each block as soon as it is scored: probs is a (draws, K,
    rows) view of the buffer (see _class_major), which the next block
    overwrites. A row whose logits are not finite under some draw raises a
    ValueError that names the chunk's lowest such row, over all its draws,
    and that row's lowest such draw; no block is reduced after one that
    holds such a row.
    """
    rows = features.shape[0]
    buffer, row_max = scratch
    failure = None  # (row, draw) of the lowest failing row so far
    for first, weights_t, biases in blocks:
        draws, k = weights_t.shape[0], weights_t.shape[2]
        values = buffer[: draws * rows * k]
        if _class_major(k):
            probs = values.reshape(draws, k, rows)
        else:
            probs = values.reshape(draws, rows, k).transpose(0, 2, 1)
        peak = row_max[: draws * rows].reshape(draws, 1, rows)
        bad = _softmax_block(features, weights_t, biases, probs, peak)
        if bad is None:
            if failure is None:
                reduce(start, first, probs)
            continue
        row = int(bad.any(axis=0).argmax())
        if failure is None or row < failure[0]:
            failure = (row, first + int(bad[:, row].argmax()))
    if failure is not None:
        raise ValueError(
            f"data row {start + failure[0]}: logits are not finite under "
            f"posterior draw {failure[1]}"
        )


def _worker_count(chunks: int) -> int:
    """How many threads score `chunks` chunks: at most one per usable CPU."""
    return min(usable_cpus(), chunks, _MAX_WORKERS)


def _score_chunks(
    layer: VBLinearLayer, features: np.ndarray, mc_samples: int, seed: int, reduce
) -> None:
    """Score every row chunk of the posterior on a pool of threads.

    reduce(start, first, probs) runs on the thread that scored rows start..
    under draws first.., as soon as they are scored, for each block of
    draws in order (see _softmax_chunk). It may write only its own chunk's
    rows of any shared output, so no result depends on the thread count or
    on which thread took a chunk. Without a pool (no BLAS pin, or a worker
    count of 1) the caller takes the draws and scores the chunks in row
    order. With one, the pool also takes the draws when each holds at least
    _POOLED_DRAW_MIN_VALUES values, and the caller checks them before it
    submits the first chunk.

    Pool threads take chunks in row order under the caller's numpy error
    state. The caller awaits them in row order, so the error raised is the
    lowest failing row's; chunks not started by then are cancelled. Every
    pool thread is joined before this returns or raises.
    """
    n, k = features.shape[0], layer.num_classes
    bounds = _chunk_bounds(n, mc_samples, k)
    step = _block_draws(n, mc_samples, k)
    most = max(stop - start for start, stop in bounds)
    local = threading.local()

    def draw_blocks(pool, workers: int) -> list:
        weights_t, biases = _posterior_draws(layer, mc_samples, seed, pool, workers)
        return [
            (first, weights_t[first : first + step], biases[first : first + step])
            for first in range(0, mc_samples, step)
        ]

    def score(blocks: list, start: int, stop: int) -> None:
        if not hasattr(local, "scratch"):  # this thread's first chunk
            local.scratch = (np.empty(step * most * k), np.empty(step * most))
        _softmax_chunk(features[start:stop], start, blocks, local.scratch, reduce)

    with one_blas_thread() as pinned:
        # Without the pin each thread's gemm would start BLAS threads of its
        # own, and two scoring threads ran slower than one.
        workers = _worker_count(len(bounds)) if pinned else 1
        if workers == 1:
            blocks = draw_blocks(None, 1)
            for start, stop in bounds:
                score(blocks, start, stop)
            return
        # Only here: it would add about 7 ms to `import vbselect.cli`.
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(workers) as pool:
            try:
                large = k * (layer.feature_dim + 1) >= _POOLED_DRAW_MIN_VALUES
                blocks = draw_blocks(pool if large else None, workers)
                futures = [
                    pool.submit(copy_context().run, score, blocks, *chunk) for chunk in bounds
                ]
                for future in futures:
                    future.result()
            finally:
                pool.shutdown(cancel_futures=True)


def predictive_posterior(
    layer: VBLinearLayer, data, mc_samples: int = 20, seed: int = 0
) -> PredictionSet:
    """Sample the predictive posterior with S plain weight draws.

    `data` may be a FeatureDataset or a raw N x D array. Sample s draws its
    weights from ``default_rng([seed, s])``. The result holds the full
    N x S x K grid; use score_posterior when only per-row results are needed.
    """
    check_mc_samples(mc_samples)
    features = check_features(layer, data)
    prob_samples = np.empty((features.shape[0], mc_samples, layer.num_classes))

    def copy(start, first, probs):
        draws, _, rows = probs.shape
        prob_samples[start : start + rows, first : first + draws] = probs.transpose(2, 0, 1)

    _score_chunks(layer, features, mc_samples, seed, copy)
    mean_probs = prob_samples.mean(axis=1)
    return PredictionSet(
        prob_samples=prob_samples,
        mean_probs=mean_probs,
        predicted=np.argmax(mean_probs, axis=1),
        mc_samples=mc_samples,
    )


def _pwrite(fd: int, data, offset: int) -> None:
    """Write all of `data` at `offset` of file descriptor `fd`."""
    view = memoryview(data).cast("B")
    while view:  # a write may stop short, e.g. at a file-size limit
        written = os.pwrite(fd, view, offset)
        view, offset = view[written:], offset + written


def _npy_records(fd: int, shape: tuple[int, int, int], reduce):
    """`reduce` that first writes each block's records into an (N, S, K) .npy file.

    Writes the npy 1.0 header of a C-order '<f8' array of `shape` at offset 0
    of `fd`. The returned function writes row i, draw s at header + (i·S + s)
    ·K·8, the layout ``np.load`` reads, then calls reduce(start, first,
    probs). Each byte range is written once, so the file does not depend on
    which thread wrote which block, or when.
    """
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, {"descr": "<f8", "fortran_order": False, "shape": shape}
    )
    _pwrite(fd, header.getvalue(), 0)
    data, record_bytes = header.tell(), shape[2] * 8

    # Whole rows go out about 64 KiB at a time, so that each thread's copy in
    # file order stays small next to its block. A block of fewer than S draws
    # fills a run of each of its rows' records, one write per row.
    whole = max(1, 2**16 // (shape[1] * record_bytes))

    def write(start, first, probs):
        draws, _, rows = probs.shape
        step = whole if draws == shape[1] else 1
        for row in range(0, rows, step):
            records = probs[:, :, row : row + step].transpose(2, 0, 1)
            records = np.ascontiguousarray(records, dtype="<f8")
            offset = data + ((start + row) * shape[1] + first) * record_bytes
            _pwrite(fd, records, offset)
        reduce(start, first, probs)

    return write


def score_posterior(
    layer: VBLinearLayer, data, mc_samples: int = 20, seed: int = 0, samples=None,
    mutual_info: bool = True,
) -> PosteriorSummary:
    """Mean probabilities, predictions and scores, streamed over row chunks.

    `data` may be a FeatureDataset or a raw N x D array. Sample s draws its
    weights from ``default_rng([seed, s])``. Memory is O(N·K + S·K·D +
    threads x chunk). With `samples`, a path, the N x S x K grid of sampled
    probabilities is also committed there as an ``.npy`` file, which
    ``np.load`` reads back bit for bit; each pool thread writes the blocks it
    scored. With ``mutual_info=False`` the S per-draw entropies of each row,
    about a quarter of the scoring time, are not taken, and the summary's
    expected_entropy and mutual_info are None.
    """
    check_mc_samples(mc_samples)
    features = check_features(layer, data)
    n, k = features.shape[0], layer.num_classes
    mean_probs = np.empty((n, k))
    expected_entropy = np.empty(n) if mutual_info else None

    per_draw = {}  # chunk start -> its (rows, S) per-draw entropies so far

    def reduce(start, first, probs):
        draws, _, rows = probs.shape
        chunk, last = slice(start, start + rows), first + draws == mc_samples
        # The draws are added one by one in order, as numpy adds the grid's
        # axis 1: within the first block by numpy's own sum over its outer
        # axis, into an array laid out as the block (a class-major chunk's
        # rows are contiguous there, not in the result).
        if first == 0:
            mean_probs[chunk] = probs.sum(axis=0).T
        else:
            total = mean_probs[chunk].T
            for draw in probs:
                total += draw
        if last:
            mean_probs[chunk] /= mc_samples
        if expected_entropy is None:
            return
        # Per-draw entropies as contiguous (rows, S), so each row's S terms
        # are summed pairwise as over the grid once the last block is in; a
        # mean over axis 0 would add them left to right and round differently
        # once S >= 9. A sub-block of draws at a time was as fast as all at
        # once on bulk.csv.
        if first == 0:
            per_draw[start] = np.empty((rows, mc_samples))
        entropies, step = per_draw[start], _sub_block(draws)
        for a in range(0, draws, step):
            part = probs[a : a + step]
            entropies[:, first + a : first + a + len(part)] = _entropy(part, axis=1).T
        if last:
            expected_entropy[chunk] = per_draw.pop(start).mean(axis=1)

    if samples is None:
        _score_chunks(layer, features, mc_samples, seed, reduce)
    else:
        with atomic_write(samples) as handle:
            write = _npy_records(handle.fileno(), (n, mc_samples, k), reduce)
            _score_chunks(layer, features, mc_samples, seed, write)
    return _scores(mean_probs, expected_entropy)


def uncertainty_scores(pred: PredictionSet) -> PosteriorSummary:
    """The summary of a full grid; a pure function of pred.prob_samples."""
    return _scores(pred.mean_probs, _entropy(pred.prob_samples).mean(axis=1))


def save_predictions_csv(posterior: PosteriorSummary, labels, path: str) -> None:
    """Write `index,label,predicted,confidence,entropy,mutual_info` rows."""
    if posterior.mutual_info is None:
        raise ValueError(
            "predictions need mutual_info scores; score with mutual_info=True"
        )
    labels = np.asarray(labels, dtype=np.int64)
    n = len(posterior.predicted)
    if labels.shape != (n,):
        raise ValueError("labels must match the prediction length")
    columns = (labels, posterior.predicted, posterior.confidence, posterior.entropy,
               posterior.mutual_info)
    # About 64k values at a time, as dataset.format_rows: the whole file's
    # lines and Python numbers would take several times its own bytes.
    step = 2**16 // len(columns)

    def lines():
        yield "index,label,predicted,confidence,entropy,mutual_info"
        for first in range(0, n, step):
            block = (column[first : first + step].tolist() for column in columns)
            yield from ("%d,%d,%d,%r,%r,%r" % row for row in zip(range(first, n), *block))

    write_lines(path, lines())


def save_prob_samples_csv(pred: PredictionSet, path: str) -> None:
    """Write the full posterior sample grid as text: `index,sample,p0..p{K-1}`.

    One line per (row, sample), each probability at ``repr`` precision.
    """
    n, s, k = pred.prob_samples.shape
    # About 64k values, some 1.3 MB of text, per write: a whole grid's lines
    # and the Python objects behind them take several times its own bytes,
    # and the process keeps that memory after they are freed.
    step = max(1, 2**16 // (s * k))
    with atomic_write(path) as handle:
        handle.write("index,sample," + ",".join(f"p{j}" for j in range(k)) + "\n")
        for first in range(0, n, step):
            lines = []
            for i, row in enumerate(pred.prob_samples[first : first + step].tolist(), first):
                for sample, values in enumerate(row):
                    lines.append(f"{i},{sample}," + ",".join(map(repr, values)) + "\n")
            handle.write("".join(lines))
