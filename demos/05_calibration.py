"""Measure whether the model's confidences mean what they say: expected
calibration error, the per-bin reliability table behind it, and the
confidence histogram around a rejection threshold.
"""

import numpy as np

from vbselect import (
    LayerInitConfig,
    SplitRatios,
    SyntheticConfig,
    TrainConfig,
    apply_rejection,
    confidence_histogram,
    ece,
    generate_synthetic,
    score_posterior,
    stratified_split,
    train,
)

cfg = SyntheticConfig(num_classes=4, feature_dim=10,
                      samples_per_class=(200, 200, 200, 200),
                      class_separation=2.0, noise_scale=1.2)
ds = generate_synthetic(cfg, seed=2)
train_ds, val_ds, test_ds = stratified_split(ds, SplitRatios(0.7, 0.15, 0.15), seed=2)
layer, _ = train(train_ds, val_ds,
                 LayerInitConfig(seed=2), TrainConfig(epochs=20, seed=2))

preds = score_posterior(layer, test_ds.features, mc_samples=20, seed=2)
scores = preds.scores
correct = preds.predicted == test_ds.labels

# ECE: bin confidences into 15 equal-width bins on [0,1], then take the
# weighted mean of |bin accuracy - bin mean confidence|.
report = ece(scores.confidence, correct, num_bins=15)
print("ECE(15 bins):", round(report.ece, 4))

print(f"\n{'bin':>11} {'count':>6} {'accuracy':>9} {'confidence':>11} {'gap':>8}")
for b in report.bins:
    if b.count == 0:
        continue
    gap = b.accuracy - b.mean_confidence
    print(f"[{b.lower:.2f},{b.upper:.2f}) {b.count:>6} {b.accuracy:>9.4f} "
          f"{b.mean_confidence:>11.4f} {gap:>8.4f}")

#%% calibration of the accepted subset

# Rejection trims the low-confidence tail, which typically leaves the
# surviving confidences closer to their empirical accuracy.
rej = apply_rejection(scores, preds.predicted, test_ds.labels,
                      threshold=0.7, measure="confidence")
acc_ece = ece(scores.confidence[rej.accepted_mask], correct[rej.accepted_mask],
              num_bins=15)
print("\nECE all examples:     ", round(report.ece, 4))
print("ECE accepted subset:  ", round(acc_ece.ece, 4))

#%% where the mass sits relative to the threshold

hist = confidence_histogram(scores.confidence, num_bins=20, threshold=0.7)
total = int(np.sum(hist.counts))
print("\nconfidence histogram (20 bins, * = 2 examples):")
for lo, hi, n in zip(hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts):
    marker = " <- threshold" if lo <= 0.7 < hi else ""
    print(f"[{lo:.2f},{hi:.2f}) {'*' * (int(n) // 2):<40} {int(n)}{marker}")
print("examples:", total)
