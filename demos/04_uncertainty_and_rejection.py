"""From a trained head to selective predictions: sample the predictive
posterior, score uncertainty three ways, and trade coverage for accuracy
by refusing to predict on the least confident examples.
"""

import numpy as np

from vbselect import (
    LayerInitConfig,
    SplitRatios,
    SyntheticConfig,
    TrainConfig,
    apply_rejection,
    confusion_matrix,
    generate_synthetic,
    score_posterior,
    stratified_split,
    threshold_sweep,
    train,
)

# train a small model (same recipe as demo 03, noisier data so the
# rejection gate has something to reject)
cfg = SyntheticConfig(num_classes=4, feature_dim=10,
                      samples_per_class=(200, 200, 200, 200),
                      class_separation=2.0, noise_scale=1.2)
ds = generate_synthetic(cfg, seed=2)
train_ds, val_ds, test_ds = stratified_split(ds, SplitRatios(0.7, 0.15, 0.15), seed=2)
layer, _ = train(train_ds, val_ds,
                 LayerInitConfig(seed=2), TrainConfig(epochs=20, seed=2))

# S Monte Carlo weight draws -> S probability vectors per example, reduced
# to one summary: their mean, its argmax and the three scores, without
# keeping the S vectors. Sample s comes from a stream seeded [seed, s], so
# running with a larger S extends the smaller run instead of reshuffling it.
posterior = score_posterior(layer, test_ds.features, mc_samples=20, seed=2)
print("mean_probs:", posterior.mean_probs.shape)

print("\nfirst five test examples:")
print(f"{'pred':>4} {'label':>5} {'conf':>7} {'entropy':>8} {'mutual_info':>12}")
for i in range(5):
    print(f"{posterior.predicted[i]:>4} {test_ds.labels[i]:>5} "
          f"{posterior.confidence[i]:>7.4f} {posterior.entropy[i]:>8.4f} "
          f"{posterior.mutual_info[i]:>12.6f}")

#%% reject everything below a confidence threshold

report = apply_rejection(posterior, test_ds.labels, threshold=0.7, measure="confidence")
print("\nthreshold 0.7 on confidence:")
print("  accepted:", report.accepted_count, " rejected:", report.rejected_count)
print("  coverage:", round(report.coverage, 4))
print("  overall accuracy:  ", round(report.overall_accuracy, 4))
print("  selective accuracy:", round(report.selective_accuracy, 4))

# rows = true class, cols = predicted class; most of the off-diagonal
# mass should disappear from the accepted-only matrix
print("confusion (all):")
print(confusion_matrix(posterior.predicted, test_ds.labels,
                       np.ones(test_ds.n_samples, dtype=bool), test_ds.num_classes))
print("confusion (accepted only):")
print(confusion_matrix(posterior.predicted, test_ds.labels,
                       report.accepted_mask, test_ds.num_classes))

#%% sweep the threshold to draw the accuracy/coverage trade-off

curve = threshold_sweep(posterior, test_ds.labels, measure="confidence")
print(f"\n{'tau':>5} {'coverage':>9} {'selective_acc':>14}")
for r in curve.reports:
    sel = "-" if r.selective_accuracy is None else f"{r.selective_accuracy:.4f}"
    print(f"{r.threshold:>5.2f} {r.coverage:>9.4f} {sel:>14}")
