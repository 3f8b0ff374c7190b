"""The paper's table on a data set where the trade-off shows: coverage,
rejection ratio, accuracy on accepted cases, overall accuracy and ECE at
two confidence thresholds.

Five imbalanced classes (1600/1200/1000/700/500 rows; the paper's five
retinopathy grades are imbalanced too) sit close together at separation
2.0, so about one case in five is misclassified and a confidence gate has
real work to do. The training split is SMOTE-balanced, the head trains for
30 epochs, and the test split is scored once with S=100 posterior draws;
both gates read that one posterior summary.
"""

from vbselect import (
    LayerInitConfig,
    SplitRatios,
    SyntheticConfig,
    TrainConfig,
    apply_rejection,
    ece,
    generate_synthetic,
    score_posterior,
    smote_oversample,
    stratified_split,
    train,
)

cfg = SyntheticConfig(num_classes=5, feature_dim=16,
                      samples_per_class=(1600, 1200, 1000, 700, 500),
                      class_separation=2.0)
ds = generate_synthetic(cfg, seed=0)
train_ds, val_ds, test_ds = stratified_split(ds, SplitRatios(0.7, 0.15, 0.15), seed=0)
largest = int(train_ds.class_counts().max())
balanced = smote_oversample(train_ds, (largest,) * train_ds.num_classes, seed=0)
layer, _ = train(balanced, val_ds, LayerInitConfig(seed=0), TrainConfig(epochs=30, seed=0))

posterior = score_posterior(layer, test_ds, mc_samples=100, seed=0)
correct = posterior.predicted == test_ds.labels
print(f"test split: {test_ds.n_samples} cases, classes {test_ds.class_counts().tolist()}")
print(f"ECE over every case (15 bins): {ece(posterior.confidence, correct).ece:.4f}")

#%% one row per threshold, as in the paper's table

print(f"\n{'tau':>4} {'coverage':>9} {'rejection':>10} {'acc_accepted':>13} "
      f"{'acc_overall':>12} {'ECE_accepted':>13}")
for tau in (0.7, 0.9):
    report = apply_rejection(posterior, test_ds.labels, threshold=tau)
    mask = report.accepted_mask
    accepted_ece = ece(posterior.confidence[mask], correct[mask]).ece
    print(f"{tau:>4.1f} {report.coverage:>9.4f} {report.rejection_rate:>10.4f} "
          f"{report.selective_accuracy:>13.4f} {report.overall_accuracy:>12.4f} "
          f"{accepted_ece:>13.4f}")

# A higher threshold defers more cases to a human reader (lower coverage)
# and is right more often on the cases it keeps: the trade-off between
# coverage and reliability that the paper reports.
