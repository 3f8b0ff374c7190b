"""Generate a synthetic feature dataset, round-trip it through CSV,
split it into train/val/test, and rebalance a skewed version with SMOTE.
"""

import os
import tempfile

import numpy as np

from vbselect import (
    FeatureDataset,
    SplitRatios,
    SyntheticConfig,
    generate_synthetic,
    load_csv,
    save_csv,
    smote_oversample,
    stratified_split,
)

# ------------------------------------------------------------------
# 1. Generate a balanced 3-class dataset in 8 dimensions.
#    Class means sit on a simplex scaled by class_separation, and
#    isotropic Gaussian noise is added on top.
cfg = SyntheticConfig(
    num_classes=3,
    feature_dim=8,
    samples_per_class=(100, 100, 100),
    class_separation=3.0,
    noise_scale=1.0,
)
ds = generate_synthetic(cfg, seed=42)
print("features:", ds.features.shape, ds.features.dtype)
print("labels:  ", ds.labels.shape, ds.labels.dtype)
print("class counts:", ds.class_counts())

# ------------------------------------------------------------------
# 2. CSV round trip.  Floats are written with %.17g so the reloaded
#    arrays are bitwise identical to the originals.
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "demo.csv")
    save_csv(ds, path)
    back = load_csv(path)
print("round trip exact:", np.array_equal(ds.features, back.features)
      and np.array_equal(ds.labels, back.labels))

# ------------------------------------------------------------------
# 3. Stratified split.  Ratios apply per class, largest-remainder
#    rounding, so each split's class counts deviate from the exact
#    ratio by at most one sample.
ratios = SplitRatios(train=0.7, val=0.15, test=0.15)
train_ds, val_ds, test_ds = stratified_split(ds, ratios, seed=42)
for name, part in [("train", train_ds), ("val", val_ds), ("test", test_ds)]:
    print(f"{name}: n={part.n_samples} counts={part.class_counts()}")

# ------------------------------------------------------------------
# 4. SMOTE on an imbalanced dataset.  Minority samples are interpolated
#    between real samples and their nearest same-class neighbours; the
#    original rows are kept verbatim at the front.
skewed_cfg = SyntheticConfig(
    num_classes=3,
    feature_dim=8,
    samples_per_class=(150, 40, 20),
    class_separation=3.0,
    noise_scale=1.0,
)
skewed = generate_synthetic(skewed_cfg, seed=7)
print("before balance:", skewed.class_counts())

balanced = smote_oversample(skewed, target_counts=(150, 150, 150), seed=7)
print("after balance: ", balanced.class_counts())

# every original row survives unchanged
orig = {tuple(row) for row in skewed.features}
kept = sum(tuple(row) in orig for row in balanced.features)
print("original rows retained:", kept, "; synthetic rows added:",
      balanced.n_samples - skewed.n_samples)
