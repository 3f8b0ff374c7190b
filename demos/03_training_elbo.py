"""Train the variational head on synthetic data and watch the negative
ELBO decompose into its data-fit (NLL) and complexity (KL) parts.
"""

import numpy as np

from vbselect import (
    LayerInitConfig,
    SplitRatios,
    SyntheticConfig,
    TrainConfig,
    forward_mean,
    generate_synthetic,
    gradcheck,
    gradcheck_instance,
    stratified_split,
    train,
)

cfg = SyntheticConfig(num_classes=4, feature_dim=10,
                      samples_per_class=(200, 200, 200, 200),
                      class_separation=3.0, noise_scale=1.0)
ds = generate_synthetic(cfg, seed=1)
train_ds, val_ds, test_ds = stratified_split(ds, SplitRatios(0.7, 0.15, 0.15), seed=1)

init = LayerInitConfig(rho_init=-5.0, prior_scale=1.0, seed=1)
tc = TrainConfig(epochs=20, batch_size=64, learning_rate=1e-2, seed=1)

layer, trace = train(train_ds, val_ds, init, tc)

# epoch-by-epoch: total = nll + kl/N, with KL shrinking as mu moves and
# NLL dropping as the decision boundary locks in
print(f"{'epoch':>5} {'total':>10} {'nll':>10} {'kl':>10} {'val_acc':>8}")
for rec in trace[::4] + trace[-1:]:
    print(f"{rec.epoch:>5} {rec.total:>10.4f} {rec.nll:>10.4f} "
          f"{rec.kl:>10.2f} {rec.val_acc:>8.4f}")

logits = forward_mean(layer, test_ds.features)
test_acc = float(np.mean(np.argmax(logits, axis=1) == test_ds.labels))
print("test accuracy (posterior-mean forward):", round(test_acc, 4))

#%% analytic gradients vs central differences

# The trainer's gradients are hand-derived; gradcheck replays the same
# noise and compares each coordinate against a finite-difference probe.
check_layer, batch, labels = gradcheck_instance(num_classes=3, feature_dim=4,
                                                batch_size=8, seed=0)
err = gradcheck(check_layer, batch, labels, n_train=8, h=1e-5, seed=0)
print("gradcheck max relative error:", err)
