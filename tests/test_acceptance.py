"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line. Each
test re-derives its expected values independently (closed forms, brute-force
re-binning, Monte Carlo with standard-error bounds) rather than trusting the
module under test.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from vbselect.calibration import ece
from vbselect.cli import entrypoint
from vbselect.dataset import (
    FeatureDataset,
    SplitRatios,
    SyntheticConfig,
    generate_synthetic,
    smote_oversample,
    stratified_split,
)
from vbselect.inference import score_posterior
from vbselect.selection import apply_rejection
from vbselect.training import (
    LayerInitConfig,
    TrainConfig,
    gradcheck,
    gradcheck_instance,
    train,
)
from vbselect.vbll import (
    VBLinearLayer,
    forward_flipout,
    forward_mean,
    init_layer,
    kl_to_prior,
    sample_weights,
    softplus,
    softplus_inverse,
)


def report(name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE] {name}: {status} — {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def desk_runs():
    """Ten full library-level pipeline runs at desk scale, one per seed."""
    runs = []
    started = time.perf_counter()
    for seed in range(10):
        config = SyntheticConfig(
            num_classes=5,
            feature_dim=16,
            samples_per_class=(1000,) * 5,
            class_separation=4.0,
            noise_scale=1.0,
        )
        full = generate_synthetic(config, seed=seed)
        train_ds, val_ds, _ = stratified_split(
            full, SplitRatios(0.70, 0.15, 0.15), seed=seed
        )
        layer, _ = train(
            train_ds,
            val_ds,
            LayerInitConfig(seed=seed),
            TrainConfig(epochs=30, batch_size=128, seed=seed),
        )
        posterior = score_posterior(layer, val_ds, mc_samples=20, seed=seed)
        rejection = apply_rejection(posterior, val_ds.labels, threshold=0.7)
        calibration = ece(
            posterior.confidence, posterior.predicted == val_ds.labels, num_bins=15
        )
        runs.append({
            "seed": seed,
            "val_acc": rejection.overall_accuracy,
            "ece": calibration.ece,
            "selective": rejection.selective_accuracy,
        })
    return runs, time.perf_counter() - started


@pytest.fixture(scope="module")
def cli_desk(tmp_path_factory):
    """CLI pipeline at desk scale (seed 0): gen, split, train, eval, sweep."""
    root = str(tmp_path_factory.mktemp("cli_desk"))
    data = os.path.join(root, "full.csv")
    splits = os.path.join(root, "splits")
    model = os.path.join(root, "model.json")
    trace = os.path.join(root, "trace.csv")
    eval_dir = os.path.join(root, "eval")
    curve = os.path.join(root, "curve.csv")
    commands = [
        ["gen", "--classes", "5", "--dim", "16", "--per-class", "1000",
         "--separation", "4.0", "--noise", "1.0", "--seed", "0", "--out", data],
        ["split", "--in", data, "--seed", "0", "--out", splits],
        ["train", "--train", os.path.join(splits, "train.csv"),
         "--val", os.path.join(splits, "val.csv"), "--epochs", "30",
         "--seed", "0", "--model-out", model, "--trace-out", trace],
        ["eval", "--model", model, "--data", os.path.join(splits, "val.csv"),
         "--threshold", "0.7", "--seed", "0", "--out", eval_dir],
        ["sweep", "--model", model, "--data", os.path.join(splits, "val.csv"),
         "--seed", "0", "--out", curve],
    ]
    for argv in commands:
        assert entrypoint(argv) == 0, argv[0]
    return {"eval": eval_dir, "curve": curve}


def test_criterion_1_summary_schema(cli_desk):
    with open(os.path.join(cli_desk["eval"], "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    schema = ("accuracy_accepted", "coverage", "rejection_rate", "ece")
    missing = [field for field in schema if field not in summary]
    in_range = all(0.0 <= summary[f] <= 1.0 for f in schema if f in summary)
    report(
        "summary-schema",
        not missing and in_range,
        f"report carries {schema} with unit-interval values "
        f"(missing={missing}); exact headline values depend on data and config",
    )


def test_criterion_2_gradient_correctness():
    worst_err = 0.0
    worst_time = 0.0
    for seed in range(10):
        layer, batch, labels = gradcheck_instance(3, 4, 8, seed=seed)
        started = time.perf_counter()
        err = gradcheck(layer, batch, labels, n_train=8, h=1e-5, seed=seed)
        elapsed = time.perf_counter() - started
        worst_err = max(worst_err, err)
        worst_time = max(worst_time, elapsed)
    report(
        "gradcheck",
        worst_err <= 1e-4 and worst_time < 1.0,
        f"10 seeds: max relative error {worst_err:.3g} (<=1e-4), "
        f"slowest seed {worst_time:.3f}s (<1s)",
    )


def test_criterion_3_kl_identities():
    rho_at_prior = float(softplus_inverse(1.0))

    at_prior = VBLinearLayer(
        weight_mu=np.zeros((3, 4)),
        weight_rho=np.full((3, 4), rho_at_prior),
        bias_mu=np.zeros(3),
        bias_rho=np.full(3, rho_at_prior),
        prior_scale=1.0,
    )
    zero_gap = abs(kl_to_prior(at_prior))

    single = VBLinearLayer(
        weight_mu=np.array([[1.0]]),
        weight_rho=np.array([[rho_at_prior]]),
        bias_mu=np.zeros(1),
        bias_rho=np.full(1, rho_at_prior),
        prior_scale=1.0,
    )
    half_gap = abs(kl_to_prior(single) - 0.5)

    layer = init_layer(4, 3, mu_init_scale=0.5, rho_init=-1.0, seed=3)
    rng = np.random.default_rng(2718)
    draws = 1_000_000
    mc_total = 0.0
    mc_var = 0.0
    for mu, rho in (
        (layer.weight_mu.ravel(), layer.weight_rho.ravel()),
        (layer.bias_mu.ravel(), layer.bias_rho.ravel()),
    ):
        sigma = softplus(rho)
        for m, s_ in zip(mu, sigma):
            eps = rng.standard_normal(draws)
            w = m + s_ * eps
            vals = np.log(1.0 / s_) - 0.5 * eps**2 + w**2 / 2.0
            mc_total += float(vals.mean())
            mc_var += float(vals.var(ddof=1)) / draws
    mc_gap = abs(kl_to_prior(layer) - mc_total)
    bound = 3.0 * math.sqrt(mc_var)

    ok = zero_gap <= 1e-12 and half_gap <= 1e-12 and mc_gap <= bound
    report(
        "kl-identities",
        ok,
        f"prior match {zero_gap:.2e} (<=1e-12), single-param gap "
        f"{half_gap:.2e} (<=1e-12), MC gap {mc_gap:.2e} vs 3SE {bound:.2e}",
    )


def brute_force_ece(confidences, correctness, num_bins):
    total = len(confidences)
    value = 0.0
    for b in range(num_bins):
        lower = b / num_bins
        upper = (b + 1) / num_bins
        members = [
            i for i, c in enumerate(confidences)
            if (lower < c <= upper) or (b == 0 and c == 0.0)
        ]
        if not members:
            continue
        conf = sum(confidences[i] for i in members) / len(members)
        acc = sum(1.0 for i in members if correctness[i]) / len(members)
        value += len(members) / total * abs(acc - conf)
    return value


def test_criterion_4_ece_oracle():
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 200))
        confidences = rng.random(n)
        correctness = rng.random(n) < confidences
        for m in (1, 5, 10, 15, 20):
            gap = abs(
                ece(confidences, correctness, m).ece
                - brute_force_ece(list(confidences), list(correctness), m)
            )
            worst = max(worst, gap)

    conf = np.full(40, 0.8)
    correct = np.array([True] * 30 + [False] * 10)
    closed_form = ece(conf, correct, num_bins=1).ece == abs(0.75 - 0.8)

    report(
        "ece-oracle",
        worst <= 1e-12 and closed_form,
        f"50 instances x M in (1,5,10,15,20): max oracle gap {worst:.2e} "
        f"(<=1e-12); single-bin |0.75-0.8| exact: {closed_form}",
    )


def test_criterion_5_flipout_marginal():
    layer = init_layer(6, 4, mu_init_scale=0.5, rho_init=-1.0, seed=99)
    row = np.random.default_rng(7).standard_normal((1, 6))
    draws = 100_000

    rng = np.random.default_rng(2024)
    flip = np.empty((draws, 4))
    for i in range(draws):
        flip[i] = forward_flipout(layer, row, rng)[0]
    rng = np.random.default_rng(2025)
    plain = np.empty((draws, 4))
    for i in range(draws):
        ws = sample_weights(layer, rng)
        plain[i] = row @ ws.weights.T + ws.biases

    mean_se = np.sqrt((flip.var(axis=0) + plain.var(axis=0)) / draws)
    mean_gap = np.abs(flip.mean(axis=0) - plain.mean(axis=0))
    mean_ok = bool(np.all(mean_gap <= 3.0 * mean_se))

    var_f = flip.var(axis=0, ddof=1)
    var_p = plain.var(axis=0, ddof=1)
    var_se = np.sqrt(2.0 * (var_f**2 + var_p**2) / (draws - 1))
    var_ok = bool(np.all(np.abs(var_f - var_p) <= 3.0 * var_se))

    batch = np.tile(row, (draws, 1))
    logits = forward_flipout(layer, batch, np.random.default_rng(517))
    batch_se = logits.std(axis=0, ddof=1) / math.sqrt(draws)
    batch_gap = np.abs(logits.mean(axis=0) - forward_mean(layer, row)[0])
    batch_ok = bool(np.all(batch_gap <= 3.0 * batch_se))

    report(
        "flipout-marginal",
        mean_ok and var_ok and batch_ok,
        f"1e5 draws: mean gap max {float((mean_gap / mean_se).max()):.2f} SE, "
        f"variance gap max {float((np.abs(var_f - var_p) / var_se).max()):.2f} SE, "
        f"batch-mean gap max {float((batch_gap / batch_se).max()):.2f} SE "
        "(all <=3)",
    )


def test_criterion_6_end_to_end(desk_runs):
    runs, elapsed = desk_runs
    acc_ok = all(r["val_acc"] >= 0.90 for r in runs)
    ece_ok = all(r["ece"] <= 0.05 for r in runs)
    margin_ok = all(r["selective"] >= r["val_acc"] - 0.005 for r in runs)
    strict = sum(1 for r in runs if r["selective"] > r["val_acc"])
    time_ok = elapsed < 60.0
    report(
        "end-to-end",
        acc_ok and ece_ok and margin_ok and strict >= 7 and time_ok,
        f"10 seeds: val acc min {min(r['val_acc'] for r in runs):.4f} (>=0.90), "
        f"ECE max {max(r['ece'] for r in runs):.4f} (<=0.05), selective >= "
        f"overall-0.005 in all, strictly greater in {strict}/10 (>=7), "
        f"{elapsed:.1f}s (<60s)",
    )


def test_criterion_7_sweep_invariant(cli_desk):
    with open(cli_desk["curve"], encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    coverages = [float(r[1]) for r in rows]
    nonincreasing = all(a >= b for a, b in zip(coverages, coverages[1:]))

    with open(os.path.join(cli_desk["eval"], "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    row = next(r for r in rows if float(r[0]) == 0.7)
    matches = (
        float(row[1]) == summary["coverage"]
        and float(row[2]) == summary["rejection_rate"]
        and float(row[3]) == summary["accuracy_accepted"]
    )
    report(
        "sweep-invariant",
        nonincreasing and matches,
        f"9-row default grid, coverage nonincreasing: {nonincreasing}; "
        f"tau=0.7 row equals standalone eval field-for-field: {matches}",
    )


def test_criterion_8_pipeline_determinism(tmp_path):
    relative_files = []

    def run_pipeline(root):
        data = os.path.join(root, "full.csv")
        splits = os.path.join(root, "splits")
        balanced = os.path.join(root, "balanced.csv")
        model = os.path.join(root, "model.json")
        trace = os.path.join(root, "trace.csv")
        eval_dir = os.path.join(root, "eval")
        curve = os.path.join(root, "curve.csv")
        commands = [
            ["gen", "--classes", "3", "--dim", "6", "--per-class", "30,50,40",
             "--seed", "11", "--out", data],
            ["split", "--in", data, "--seed", "11", "--out", splits],
            ["balance", "--in", os.path.join(splits, "train.csv"),
             "--seed", "11", "--out", balanced],
            ["train", "--train", balanced,
             "--val", os.path.join(splits, "val.csv"), "--epochs", "8",
             "--batch-size", "32", "--seed", "11",
             "--model-out", model, "--trace-out", trace],
            ["eval", "--model", model,
             "--data", os.path.join(splits, "val.csv"), "--threshold", "0.7",
             "--seed", "11", "--out", eval_dir],
            ["sweep", "--model", model,
             "--data", os.path.join(splits, "val.csv"), "--seed", "11",
             "--out", curve],
        ]
        for argv in commands:
            assert entrypoint(argv) == 0, argv[0]
        found = []
        for base, _, names in os.walk(root):
            for name in names:
                found.append(os.path.relpath(os.path.join(base, name), root))
        return sorted(found)

    roots = [os.path.join(tmp_path, name) for name in ("run_a", "run_b")]
    for root in roots:
        os.makedirs(root)
        relative_files.append(run_pipeline(root))

    same_listing = relative_files[0] == relative_files[1]
    mismatched = []
    for rel in relative_files[0]:
        with open(os.path.join(roots[0], rel), "rb") as fh:
            first = fh.read()
        with open(os.path.join(roots[1], rel), "rb") as fh:
            second = fh.read()
        if first != second:
            mismatched.append(rel)
    report(
        "pipeline-determinism",
        same_listing and not mismatched,
        f"gen/split/balance/train/eval/sweep twice at seed 11: "
        f"{len(relative_files[0])} files byte-identical "
        f"(mismatches: {mismatched or 'none'})",
    )


def test_criterion_9_uncertainty_bounds():
    rng = np.random.default_rng(909)
    violations = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 7))
        s = int(rng.integers(1, 6))
        k = int(rng.integers(2, 7))
        d = int(rng.integers(1, 5))
        layer = VBLinearLayer(
            weight_mu=rng.normal(0.0, 2.0, (k, d)),
            weight_rho=rng.normal(0.0, 2.0, (k, d)),
            bias_mu=rng.normal(0.0, 2.0, k),
            bias_rho=rng.normal(0.0, 2.0, k),
            prior_scale=1.0,
        )
        rows = rng.normal(0.0, 2.0, (n, d))
        scores = score_posterior(layer, rows, mc_samples=s, seed=int(rng.integers(2**32)))
        log_k = math.log(k)
        ok = (
            np.all(scores.confidence >= 1.0 / k)
            and np.all(scores.confidence <= 1.0)
            and np.all(scores.entropy >= 0.0)
            and np.all(scores.entropy <= log_k)
            and np.all(scores.expected_entropy >= 0.0)
            and np.all(scores.expected_entropy <= log_k)
            and np.all(scores.mutual_info >= 0.0)
            and np.all(scores.entropy + 1e-9 >= scores.expected_entropy)
        )
        violations += 0 if ok else 1
    report(
        "uncertainty-bounds",
        violations == 0,
        f"1e4 random heads through score_posterior: {violations} bound violations "
        "(confidence in [1/K,1], entropy in [0,lnK], MI>=0, Jensen slack)",
    )


def test_criterion_10_split_smote_properties():
    rng = np.random.default_rng(1010)
    split_ok = True
    smote_ok = True
    for trial in range(20):
        k = int(rng.integers(2, 5))
        counts = [int(rng.integers(12, 60)) for _ in range(k)]
        features = rng.standard_normal((sum(counts), 5))
        labels = np.repeat(np.arange(k), counts)
        ds = FeatureDataset(features, labels, k)

        parts = stratified_split(ds, SplitRatios(0.70, 0.15, 0.15), seed=trial)
        rows = np.vstack([p.features for p in parts])
        part_labels = np.concatenate([p.labels for p in parts])
        original = sorted(map(tuple, np.column_stack([features, labels])))
        recombined = sorted(map(tuple, np.column_stack([rows, part_labels])))
        if original != recombined:
            split_ok = False
        for part, ratio in zip(parts, (0.70, 0.15, 0.15)):
            got = np.bincount(part.labels, minlength=k)
            for c in range(k):
                if abs(got[c] - ratio * counts[c]) > 1.0:
                    split_ok = False

        targets = [int(c + rng.integers(0, 30)) for c in counts]
        grown = smote_oversample(ds, targets, k_neighbors=4, seed=trial)
        if list(np.bincount(grown.labels, minlength=k)) != targets:
            smote_ok = False
        grown_rows = sorted(
            map(tuple, np.column_stack([grown.features, grown.labels]))
        )
        pool = list(grown_rows)
        for row in original:
            try:
                pool.remove(row)
            except ValueError:
                smote_ok = False
                break
    report(
        "split-smote",
        split_ok and smote_ok,
        f"20 instances: splits partition exactly with per-class deviation "
        f"<=1 ({split_ok}); SMOTE keeps originals and hits targets exactly "
        f"({smote_ok})",
    )


def paper_chain(root, seed):
    """tools/artifact_digests.py's paper/ chain at one seed; the summary per threshold.

    Five classes of 1600, 1200, 1000, 700 and 500 rows at separation 2.0,
    split 0.7/0.15/0.15, SMOTE-balanced, trained for 30 epochs, then eval of
    the test split at S=100 and tau in {0.7, 0.9}.
    """
    def path(*parts):
        return os.path.join(root, *parts)

    os.makedirs(root)
    flags = ["--seed", str(seed)]
    commands = [
        ["gen", "--classes", "5", "--dim", "16", "--per-class", "1600,1200,1000,700,500",
         "--separation", "2.0", *flags, "--out", path("data.csv")],
        ["split", "--in", path("data.csv"), "--train", "0.7", "--val", "0.15",
         "--test", "0.15", *flags, "--out", path("splits")],
        ["balance", "--in", path("splits", "train.csv"), *flags,
         "--out", path("balanced.csv")],
        ["train", "--train", path("balanced.csv"), "--val", path("splits", "val.csv"),
         "--epochs", "30", *flags, "--model-out", path("model.json"),
         "--trace-out", path("trace.csv")],
    ]
    thresholds = ("0.7", "0.9")
    commands += [
        ["eval", "--model", path("model.json"), "--data", path("splits", "test.csv"),
         "--threshold", threshold, "--mc-samples", "100", *flags,
         "--out", path(f"eval_{threshold}")]
        for threshold in thresholds
    ]
    for argv in commands:
        assert entrypoint(argv) == 0, argv
    summaries = {}
    for threshold in thresholds:
        with open(path(f"eval_{threshold}", "summary.json"), encoding="utf-8") as fh:
            summaries[float(threshold)] = json.load(fh)
    return summaries


def test_criterion_11_paper_trade_off(tmp_path):
    """The abstract's trade-off on the paper/ chain, at the criterion-6 seeds.

    On every seed, raising tau from 0.7 to 0.9 gives up coverage and gains
    selective accuracy, and the gate at 0.7 already beats accepting every row:
    1 > coverage(0.7) > coverage(0.9) and
    accuracy < selective accuracy(0.7) < selective accuracy(0.9).
    """
    failures, bands = [], {}
    for seed in range(10):
        runs = paper_chain(str(tmp_path / f"seed{seed}"), seed)
        low, high = runs[0.7], runs[0.9]
        ok = (1.0 > low["coverage"] > high["coverage"]
              and low["overall_accuracy"] < low.get("accuracy_accepted", -1.0)
              < high.get("accuracy_accepted", -1.0))
        if not ok:
            failures.append(seed)
        for name, value in (("coverage 0.7", low["coverage"]),
                            ("coverage 0.9", high["coverage"]),
                            ("selective 0.7", low.get("accuracy_accepted", math.nan)),
                            ("selective 0.9", high.get("accuracy_accepted", math.nan)),
                            ("accuracy", low["overall_accuracy"])):
            bands.setdefault(name, []).append(value)
    detail = ", ".join(f"{name} {min(v):.3f}-{max(v):.3f}" for name, v in bands.items())
    report(
        "paper-trade-off",
        not failures,
        f"10 seeds of the paper/ chain: {detail} (failing seeds: {failures or 'none'})",
    )
