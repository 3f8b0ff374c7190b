"""Decisions do not depend on the CPU kernels numpy and OpenBLAS choose.

Artifact bytes hold for one numpy/BLAS build and CPU kernel: another kernel
may round a float's last bits differently. What a reader acts on must not
move: the predicted classes, the gate's decisions, the confusion matrices
and the curve rows. This module runs a short chain (the README data, and a
K=20, D=256 head whose products and norms go through BLAS) in a child
process with the default kernels, then under each alternative this host
offers:

* numpy's baseline kernels, with every enabled dispatch target named in
  ``NPY_DISABLE_CPU_FEATURES``;
* another OpenBLAS core type through ``OPENBLAS_CORETYPE``, chosen only if
  the host's CPU features support it.

Scores may differ by at most ``SCORE_BOUND``. A host that offers no
alternative, or whose child process does not report the requested kernel,
skips the test and names the reason.

The scoring engine's own bits must not move with the kernel, though: on
each kernel, its results and its ``samples.npy`` on README-shaped problems
(D=16, K=5) equal the full-grid reference of ``tests/test_inference.py``
bit for bit, whatever layout its chunks take.
"""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import vbselect
from vbselect.blas import blas_info

SCORE_BOUND = 1e-12

# (gen flags, train epochs, eval threshold, sweep grid) per data set. Each
# threshold sits near the median confidence of its test split, and each grid
# spans its confidences, so the gates reject a real share of rows.
CHAINS = {
    "readme": (["--classes", "5", "--dim", "16", "--per-class", "1000",
                "--separation", "4.0", "--noise", "1.0"], "10", "0.99",
               "0.9,0.95,0.98,0.99,0.995,0.999"),
    "wide": (["--classes", "20", "--dim", "256", "--per-class", "30"], "10", "0.6",
             "0.3,0.4,0.5,0.6,0.7,0.8,0.9"),
}

CHILD = r"""
import json, os, sys
from vbselect.blas import blas_info
from vbselect.cli import entrypoint

out, chains = sys.argv[1], json.loads(sys.argv[2])
for name, (gen, epochs, threshold, grid) in chains.items():
    d = os.path.join(out, name)
    os.makedirs(d)
    for argv in (
        ["gen", *gen, "--out", os.path.join(d, "data.csv")],
        ["split", "--in", os.path.join(d, "data.csv"), "--out", os.path.join(d, "splits")],
        ["train", "--train", os.path.join(d, "splits", "train.csv"),
         "--val", os.path.join(d, "splits", "val.csv"), "--epochs", epochs,
         "--model-out", os.path.join(d, "model.json"),
         "--trace-out", os.path.join(d, "trace.csv")],
        ["eval", "--model", os.path.join(d, "model.json"),
         "--data", os.path.join(d, "splits", "test.csv"), "--threshold", threshold,
         "--out", os.path.join(d, "eval")],
        ["sweep", "--model", os.path.join(d, "model.json"),
         "--data", os.path.join(d, "splits", "test.csv"), "--grid", grid,
         "--out", os.path.join(d, "sweep.csv")],
    ):
        code = entrypoint(argv)
        if code:
            sys.exit(f"{argv[0]} exited {code}")
report = {}
"""

# (rows, draws) per engine problem: the second takes three chunks.
ENGINE_PROBLEMS = [(300, 20), (1100, 100)]

ENGINE_CHILD = r"""
import json, os, sys
import numpy as np
from vbselect.blas import blas_info
from vbselect.inference import score_posterior
from vbselect.vbll import init_layer

out, tests, problems = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
sys.path.insert(0, tests)
from test_inference import full_grid_reference, npy_bytes

mismatches = []
for n, s in problems:
    layer = init_layer(16, 5, mu_init_scale=1.0, rho_init=-1.0, seed=n)
    features = 3.0 * np.random.default_rng(n).standard_normal((n, 16))
    grid, mean, scores = full_grid_reference(layer, features, s, seed=0)
    samples = os.path.join(out, f"samples_{n}.npy")
    result = score_posterior(layer, features, s, seed=0, samples=samples)
    expected = {"mean_probs": mean, "predicted": np.argmax(mean, axis=1), **scores}
    for name, value in expected.items():
        if getattr(result, name).tobytes() != value.tobytes():
            mismatches.append(f"{n}x{s} {name}")
    with open(samples, "rb") as handle:
        if handle.read() != npy_bytes(grid):
            mismatches.append(f"{n}x{s} samples.npy")
report = {"mismatches": mismatches}
"""

# Ends each child: one JSON line naming the kernels it ran on, with the
# child's own `report` entries.
REPORT_KERNELS = r"""
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:
    from numpy.core import _multiarray_umath as umath
info = blas_info()
print(json.dumps({
    "dispatch": [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)],
    "core": None if info is None else info[3],
    **report,
}))
"""


def cpu_features():
    """(numpy's dispatch targets in order, the features enabled on this host)."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:
        from numpy.core import _multiarray_umath as umath
    enabled = {name for name, on in umath.__cpu_features__.items() if on}
    return list(umath.__cpu_dispatch__), enabled


# OpenBLAS core types to fall back to, with the CPU features each needs.
CORE_TYPES = (("Haswell", ("AVX2", "FMA3")), ("Sandybridge", ("AVX",)))


def alternative(kind):
    """(environment, what the child must report) for one alternative kernel,
    or (None, why the host offers none)."""
    dispatch, enabled = cpu_features()
    if kind == "numpy":
        targets = [t for t in dispatch if t in enabled]
        if not targets:
            return None, "numpy dispatches no target above its baseline on this host"
        return {"NPY_DISABLE_CPU_FEATURES": " ".join(targets)}, ("dispatch", [])
    info = blas_info()
    if info is None:
        return None, "numpy's BLAS is not an OpenBLAS whose core type can be read"
    for core, needs in CORE_TYPES:
        if core.lower() != info[3].lower() and enabled.issuperset(needs):
            return {"OPENBLAS_CORETYPE": core}, ("core", core)
    return None, f"no OpenBLAS core type other than {info[3]} that this CPU supports"


def run_child(code, args, env):
    """Run `code` with `args` under `env`; its REPORT_KERNELS line, parsed."""
    src = os.path.dirname(os.path.dirname(vbselect.__file__))
    path = os.environ.get("PYTHONPATH")
    child_env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""),
                     **env)
    result = subprocess.run(
        [sys.executable, "-c", code + REPORT_KERNELS, *args],
        capture_output=True, text=True, env=child_env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    return json.loads(result.stdout)


def run_chain(out, env):
    return run_child(CHILD, [str(out), json.dumps(CHAINS)], env)


def kernel_env(kind):
    """The environment of an alternative `kind` kernel, or a skip."""
    env, expected = alternative(kind)
    if env is None:
        pytest.skip(f"no alternative {kind} kernel: {expected}")
    return env, expected


def skip_unless_reached(kind, env, expected, kernels):
    field, value = expected
    if kernels[field] != value:  # e.g. an OpenBLAS built for one core type only
        pytest.skip(f"no alternative {kind} kernel: {env} left the child on {kernels}")


def read_rows(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


@pytest.fixture(scope="module")
def default_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("kernels") / "default"
    run_chain(out, {})
    return out


@pytest.mark.parametrize("kind", ["numpy", "openblas"])
def test_decisions_hold_across_kernels(default_run, tmp_path, kind):
    env, expected = kernel_env(kind)
    kernels = run_chain(tmp_path / kind, env)
    skip_unless_reached(kind, env, expected, kernels)

    for name, (_, _, threshold, _) in CHAINS.items():
        base, other = default_run / name, tmp_path / kind / name
        rows = [read_rows(d / "eval" / "predictions.csv") for d in (base, other)]
        assert rows[0][0] == rows[1][0]
        columns = [np.array(r[1:], dtype=np.float64) for r in rows]
        # index, label and predicted class are equal; the scores are close.
        np.testing.assert_array_equal(columns[0][:, :3], columns[1][:, :3])
        assert np.abs(columns[0][:, 3:] - columns[1][:, 3:]).max() <= SCORE_BOUND
        gates = [c[:, 3] >= float(threshold) for c in columns]
        np.testing.assert_array_equal(gates[0], gates[1])
        assert 0.2 < gates[0].mean() < 0.8, "the gate decided too little"
        for report in ("eval/confusion_all.csv", "eval/confusion_accepted.csv",
                       "sweep.csv"):
            assert read_bytes(base / report) == read_bytes(other / report), report


@pytest.mark.parametrize("kind", ["default", "numpy", "openblas"])
def test_engine_matches_full_grid_reference_on_every_kernel(tmp_path, kind):
    # The engine's draw-block products must be the gemms of the reference's
    # `features @ weights.T`, on every kernel. A class-major product from
    # BLAS itself matched under one OpenBLAS kernel and not under another.
    env = {}
    if kind != "default":
        env, expected = kernel_env(kind)
    tests = os.path.dirname(os.path.abspath(__file__))
    report = run_child(ENGINE_CHILD, [str(tmp_path), tests, json.dumps(ENGINE_PROBLEMS)],
                       env)
    if kind != "default":
        skip_unless_reached(kind, env, expected, report)
    assert report["mismatches"] == []
