"""Shared fixtures: the full benchmark run is expensive, so it executes once
per session and every test that needs trained models reads from it."""

import os

# One BLAS thread, as in perfbench, fixed before NumPy loads: compare's two
# child processes are the parallelism, and BLAS threads of their own would
# only contend with each other for the same CPUs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import pytest  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import compnet as cn  # noqa: E402
from compnet.cli import run_comparison  # noqa: E402

# The standard benchmark: a fixed 2,000-sample two-modality dataset, three
# model variants trained per seed on identical splits.  The first
# `n_informative` feature indices carry signal by construction.
BENCH_SPEC = cn.SynthSpec(n_samples=2000, seed=0)
BENCH_CONFIG = {
    "model": {"conv_filters": [2], "kernel_size": 5, "dense_hidden": [1]},
    "train": {"epochs": 24, "batch_size": 64, "learning_rate": 0.012,
              "eval_every": 6},
    "split": {"train_fraction": 0.75, "stratified": True},
}
BENCH_SEEDS = (1, 2, 3, 4, 5)
BENCH_KINDS = ("compnet", "image_only", "concat")
INFORMATIVE = tuple(range(BENCH_SPEC.n_informative))
NUISANCE = tuple(range(BENCH_SPEC.n_informative, BENCH_SPEC.n_features))


@pytest.fixture(scope="session")
def bench_dataset():
    return cn.generate_synthetic(BENCH_SPEC)


@pytest.fixture(scope="session")
def bench(bench_dataset):
    """All 15 benchmark runs (3 kinds x 5 seeds) with models retained."""
    start = time.perf_counter()
    result = run_comparison(bench_dataset, BENCH_CONFIG, list(BENCH_KINDS),
                            list(BENCH_SEEDS))
    elapsed = time.perf_counter() - start
    return SimpleNamespace(result=result, elapsed=elapsed,
                           dataset=bench_dataset)


@pytest.fixture(scope="session")
def small_dataset():
    """A quick-to-train dataset for CLI and trainer tests."""
    return cn.generate_synthetic(
        cn.SynthSpec(n_samples=240, image_shape=(1, 12, 12), seed=11))


@pytest.fixture(scope="session")
def small_dataset_dir(small_dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "small"
    cn.save_dataset(small_dataset, out)
    return out


TINY_CLI_CONFIG = {
    "model": {"conv_filters": [2], "kernel_size": 3, "dense_hidden": [2]},
    "train": {"epochs": 5, "batch_size": 64, "learning_rate": 0.01,
              "eval_every": 1},
    "split": {"train_fraction": 0.75, "stratified": True},
}

# Normalizer dicts that fail its field rule or its own checks: a list, a
# length mismatch, scalars, a negative std, text, a non-bool flag, NaN, a
# missing key and an unknown key.
MALFORMED_NORMALIZERS = (
    [0.0, 1.0],
    {"mean": [0.0], "std": [1.0, 2.0], "constant_mask": [False]},
    {"mean": 0.0, "std": 1.0, "constant_mask": False},
    {"mean": [0.0], "std": [-1.0], "constant_mask": [False]},
    {"mean": ["0.5"], "std": [1.0], "constant_mask": [False]},
    {"mean": [0.0], "std": [1.0], "constant_mask": ["no"]},
    {"mean": [float("nan")], "std": [1.0], "constant_mask": [False]},
    {"mean": [0.0], "std": [1.0]},
    {"mean": [0.0], "std": [1.0], "constant_mask": [False], "scale": [1.0]})


# Plain text, float reprs (``nan`` and ``inf`` among them) and integers
# past Python's 4,300-digit parsing limit.
CSV_CELLS = st.one_of(
    st.text(max_size=6), st.floats().map(repr),
    st.integers(4301, 5000).map(lambda digits: "7" * digits))
