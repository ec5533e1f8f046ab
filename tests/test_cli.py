"""End-to-end command-line runs: artifact contents, determinism, exit codes."""

import contextlib
import copy
import errno
import hashlib
import io
import json
import math
import multiprocessing
import os
import shutil
import signal
import struct
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import compnet as cn
from compnet import cli, forkpool, models, train
from compnet.cli import SplitSettings, main
from compnet.data import write_atomic
from conftest import CSV_CELLS, MALFORMED_NORMALIZERS, TINY_CLI_CONFIG


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture()
def tiny_config(tmp_path):
    return write_json(tmp_path / "config.json", TINY_CLI_CONFIG)


def train_small(data_dir, config_path, out_dir, model="compnet", extra=()):
    return main(["train", "--config", config_path, "--data", str(data_dir),
                 "--model", model, "--out", str(out_dir), *extra])


# ---------------------------------------------------------------------------
# generate

def test_generate_writes_a_loadable_dataset(tmp_path):
    out = tmp_path / "ds"
    rc = main(["generate", "--out", str(out), "--n-samples", "40",
               "--seed", "3"])
    assert rc == 0
    for name in ("manifest.json", "images.bin", "features.csv", "labels.csv"):
        assert (out / name).is_file()
    ds = cn.load_dataset(out)
    assert len(ds) == 40
    assert ds.provenance["kind"] == "synthetic"


def test_generate_same_seed_same_bytes(tmp_path):
    files = ("manifest.json", "images.bin", "features.csv", "labels.csv")
    for d in ("a", "b"):
        assert main(["generate", "--out", str(tmp_path / d),
                     "--n-samples", "30", "--seed", "9"]) == 0
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes()
    assert main(["generate", "--out", str(tmp_path / "c"),
                 "--n-samples", "30", "--seed", "10"]) == 0
    assert (tmp_path / "a" / "images.bin").read_bytes() != \
           (tmp_path / "c" / "images.bin").read_bytes()


def test_train_with_no_config_runs_on_a_generated_set_with_no_spec(tmp_path):
    # The default model config must fit the default 32x32 images.
    data = tmp_path / "ds"
    assert main(["generate", "--out", str(data), "--n-samples", "64"]) == 0
    assert main(["train", "--data", str(data), "--model", "compnet",
                 "--out", str(tmp_path / "run"), "--epochs", "1"]) == 0
    assert (tmp_path / "run" / "checkpoint.cmpn").is_file()


# The sha256 of every file of the recorded byte-identity protocol: the
# dataset, each variant's training artifacts, a two-seed comparison, and
# the compnet run's test-split metrics and importance table.
RECORDED_SHA256 = {
    "data/manifest.json": "d6e5b9d896dd65d59457ea8a13d28a570f5fd8ffcee1683c92cf5e3fc347ef79",
    "data/images.bin": "5a9554770f0df981c11a689b44e86a8e9d885dd42087308a92117681cc2879b9",
    "data/features.csv": "2fa7e4bcb8a54c5d26b919256a20830e912d9cd239cd29d96d0b6b8d53915571",
    "data/labels.csv": "8134f38d1341525a305b1cd3fb333b08554f74a99ac305e728e3b6eeafa51ea3",
    "compnet/checkpoint.cmpn": "2b9c7f264b7b94b5769c3f9a95296da66807f750da030d76fa977edb7c1e7735",
    "compnet/history.csv": "be4a2b224202ab435cbb385c2bda0e43474a1524d46601d9d672d3806420b446",
    "compnet/normalizer.json": "f6eb781766eb52de8e98880590d2642527efb68f1e4fc033f8a1da70dd307d4f",
    "compnet/metrics.json": "07396ec50fb80a5912efb068fe0db84ebb6f1868403fddaa6a028a3996389aed",
    "compnet/importance.csv": "29cdba2fe9199dab8eba94dfb69e422234b14b926d684c93f25a0f6cb831b003",
    "image_only/checkpoint.cmpn": "029298113d22be495c3465093e6e843d062de1fa5ac904f13a5c5b5af0df725a",
    "image_only/history.csv": "541691b8d95174270acadeebe678f6aa77d9cf2d7dd2e3e05de48e596df72f0e",
    "image_only/normalizer.json": "f6eb781766eb52de8e98880590d2642527efb68f1e4fc033f8a1da70dd307d4f",
    "concat/checkpoint.cmpn": "748638bfa9774a85a7571cd2e7f2be5c839de536efda42abbe1ba271d41db514",
    "concat/history.csv": "da7bc01de3cbe47b35849525f79a12bbfd40f6ea9b0a4dacf2b53454aeec3a48",
    "concat/normalizer.json": "f6eb781766eb52de8e98880590d2642527efb68f1e4fc033f8a1da70dd307d4f",
    "cmp/compare.csv": "c3fc7366addf315ec81e4cc15d71ef994010a4115875a5ef1324fc5c6e3776e0",
}


def assert_recorded_bytes(root, prefix):
    names = [name for name in RECORDED_SHA256 if name.startswith(prefix)]
    assert names
    for name in names:
        assert hashlib.sha256((root / name).read_bytes()).hexdigest() == \
               RECORDED_SHA256[name], name


def test_generate_writes_the_recorded_dataset_bytes(tmp_path):
    # Pins the on-disk format and the generator: any change to either
    # changes at least one of these digests.
    assert main(["generate", "--out", str(tmp_path / "data"), "--seed", "4",
                 "--n-samples", "400"]) == 0
    assert_recorded_bytes(tmp_path, "data/")


def test_generate_rejects_bad_spec_file(tmp_path):
    bad = tmp_path / "spec.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["generate", "--spec", str(bad), "--out",
                 str(tmp_path / "ds")]) == 2
    unknown = write_json(tmp_path / "spec2.json", {"bogus_knob": 1})
    assert main(["generate", "--spec", unknown, "--out",
                 str(tmp_path / "ds")]) == 2


@pytest.mark.parametrize("override", [
    {"n_features": 16.9}, {"n_classes": 2.0}, {"n_informative": 2.5},
    {"seed": 1.5}, {"seed": -1}, {"n_samples": 50.5},
    {"image_shape": [1, 8.5, 8]}, {"pixel_noise": True},
    {"image_reliability": True}, {"class_balance": ["0.5", "0.5"]}],
    ids=["features-fractional", "classes-float", "informative-fractional",
         "seed-fractional", "seed-negative", "samples-fractional",
         "image-shape-fractional", "noise-bool", "reliability-bool",
         "balance-text"])
def test_generate_rejects_bad_spec_values(tmp_path, override):
    spec = write_json(tmp_path / "spec.json",
                      {"n_samples": 40, "image_shape": [1, 8, 8], **override})
    assert main(["generate", "--spec", spec, "--out", str(tmp_path / "ds")]) == 2
    assert not (tmp_path / "ds" / "manifest.json").exists()


# ---------------------------------------------------------------------------
# train

def test_train_writes_history_checkpoint_normalizer(
        small_dataset_dir, tiny_config, tmp_path):
    out = tmp_path / "run"
    assert train_small(small_dataset_dir, tiny_config, out) == 0

    lines = (out / "history.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "epoch,train_loss,train_acc,test_loss,test_acc"
    assert len(lines) == 1 + TINY_CLI_CONFIG["train"]["epochs"]

    norm = json.loads((out / "normalizer.json").read_text(encoding="utf-8"))
    assert len(norm["mean"]) == len(norm["std"]) == len(norm["constant_mask"]) == 16

    model, state, extra = cn.checkpoint_load(out / "checkpoint.cmpn")
    assert state.epoch == TINY_CLI_CONFIG["train"]["epochs"]
    assert extra["split"]["train_fraction"] == 0.75
    assert model.config.fusion_kind == "compnet"


def test_train_rerun_is_byte_identical(small_dataset_dir, tiny_config, tmp_path):
    for d in ("r1", "r2"):
        assert train_small(small_dataset_dir, tiny_config, tmp_path / d) == 0
    for name in ("history.csv", "checkpoint.cmpn", "normalizer.json"):
        assert (tmp_path / "r1" / name).read_bytes() == \
               (tmp_path / "r2" / name).read_bytes()


def test_train_flag_overrides_epochs(small_dataset_dir, tiny_config, tmp_path):
    out = tmp_path / "short"
    assert train_small(small_dataset_dir, tiny_config, out,
                       extra=("--epochs", "2")) == 0
    lines = (out / "history.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3


def test_train_seed_sets_the_model_and_shuffle_seeds_but_not_the_split_seed(
        small_dataset_dir, tmp_path):
    config = copy.deepcopy(TINY_CLI_CONFIG)
    config["split"]["seed"] = 3
    out = tmp_path / "run"
    assert train_small(small_dataset_dir, write_json(tmp_path / "c.json", config), out,
                       extra=("--seed", "5", "--epochs", "1")) == 0
    blob = (out / "checkpoint.cmpn").read_bytes()
    header = json.loads(blob[16:16 + struct.unpack("<Q", blob[8:16])[0]])
    assert header["model_config"]["seed"] == header["train_config"]["seed"] == 5
    assert header["extra"]["split"]["seed"] == 3


def test_a_comparison_seed_sets_the_model_shuffle_and_split_seeds(
        small_dataset, monkeypatch):
    train_seeds = {}
    real_run = cli.run_training

    def record(ds, model_cfg, train_cfg, split_settings):
        train_seeds[(model_cfg.fusion_kind, split_settings.seed)] = train_cfg.seed
        return real_run(ds, model_cfg, train_cfg, split_settings)

    monkeypatch.setattr(models, "default_jobs", lambda: 1)  # record in this process
    monkeypatch.setattr(cli, "run_training", record)
    config = copy.deepcopy(TINY_CLI_CONFIG)
    config["train"].update(epochs=1, seed=8)
    config["model"]["seed"] = 9
    config["split"]["seed"] = 7
    result = cli.run_comparison(small_dataset, config, ["compnet", "concat"], [1, 2])
    assert sorted(result.results) == sorted(train_seeds)
    for (kind, seed), run in result.results.items():
        assert run.model.config.seed == seed
        assert train_seeds[(kind, seed)] == seed


def test_train_writes_the_recorded_artifact_bytes(tmp_path):
    # Pins the numerics of the whole training path (kernels, optimizer,
    # history, normalizer, checkpoint, comparison, metrics and importance
    # writers) for every variant, on the dataset pinned above.
    data = tmp_path / "data"
    assert main(["generate", "--out", str(data), "--seed", "4",
                 "--n-samples", "400"]) == 0
    config = write_json(tmp_path / "config.json", {
        "model": {"conv_filters": [2], "kernel_size": 5, "dense_hidden": [3, 2]},
        "train": {"epochs": 3, "batch_size": 64, "learning_rate": 0.012,
                  "eval_every": 2},
        "split": {"train_fraction": 0.75, "stratified": True}})
    for kind in ("compnet", "image_only", "concat"):
        assert train_small(data, config, tmp_path / kind, model=kind) == 0
    assert main(["compare", "--config", config, "--data", str(data),
                 "--models", "compnet,concat", "--seeds", "1,2",
                 "--out", str(tmp_path / "cmp")]) == 0
    checkpoint = str(tmp_path / "compnet" / "checkpoint.cmpn")
    assert main(["eval", "--checkpoint", checkpoint, "--data", str(data)]) == 0
    assert main(["importance", "--checkpoint", checkpoint, "--data", str(data),
                 "--out", str(tmp_path / "compnet" / "importance.csv")]) == 0
    assert_recorded_bytes(tmp_path, "")


def test_train_rejects_inconsistent_width(small_dataset_dir, tmp_path):
    config = copy.deepcopy(TINY_CLI_CONFIG)
    config["model"]["learned_width"] = 7  # dataset needs 2 classes x 16 features
    path = write_json(tmp_path / "bad.json", config)
    assert train_small(small_dataset_dir, path, tmp_path / "run") == 2


def test_train_rejects_unknown_config_section(small_dataset_dir, tmp_path):
    path = write_json(tmp_path / "bad.json",
                      {**TINY_CLI_CONFIG, "optimizer": {}})
    assert train_small(small_dataset_dir, path, tmp_path / "run") == 2


def test_train_rejects_non_numeric_split_fraction(small_dataset_dir, tmp_path):
    config = copy.deepcopy(TINY_CLI_CONFIG)
    config["split"]["train_fraction"] = "0.5"
    path = write_json(tmp_path / "bad.json", config)
    assert train_small(small_dataset_dir, path, tmp_path / "run") == 2


@pytest.mark.parametrize("section,override", [
    ("model", {"conv_filters": ["x"]}),
    ("model", {"kernel_size": True}),
    ("model", {"seed": "x"}),
    ("model", {"seed": -1}),
    ("train", {"seed": -1}),
    ("split", {"seed": -1}),
    ("train", {"learning_rate": True}),
    ("train", {"momentum": False}),
    ("train", {"learning_rate": float("nan")}),
    ("split", {"stratified": "false"}),
    ("train", {"shuffle": "false"}),
    ("train", {"patience": True}),
    ("train", {"patience": 2.5}),
    ("model", {"conv_filters": [2.7]}),
    ("model", {"conv_filters": ["2"]}),
    ("model", {"dense_hidden": [True]}),
    ("model", {"learned_width": 32.0}),
    ("model", {"n_classes": 2.0}),
    ("model", {"image_shape": [1, 12.0, 12]}),
    ("train", {"learning_rate": 10 ** 400}),
], ids=["filters-text", "kernel-bool", "model-seed-text", "model-seed-negative",
        "train-seed-negative", "split-seed-negative", "learning-rate-bool",
        "momentum-bool", "learning-rate-nan", "stratified-text", "shuffle-text",
        "patience-bool", "patience-float", "filters-fractional", "filters-digit-text",
        "hidden-bool", "learned-width-float", "classes-float", "image-shape-float",
        "learning-rate-huge-int"])
def test_train_rejects_bad_config_values(small_dataset_dir, tmp_path, section, override):
    config = copy.deepcopy(TINY_CLI_CONFIG)
    config[section].update(override)
    path = write_json(tmp_path / "bad.json", config)
    assert train_small(small_dataset_dir, path, tmp_path / "run") == 2


def test_train_rejects_a_bool_learning_rate_without_writing_a_checkpoint(
        small_dataset_dir, tmp_path):
    # JSON true used to train at rate 1.0 and exit 0.
    config = {**TINY_CLI_CONFIG, "train": {"learning_rate": True, "epochs": 1}}
    path = write_json(tmp_path / "bad.json", config)
    out = tmp_path / "run"
    assert train_small(small_dataset_dir, path, out) == 2
    assert not (out / "checkpoint.cmpn").exists()


def assert_diverges_with_one_error_line(tmp_path, *argv):
    """Run ``compnet *argv`` in a new interpreter at learning rate 1e6 on the
    dataset pinned above: exit 4, and stderr is one ``error:`` line, returned."""
    data = tmp_path / "ds"
    assert main(["generate", "--out", str(data), "--seed", "4",
                 "--n-samples", "400"]) == 0
    config = write_json(tmp_path / "config.json", {
        "model": {"conv_filters": [2], "kernel_size": 5, "dense_hidden": [3, 2]},
        "train": {"epochs": 3, "batch_size": 64, "learning_rate": 1e6},
        "split": {"train_fraction": 0.75, "stratified": True}})
    env = {**os.environ, "PYTHONPATH": str(Path(cn.__file__).resolve().parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-m", "compnet.cli", *argv, "--config", config, "--data", str(data)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 4
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    return lines[0]


def test_diverging_train_prints_only_its_error_line(tmp_path):
    # NumPy's overflow warnings used to reach stderr ahead of the error.
    out = tmp_path / "run"
    assert_diverges_with_one_error_line(tmp_path, "train", "--model", "compnet",
                                        "--out", str(out))
    assert not (out / "checkpoint.cmpn").exists()


def test_a_diverging_compare_exits_4_with_one_error_line_and_only_the_header(tmp_path):
    # compare's runs score their training split only after the last epoch,
    # so the per-batch finite checks on logits, loss and gradients must
    # stop this one.  The error line names the run that failed.
    out = tmp_path / "cmp"
    line = assert_diverges_with_one_error_line(tmp_path, "compare", "--models",
                                               "compnet,image_only,concat", "--seeds", "1,2",
                                               "--out", str(out))
    assert line == "error: compnet seed 1: cross_entropy received non-finite logits"
    assert (out / "compare.csv").read_text(encoding="utf-8") == \
           "model,seed,train_acc,test_acc,gap\n"


# Finite all the way: the train loss is 3.20 after epoch 3, 70.1 after epoch 4
# and 1.0e35 after epoch 6.
SEED_3_SPEC = {"n_samples": 200, "image_shape": [1, 12, 12], "seed": 3}
SEED_3_CONFIG = {"model": {"conv_filters": [2], "kernel_size": 3, "dense_hidden": [2]},
                 "train": {"epochs": 6, "learning_rate": 0.2}}


@pytest.mark.parametrize("command,line", [
    (["train", "--model", "compnet"],
     "error: training diverged: train loss 70.0828 after epoch 4 is above 69.3147 "
     "(100 x ln 2)"),
    (["compare", "--models", "compnet,image_only", "--seeds", "0"],
     "error: compnet seed 0: training diverged: train loss 1.00724e+35 after epoch 6 "
     "is above 69.3147 (100 x ln 2)"),
], ids=["train", "compare"])
def test_a_run_whose_train_loss_passes_100_ln_n_classes_exits_4_and_writes_nothing(
        tmp_path, capsys, command, line):
    # No value is ever non-finite, so only the train-loss rule stops the run:
    # train scores its training split after every epoch, compare after the last.
    data, out = tmp_path / "ds", tmp_path / "out"
    assert main(["generate", "--spec", write_json(tmp_path / "spec.json", SEED_3_SPEC),
                 "--out", str(data)]) == 0
    capsys.readouterr()
    assert main([*command, "--config", write_json(tmp_path / "config.json", SEED_3_CONFIG),
                 "--data", str(data), "--out", str(out)]) == 4
    assert capsys.readouterr().err.splitlines() == [line]
    written = {path.name: path.read_text(encoding="utf-8") for path in out.glob("*")}
    assert written == ({"compare.csv": "model,seed,train_acc,test_acc,gap\n"}
                       if command[0] == "compare" else {})


@pytest.mark.parametrize("command,jobs", [("train", 1), ("compare", 1), ("compare", 2)])
def test_a_model_past_memory_ends_in_exit_3_and_one_error_line(
        tmp_path, capfd, monkeypatch, command, jobs):
    # About 4e18 bytes of parameters: within NumPy's index limit, so the
    # config passes, but past any address space, so malloc refuses the
    # first weight matrix at once and nothing is allocated.
    data = tmp_path / "ds"
    cn.save_dataset(cn.generate_synthetic(
        cn.SynthSpec(n_samples=40, image_shape=(1, 8, 8), seed=1)), data)
    config = copy.deepcopy(TINY_CLI_CONFIG)
    config["model"]["dense_hidden"] = [10**16]
    path = write_json(tmp_path / "config.json", config)
    out = tmp_path / "out"
    argv = {"train": ["train", "--model", "compnet"],
            "compare": ["compare", "--models", "compnet,concat", "--seeds", "1"]}[command]
    monkeypatch.setattr(models, "default_jobs", lambda: jobs)
    capfd.readouterr()
    assert main(argv + ["--config", path, "--data", str(data), "--out", str(out)]) == 3
    lines = capfd.readouterr().err.splitlines()
    prefix = "error: " if command == "train" else "error: compnet seed 1: "
    assert len(lines) == 1 and lines[0].startswith(prefix + "Unable to allocate"), lines
    if command == "train":
        assert not out.exists() or not any(out.iterdir())
    else:
        assert (out / "compare.csv").read_text(encoding="utf-8") == \
               "model,seed,train_acc,test_acc,gap\n"
        assert_no_child_processes()


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_compare_run_out_of_memory_without_a_message_names_the_run(
        small_dataset_dir, tmp_path, capfd, monkeypatch, jobs):
    # Python raises MemoryError() with no message when an object cannot be allocated.
    def no_memory(cfg):
        raise MemoryError()

    monkeypatch.setattr(cli, "build_model", no_memory)
    monkeypatch.setattr(models, "default_jobs", lambda: jobs)
    capfd.readouterr()
    assert main(["compare", "--models", "compnet,concat", "--seeds", "1",
                 "--config", compare_config(tmp_path), "--data", str(small_dataset_dir),
                 "--out", str(tmp_path / "cmp")]) == 3
    assert capfd.readouterr().err.splitlines() == ["error: compnet seed 1: out of memory"]
    assert_no_child_processes()


@pytest.mark.parametrize("f0", [
    [1e308] * 4 + [0.0] * 196,             # the column sum overflows
    [(-1) ** i * 1e200 for i in range(200)]],  # the mean is 0, the variance overflows
    ids=["sum", "variance"])
def test_a_feature_whose_statistics_overflow_fails_the_train_run(
        tiny_config, tmp_path, capsys, f0):
    # Every value is finite; only the normalizer fitted on them is not.
    ds = cn.generate_synthetic(cn.SynthSpec(n_samples=200, image_shape=(1, 12, 12), seed=2))
    features = ds.features.copy()
    features[:, 0] = f0
    data = tmp_path / "ds"
    cn.save_dataset(cn.Dataset(ds.ids, ds.images, features, ds.labels, ds.n_classes),
                    data)
    out = tmp_path / "run"
    capsys.readouterr()
    assert train_small(data, tiny_config, out) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: feature f0: "), lines
    assert not out.exists() or not any(out.iterdir())


def test_missing_dataset_is_an_io_error(tiny_config, tmp_path):
    assert train_small(tmp_path / "nowhere", tiny_config, tmp_path / "run") == 3


def test_a_failed_train_leaves_no_stale_checkpoint(
        small_dataset_dir, tiny_config, tmp_path, monkeypatch):
    # Run B fails after writing its history and normalizer over run A's;
    # A's checkpoint must not stay behind for eval to pair with them.
    out = tmp_path / "run"
    assert train_small(small_dataset_dir, tiny_config, out, extra=["--epochs", "1"]) == 0
    other = tmp_path / "other"
    cn.save_dataset(cn.generate_synthetic(
        cn.SynthSpec(n_samples=80, image_shape=(1, 12, 12), seed=5)), other)

    def no_space(*args, **kwargs):
        raise OSError("no space left on device")
    monkeypatch.setattr(cli, "checkpoint_save", no_space)
    assert train_small(other, tiny_config, out, extra=["--epochs", "1"]) == 3
    assert not (out / "checkpoint.cmpn").exists()
    assert main(["eval", "--checkpoint", str(out / "checkpoint.cmpn"),
                 "--data", str(other)]) != 0


# ---------------------------------------------------------------------------
# eval

def test_eval_reproduces_the_final_history_row(
        small_dataset_dir, tiny_config, tmp_path):
    out = tmp_path / "run"
    assert train_small(small_dataset_dir, tiny_config, out) == 0
    assert main(["eval", "--checkpoint", str(out / "checkpoint.cmpn"),
                 "--data", str(small_dataset_dir)]) == 0

    metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    last = (out / "history.csv").read_text(encoding="utf-8") \
        .splitlines()[-1].split(",")
    assert metrics["split"] == "test"
    assert metrics["loss"] == float(last[3])
    assert metrics["accuracy"] == float(last[4])
    assert metrics["n"] == 60  # the held-out quarter of 240 samples


def test_eval_on_the_whole_dataset(small_dataset_dir, tiny_config, tmp_path):
    out = tmp_path / "run"
    assert train_small(small_dataset_dir, tiny_config, out) == 0
    assert main(["eval", "--checkpoint", str(out / "checkpoint.cmpn"),
                 "--data", str(small_dataset_dir), "--split", "all"]) == 0
    metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    assert metrics["n"] == 240


def test_eval_refuses_to_run_without_the_normalizer(
        small_dataset_dir, tiny_config, tmp_path):
    out = tmp_path / "run"
    assert train_small(small_dataset_dir, tiny_config, out) == 0
    (out / "normalizer.json").unlink()
    for data in (small_dataset_dir, tmp_path / "missing"):  # read before the dataset
        for split in ("test", "all"):
            assert main(["eval", "--checkpoint", str(out / "checkpoint.cmpn"),
                         "--data", str(data), "--split", split]) == 2


def test_eval_rejects_a_corrupt_checkpoint(
        small_dataset_dir, tiny_config, tmp_path):
    out = tmp_path / "run"
    assert train_small(small_dataset_dir, tiny_config, out) == 0
    ckpt = out / "checkpoint.cmpn"
    raw = bytearray(ckpt.read_bytes())
    raw[:4] = b"JUNK"
    ckpt.write_bytes(bytes(raw))
    assert main(["eval", "--checkpoint", str(ckpt),
                 "--data", str(small_dataset_dir)]) == 3


@pytest.fixture(scope="module")
def trained_run(small_dataset_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained") / "run"
    config = write_json(out.parent / "config.json", TINY_CLI_CONFIG)
    assert train_small(small_dataset_dir, config, out) == 0
    return out


def rewrite_header_bytes(ckpt, edit):
    """Replace a checkpoint's header bytes with ``edit`` of them."""
    blob = ckpt.read_bytes()
    n = struct.unpack("<Q", blob[8:16])[0]
    header = edit(blob[16:16 + n])
    ckpt.write_bytes(blob[:8] + struct.pack("<Q", len(header)) + header + blob[16 + n:])


def copy_with_header(run_dir, dst, edit):
    """Copy a training run, rewriting its checkpoint header through ``edit``."""
    shutil.copytree(run_dir, dst)
    rewrite_header_bytes(dst / "checkpoint.cmpn",
                         lambda raw: json.dumps(edit(json.loads(raw))).encode("utf-8"))
    return dst / "checkpoint.cmpn"


@pytest.mark.parametrize("edit", [
    lambda h: 5,
    lambda h: {**h, "params": 5},
    lambda h: {**h, "params": [{"name": p["name"]} for p in h["params"]]},
    lambda h: {**h, "params": [{**p, "shape": [float(d) for d in p["shape"]]}
                               for p in h["params"]]},
    lambda h: {**h, "epoch": "x"},
    lambda h: {**h, "epoch": True},
    lambda h: {**h, "extra": [1]},
    lambda h: {**h, "extra": None},
    lambda h: {**h, "extra": False},
    lambda h: {**h, "extra": 0},
    lambda h: {**h, "extra": ""},
    lambda h: {**h, "extra": []},
    lambda h: {**h, "model_config": 5},
    lambda h: {**h, "params": h["params"][::-1]},
    lambda h: {**h, "params": h["params"][:-1]},
    lambda h: {**h, "params": [*h["params"], {"name": "extra.w", "shape": [1]}]},
    lambda h: {**h, "params": [{**p, "shape": [p["shape"][0] + (i == 0), *p["shape"][1:]]}
                               for i, p in enumerate(h["params"])]},
], ids=["number", "params-number", "params-without-shape", "params-float-shapes",
        "epoch-text", "epoch-bool", "extra-list", "extra-null", "extra-false",
        "extra-zero", "extra-empty-text", "extra-empty-list", "model_config-number",
        "params-reordered", "params-entry-dropped", "params-entry-added",
        "params-shape-off-by-one"])
def test_malformed_checkpoint_header_is_a_format_error(
        trained_run, small_dataset_dir, tmp_path, edit):
    ckpt = copy_with_header(trained_run, tmp_path / "run", edit)
    assert main(["eval", "--checkpoint", str(ckpt),
                 "--data", str(small_dataset_dir)]) == 3
    assert main(["importance", "--checkpoint", str(ckpt), "--data",
                 str(small_dataset_dir), "--out", str(tmp_path / "imp.csv")]) == 3


@pytest.mark.parametrize("override", [
    {"conv_filters": ["x"]}, {"seed": "x"}, {"kernel_size": True},
    {"n_classes": 2.0}, {"n_features": 16.0}, {"learned_width": 32.0},
    {"image_shape": [1.0, 12.0, 12.0]}, {"conv_filters": [2.0]},
    {"dense_hidden": [2.0]}, {"dense_hidden": [10**18]}],
    ids=["filters-text", "seed-text", "kernel-bool", "classes-float",
         "features-float", "learned-width-float", "image-shape-floats",
         "filters-floats", "hidden-floats", "hidden-past-any-memory"])
def test_invalid_checkpoint_model_config_is_a_format_error(
        trained_run, small_dataset_dir, tmp_path, capsys, override):
    # A header that describes a model too large to allocate is refused from
    # its sizes alone, before any parameter array exists.
    ckpt = copy_with_header(
        trained_run, tmp_path / "run",
        lambda h: {**h, "model_config": {**h["model_config"], **override}})
    capsys.readouterr()
    for argv in (["eval", "--checkpoint", str(ckpt), "--data", str(small_dataset_dir)],
                 ["importance", "--checkpoint", str(ckpt), "--data",
                  str(small_dataset_dir), "--out", str(tmp_path / "imp.csv")]):
        assert main(argv) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_eval_rejects_a_negative_checkpoint_split_seed(
        trained_run, small_dataset_dir, tmp_path):
    ckpt = copy_with_header(
        trained_run, tmp_path / "run",
        lambda h: {**h, "extra": {**h["extra"],
                                  "split": {**h["extra"]["split"], "seed": -1}}})
    assert main(["eval", "--checkpoint", str(ckpt), "--data",
                 str(small_dataset_dir), "--split", "test"]) == 3


@pytest.mark.parametrize("override", [
    {"stratified": "x"}, {"seed": True}, {"train_fraction": True},
    {"train_fraction": 1.5}],
    ids=["stratified-text", "seed-bool", "fraction-bool", "fraction-out-of-range"])
def test_eval_rejects_mistyped_checkpoint_split_settings(
        trained_run, small_dataset_dir, tmp_path, override):
    ckpt = copy_with_header(
        trained_run, tmp_path / "run",
        lambda h: {**h, "extra": {**h["extra"],
                                  "split": {**h["extra"]["split"], **override}}})
    assert main(["eval", "--checkpoint", str(ckpt), "--data",
                 str(small_dataset_dir), "--split", "test"]) == 3


@pytest.mark.parametrize("edit", [
    lambda split: {**split, "shuffle": True},
    lambda split: {k: v for k, v in split.items() if k != "seed"},
    lambda split: {}, lambda split: [], lambda split: 0, lambda split: False,
    lambda split: ""],
    ids=["extra-key", "missing-key", "empty-object", "empty-list", "zero", "false",
         "empty-text"])
def test_eval_rejects_checkpoint_split_settings_with_other_keys(
        trained_run, small_dataset_dir, tmp_path, edit):
    ckpt = copy_with_header(
        trained_run, tmp_path / "run",
        lambda h: {**h, "extra": {**h["extra"], "split": edit(h["extra"]["split"])}})
    assert main(["eval", "--checkpoint", str(ckpt), "--data",
                 str(small_dataset_dir), "--split", "test"]) == 3


@pytest.mark.parametrize("absent", [True, False], ids=["absent", "null"])
def test_eval_of_one_side_needs_the_checkpoint_to_record_split_settings(
        trained_run, small_dataset_dir, tmp_path, capsys, absent):
    def edit(h):
        extra = {k: v for k, v in h["extra"].items() if k != "split"}
        return {**h, "extra": extra if absent else {**extra, "split": None}}

    ckpt = copy_with_header(trained_run, tmp_path / "run", edit)
    capsys.readouterr()
    for side in ("test", "train"):
        assert main(["eval", "--checkpoint", str(ckpt), "--data",
                     str(small_dataset_dir), "--split", side]) == 2
        assert capsys.readouterr().err == (
            f"error: checkpoint does not record split settings; cannot select "
            f"--split {side} (use --split all)\n")


def test_eval_checks_the_recorded_split_settings_before_it_touches_the_dataset(
        trained_run, tmp_path, capsys):
    # Malformed or absent split settings are refused before the dataset is
    # read, like the normalizer: a missing dataset would exit 3 on its own.
    missing = tmp_path / "no-such-set"
    for i, (split, code, line) in enumerate([
            ({"train_fraction": 0.75, "stratified": True}, 3,
             "checkpoint split settings are malformed: missing keys ['seed']"),
            (None, 2, "checkpoint does not record split settings; cannot select "
                      "--split test (use --split all)")]):
        ckpt = copy_with_header(trained_run, tmp_path / f"run{i}",
                                lambda h: {**h, "extra": {**h["extra"], "split": split}})
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(missing)]) == code
        assert capsys.readouterr().err == f"error: {line}\n"


def test_eval_rejects_a_normalizer_file_that_is_not_a_name(
        trained_run, small_dataset_dir, tmp_path):
    # Both paths lead to a valid normalizer, so only the name check stops them.
    other = tmp_path / "other" / "normalizer.json"
    other.parent.mkdir()
    shutil.copy(trained_run / "normalizer.json", other)
    for i, name in enumerate([5, "../other/normalizer.json", str(other)]):
        ckpt = copy_with_header(
            trained_run, tmp_path / f"run{i}",
            lambda h: {**h, "extra": {**h["extra"], "normalizer_file": name}})
        assert main(["eval", "--checkpoint", str(ckpt),
                     "--data", str(small_dataset_dir)]) == 3, name


# ---------------------------------------------------------------------------
# compare

def compare_config(tmp_path):
    config = copy.deepcopy(TINY_CLI_CONFIG)
    config["train"]["epochs"] = 2
    return write_json(tmp_path / "cmp.json", config)


def test_compare_writes_rows_and_means(small_dataset_dir, tmp_path):
    out = tmp_path / "cmp"
    rc = main(["compare", "--config", compare_config(tmp_path),
               "--data", str(small_dataset_dir),
               "--models", "compnet,image_only", "--seeds", "1,2",
               "--out", str(out)])
    assert rc == 0
    lines = (out / "compare.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "model,seed,train_acc,test_acc,gap"
    assert len(lines) == 1 + 4 + 2  # 2 kinds x 2 seeds, then one mean per kind
    mean_rows = [l for l in lines[1:] if l.split(",")[1] == "mean"]
    assert sorted(l.split(",")[0] for l in mean_rows) == \
           ["compnet", "image_only"]


def test_compare_rerun_is_byte_identical(small_dataset_dir, tmp_path):
    cfg = compare_config(tmp_path)
    for d in ("c1", "c2"):
        assert main(["compare", "--config", cfg,
                     "--data", str(small_dataset_dir),
                     "--models", "compnet,concat", "--seeds", "4",
                     "--out", str(tmp_path / d)]) == 0
    assert (tmp_path / "c1" / "compare.csv").read_bytes() == \
           (tmp_path / "c2" / "compare.csv").read_bytes()


def test_compare_argument_validation(small_dataset_dir, tmp_path):
    cfg = compare_config(tmp_path)
    base = ["compare", "--config", cfg, "--data", str(small_dataset_dir),
            "--out", str(tmp_path / "cmp")]
    assert main(base + ["--models", "compnet", "--seeds", "1"]) == 2
    assert main(base + ["--models", "compnet,bogus", "--seeds", "1"]) == 2
    assert main(base + ["--models", "compnet,concat", "--seeds", "1,x"]) == 2


def test_compare_rejects_repeated_model_kinds_with_one_error_line(
        small_dataset_dir, tmp_path, capsys):
    capsys.readouterr()
    assert main(["compare", "--config", compare_config(tmp_path),
                 "--data", str(small_dataset_dir), "--models", "compnet,compnet",
                 "--seeds", "1", "--out", str(tmp_path / "cmp")]) == 2
    assert capsys.readouterr().err == "error: model kinds must be distinct\n"


def test_an_unusable_out_fails_before_any_training_with_one_error_line(
        small_dataset_dir, tiny_config, trained_run, tmp_path, monkeypatch, capsys):
    # Every command that writes under --out makes it before it trains, scores or
    # draws; here it lies under a regular file.
    ran = []
    for name in ("fit", "run_training", "_score_mapped", "generate_synthetic"):
        monkeypatch.setattr(cli, name, lambda *args, name=name: ran.append(name))
    monkeypatch.setattr(models, "default_jobs", lambda: 1)  # runs would be in this process
    blocker = tmp_path / "notadir"
    blocker.write_bytes(b"")
    data = ["--config", tiny_config, "--data", str(small_dataset_dir)]
    compare = ["compare", *data, "--seeds", "1,2", "--out", str(blocker / "sub")]
    capsys.readouterr()
    for argv, out in (
            (["train", *data, "--model", "compnet", "--out", str(blocker / "t")],
             blocker / "t"),
            (compare + ["--models", "compnet,image_only,concat"], blocker / "sub"),
            # A config fault that run_comparison raises before any run (exit 2
            # with a usable --out) now comes after the unusable --out.
            (compare + ["--models", "compnet,compnet"], blocker / "sub"),
            (["importance", "--checkpoint", str(trained_run / "checkpoint.cmpn"),
              "--data", str(small_dataset_dir), "--out", str(blocker / "sub" / "imp.csv")],
             blocker / "sub"),
            (["generate", "--n-samples", "40", "--out", str(blocker / "ds")],
             blocker / "ds")):
        assert main(argv) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"error: [Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}: '{out}'"]
    assert ran == []


def test_compare_config_errors_are_usage_errors(small_dataset_dir, tmp_path):
    for section, key, value in (("model", "bogus_key", 1),
                                ("split", "train_fraction", 2.0)):
        config = copy.deepcopy(TINY_CLI_CONFIG)
        config[section][key] = value
        path = write_json(tmp_path / "bad.json", config)
        assert main(["compare", "--config", path, "--data", str(small_dataset_dir),
                     "--models", "compnet,concat", "--seeds", "1",
                     "--out", str(tmp_path / "cmp")]) == 2


def test_compare_numeric_failure_keeps_completed_rows(
        small_dataset_dir, tmp_path, monkeypatch):
    real_run = cli.run_training

    def fail_concat(ds, model_cfg, *args):
        # Decided by the run itself, so it holds in a worker process too.
        if model_cfg.fusion_kind == "concat":
            raise cn.NumericError("loss diverged")
        return real_run(ds, model_cfg, *args)

    monkeypatch.setattr(cli, "run_training", fail_concat)
    for jobs in (1, 2):
        monkeypatch.setattr(models, "default_jobs", lambda: jobs)
        out = tmp_path / f"cmp-{jobs}"
        assert main(["compare", "--config", compare_config(tmp_path),
                     "--data", str(small_dataset_dir), "--models", "compnet,concat",
                     "--seeds", "1", "--out", str(out)]) == 4
        lines = (out / "compare.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "model,seed,train_acc,test_acc,gap"
        assert [l.split(",")[:2] for l in lines[1:]] == [["compnet", "1"]]


def test_run_comparison_rejects_empty_seeds_before_any_run(small_dataset, monkeypatch):
    def no_run(*args):
        pytest.fail("a run started")

    monkeypatch.setattr(cli, "run_training", no_run)
    with pytest.raises(cn.ConfigError):
        cli.run_comparison(small_dataset, TINY_CLI_CONFIG, ["compnet", "concat"], [])


def test_compare_rejects_repeated_seeds_before_any_run(
        small_dataset_dir, tmp_path, monkeypatch):
    def no_run(*args):
        pytest.fail("a run started")

    monkeypatch.setattr(cli, "run_training", no_run)
    assert main(["compare", "--config", compare_config(tmp_path),
                 "--data", str(small_dataset_dir), "--models", "compnet,image_only",
                 "--seeds", "1,1,2", "--out", str(tmp_path / "cmp")]) == 2


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_config_that_a_later_kind_rejects_fails_before_any_run(
        small_dataset, small_dataset_dir, tmp_path, monkeypatch, jobs):
    # compnet accepts an empty dense_hidden; concat, second in each seed, does not.
    def no_run(*args):
        pytest.fail("a run started")

    config = copy.deepcopy(TINY_CLI_CONFIG)
    config["model"]["dense_hidden"] = []
    monkeypatch.setattr(models, "default_jobs", lambda: jobs)
    monkeypatch.setattr(cli, "run_training", no_run)
    with pytest.raises(cn.ConfigError, match="dense_hidden"):
        cli.run_comparison(small_dataset, config, ["compnet", "concat"], [1, 2])
    out = tmp_path / "cmp"
    assert main(["compare", "--config", write_json(tmp_path / "cfg.json", config),
                 "--data", str(small_dataset_dir), "--models", "compnet,concat",
                 "--seeds", "1,2", "--out", str(out)]) == 2
    assert (out / "compare.csv").read_text(encoding="utf-8") == \
           "model,seed,train_acc,test_acc,gap\n"
    assert_no_child_processes()


def test_importing_the_cli_and_running_other_commands_skips_multiprocessing(tmp_path):
    # Only compare loads multiprocessing, which costs every command at start.
    env = {**os.environ, "PYTHONPATH": str(Path(cn.__file__).resolve().parent.parent)}
    code = ("import compnet.cli, sys; "
            f"assert compnet.cli.main(['generate', '--out', {str(tmp_path / 'ds')!r}, "
            "'--n-samples', '20']) == 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_a_one_batch_eval_skips_multiprocessing(trained_run, small_dataset_dir, tmp_path):
    # A pass too short for two scoring children never loads multiprocessing.
    run = shutil.copytree(trained_run, tmp_path / "run")
    env = {**os.environ, "PYTHONPATH": str(Path(cn.__file__).resolve().parent.parent)}
    argv = ["eval", "--checkpoint", str(run / "checkpoint.cmpn"),
            "--data", str(small_dataset_dir), "--split", "all"]
    code = ("import compnet.cli, sys; "
            f"assert compnet.cli.main({argv!r}) == 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


# ---------------------------------------------------------------------------
# compare on child processes

def assert_no_child_processes():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_compare_in_process_and_on_workers_give_the_same_bytes_and_parameters(
        small_dataset, small_dataset_dir, tmp_path, monkeypatch):
    cfg = compare_config(tmp_path)
    for jobs in (1, 2):
        monkeypatch.setattr(models, "default_jobs", lambda: jobs)
        assert main(["compare", "--config", cfg, "--data", str(small_dataset_dir),
                     "--models", "compnet,image_only,concat", "--seeds", "1,2",
                     "--out", str(tmp_path / str(jobs))]) == 0
    assert (tmp_path / "1" / "compare.csv").read_bytes() == \
           (tmp_path / "2" / "compare.csv").read_bytes()

    config = json.loads(Path(cfg).read_text(encoding="utf-8"))
    runs = []
    for jobs in (1, 2):
        monkeypatch.setattr(models, "default_jobs", lambda: jobs)
        runs.append(cli.run_comparison(small_dataset, config, ["compnet", "concat"],
                                       [3, 4]))
    serial, pooled = runs
    assert pooled.rows == serial.rows
    assert list(pooled.results) == list(serial.results)
    for key, mine in pooled.results.items():
        theirs = serial.results[key]
        assert list(mine.model.params) == list(theirs.model.params)
        for name, value in mine.model.params.items():
            assert value.tobytes() == theirs.model.params[name].tobytes()
            assert mine.opt_state.velocities[name].tobytes() == \
                   theirs.opt_state.velocities[name].tobytes()
        assert mine.history == theirs.history


@pytest.mark.parametrize("patience", [None, 1])
def test_a_compare_run_ends_with_the_last_record_and_bytes_of_train(
        small_dataset, patience):
    # compare scores the training split once, after the last epoch; train
    # scores it after every epoch.  Both must end in the same place, an
    # early stop included.
    config = copy.deepcopy(TINY_CLI_CONFIG)
    config["train"]["patience"] = patience
    kinds, seed = ["compnet", "image_only", "concat"], 2  # patience 1 stops every kind at epoch 2
    result = cli.run_comparison(small_dataset, config, kinds, [seed])
    for kind in kinds:
        model_cfg, train_cfg, settings = cli._resolve_configs(
            config, small_dataset, kind, seed=seed, split_seed=seed)
        train_ds, test_ds = cn.split(small_dataset, settings.train_fraction,
                                     settings.seed, settings.stratified)
        norm = cn.zscore_fit(train_ds)
        model = cn.build_model(model_cfg)
        state = cn.init_optim_state(model)
        history = cn.fit(model, cn.zscore_apply(norm, train_ds),
                         cn.zscore_apply(norm, test_ds), train_cfg, state)
        run = result.results[(kind, seed)]
        assert run.history == [history[-1]], kind
        if patience is not None:
            assert history[-1].epoch < train_cfg.epochs, kind
        for name, value in model.params.items():
            assert run.model.params[name].tobytes() == value.tobytes()
            assert run.opt_state.velocities[name].tobytes() == \
                   state.velocities[name].tobytes()
        assert run.opt_state.epoch == state.epoch


@pytest.mark.parametrize("patience, test_evaluations", [(None, 1), (1, 2)])
def test_a_compare_run_evaluates_the_test_split_on_the_cadence_only_for_patience(
        small_dataset_dir, tmp_path, monkeypatch, patience, test_evaluations):
    # Without patience a run keeps only its last test evaluation, so it makes
    # that one alone; with patience 1 and eval_every 1, each kind stops at
    # epoch 2 after one test evaluation per epoch.
    real = train._evaluate_pathway
    scored = []

    def record(model, features, labels, learned):
        scored.append(len(labels))
        return real(model, features, labels, learned)

    monkeypatch.setattr(train, "_evaluate_pathway", record)
    monkeypatch.setattr(models, "default_jobs", lambda: 1)  # runs in this process
    config = copy.deepcopy(TINY_CLI_CONFIG)
    config["train"]["patience"] = patience
    assert main(["compare", "--config", write_json(tmp_path / "cmp.json", config),
                 "--data", str(small_dataset_dir), "--models", "compnet,image_only,concat",
                 "--seeds", "2", "--out", str(tmp_path / "cmp")]) == 0
    assert scored == ([60] * test_evaluations + [180]) * 3


def test_compare_first_failing_run_in_serial_order_decides(
        small_dataset_dir, tmp_path, monkeypatch):
    real_run = cli.run_training
    marker = tmp_path / "concat-failed"

    def fail_late_and_early(ds, model_cfg, *args):
        if model_cfg.fusion_kind == "image_only":
            # The second run fails only after the third has failed.
            deadline = time.monotonic() + 60
            while not marker.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            raise cn.NumericError("loss diverged")
        if model_cfg.fusion_kind == "concat":
            marker.touch()
            raise cn.ConfigError("bad concat run")
        return real_run(ds, model_cfg, *args)

    monkeypatch.setattr(models, "default_jobs", lambda: 2)
    monkeypatch.setattr(cli, "run_training", fail_late_and_early)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", compare_config(tmp_path),
                 "--data", str(small_dataset_dir),
                 "--models", "compnet,image_only,concat", "--seeds", "1",
                 "--out", str(out)]) == 4
    assert marker.exists()
    lines = (out / "compare.csv").read_text(encoding="utf-8").splitlines()
    assert [l.split(",")[:2] for l in lines[1:]] == [["compnet", "1"]]
    assert_no_child_processes()


def assert_compare_fails_when_a_worker_dies(small_dataset_dir, tmp_path, monkeypatch, capfd,
                                            dying, rows_before):
    """Compare compnet, concat and image_only on 2 workers and SIGKILL the
    child that trains ``dying``: exit 3 within the alarm and one error line
    naming the run, with exactly the rows before it written and no child left."""
    real_run = cli.run_training
    test_process = os.getpid()

    def die_on_kind(ds, model_cfg, *args):
        if model_cfg.fusion_kind == dying and os.getpid() != test_process:
            os.kill(os.getpid(), signal.SIGKILL)
        return real_run(ds, model_cfg, *args)

    def hung(signum, frame):
        pytest.fail("compare still waits for the run of a dead worker")

    monkeypatch.setattr(models, "default_jobs", lambda: 2)
    monkeypatch.setattr(cli, "run_training", die_on_kind)
    out = tmp_path / "cmp"
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    capfd.readouterr()
    try:
        code = main(["compare", "--config", compare_config(tmp_path),
                     "--data", str(small_dataset_dir),
                     "--models", "compnet,concat,image_only", "--seeds", "1",
                     "--out", str(out)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 3
    assert capfd.readouterr().err.splitlines() == [
        f"error: {dying} seed 1: the child running job (1, {dying!r}) died (exit code -9)"]
    lines = (out / "compare.csv").read_text(encoding="utf-8").splitlines()
    assert [l.split(",")[:2] for l in lines[1:]] == rows_before
    assert_no_child_processes()


def test_compare_fails_in_bounded_time_when_a_worker_dies(
        small_dataset_dir, tmp_path, monkeypatch, capfd):
    assert_compare_fails_when_a_worker_dies(small_dataset_dir, tmp_path, monkeypatch, capfd,
                                            "concat", [["compnet", "1"]])


def test_compare_fails_in_bounded_time_when_the_last_started_worker_dies(
        small_dataset_dir, tmp_path, monkeypatch, capfd):
    # No later start drops the parent's last copy of this child's write end,
    # so only closing it at start lets the parent see the child's EOF.
    assert_compare_fails_when_a_worker_dies(small_dataset_dir, tmp_path, monkeypatch, capfd,
                                            "image_only", [["compnet", "1"], ["concat", "1"]])


def test_compare_leaves_no_child_process_on_return_or_raise(
        small_dataset, tmp_path, monkeypatch):
    config = copy.deepcopy(TINY_CLI_CONFIG)
    config["train"]["epochs"] = 1
    kinds, seeds = ["compnet", "concat"], [1, 2]
    monkeypatch.setattr(models, "default_jobs", lambda: 2)
    cli.run_comparison(small_dataset, config, kinds, seeds)
    assert_no_child_processes()

    def reject_row(row):
        raise RuntimeError("on_row failed")

    with pytest.raises(RuntimeError):
        cli.run_comparison(small_dataset, config, kinds, seeds, on_row=reject_row)
    assert_no_child_processes()

    def diverge(*args):
        raise cn.NumericError("loss diverged")

    monkeypatch.setattr(cli, "run_training", diverge)
    with pytest.raises(cn.NumericError):
        cli.run_comparison(small_dataset, config, kinds, seeds)
    assert_no_child_processes()
@pytest.mark.parametrize("jobs", [1, 2])
def test_compare_starts_no_run_after_a_run_has_failed(
        small_dataset, tmp_path, monkeypatch, jobs):
    real_run = cli.run_training
    test_process = os.getpid()
    failed = tmp_path / "1-concat"

    def mark_then_run(ds, model_cfg, train_cfg, *args):
        (tmp_path / f"{train_cfg.seed}-{model_cfg.fusion_kind}").touch()
        if model_cfg.fusion_kind == "concat" and train_cfg.seed == 1:
            raise cn.NumericError("loss diverged")
        if os.getpid() != test_process:
            # On children, (1, compnet) finishes only after (1, concat) failed.
            deadline = time.monotonic() + 60
            while not failed.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.2)
        return real_run(ds, model_cfg, train_cfg, *args)

    def slow_row(row):
        time.sleep(1.0)  # time for a wrongly started run to drop its marker

    config = copy.deepcopy(TINY_CLI_CONFIG)
    config["train"]["epochs"] = 1
    monkeypatch.setattr(models, "default_jobs", lambda: jobs)
    monkeypatch.setattr(cli, "run_training", mark_then_run)
    with pytest.raises(cn.NumericError):
        cli.run_comparison(small_dataset, config, ["compnet", "concat"], [1, 2],
                           on_row=slow_row)
    assert failed.exists()
    assert sorted(p.name for p in tmp_path.glob("2-*")) == []
    assert_no_child_processes()


# Runs a command as its child and reaps every process orphaned below it,
# then prints the command's pid and, once nothing is left, its exit code.
# Orphans come to it, not to PID 1, which may never reap them.
_REAPER = """
import ctypes, os, sys
prctl = ctypes.CDLL(None).prctl
prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
prctl(36, 1)  # PR_SET_CHILD_SUBREAPER
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ)
print(pid, flush=True)
codes = {}
while True:
    try:
        child, status = os.wait()
    except ChildProcessError:
        break
    codes[child] = os.waitstatus_to_exitcode(status)
print(codes[pid], flush=True)
"""


def process_group(pgid):
    """(pid, state) of every process in group ``pgid``, zombies included."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text(encoding="utf-8").rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # it exited while we looked
        if int(fields[2]) == pgid:
            members.append((int(stat.parent.name), fields[0]))
    return members


@pytest.mark.skipif(not sys.platform.startswith("linux") or not Path("/proc/self/stat").exists(),
                    reason="needs Linux /proc")
@pytest.mark.skipif(models.default_jobs() < 2, reason="compare starts no worker on one CPU")
def test_killed_compare_leaves_no_worker_running(small_dataset_dir, tmp_path):
    config = copy.deepcopy(TINY_CLI_CONFIG)
    config["train"]["epochs"] = 5000  # far longer than the 5 s below
    cfg = write_json(tmp_path / "long.json", config)
    env = {**os.environ, "PYTHONPATH": str(Path(cn.__file__).resolve().parent.parent)}
    proc = subprocess.Popen(
        [sys.executable, "-c", _REAPER, sys.executable, "-m", "compnet.cli", "compare",
         "--config", cfg, "--data", str(small_dataset_dir), "--models", "compnet,concat",
         "--seeds", "1,2", "--out", str(tmp_path / "cmp")],
        env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        cli_pid = int(proc.stdout.readline())
        deadline = time.monotonic() + 60
        # The reaper, the command and its two workers.
        while len(process_group(proc.pid)) < 4:
            assert time.monotonic() < deadline, "the workers never started"
            time.sleep(0.01)
        os.kill(cli_pid, signal.SIGKILL)
        deadline = time.monotonic() + 5
        while [p for p, _ in process_group(proc.pid)] not in ([proc.pid], []):
            assert time.monotonic() < deadline, process_group(proc.pid)
            time.sleep(0.01)
        assert proc.wait(timeout=5) == 0
        assert int(proc.stdout.readline()) == -signal.SIGKILL
        assert process_group(proc.pid) == []
    finally:
        if proc.poll() is None or process_group(proc.pid):
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        proc.wait(timeout=10)
        proc.stdout.close()


# ---------------------------------------------------------------------------
# eval and importance on child processes

@pytest.fixture(scope="module")
def scoring_dataset():
    """16 scoring batches at the small dataset's geometry: two children's worth."""
    return cn.generate_synthetic(cn.SynthSpec(
        n_samples=2 * models.MIN_CHILD_BATCHES * models.EVAL_BATCH,
        image_shape=(1, 12, 12), seed=12))


SPLITS = ("all", "test", "train")


def score_all(run, data_dir, jobs, monkeypatch, capfd):
    """``eval`` of each of ``SPLITS``, then ``importance``, of a copy of ``run`` with
    the CPU rule at ``jobs``: the copy, each command's exit code and stderr lines
    (its children's included), and the worker count of each forked scoring pass.
    Each eval's ``metrics.json`` is renamed ``metrics-<split>.json``."""
    run = shutil.copytree(run, data_dir.parent / f"run-{jobs}")
    real, workers = forkpool.ordered_results, []

    def count_workers(fn, runs, n, **kwargs):
        workers.append(n)
        return real(fn, runs, n, **kwargs)

    monkeypatch.setattr(forkpool, "ordered_results", count_workers)
    monkeypatch.setattr(models, "default_jobs", lambda: jobs)
    ckpt = str(run / "checkpoint.cmpn")
    outcomes = []
    for argv in [*(["eval", "--checkpoint", ckpt, "--data", str(data_dir), "--split", split]
                   for split in SPLITS),
                 ["importance", "--checkpoint", ckpt, "--data", str(data_dir),
                  "--out", str(run / "importance.csv")]]:
        capfd.readouterr()
        code = main(argv)
        outcomes.append((code, capfd.readouterr().err.splitlines()))
        assert_no_child_processes()
        if (run / "metrics.json").exists():
            (run / "metrics.json").rename(run / f"metrics-{argv[-1]}.json")
    return run, outcomes, workers


def scored_files(run):
    """The files ``score_all`` left in ``run``: each eval's metrics, then importance's."""
    return [run / f"metrics-{split}.json" for split in SPLITS] + [run / "importance.csv"]


def recorded_sides(run, labels):
    """The train and test rows of the split that ``run``'s checkpoint records."""
    settings = cn.checkpoint_load(run / "checkpoint.cmpn")[2]["split"]
    return dict(zip(("train", "test"), cn.data.split_rows(labels, **settings)))


def side_metrics(run, data_dir):
    """The ``metrics.json`` bytes of ``eval --split train`` and ``--split test`` of
    ``run``, computed here as a load would: ``evaluate`` of the z-scored side that
    ``split`` takes from the loaded dataset."""
    model, _, extra = cn.checkpoint_load(run / "checkpoint.cmpn")
    norm = cn.Normalizer.from_dict(
        json.loads((run / "normalizer.json").read_text(encoding="utf-8")))
    sides = cn.split(cn.load_dataset(data_dir), **extra["split"])
    expected = {}
    for split, side in zip(("train", "test"), sides):
        metrics = cn.evaluate(model, cn.zscore_apply(norm, side))
        payload = {"split": split, "loss": metrics.loss, "accuracy": metrics.accuracy,
                   "n": metrics.n}
        expected[split] = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    return expected


@pytest.fixture(scope="module")
def trained_runs(trained_run, small_dataset_dir, tmp_path_factory):
    """``trained_run`` and a concat and an image_only run of the same config and data."""
    runs = {"compnet": trained_run}
    config = write_json(tmp_path_factory.mktemp("heads") / "config.json", TINY_CLI_CONFIG)
    for kind in ("concat", "image_only"):
        runs[kind] = tmp_path_factory.mktemp(kind) / "run"
        assert train_small(small_dataset_dir, config, runs[kind], model=kind) == 0
    return runs


def test_scoring_in_process_and_on_children_writes_the_same_bytes(
        trained_runs, scoring_dataset, tmp_path, monkeypatch, capfd):
    # On children this process applies the head to their image-pathway output:
    # the fusion for compnet, concat and the dense stack for concat, nothing
    # for image_only.
    cn.save_dataset(scoring_dataset, tmp_path / "data")
    for kind, run in trained_runs.items():
        importance = [] if kind == "compnet" else [
            f"error: feature importance requires the compnet variant, not {kind!r}"]
        artifacts = []
        for jobs in (1, 2):
            copy, outcomes, workers = score_all(run, tmp_path / "data", jobs, monkeypatch, capfd)
            assert outcomes == [(0, [])] * 3 + [(0 if kind == "compnet" else 2, importance)], \
                kind
            # importance starts no pass for a variant it refuses, and each side of
            # the split is too short to fork
            assert workers == [2] * (0 if jobs == 1 else 2 if kind == "compnet" else 1)
            artifacts.append([path.read_bytes() for path in scored_files(copy)
                              if path.exists()])
            shutil.rmtree(copy)
        assert len(artifacts[0]) == (4 if kind == "compnet" else 3)
        assert artifacts[0] == artifacts[1], kind
        expected = side_metrics(run, tmp_path / "data")
        assert artifacts[0][1:3] == [expected["test"], expected["train"]], kind


def test_the_tables_are_read_while_the_children_run_the_image_pathway(
        trained_run, scoring_dataset, tmp_path, monkeypatch, capfd):
    real, children = cli.read_tables, []

    def count_children(mapped):
        children.append(len(multiprocessing.active_children()))
        return real(mapped)

    monkeypatch.setattr(cli, "read_tables", count_children)
    cn.save_dataset(scoring_dataset, tmp_path / "data")
    _, outcomes, workers = score_all(trained_run, tmp_path / "data", 2, monkeypatch, capfd)
    assert outcomes == [(0, [])] * 4 and workers == [2, 2]
    # eval --split all's, then each side's, read before its pass (the split needs
    # the labels) and too short to fork, then importance's
    assert children == [2, 0, 0, 2]


def test_a_short_pass_runs_the_image_pathway_once_per_batch_and_never_forward(
        trained_run, tmp_path, monkeypatch):
    # A pass too short for the children takes the same route: the image
    # pathway a batch at a time, then the head.
    n = 4 * models.EVAL_BATCH + 7
    cn.save_dataset(cn.generate_synthetic(cn.SynthSpec(
        n_samples=n, image_shape=(1, 12, 12), seed=12)), tmp_path / "data")
    run = shutil.copytree(trained_run, tmp_path / "run")
    ckpt, data = str(run / "checkpoint.cmpn"), str(tmp_path / "data")
    real_pathway, real_forward = models.image_pathway, models.forward
    sizes, forwards = [], []

    def count_pathway(model, images):
        sizes.append(images.shape[0])
        return real_pathway(model, images)

    def count_forward(model, images, *args):
        forwards.append(images.shape[0])
        return real_forward(model, images, *args)

    def command(*argv):
        assert main([*argv, "--checkpoint", ckpt, "--data", data]) == 0, argv
        return json.loads((run / "metrics.json").read_text(encoding="utf-8"))["n"] \
            if argv[0] == "eval" else n

    monkeypatch.setattr(models, "image_pathway", count_pathway)
    monkeypatch.setattr(models, "forward", count_forward)
    model, _, _ = cn.checkpoint_load(ckpt)
    ds = cn.load_dataset(data)

    def importance():
        models.feature_importance(model, ds)
        return n

    for score in (lambda: command("eval", "--split", "all"),
                  lambda: command("eval", "--split", "test"),
                  lambda: command("importance", "--out", str(run / "importance.csv")),
                  lambda: cn.evaluate(model, ds).n, importance):
        sizes.clear()
        rows = score()
        assert models.EVAL_BATCH < rows < 2 * models.MIN_CHILD_BATCHES * models.EVAL_BATCH
        assert sizes == [min(models.EVAL_BATCH, rows - i)
                         for i in range(0, rows, models.EVAL_BATCH)]
        assert forwards == []


def test_every_command_hands_the_models_finite_images_and_features(
        small_dataset_dir, tiny_config, tmp_path, monkeypatch):
    # Models check only shapes: a command makes its arrays finite before a
    # model reads them (a Dataset, the scoring pass's pixel check, z-scoring).
    calls = dict.fromkeys(["image_pathway", "head", "forward"], 0)

    def finite_inputs(name, *positions):
        real = getattr(models, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            for i in positions:
                assert args[i] is None or np.isfinite(args[i].data).all(), (name, i)
            return real(*args, **kwargs)
        return wrapper

    # positions of the images and the designed features
    monkeypatch.setattr(models, "image_pathway", finite_inputs("image_pathway", 1))
    monkeypatch.setattr(models, "head", finite_inputs("head", 2))
    monkeypatch.setattr(models, "forward", finite_inputs("forward", 1, 2))
    monkeypatch.setattr(models, "default_jobs", lambda: 1)  # every run in this process
    run, data = tmp_path / "run", str(small_dataset_dir)
    ckpt = str(run / "checkpoint.cmpn")
    assert train_small(small_dataset_dir, tiny_config, run) == 0
    for split in ("all", "test", "train"):
        assert main(["eval", "--checkpoint", ckpt, "--data", data, "--split", split]) == 0
    assert main(["importance", "--checkpoint", ckpt, "--data", data,
                 "--out", str(tmp_path / "importance.csv")]) == 0
    assert main(["compare", "--config", compare_config(tmp_path), "--data", data,
                 "--models", ",".join(models.FUSION_KINDS), "--seeds", "1",
                 "--out", str(tmp_path / "cmp")]) == 0
    assert all(calls.values()), calls


def break_features_cell(data):
    path = data / "features.csv"
    lines = path.read_text(encoding="utf-8").split("\n")
    cells = lines[3000].split(",")
    cells[4] = "abc"
    lines[3000] = ",".join(cells)
    write_atomic(path, "\n".join(lines).encode("utf-8"))


def break_label_id(data):
    path = data / "labels.csv"
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[3000] = "zzz," + lines[3000].split(",")[1]
    write_atomic(path, "\n".join(lines).encode("utf-8"))


def nan_at(data, row):
    """A NaN in the first pixel of sample ``row`` of the 1x12x12 set at ``data``."""
    path = data / "images.bin"
    pixels = np.fromfile(path, dtype="<f8")
    pixels[row * 144] = np.nan
    write_atomic(path, pixels)


def break_pixel(data, batch=12):
    # A NaN in row 5 of the batch: batch 12 of 16 the second child reads, batch 0 the first.
    nan_at(data, batch * models.EVAL_BATCH + 5)


def break_first_pixel(data):
    break_pixel(data, batch=0)


def break_features_cell_and_pixel(data):
    break_pixel(data, batch=0)
    break_features_cell(data)


@pytest.mark.parametrize("breaks,code,line", [
    (break_features_cell, 3,
     "error: features.csv: non-numeric value: "
     "could not convert string 'abc' to float64 at line 3001, column 5."),
    (break_label_id, 3, "error: labels.csv sample ids do not match features.csv"),
    (break_pixel, 3, "error: {data}: sample s003077: non-finite values"),
    (break_first_pixel, 3, "error: {data}: sample s000005: non-finite values"),
    (break_features_cell_and_pixel, 3,
     "error: features.csv: non-numeric value: "
     "could not convert string 'abc' to float64 at line 3001, column 5."),
], ids=["features-cell", "label-id", "pixel", "first-pixel", "features-cell-and-pixel"])
def test_a_bad_table_or_pixel_ends_a_pass_on_children_as_it_ends_a_load(
        trained_run, scoring_dataset, tmp_path, monkeypatch, capfd, breaks, code, line):
    # The children start before the tables are read and check the pixels as
    # they read them; the load's error line still wins over every child result,
    # in process too, and no child is left.
    data = tmp_path / "data"
    cn.save_dataset(scoring_dataset, data)
    breaks(data)
    line = line.format(data=data)
    with pytest.raises(cn.CompnetError) as load:
        cn.load_dataset(data)
    assert f"error: {load.value}" == line
    for jobs in (1, 2):
        run, outcomes, workers = score_all(trained_run, data, jobs, monkeypatch, capfd)
        assert outcomes == [(code, [line])] * 4, jobs
        assert workers == ([] if jobs == 1 else [2, 2])
        assert not any(path.exists() for path in scored_files(run))


def test_the_command_never_reads_a_pixel_the_pass_computes_on(
        trained_run, scoring_dataset, tmp_path, monkeypatch, capfd):
    # Every read of the mapped pixels made from this process is logged: a row
    # slice by its bounds, a row gather by its rows, a NumPy reduction or other
    # ufunc call by name.  On children this process reads none; in process the
    # pass reads each batch once, and nothing else reads them (no Dataset
    # check, no z-scoring, no copy of a split's side).  A batch of one side
    # checks the rows from its first row to the next batch's, then gathers its own.
    test_process, reads = os.getpid(), []

    class Logged(np.ndarray):
        def __getitem__(self, key):
            if os.getpid() == test_process:
                reads.append((key.start, key.stop) if isinstance(key, slice)
                             else key.tolist() if isinstance(key, np.ndarray) else repr(key))
            return np.asarray(self)[key]

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if os.getpid() == test_process:
                reads.append(f"{ufunc.__name__}.{method}")
            inputs = [np.asarray(x) if isinstance(x, Logged) else x for x in inputs]
            return getattr(ufunc, method)(*inputs, **kwargs)

    def logged_map(path):
        mapped = real(path)
        return mapped._replace(images=mapped.images.view(Logged))

    real = cli.map_images
    monkeypatch.setattr(cli, "map_images", logged_map)
    cn.save_dataset(scoring_dataset, tmp_path / "data")
    n, size = len(scoring_dataset), models.EVAL_BATCH
    whole = [(i, i + size) for i in range(0, n, size)]
    sides = []
    for rows in recorded_sides(trained_run, scoring_dataset.labels).values():
        bounds = [0, *rows[size::size].tolist(), n]
        sides.append([read for k in range(len(bounds) - 1) for read in (
            (bounds[k], bounds[k + 1]), rows[k * size:(k + 1) * size].tolist())])
    train, test = sides  # each too short to fork
    for jobs, pass_reads in ((2, []), (1, whole)):
        reads.clear()
        _, outcomes, _ = score_all(trained_run, tmp_path / "data", jobs, monkeypatch, capfd)
        assert outcomes == [(0, [])] * 4
        # eval --split all's, --split test's, --split train's, then importance's
        assert reads == pass_reads + test + train + pass_reads, jobs


def test_eval_on_children_without_the_normalizer_ends_as_it_ends_in_process(
        trained_run, scoring_dataset, tmp_path, monkeypatch, capfd):
    run = shutil.copytree(trained_run, tmp_path / "run")
    (run / "normalizer.json").unlink()
    cn.save_dataset(scoring_dataset, tmp_path / "data")
    copy, outcomes, workers = score_all(run, tmp_path / "data", 2, monkeypatch, capfd)
    line = f"error: normalizer not found: {copy / 'normalizer.json'}"
    assert outcomes[:3] == [(2, [line])] * 3
    # eval reads the normalizer before the dataset, so only importance starts a pass
    assert workers == [2] and not any(path.exists() for path in scored_files(copy)[:3])


def save_overflowing_set(trained_run, dataset, tmp_path, batch):
    """A copy of ``trained_run`` with every conv0 kernel weight at 10, and
    ``dataset`` saved to ``tmp_path / "data"`` with one pixel of 1e308 in
    ``batch``: that pixel overflows the conv, while ordinary pixels still
    score finite."""
    run = shutil.copytree(trained_run, tmp_path / "run")
    overwrite_payload(run / "checkpoint.cmpn", [(i, 10.0) for i in CONV0_KERNELS])
    images = dataset.images.copy()
    images[batch * models.EVAL_BATCH + 5, 0, 6, 6] = 1e308
    cn.save_dataset(cn.Dataset(dataset.ids, images, dataset.features, dataset.labels,
                               dataset.n_classes), tmp_path / "data")
    return run


def test_a_sample_that_overflows_in_the_second_child_fails_scoring_with_one_error_line(
        trained_run, scoring_dataset, tmp_path, monkeypatch, capfd):
    run = save_overflowing_set(trained_run, scoring_dataset, tmp_path, batch=12)  # of 16
    overflow = (4, ["error: cross_entropy received non-finite logits"])
    # only the side that holds the overflowing sample fails
    sides = recorded_sides(run, scoring_dataset.labels)
    scored = [overflow if 12 * models.EVAL_BATCH + 5 in sides[split] else (0, [])
              for split in ("test", "train")]
    assert sorted(scored) == [(0, []), overflow]
    for jobs in (1, 2):
        _, outcomes, workers = score_all(run, tmp_path / "data", jobs, monkeypatch, capfd)
        assert outcomes == [overflow, *scored, (4, ["error: feature importance is not finite"])]
        assert workers == ([] if jobs == 1 else [2, 2])


def test_a_bad_pixel_wins_over_the_overflow_of_an_earlier_batch_as_in_a_load(
        trained_run, scoring_dataset, tmp_path, monkeypatch, capfd):
    # Batch 3 overflows and a NaN sits in batch 12: a load names the NaN, and
    # so does eval, which reads the rest of the pass after the overflow.
    run = save_overflowing_set(trained_run, scoring_dataset, tmp_path, batch=3)
    break_pixel(tmp_path / "data")
    line = f"error: {tmp_path / 'data'}: sample s003077: non-finite values"
    for jobs in (1, 2):
        _, outcomes, _ = score_all(run, tmp_path / "data", jobs, monkeypatch, capfd)
        assert outcomes == [(3, [line])] * 4, jobs


@pytest.mark.parametrize("where", ["before", "between", "after"])
def test_a_bad_pixel_in_a_sample_eval_does_not_score_ends_it_as_a_load(
        trained_run, scoring_dataset, tmp_path, monkeypatch, capfd, where):
    # A batch of the test side checks every row from its first row to the next
    # batch's, the first batch from row 0 and the last to the end, so a NaN in
    # a training sample before the first test row, between two test batches or
    # after the last test row still ends the default eval with the load's error.
    size = models.EVAL_BATCH
    sides = recorded_sides(trained_run, scoring_dataset.labels)
    test, train = sides["test"], sides["train"]
    gaps = [train[(train > test[k * size - 1]) & (train < test[k * size])]
            for k in range(1, -(-len(test) // size))]
    row = int({"before": train[train < test[0]], "between": next(g for g in gaps if g.size),
               "after": train[train > test[-1]]}[where][0])
    data = tmp_path / "data"
    cn.save_dataset(scoring_dataset, data)
    nan_at(data, row)
    line = f"error: {data}: sample {scoring_dataset.ids[row]}: non-finite values"
    with pytest.raises(cn.CompnetError) as load:
        cn.load_dataset(data)
    assert f"error: {load.value}" == line
    run = shutil.copytree(trained_run, tmp_path / "run")
    for jobs in (1, 2):
        monkeypatch.setattr(models, "default_jobs", lambda: jobs)
        capfd.readouterr()
        assert main(["eval", "--checkpoint", str(run / "checkpoint.cmpn"),
                     "--data", str(data)]) == 3, jobs
        assert capfd.readouterr().err.splitlines() == [line]
        assert not (run / "metrics.json").exists()


@pytest.fixture(scope="module")
def long_side_dataset():
    """A set whose training side under ``TINY_CLI_CONFIG``'s split is 17 scoring
    batches, enough for two children, and whose test side is 6, too few."""
    return cn.generate_synthetic(cn.SynthSpec(n_samples=5500, image_shape=(1, 12, 12), seed=12))


def test_a_side_scored_on_children_writes_the_bytes_of_a_load_and_checks_every_pixel(
        trained_run, long_side_dataset, tmp_path, monkeypatch, capfd):
    data = tmp_path / "data"
    cn.save_dataset(long_side_dataset, data)
    expected = side_metrics(trained_run, data)
    for jobs in (1, 2):
        run, outcomes, workers = score_all(trained_run, data, jobs, monkeypatch, capfd)
        assert outcomes == [(0, [])] * 4
        assert workers == ([] if jobs == 1 else [2, 2, 2])  # all, train, importance
        assert [(run / f"metrics-{split}.json").read_bytes() for split in ("test", "train")] \
            == [expected["test"], expected["train"]], jobs
        shutil.rmtree(run)
    # The first child's run is 9 of the 17 training batches: its last batch
    # checks, and does not score, the test samples up to the second child's
    # first row.  A NaN in the last of them ends every command as a load.
    sides = recorded_sides(trained_run, long_side_dataset.labels)
    train, test = sides["train"], sides["test"]
    row = int(test[test < train[9 * models.EVAL_BATCH]][-1])
    assert row > train[8 * models.EVAL_BATCH]
    nan_at(data, row)
    line = f"error: {data}: sample {long_side_dataset.ids[row]}: non-finite values"
    for jobs in (1, 2):
        run, outcomes, _ = score_all(trained_run, data, jobs, monkeypatch, capfd)
        assert outcomes == [(3, [line])] * 4, jobs
        shutil.rmtree(run)


def test_a_bad_pixel_wins_over_a_split_that_fails_as_in_a_load(
        trained_run, small_dataset, tmp_path, capsys):
    # A stratified split needs two samples of each class, and this set holds
    # one of class 1: the split fails after the tables are read, and a
    # non-finite pixel anywhere still decides the error, as in a load.
    labels = np.zeros(len(small_dataset), dtype=np.int64)
    labels[7] = 1
    data = tmp_path / "data"
    cn.save_dataset(cn.Dataset(small_dataset.ids, small_dataset.images,
                               small_dataset.features, labels, 2), data)
    run = shutil.copytree(trained_run, tmp_path / "run")
    capsys.readouterr()
    for split in ("test", "train"):
        argv = ["eval", "--checkpoint", str(run / "checkpoint.cmpn"), "--data", str(data),
                "--split", split]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: stratified split needs >= 2 samples per class; class 1 has 1\n")
    nan_at(data, 100)
    for split in ("test", "train"):
        assert main([*argv[:-1], split]) == 3
        assert capsys.readouterr().err == (
            f"error: {data}: sample {small_dataset.ids[100]}: non-finite values\n")
    assert not (run / "metrics.json").exists()


def test_the_default_eval_holds_no_copy_of_the_images(
        trained_run, scoring_dataset, tmp_path, monkeypatch):
    # The default eval scores the test side through the pass on the mapped
    # pixels, as --split all does: beside the tables it holds one batch at a
    # time, not a copy of the side's images.  A load and split peaked at
    # 2.4 times --split all here.
    data = tmp_path / "data"
    cn.save_dataset(scoring_dataset, data)
    run = shutil.copytree(trained_run, tmp_path / "run")
    monkeypatch.setattr(models, "default_jobs", lambda: 1)  # the whole pass in this process
    peaks = []
    for split in (["--split", "all"], []):
        tracemalloc.start()
        try:
            assert main(["eval", "--checkpoint", str(run / "checkpoint.cmpn"),
                         "--data", str(data), *split]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_scoring_fails_with_exit_3_when_a_child_dies(
        trained_run, scoring_dataset, tmp_path, monkeypatch, capfd):
    test_process, real = os.getpid(), models.image_pathway

    def die_in_a_child(*args):
        if os.getpid() != test_process:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args)  # each side of the split is too short to fork

    monkeypatch.setattr(models, "image_pathway", die_in_a_child)  # what the children run
    cn.save_dataset(scoring_dataset, tmp_path / "data")
    _, outcomes, workers = score_all(trained_run, tmp_path / "data", 2, monkeypatch, capfd)
    assert [code for code, _ in outcomes] == [3, 0, 0, 3] and workers == [2, 2]
    for _, lines in outcomes[::3]:
        assert len(lines) == 1 and lines[0].startswith("error: the child running job"), lines


def test_ordered_results_starts_its_first_jobs_before_the_first_next(tmp_path):
    def mark(job):
        (tmp_path / str(job)).touch()
        return job

    with forkpool.ordered_results(mark, [(0,), (1,), (2,)], 2) as results:
        deadline = time.monotonic() + 60
        while not ((tmp_path / "0").exists() and (tmp_path / "1").exists()):
            assert time.monotonic() < deadline, "the first two jobs never started"
            time.sleep(0.01)
        assert not (tmp_path / "2").exists()  # the third waits for a free child
        assert list(results) == [0, 1, 2]
    assert_no_child_processes()


def test_ordered_results_starts_no_job_past_its_window(tmp_path):
    # Job 1 finishes while job 0 runs; with two jobs ahead allowed, job 2 waits
    # for job 0 to be yielded although a child is free.
    def mark(job):
        if job == 0:
            deadline = time.monotonic() + 60
            while not (tmp_path / "1").exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.5)  # time enough for a free child to start job 2
            return (tmp_path / "2").exists()
        (tmp_path / str(job)).touch()
        return job

    with forkpool.ordered_results(mark, [(0,), (1,), (2,), (3,)], 2, ahead=2) as results:
        assert list(results) == [False, 1, 2, 3]
    assert_no_child_processes()


def test_a_pass_cut_into_many_runs_writes_the_same_bytes(
        trained_run, scoring_dataset, tmp_path, monkeypatch, capfd):
    # Runs capped at two batches: eight runs per pass, at most one per child ahead.
    cn.save_dataset(scoring_dataset, tmp_path / "data")
    _, outcomes, _ = score_all(trained_run, tmp_path / "data", 1, monkeypatch, capfd)
    expected = [path.read_bytes() for path in scored_files(tmp_path / "run-1")]
    real, passes = forkpool.ordered_results, []

    def count_runs(fn, runs, n, ahead=None):
        passes.append((len(runs), n, ahead))
        return real(fn, runs, n, ahead=ahead)

    monkeypatch.setattr(forkpool, "ordered_results", count_runs)
    monkeypatch.setattr(models, "MIN_CHILD_BATCHES", 2)
    monkeypatch.setattr(models, "JOB_BYTES", 1)
    copy, outcomes, _ = score_all(trained_run, tmp_path / "data", 2, monkeypatch, capfd)
    # each side's rows too: the 4 test batches in 2 runs, the 12 training batches in 6
    assert outcomes == [(0, [])] * 4
    assert passes == [(8, 2, 2), (2, 2, 2), (6, 2, 2), (8, 2, 2)]
    assert [path.read_bytes() for path in scored_files(copy)] == expected


def test_ordered_results_inside_a_child_runs_its_jobs_in_that_child():
    def inner_pids(_):
        with forkpool.ordered_results(os.getpid, [(), ()], 2) as pids:
            return os.getpid(), list(pids)

    with forkpool.ordered_results(inner_pids, [(0,), (1,)], 2) as results:
        for child, pids in results:
            assert child != os.getpid() and pids == [child, child]
    assert_no_child_processes()


# ---------------------------------------------------------------------------
# importance

def test_importance_exports_one_ranked_row_per_class_and_feature(
        small_dataset_dir, tiny_config, tmp_path):
    out = tmp_path / "run"
    assert train_small(small_dataset_dir, tiny_config, out) == 0
    table = tmp_path / "importance.csv"
    assert main(["importance", "--checkpoint", str(out / "checkpoint.cmpn"),
                 "--data", str(small_dataset_dir), "--out", str(table)]) == 0

    lines = table.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "class,feature_index,mean_abs_weight,rank"
    assert len(lines) == 1 + 2 * 16
    for cls in ("0", "1"):
        rows = [l.split(",") for l in lines[1:] if l.split(",")[0] == cls]
        assert [int(r[1]) for r in rows] == list(range(16))
        assert sorted(int(r[3]) for r in rows) == list(range(16))
        assert all(float(r[2]) >= 0.0 for r in rows)


def test_importance_needs_a_weight_matrix_model(
        small_dataset_dir, tiny_config, tmp_path):
    out = tmp_path / "img_only"
    assert train_small(small_dataset_dir, tiny_config, out,
                       model="image_only") == 0
    for data in (small_dataset_dir, tmp_path / "missing"):  # refused before the dataset
        assert main(["importance", "--checkpoint", str(out / "checkpoint.cmpn"),
                     "--data", str(data), "--out", str(tmp_path / "imp.csv")]) == 2


def test_importance_into_a_directory_ends_in_exit_3_and_leaves_no_temporary(
        trained_run, small_dataset_dir, tmp_path, capsys):
    (tmp_path / "table").mkdir()
    capsys.readouterr()
    assert main(["importance", "--checkpoint", str(trained_run / "checkpoint.cmpn"),
                 "--data", str(small_dataset_dir), "--out", str(tmp_path / "table")]) == 3
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert [p.name for p in tmp_path.iterdir()] == ["table"]
    assert not any((tmp_path / "table").iterdir())


# ---------------------------------------------------------------------------
# every JSON input at the boundary

CONFIG_FIELDS = [(section, f.name) for section, cls in (
    ("model", cn.ModelConfig), ("train", cn.TrainConfig), ("split", SplitSettings))
    for f in fields(cls)]
# ``...`` drops the field; the rest replace it.
MUTATED_VALUES = st.one_of(
    st.just(...), st.booleans(), st.none(), st.text(max_size=4),
    st.floats(-100, 100).filter(lambda x: not x.is_integer()),
    st.lists(st.integers(0, 4), max_size=3))


def mutate(obj, key, value):
    if value is ...:
        obj.pop(key, None)
    else:
        obj[key] = value
    return obj


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), value=MUTATED_VALUES)
def test_a_mutated_json_input_ends_in_an_exit_code(
        trained_run, small_dataset_dir, data, value):
    # One field of a spec, a config, a checkpoint header (top level,
    # model_config or split settings), a manifest or a normalizer is dropped
    # or replaced; no input may end in a traceback.
    target = data.draw(st.sampled_from(["spec", "config", "header", "model_config",
                                        "split", "manifest", "normalizer"]))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if target == "spec":
            key = data.draw(st.sampled_from([f.name for f in fields(cn.SynthSpec)]))
            spec = mutate({"n_samples": 40, "image_shape": [1, 8, 8]}, key, value)
            argv = ["generate", "--spec", write_json(tmp / "spec.json", spec),
                    "--out", str(tmp / "ds")]
        elif target == "config":
            section, key = data.draw(st.sampled_from(CONFIG_FIELDS))
            config = copy.deepcopy(TINY_CLI_CONFIG)
            mutate(config[section], key, value)
            argv = ["train", "--config", write_json(tmp / "config.json", config),
                    "--data", str(small_dataset_dir), "--model", "compnet",
                    "--out", str(tmp / "run"), "--epochs", "1"]
        elif target == "header":
            key = data.draw(st.sampled_from(["epoch", "params", "extra", "train_config"]))
            ckpt = copy_with_header(trained_run, tmp / "run",
                                    lambda header: mutate(header, key, value))
            argv = ["eval", "--checkpoint", str(ckpt), "--data", str(small_dataset_dir)]
        elif target == "normalizer":
            shutil.copytree(trained_run, tmp / "run")
            norm_path = tmp / "run" / "normalizer.json"
            norm = json.loads(norm_path.read_text(encoding="utf-8"))
            key = data.draw(st.sampled_from(sorted(norm)))
            write_json(norm_path, mutate(norm, key, value))
            argv = ["eval", "--checkpoint", str(tmp / "run" / "checkpoint.cmpn"),
                    "--data", str(small_dataset_dir)]
        elif target in ("model_config", "split"):
            cls = cn.ModelConfig if target == "model_config" else SplitSettings
            key = data.draw(st.sampled_from([f.name for f in fields(cls)]))

            def edit(header):
                mutate(header["model_config"] if cls is cn.ModelConfig
                       else header["extra"]["split"], key, value)
                return header
            ckpt = copy_with_header(trained_run, tmp / "run", edit)
            argv = ["eval", "--checkpoint", str(ckpt), "--data", str(small_dataset_dir)]
        else:
            shutil.copytree(small_dataset_dir, tmp / "ds")
            manifest = json.loads((tmp / "ds" / "manifest.json").read_text(encoding="utf-8"))
            key = data.draw(st.sampled_from(sorted(manifest)))
            write_json(tmp / "ds" / "manifest.json", mutate(manifest, key, value))
            argv = ["importance", "--checkpoint", str(trained_run / "checkpoint.cmpn"),
                    "--data", str(tmp / "ds"), "--out", str(tmp / "imp.csv")]
        assert main(argv) in (0, 2, 3, 4)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), cell=CSV_CELLS)
def test_a_mutated_csv_cell_ends_in_an_exit_code(
        trained_run, small_dataset_dir, data, cell):
    # A features cell either parses to a finite double or is a format
    # error; a labels cell may also parse to a label outside the classes.
    name, allowed = data.draw(st.sampled_from([("features.csv", (0, 3)),
                                               ("labels.csv", (0, 2, 3))]))
    with tempfile.TemporaryDirectory() as tmp:
        ds = shutil.copytree(small_dataset_dir, Path(tmp) / "ds")
        lines = (ds / name).read_text(encoding="utf-8").split("\n")
        row = data.draw(st.integers(1, len(lines) - 2))  # a body row
        cells = lines[row].split(",")
        cells[data.draw(st.integers(1, len(cells) - 1))] = cell
        lines[row] = ",".join(cells)
        (ds / name).write_text("\n".join(lines), encoding="utf-8")
        assert main(["importance", "--checkpoint", str(trained_run / "checkpoint.cmpn"),
                     "--data", str(ds), "--out", str(Path(tmp) / "imp.csv")]) in allowed


def with_ff_byte(raw):
    return raw[:1] + b"\xff" + raw[1:]


def with_huge_integer(raw):
    # Past Python's 4,300-digit limit for parsing an integer.
    return b'{"huge": ' + b"1" * 5000 + b", " + raw[1:]


def with_oversize_field(raw):
    # A row past the manifest's count, and a 140,000-character cell.
    return raw + b"s9," + b"1" * 140_000 + b"\n"


# Files that parse, holding values the dataset refuses.
def with_nan_first_pixel(raw):
    return struct.pack("<d", float("nan")) + raw[8:]


def with_inf_last_pixel(raw):
    return raw[:-8] + struct.pack("<d", float("-inf"))


def with_one_class(raw):
    return json.dumps({**json.loads(raw), "n_classes": 1}).encode("utf-8")


def with_label_out_of_range(raw):
    header, first, rest = raw.split(b"\n", 2)
    return b"\n".join([header, first.rsplit(b",", 1)[0] + b",2", rest])


def with_label_past_int64(raw):
    header, first, rest = raw.split(b"\n", 2)
    return b"\n".join([header, first.rsplit(b",", 1)[0] + b",99999999999999999999", rest])


def with_tiny_std(raw):
    # (x - mean) / std overflows the double range.
    norm = json.loads(raw)
    norm["std"][0], norm["mean"][0] = 1e-300, -1e10
    return json.dumps(norm).encode("utf-8")


def with_zero_std(raw):
    norm = json.loads(raw)
    norm["std"][0], norm["constant_mask"][0] = 0.0, False
    return json.dumps(norm).encode("utf-8")


def with_version_2(raw):
    return raw[:4] + struct.pack("<I", 2) + raw[8:]


def with_header_past_the_end(raw):
    return raw[:8] + struct.pack("<Q", len(raw)) + raw[16:]


def with_format_version_2(raw):
    return json.dumps({**json.loads(raw), "format_version": 2}).encode("utf-8")


def with_n_features_past_the_file(raw):
    # Refused on the header line's field count, before a header is built.
    return json.dumps({**json.loads(raw), "n_features": 10**18}).encode("utf-8")


def with_empty_image_shape(raw):
    manifest = json.loads(raw)
    shape = [0, *manifest["image_shape"][1:]]
    return json.dumps({**manifest, "image_shape": shape}).encode("utf-8")


def with_unknown_key(raw):
    return json.dumps({**json.loads(raw), "unknown": 1}).encode("utf-8")


def with_features_outside_the_directory(raw):
    manifest = json.loads(raw)
    manifest["files"]["features"] = "../ds/features.csv"
    return json.dumps(manifest).encode("utf-8")


def with_model_number(raw):
    return json.dumps({**json.loads(raw), "model": 5}).encode("utf-8")


def with_other_image_shape(raw):
    config = json.loads(raw)
    config["model"]["image_shape"] = [1, 8, 8]  # the dataset's images are 1x12x12
    return json.dumps(config).encode("utf-8")


RAW_INPUTS = {  # input -> (its file in the case directory, exit code)
    "config": ("config.json", 2), "spec": ("spec.json", 2),
    "manifest": ("ds/manifest.json", 3), "features": ("ds/features.csv", 3),
    "labels": ("ds/labels.csv", 3), "images": ("ds/images.bin", 3),
    "header": ("run/checkpoint.cmpn", 3), "checkpoint": ("run/checkpoint.cmpn", 3),
    "normalizer": ("run/normalizer.json", 3),
    "normalizer-values": ("run/normalizer.json", 2),
}


@pytest.mark.parametrize("target,corrupt", [
    *((t, c) for t in ("config", "spec", "manifest", "header", "normalizer")
      for c in (with_ff_byte, with_huge_integer)),
    *((t, c) for t in ("features", "labels") for c in (with_ff_byte, with_oversize_field)),
    ("images", with_nan_first_pixel), ("images", with_inf_last_pixel),
    ("manifest", with_one_class), ("labels", with_label_out_of_range),
    ("labels", with_label_past_int64),
    ("normalizer-values", with_tiny_std), ("normalizer-values", with_zero_std),
    ("checkpoint", with_version_2), ("checkpoint", with_header_past_the_end),
    ("manifest", with_format_version_2), ("manifest", with_empty_image_shape),
    ("manifest", with_n_features_past_the_file),
    ("manifest", with_unknown_key), ("normalizer", with_unknown_key),
    ("manifest", with_features_outside_the_directory),
    ("config", with_model_number), ("config", with_other_image_shape)])
def test_a_corrupt_input_file_ends_in_its_exit_code_and_one_error_line(
        trained_run, small_dataset_dir, tmp_path, capsys, target, corrupt):
    shutil.copytree(trained_run, tmp_path / "run")
    shutil.copytree(small_dataset_dir, tmp_path / "ds")
    write_json(tmp_path / "config.json", TINY_CLI_CONFIG)
    write_json(tmp_path / "spec.json", {"n_samples": 40, "image_shape": [1, 8, 8]})
    name, code = RAW_INPUTS[target]
    if target == "header":
        rewrite_header_bytes(tmp_path / name, corrupt)
    else:
        (tmp_path / name).write_bytes(corrupt((tmp_path / name).read_bytes()))
    argv = {
        "config": ["train", "--config", str(tmp_path / "config.json"), "--data",
                   str(tmp_path / "ds"), "--model", "compnet", "--out", str(tmp_path / "out")],
        "spec": ["generate", "--spec", str(tmp_path / "spec.json"),
                 "--out", str(tmp_path / "out")],
    }.get(target, ["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.cmpn"),
                   "--data", str(tmp_path / "ds")])
    capsys.readouterr()
    assert main(argv) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


NOT_REGULAR_INPUTS = {  # case -> (exit code, what the error line calls the file)
    "images": (3, "images file"), "features": (3, "features file"),
    "labels": (3, "labels file"), "config": (2, "config file"), "spec": (2, "spec file"),
    "checkpoint": (3, "checkpoint"), "data": (3, "manifest"), "normalizer": (2, "normalizer"),
    "manifest": (3, "manifest"), "checkpoint-null": (3, "checkpoint"),
    "config-null": (2, "config file"), "checkpoint-directory": (3, "checkpoint"),
}


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
@pytest.mark.parametrize("case", list(NOT_REGULAR_INPUTS))
def test_an_input_that_is_not_a_regular_file_ends_in_its_exit_code_and_one_error_line(
        trained_run, small_dataset_dir, tiny_config, tmp_path, case):
    # A FIFO case names a FIFO without a writer, whose open would block, so
    # the command runs in a child interpreter whose timeout fails the test
    # instead of hanging the suite.  Never /dev/zero: a read of it never ends.
    code, what = NOT_REGULAR_INPUTS[case]
    run = shutil.copytree(trained_run, tmp_path / "run")
    data = shutil.copytree(small_dataset_dir, tmp_path / "ds")
    path = {"images": data / "fifo", "features": data / "fifo", "labels": data / "fifo",
            "normalizer": run / "normalizer.json", "manifest": data / "manifest.json",
            "checkpoint-null": Path(os.devnull), "config-null": Path(os.devnull),
            "checkpoint-directory": run}.get(case, tmp_path / "fifo")
    if case in ("images", "features", "labels"):
        manifest = json.loads((data / "manifest.json").read_text(encoding="utf-8"))
        manifest["files"][case] = "fifo"
        write_json(data / "manifest.json", manifest)
    if not case.endswith(("-null", "-directory")):
        path.unlink(missing_ok=True)
        os.mkfifo(path)
    if what == "spec file":
        argv = ["generate", "--spec", str(path), "--out", str(tmp_path / "out")]
    elif what in ("checkpoint", "normalizer"):
        checkpoint = run / "checkpoint.cmpn" if case == "normalizer" else path
        argv = ["eval", "--checkpoint", str(checkpoint), "--data", str(data)]
    else:
        argv = ["train", "--config", str(path) if what == "config file" else tiny_config,
                "--data", str(path if case == "data" else data), "--model", "compnet",
                "--out", str(tmp_path / "out")]
    env = {**os.environ, "PYTHONPATH": str(Path(cn.__file__).resolve().parent.parent)}
    proc = subprocess.run([sys.executable, "-c",
                           f"import compnet.cli, sys; sys.exit(compnet.cli.main({argv!r}))"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == code
    assert proc.stderr.splitlines() == [f"error: {what} is not a regular file: {path}"]


@pytest.mark.parametrize("name,key,record", [
    ("ds/manifest.json", "n_samples", "Manifest"),
    ("run/normalizer.json", "std", "Normalizer")])
def test_a_record_missing_a_required_key_names_the_key(
        trained_run, small_dataset_dir, tmp_path, capsys, name, key, record):
    shutil.copytree(trained_run, tmp_path / "run")
    shutil.copytree(small_dataset_dir, tmp_path / "ds")
    payload = json.loads((tmp_path / name).read_text(encoding="utf-8"))
    del payload[key]
    write_json(tmp_path / name, payload)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.cmpn"),
                 "--data", str(tmp_path / "ds")]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") \
        and lines[0].endswith(f"missing {record} keys: [{key!r}]"), lines


def test_a_malformed_normalizer_json_ends_in_exit_3_and_one_error_line(
        trained_run, small_dataset_dir, tmp_path, capsys):
    # A Normalizer's ConfigError is a corrupt normalizer.json at eval.
    run = shutil.copytree(trained_run, tmp_path / "run")
    (run / "metrics.json").unlink(missing_ok=True)
    for payload in MALFORMED_NORMALIZERS:
        write_json(run / "normalizer.json", payload)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(run / "checkpoint.cmpn"),
                     "--data", str(small_dataset_dir)]) == 3, payload
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (payload, lines)
    assert not (run / "metrics.json").exists()


@pytest.mark.parametrize("case,message", [
    ("missing-config", "config file not found"),
    ("missing-spec", "spec file not found"),
    ("config-directory", "config file is not a regular file"),
    ("spec-directory", "spec file is not a regular file"),
    ("no-seeds", "--seeds needs at least one seed"),
    ("no-conv-filters", "conv_filters must not be empty"),
    ("leaky-slope", "leaky_slope must be in (0, 1)"),
    ("pixel-noise", "pixel_noise must be >= 0"),
    ("one-balance-entry", "class_balance needs 2 entries"),
    ("balance-sum", "class_balance must be positive and sum to 1"),
    ("one-sample-class", "stratified split needs >= 2 samples per class"),
    ("short-normalizer", "normalizer fitted on 15 features"),
    ("dense-past-numpy", "past NumPy's limit"),
    ("samples-past-numpy", "past NumPy's limit"),
    ("features-past-numpy", "past NumPy's limit"),
    ("image-past-numpy", "past NumPy's limit")])
def test_a_rejected_setting_ends_in_exit_2_and_one_error_line(
        small_dataset, small_dataset_dir, trained_run, tmp_path, capsys, case, message):
    def train(ds=small_dataset_dir, **model):
        config = copy.deepcopy(TINY_CLI_CONFIG)
        config["model"].update(model)
        return ["train", "--config", write_json(tmp_path / "config.json", config),
                "--data", str(ds), "--model", "compnet", "--out", str(tmp_path / "out")]

    def generate(**spec):
        return ["generate", "--spec", write_json(tmp_path / "spec.json", {"n_samples": 40, **spec}),
                "--out", str(tmp_path / "out")]

    if case == "one-sample-class":
        labels = small_dataset.labels.tolist()
        keep = [i for i, y in enumerate(labels) if y == 0] + [labels.index(1)]
        cn.save_dataset(small_dataset.subset(keep), tmp_path / "ds")
    if case == "short-normalizer":
        run = shutil.copytree(trained_run, tmp_path / "run")
        norm = json.loads((run / "normalizer.json").read_text(encoding="utf-8"))
        write_json(run / "normalizer.json", {key: values[:-1] for key, values in norm.items()})
    argv = {
        "missing-config": lambda: ["train", "--config", str(tmp_path / "missing.json"),
                                   "--data", str(small_dataset_dir), "--model", "compnet",
                                   "--out", str(tmp_path / "out")],
        "missing-spec": lambda: ["generate", "--spec", str(tmp_path / "missing.json"),
                                 "--out", str(tmp_path / "out")],
        "config-directory": lambda: ["train", "--config", str(tmp_path), "--data",
                                     str(small_dataset_dir), "--model", "compnet",
                                     "--out", str(tmp_path / "out")],
        "spec-directory": lambda: ["generate", "--spec", str(tmp_path),
                                   "--out", str(tmp_path / "out")],
        "no-seeds": lambda: ["compare", "--data", str(small_dataset_dir), "--models",
                             "compnet,concat", "--seeds", ",", "--out", str(tmp_path / "out")],
        "no-conv-filters": lambda: train(conv_filters=[]),
        "leaky-slope": lambda: train(leaky_slope=1.5),
        "dense-past-numpy": lambda: train(dense_hidden=[10**18]),
        "samples-past-numpy": lambda: generate(n_samples=10**18),
        "features-past-numpy": lambda: generate(n_features=10**18),
        "image-past-numpy": lambda: generate(image_shape=[1, 10**12, 10**12]),
        "pixel-noise": lambda: generate(pixel_noise=-1),
        "one-balance-entry": lambda: generate(class_balance=[1.0]),
        "balance-sum": lambda: generate(class_balance=[0.3, 0.3]),
        "one-sample-class": lambda: train(ds=tmp_path / "ds"),
        "short-normalizer": lambda: ["eval", "--checkpoint",
                                     str(tmp_path / "run" / "checkpoint.cmpn"),
                                     "--data", str(small_dataset_dir)],
    }[case]()
    capsys.readouterr()
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0], lines


def overwrite_payload(ckpt, values):
    """Set float ``i`` (modulo the float count) of a checkpoint's payload to ``v``
    for each ``(i, v)``."""
    blob = ckpt.read_bytes()
    start = 16 + struct.unpack("<Q", blob[8:16])[0]
    floats = np.frombuffer(blob[start:], dtype="<f8").copy()
    for i, v in values:
        floats[i % floats.size] = v
    ckpt.write_bytes(blob[:start] + floats.tobytes())


def score_checkpoint(run, data_dir):
    """Run ``eval`` and ``importance`` on ``run``: per command, its exit code,
    its stderr lines and, on success, whether every number it wrote is finite."""
    outcomes = []
    for command, out in (("eval", run / "metrics.json"), ("importance", run / "imp.csv")):
        argv = ["--checkpoint", str(run / "checkpoint.cmpn"), "--data", str(data_dir)]
        if command == "importance":
            argv += ["--out", str(out)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, *argv])
        finite = None
        if code == 0:
            if command == "eval":
                numbers = json.loads(out.read_text(encoding="utf-8")).values()
            else:
                rows = out.read_text(encoding="utf-8").splitlines()[1:]
                numbers = [float(row.split(",")[2]) for row in rows]
            finite = all(math.isfinite(v) for v in numbers if not isinstance(v, str))
        outcomes.append((command, code, err.getvalue().splitlines(), finite))
    return outcomes


# conv0.kernels is the first payload array: 2 filters x 1 channel x 3 x 3.
CONV0_KERNELS, CONV0_BIAS = range(18), range(18, 20)


@pytest.mark.parametrize("values,code,message", [
    ([(0, float("nan"))], 3, "parameter conv0.kernels holds non-finite values"),
    ([(5, float("-inf"))], 3, "parameter conv0.kernels holds non-finite values"),
    ([(-1, float("inf"))], 3, "velocity out.bias holds non-finite values"),
    ([*((i, 1e308) for i in CONV0_KERNELS), *((i, 0.0) for i in CONV0_BIAS)], 4,
     {"eval": "cross_entropy received non-finite logits",
      "importance": "feature importance is not finite"})])
def test_a_checkpoint_that_cannot_score_ends_in_its_exit_code_and_one_error_line(
        trained_run, small_dataset_dir, tmp_path, values, code, message):
    run = shutil.copytree(trained_run, tmp_path / "run")
    overwrite_payload(run / "checkpoint.cmpn", values)
    for command, got, lines, _ in score_checkpoint(run, small_dataset_dir):
        want = message[command] if isinstance(message, dict) else message
        assert got == code, command
        assert len(lines) == 1 and lines[0].startswith("error: ") and want in lines[0], lines


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_checkpoint_with_overwritten_payload_floats_scores_finite_or_fails_cleanly(
        trained_run, small_dataset_dir, data):
    values = data.draw(st.lists(
        st.tuples(st.integers(0, 1 << 16),
                  st.sampled_from([float("nan"), float("inf"), float("-inf"), 1e308, -1e308])),
        min_size=1, max_size=8))
    with tempfile.TemporaryDirectory() as tmp:
        run = shutil.copytree(trained_run, Path(tmp) / "run")
        overwrite_payload(run / "checkpoint.cmpn", values)
        for command, code, lines, finite in score_checkpoint(run, small_dataset_dir):
            if code == 0:
                assert finite and not lines, (command, lines)
            else:
                assert code in (3, 4), command
                assert len(lines) == 1 and lines[0].startswith("error: "), lines


@pytest.mark.parametrize("command", ["eval", "importance", "train"])
def test_a_dataset_with_no_samples_is_a_usage_error_with_one_error_line(
        small_dataset, trained_run, tmp_path, capsys, command):
    empty = tmp_path / "empty"
    cn.save_dataset(small_dataset.subset([]), empty)
    argv = {
        "eval": ["eval", "--checkpoint", str(trained_run / "checkpoint.cmpn"),
                 "--data", str(empty), "--split", "all"],
        "importance": ["importance", "--checkpoint", str(trained_run / "checkpoint.cmpn"),
                       "--data", str(empty), "--out", str(tmp_path / "imp.csv")],
        "train": ["train", "--config", write_json(tmp_path / "config.json", TINY_CLI_CONFIG),
                  "--data", str(empty), "--model", "compnet", "--out", str(tmp_path / "out")],
    }[command]
    capsys.readouterr()
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
