"""End-to-end command-line runs: artifact contents, determinism, exit codes."""

import copy
import hashlib
import json
import shutil
import struct

import pytest

import compnet as cn
from compnet import cli
from compnet.cli import main
from conftest import TINY_CLI_CONFIG


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


def test_generate_writes_the_recorded_dataset_bytes(tmp_path):
    # Pins the on-disk format and the generator: any change to either
    # changes at least one of these digests.
    assert main(["generate", "--out", str(tmp_path), "--seed", "4",
                 "--n-samples", "400"]) == 0
    expected = {
        "manifest.json": "d6e5b9d896dd65d59457ea8a13d28a570f5fd8ffcee1683c92cf5e3fc347ef79",
        "images.bin": "5a9554770f0df981c11a689b44e86a8e9d885dd42087308a92117681cc2879b9",
        "features.csv": "2fa7e4bcb8a54c5d26b919256a20830e912d9cd239cd29d96d0b6b8d53915571",
        "labels.csv": "8134f38d1341525a305b1cd3fb333b08554f74a99ac305e728e3b6eeafa51ea3",
    }
    for name, digest in expected.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def test_generate_rejects_bad_spec_file(tmp_path):
    bad = tmp_path / "spec.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["generate", "--spec", str(bad), "--out",
                 str(tmp_path / "ds")]) == 2
    unknown = write_json(tmp_path / "spec2.json", {"bogus_knob": 1})
    assert main(["generate", "--spec", unknown, "--out",
                 str(tmp_path / "ds")]) == 2


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

    header = cn.read_checkpoint_header(out / "checkpoint.cmpn")
    assert header["epoch"] == TINY_CLI_CONFIG["train"]["epochs"]
    assert header["extra"]["split"]["train_fraction"] == 0.75
    assert header["model_config"]["fusion_kind"] == "compnet"


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


def test_train_writes_the_recorded_artifact_bytes(tmp_path):
    # Pins the numerics of the whole training path (kernels, optimizer,
    # history and checkpoint writers) on the dataset pinned above.
    data = tmp_path / "ds"
    assert main(["generate", "--out", str(data), "--seed", "4",
                 "--n-samples", "400"]) == 0
    config = write_json(tmp_path / "config.json", {
        "model": {"conv_filters": [2], "kernel_size": 5, "dense_hidden": [3, 2]},
        "train": {"epochs": 3, "batch_size": 64, "learning_rate": 0.012,
                  "eval_every": 2},
        "split": {"train_fraction": 0.75, "stratified": True}})
    out = tmp_path / "run"
    assert train_small(data, config, out) == 0
    expected = {
        "history.csv": "be4a2b224202ab435cbb385c2bda0e43474a1524d46601d9d672d3806420b446",
        "checkpoint.cmpn": "2b9c7f264b7b94b5769c3f9a95296da66807f750da030d76fa977edb7c1e7735",
    }
    for name, digest in expected.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name


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
], ids=["filters-text", "kernel-bool", "model-seed-text", "model-seed-negative",
        "train-seed-negative", "split-seed-negative"])
def test_train_rejects_bad_config_values(small_dataset_dir, tmp_path, section, override):
    config = copy.deepcopy(TINY_CLI_CONFIG)
    config[section].update(override)
    path = write_json(tmp_path / "bad.json", config)
    assert train_small(small_dataset_dir, path, tmp_path / "run") == 2


def test_missing_dataset_is_an_io_error(tiny_config, tmp_path):
    assert train_small(tmp_path / "nowhere", tiny_config, tmp_path / "run") == 3


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
    assert main(["eval", "--checkpoint", str(out / "checkpoint.cmpn"),
                 "--data", str(small_dataset_dir)]) == 2


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


def copy_with_header(run_dir, dst, edit):
    """Copy a training run, rewriting its checkpoint header through ``edit``."""
    shutil.copytree(run_dir, dst)
    blob = (dst / "checkpoint.cmpn").read_bytes()
    n = struct.unpack("<Q", blob[8:16])[0]
    header = json.dumps(edit(json.loads(blob[16:16 + n]))).encode("utf-8")
    (dst / "checkpoint.cmpn").write_bytes(
        blob[:8] + struct.pack("<Q", len(header)) + header + blob[16 + n:])
    return dst / "checkpoint.cmpn"


@pytest.mark.parametrize("edit", [
    lambda h: 5,
    lambda h: {**h, "params": 5},
    lambda h: {**h, "params": [{"name": p["name"]} for p in h["params"]]},
    lambda h: {**h, "epoch": "x"},
    lambda h: {**h, "extra": [1]},
    lambda h: {**h, "model_config": 5},
], ids=["number", "params-number", "params-without-shape", "epoch-text",
        "extra-list", "model_config-number"])
def test_malformed_checkpoint_header_is_a_format_error(
        trained_run, small_dataset_dir, tmp_path, edit):
    ckpt = copy_with_header(trained_run, tmp_path / "run", edit)
    assert main(["eval", "--checkpoint", str(ckpt),
                 "--data", str(small_dataset_dir)]) == 3
    assert main(["importance", "--checkpoint", str(ckpt), "--data",
                 str(small_dataset_dir), "--out", str(tmp_path / "imp.csv")]) == 3


@pytest.mark.parametrize("override", [
    {"conv_filters": ["x"]}, {"seed": "x"}, {"kernel_size": True}],
    ids=["filters-text", "seed-text", "kernel-bool"])
def test_invalid_checkpoint_model_config_is_a_format_error(
        trained_run, small_dataset_dir, tmp_path, override):
    ckpt = copy_with_header(
        trained_run, tmp_path / "run",
        lambda h: {**h, "model_config": {**h["model_config"], **override}})
    assert main(["eval", "--checkpoint", str(ckpt),
                 "--data", str(small_dataset_dir)]) == 3
    assert main(["importance", "--checkpoint", str(ckpt), "--data",
                 str(small_dataset_dir), "--out", str(tmp_path / "imp.csv")]) == 3


def test_eval_rejects_a_negative_checkpoint_split_seed(
        trained_run, small_dataset_dir, tmp_path):
    ckpt = copy_with_header(
        trained_run, tmp_path / "run",
        lambda h: {**h, "extra": {**h["extra"],
                                  "split": {**h["extra"]["split"], "seed": -1}}})
    assert main(["eval", "--checkpoint", str(ckpt), "--data",
                 str(small_dataset_dir), "--split", "test"]) == 3


def test_eval_rejects_a_normalizer_file_that_is_not_a_name(
        trained_run, small_dataset_dir, tmp_path):
    ckpt = copy_with_header(
        trained_run, tmp_path / "run",
        lambda h: {**h, "extra": {**h["extra"], "normalizer_file": 5}})
    assert main(["eval", "--checkpoint", str(ckpt),
                 "--data", str(small_dataset_dir)]) == 3


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
    calls = []

    def fail_second_run(*args):
        calls.append(1)
        if len(calls) == 2:
            raise cn.NumericError("loss diverged")
        return real_run(*args)

    monkeypatch.setattr(cli, "run_training", fail_second_run)
    out = tmp_path / "cmp"
    assert main(["compare", "--config", compare_config(tmp_path),
                 "--data", str(small_dataset_dir), "--models", "compnet,concat",
                 "--seeds", "1", "--out", str(out)]) == 4
    lines = (out / "compare.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "model,seed,train_acc,test_acc,gap"
    assert [l.split(",")[:2] for l in lines[1:]] == [["compnet", "1"]]


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
    assert main(["importance", "--checkpoint", str(out / "checkpoint.cmpn"),
                 "--data", str(small_dataset_dir),
                 "--out", str(tmp_path / "imp.csv")]) == 2
