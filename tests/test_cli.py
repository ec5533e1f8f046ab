"""End-to-end command-line runs: artifact contents, determinism, exit codes."""

import copy
import json

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
