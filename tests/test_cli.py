"""End-to-end command-line runs: artifact contents, determinism, exit codes."""

import copy
import hashlib
import json
import os
import shutil
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path

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
    ("train", {"learning_rate": True}),
    ("train", {"momentum": False}),
    ("train", {"learning_rate": float("nan")}),
    ("split", {"stratified": "false"}),
    ("train", {"shuffle": "false"}),
    ("train", {"patience": True}),
    ("train", {"patience": 2.5}),
], ids=["filters-text", "kernel-bool", "model-seed-text", "model-seed-negative",
        "train-seed-negative", "split-seed-negative", "learning-rate-bool",
        "momentum-bool", "learning-rate-nan", "stratified-text", "shuffle-text",
        "patience-bool", "patience-float"])
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


def test_diverging_train_prints_only_its_error_line(tmp_path):
    # NumPy's overflow warnings used to reach stderr ahead of the error.
    data = tmp_path / "ds"
    assert main(["generate", "--out", str(data), "--seed", "4",
                 "--n-samples", "400"]) == 0
    config = write_json(tmp_path / "config.json", {
        "model": {"conv_filters": [2], "kernel_size": 5, "dense_hidden": [3, 2]},
        "train": {"epochs": 3, "batch_size": 64, "learning_rate": 1e6},
        "split": {"train_fraction": 0.75, "stratified": True}})
    out = tmp_path / "run"
    env = {**os.environ, "PYTHONPATH": str(Path(cn.__file__).resolve().parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-m", "compnet.cli", "train", "--config", config,
         "--data", str(data), "--model", "compnet", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 4
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert not (out / "checkpoint.cmpn").exists()


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

    def fail_concat(ds, model_cfg, *args):
        # Decided by the run itself, so it holds in a worker process too.
        if model_cfg.fusion_kind == "concat":
            raise cn.NumericError("loss diverged")
        return real_run(ds, model_cfg, *args)

    monkeypatch.setattr(cli, "run_training", fail_concat)
    for jobs in (1, 2):
        monkeypatch.setattr(cli, "_default_jobs", lambda: jobs)
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


# ---------------------------------------------------------------------------
# compare on child processes

def assert_no_child_processes():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_compare_in_process_and_on_workers_give_the_same_bytes_and_parameters(
        small_dataset, small_dataset_dir, tmp_path, monkeypatch):
    cfg = compare_config(tmp_path)
    for jobs in (1, 2):
        monkeypatch.setattr(cli, "_default_jobs", lambda: jobs)
        assert main(["compare", "--config", cfg, "--data", str(small_dataset_dir),
                     "--models", "compnet,image_only,concat", "--seeds", "1,2",
                     "--out", str(tmp_path / str(jobs))]) == 0
    assert (tmp_path / "1" / "compare.csv").read_bytes() == \
           (tmp_path / "2" / "compare.csv").read_bytes()

    config = json.loads(Path(cfg).read_text(encoding="utf-8"))
    runs = []
    for jobs in (1, 2):
        monkeypatch.setattr(cli, "_default_jobs", lambda: jobs)
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

    monkeypatch.setattr(cli, "_default_jobs", lambda: 2)
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


def test_compare_fails_in_bounded_time_when_a_worker_dies(
        small_dataset_dir, tmp_path, monkeypatch):
    real_run = cli.run_training
    test_process = os.getpid()

    def die_on_concat(ds, model_cfg, *args):
        if model_cfg.fusion_kind == "concat" and os.getpid() != test_process:
            os.kill(os.getpid(), signal.SIGKILL)
        return real_run(ds, model_cfg, *args)

    def hung(signum, frame):
        pytest.fail("compare still waits for the run of a dead worker")

    monkeypatch.setattr(cli, "_default_jobs", lambda: 2)
    monkeypatch.setattr(cli, "run_training", die_on_concat)
    out = tmp_path / "cmp"
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        code = main(["compare", "--config", compare_config(tmp_path),
                     "--data", str(small_dataset_dir),
                     "--models", "compnet,concat,image_only", "--seeds", "1",
                     "--out", str(out)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 3
    lines = (out / "compare.csv").read_text(encoding="utf-8").splitlines()
    assert [l.split(",")[:2] for l in lines[1:]] == [["compnet", "1"]]
    assert_no_child_processes()


def test_compare_leaves_no_child_process_on_return_or_raise(
        small_dataset, tmp_path, monkeypatch):
    config = copy.deepcopy(TINY_CLI_CONFIG)
    config["train"]["epochs"] = 1
    kinds, seeds = ["compnet", "concat"], [1, 2]
    monkeypatch.setattr(cli, "_default_jobs", lambda: 2)
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
    monkeypatch.setattr(cli, "_default_jobs", lambda: jobs)
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
@pytest.mark.skipif(cli._default_jobs() < 2, reason="compare starts no worker on one CPU")
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
