"""The benchmark's workloads: what each runs, and how its outputs are checked.

Each workload sets up its inputs from the workload seed through the CLI
(``compnet generate``, plus a short ``compnet train`` for ``score``), then
one repetition runs its CLI commands into a fresh output directory.
``check`` reads what the commands wrote and returns the problems it found,
the accuracy the user would read, and the number of samples processed.

Why these two (see README.md for the layer map and the dropped ``fit``):

* ``score``: forward-only B=256 scoring of a large set, with no tape and
  no backward, where loading and z-scoring the dataset are a large share.
  Training-step changes should leave it unchanged.
* ``compare``: training (B=64 tape, forward/backward, SGD and per-epoch
  re-scoring of the training set at B=256) for all three variants, so it
  is the only workload that runs the ``concat`` and ``image_only`` paths
  and ``run_comparison``'s independent runs.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# The acceptance suite's model and optimiser settings (tests/conftest.py).
_MODEL = {"conv_filters": [2], "kernel_size": 5, "dense_hidden": [1]}
_TRAIN = {"batch_size": 64, "learning_rate": 0.012, "eval_every": 6}
_SPLIT = {"train_fraction": 0.75, "stratified": True}
_KINDS = ("compnet", "image_only", "concat")
_COMPARE_SEEDS = "1,2"
# The generator's defaults (compnet.data.SynthSpec): features 0-7 carry signal.
_N_FEATURES, _N_INFORMATIVE, _N_CLASSES = 16, 8, 2

# Sizes per workload.  "full" is what BENCHMARK.json measures; "tiny" only
# exercises the harness in the smoke test.
SIZES = {
    "full": {"score": (16000, 2000, 2), "compare": (1000, 8), "min_gain_pts": 5.0},
    "tiny": {"score": (300, 120, 1), "compare": (120, 1), "min_gain_pts": None},
}

RunCli = Callable[[list[str]], int]


@dataclass
class Outcome:
    problems: list[str]
    test_acc: float
    samples: int
    info: dict


def _n_train(n: int) -> int:
    """Training-split size for ``n`` samples, as ``data.split`` computes it."""
    return int(_SPLIT["train_fraction"] * n + 0.5)


def _write_config(path: Path, epochs: int) -> Path:
    config = {"model": _MODEL, "train": {**_TRAIN, "epochs": epochs}, "split": _SPLIT}
    path.write_text(json.dumps(config, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _generate(run: RunCli, out: Path, seed: int, n: int) -> None:
    code = run(["generate", "--out", str(out), "--seed", str(seed), "--n-samples", str(n)])
    if code != 0:
        raise RuntimeError(f"set-up: compnet generate exited {code}")


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class Score:
    name = "score"

    def __init__(self, size: dict):
        self.n, self.n_ckpt, self.ckpt_epochs = size["score"]

    def setup(self, run: RunCli, work: Path, seed: int) -> None:
        self.data = work / "data"
        _generate(run, self.data, seed, self.n)
        ckpt_data = work / "ckpt_data"
        # A separate set, so the checkpoint never trained on what it scores.
        _generate(run, ckpt_data, seed + 1_000_003, self.n_ckpt)
        config = _write_config(work / "config.json", self.ckpt_epochs)
        self.ckpt_dir = work / "ckpt"
        code = run(["train", "--config", str(config), "--data", str(ckpt_data),
                    "--model", "compnet", "--out", str(self.ckpt_dir)])
        if code != 0:
            raise RuntimeError(f"set-up: compnet train exited {code}")
        self.checkpoint = self.ckpt_dir / "checkpoint.cmpn"

    def commands(self, out: Path) -> list[list[str]]:
        return [["eval", "--checkpoint", str(self.checkpoint), "--data", str(self.data),
                 "--split", "all"],
                ["importance", "--checkpoint", str(self.checkpoint),
                 "--data", str(self.data), "--out", str(out / "importance.csv")]]

    def outputs(self, out: Path) -> list[Path]:
        # ``eval`` writes metrics.json beside the checkpoint.
        return [self.ckpt_dir / "metrics.json", out / "importance.csv"]

    def check(self, out: Path) -> Outcome:
        metrics = json.loads((self.ckpt_dir / "metrics.json").read_text(encoding="utf-8"))
        problems = []
        if metrics.get("n") != self.n:
            problems.append(f"metrics.json n = {metrics.get('n')}, expected {self.n}")
        acc = float(metrics.get("accuracy", 0.0))
        if not 0.0 < acc <= 1.0:
            problems.append(f"metrics.json accuracy {acc} outside (0, 1]")
        rows = _csv_rows(out / "importance.csv")
        if len(rows) != _N_CLASSES * _N_FEATURES:
            problems.append(f"importance.csv has {len(rows)} rows")
            return Outcome(problems, acc, 2 * self.n, {})
        info = {}
        for k in range(_N_CLASSES):
            mine = [r for r in rows if int(r["class"]) == k]
            weight = [float(r["mean_abs_weight"]) for r in mine]
            rank = [int(r["rank"]) for r in mine]
            expected = sorted(range(_N_FEATURES), key=lambda j: (-weight[j], j))
            if [rank.index(i) for i in range(_N_FEATURES)] != expected:
                problems.append(f"class {k}: ranks do not order mean_abs_weight")
            informative = sum(rank[:_N_INFORMATIVE]) / _N_INFORMATIVE
            nuisance = sum(rank[_N_INFORMATIVE:]) / (_N_FEATURES - _N_INFORMATIVE)
            info[f"class{k}_top_feature"] = rank.index(0)
            info[f"class{k}_rank_margin"] = nuisance - informative
        return Outcome(problems, acc, 2 * self.n, info)


class Compare:
    name = "compare"

    def __init__(self, size: dict):
        self.n, self.epochs = size["compare"]
        self.min_gain = size["min_gain_pts"]

    def setup(self, run: RunCli, work: Path, seed: int) -> None:
        self.config = _write_config(work / "config.json", self.epochs)
        self.data = work / "data"
        _generate(run, self.data, seed, self.n)

    def commands(self, out: Path) -> list[list[str]]:
        return [["compare", "--config", str(self.config), "--data", str(self.data),
                 "--models", ",".join(_KINDS), "--seeds", _COMPARE_SEEDS,
                 "--out", str(out)]]

    def outputs(self, out: Path) -> list[Path]:
        return [out / "compare.csv"]

    def check(self, out: Path) -> Outcome:
        rows = _csv_rows(out / "compare.csv")
        runs = [r for r in rows if r["seed"] != "mean"]
        means = {r["model"]: float(r["test_acc"]) for r in rows if r["seed"] == "mean"}
        n_seeds = len(_COMPARE_SEEDS.split(","))
        problems = []
        if len(runs) != len(_KINDS) * n_seeds or sorted(means) != sorted(_KINDS):
            problems.append(f"compare.csv has {len(runs)} run rows and means for "
                            f"{sorted(means)}")
            return Outcome(problems, 0.0, 0, {})
        info = {f"gain_vs_{k}_pts": 100.0 * (means["compnet"] - means[k])
                for k in _KINDS if k != "compnet"}
        if self.min_gain is not None and info["gain_vs_image_only_pts"] < self.min_gain:
            problems.append(f"compnet beats image_only by "
                            f"{info['gain_vs_image_only_pts']:.2f} pts < {self.min_gain}")
        samples = _n_train(self.n) * self.epochs * len(runs)
        return Outcome(problems, means["compnet"], samples, info)


WORKLOADS = {w.name: w for w in (Score, Compare)}
