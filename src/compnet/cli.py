"""Command-line interface: generate, train, eval, compare, importance.

Every command is reproducible and idempotent: outputs are pure
functions of the config file plus flags (flags win), and every artifact
is written atomically, so a rerun with identical inputs produces
byte-identical files.

Exit codes: 0 success; otherwise the ``exit_code`` of the error's class
(2 usage, configuration, or data errors; 3 file-format errors; 4 numeric
failures during training, a diverged run among them), and 3 for I/O errors
and for running out of memory, as for a ``compare`` child killed for memory.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from . import models as models_mod
from .config import DictConfig, require_min
from .data import (Dataset, Normalizer, SynthSpec, Tables, generate_synthetic, load_dataset,
                   map_images, read_input, read_json_object, read_tables, save_dataset,
                   split, write_atomic, zscore_apply, zscore_features, zscore_fit)
from .exceptions import CompnetError, ConfigError, FormatError, NonFiniteRow
from .models import FUSION_KINDS, Model, ModelConfig, build_model
from .train import (EpochRecord, Metrics, OptimState, TrainConfig, _evaluate_pathway,
                    checkpoint_load, checkpoint_save, epochs, evaluate, evaluate_train, fit,
                    init_optim_state)

# The commands score through _importance_report, on the pass they start before
# reading the tables; perfbench's tracer wraps this name, so it stays.
feature_importance = models_mod.feature_importance


# ---------------------------------------------------------------------------
# small shared helpers

def _fmt(v: float) -> str:
    return repr(float(v))


def _load_config_json(path, what: str) -> dict:
    """Read a user-supplied JSON config or spec; any fault in it is a config error."""
    return read_json_object(read_input(path, what, ConfigError), path, ConfigError)


@dataclass
class SplitSettings(DictConfig):
    train_fraction: float = 0.75
    seed: int = 0
    stratified: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        require_min(self, seed=0)
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(
                f"train_fraction must be in (0, 1), got {self.train_fraction}")


def _resolve_configs(config: Mapping, ds: Dataset, fusion_kind: str, *, seed: int | None = None,
                     epochs: int | None = None, split_seed: int | None = None
                     ) -> tuple[ModelConfig, TrainConfig, SplitSettings]:
    """A run's configs from a parsed config file, its dataset and the flags.

    ``seed`` overrides the model and shuffle seeds, ``epochs`` the epoch
    count and ``split_seed`` the split seed.  Shapes stated in the model
    section are checked like any field, then must match the dataset's.
    """
    sections = {name: config.get(name, {}) for name in ("model", "train", "split")}
    unknown = set(config) - set(sections)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    for name, section in sections.items():
        if not isinstance(section, dict):
            raise ConfigError(f"config section {name!r} must be an object")
    for name, key, value in (("model", "seed", seed), ("train", "seed", seed),
                             ("train", "epochs", epochs), ("split", "seed", split_seed)):
        if value is not None:  # a flag wins over the file
            sections[name] = {**sections[name], key: value}
    model = {"image_shape": ds.image_shape, "n_classes": ds.n_classes,
             "n_features": ds.n_features, **sections["model"], "fusion_kind": fusion_kind}
    if fusion_kind != "compnet":
        model.pop("learned_width", None)
    split_settings = SplitSettings.from_dict(sections["split"])
    model_cfg = ModelConfig.from_dict(model)
    for key in ("image_shape", "n_classes", "n_features"):
        got, value = getattr(model_cfg, key), getattr(ds, key)
        if got != value:
            raise ConfigError(f"config {key} = {got} does not match dataset {value}")
    return model_cfg, TrainConfig.from_dict(sections["train"]), split_settings


@dataclass
class RunResult:
    """Everything one training run leaves behind, before any file is written.

    ``history`` holds a record per epoch after ``train``, and only the
    final epoch's record after :func:`run_training`.
    """
    model: Model
    opt_state: OptimState
    history: list[EpochRecord]
    normalizer: Normalizer


def _start_run(ds: Dataset, model_cfg: ModelConfig, split_settings: SplitSettings
               ) -> tuple[RunResult, Dataset, Dataset]:
    """Split, normalize on the training side only, and build: a run with no
    history yet, and its normalized training and test splits."""
    train_ds, test_ds = split(ds, split_settings.train_fraction,
                              split_settings.seed, split_settings.stratified)
    norm = zscore_fit(train_ds)
    train_n = zscore_apply(norm, train_ds)
    test_n = zscore_apply(norm, test_ds)
    model = build_model(model_cfg)
    run = RunResult(model=model, opt_state=init_optim_state(model), history=[],
                    normalizer=norm)
    return run, train_n, test_n


def run_training(ds: Dataset, model_cfg: ModelConfig, train_cfg: TrainConfig,
                 split_settings: SplitSettings) -> RunResult:
    """One of ``compare``'s runs: train, then score the training split once, by
    :func:`evaluate_train`.

    The test split is evaluated on the ``eval_every`` cadence, which only
    ``patience`` reads, and at the last epoch.  ``history`` is the final
    epoch's record alone; it equals the last record ``train`` writes for
    the same configs, and the parameters and velocities are the same bytes.
    """
    run, train_n, test_n = _start_run(ds, model_cfg, split_settings)
    *_, (epoch, running, test_eval) = epochs(run.model, train_n, test_n, train_cfg,
                                             run.opt_state)
    train = evaluate_train(run.model, train_n, epoch)
    run.history.append(EpochRecord(epoch=epoch, train=train, running=running, test=test_eval))
    return run


def history_csv(history: list[EpochRecord]) -> str:
    lines = ["epoch,train_loss,train_acc,test_loss,test_acc"]
    for rec in history:
        test_loss = _fmt(rec.test.loss) if rec.test else ""
        test_acc = _fmt(rec.test.accuracy) if rec.test else ""
        lines.append(f"{rec.epoch},{_fmt(rec.train.loss)},{_fmt(rec.train.accuracy)},"
                     f"{test_loss},{test_acc}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# comparison engine (also exercised directly by the acceptance suite)

@dataclass
class ComparisonResult:
    """Per-run rows plus per-model means over seeds.

    ``rows`` hold dicts with keys model, seed, train_acc, test_acc, gap.
    ``means`` maps model kind to mean train_acc/test_acc/gap.
    ``improvements`` maps each non-compnet kind to compnet's mean test
    accuracy advantage in percentage points (present when compnet ran).
    ``results`` maps each (model kind, seed) to its run's trained model
    and the final epoch's record.
    """
    rows: list[dict]
    means: dict[str, dict[str, float]]
    improvements: dict[str, float]
    results: dict[tuple[str, int], RunResult]


def run_comparison(ds: Dataset, config: Mapping, model_kinds: Sequence[str],
                   seeds: Sequence[int],
                   on_row: Callable[[dict], None] | None = None) -> ComparisonResult:
    """Train every (model kind, seed) pair on identical splits.

    For each seed, the split, parameter initialization, and shuffle
    stream all derive from that seed, so every model kind sees exactly
    the same data partition and the comparison is paired.

    The runs are independent, so each trains in its own forked child
    process, two at a time (on a single CPU, one after another in this
    process).  Either way ``rows``, ``results`` and the ``on_row`` calls
    come in the serial order, seeds outer and kinds inner, and the first
    run in that order that fails raises its exception after ``on_row``
    has seen exactly the rows before it; its ``CompnetError``,
    ``MemoryError`` or dead child's ``ChildProcessError`` gains the run's
    kind and seed before its message and keeps its exit code.  No run
    starts once a failure has come in, and no child outlives the call.
    A ``ConfigError`` for repeated kinds or seeds, for an empty
    ``seeds``, or from any run's configs comes before any run.
    """
    kinds, seeds = list(model_kinds), [int(seed) for seed in seeds]
    if len(set(kinds)) != len(kinds):
        raise ConfigError("model kinds must be distinct")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds must be distinct")
    if not seeds:
        raise ConfigError("run_comparison needs at least one seed")
    runs = {(seed, kind): _resolve_configs(config, ds, kind, seed=seed, split_seed=seed)
            for seed in seeds for kind in kinds}
    from .forkpool import ordered_results  # see its module docstring
    rows: list[dict] = []
    results: dict[tuple[str, int], RunResult] = {}
    # Children get ``runs`` through fork, and look up run_training when they call it.
    with ordered_results(lambda seed, kind: run_training(ds, *runs[seed, kind]),
                         list(runs), min(models_mod.default_jobs(), len(runs))) as finished:
        for seed, kind in runs:
            try:
                result = next(finished)
            except (CompnetError, MemoryError, ChildProcessError) as exc:
                # The same class keeps the exit code.  NumPy builds its
                # MemoryError's message from a shape, so that one becomes plain.
                error = MemoryError if isinstance(exc, MemoryError) else type(exc)
                raise error(f"{kind} seed {seed}: {str(exc) or 'out of memory'}") from exc
            last = result.history[-1]
            row = {
                "model": kind,
                "seed": seed,
                "train_acc": last.train.accuracy,
                "test_acc": last.test.accuracy,
                "gap": last.train.accuracy - last.test.accuracy,
            }
            rows.append(row)
            results[(kind, seed)] = result
            if on_row is not None:
                on_row(row)
    means = {kind: {key: sum(r[key] for r in rows if r["model"] == kind) / len(seeds)
                    for key in ("train_acc", "test_acc", "gap")}
             for kind in kinds}
    improvements = {kind: 100.0 * (means["compnet"]["test_acc"] - means[kind]["test_acc"])
                    for kind in kinds if "compnet" in means and kind != "compnet"}
    return ComparisonResult(rows=rows, means=means, improvements=improvements,
                            results=results)


def comparison_csv(rows: list[dict], means: dict[str, dict[str, float]]) -> str:
    lines = ["model,seed,train_acc,test_acc,gap"]
    for r in rows:
        lines.append(f"{r['model']},{r['seed']},{_fmt(r['train_acc'])},"
                     f"{_fmt(r['test_acc'])},{_fmt(r['gap'])}")
    for kind, m in means.items():
        lines.append(f"{kind},mean,{_fmt(m['train_acc'])},"
                     f"{_fmt(m['test_acc'])},{_fmt(m['gap'])}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands

def cmd_generate(args) -> int:
    spec_dict = _load_config_json(args.spec, "spec file") if args.spec else {}
    if args.n_samples is not None:
        spec_dict["n_samples"] = args.n_samples
    spec_dict.setdefault("n_samples", 2000)
    if args.seed is not None:
        spec_dict["seed"] = args.seed
    spec = SynthSpec.from_dict(spec_dict)
    ds = generate_synthetic(spec)
    manifest = save_dataset(ds, args.out)
    labels = ds.labels
    counts = ", ".join(f"class {k}: {int((labels == k).sum())}"
                       for k in range(ds.n_classes))
    print(f"wrote {len(ds)} samples ({counts}) -> {manifest}")
    return 0


def cmd_train(args) -> int:
    config = _load_config_json(args.config, "config file") if args.config else {}
    ds = load_dataset(args.data)
    model_cfg, train_cfg, split_settings = _resolve_configs(
        config, ds, args.model, seed=args.seed, epochs=args.epochs)
    result, train_n, test_n = _start_run(ds, model_cfg, split_settings)
    result.history += fit(result.model, train_n, test_n, train_cfg, result.opt_state)

    out = Path(args.out)
    # A checkpoint is written last, so one left from an earlier run must go
    # first: eval would otherwise pair it with this run's other artifacts.
    (out / "checkpoint.cmpn").unlink(missing_ok=True)
    write_atomic(out / "history.csv", history_csv(result.history).encode("utf-8"))
    write_atomic(out / "normalizer.json",
                 (json.dumps(result.normalizer.to_dict(), sort_keys=True) + "\n").encode("utf-8"))
    checkpoint_save(result.model, result.opt_state, out / "checkpoint.cmpn",
                    train_config=train_cfg,
                    extra={"split": split_settings.to_dict(),
                           "normalizer_file": "normalizer.json"})
    rec = result.history[-1]
    print(f"{args.model}: epoch {rec.epoch}, train loss {rec.train.loss:.4f} "
          f"acc {rec.train.accuracy:.4f}, test loss {rec.test.loss:.4f} "
          f"acc {rec.test.accuracy:.4f}")
    print(f"artifacts -> {out}")
    return 0


def _select_split(ds: Dataset, which: str, extra: Mapping) -> Dataset:
    """The ``train`` or ``test`` side of the split the checkpoint records."""
    settings = extra.get("split")
    if settings is None:
        raise ConfigError(
            f"checkpoint does not record split settings; cannot select "
            f"--split {which} (use --split all)")
    try:
        missing = {f.name for f in fields(SplitSettings)} - set(settings)
        if missing:
            raise ConfigError(f"missing keys {sorted(missing)}")
        settings = SplitSettings.from_dict(settings)
    except (TypeError, ConfigError) as exc:
        raise FormatError(f"checkpoint split settings are malformed: {exc}") from None
    train_ds, test_ds = split(ds, settings.train_fraction, settings.seed, settings.stratified)
    return train_ds if which == "train" else test_ds


def _read_normalizer(checkpoint, extra: Mapping) -> Normalizer:
    """The normalizer the checkpoint names, from the checkpoint's directory."""
    norm_file = extra.get("normalizer_file", "normalizer.json")
    if not isinstance(norm_file, str) or Path(norm_file).name != norm_file:
        raise FormatError(f"checkpoint normalizer_file must be a file name, got {norm_file!r}")
    norm_path = Path(checkpoint).parent / norm_file
    raw = read_input(norm_path, "normalizer", ConfigError)  # exit 2: eval needs it
    try:
        return Normalizer.from_dict(read_json_object(raw, norm_path))
    except ConfigError as exc:
        raise FormatError(f"{norm_path}: {exc}") from None


def _score_mapped(model: Model, data, score: Callable[[Tables, Iterator], object]):
    """``score(tables, learned)`` of the dataset at ``data``: its checked
    tables and an iterator over ``models._pathway_batches`` of its images.

    The pass starts on the mapped pixels before this process reads the
    tables, so a table fault is raised before any pass result is read, and
    this process never reads a pixel.  A non-finite pixel ends the pass with
    the error a load gives it, naming the sample, and it wins over every
    error that ``score`` raises, as it does when a load checks the pixels
    first: the rest of the pass is read before that error is raised.
    """
    mapped = map_images(data)
    with models_mod._pathway_batches(model, mapped.images) as learned:
        tables = read_tables(mapped)
        try:
            try:
                return score(tables, learned)
            except CompnetError:  # after NonFiniteRow, learned is done and yields nothing
                for _ in learned:  # a bad pixel in a batch not read yet
                    pass
                raise
        except NonFiniteRow as exc:
            raise FormatError(f"{mapped.base}: sample {tables.ids[exc.row]}: "
                              f"non-finite values") from None


def cmd_eval(args) -> int:
    model, _, extra = checkpoint_load(args.checkpoint)
    norm = _read_normalizer(args.checkpoint, extra)  # before the dataset: no pass without it
    if args.split == "all":
        def score(tables: Tables, learned: Iterator) -> Metrics:
            features = zscore_features(norm, tables.ids, tables.features)
            return _evaluate_pathway(model, features, tables.labels, learned)

        metrics = _score_mapped(model, args.data, score)
    else:
        chosen = _select_split(load_dataset(args.data), args.split, extra)
        metrics = evaluate(model, zscore_apply(norm, chosen))
    out_path = Path(args.checkpoint).parent / "metrics.json"
    payload = {"split": args.split, "loss": metrics.loss,
               "accuracy": metrics.accuracy, "n": metrics.n}
    write_atomic(out_path, (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8"))
    print(f"split {args.split}: loss {_fmt(metrics.loss)} "
          f"accuracy {_fmt(metrics.accuracy)} n {metrics.n}")
    return 0


def cmd_compare(args) -> int:
    kinds = [k.strip() for k in args.models.split(",") if k.strip()]
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"--seeds must be comma-separated integers, "
                          f"got {args.seeds!r}") from None
    if len(kinds) < 2:
        raise ConfigError("--models needs at least two model kinds")
    if not seeds:
        raise ConfigError("--seeds needs at least one seed")
    config = _load_config_json(args.config, "config file") if args.config else {}
    ds = load_dataset(args.data)
    out_csv = Path(args.out) / "compare.csv"

    flushed: list[dict] = []
    try:
        result = run_comparison(ds, config, kinds, seeds, on_row=flushed.append)
    except (CompnetError, OSError, MemoryError):
        # A failed run aborts the comparison but keeps the completed rows;
        # main maps the error to its exit code.
        write_atomic(out_csv, comparison_csv(flushed, {}).encode("utf-8"))
        raise
    write_atomic(out_csv, comparison_csv(result.rows, result.means).encode("utf-8"))
    for kind, m in result.means.items():
        print(f"{kind}: mean train {m['train_acc']:.4f} test {m['test_acc']:.4f} "
              f"gap {m['gap']:.4f}")
    for kind, points in result.improvements.items():
        print(f"compnet vs {kind}: {points:+.2f} accuracy points (test)")
    print(f"rows -> {out_csv}")
    return 0


def cmd_importance(args) -> int:
    model, _, _ = checkpoint_load(args.checkpoint)
    models_mod.require_weight_matrix(model)  # before the dataset is touched
    report = _score_mapped(model, args.data, lambda tables, learned:
                           models_mod._importance_report(model, len(tables.ids), learned))
    lines = ["class,feature_index,mean_abs_weight,rank"]
    for k, j in np.ndindex(report.importance.shape):
        lines.append(f"{k},{j},{_fmt(report.importance[k, j])},{report.rank_of[k, j]}")
    write_atomic(Path(args.out), ("\n".join(lines) + "\n").encode("utf-8"))
    print("top feature per class: "
          + ", ".join(f"class {k} -> f{j}" for k, j in enumerate(report.ranking[:, 0])))
    print(f"table -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="compnet",
        description="Composite image + designed-feature classifier: dataset "
                    "generation, training, evaluation, model comparison, and "
                    "feature-importance export.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset directory")
    p.add_argument("--spec", help="JSON file of generator settings")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--seed", type=int, help="override the generator seed")
    p.add_argument("--n-samples", type=int, dest="n_samples",
                   help="override the sample count (default 2000)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train one model on a dataset directory")
    p.add_argument("--config", help="JSON config with model/train/split sections")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--model", required=True, choices=list(FUSION_KINDS))
    p.add_argument("--out", required=True, help="output directory for artifacts")
    p.add_argument("--epochs", type=int, help="override config epochs")
    p.add_argument("--seed", type=int, help="override model and shuffle seeds")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--split", choices=["train", "test", "all"], default="test")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="train several models over several seeds")
    p.add_argument("--config", help="JSON config with model/train/split sections")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--models", required=True,
                   help="comma-separated model kinds (at least two)")
    p.add_argument("--seeds", required=True, help="comma-separated seeds")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("importance",
                       help="export per-class designed-feature importance")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="output CSV file")
    p.set_defaults(func=cmd_importance)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CompnetError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, CompnetError) else 3


if __name__ == "__main__":
    sys.exit(main())
