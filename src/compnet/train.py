"""Training loop: SGD with momentum, evaluation, history, checkpoints.

The loop is deterministic end to end: minibatch order is drawn from a
generator seeded by ``(run seed, epoch index)``, evaluation batches are
a fixed size consumed in order, and metric accumulation is sequential,
so a given (model seed, data, config) always produces bit-identical
history rows and checkpoint bytes.

Checkpoint layout (little-endian):

* magic ``b"CMPN"``
* format version, u32
* header length, u64
* UTF-8 JSON header: model config, training config echo, completed-epoch
  counter, free-form extras, and the parameter names and shapes in order,
  which must equal those of the model built from the model config
* one float64 payload per parameter, then one per velocity, header order
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from . import models as models_mod
from .autodiff import Tape, Tensor, backward
from .config import DictConfig, require_min
from .data import Dataset, read_input, read_json_object, write_atomic
from .exceptions import ConfigError, DataError, FormatError, NumericError
from .layers import cross_entropy
from .models import Model, ModelConfig

CHECKPOINT_MAGIC = b"CMPN"
CHECKPOINT_VERSION = 1
_DIVERGED = 100.0  # times ln(n_classes), the loss of a uniform guess


@dataclass
class TrainConfig(DictConfig):
    """Hyperparameters of one training run."""
    epochs: int = 2000
    batch_size: int = 64
    learning_rate: float = 0.01
    momentum: float = 0.9
    seed: int = 0
    shuffle: bool = True
    eval_every: int = 1
    patience: int | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        require_min(self, epochs=1, batch_size=1, seed=0, eval_every=1, patience=1)
        # 0 is allowed so a zero step can be asserted to be an exact no-op.
        if self.learning_rate < 0:
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")


@dataclass
class Metrics:
    """Mean cross-entropy, fraction correct, and the sample count behind them."""
    loss: float
    accuracy: float
    n: int


@dataclass
class EpochRecord:
    """One history row: epoch number plus its evaluations.

    ``train`` is the post-epoch evaluation over the full training set
    (the number reported as training accuracy); ``running`` aggregates
    the minibatch forward passes made during the epoch; ``test`` is
    present on evaluation epochs.
    """
    epoch: int
    train: Metrics
    running: Metrics
    test: Metrics | None = None


@dataclass
class OptimState:
    """Per-parameter momentum velocities plus the completed-epoch counter."""
    velocities: dict[str, np.ndarray]
    epoch: int = 0


def init_optim_state(model: Model) -> OptimState:
    return OptimState(velocities={name: np.zeros_like(p) for name, p in model.params.items()})


def sgd_momentum_step(params: dict[str, np.ndarray], grads: Mapping[str, np.ndarray],
                      state: OptimState, lr: float, momentum: float) -> None:
    """One momentum update, in place: ``v <- momentum*v + g``; ``w <- w - lr*v``.

    Every gradient is checked before anything moves, so a non-finite one
    raises ``NumericError`` with all parameters and velocities untouched.
    """
    for name in params:
        if not np.isfinite(grads[name]).all():
            raise NumericError(f"non-finite gradient for parameter {name}")
    for name, w in params.items():
        v = momentum * state.velocities[name] + grads[name]
        state.velocities[name] = v
        params[name] = w - lr * v


def train_epoch(model: Model, train: Dataset, cfg: TrainConfig,
                state: OptimState) -> Metrics:
    """One pass over seeded-shuffled minibatches; the short tail batch is kept.

    Returns running metrics aggregated over the epoch's forward passes
    (before each update), and advances ``state.epoch``.
    """
    n = len(train)
    if n == 0:
        raise DataError("cannot train on an empty dataset")
    order = (np.random.default_rng((cfg.seed, state.epoch)).permutation(n)
             if cfg.shuffle else None)
    loss_sum = 0.0
    correct = 0
    for b, (images, features, labels) in enumerate(train.batches(cfg.batch_size, order)):
        tape = Tape()
        logits, watched = models_mod.tracked_forward(model, tape, images, features)
        loss = cross_entropy(logits, labels)
        loss_value = loss.item()
        if not np.isfinite(loss_value):
            raise NumericError(
                f"loss diverged at epoch {state.epoch}, batch {b}")
        grads_by_node = backward(loss)
        grads = {name: grads_by_node[t.node_id] for name, t in watched.items()}
        sgd_momentum_step(model.params, grads, state,
                          cfg.learning_rate, cfg.momentum)
        loss_sum += loss_value * len(labels)
        correct += int((np.argmax(logits.data, axis=1) == labels).sum())
    state.epoch += 1
    return Metrics(loss=loss_sum / n, accuracy=correct / n, n=n)


def evaluate(model: Model, ds: Dataset) -> Metrics:
    """Loss and accuracy over a dataset; parameters untouched."""
    with models_mod._pathway_batches(model, ds.images) as learned:
        return _evaluate_pathway(model, ds.features, ds.labels, learned)


def _evaluate_pathway(model: Model, features: np.ndarray, labels: np.ndarray,
                      learned: Iterator[np.ndarray]) -> Metrics:
    """:func:`evaluate` of the samples whose checked designed features and labels
    these are, applying the model's head to each batch's image-pathway output
    from ``learned`` (``models._pathway_batches`` of their images).

    ``NumericError`` if the logits or the loss are not finite, as they
    can be for a loaded model whose finite weights overflow.
    """
    n = len(labels)
    if n == 0:
        raise DataError("cannot evaluate on an empty dataset")
    loss_sum = 0.0
    correct = 0
    with np.errstate(over="ignore", invalid="ignore"):  # the finite checks report it
        for start in range(0, n, models_mod.EVAL_BATCH):
            rows = slice(start, start + models_mod.EVAL_BATCH)
            y = labels[rows]
            logits = models_mod.head(model, Tensor(next(learned)), Tensor(features[rows]))
            loss_sum += cross_entropy(logits, y).item() * len(y)
            correct += int((np.argmax(logits.data, axis=1) == y).sum())
    if not np.isfinite(loss_sum):
        raise NumericError("evaluation loss is not finite")
    return Metrics(loss=loss_sum / n, accuracy=correct / n, n=n)


def evaluate_train(model: Model, train: Dataset, epoch: int) -> Metrics:
    """:func:`evaluate` of the training split after ``epoch``; ``NumericError`` if
    its loss is above 100 × ln(n_classes), a hundred times the loss of a
    uniform guess: the run has diverged, finite or not."""
    metrics = evaluate(model, train)
    bound = _DIVERGED * math.log(model.config.n_classes)
    if metrics.loss > bound:
        raise NumericError(f"training diverged: train loss {metrics.loss:.6g} after epoch "
                           f"{epoch} is above {bound:.6g} (100 x ln {model.config.n_classes})")
    return metrics


def epochs(model: Model, train: Dataset, test: Dataset | None,
           cfg: TrainConfig, state: OptimState) -> Iterator[tuple[int, Metrics, Metrics | None]]:
    """Train one epoch per step, yielding ``(epoch, running, test)`` after each.

    ``epoch`` counts completed epochs (1-based); ``test`` is the test-set
    evaluation on the cadence of ``eval_every`` and at ``cfg.epochs``, else
    ``None``.  The loop continues from ``state.epoch`` and, with ``patience``
    set, stops once test accuracy has failed to improve over that many
    consecutive evaluations of this generator.  The training set is never
    scored here: the caller scores it after the epochs it reports.
    """
    test_accs: list[float] = []
    while state.epoch < cfg.epochs:
        # A diverging run ends in the NumericError of the finite checks on
        # logits, loss and gradients; NumPy's overflow warnings on the way
        # there would only repeat it on stderr.  No yield inside: errstate is
        # a context variable, and the consumer would run under it.
        with np.errstate(over="ignore", invalid="ignore"):
            running = train_epoch(model, train, cfg, state)
        test_eval = None
        if test is not None and (state.epoch % cfg.eval_every == 0
                                 or state.epoch == cfg.epochs):
            test_eval = evaluate(model, test)
        yield state.epoch, running, test_eval
        if cfg.patience is not None and test_eval is not None:
            test_accs.append(test_eval.accuracy)
            if max(test_accs[-cfg.patience:]) <= max(test_accs[:-cfg.patience], default=-1.0):
                return


def fit(model: Model, train: Dataset, test: Dataset | None,
        cfg: TrainConfig, state: OptimState | None = None) -> list[EpochRecord]:
    """:func:`epochs`, with the training set scored by :func:`evaluate_train`
    after every epoch.

    Returns this call's records, one per epoch.  Test data is only ever
    evaluated, never trained on.  Pass the ``state`` from a loaded
    checkpoint to resume, ``history += fit(..., state)``: the loop
    continues from ``state.epoch`` and reproduces an uninterrupted run
    bit-exactly.
    """
    state = state if state is not None else init_optim_state(model)
    return [EpochRecord(epoch=epoch, train=evaluate_train(model, train, epoch),
                        running=running, test=test_eval)
            for epoch, running, test_eval in epochs(model, train, test, cfg, state)]


def _param_table(shapes: Mapping[str, tuple[int, ...]]) -> list[dict]:
    """The checkpoint header's ``params``: each parameter's name and shape, in order."""
    return [{"name": name, "shape": list(shape)} for name, shape in shapes.items()]


def checkpoint_save(model: Model, opt_state: OptimState, path,
                    train_config: TrainConfig | None = None,
                    extra: Mapping | None = None) -> Path:
    """Write a checkpoint; see the module docstring for the byte layout."""
    header = {
        "model_config": model.config.to_dict(),
        "train_config": train_config.to_dict() if train_config else None,
        "params": _param_table({name: p.shape for name, p in model.params.items()}),
        "epoch": opt_state.epoch,
        "extra": dict(extra) if extra else {},
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    chunks = [CHECKPOINT_MAGIC, struct.pack("<IQ", CHECKPOINT_VERSION, len(header_bytes)),
              header_bytes]
    for arrays in (model.params, opt_state.velocities):
        chunks.extend(arrays[name].astype("<f8").tobytes() for name in model.params)
    write_atomic(Path(path), b"".join(chunks))
    return Path(path)


def checkpoint_load(path) -> tuple[Model, OptimState, dict]:
    """Rebuild a model and optimizer state bit-exactly from a checkpoint.

    Also returns the header's free-form ``extra`` object.  Every way the
    file can disagree with the layout above is a :class:`FormatError`, and
    so is a non-finite parameter or velocity, which ``fit`` never saves.
    """
    blob = read_input(path, "checkpoint")
    if len(blob) < 16 or blob[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: not a checkpoint (bad magic)")
    version, header_len = struct.unpack("<IQ", blob[4:16])
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    if len(blob) < 16 + header_len:
        raise FormatError(f"{path}: truncated header")
    header = read_json_object(blob[16:16 + header_len], f"{path}: checkpoint header")
    extra = header.get("extra", {})
    if not isinstance(header.get("model_config"), dict) \
            or type(header.get("epoch")) is not int or not isinstance(extra, dict):
        raise FormatError(f"{path}: checkpoint header needs a model_config object, "
                          f"an integer epoch and an extra object")
    try:
        config = ModelConfig.from_dict(header["model_config"])
    except ConfigError as exc:
        raise FormatError(f"{path}: checkpoint model_config is invalid: {exc}") from None
    shapes = models_mod.param_shapes(config)  # Python ints: checked before any allocation
    # As JSON text, so that a shape of 2.0 or true differs from 2 and 1.
    if json.dumps(header.get("params"), sort_keys=True) != \
            json.dumps(_param_table(shapes), sort_keys=True):
        raise FormatError(f"{path}: checkpoint params do not match the model "
                          f"built from its config")
    needed = 16 * sum(math.prod(shape) for shape in shapes.values())
    payload = blob[16 + header_len:]
    if len(payload) != needed:
        raise FormatError(f"{path}: payload holds {len(payload)} bytes, model needs {needed}")
    values = np.frombuffer(payload, dtype="<f8")
    params, velocities, offset = {}, {}, 0
    for kind, table in (("parameter", params), ("velocity", velocities)):
        for name, shape in shapes.items():
            size = math.prod(shape)
            table[name] = values[offset:offset + size].astype(np.float64).reshape(shape)
            if not np.isfinite(table[name]).all():
                raise FormatError(f"{path}: {kind} {name} holds non-finite values")
            offset += size
    return Model(config, params), OptimState(velocities, header["epoch"]), extra
