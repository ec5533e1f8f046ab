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
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from . import models as models_mod
from .autodiff import Tape, backward
from .config import DictConfig, require_min
from .data import Dataset, read_json_object, write_atomic
from .exceptions import ConfigError, DataError, FormatError, NumericError
from .layers import cross_entropy
from .models import Model, ModelConfig

CHECKPOINT_MAGIC = b"CMPN"
CHECKPOINT_VERSION = 1


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
    return OptimState(
        velocities={name: np.zeros_like(model.params[name])
                    for name in model.param_order},
        epoch=0)


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
        grads = {name: grads_by_node[t.node_id].data for name, t in watched.items()}
        sgd_momentum_step(model.params, grads, state,
                          cfg.learning_rate, cfg.momentum)
        loss_sum += loss_value * len(labels)
        correct += int((np.argmax(logits.data, axis=1) == labels).sum())
    state.epoch += 1
    return Metrics(loss=loss_sum / n, accuracy=correct / n, n=n)


def evaluate(model: Model, ds: Dataset) -> Metrics:
    """Loss and accuracy over a dataset; parameters untouched.

    ``NumericError`` if the logits or the loss are not finite, as they
    can be for a loaded model whose finite weights overflow.
    """
    n = len(ds)
    if n == 0:
        raise DataError("cannot evaluate on an empty dataset")

    def score(images, features, labels) -> tuple[float, int]:
        logits = models_mod.forward(model, images, features)
        return (cross_entropy(logits, labels).item() * len(labels),
                int((np.argmax(logits.data, axis=1) == labels).sum()))

    loss_sum = 0.0
    correct = 0
    with np.errstate(over="ignore", invalid="ignore"):  # the finite checks report it
        for batch_loss, batch_correct in models_mod.scored_batches(score, ds):
            loss_sum += batch_loss
            correct += batch_correct
    if not np.isfinite(loss_sum):
        raise NumericError("evaluation loss is not finite")
    return Metrics(loss=loss_sum / n, accuracy=correct / n, n=n)


def fit(model: Model, train: Dataset, test: Dataset | None,
        cfg: TrainConfig, state: OptimState | None = None) -> list[EpochRecord]:
    """Run ``cfg.epochs`` epochs, evaluating on the cadence of ``eval_every``.

    Returns this call's records, one per epoch.  Test data is only ever
    evaluated, never trained on.  Pass the ``state`` from a loaded
    checkpoint to resume, ``history += fit(..., state)``: the loop
    continues from ``state.epoch`` and reproduces an uninterrupted run
    bit-exactly.  With ``patience`` set, training stops early once test
    accuracy has failed to improve over that many consecutive
    evaluations of this call.
    """
    state = state if state is not None else init_optim_state(model)
    history: list[EpochRecord] = []
    # A diverging run ends in the NumericError of the finite checks on
    # logits, loss and gradients; NumPy's overflow warnings on the way there
    # would only repeat it on stderr.
    with np.errstate(over="ignore", invalid="ignore"):
        while state.epoch < cfg.epochs:
            running = train_epoch(model, train, cfg, state)
            epoch = state.epoch  # completed epochs, 1-based row number
            train_eval = evaluate(model, train)
            test_eval = None
            if test is not None and (epoch % cfg.eval_every == 0 or epoch == cfg.epochs):
                test_eval = evaluate(model, test)
            history.append(EpochRecord(epoch=epoch, train=train_eval,
                                       running=running, test=test_eval))
            if cfg.patience is not None and test_eval is not None:
                accs = [rec.test.accuracy for rec in history if rec.test is not None]
                if max(accs[-cfg.patience:]) <= max(accs[:-cfg.patience], default=-1.0):
                    break
    return history


def _param_table(model: Model) -> list[dict]:
    """The checkpoint header's ``params``: each parameter's name and shape, in order."""
    return [{"name": name, "shape": list(model.params[name].shape)}
            for name in model.param_order]


def checkpoint_save(model: Model, opt_state: OptimState, path,
                    train_config: TrainConfig | None = None,
                    extra: Mapping | None = None) -> Path:
    """Write a checkpoint; see the module docstring for the byte layout."""
    header = {
        "model_config": model.config.to_dict(),
        "train_config": train_config.to_dict() if train_config else None,
        "params": _param_table(model),
        "epoch": opt_state.epoch,
        "extra": dict(extra) if extra else {},
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    chunks = [CHECKPOINT_MAGIC, struct.pack("<IQ", CHECKPOINT_VERSION, len(header_bytes)),
              header_bytes]
    for arrays in (model.params, opt_state.velocities):
        chunks.extend(arrays[name].astype("<f8").tobytes() for name in model.param_order)
    write_atomic(Path(path), b"".join(chunks))
    return Path(path)


def checkpoint_load(path) -> tuple[Model, OptimState, dict]:
    """Rebuild a model and optimizer state bit-exactly from a checkpoint.

    Also returns the header's free-form ``extra`` object.  Every way the
    file can disagree with the layout above is a :class:`FormatError`, and
    so is a non-finite parameter or velocity, which ``fit`` never saves.
    """
    blob = Path(path).read_bytes()
    if len(blob) < 16 or blob[:4] != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: not a checkpoint (bad magic)")
    version, header_len = struct.unpack("<IQ", blob[4:16])
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    if len(blob) < 16 + header_len:
        raise FormatError(f"{path}: truncated header")
    header = read_json_object(blob[16:16 + header_len], f"{path}: checkpoint header")
    extra = header.get("extra") or {}
    if not isinstance(header.get("model_config"), dict) \
            or type(header.get("epoch")) is not int or not isinstance(extra, dict):
        raise FormatError(f"{path}: checkpoint header needs a model_config object, "
                          f"an integer epoch and an extra object")
    try:
        config = ModelConfig.from_dict(header["model_config"])
    except ConfigError as exc:
        raise FormatError(f"{path}: checkpoint model_config is invalid: {exc}") from None
    model = models_mod.build_model(config)
    # As JSON text, so that a shape of 2.0 or true differs from 2 and 1.
    if json.dumps(header.get("params"), sort_keys=True) != \
            json.dumps(_param_table(model), sort_keys=True):
        raise FormatError(f"{path}: checkpoint params do not match the model "
                          f"built from its config")
    payload = blob[16 + header_len:]
    if len(payload) != 16 * model.param_count:
        raise FormatError(f"{path}: payload holds {len(payload)} bytes, "
                          f"model needs {16 * model.param_count}")
    values = np.frombuffer(payload, dtype="<f8")
    arrays, offset = [], 0
    for kind in ("parameter", "velocity"):
        for name, like in model.params.items():
            arr = values[offset:offset + like.size].astype(np.float64).reshape(like.shape)
            if not np.isfinite(arr).all():
                raise FormatError(f"{path}: {kind} {name} holds non-finite values")
            arrays.append(arr)
            offset += like.size
    velocities = dict(zip(model.param_order, arrays[len(model.params):]))
    model.set_params(dict(zip(model.param_order, arrays)))
    return model, OptimState(velocities=velocities, epoch=header["epoch"]), extra
