"""Model assembly: the composite fusion network and its two baselines.

All three variants share one convolutional trunk (conv -> pool ->
LeakyReLU per stage, then flatten and a dense stack):

* ``compnet`` ends in a dense layer of width ``n_classes * n_features``;
  that vector is read row-major as one weight row per class and
  dotted with the designed-feature vector to produce class scores.
* ``concat`` appends the designed features to the first dense layer's
  activations and classifies with further dense layers.
* ``image_only`` ignores the designed features entirely.

One layer plan (``_layer_plan``) lists a variant's steps in the order
they run; config validation, parameter initialization and the forward
pass are all read off it, so the variants differ only in the steps the
plan holds.

Parameters are plain float64 arrays owned by the ``Model``; a forward
pass wraps them in tensors, optionally watched on a tape so the training
loop can pull gradients for every parameter.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .config import DictConfig, require_min
from .data import CheckedBatch
from .exceptions import ConfigError, DataError, NumericError, ShapeError, VariantError
from .layers import (ConvParams, DenseParams, concat_columns, conv2d, dense,
                     fusion_weight_matrix, leaky_relu, maxpool2d)

FUSION_KINDS = ("compnet", "concat", "image_only")
# Rows per forward-only pass when scoring or explaining a whole dataset.
EVAL_BATCH = 256
# Batches each child must get before a scoring pass forks.  Forking on every evaluate
# slowed `compnet train` (2,000 samples, 2 epochs) from 0.48 to 0.71 s: a child's first
# B=256 batch, faulting its heap in afresh, took 13-17 ms against 7 ms.  At 8, every
# evaluation in the benchmark's and acceptance gate's fits (<= 6 batches) stays in-process.
MIN_CHILD_BATCHES = 8


def default_jobs() -> int:
    """Children for ``compare``'s runs and a long scoring pass: 2, or 1 on one CPU.

    Two at a time are what was measured (a ``compare`` child peaks at about
    100 MB on the 1,000-sample benchmark); more CPUs bring no more children
    until their memory and speed are measured too.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    return min(2, cpus)


def scored_batches(fn: Callable, dataset) -> list:
    """``fn(images, features, labels)`` for each ``EVAL_BATCH`` batch, in batch order.

    With ``MIN_CHILD_BATCHES`` batches for each of ``default_jobs()`` (2) children,
    each forked child scores one contiguous run of them; otherwise they run in this
    process, which never loads ``multiprocessing`` then.  Either way the results, and
    the first exception in batch order, are the same, and no child outlives the call.
    """
    n_batches = -(-len(dataset) // EVAL_BATCH)
    workers = min(default_jobs(), n_batches // MIN_CHILD_BATCHES)
    if workers < 2:
        return [fn(*batch) for batch in dataset.batches(EVAL_BATCH)]
    from .forkpool import ordered_results  # see its module docstring

    def score_run(start: int, stop: int) -> list:
        with np.errstate(over="ignore", invalid="ignore"):  # the caller's checks report it
            return [fn(*batch) for batch in
                    itertools.islice(dataset.batches(EVAL_BATCH), start, stop)]

    cuts = [n_batches * i // workers for i in range(workers + 1)]
    with ordered_results(score_run, list(zip(cuts, cuts[1:])), workers) as runs:
        return [result for run in runs for result in run]


@dataclass
class ModelConfig(DictConfig):
    """Everything needed to build one of the three variants deterministically.

    ``learned_width`` is the width of the vector entering the fusion;
    it applies to the ``compnet`` variant only and must equal
    ``n_classes * n_features`` (left as ``None`` it takes that value).
    """
    image_shape: tuple[int, int, int]
    n_classes: int
    n_features: int
    conv_filters: tuple[int, ...] = (30, 30)
    kernel_size: int = 5
    dense_hidden: tuple[int, ...] = (256,)
    fusion_kind: str = "compnet"
    leaky_slope: float = 0.01
    seed: int = 0
    learned_width: int | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        require_min(self, image_shape=1, n_classes=2, n_features=1, conv_filters=1,
                    kernel_size=1, dense_hidden=1, seed=0)
        if not self.conv_filters:
            raise ConfigError("conv_filters must not be empty")
        if self.fusion_kind not in FUSION_KINDS:
            raise ConfigError(
                f"fusion_kind must be one of {list(FUSION_KINDS)}, got {self.fusion_kind!r}")
        if not 0.0 < self.leaky_slope < 1.0:
            raise ConfigError(f"leaky_slope must be in (0, 1), got {self.leaky_slope}")
        if self.fusion_kind == "compnet":
            m = self.n_classes * self.n_features
            if self.learned_width is None:
                self.learned_width = m
            elif self.learned_width != m:
                raise ConfigError(
                    f"learned_width {self.learned_width} != n_classes*n_features = {m}")
        elif self.learned_width is not None:
            raise ConfigError(
                f"learned_width applies to the compnet variant only, not {self.fusion_kind!r}")
        if self.fusion_kind == "concat" and not self.dense_hidden:
            raise ConfigError(
                "concat variant injects features after the first hidden dense "
                "layer and therefore needs a non-empty dense_hidden")
        _layer_plan(self)  # raises ConfigError if the conv/pool chain is impossible


@dataclass
class Model:
    """A built network: config and named parameters."""
    config: ModelConfig
    params: dict[str, np.ndarray]

    @property
    def param_order(self) -> list[str]:
        """Parameter names in creation order, the order checkpoints use."""
        return list(self.params)

    @property
    def param_count(self) -> int:
        return sum(int(p.size) for p in self.params.values())

    def set_params(self, new_params: Mapping[str, np.ndarray]) -> None:
        """Replace parameter values in place; shapes are the caller's to keep."""
        for name in self.param_order:
            self.params[name] = np.asarray(new_params[name], dtype=np.float64)


class _Layer(NamedTuple):
    """One forward step: conv and dense steps own the weight and bias named in ``params``,
    the weight of shape ``shape``; flatten's ``shape`` is the flat width."""
    op: str
    params: tuple[str, ...] = ()
    shape: tuple[int, ...] = ()


def _dense(name: str, p: int, q: int) -> _Layer:
    return _Layer("dense", (f"{name}.weights", f"{name}.bias"), (p, q))


def _layer_plan(cfg: ModelConfig) -> list[_Layer]:
    """The variant's layers in the order they run; ``ConfigError`` if a conv stage
    underflows or would pool odd spatial dims.

    All variants run the same conv trunk and dense stack and differ only in
    where the designed features enter: ``concat`` splices them in after the
    first hidden layer, ``compnet`` reads the output vector as the class x
    feature matrix and dots it with them, and ``image_only`` never uses them.
    Each trunk stage pools before its LeakyReLU: that is monotone, so the logits
    are the same bits as activating first, and it runs on a quarter of the elements.
    """
    relu = _Layer("relu")
    plan: list[_Layer] = []
    (c, h, w), k = cfg.image_shape, cfg.kernel_size
    for i, f in enumerate(cfg.conv_filters):
        h2, w2 = h - k + 1, w - k + 1
        if h2 < 1 or w2 < 1:
            raise ConfigError(f"conv stage {i}: kernel {k} does not fit in {h}x{w}")
        if h2 % 2 or w2 % 2:
            raise ConfigError(f"conv stage {i}: pooling needs even dims, got {h2}x{w2}")
        plan += [_Layer("conv", (f"conv{i}.kernels", f"conv{i}.bias"), (f, c, k, k)),
                 _Layer("pool"), relu]
        c, h, w = f, h2 // 2, w2 // 2
    width = c * h * w
    plan.append(_Layer("flatten", shape=(width,)))
    for i, units in enumerate(cfg.dense_hidden):
        plan += [_dense(f"dense{i}", width, units), relu]
        width = units
        if i == 0 and cfg.fusion_kind == "concat":
            plan.append(_Layer("concat"))
            width += cfg.n_features
    out_width = cfg.learned_width if cfg.fusion_kind == "compnet" else cfg.n_classes
    plan.append(_dense("out", width, out_width))
    if cfg.fusion_kind == "compnet":
        plan.append(_Layer("fusion"))
    return plan


def build_model(cfg: ModelConfig) -> Model:
    """Initialize a model from the seeded scheme: uniform Glorot weights, zero biases.

    Parameters are drawn in plan order (conv stages, then the dense
    stack, then the output layer), so a given ``(config, seed)`` always
    yields bit-identical parameters.
    """
    rng = np.random.default_rng(cfg.seed)
    params: dict[str, np.ndarray] = {}
    for layer in _layer_plan(cfg):
        if not layer.params:
            continue
        # fan_in + fan_out is size/shape[0] + size/shape[1] both for conv
        # kernels [F, C, kh, kw] and for dense weights [p, q].
        size = int(np.prod(layer.shape))
        s = float(np.sqrt(6.0 / (size // layer.shape[0] + size // layer.shape[1])))
        weight, bias = layer.params
        params[weight] = rng.uniform(-s, s, size=layer.shape)
        params[bias] = np.zeros(layer.shape[0 if layer.op == "conv" else 1])
    return Model(config=cfg, params=params)


def _check_images(model: Model, images: Tensor) -> None:
    """Shape, then finiteness unless the batch came from a checked ``Dataset``."""
    cfg = model.config
    if images.data.ndim != 4 or images.shape[1:] != cfg.image_shape:
        raise ShapeError(
            f"images must be [B, {', '.join(map(str, cfg.image_shape))}], "
            f"got {list(images.shape)}")
    if not isinstance(images, CheckedBatch) and not np.isfinite(images.data).all():
        raise DataError("images contain non-finite values")


def _check_inputs(model: Model, images: Tensor, features: Tensor | None) -> None:
    cfg = model.config
    _check_images(model, images)
    if features is None:
        if cfg.fusion_kind != "image_only":
            raise ShapeError(f"{cfg.fusion_kind} variant requires designed features")
        return
    if features.data.ndim != 2 or features.shape != (images.shape[0], cfg.n_features):
        raise ShapeError(
            f"features must be [{images.shape[0]}, {cfg.n_features}], "
            f"got {list(features.shape)}")
    if not isinstance(features, CheckedBatch) and not np.isfinite(features.data).all():
        raise DataError("features contain non-finite values")


def _run_plan(model: Model, p: Mapping[str, Tensor], images: Tensor,
              features: Tensor | None, stop: str | None = None) -> Tensor:
    """Apply the layer plan to a batch, returning early at the first ``stop`` step."""
    cfg = model.config
    x = images
    # Each op is read as a module global when it runs, so wrappers patched
    # onto this module (perfbench's tracer) see every call.
    for layer in _layer_plan(cfg):
        if layer.op == stop:
            break
        if layer.op == "conv":
            x = conv2d(x, ConvParams(*(p[name] for name in layer.params)))
        elif layer.op == "dense":
            x = dense(x, DenseParams(*(p[name] for name in layer.params)))
        elif layer.op == "relu":
            x = leaky_relu(x, cfg.leaky_slope)
        elif layer.op == "pool":
            x = maxpool2d(x)
        elif layer.op == "flatten":
            x = ad.reshape(x, (x.shape[0], *layer.shape))
        elif layer.op == "concat":
            x = concat_columns(x, features)
        elif layer.op == "fusion":
            x = fusion_weight_matrix(x, cfg.n_classes, features)
    return x


def tracked_forward(model: Model, tape: Tape, images: Tensor,
                    features: Tensor | None) -> tuple[Tensor, dict[str, Tensor]]:
    """Forward pass with every parameter watched on ``tape``.

    Returns the logits and the watched parameter tensors so a training
    step can look up each parameter's gradient by node id.
    """
    _check_inputs(model, images, features)
    watched = {name: tape.watch(Tensor(model.params[name], _own=True))
               for name in model.param_order}
    return _run_plan(model, watched, images, features), watched


def _plain_params(model: Model) -> dict[str, Tensor]:
    return {name: Tensor(model.params[name], _own=True) for name in model.param_order}


def forward(model: Model, images: Tensor, features: Tensor | None) -> Tensor:
    """Logits ``[B, n_classes]`` for a batch; no gradient recording."""
    _check_inputs(model, images, features)
    return _run_plan(model, _plain_params(model), images, features)


def predict(model: Model, images: Tensor, features: Tensor | None) -> list[int]:
    """Per-sample argmax class; ties resolve to the lowest class index."""
    logits = forward(model, images, features)
    return [int(i) for i in np.argmax(logits.data, axis=1)]


def extract_weight_matrices(model: Model, images: Tensor) -> Tensor:
    """Per-sample learned weight matrices ``[B, n_classes, n_features]``.

    Only meaningful for the ``compnet`` variant, whose logits are exactly
    these matrices applied to the designed features: the plan runs up to
    its fusion step, and the learned vector is read row-major here as the
    class x feature matrix, as the fusion itself reads it.
    """
    if model.config.fusion_kind != "compnet":
        raise VariantError(
            f"weight matrices exist only for the compnet variant, "
            f"not {model.config.fusion_kind!r}")
    _check_images(model, images)
    learned = _run_plan(model, _plain_params(model), images, None, stop="fusion")
    cfg = model.config
    return ad.reshape(learned, (learned.shape[0], cfg.n_classes, cfg.n_features))


@dataclass
class ImportanceReport:
    """Mean absolute fusion weight per (class, designed feature).

    ``ranking[k]`` lists feature indices for class ``k`` in descending
    importance (ties broken toward the lower index); ``rank_of[k][j]`` is
    feature ``j``'s position in that list, 0 being the most important.
    """
    importance: np.ndarray
    ranking: np.ndarray
    rank_of: np.ndarray


def feature_importance(model: Model, dataset) -> ImportanceReport:
    """Mean |weight matrix| over a dataset, with per-class feature rankings.

    ``NumericError`` if that mean is not finite, as it can be for a loaded
    model whose finite weights overflow.
    """
    if model.config.fusion_kind != "compnet":
        raise VariantError(
            f"feature importance requires the compnet variant, "
            f"not {model.config.fusion_kind!r}")
    n = len(dataset)
    if n == 0:
        raise DataError("feature importance needs a non-empty dataset")
    cfg = model.config
    total = np.zeros((cfg.n_classes, cfg.n_features))
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
        for part in scored_batches(lambda images, *_: np.abs(
                extract_weight_matrices(model, images).data).sum(axis=0), dataset):
            total += part
    importance = total / n
    if not np.isfinite(importance).all():
        raise NumericError("feature importance is not finite")
    ranking = np.argsort(-importance, axis=1, kind="stable")
    return ImportanceReport(importance=importance, ranking=ranking,
                            rank_of=np.argsort(ranking, axis=1))  # each row's inverse

