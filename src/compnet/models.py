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
plan holds.  It splits at the first step that reads the designed
features: ``image_pathway`` runs the steps before it on the image alone
(for ``compnet``, up to the class x feature weight matrix), ``head`` the
rest (none for ``image_only``), and ``forward`` is the head applied to
the pathway.  Every scoring pass runs the pathway through
``_pathway_batches`` and the head in this process: a long pass runs the
pathway on forked children, which ``compnet eval`` and ``compnet
importance`` start before they read the dataset's tables, and a short one
batch by batch in this process.

A model computes on finite arrays and checks only their shapes.  The
program makes them finite where they enter: a ``Dataset`` checks its
columns when it is built, a scoring pass checks each batch of pixels right
before the pathway reads it, in the process that runs it
(``_pathway_batches``), and ``data.zscore_features`` checks the designed
features it returns.  A non-finite value that still reaches a loss or an
evaluation ends in ``cross_entropy``'s ``NumericError``.

Parameters are plain float64 arrays owned by the ``Model``; a forward
pass wraps them in tensors, optionally watched on a tape so the training
loop can pull gradients for every parameter.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass
from typing import Iterator, Mapping, NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .config import DictConfig, require_min
from .data import first_non_finite_row
from .exceptions import (ConfigError, DataError, NonFiniteRow, NumericError, ShapeError,
                         VariantError)
from .layers import (ConvParams, DenseParams, concat_columns, conv2d, dense,
                     fusion_weight_matrix, leaky_relu, maxpool2d)

FUSION_KINDS = ("compnet", "concat", "image_only")
# Rows per forward-only pass when scoring or explaining a whole dataset.
EVAL_BATCH = 256
# Batches each child must get before a scoring pass forks, and the fewest in one run.
# Forking on every evaluate slowed `compnet train` (2,000 samples, 2 epochs) from 0.48
# to 0.71 s: a child's first B=256 batch, faulting its heap in afresh, took 13-17 ms
# against 7 ms.  At 8, every evaluation in the benchmark's and acceptance gate's fits
# (<= 6 batches) stays in-process.
MIN_CHILD_BATCHES = 8
# Image-pathway output in one child's run of a scoring pass.  The caller holds at most
# one run per child beyond the one it reads, so a long pass does not hold its whole
# output; the benchmark's 16,000-sample pass (32 learned columns, 4 MB) is two runs.
JOB_BYTES = 4 * 2**20


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


@contextlib.contextmanager
def _pathway_batches(model: Model, images: np.ndarray):
    """Yield an iterator over :func:`image_pathway`'s output array for each
    ``EVAL_BATCH`` batch of ``images``, in batch order.

    With ``MIN_CHILD_BATCHES`` batches for each of ``default_jobs()`` (2)
    children, forked children compute runs of batches from the moment the
    ``with`` block is entered, each run at most ``JOB_BYTES`` of output (but
    ``MIN_CHILD_BATCHES`` batches at least), and at most one run per child
    ahead of the caller; the first exception in batch order is raised when its
    batch is reached, and no child outlives the block.  A shorter pass never
    loads ``multiprocessing``: this process computes each batch when the
    caller reads it.  Either way each batch's pixels are read where the
    pathway runs on them, and checked there first, with one sum unless it is
    not finite: a batch holding a non-finite pixel raises
    :class:`NonFiniteRow` with the row of the first, in place of its output.
    """
    def run(start: int, stop: int) -> list[np.ndarray]:
        learned = []
        for i in range(start, stop, EVAL_BATCH):
            batch = images[i:i + EVAL_BATCH]
            row = first_non_finite_row(batch)
            if row is not None:
                raise NonFiniteRow(i + row)
            with np.errstate(over="ignore", invalid="ignore"):  # the caller's checks report it
                learned.append(image_pathway(model, Tensor(batch)).data)
        return learned

    n_batches = -(-len(images) // EVAL_BATCH)
    workers = min(default_jobs(), n_batches // MIN_CHILD_BATCHES)
    if workers < 2:
        yield (run(i, i + EVAL_BATCH)[0] for i in range(0, len(images), EVAL_BATCH))
        return
    from .forkpool import ordered_results  # see its module docstring
    width = next(layer.shape[1] for layer in reversed(_halves(model.config)[0])
                 if layer.op == "dense")
    per_run = max(MIN_CHILD_BATCHES, min(-(-n_batches // workers),
                                         JOB_BYTES // (8 * EVAL_BATCH * width)))
    cuts = list(range(0, len(images), per_run * EVAL_BATCH)) + [len(images)]
    with ordered_results(run, list(zip(cuts, cuts[1:])), workers, ahead=workers) as runs:
        yield (learned for part in runs for learned in part)


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
        # param_shapes raises ConfigError if the conv/pool chain is impossible
        n_bytes = 8 * sum(math.prod(shape) for shape in param_shapes(self).values())
        if n_bytes > np.iinfo(np.intp).max:
            raise ConfigError(f"the parameters need {n_bytes} bytes, past NumPy's limit")


@dataclass
class Model:
    """A built network: config and named parameters, in plan order (:func:`param_shapes`)."""
    config: ModelConfig
    params: dict[str, np.ndarray]


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


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Each parameter's shape in Python ints, in plan order: conv stages, then the
    dense stack, then the output layer, each layer's weight before its bias."""
    shapes = {}
    for layer in _layer_plan(cfg):
        if layer.params:
            weight, bias = layer.params
            shapes[weight] = layer.shape
            shapes[bias] = (layer.shape[0 if layer.op == "conv" else 1],)
    return shapes


def build_model(cfg: ModelConfig) -> Model:
    """Initialize a model from the seeded scheme: uniform Glorot weights, zero biases.

    Weights are drawn in the order of :func:`param_shapes`, so a given
    ``(config, seed)`` always yields bit-identical parameters.
    """
    rng = np.random.default_rng(cfg.seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(cfg).items():
        if len(shape) == 1:  # a bias
            params[name] = np.zeros(shape)
        else:
            # fan_in + fan_out is size/shape[0] + size/shape[1] both for conv
            # kernels [F, C, kh, kw] and for dense weights [p, q].
            size = math.prod(shape)
            s = float(np.sqrt(6.0 / (size // shape[0] + size // shape[1])))
            params[name] = rng.uniform(-s, s, size=shape)
    return Model(config=cfg, params=params)


def _check_images(model: Model, images: Tensor) -> None:
    cfg = model.config
    if images.data.ndim != 4 or images.shape[1:] != cfg.image_shape:
        raise ShapeError(
            f"images must be [B, {', '.join(map(str, cfg.image_shape))}], "
            f"got {list(images.shape)}")


def _check_features(model: Model, batch: int, features: Tensor | None) -> None:
    cfg = model.config
    if features is None:
        if cfg.fusion_kind != "image_only":
            raise ShapeError(f"{cfg.fusion_kind} variant requires designed features")
    elif features.data.ndim != 2 or features.shape != (batch, cfg.n_features):
        raise ShapeError(
            f"features must be [{batch}, {cfg.n_features}], got {list(features.shape)}")


def _halves(cfg: ModelConfig) -> tuple[list[_Layer], list[_Layer]]:
    """The plan split before its first step that reads the designed features:
    the image pathway, then the head."""
    plan = _layer_plan(cfg)
    cut = next((i for i, layer in enumerate(plan) if layer.op in ("concat", "fusion")),
               len(plan))
    return plan[:cut], plan[cut:]


def _run_plan(model: Model, p: Mapping[str, Tensor], x: Tensor,
              features: Tensor | None, steps: list[_Layer]) -> Tensor:
    """Apply ``steps`` of the layer plan to ``x``."""
    cfg = model.config
    # Each op is read as a module global when it runs, so wrappers patched
    # onto this module (perfbench's tracer) see every call.
    for layer in steps:
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
    """:func:`forward` with every parameter watched on ``tape``.

    Returns the logits and the watched parameter tensors so a training
    step can look up each parameter's gradient by node id.
    """
    watched = {name: tape.watch(Tensor(p)) for name, p in model.params.items()}
    return forward(model, images, features, watched), watched


def _plain_params(model: Model) -> dict[str, Tensor]:
    return {name: Tensor(p) for name, p in model.params.items()}


def forward(model: Model, images: Tensor, features: Tensor | None,
            params: Mapping[str, Tensor] | None = None) -> Tensor:
    """Logits ``[B, n_classes]`` for a batch: the whole plan, :func:`head`
    applied to :func:`image_pathway`, over ``params`` (unwatched tensors of
    the model's own parameters by default)."""
    _check_images(model, images)
    _check_features(model, images.shape[0], features)
    return _run_plan(model, _plain_params(model) if params is None else params,
                     images, features, _layer_plan(model.config))


def image_pathway(model: Model, images: Tensor) -> Tensor:
    """The plan's steps before the first that reads designed features, for a
    batch: ``[B, n_classes * n_features]`` learned vectors for ``compnet``,
    the first hidden layer's activations for ``concat``, the logits for
    ``image_only``.  No gradient recording."""
    _check_images(model, images)
    return _run_plan(model, _plain_params(model), images, None, _halves(model.config)[0])


def head(model: Model, learned: Tensor, features: Tensor | None) -> Tensor:
    """Logits from a batch's :func:`image_pathway` output and its designed features."""
    _check_features(model, learned.shape[0], features)
    return _run_plan(model, _plain_params(model), learned, features, _halves(model.config)[1])


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

    ``VariantError`` for a model other than ``compnet``, before any pass starts.
    """
    require_weight_matrix(model)
    with _pathway_batches(model, dataset.images) as learned:
        return _importance_report(model, len(dataset), learned)


def require_weight_matrix(model: Model) -> None:
    """``VariantError`` unless ``model`` is a ``compnet`` model, the one variant
    with a per-sample class x feature weight matrix to rank features by."""
    if model.config.fusion_kind != "compnet":
        raise VariantError(f"feature importance requires the compnet variant, "
                           f"not {model.config.fusion_kind!r}")


def _importance_report(model: Model, n: int, learned: Iterator[np.ndarray]
                       ) -> ImportanceReport:
    """:func:`feature_importance` of ``n`` samples of a ``compnet`` model, reading
    their learned vectors from ``learned`` (:func:`_pathway_batches` of their
    images), a batch at a time.

    ``NumericError`` if the mean is not finite, as it can be for a loaded
    model whose finite weights overflow.
    """
    cfg = model.config
    if n == 0:
        raise DataError("feature importance needs a non-empty dataset")
    total = np.zeros((cfg.n_classes, cfg.n_features))
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports it
        for batch in learned:
            total += np.abs(batch.reshape(-1, cfg.n_classes, cfg.n_features)).sum(axis=0)
    importance = total / n
    if not np.isfinite(importance).all():
        raise NumericError("feature importance is not finite")
    ranking = np.argsort(-importance, axis=1, kind="stable")
    return ImportanceReport(importance=importance, ranking=ranking,
                            rank_of=np.argsort(ranking, axis=1))  # each row's inverse
