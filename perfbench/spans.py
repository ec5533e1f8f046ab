"""In-memory span tracer that times compnet's layers from outside the package.

A span is ``(name, start, end, parent, run id)`` plus a few attributes
(batch size, sample count, bytes).  ``Tracer.install`` replaces the module
attributes that ``compnet.cli``, ``compnet.train`` and ``compnet.models``
look up at call time with timing wrappers, and ``uninstall`` puts the
originals back, so nothing under ``src/`` is edited and untraced runs pay
nothing.  Per-op backward time comes from wrapping the backward rule that
each traced layer call records on its tape.

Span names are ``<layer>.<function>``; the layer is one of ``data``,
``autodiff``, ``layers``, ``models``, ``train`` and ``cli``.  Spans stay in
memory; the caller writes them out once at the end of a run.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

LAYERS = ("data", "autodiff", "layers", "models", "train", "cli")
OPS = ("conv2d", "maxpool2d", "leaky_relu", "dense", "concat_columns",
       "fusion_weight_matrix", "cross_entropy")
_MB = 1e6
_F64 = 8


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans; -1 for a root span
    run: str
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


def _batch(x) -> int:
    return int(x.shape[0])


def _conv_attrs(x, params):
    b, c, h, w = x.shape
    _, _, kh, kw = params.kernels.shape
    cols = b * (h - kh + 1) * (w - kw + 1) * c * kh * kw * _F64
    return {"batch": b, "bytes": cols}


def _pool_attrs(x):
    b, c, h, w = x.shape
    return {"batch": b, "bytes": b * c * (h // 2) * (w // 2) * 4 * _F64}


def _dataset_attrs(ds):
    return {"n": len(ds), "split": ds.provenance.get("split", "all")}


def _dir_bytes(path):
    p = Path(path)
    p = p if p.is_dir() else p.parent
    return {"bytes": sum(f.stat().st_size for f in p.iterdir() if f.is_file())}


class Tracer:
    """Records spans for the calls made while it is installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn, args=(), kwargs=None, attrs=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.run, attrs if attrs is not None else {})
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, attrs_of=None, op=None):
        def wrapper(*args, **kwargs):
            attrs = attrs_of(*args, **kwargs) if attrs_of else {}
            result = self.call(name, fn, args, kwargs, attrs)
            if op is not None and result.grad_tracked:
                # The rule this call just recorded is the tape's last entry.
                entry = result._tape._entries[-1]
                entry.backward = self._wrap(f"layers.{op}.bwd", entry.backward,
                                            lambda g: {"batch": attrs["batch"]})
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Wrap compnet's layer boundaries until :meth:`uninstall`."""
        from compnet import cli, models, train

        def loss_ops(loss):
            return {"ops": len(loss._tape._entries)}

        plan = [
            (cli, "run_training", "cli.run_training", None),
            (cli, "run_comparison", "cli.run_comparison", None),
            (cli, "generate_synthetic", "data.generate_synthetic", None),
            (cli, "save_dataset", "data.save_dataset", None),
            (cli, "load_dataset", "data.load_dataset", _dir_bytes),
            (cli, "split", "data.split", None),
            (cli, "zscore_fit", "data.zscore_fit", None),
            (cli, "zscore_apply", "data.zscore_apply", None),
            (cli, "build_model", "models.build_model", None),
            (cli, "feature_importance", "models.feature_importance", None),
            (cli, "fit", "train.fit", None),
            (cli, "evaluate", "train.evaluate", lambda m, ds: _dataset_attrs(ds)),
            (cli, "checkpoint_save", "train.checkpoint_save", None),
            (cli, "checkpoint_load", "train.checkpoint_load", None),
            (train, "train_epoch", "train.train_epoch",
             lambda m, ds, *a: _dataset_attrs(ds)),
            (train, "evaluate", "train.evaluate", lambda m, ds: _dataset_attrs(ds)),
            (train, "sgd_momentum_step", "train.sgd_momentum_step", None),
            (train, "backward", "autodiff.backward", loss_ops),
            (models, "forward", "models.forward",
             lambda m, images, *a: {"batch": _batch(images)}),
            (models, "tracked_forward", "models.tracked_forward",
             lambda m, tape, images, *a: {"batch": _batch(images)}),
            (models, "build_model", "models.build_model", None),
        ]
        for module, attr, name, attrs_of in plan:
            self._patch(module, attr, self._wrap(name, getattr(module, attr), attrs_of))
        ops = [
            (train, "cross_entropy", lambda logits, y: {"batch": _batch(logits)}),
            (models, "conv2d", _conv_attrs),
            (models, "maxpool2d", _pool_attrs),
            (models, "leaky_relu", lambda x, *a: {"batch": _batch(x)}),
            (models, "dense", lambda x, p: {"batch": _batch(x)}),
            (models, "concat_columns", lambda a, b: {"batch": _batch(a)}),
            (models, "fusion_weight_matrix",
             lambda learned, shape, d: {"batch": _batch(learned)}),
        ]
        for module, op, attrs_of in ops:
            self._patch(module, op, self._wrap(f"layers.{op}.fwd",
                                               getattr(module, op), attrs_of, op))

    def _patch(self, module, attr, new) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# analysis


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.dur
    return [s.dur - c for s, c in zip(spans, covered)]


def check_nesting(spans: list[Span]) -> list[str]:
    """Problems with the span tree: children outside parents, overlapping siblings."""
    problems = []
    last_child_end: dict[int, float] = {}
    for i, s in enumerate(spans):
        if s.end < s.start:
            problems.append(f"span {i} {s.name} ends before it starts")
        if s.parent < 0:
            continue
        p = spans[s.parent]
        if s.parent >= i or s.start < p.start or s.end > p.end or s.run != p.run:
            problems.append(f"span {i} {s.name} is not inside its parent {p.name}")
        if s.start < last_child_end.get(s.parent, float("-inf")):
            problems.append(f"span {i} {s.name} overlaps an earlier sibling")
        last_child_end[s.parent] = s.end
    return problems


TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with >= 10 samples above it."""
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0
    ordered = sorted(values)
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10:
            break
    else:
        pct = 50.0
    return ordered[min(n - 1, int(pct / 100.0 * n))], pct, n


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _steps_ms(spans: list[Span]) -> list[float]:
    """Train-step durations: tracked forward start to the matching SGD update end."""
    steps = []
    start_of: dict[int, float] = {}
    for s in spans:
        if s.name == "models.tracked_forward":
            start_of[s.parent] = s.start
        elif s.name == "train.sgd_momentum_step" and s.parent in start_of:
            steps.append(1e3 * (s.end - start_of.pop(s.parent)))
    return steps


def layer_metrics(spans: list[Span], work_runs: set[str], setup_runs: set[str]
                  ) -> dict[str, float]:
    """Per-layer metrics, normalised per workload repetition (per set-up for set-up spans).

    ``_s`` totals are inclusive time inside the named call, except
    ``autodiff.backward_s`` and ``<layer>.self_s``, which are self time.
    """
    own = self_times(spans)
    reps = max(1, len(work_runs))
    work = [(s, t) for s, t in zip(spans, own) if s.run in work_runs]
    by_name: dict[str, list[tuple[Span, float]]] = {}
    for s, t in work:
        by_name.setdefault(s.name, []).append((s, t))

    def total(name, where=lambda s: True):
        return sum(s.dur for s, _ in by_name.get(name, ()) if where(s)) / reps

    def count(name):
        return len(by_name.get(name, ())) / reps

    def ms_at(name, batch):
        return _median(1e3 * s.dur for s, _ in by_name.get(name, ())
                       if s.attrs.get("batch") == batch)

    def mb_at(name, batch):
        return max((s.attrs["bytes"] / _MB for s, _ in by_name.get(name, ())
                    if s.attrs.get("batch") == batch), default=0.0)

    m: dict[str, float] = {}
    for op in OPS:
        fwd, bwd = f"layers.{op}.fwd", f"layers.{op}.bwd"
        m[f"layers.{op}.fwd_s"] = total(fwd)
        m[f"layers.{op}.bwd_s"] = total(bwd)
        m[f"layers.{op}.calls"] = count(fwd)
        m[f"layers.{op}.fwd_ms_b64"] = ms_at(fwd, 64)
        m[f"layers.{op}.bwd_ms_b64"] = ms_at(bwd, 64)
        m[f"layers.{op}.fwd_ms_b256"] = ms_at(fwd, 256)
    m["layers.conv2d.cols_mb_b64"] = mb_at("layers.conv2d.fwd", 64)
    m["layers.conv2d.cols_mb_b256"] = mb_at("layers.conv2d.fwd", 256)
    m["layers.maxpool2d.window_mb_b256"] = mb_at("layers.maxpool2d.fwd", 256)

    sweeps = by_name.get("autodiff.backward", [])
    m["autodiff.backward_s"] = sum(t for _, t in sweeps) / reps
    m["autodiff.backward_ms_p50"] = _median(1e3 * t for _, t in sweeps)
    m["autodiff.ops_per_step"] = _median(s.attrs["ops"] for s, _ in sweeps)

    steps = _steps_ms([s for s, _ in work])
    step_tail, step_pct, step_n = tail(steps)
    trained = sum(s.attrs["n"] for s, _ in by_name.get("train.train_epoch", ()))
    scored = sum(s.attrs["n"] for s, _ in by_name.get("train.evaluate", ()))
    m["train.train_epoch_s"] = total("train.train_epoch")
    m["train.step_ms_p50"] = _median(steps)
    m["train.step_ms_tail"] = step_tail
    m["train.step_ms_tail_pct"] = step_pct
    m["train.step_ms_tail_n"] = step_n
    m["train.sgd_momentum_step_s"] = total("train.sgd_momentum_step")
    m["train.evaluate_train_s"] = total("train.evaluate",
                                        lambda s: s.attrs["split"] == "train")
    m["train.evaluate_test_s"] = total("train.evaluate",
                                       lambda s: s.attrs["split"] == "test")
    m["train.eval_per_train_sample"] = scored / trained if trained else 0.0
    m["train.checkpoint_save_s"] = total("train.checkpoint_save")
    m["train.checkpoint_load_s"] = total("train.checkpoint_load")

    fwd256 = [1e3 * s.dur for s, _ in by_name.get("models.forward", ())
              if s.attrs["batch"] == 256]
    fwd_tail, fwd_pct, fwd_n = tail(fwd256)
    m["models.forward_s"] = total("models.forward")
    m["models.forward_ms_p50"] = _median(fwd256)
    m["models.forward_ms_tail"] = fwd_tail
    m["models.forward_ms_tail_pct"] = fwd_pct
    m["models.forward_ms_tail_n"] = fwd_n
    m["models.tracked_forward_s"] = total("models.tracked_forward")
    m["models.feature_importance_s"] = total("models.feature_importance")
    m["models.build_model_s"] = total("models.build_model")

    setups = max(1, len(setup_runs))
    for name in ("generate_synthetic", "save_dataset"):
        m[f"data.{name}_s"] = sum(s.dur for s in spans if s.run in setup_runs
                                  and s.name == f"data.{name}") / setups
    loads = by_name.get("data.load_dataset", [])
    load_s = sum(s.dur for s, _ in loads)
    m["data.load_dataset_s"] = load_s / reps
    m["data.load_mb_per_s"] = (sum(s.attrs["bytes"] for s, _ in loads) / _MB / load_s
                               if load_s else 0.0)
    for name in ("split", "zscore_fit", "zscore_apply"):
        m[f"data.{name}_s"] = total(f"data.{name}")

    m["cli.run_training_s"] = total("cli.run_training")
    m["cli.run_training_calls"] = count("cli.run_training")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for s, t in work
                                   if s.name.split(".", 1)[0] == layer) / reps
    return m
