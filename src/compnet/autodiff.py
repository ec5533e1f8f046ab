"""Dense float64 tensors with reverse-mode automatic differentiation.

Every value is a 64-bit float stored in row-major (C) order.  There is no
broadcasting: elementwise operations require exactly matching shapes, which
keeps shape bugs loud in a small codebase.  Gradients come from a ``Tape``
that records each operation together with a backward rule; ``backward``
walks the record once in reverse and returns a gradient for every tracked
node.  Tensors are immutable once built, so they can be shared freely.

Determinism contract: ``reduce_sum`` accumulates strictly left-to-right
over the flat data, and every other operation uses a fixed evaluation
order, so re-running the same graph on the same inputs is bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exceptions import ConfigError, NumericError, ShapeError, TapeError

Shape = tuple[int, ...]

class Tensor:
    """Immutable dense float64 array, optionally tracked on a tape.

    ``node_id`` is the handle assigned by the owning tape; ``None`` means
    the tensor is a plain value and operations on it are not recorded.
    Arrays handed over with ``_own`` keep their memory layout (conv2d's
    output stays a transposed view of its gemm result); any other input
    is copied row-major.
    """

    __slots__ = ("data", "node_id", "_tape")

    def __init__(self, data, *, _tape: "Tape | None" = None,
                 _node_id: int | None = None, _own: bool = False):
        if _own:
            arr = np.asarray(data, dtype=np.float64)
        else:
            arr = np.array(data, dtype=np.float64, order="C", copy=True)
        arr.flags.writeable = False
        self.data = arr
        self._tape = _tape
        self.node_id = _node_id

    @property
    def shape(self) -> Shape:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def grad_tracked(self) -> bool:
        return self.node_id is not None

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        tracked = f", node={self.node_id}" if self.grad_tracked else ""
        return f"Tensor(shape={list(self.shape)}{tracked})"


@dataclass
class _TapeEntry:
    out_id: int
    in_ids: tuple[int | None, ...]
    backward: Callable[[np.ndarray], tuple[np.ndarray | None, ...]]


class Tape:
    """Ordered record of operations, in topological order by construction.

    Leaves enter through :meth:`watch`; every operation on a tracked tensor
    appends one entry whose inputs already have node ids, so a single
    reverse sweep visits each node exactly once.
    """

    def __init__(self) -> None:
        self._entries: list[_TapeEntry] = []
        self._shapes: dict[int, Shape] = {}
        self._leaves: list[int] = []

    def watch(self, t: Tensor) -> Tensor:
        """Return a tracked view of ``t`` registered as a leaf."""
        node = self._new_node(t.shape)
        self._leaves.append(node)
        return Tensor(t.data, _tape=self, _node_id=node, _own=True)

    def _new_node(self, shape: Sequence[int]) -> int:
        node = len(self._shapes)
        self._shapes[node] = tuple(shape)
        return node

    def _record(self, out_data: np.ndarray, inputs: Sequence[Tensor | None],
                backward) -> Tensor:
        out_id = self._new_node(out_data.shape)
        in_ids = tuple(
            t.node_id if (t is not None and t.grad_tracked) else None
            for t in inputs
        )
        self._entries.append(_TapeEntry(out_id, in_ids, backward))
        return Tensor(out_data, _tape=self, _node_id=out_id, _own=True)


def _tape_of(*tensors: Tensor | None) -> Tape | None:
    tape = None
    for t in tensors:
        if t is None or not t.grad_tracked:
            continue
        if tape is None:
            tape = t._tape
        elif tape is not t._tape:
            raise TapeError("operands were recorded on different tapes")
    return tape


def wrap_result(data: np.ndarray, inputs: Sequence[Tensor | None], backward) -> Tensor:
    """Package an operation result, recording it when any input is tracked.

    ``backward`` maps the output gradient to one gradient (or None) per
    input, in order.  Layer primitives outside this module use the same
    hook to join the tape.
    """
    tape = _tape_of(*inputs)
    if tape is None:
        return Tensor(data, _own=True)
    return tape._record(data, inputs, backward)


def _validated_shape(shape: Sequence[int]) -> Shape:
    dims = tuple(shape)
    for d in dims:
        if not isinstance(d, (int, np.integer)) or d < 1:
            raise ShapeError(f"dimensions must be positive integers, got {list(dims)}")
    return tuple(int(d) for d in dims)


def from_array(a) -> Tensor:
    """Copy any array-like into an untracked tensor."""
    return Tensor(a)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two tensors of the same shape."""
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes {list(a.shape)} and {list(b.shape)} differ")
    out = a.data * b.data

    def backward(g):
        return g * b.data, g * a.data

    return wrap_result(out, (a, b), backward)


def reshape(t: Tensor, new_shape: Sequence[int]) -> Tensor:
    """Reinterpret the flat row-major data under a new shape."""
    dims = _validated_shape(new_shape)
    count = int(np.prod(dims, dtype=np.int64)) if dims else 1
    if count != t.size:
        raise ShapeError(
            f"cannot reshape {t.size} elements into {list(dims)}")
    out = t.data.reshape(dims)

    def backward(g):
        return (g.reshape(t.data.shape),)

    return wrap_result(out, (t,), backward)


def reduce_sum(t: Tensor) -> Tensor:
    """Sum of all elements, accumulated strictly left-to-right."""
    total = 0.0
    for v in t.data.ravel():
        total += v
    out = np.asarray(total, dtype=np.float64)

    def backward(g):
        return (np.full(t.shape, float(g)),)

    return wrap_result(out, (t,), backward)


def backward(loss: Tensor) -> dict[int, Tensor]:
    """Reverse-mode gradients of a tracked scalar loss.

    Returns a map from node id to gradient tensor.  Every watched leaf is
    present; leaves the loss never touched get zeros.
    """
    if not loss.grad_tracked:
        raise TapeError("loss tensor is not tracked on any tape")
    if loss.size != 1:
        raise ShapeError(f"loss must be a scalar, got shape {list(loss.shape)}")
    tape = loss._tape
    assert tape is not None
    grads: dict[int, np.ndarray] = {loss.node_id: np.ones(loss.shape)}
    for entry in reversed(tape._entries):
        g_out = grads.get(entry.out_id)
        if g_out is None:
            continue
        in_grads = entry.backward(g_out)
        for in_id, g in zip(entry.in_ids, in_grads):
            if in_id is None or g is None:
                continue
            have = grads.get(in_id)
            grads[in_id] = g if have is None else have + g
    for leaf in tape._leaves:
        if leaf not in grads:
            grads[leaf] = np.zeros(tape._shapes[leaf])
    return {node: Tensor(arr, _own=True) for node, arr in grads.items()}


@dataclass
class GradCheckReport:
    """Outcome of comparing reverse-mode against central differences."""
    max_rel_err: float
    passed: bool


def grad_check(fn: Callable[[Tensor], Tensor], point: Tensor,
               step: float = 1e-5, tol: float = 1e-6) -> GradCheckReport:
    """Check the tape gradient of ``fn`` at ``point`` per coordinate.

    ``fn`` must map a tensor to a scalar tensor and be deterministic.  The
    numeric side is the central difference (f(x+h*e_i) - f(x-h*e_i))/(2h);
    relative error is |a-n| / max(1e-12, |a|, |n|).
    """
    if step <= 0 or tol <= 0:
        raise ConfigError("grad_check needs positive step and tol")
    tape = Tape()
    x = tape.watch(point)
    out = fn(x)
    if out.size != 1:
        raise ShapeError("grad_check target must return a scalar")
    if not np.isfinite(out.data).all():
        raise NumericError("function value is not finite at the test point")
    analytic = backward(out)[x.node_id].data.ravel()

    flat = point.data.ravel()
    numeric = np.empty_like(analytic)
    for i in range(flat.size):
        for sign in (+1.0, -1.0):
            bumped = flat.copy()
            bumped[i] += sign * step
            val = fn(Tensor(bumped.reshape(point.shape), _own=True)).item()
            if not np.isfinite(val):
                raise NumericError(
                    f"function value is not finite at coordinate {i}")
            if sign > 0:
                hi = val
            else:
                lo = val
        numeric[i] = (hi - lo) / (2.0 * step)

    denom = np.maximum(1e-12, np.maximum(np.abs(analytic), np.abs(numeric)))
    rel = np.abs(analytic - numeric) / denom
    max_rel = float(rel.max()) if rel.size else 0.0
    return GradCheckReport(max_rel_err=max_rel, passed=max_rel <= tol)
