"""Dense float64 tensors with reverse-mode automatic differentiation.

Every value is a 64-bit float stored in row-major (C) order.  There is no
broadcasting: elementwise operations require exactly matching shapes, which
keeps shape bugs loud in a small codebase.  Gradients come from a ``Tape``
that records each operation together with a backward rule; ``backward``
walks the record once in reverse and returns a gradient for every tracked
node.  Tensors are immutable once built, so they can be shared freely.

Determinism contract: every operation uses a fixed evaluation order, so
re-running the same graph on the same inputs is bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .exceptions import ShapeError, TapeError

Shape = tuple[int, ...]

class Tensor:
    """Immutable dense float64 array, optionally tracked on a tape.

    ``node_id`` is the handle assigned by the owning tape; ``None`` means
    the tensor is a plain value and operations on it are not recorded.
    ``Tensor(data)`` adopts ``data`` as a float64 array without copying it
    (a float64 ndarray keeps its memory layout: conv2d's output stays a
    transposed view of its gemm result) and marks that array read-only.
    """

    __slots__ = ("data", "node_id", "_tape")

    def __init__(self, data, *, _tape: "Tape | None" = None, _node_id: int | None = None):
        arr = np.asarray(data, dtype=np.float64)
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
        return float(self.data.reshape(()))


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
        self._leaves: dict[int, Shape] = {}  # leaf node id -> shape

    def _next_node(self) -> int:
        return len(self._leaves) + len(self._entries)  # every node is one or the other

    def watch(self, t: Tensor) -> Tensor:
        """Return a tracked view of ``t`` registered as a leaf."""
        node = self._next_node()
        self._leaves[node] = t.shape
        return Tensor(t.data, _tape=self, _node_id=node)

    def _record(self, out_data: np.ndarray, inputs: Sequence[Tensor | None],
                backward) -> Tensor:
        out_id = self._next_node()
        in_ids = tuple(
            t.node_id if (t is not None and t.grad_tracked) else None
            for t in inputs
        )
        self._entries.append(_TapeEntry(out_id, in_ids, backward))
        return Tensor(out_data, _tape=self, _node_id=out_id)


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
        return Tensor(data)
    return tape._record(data, inputs, backward)


def reshape(t: Tensor, new_shape: Sequence[int]) -> Tensor:
    """Reinterpret the flat row-major data under a new shape."""
    dims = tuple(new_shape)
    if int(np.prod(dims, dtype=np.int64)) != t.size:
        raise ShapeError(
            f"cannot reshape {t.size} elements into {list(dims)}")
    out = t.data.reshape(dims)

    def backward(g):
        return (g.reshape(t.data.shape),)

    return wrap_result(out, (t,), backward)


def backward(loss: Tensor) -> dict[int, np.ndarray]:
    """Reverse-mode gradients of a tracked scalar loss.

    Returns a map from node id to gradient array, shaped like the node.
    Every watched leaf is present; leaves the loss never touched get zeros.
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
    for leaf, shape in tape._leaves.items():
        if leaf not in grads:
            grads[leaf] = np.zeros(shape)
    return grads
