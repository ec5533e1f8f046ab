"""Dense float64 tensors with reverse-mode automatic differentiation.

This module holds the tensor, the tape and ``backward``, and no operation:
the package's operations are the layers in :mod:`compnet.layers`, each
recorded through :func:`wrap_result`.  A ``Tape`` records each operation
together with a backward rule; ``backward`` walks the record once in
reverse and returns the gradient of every watched leaf the loss reaches.
Tensors are immutable once built, so they can be shared freely.

Determinism contract: every operation uses a fixed evaluation order, so
re-running the same graph on the same inputs is bit-identical.
"""

from __future__ import annotations

import itertools
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
        self._node_ids = itertools.count()

    def watch(self, t: Tensor) -> Tensor:
        """Return a tracked view of ``t`` as a new leaf."""
        return Tensor(t.data, _tape=self, _node_id=next(self._node_ids))

    def _record(self, out_data: np.ndarray, inputs: Sequence[Tensor | None],
                backward) -> Tensor:
        out_id = next(self._node_ids)
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
    input, in order.  It is how each layer joins the tape.
    """
    tape = _tape_of(*inputs)
    if tape is None:
        return Tensor(data)
    return tape._record(data, inputs, backward)


def backward(loss: Tensor) -> dict[int, np.ndarray]:
    """Reverse-mode gradients of a tracked scalar loss.

    Returns a map from node id to gradient array, shaped like the node, for
    exactly the watched leaves the loss reaches: each operation's output
    gradient is dropped as its rule runs, so no intermediate one is kept.
    """
    if not loss.grad_tracked:
        raise TapeError("loss tensor is not tracked on any tape")
    if loss.size != 1:
        raise ShapeError(f"loss must be a scalar, got shape {list(loss.shape)}")
    tape = loss._tape
    assert tape is not None
    grads: dict[int, np.ndarray] = {loss.node_id: np.ones(loss.shape)}
    for entry in reversed(tape._entries):
        g_out = grads.pop(entry.out_id, None)
        if g_out is None:
            continue
        in_grads = entry.backward(g_out)
        for in_id, g in zip(entry.in_ids, in_grads):
            if in_id is None or g is None:
                continue
            have = grads.get(in_id)
            grads[in_id] = g if have is None else have + g
    return grads
