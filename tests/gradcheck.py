"""Graph-building helpers and the central-difference gradient reference that
the tests check the tape against; the package itself never calls them."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from compnet.autodiff import Tape, Tensor, backward, wrap_result
from compnet.exceptions import ConfigError, NumericError, ShapeError


def from_array(a) -> Tensor:
    """Copy any array-like, row-major, into an untracked tensor."""
    return Tensor(np.array(a, dtype=np.float64, order="C"))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two tensors of the same shape."""
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes {list(a.shape)} and {list(b.shape)} differ")
    out = a.data * b.data

    def backward(g):
        return g * b.data, g * a.data

    return wrap_result(out, (a, b), backward)


def reduce_sum(t: Tensor) -> Tensor:
    """Sum of all elements, accumulated strictly left-to-right."""
    total = 0.0
    for v in t.data.ravel():
        total += v
    out = np.asarray(total, dtype=np.float64)

    def backward(g):
        return (np.full(t.shape, float(g)),)

    return wrap_result(out, (t,), backward)


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
    analytic = backward(out)[x.node_id].ravel()

    flat = point.data.ravel()
    numeric = np.empty_like(analytic)
    for i in range(flat.size):
        for sign in (+1.0, -1.0):
            bumped = flat.copy()
            bumped[i] += sign * step
            val = fn(Tensor(bumped.reshape(point.shape))).item()
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
