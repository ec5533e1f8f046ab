"""Differentiable network layers.

Convolution, pooling, dense, LeakyReLU and cross-entropy cover the image
pathway; ``fusion_weight_matrix(learned, n_classes, designed)`` is the
composite scoring layer that reinterprets a learned vector as an
``n_classes`` x ``n_features`` weight matrix and dots each row with the
designed-feature vector.  All layers register their backward rules on the
tape through :func:`autodiff.wrap_result`, so anything built from them
can be trained end to end.

Geometry is deliberately rigid: convolutions are valid (no padding) with
stride 1, pooling is 2x2 with stride 2, and odd spatial dimensions are a
hard error instead of a silent crop.

``ModelConfig`` and the model's layer plan fix every shape that reaches a
layer, so the layers re-check only channels, kernel fit, even pooling
dims, widths and labels; any other bad shape fails in NumPy itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, wrap_result
from .exceptions import ConfigError, DataError, NumericError, ShapeError


@dataclass
class ConvParams:
    """Kernels ``[F, C, kh, kw]`` and per-filter bias ``[F]``."""
    kernels: Tensor
    bias: Tensor


@dataclass
class DenseParams:
    """Weights ``[p, q]`` and bias ``[q]`` for a fully connected layer."""
    weights: Tensor
    bias: Tensor


def conv2d(x: Tensor, params: ConvParams) -> Tensor:
    """Valid cross-correlation, stride 1, plus per-filter bias.

    ``x`` is ``[B, C, H, W]``; the result is ``[B, F, H-kh+1, W-kw+1]``.
    The forward pass is one banded (row-Toeplitz) product: each output
    row reads the ``kh`` full-width input rows under it, ``[B*OH,
    C*kh*W]``, against a ``[C*kh*W, F*OW]`` band that holds kernel row
    ``(c, u)`` at column offset ``j`` for output column ``j``.  The band
    is ordered ``(c, kh, w)``, so each output sums the same products in
    the same order as an im2col dot product over ``(c, kh, kw)``, with
    exact zeros in between.  The im2col columns are built only in the
    backward rule, for the kernel gradient.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"conv2d input must be rank 4, got shape {list(x.shape)}")
    batch, c_in, h, w = x.shape
    f, c_k, kh, kw = params.kernels.shape
    if c_k != c_in:
        raise ShapeError(f"kernel channels {c_k} != input channels {c_in}")
    if kh > h or kw > w:
        raise ShapeError(
            f"kernel {kh}x{kw} larger than input {h}x{w}")
    oh, ow = h - kh + 1, w - kw + 1
    sliding = np.lib.stride_tricks.sliding_window_view

    # rows[b*OH + i] = x[b, :, i:i+kh, :] flattened (c, kh, w).
    rows = np.ascontiguousarray(
        sliding(x.data, kh, axis=2).transpose(0, 2, 1, 4, 3)).reshape(
        batch * oh, c_in * kh * w)
    # band[(c, u, w), (f, j)] = kernels[f, c, u, w - j] inside the kernel,
    # else 0: windows of a kernel row zero-padded to width W + OW - 1,
    # read back to front.
    padded = np.zeros((f, c_in, kh, w + ow - 1))
    padded[..., ow - 1:ow - 1 + kw] = params.kernels.data
    band = np.ascontiguousarray(
        sliding(padded, ow, axis=3)[..., ::-1].transpose(1, 2, 3, 0, 4)).reshape(
        c_in * kh * w, f * ow)
    prod = (rows @ band).reshape(batch, oh, f, ow)
    prod += params.bias.data[:, None]
    out = prod.transpose(0, 2, 1, 3)

    need_x = x.grad_tracked

    def backward(g):
        # im2col columns [B*OH*OW, C*kh*kw] for the kernel gradient, stored
        # transposed (one contiguous row per kernel tap), which is cheaper
        # to gather; the gemm reads the same values either way.
        cols_t = np.ascontiguousarray(
            sliding(x.data, (kh, kw), axis=(2, 3)).transpose(1, 4, 5, 0, 2, 3)).reshape(
            c_in * kh * kw, batch * oh * ow)
        g_cols_f = np.ascontiguousarray(
            g.reshape(batch, f, oh * ow).transpose(0, 2, 1))  # [B, OH*OW, F]
        g_k = (g_cols_f.reshape(batch * oh * ow, f).T @ cols_t.T).reshape(f, c_in, kh, kw)
        g_b = g.sum(axis=(0, 2, 3))
        if not need_x:
            return None, g_k, g_b
        # grad wrt input is the full correlation of g with the spatially
        # flipped kernels, channel roles swapped; one gemm via im2col
        # over the zero-padded output gradient.
        g_pad = np.zeros((batch, f, h + kh - 1, w + kw - 1))
        g_pad[:, :, kh - 1:kh - 1 + oh, kw - 1:kw - 1 + ow] = g
        g_wins = sliding(g_pad, (kh, kw), axis=(2, 3))
        g_cols = np.ascontiguousarray(g_wins.transpose(0, 2, 3, 1, 4, 5)).reshape(
            batch, h * w, f * kh * kw)
        k_flip = np.ascontiguousarray(
            params.kernels.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)).reshape(
            c_in, f * kh * kw)
        g_x = (g_cols @ k_flip.T).transpose(0, 2, 1).reshape(batch, c_in, h, w)
        return g_x, g_k, g_b

    return wrap_result(out, (x, params.kernels, params.bias), backward)


def maxpool2d(x: Tensor) -> Tensor:
    """2x2 max pooling with stride 2 over ``[B, C, H, W]``.

    The output is the elementwise maximum of the four strided views
    ``x[:, :, r::2, q::2]``, so nothing is copied but the result, and any
    layout of ``x`` (conv2d's transposed output included) is read in
    place.  Spatial dims must be even.  When ``x`` is tracked, each window
    also records its winner, the first maximal element, so ties route the
    gradient deterministically even on constant inputs.  The int8 winner
    is the row-major position 0-3 of that element, built without masked
    writes as ``ne0 * (1 + ne1 * (1 + ne2))`` where ``ne_i`` is 1 when
    view ``i`` differs from the maximum.
    """
    batch, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2d needs even spatial dims, got {h}x{w}")
    # Window positions in row-major order: (0,0), (0,1), (1,0), (1,1).
    views = [x.data[:, :, r::2, q::2] for r in (0, 1) for q in (0, 1)]
    out = np.maximum(views[0], views[1])
    np.maximum(out, views[2], out=out)
    np.maximum(out, views[3], out=out)
    if x.grad_tracked:
        winners = np.empty(out.shape, dtype=np.int8)
        np.not_equal(views[2], out, out=winners)
        for i in (1, 0):
            winners += 1
            winners *= views[i] != out

    def backward(g):
        # g_x[b, c, 2i + r, 2j + q] lives at slot [b, c, i, r, j, q]; every
        # slot is written, so nothing needs zeroing first.
        g_x = np.empty((batch, c, h // 2, 2, w // 2, 2), dtype=g.dtype)
        for i in range(4):
            r, q = divmod(i, 2)
            g_x[:, :, :, r, :, q] = np.where(winners == i, g, 0.0)
        return (g_x.reshape(batch, c, h, w),)

    return wrap_result(out, (x,), backward)


def dense(x: Tensor, params: DenseParams) -> Tensor:
    """Affine map ``x @ weights + bias`` over a batch ``[B, p]``."""
    p, q = params.weights.shape
    if x.shape[1] != p:
        raise ShapeError(f"dense input width {x.shape[1]} != weight rows {p}")
    out = x.data @ params.weights.data + params.bias.data

    def backward(g):
        return g @ params.weights.data.T, x.data.T @ g, g.sum(axis=0)

    return wrap_result(out, (x, params.weights, params.bias), backward)


def leaky_relu(x: Tensor, slope: float = 0.01) -> Tensor:
    """Elementwise ``x if x >= 0 else slope * x``.

    Computed as ``max(x, slope * x)``, which is the same value bit for bit
    when ``0 < slope < 1``, signed zeros and subnormals included.  The
    derivative at exactly 0 is 1 (the non-negative branch).
    """
    if not 0.0 < slope < 1.0:
        raise ConfigError(f"leaky_relu slope must be in (0, 1), got {slope}")
    out = slope * x.data
    np.maximum(x.data, out, out=out)

    def backward(g):
        return (np.where(x.data >= 0, g, slope * g),)

    return wrap_result(out, (x,), backward)


def concat_columns(a: Tensor, b: Tensor) -> Tensor:
    """Join two batches ``[B, p]`` and ``[B, q]`` into ``[B, p+q]``."""
    if a.shape[0] != b.shape[0]:
        raise ShapeError(
            f"concat_columns batch sizes differ: {a.shape[0]} vs {b.shape[0]}")
    p = a.shape[1]
    out = np.concatenate([a.data, b.data], axis=1)

    def backward(g):
        return g[:, :p], g[:, p:]

    return wrap_result(out, (a, b), backward)


def fusion_weight_matrix(learned: Tensor, n_classes: int, designed: Tensor) -> Tensor:
    """Class scores from a learned weight matrix applied to designed features.

    ``learned`` is ``[B, n_classes * n_features]`` and ``designed`` is
    ``[B, n_features]``, so ``n_features`` is read off ``designed``.  Each
    sample's learned vector is reshaped row-major into a matrix with one
    row of ``n_features`` weights per class; the score for class ``k`` is
    the dot product of row ``k`` with that sample's designed-feature
    vector.  The layer is bilinear, so the gradients are exact:
    dO_k/dW_kj is the designed feature j and dO_k/dD_j is the learned
    weight W_kj.
    """
    batch, n_features = designed.shape
    if learned.shape[1] != n_classes * n_features:
        raise ShapeError(
            f"learned width {learned.shape[1]} != {n_classes} classes x "
            f"{n_features} features")
    per_class = learned.data.reshape(batch, n_classes, n_features)
    out = np.einsum("bkn,bn->bk", per_class, designed.data)

    def backward(g):
        g_learned = (g[:, :, None] * designed.data[:, None, :]).reshape(learned.shape)
        g_designed = np.einsum("bk,bkn->bn", g, per_class)
        return g_learned, g_designed

    return wrap_result(out, (learned, designed), backward)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy of ``[B, k]`` logits against int labels.

    Computed through the fused log-sum-exp form
    ``logsumexp(row) - row[label]`` so no probability is materialized on
    the forward path.
    """
    if not np.isfinite(logits.data).all():
        raise NumericError("cross_entropy received non-finite logits")
    batch, k = logits.shape
    y = np.asarray(labels)
    if y.shape != (batch,) or not np.issubdtype(y.dtype, np.integer):
        raise DataError(f"labels must be {batch} integers, got {y.dtype} {list(y.shape)}")
    if y.min() < 0 or y.max() >= k:
        raise DataError(f"labels must lie in [0, {k}), got range "
                        f"[{int(y.min())}, {int(y.max())}]")
    row_max = logits.data.max(axis=1, keepdims=True)
    shifted = logits.data - row_max
    lse = np.log(np.exp(shifted).sum(axis=1)) + row_max[:, 0]
    picked = logits.data[np.arange(batch), y]
    out = np.asarray((lse - picked).mean(), dtype=np.float64)

    def backward(g):
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        probs[np.arange(batch), y] -= 1.0
        return (float(g) / batch * probs, None)

    return wrap_result(out, (logits, None), backward)
