"""Slow, obviously-correct reference implementations used as test oracles.

Everything here is written with explicit Python loops over indices so the
vectorized library code is checked against an independent computation,
not against itself.
"""

import numpy as np


def conv2d_ref(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Valid cross-correlation, stride 1, one bias per output filter."""
    batch, c_in, h, w = x.shape
    f, c_k, kh, kw = kernels.shape
    assert c_in == c_k
    oh, ow = h - kh + 1, w - kw + 1
    out = np.zeros((batch, f, oh, ow))
    for b in range(batch):
        for fi in range(f):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for c in range(c_in):
                        for u in range(kh):
                            for v in range(kw):
                                acc += x[b, c, i + u, j + v] * kernels[fi, c, u, v]
                    out[b, fi, i, j] = acc + bias[fi]
    return out


def maxpool2d_ref(x: np.ndarray) -> np.ndarray:
    """2x2 window, stride 2 max pooling."""
    batch, c, h, w = x.shape
    assert h % 2 == 0 and w % 2 == 0
    out = np.zeros((batch, c, h // 2, w // 2))
    for b in range(batch):
        for ci in range(c):
            for i in range(0, h, 2):
                for j in range(0, w, 2):
                    m = x[b, ci, i, j]
                    for u in range(2):
                        for v in range(2):
                            if x[b, ci, i + u, j + v] > m:
                                m = x[b, ci, i + u, j + v]
                    out[b, ci, i // 2, j // 2] = m
    return out


def maxpool2d_grad_ref(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Input gradient of 2x2 pooling: each window's ``g`` goes to its first
    maximal element in row-major order."""
    batch, c, h, w = x.shape
    out = np.zeros_like(x)
    for b in range(batch):
        for ci in range(c):
            for i in range(0, h, 2):
                for j in range(0, w, 2):
                    best_u, best_v = 0, 0
                    for u in range(2):
                        for v in range(2):
                            if x[b, ci, i + u, j + v] > x[b, ci, i + best_u, j + best_v]:
                                best_u, best_v = u, v
                    out[b, ci, i + best_u, j + best_v] = g[b, ci, i // 2, j // 2]
    return out


def dense_ref(x: np.ndarray, weights: np.ndarray, bias: np.ndarray) -> np.ndarray:
    batch, p = x.shape
    p2, q = weights.shape
    assert p == p2
    out = np.zeros((batch, q))
    for b in range(batch):
        for j in range(q):
            acc = 0.0
            for t in range(p):
                acc += x[b, t] * weights[t, j]
            out[b, j] = acc + bias[j]
    return out


def fusion_ref(learned: np.ndarray, n_classes: int, n_features: int,
               designed: np.ndarray) -> np.ndarray:
    """Reshape each learned row to a per-class weight matrix, then dot rows."""
    batch, m = learned.shape
    assert m == n_classes * n_features
    out = np.zeros((batch, n_classes))
    for b in range(batch):
        mat = learned[b].reshape(n_classes, n_features)
        for k in range(n_classes):
            acc = 0.0
            for j in range(n_features):
                acc += mat[k, j] * designed[b, j]
            out[b, k] = acc
    return out


def softmax_cross_entropy_ref(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log softmax probability of the true class."""
    total = 0.0
    for i in range(logits.shape[0]):
        row = logits[i] - logits[i].max()
        probs = np.exp(row) / np.exp(row).sum()
        total += -np.log(probs[labels[i]])
    return total / logits.shape[0]
