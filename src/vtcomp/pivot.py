"""Pivot token selection from [CLS]-to-visual attention (stage 1, step 1).

The attention is a single-projection softmax over query/key products; the
weight matrices are ingested from files and never trained. The logits are
re-associated as ``z_v @ (w_k @ (z_cls @ w_q))``: two d x d matrix-vector
products and one n x d, O(d^2 + n*d), instead of forming the n x d keys in
O(n*d^2). Each float32 operand is cast to float64 PIVOT_BLOCK columns (w_q)
or rows (w_k, z_v) at a time, never whole. A block keeps each output
element's reduction whole, so on every bench shape the logits equal the
whole-array products bit for bit. For video inputs the logits are reshaped
to one row per frame and one ``softmax_row`` call normalises each row, so
that frame-wise candidates are comparable before the cross-frame argmax.
The inputs are arrays whose shapes ``load_manifest`` has already validated.
"""

from __future__ import annotations

import numpy as np

from .layout import KIND_ANYRES, KIND_VIDEO, InputLayout

PIVOT_BLOCK = 256  # 8 MB at d=4096, small enough that the heap reuses its pages


def softmax_row(scores: np.ndarray) -> np.ndarray:
    """Numerically safe softmax (max-subtraction) over the last axis, so each
    row of a 2-D array is its own softmax."""
    s = np.asarray(scores, dtype=np.float64)
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    out = e / e.sum(axis=-1, keepdims=True)
    # Kept on purpose: scores equal in float32 tie, so the lowest index wins
    # the pivot, and the pivot, and so every recorded report, stays as it is.
    return out.astype(np.float32)


def cls_attention(
    z_cls: np.ndarray,
    z_v: np.ndarray,
    w_q: np.ndarray,
    w_k: np.ndarray,
    layout: InputLayout,
) -> np.ndarray:
    """Scaled dot-product attention from the [CLS] token to all visual tokens.

    Returns the softmax scores: 1-D of length n for image/anyres inputs, or
    (frames, tokens_per_frame) with one softmax row per frame for video.
    """
    z_cls = np.asarray(z_cls, dtype=np.float64).reshape(-1)
    z_v, w_q, w_k = np.asarray(z_v), np.asarray(w_q), np.asarray(w_k)
    d, b = z_cls.shape[0], PIVOT_BLOCK
    q, kq, logits = np.empty(d), np.empty(d), np.empty(z_v.shape[0])
    # At some ragged sizes BLAS rounds a block's edge element a last bit off
    # the whole product; the float32 scores absorbed that wherever measured.
    for j in range(0, d, b):
        q[j:j + b] = z_cls @ w_q[:, j:j + b].astype(np.float64)
    for i in range(0, d, b):
        kq[i:i + b] = w_k[i:i + b].astype(np.float64) @ q
    for i in range(0, len(logits), b):
        logits[i:i + b] = z_v[i:i + b].astype(np.float64) @ kq
    logits /= np.sqrt(d)

    if layout.kind == KIND_VIDEO:
        logits = logits.reshape(layout.frames, layout.tokens_per_frame)
    return softmax_row(logits)


def select_pivot(scores: np.ndarray, layout: InputLayout) -> int:
    """Index of the pivot among the visual tokens (0-based over [0, M)).

    Plain images take the global argmax, AnyRes restricts to the thumbnail,
    video takes the best (frame, token) cell and flattens it. Ties break to
    the lowest index.
    """
    if layout.kind == KIND_ANYRES:
        a, b = layout.thumbnail_range  # non-empty: InputLayout checks it
        return a + int(np.argmax(scores[a:b]))
    # Video scores flatten row-major to a*t + b; argmax keeps the lowest index.
    return int(np.argmax(scores))
