"""Pivot token selection from [CLS]-to-visual attention (stage 1, step 1).

The attention is a single-projection softmax over query/key products; the
weight matrices are ingested from files and never trained. The logits are
re-associated as ``z_v @ (w_k @ (z_cls @ w_q))``: two d x d matrix-vector
products and one n x d, O(d^2 + n*d), instead of forming the n x d keys in
O(n*d^2). Each is one ``_blocked_matvec``, over ``w_q.T``, ``w_k`` or ``z_v``,
which casts one ``manifest.row_blocks`` block of the float32 operand to
float64 at a time, each released after its product; ``w_q.T``'s blocks are
strided, so ``row_blocks`` releases ``w_q`` whole after the last one. A block
keeps each output element's reduction whole, so on every bench shape the
logits equal the whole-array products bit for bit. Video logits are reshaped
to one row per frame for one ``softmax_row`` call, so that frame-wise
candidates are comparable before the cross-frame argmax. Inputs are validated
by ``load_manifest``.
"""

from __future__ import annotations

import numpy as np

from .layout import KIND_ANYRES, KIND_VIDEO, InputLayout
from .manifest import row_blocks


def softmax_row(scores: np.ndarray) -> np.ndarray:
    """Numerically safe softmax (max-subtraction) over the last axis, so each
    row of a 2-D array is its own softmax."""
    s = np.asarray(scores, dtype=np.float64)
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    out = e / e.sum(axis=-1, keepdims=True)
    # Kept on purpose: scores equal in float32 tie, so the lowest index wins
    # the pivot, and the pivot, and so every recorded report, stays as it is.
    return out.astype(np.float32)


def _blocked_matvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``m @ x`` in float64, casting one ``row_blocks`` block of ``m`` at a time."""
    # At some ragged sizes BLAS rounds a block's edge element a last bit off
    # the whole product; the float32 scores absorbed that wherever measured.
    return np.concatenate([block.astype(np.float64) @ x for _, block in row_blocks(m)])


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
    q = _blocked_matvec(np.asarray(w_q).T, np.asarray(z_cls, dtype=np.float64).reshape(-1))
    logits = _blocked_matvec(np.asarray(z_v), _blocked_matvec(np.asarray(w_k), q))
    logits /= np.sqrt(len(q))

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
