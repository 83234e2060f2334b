"""Minimal dense numerical primitives shared by every other module.

Token matrices are plain ``numpy`` arrays: 2-D, row-major, one token per
row, read from float32 payloads. Both helpers compute in float64, which
keeps cancellation in check at hidden sizes up to a few thousand while
staying deterministic.
"""

from __future__ import annotations

import numpy as np

from .errors import EngineError

# Norms at or below this are treated as degenerate (true zero vectors at
# 32-bit scale, as opposed to merely small embeddings).
NORM_EPS = 1e-12


def normalize_rows(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Rows scaled to unit L2 norm, in float64; raises on degenerate rows
    with the index of the first one."""
    # Always a copy, so the division can run in place on it without
    # touching the caller's array.
    m64 = np.array(m, dtype=np.float64)
    norms = np.sqrt(np.einsum("ij,ij->i", m64, m64))
    bad = np.flatnonzero(norms <= NORM_EPS)
    if bad.size:
        raise EngineError(f"{name}: row {int(bad[0])} has near-zero norm")
    m64 /= norms[:, None]
    return m64


def softmax_row(scores: np.ndarray) -> np.ndarray:
    """Numerically safe softmax (max-subtraction) over a 1-D score vector."""
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    if s.size < 1:
        raise EngineError("softmax_row: empty score vector")
    if not np.all(np.isfinite(s)):
        raise EngineError("softmax_row: non-finite scores")
    e = np.exp(s - s.max())
    out = e / e.sum()
    return out.astype(np.float32)
