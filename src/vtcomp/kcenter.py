"""Greedy k-center token retention and its validation oracle.

The production path (`greedy_kcenter`) keeps one running max-similarity
vector and updates it with the cosine row of each newly selected token.
When n <= d those rows come from one clipped Gram matrix, O(n^2*d) in a
single matrix-matrix product plus O(n*k) for the updates; otherwise each
row is a matrix-vector product over the normalised tokens, O(n*k*d) in
total. The oracle, `oracle_greedy`, deliberately avoids that incremental
state: it recomputes every candidate/selected similarity from scratch at
each step. Its size guard lives in `oracle-check`, its only CLI caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EngineError

# Norms at or below this are treated as degenerate (true zero vectors at
# 32-bit scale, as opposed to merely small embeddings).
NORM_EPS = 1e-12
# Max similarities within this of the step's minimum tie, so that rounding
# differences between the incremental and the recomputed path (a few ulps)
# cannot flip which of two near-duplicate tokens is picked.
TIE_EPS = 1e-12


@dataclass(frozen=True)
class RetentionSet:
    """Ordered selection of visual-token indices, pivot first.

    ``trace`` pairs each selected index with its max similarity to the set
    at the moment of selection; the pivot carries -1.0 (empty set). The
    trace values are non-decreasing by construction of the greedy rule.
    """

    indices: tuple[int, ...]
    trace: tuple[tuple[int, float], ...]

    def __len__(self) -> int:
        return len(self.indices)


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


def _validate(n: int, pivot: int, k: int) -> None:
    if not 1 <= k <= n:
        raise EngineError(f"k={k} outside [1, {n}]")
    if not 0 <= pivot < n:
        raise EngineError(f"pivot index {pivot} outside [0, {n})")


def _pick(values: np.ndarray) -> int:
    """Lowest index among the values within TIE_EPS of the minimum."""
    return int(np.argmax(values <= values.min() + TIE_EPS))


def _cosine_rows(v: np.ndarray):
    """Function from a token index to its clipped cosine row against all
    tokens.

    When n <= d the whole clipped Gram matrix is formed once, replacing the
    normalised rows it is computed from: it is never larger than them
    (n*n <= n*d float64), and one matrix-matrix product beats re-reading the
    n x d rows at every step. When n > d the Gram matrix would be the larger
    of the two and slower to form than the k matrix-vector products it
    replaces, so each row is computed on demand. At 4608 x 64 it would take
    170 MB against 2.4 MB of rows, and 0.28-0.45 s against 0.10-0.24 s for
    k = 461 and 1152 on a 2-core Xeon with OpenBLAS.
    """
    rows = normalize_rows(v, "greedy_kcenter")
    n, d = rows.shape
    if n <= d:
        gram = rows @ rows.T
        np.clip(gram, -1.0, 1.0, out=gram)
        return gram.__getitem__

    def row(c: int) -> np.ndarray:
        out = rows @ rows[c]
        np.clip(out, -1.0, 1.0, out=out)
        return out

    return row


def greedy_kcenter(v: np.ndarray, pivot: int, k: int) -> RetentionSet:
    """Select k tokens by repeatedly taking the candidate with the smallest
    maximum cosine similarity to the current set. Candidates within TIE_EPS
    of that minimum tie, and the lowest index wins.
    """
    v = np.asarray(v)
    n = v.shape[0]
    _validate(n, pivot, k)
    cosine_row = _cosine_rows(v)

    # A copy: the Gram path hands out views into its matrix.
    # Selected tokens hold +inf, so _pick never takes one again.
    s = cosine_row(pivot).copy()
    s[pivot] = np.inf
    indices = [pivot]
    trace = [(pivot, -1.0)]

    for _ in range(k - 1):
        c = _pick(s)
        trace.append((c, float(s[c])))
        indices.append(c)
        s[c] = np.inf
        np.maximum(s, cosine_row(c), out=s)

    return RetentionSet(indices=tuple(indices), trace=tuple(trace))


def oracle_greedy(v: np.ndarray, pivot: int, k: int) -> RetentionSet:
    """Same contract as greedy_kcenter, recomputed without incremental state.

    At every step the max similarity of each remaining candidate to each
    already-selected token is evaluated afresh, O(n*k^2*d) in total.
    """
    v = np.asarray(v)
    n = v.shape[0]
    _validate(n, pivot, k)
    rows = normalize_rows(v, "oracle_greedy")

    indices = [pivot]
    trace = [(pivot, -1.0)]
    selected = np.zeros(n, dtype=bool)
    selected[pivot] = True
    for _ in range(k - 1):
        chosen = np.flatnonzero(selected)
        max_sims = np.full(n, np.inf)
        for cand in range(n):
            if not selected[cand]:
                max_sims[cand] = float(np.max(np.clip(rows[chosen] @ rows[cand], -1.0, 1.0)))
        best_idx = _pick(max_sims)
        indices.append(best_idx)
        trace.append((best_idx, float(max_sims[best_idx])))
        selected[best_idx] = True

    return RetentionSet(indices=tuple(indices), trace=tuple(trace))
