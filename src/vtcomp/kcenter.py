"""Greedy k-center token retention and its validation oracle.

The production path (`greedy_kcenter`) keeps each token's max similarity
to the selected set and picks the smallest. Every center, the pivot first,
reaches that array through one blocked flush product; between flushes a
small frontier of the least-covered tokens is kept exact through its own
clipped Gram matrix, one row of which updates it per pick: O(n*k*d) in the
flushes plus O(|frontier|^2*d) per rebuild and O(|frontier|) per pick. A tie
class too large for that Gram is flushed pick by pick, O(n*d) each. The
oracle, `oracle_greedy`, deliberately avoids that incremental state: at each
step it recomputes every selected/candidate similarity from scratch as one
(selected x n) matrix product. Its size guard lives in `oracle-check`, its
only CLI caller. Both paths break ties by one rule, `_pick`. `normalize_rows`
takes leading batch axes, and the lemma check in `theory` normalises its
tokens with it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EngineError
from .manifest import row_blocks

# Norms at or below this are treated as degenerate (true zero vectors at
# 32-bit scale, as opposed to merely small embeddings).
NORM_EPS = 1e-12
# Max similarities within this of the step's minimum tie, so that rounding
# differences between the incremental and the recomputed path (a few ulps)
# cannot flip which of two near-duplicate tokens is picked.
TIE_EPS = 1e-12
# Least frontier size of the greedy path, and the most centers per flush
# product. At 2880 x 4096 (k = 288 and 720) and 4608 x 64 (k = 461 and
# 1152), 2-core Xeon, OpenBLAS: 128 took 0.24, 0.40, 0.014 and 0.035 s,
# 256 took 0.26, 0.37, 0.014 and 0.031 s, and 512 took 0.26, 0.46, 0.023
# and 0.039 s, the larger frontier's Gram costing more at each rebuild.
FRONTIER = 256


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
    """Rows (along the last axis, under any leading batch axes) scaled to unit
    L2 norm, in a new float64 array filled one ``row_blocks`` block at a time,
    each released once cast; raises on degenerate rows with the flattened
    index of the first one."""
    # A new array, so the division runs in place without touching the caller's.
    m = np.asarray(m)
    m64 = np.empty(m.shape, dtype=np.float64)
    for start, block in row_blocks(m):
        m64[start:start + len(block)] = block
    norms = np.sqrt(np.einsum("...i,...i->...", m64, m64))
    bad = np.flatnonzero(norms <= NORM_EPS)
    if bad.size:
        raise EngineError(f"{name}: row {int(bad[0])} has near-zero norm")
    m64 /= norms[..., None]
    return m64


def _unit_rows(v, pivot: int, k: int, name: str) -> np.ndarray:
    """Both greedy paths' entry check: k and the pivot, then ``v``'s unit rows."""
    n = len(v)
    if not 1 <= k <= n:
        raise EngineError(f"k={k} outside [1, {n}]")
    if not 0 <= pivot < n:
        raise EngineError(f"pivot index {pivot} outside [0, {n})")
    return normalize_rows(v, name)


def _pick(values: np.ndarray, low: float) -> int:
    """Lowest index among the values within TIE_EPS of their minimum, low."""
    return int(np.argmax(values <= low + TIE_EPS))


def _frontier_picks(rows: np.ndarray, pivot: int, k: int):
    """Yield greedy's picks after the pivot, with their max similarities.

    ``s`` holds each token's max similarity to the centers applied to every
    token so far, a lower bound on its true value; it changes only in a
    flush, which applies the ``pending`` centers (the pivot first) in
    (FRONTIER x n) products. The frontier (``front``, values ``fs``) is kept
    exact by the row of its clipped Gram matrix for each pick, and every
    token outside it is at least ``tau``. While min(fs) + TIE_EPS < tau, the
    whole tie set of the pick lies in the frontier, so the pick is the one
    the full update would make. Otherwise a flush runs and the frontier is
    rebuilt from every unpicked token within TIE_EPS of the FRONTIER-th
    smallest value, so it passes the test. Leaving picked tokens out keeps
    its Gram small at k near n; a tie class too large for a Gram makes one
    pick from the exact ``fs`` of its rebuild, and the next step flushes it.
    """
    n = rows.shape[0]
    s, pending = np.full(n, -np.inf), [pivot]
    # An empty frontier fails the test, so the first step flushes the pivot.
    fs, tau = np.empty(0), -np.inf
    for _ in range(k - 1):
        low = fs.min(initial=np.inf)
        if not low + TIE_EPS < tau:
            for i in range(0, len(pending), FRONTIER):
                top = (rows[pending[i:i + FRONTIER]] @ rows.T).max(axis=0)
                # Clip the maxima, not s: s holds +inf for picked tokens.
                np.clip(top, -1.0, 1.0, out=top)
                np.maximum(s, top, out=s)
            s[pending] = np.inf
            pending = []
            kth = min(FRONTIER, n) - 1
            inside = s <= np.partition(s, kth)[kth] + TIE_EPS
            inside &= s < np.inf
            front = np.flatnonzero(inside)
            fs, tau = s[front], s[~inside].min(initial=np.inf)
            # A tie class can bring up to n tokens into the frontier, so its
            # Gram is formed only while no larger than the rows or a flush block.
            gram = None
            if len(front) ** 2 <= n * max(FRONTIER, rows.shape[1]):
                front_rows = rows[front]
                gram = front_rows @ front_rows.T
                np.clip(gram, -1.0, 1.0, out=gram)
            low = fs.min()
        j = _pick(fs, low)
        c = int(front[j])
        yield c, float(fs[j])
        fs[j] = np.inf
        pending.append(c)
        if gram is None:
            tau = -np.inf  # so the next step flushes this pick and rebuilds
        else:
            np.maximum(fs, gram[j], out=fs)


def greedy_kcenter(v: np.ndarray, pivot: int, k: int) -> RetentionSet:
    """Select k tokens by repeatedly taking the candidate with the smallest
    maximum cosine similarity to the current set. Candidates within TIE_EPS
    of that minimum tie, and the lowest index wins.
    """
    rows = _unit_rows(v, pivot, k, "greedy_kcenter")
    picks = _frontier_picks(rows, pivot, k)
    trace = [(pivot, -1.0), *picks]
    return RetentionSet(indices=tuple(i for i, _ in trace), trace=tuple(trace))


def oracle_greedy(v: np.ndarray, pivot: int, k: int) -> RetentionSet:
    """Same contract as greedy_kcenter, recomputed without incremental state.

    At every step the similarities of all selected tokens to all tokens are
    evaluated afresh as one (selected x n) matrix product, and each
    candidate's maximum is taken over its column: O(n*k^2*d) in total, with
    nothing carried from one step to the next but the selected indices.
    """
    rows = _unit_rows(v, pivot, k, "oracle_greedy")

    indices = [pivot]
    trace = [(pivot, -1.0)]
    # Each step overwrites its leading rows, so nothing carries over in it;
    # one allocation spares every step a newly sized temporary.
    buf = np.empty((k, len(rows)))
    for _ in range(k - 1):
        sims = np.matmul(rows[indices], rows.T, out=buf[:len(indices)])
        # Clipping is monotone, so clipping the n column maxima equals
        # taking the maxima of the clipped matrix.
        max_sims = np.clip(sims.max(axis=0), -1.0, 1.0)
        max_sims[indices] = np.inf
        best_idx = _pick(max_sims, max_sims.min())
        indices.append(best_idx)
        trace.append((best_idx, float(max_sims[best_idx])))

    return RetentionSet(indices=tuple(indices), trace=tuple(trace))
