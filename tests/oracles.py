"""Exhaustive referees for greedy k-center: the covering radius of a
center set and the brute-force optimum it is compared against in the
2-approximation check (Gonzalez 1985).
"""

from itertools import combinations

import numpy as np

from vtcomp.errors import EngineError
from vtcomp.kcenter import normalize_rows

EXHAUSTIVE_MAX_N = 12
EXHAUSTIVE_MAX_K = 5


def covering_radius(v: np.ndarray, centers) -> float:
    """Max over tokens of the chordal distance to the nearest center.

    Chordal distance is the Euclidean distance between unit-normalized
    rows; farthest-point order under it matches greedy order under
    min-max cosine similarity.
    """
    rows = normalize_rows(v, "covering_radius")
    centers = list(centers)
    diffs = rows[:, None, :] - rows[None, centers, :]
    dists = np.sqrt(np.einsum("ijk,ijk->ij", diffs, diffs))
    return float(dists.min(axis=1).max())


def optimal_kcenter_radius(v: np.ndarray, k: int) -> float:
    """Exact optimum of the k-center covering radius in chordal distance.

    Brute force over all C(n, k) center subsets; guarded to n <= 12, k <= 5.
    """
    v = np.asarray(v)
    n = v.shape[0]
    if n > EXHAUSTIVE_MAX_N or k > EXHAUSTIVE_MAX_K:
        raise EngineError(
            f"optimal_kcenter_radius: n={n}, k={k} exceeds guard (n <= {EXHAUSTIVE_MAX_N}, k <= {EXHAUSTIVE_MAX_K})")
    if not 1 <= k <= n:
        raise EngineError(f"k={k} outside [1, {n}]")
    if k == n:
        return 0.0

    rows = normalize_rows(v, "optimal_kcenter_radius")
    diffs = rows[:, None, :] - rows[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diffs, diffs))
    best = np.inf
    for subset in combinations(range(n), k):
        r = dist[:, subset].min(axis=1).max()
        if r < best:
            best = r
    return float(best)
