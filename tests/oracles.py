"""Referees for the array-at-a-time code: the covering radius of a
center set and the brute-force optimum it is compared against in the
2-approximation check (Gonzalez 1985), a loop-at-a-time version of
`oracle_greedy`, a serial replay of the lemma's per-chunk random streams,
and two referees for the lemma's closed-form standard error: the same
formula one trial at a time, and a bootstrap gathered by index, which
estimates the same quantity by Monte Carlo.
"""

import math
from itertools import combinations

import numpy as np

from vtcomp.errors import EngineError
from vtcomp.kcenter import TIE_EPS, RetentionSet, normalize_rows
from vtcomp.theory import (TRIAL_CHUNK, diversity_batch, make_orthogonal_bases, projected_mean,
                           redundancy_batch)

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


def nested_loop_greedy(v: np.ndarray, pivot: int, k: int) -> RetentionSet:
    """oracle_greedy one candidate at a time: each remaining candidate's max
    similarity to the selected set comes from its own matrix-vector product."""
    rows = normalize_rows(v, "nested_loop_greedy")
    n = rows.shape[0]
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
        best_idx = int(np.argmax(max_sims <= max_sims.min() + TIE_EPS))
        indices.append(best_idx)
        trace.append((best_idx, float(max_sims[best_idx])))
        selected[best_idx] = True
    return RetentionSet(indices=tuple(indices), trace=tuple(trace))


def replay_measures(trial, num_trials: int, negative_control: bool):
    """(diversity, redundancy) of covariance_experiment, replayed serially
    with no pool: the bases from the trial seed's generator, then each whole
    chunk of trials from its own stream, child i of the seed's
    SeedSequence spawned once per chunk."""
    w_v, w_t = make_orthogonal_bases(np.random.default_rng(trial.seed), trial.ambient_dim,
                                     trial.subdim, trial.subdim)
    if negative_control:
        w_t = w_v
    starts = range(0, num_trials, TRIAL_CHUNK)
    d_parts, r_parts = [], []
    for done, stream in zip(starts, np.random.SeedSequence(trial.seed).spawn(len(starts))):
        rng = np.random.default_rng(stream)
        b = min(TRIAL_CHUNK, num_trials - done)
        v = rng.standard_normal((b, trial.n_visual, trial.ambient_dim))
        if negative_control:
            t_tokens = v[:, : trial.n_text, :]
        else:
            t_tokens = rng.standard_normal((b, trial.n_text, trial.ambient_dim))
        d_parts.append(diversity_batch(v, w_v, trial.kernel))
        r_parts.append(redundancy_batch(projected_mean(v, w_t, "visual"), t_tokens, w_t, trial.kernel))
    return np.concatenate(d_parts), np.concatenate(r_parts)


def sample_covariance(d_all: np.ndarray, r_all: np.ndarray) -> float:
    """The sample covariance of the measures, in covariance_experiment's
    numpy expression, so that a replay gives the same bits."""
    return float(((d_all - d_all.mean()) * (r_all - r_all.mean())).sum() / (len(d_all) - 1))


def loop_standard_error(d_all: np.ndarray, r_all: np.ndarray) -> float:
    """The closed-form standard error of the sample covariance, one trial at a
    time in Python floats: with p_i = (d_i - d̄)(r_i - r̄), it is
    sqrt(Σ(p_i - p̄)² / ((N-1)·N))."""
    n = len(d_all)
    d_bar = sum(float(x) for x in d_all) / n
    r_bar = sum(float(x) for x in r_all) / n
    products = [(float(d) - d_bar) * (float(r) - r_bar) for d, r in zip(d_all, r_all)]
    p_bar = sum(products) / n
    return math.sqrt(sum((p - p_bar) ** 2 for p in products) / ((n - 1) * n))


def gather_bootstrap_experiment(trial, num_trials: int, negative_control: bool,
                                resamples: int) -> tuple[float, float]:
    """(sample covariance, bootstrap standard error) of the measures of
    covariance_experiment, each resample gathered by index from a resampling
    generator of its own, seeded with the trial seed."""
    d_all, r_all = replay_measures(trial, num_trials, negative_control)
    sample_cov = sample_covariance(d_all, r_all)
    rng = np.random.default_rng(trial.seed)

    boot = np.empty(resamples)
    for i in range(resamples):
        idx = rng.integers(0, num_trials, size=num_trials)
        db = d_all[idx]
        rb = r_all[idx]
        boot[i] = ((db - db.mean()) * (rb - rb.mean())).sum() / (num_trials - 1)
    return sample_cov, float(boot.std(ddof=1))
