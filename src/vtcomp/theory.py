"""Monte Carlo check that the intra-modal diversity measure and the
cross-modal redundancy measure are uncorrelated under orthogonal
sub-space projections.

Token sets are drawn i.i.d. standard normal in the ambient space; the two
projection bases are column-orthonormal and mutually orthogonal, which
makes the projected coordinates independent and the sample covariance of
the two measures statistically indistinguishable from zero. A negative
control reuses the visual basis for both measures and feeds the visual
tokens back in as text, forcing shared variance. Both bases have dimension
``LemmaTrial.subdim``. Before it draws anything, ``covariance_experiment``
refuses as out of memory, naming the parameters, an array beyond the
address space.

After the bases, the trials are drawn in chunks, each chunk's visual
tokens and then its text tokens. One worker thread draws the next chunk's
visual tokens while the caller measures the current chunk; numpy's Generator
releases the GIL while it fills an array. Every draw starts after the one
before it ends, so the random stream, and every result, is a serial run's.

The sample covariance is a mean of the products p_i = (d_i - d̄)(r_i - r̄),
so its standard error is the delta-method one, sqrt(var(p, ddof=1) / N): one
pass over the measures, with no random draws. A bootstrap estimates the same
quantity by Monte Carlo (Efron & Tibshirani 1993).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EngineError, InternalInvariant, refuse_beyond_address_space
from .kcenter import normalize_rows

ORTHO_TOL = 1e-10
KERNELS = ("cosine", "shifted")
# Trials drawn per batch, and measured per sub-batch of it.
TRIAL_CHUNK = 10000
MEASURE_BATCH = 1000


@dataclass(frozen=True)
class LemmaTrial:
    """Shape of one covariance experiment: token counts, dimensions, kernel, seed."""

    n_visual: int = 8
    n_text: int = 4
    ambient_dim: int = 16
    subdim: int = 4
    kernel: str = "cosine"
    seed: int = 0

    def __post_init__(self):
        if self.n_visual < 2 or self.n_text < 1:
            raise EngineError("LemmaTrial: need n_visual >= 2 and n_text >= 1")
        if self.subdim < 1:
            raise EngineError("LemmaTrial: need subdim >= 1")
        if 2 * self.subdim > self.ambient_dim:
            raise EngineError("LemmaTrial: sub-space dims exceed ambient dimension")


def make_orthogonal_bases(rng: np.random.Generator, ambient_dim: int,
                          visual_subdim: int, text_subdim: int) -> tuple[np.ndarray, np.ndarray]:
    """Mutually orthogonal column-orthonormal bases via QR of a Gaussian draw."""
    q, _ = np.linalg.qr(rng.standard_normal((ambient_dim, visual_subdim + text_subdim)))
    return q[:, :visual_subdim].copy(), q[:, visual_subdim:].copy()


def check_orthogonality(w_v: np.ndarray, w_t: np.ndarray) -> None:
    """Abort if either basis is not orthonormal or the bases are not mutually
    orthogonal within 1e-10. The bases are the engine's own QR output, so a
    failure is an engine bug (InternalInvariant), not a bad request."""
    for name, w in (("W_V", w_v), ("W_T", w_t)):
        gram = w.T @ w
        if np.max(np.abs(gram - np.eye(w.shape[1]))) > ORTHO_TOL:
            raise InternalInvariant(f"{name} is not column-orthonormal within {ORTHO_TOL}")
    cross = np.max(np.abs(w_v.T @ w_t))
    if cross > ORTHO_TOL:
        raise InternalInvariant(
            f"bases are not mutually orthogonal: max |W_V^T W_T| = {cross:.3e}")


def _kernel(cos: np.ndarray, kernel: str) -> np.ndarray:
    if kernel == "shifted":
        return (1.0 + cos) / 2.0
    return cos


def diversity_batch(v: np.ndarray, w_v: np.ndarray, kernel: str) -> np.ndarray:
    """Diversity of each trial in a (trials, n_visual, ambient) batch: the mean
    pairwise kernel over projected tokens, diagonal excluded. For unit rows
    u_i, sum_{i != j} u_i . u_j = |sum_i u_i|^2 - n, and both kernels are
    affine, so the mean row gives the measure."""
    n = v.shape[1]
    mean = normalize_rows(v @ w_v, "diversity_measure").mean(axis=1)
    return _kernel((n * (mean * mean).sum(axis=1) - 1) / (n - 1), kernel)


def redundancy_batch(v: np.ndarray, t_tokens: np.ndarray, w_t: np.ndarray,
                     kernel: str) -> np.ndarray:
    """Redundancy of each trial in a batch of visual and text token sets: the
    mean over visual tokens of the mean kernel to all projected text tokens,
    which is the kernel of the product of the two mean rows."""
    pvt = normalize_rows(v @ w_t, "cross_redundancy_measure (visual)").mean(axis=1)
    pt = normalize_rows(t_tokens @ w_t, "cross_redundancy_measure (text)").mean(axis=1)
    return _kernel((pvt * pt).sum(axis=1), kernel)


def covariance_experiment(
    trial: LemmaTrial,
    num_trials: int,
    negative_control: bool = False,
) -> dict:
    """Sample covariance of the two measures over independent trials, with
    its delta-method standard error. Deterministic for a fixed trial seed.

    ``negative_control=True`` deliberately breaks the orthogonality premise:
    the text basis is replaced by the visual basis and the text set by the
    first tokens of the visual set, so both measures are driven by the same
    projected coordinates.
    """
    # Each array's first allocation, in order, checked in Python ints.
    chunk = min(TRIAL_CHUNK, num_trials)
    for names, count in (("ambient_dim, subdim", trial.ambient_dim * 2 * trial.subdim),
                         ("num_trials", num_trials),
                         ("n_visual, ambient_dim", chunk * trial.n_visual * trial.ambient_dim),
                         ("n_text, ambient_dim", chunk * trial.n_text * trial.ambient_dim)):
        refuse_beyond_address_space(names, count)
    if num_trials < 100:
        raise EngineError(f"covariance_experiment: need >= 100 trials, got {num_trials}")

    rng = np.random.default_rng(trial.seed)
    w_v, w_t = make_orthogonal_bases(rng, trial.ambient_dim, trial.subdim, trial.subdim)
    if negative_control:
        if trial.n_text > trial.n_visual:
            raise EngineError("negative control requires n_text <= n_visual")
        w_t = w_v
    else:
        check_orthogonality(w_v, w_t)

    d_all = np.empty(num_trials)
    r_all = np.empty(num_trials)
    # Two visual buffers, so that the worker fills one while the caller
    # measures the other, and one text buffer, filled on the caller.
    visual = [np.empty((chunk, trial.n_visual, trial.ambient_dim)) for _ in range(2)]
    text = np.empty((chunk, trial.n_text, trial.ambient_dim))

    # Imported here: at module level it would cost every command about 10 ms.
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(1) as pool:
        v = rng.standard_normal(out=visual[0])
        for i, done in enumerate(range(0, num_trials, TRIAL_CHUNK)):
            t_tokens = rng.standard_normal(out=text[:len(v)])
            # The next chunk's visual tokens; after the last chunk, none.
            ahead = pool.submit(rng.standard_normal, out=visual[1 - i % 2][:num_trials - done - len(v)])
            if negative_control:
                t_tokens = v[:, : trial.n_text, :]
            # Measured in sub-batches: a trial's measures do not depend on its batch.
            d, r = d_all[done:done + len(v)], r_all[done:done + len(v)]
            for s in range(0, len(v), MEASURE_BATCH):
                sub = slice(s, s + MEASURE_BATCH)
                d[sub] = diversity_batch(v[sub], w_v, trial.kernel)
                r[sub] = redundancy_batch(v[sub], t_tokens[sub], w_t, trial.kernel)
            v = ahead.result()
    # Freed now, the buffers stay out of the standard error's peak.
    del v, t_tokens, ahead, visual, text

    dm = d_all - d_all.mean()
    rm = r_all - r_all.mean()
    p = dm * rm
    sample_cov = float(p.sum() / (num_trials - 1))
    standard_error = float(np.sqrt(p.var(ddof=1) / num_trials))

    return {
        "sample_covariance": sample_cov,
        "standard_error": standard_error,
        "num_trials": num_trials,
        "diversity_mean": float(d_all.mean()),
        "redundancy_mean": float(r_all.mean()),
        "negative_control": negative_control,
        "kernel": trial.kernel,
        "seed": trial.seed,
        "within_3se": bool(abs(sample_cov) <= 3.0 * standard_error),
    }
