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

After the bases, the trials are drawn in chunks of ``TRIAL_CHUNK``, and a
chunk is the unit of everything: chunk i draws from its own stream, child i
of ``SeedSequence(seed).spawn`` (Salmon et al., SC'11), so every result is
the same on any number of CPUs; it is one task on a pool of one thread per
usable CPU (numpy's Generator releases the GIL while it draws); and its
tokens are all a worker holds. A chunk draws and measures its visual
tokens, then draws its text tokens (the control draws none) and measures
their redundancy.

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
from .manifest import usable_cpus

ORTHO_TOL = 1e-10
KERNELS = ("cosine", "shifted")
# Trials per random stream, per pool task and per worker's tokens.
TRIAL_CHUNK = 1000


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
        if self.kernel not in KERNELS:
            raise EngineError(f"LemmaTrial: need kernel in {KERNELS}, got {self.kernel!r}")
        if self.seed < 0:  # numpy's SeedSequence takes only non-negative seeds
            raise EngineError(f"LemmaTrial: need seed >= 0, got {self.seed}")


def make_orthogonal_bases(rng: np.random.Generator, ambient_dim: int,
                          subdim: int) -> tuple[np.ndarray, np.ndarray]:
    """Two mutually orthogonal column-orthonormal bases of ``subdim`` columns, via QR of a Gaussian."""
    q, _ = np.linalg.qr(rng.standard_normal((ambient_dim, 2 * subdim)))
    return q[:, :subdim].copy(), q[:, subdim:].copy()


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


def token_mean(u: np.ndarray) -> np.ndarray:
    """u.mean(axis=1) of a (trials, tokens, width) batch of unit rows, bit for bit: both add
    tokens in order, except that at width 1 mean adds pairwise, exact on rows of +-1."""
    return np.einsum("bnj->bj", u) / u.shape[1]


def projected_mean(tokens: np.ndarray, w: np.ndarray, name: str) -> np.ndarray:
    """Mean row (``token_mean``) of each trial's tokens projected on w and scaled to unit rows."""
    return token_mean(normalize_rows(tokens @ w, name))


def diversity_batch(v: np.ndarray, w_v: np.ndarray, kernel: str) -> np.ndarray:
    """Diversity of each trial in a (trials, n_visual, ambient) batch: the mean
    pairwise kernel over projected tokens, diagonal excluded. For unit rows
    u_i, sum_{i != j} u_i . u_j = |sum_i u_i|^2 - n, and both kernels are
    affine, so the mean row (``projected_mean``) gives the measure."""
    n = v.shape[1]
    mean = projected_mean(v, w_v, "diversity_measure")
    return _kernel((n * (mean * mean).sum(axis=1) - 1) / (n - 1), kernel)


def redundancy_batch(visual_mean: np.ndarray, t_tokens: np.ndarray, w_t: np.ndarray,
                     kernel: str) -> np.ndarray:
    """Redundancy of each trial: the mean kernel from its visual to its text tokens on W_T,
    the kernel of the product of their ``projected_mean`` rows, the visual row passed in."""
    text_mean = projected_mean(t_tokens, w_t, "cross_redundancy_measure (text)")
    return _kernel((visual_mean * text_mean).sum(axis=1), kernel)


def covariance_experiment(trial: LemmaTrial, num_trials: int,
                          negative_control: bool = False) -> dict:
    """Sample covariance of the two measures over independent trials, with
    its delta-method standard error. Deterministic for a fixed trial seed.

    ``negative_control=True`` deliberately breaks the orthogonality premise:
    the text basis is replaced by the visual basis and the text set by the
    first tokens of the visual set, so both measures are driven by the same
    projected coordinates.
    """
    # Each array's first allocation, in order, in Python ints (projections and means fit if tokens do).
    batch = min(TRIAL_CHUNK, num_trials)
    for names, count in (("ambient_dim, subdim", trial.ambient_dim * 2 * trial.subdim),
                         ("num_trials", num_trials),
                         ("n_visual, ambient_dim", batch * trial.n_visual * trial.ambient_dim),
                         ("n_text, ambient_dim", batch * trial.n_text * trial.ambient_dim)):
        refuse_beyond_address_space(names, count)
    if num_trials < 100:
        raise EngineError(f"covariance_experiment: need >= 100 trials, got {num_trials}")

    rng = np.random.default_rng(trial.seed)
    w_v, w_t = make_orthogonal_bases(rng, trial.ambient_dim, trial.subdim)
    if negative_control:
        if trial.n_text > trial.n_visual:
            raise EngineError("negative control requires n_text <= n_visual")
        w_t = w_v
    else:
        check_orthogonality(w_v, w_t)

    d_all, r_all = np.empty(num_trials), np.empty(num_trials)
    starts = range(0, num_trials, TRIAL_CHUNK)

    def measure_chunk(done: int, stream: np.random.SeedSequence) -> None:
        chunk_rng = np.random.default_rng(stream)
        d, r = d_all[done:done + TRIAL_CHUNK], r_all[done:done + TRIAL_CHUNK]
        v = chunk_rng.standard_normal((len(d), trial.n_visual, trial.ambient_dim))
        # Measured before the text is drawn: with both token sets held, these temporaries took a
        # worker's heap past glibc's trim threshold: 2500-36000 pages re-faulted per 100000 trials.
        d[:] = diversity_batch(v, w_v, trial.kernel)
        visual_mean = projected_mean(v, w_t, "cross_redundancy_measure (visual)")
        t_tokens = (v[:, :trial.n_text] if negative_control else
                    chunk_rng.standard_normal((len(d), trial.n_text, trial.ambient_dim)))
        r[:] = redundancy_batch(visual_mean, t_tokens, w_t, trial.kernel)

    # Imported here: at module level it would cost every command about 10 ms.
    from concurrent.futures import ThreadPoolExecutor
    pool = ThreadPoolExecutor(min(usable_cpus(), len(starts)))
    try:
        # Results, and the first failing chunk's error, come back in chunk order.
        list(pool.map(measure_chunk, starts, np.random.SeedSequence(trial.seed).spawn(len(starts))))
    finally:
        pool.shutdown(cancel_futures=True)

    p = (d_all - d_all.mean()) * (r_all - r_all.mean())
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
