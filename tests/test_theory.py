import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from conftest import cosine_similarity
from oracles import (
    gather_bootstrap_experiment,
    loop_standard_error,
    replay_measures,
    sample_covariance,
)
from vtcomp import theory
from vtcomp.cli import main
from vtcomp.errors import EngineError, InternalInvariant
from vtcomp.theory import (
    LemmaTrial,
    check_orthogonality,
    covariance_experiment,
    diversity_batch,
    make_orthogonal_bases,
    redundancy_batch,
)


def test_bases_satisfy_invariants(rng):
    w_v, w_t = make_orthogonal_bases(rng, 16, 5, 4)
    check_orthogonality(w_v, w_t)
    assert np.max(np.abs(w_v.T @ w_t)) <= 1e-10


def test_orthogonality_check_rejects_shared_basis(rng):
    w_v, _ = make_orthogonal_bases(rng, 8, 3, 3)
    with pytest.raises(InternalInvariant, match="bases are not mutually orthogonal"):
        check_orthogonality(w_v, w_v)


def test_diversity_identical_tokens():
    w = np.eye(4, 2)
    v = np.tile([1.0, 2.0, 0.0, 0.0], (2, 1))
    assert diversity_batch(v[None], w, "cosine")[0] == pytest.approx(1.0, abs=1e-12)


def test_diversity_orthogonal_projections():
    w = np.eye(4, 2)
    v = np.array([[1.0, 0.0, 5.0, 0.0], [0.0, 1.0, 0.0, -3.0]])
    assert diversity_batch(v[None], w, "cosine")[0] == pytest.approx(0.0, abs=1e-12)


def test_diversity_matches_double_loop(rng):
    w_v, _ = make_orthogonal_bases(rng, 10, 4, 3)
    v = rng.standard_normal((6, 10))
    proj = v @ w_v
    n = 6
    acc = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                acc += cosine_similarity(proj[i], proj[j])
    assert diversity_batch(v[None], w_v, "cosine")[0] == pytest.approx(acc / (n * (n - 1)), abs=1e-6)


def test_redundancy_aligned_projections(rng):
    # All tokens project onto the same direction of the text sub-space, so
    # every pairwise cosine is 1 regardless of magnitudes.
    _, w_t = make_orthogonal_bases(rng, 8, 2, 3)
    direction = w_t @ rng.standard_normal(3)
    v = rng.uniform(0.5, 2.0, size=(4, 1)) * direction
    t = rng.uniform(0.5, 2.0, size=(3, 1)) * direction
    assert redundancy_batch(v[None], t[None], w_t, "cosine")[0] == pytest.approx(1.0, abs=1e-9)


def test_redundancy_orthogonal_projection_is_zero(rng):
    w_t = np.eye(6)[:, :2]
    v = np.zeros((3, 6))
    v[:, 0] = 1.0
    t = np.zeros((2, 6))
    t[:, 1] = 1.0
    assert redundancy_batch(v[None], t[None], w_t, "cosine")[0] == pytest.approx(0.0, abs=1e-12)


def test_redundancy_matches_double_loop(rng):
    _, w_t = make_orthogonal_bases(rng, 12, 4, 4)
    v = rng.standard_normal((5, 12))
    t = rng.standard_normal((3, 12))
    pv = v @ w_t
    pt = t @ w_t
    acc = np.mean([[cosine_similarity(pv[i], pt[j]) for j in range(3)] for i in range(5)])
    assert redundancy_batch(v[None], t[None], w_t, "cosine")[0] == pytest.approx(acc, abs=1e-6)


def test_measures_stay_in_range(rng):
    trial = LemmaTrial(seed=7)
    res = covariance_experiment(trial, 500)
    assert -1.0 <= res["diversity_mean"] <= 1.0
    assert -1.0 <= res["redundancy_mean"] <= 1.0


def test_experiment_reproducible_bit_for_bit():
    trial = LemmaTrial(seed=42)
    a = covariance_experiment(trial, 300)
    b = covariance_experiment(trial, 300)
    assert a == b


def test_shifted_kernel_is_nonnegative():
    trial = LemmaTrial(kernel="shifted", seed=3)
    res = covariance_experiment(trial, 200)
    assert 0.0 <= res["diversity_mean"] <= 1.0
    assert 0.0 <= res["redundancy_mean"] <= 1.0


def test_covariance_near_zero_under_orthogonality():
    res = covariance_experiment(LemmaTrial(seed=0), 20000)
    assert abs(res["sample_covariance"]) <= 3.0 * res["standard_error"]


def test_negative_control_shares_variance():
    res = covariance_experiment(LemmaTrial(seed=0), 5000, negative_control=True)
    assert abs(res["sample_covariance"]) > 3.0 * res["standard_error"]


def test_standard_error_shrinks_with_trials():
    small = covariance_experiment(LemmaTrial(seed=1), 400)
    large = covariance_experiment(LemmaTrial(seed=1), 6400)
    ratio = small["standard_error"] / large["standard_error"]
    # sqrt(6400/400) = 4, allowed within a factor of 2
    assert 2.0 <= ratio <= 8.0


def test_trial_guards():
    with pytest.raises(EngineError, match="need n_visual >= 2 and n_text >= 1"):
        LemmaTrial(n_visual=1)
    with pytest.raises(EngineError, match="sub-space dims exceed ambient dimension"):
        LemmaTrial(ambient_dim=5, subdim=3)
    with pytest.raises(EngineError, match="need subdim >= 1"):
        LemmaTrial(subdim=0)
    with pytest.raises(EngineError, match="need subdim >= 1"):
        LemmaTrial(subdim=-1)
    with pytest.raises(EngineError, match="need >= 100 trials, got 50"):
        covariance_experiment(LemmaTrial(), 50)


@pytest.mark.parametrize("kernel", ["cosine", "shifted"])
@pytest.mark.parametrize("negative_control", [False, True], ids=["orthogonal", "control"])
def test_standard_error_matches_per_trial_loop(kernel, negative_control):
    # 100 trials are below one TRIAL_CHUNK, 10000 are exactly one, and 12000
    # and 25001 end in a ragged chunk. The covariance is the replay's bit for
    # bit; the error matches the loop's Python-float sums within rounding.
    trial = LemmaTrial(kernel=kernel, seed=5)
    for num_trials in (100, 10000, 12000, 25001):
        res = covariance_experiment(trial, num_trials, negative_control=negative_control)
        _, d_all, r_all = replay_measures(trial, num_trials, negative_control)
        assert res["sample_covariance"] == sample_covariance(d_all, r_all)
        assert res["standard_error"] == pytest.approx(loop_standard_error(d_all, r_all),
                                                      rel=1e-12, abs=0.0)


@pytest.mark.parametrize("kernel", ["cosine", "shifted"])
@pytest.mark.parametrize("negative_control", [False, True], ids=["orthogonal", "control"])
def test_standard_error_agrees_with_a_bootstrap(kernel, negative_control):
    # B bootstrap resamples of a near-normal statistic estimate its standard
    # error with relative noise 1/sqrt(2(B - 1)), 2.2 % at B = 1000; the
    # closed form must agree within four of those.
    trial, num_trials, resamples = LemmaTrial(kernel=kernel, seed=5), 10000, 1000
    res = covariance_experiment(trial, num_trials, negative_control=negative_control)
    sample_cov, bootstrap_se = gather_bootstrap_experiment(trial, num_trials, negative_control,
                                                           resamples)
    assert res["sample_covariance"] == sample_cov
    bound = 4.0 / np.sqrt(2 * (resamples - 1))
    assert abs(res["standard_error"] / bootstrap_se - 1.0) <= bound


@pytest.mark.parametrize("negative_control", [False, True], ids=["orthogonal", "control"])
def test_standard_error_matches_the_spread_over_seeds(negative_control):
    # Each seed draws its own bases and trials, so the covariances of S seeds
    # are S independent draws of the statistic. Their standard deviation has
    # relative noise about 1/sqrt(2(S - 1)), 3.5 % at S = 400, and must match
    # the root mean square of the closed-form errors within four of those.
    seeds = 400
    results = [covariance_experiment(LemmaTrial(seed=seed), 100, negative_control=negative_control)
               for seed in range(seeds)]
    spread = np.std([r["sample_covariance"] for r in results], ddof=1)
    rms_se = np.sqrt(np.mean([r["standard_error"] ** 2 for r in results]))
    assert abs(rms_se / spread - 1.0) <= 4.0 / np.sqrt(2 * (seeds - 1))


@pytest.mark.parametrize("kernel", ["cosine", "shifted"])
def test_measures_do_not_depend_on_their_batch(rng, kernel):
    # covariance_experiment measures each chunk in sub-batches.
    w_v, w_t = make_orthogonal_bases(rng, 16, 4, 4)
    v = rng.standard_normal((2500, 8, 16))
    t = rng.standard_normal((2500, 4, 16))
    diversity = diversity_batch(v, w_v, kernel)
    redundancy = redundancy_batch(v, t, w_t, kernel)
    for a, b in ((0, 1), (0, 1000), (7, 1500), (999, 2500), (1234, 1237)):
        assert np.array_equal(diversity[a:b], diversity_batch(v[a:b], w_v, kernel))
        assert np.array_equal(redundancy[a:b], redundancy_batch(v[a:b], t[a:b], w_t, kernel))


def test_experiment_joins_its_draw_thread(monkeypatch, capsys):
    before = threading.active_count()
    covariance_experiment(LemmaTrial(seed=2), 25000)
    assert threading.active_count() == before
    # The second measure fails while the worker draws ahead; the error
    # reaches the caller with its own type once the worker is joined.
    measure = theory.redundancy_batch
    raised_on = []

    def fails_second(*args, **kwargs):
        raised_on.append(threading.current_thread())
        if len(raised_on) == 2:
            raise MemoryError("measure")
        return measure(*args, **kwargs)

    monkeypatch.setattr(theory, "redundancy_batch", fails_second)
    code = main(["verify-lemma", "--trials", "25000"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "vtcomp verify-lemma: error: out of memory: measure\n"
    assert raised_on == [threading.current_thread()] * 2
    assert threading.active_count() == before


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_report_bytes_do_not_depend_on_cpu_count():
    # Pinned before numpy is imported, so its BLAS also sees one CPU.
    pin = "import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
    run = ("import sys; from vtcomp.cli import main; "
           "sys.exit(main(['verify-lemma', '--trials', '500', '--seed', '3']))")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    unpinned, pinned = (subprocess.run([sys.executable, "-c", prefix + run], capture_output=True,
                                       check=True, env=env).stdout for prefix in ("", pin))
    assert unpinned.startswith(b'{"engine_version"')
    assert pinned == unpinned
