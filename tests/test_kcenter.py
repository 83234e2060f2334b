import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_manifest, rss_file_kb
from oracles import covering_radius, nested_loop_greedy, optimal_kcenter_radius
from vtcomp import kcenter, manifest
from vtcomp.errors import EngineError
from vtcomp.kcenter import greedy_kcenter, normalize_rows, oracle_greedy
from vtcomp.manifest import load_manifest


def circle_tokens(*degrees):
    return np.array([[math.cos(math.radians(a)), math.sin(math.radians(a))] for a in degrees],
                    dtype=np.float32)


def test_k1_is_pivot_only(rng):
    v = rng.standard_normal((6, 3)).astype(np.float32)
    r = greedy_kcenter(v, 4, 1)
    assert r.indices == (4,)


def test_unit_circle_selection_order():
    v = circle_tokens(0, 10, 90, 180)
    r = greedy_kcenter(v, 0, 4)
    assert r.indices == (0, 3, 2, 1)  # 0 deg, 180 deg, 90 deg, 10 deg
    assert oracle_greedy(v, 0, 4).indices == (0, 3, 2, 1)


def test_all_identical_lowest_index_ties():
    v = np.ones((5, 3), dtype=np.float32)
    assert greedy_kcenter(v, 0, 3).indices == (0, 1, 2)
    assert oracle_greedy(v, 0, 3).indices == (0, 1, 2)


@pytest.mark.parametrize("select", [greedy_kcenter, oracle_greedy], ids=["greedy", "oracle"])
def test_invalid_k(rng, select):
    v = rng.standard_normal((4, 2)).astype(np.float32)
    with pytest.raises(EngineError, match=r"^k=0 outside \[1, 4\]$"):
        select(v, 0, 0)
    with pytest.raises(EngineError, match=r"^k=5 outside \[1, 4\]$"):
        select(v, 0, 5)
    with pytest.raises(EngineError, match=r"^pivot index 7 outside \[0, 4\)$"):
        select(v, 7, 2)


def test_normalize_rows_reports_offending_row():
    m = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]], dtype=np.float32)
    with pytest.raises(EngineError, match="^matrix: row 1 has near-zero norm$"):
        normalize_rows(m)


@pytest.mark.parametrize("block_rows", [1, 7, 256])
def test_normalize_rows_batch_equals_per_slice_calls(rng, monkeypatch, block_rows):
    # A (b, n, d) batch normalises as b separate 2-D calls and as the whole
    # array at once, bit for bit, however the first axis is split into blocks,
    # and a degenerate row is named by its index in the flattened (b * n) rows.
    monkeypatch.setattr(manifest, "BLOCK_ROWS", block_rows)
    batch = rng.standard_normal((9, 6, 5))
    got = normalize_rows(batch)
    assert np.array_equal(got, np.stack([normalize_rows(m) for m in batch]))
    assert np.array_equal(got, unit_rows_reference(batch))
    batch[2, 3] = 0.0
    with pytest.raises(EngineError, match=r"^measure: row 15 has near-zero norm$"):
        normalize_rows(batch, "measure")


def unit_rows_reference(m):
    """The whole-array cast, then the division in place: normalize_rows' arithmetic."""
    m64 = np.array(m, dtype=np.float64)
    m64 /= np.sqrt(np.einsum("...i,...i->...", m64, m64))[..., None]
    return m64


@pytest.mark.skipif(sys.platform != "linux", reason="reads RssFile from /proc/self/status")
def test_normalize_rows_releases_a_mapped_payload(tmp_path):
    n = d = 2048  # the visual payload is 16 MB
    md = load_manifest(build_manifest(tmp_path, visual_len=n, width=d, with_stage1=False))
    v = md.visual_embeddings
    manifest.release(v)  # none of it resident, whatever the load left
    before = rss_file_kb()
    got = normalize_rows(v)
    assert rss_file_kb() - before < v.nbytes // 1024 // 2
    assert np.array_equal(got, unit_rows_reference(v))
    assert np.array_equal(v, np.fromfile(tmp_path / "visual.bin", dtype="<f4").reshape(n, d))


def test_normalize_rows_leaves_the_callers_array_alone(rng):
    # Both span several cast blocks along their first axis.
    for m in (rng.standard_normal((600, 5)), rng.standard_normal((300, 4, 5))):
        kept = m.copy()
        got = normalize_rows(m)
        assert np.array_equal(m, kept)
        assert np.array_equal(got, unit_rows_reference(kept))
    empty = normalize_rows(np.empty((0, 7), dtype=np.float32))
    assert empty.shape == (0, 7) and empty.dtype == np.float64


@pytest.mark.parametrize("k", [205, 512])
def test_greedy_holds_one_float64_copy_of_its_rows(k):
    # The float64 rows are 16 MB; a second copy of them would read 2.0 or more.
    v = np.random.default_rng(0).standard_normal((2048, 1024)).astype(np.float32)
    tracemalloc.start()
    try:
        greedy_kcenter(v, 0, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * v.size * 8


def test_greedy_matches_oracle_random_sample(rng):
    for _ in range(40):
        n = int(rng.integers(2, 24))
        d = int(rng.integers(2, 9))
        v = rng.standard_normal((n, d)).astype(np.float32)
        pivot = int(rng.integers(0, n))
        k = int(rng.integers(1, n + 1))
        assert greedy_kcenter(v, pivot, k).indices == oracle_greedy(v, pivot, k).indices


def test_trace_monotone(rng):
    for _ in range(20):
        n = int(rng.integers(3, 32))
        v = rng.standard_normal((n, 5)).astype(np.float32)
        r = greedy_kcenter(v, 0, n)
        values = [s for _, s in r.trace]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert all(-1.0 <= s <= 1.0 for s in values)


def test_prefix_stability(rng):
    v = rng.standard_normal((20, 4)).astype(np.float32)
    full = greedy_kcenter(v, 3, 20)
    for k in (1, 5, 11, 20):
        assert greedy_kcenter(v, 3, k).indices == full.indices[:k]


def test_permutation_equivariance(rng):
    for _ in range(10):
        n = int(rng.integers(4, 16))
        v = rng.standard_normal((n, 6))
        perm = rng.permutation(n)
        v2 = v[perm]
        pivot_old = int(rng.integers(0, n))
        pivot_new = int(np.flatnonzero(perm == pivot_old)[0])
        old = greedy_kcenter(v, pivot_old, n).indices
        new = greedy_kcenter(v2, pivot_new, n).indices
        assert tuple(perm[list(new)]) == old


def test_scale_invariance(rng):
    v = rng.standard_normal((12, 5))
    scales = rng.uniform(0.1, 10.0, size=12)
    a = greedy_kcenter(v, 2, 12).indices
    b = greedy_kcenter(v * scales[:, None], 2, 12).indices
    assert a == b


def test_optimal_radius_trivial_cases(rng):
    v = rng.standard_normal((5, 3)).astype(np.float32)
    assert optimal_kcenter_radius(v, 5) == 0.0
    identical = np.tile(rng.standard_normal(3), (6, 1)).astype(np.float32)
    for k in (1, 2, 3):
        assert optimal_kcenter_radius(identical, k) == pytest.approx(0.0, abs=1e-7)


def test_optimal_radius_square_on_circle():
    v = circle_tokens(0, 90, 180, 270)
    assert optimal_kcenter_radius(v, 2) == pytest.approx(math.sqrt(2), abs=1e-6)


def test_optimal_radius_guard():
    v = np.ones((13, 2), dtype=np.float32)
    with pytest.raises(EngineError, match="optimal_kcenter_radius: n=13, k=2 exceeds guard"):
        optimal_kcenter_radius(v, 2)
    with pytest.raises(EngineError, match="optimal_kcenter_radius: n=10, k=6 exceeds guard"):
        optimal_kcenter_radius(np.ones((10, 2), dtype=np.float32), 6)


def test_two_approximation_small(rng):
    for _ in range(10):
        n = int(rng.integers(4, 13))
        v = rng.standard_normal((n, 4))
        for k in range(1, min(5, n) + 1):
            greedy = greedy_kcenter(v, 0, k)
            r_greedy = covering_radius(v, greedy.indices)
            r_opt = optimal_kcenter_radius(v, k)
            assert r_greedy <= 2.0 * r_opt + 1e-9


def near_duplicates(rng, n, d):
    """Rows drawn from n/4 base directions plus no, 1-ulp-scale or small
    noise: cosines of near-duplicates differ only by rounding, which the
    incremental and the recomputed path accumulate differently."""
    bases = rng.standard_normal((n // 4, d))
    noise = (0.0, 1e-7, 1e-4)[int(rng.integers(0, 3))]
    return (bases[rng.integers(0, n // 4, n)] + noise * rng.standard_normal((n, d))).astype(np.float32)


def test_greedy_matches_oracle_on_near_duplicates():
    mismatches = 0
    for seed in range(300):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 25))
        d = int(rng.integers(2, 13))
        v = near_duplicates(rng, n, d)
        pivot = int(rng.integers(0, n))
        mismatches += greedy_kcenter(v, pivot, n).indices != oracle_greedy(v, pivot, n).indices
    assert mismatches == 0


def test_gram_regime_matches_oracle_on_near_duplicates():
    # d >= n: the rows span as many dimensions as there are tokens.
    mismatches = 0
    for seed in range(300):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 49))
        d = int(rng.integers(n, n + 40))
        v = near_duplicates(rng, n, d)
        pivot = int(rng.integers(0, n))
        mismatches += greedy_kcenter(v, pivot, n).indices != oracle_greedy(v, pivot, n).indices
    assert mismatches == 0


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(data=st.data(), n=st.integers(4, 40), wide=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_greedy_matches_oracle_on_drawn_near_duplicates(data, n, wide, seed):
    # Draws d >= n (as many dimensions as tokens) as well as d < n.
    d = data.draw(st.integers(n, n + 24) if wide else st.integers(2, n - 1), label="d")
    rng = np.random.default_rng(seed)
    v = near_duplicates(rng, n, d)
    pivot = data.draw(st.integers(0, n - 1), label="pivot")
    fast, slow = greedy_kcenter(v, pivot, n), oracle_greedy(v, pivot, n)
    assert fast.indices == slow.indices
    for (_, a), (_, b) in zip(fast.trace, slow.trace):
        assert abs(a - b) <= 1e-12


def test_zero_padding_crosses_regimes_without_changing_picks():
    # Zero columns leave every cosine unchanged but move n > d inputs to
    # n <= d, so the picks must not change and the trace must agree to
    # rounding.
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 64))
        d = int(rng.integers(2, n))
        if seed % 2:
            v = near_duplicates(rng, n, d)
        else:
            v = rng.standard_normal((n, d)).astype(np.float32)
        pivot = int(rng.integers(0, n))
        k = int(rng.integers(1, n + 1))
        narrow = greedy_kcenter(v, pivot, k)
        wide = greedy_kcenter(np.pad(v, ((0, 0), (0, n))), pivot, k)
        assert wide.indices == narrow.indices
        for (_, a), (_, b) in zip(wide.trace, narrow.trace):
            assert abs(a - b) <= 1e-12


def test_oracle_matches_nested_loop_referee():
    # Exact and near duplicates, with n <= d and n > d: the one-product-per-
    # step oracle must pick what the per-candidate loop picks.
    for seed in range(120):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 33))
        d = int(rng.integers(n, n + 20)) if seed % 2 else int(rng.integers(2, n))
        v = near_duplicates(rng, n, d) if seed % 3 else rng.standard_normal((n, d)).astype(np.float32)
        pivot = int(rng.integers(0, n))
        k = int(rng.integers(1, n + 1))
        fast, slow = oracle_greedy(v, pivot, k), nested_loop_greedy(v, pivot, k)
        assert fast.indices == slow.indices
        for (_, a), (_, b) in zip(fast.trace, slow.trace):
            assert abs(a - b) <= 1e-12


def lattice(rng, n, d):
    """Rows in {-1, 0, 1}^d with no zero row: many cosines tie exactly."""
    v = rng.integers(-1, 2, (n, d))
    v[~v.any(axis=1), 0] = 1
    return v.astype(np.float32)


def repeated_basis(rng, n, d):
    return np.eye(d, dtype=np.float32)[rng.integers(0, d, n)]


def random_rows(rng, n, d):
    return rng.standard_normal((n, d)).astype(np.float32)


@pytest.mark.parametrize("draw", [random_rows, near_duplicates, lattice, repeated_basis])
@pytest.mark.parametrize("frontier", [1, 2, 3, 7])
def test_frontier_flushes_match_oracle(monkeypatch, frontier, draw):
    # A frontier this small is outgrown within a few picks, so greedy_kcenter
    # flushes its pending centers and rebuilds the frontier many times a run.
    # Seeds 0-39 draw d < n, seeds 40-79 d >= n.
    monkeypatch.setattr(kcenter, "FRONTIER", frontier)
    for seed in range(80):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 49))
        d = int(rng.integers(2, min(n, 13))) if seed < 40 else int(rng.integers(n, n + 13))
        v = draw(rng, n, d)
        pivot = int(rng.integers(0, n))
        k = int(rng.integers(1, n + 1))
        fast, slow = greedy_kcenter(v, pivot, k), oracle_greedy(v, pivot, k)
        assert fast.indices == slow.indices
        for (_, a), (_, b) in zip(fast.trace, slow.trace):
            assert abs(a - b) <= 1e-12


def test_default_frontier_flushes_without_changing_picks():
    # n = 600 outgrows the default frontier, so both runs flush; the
    # zero-padded copy has d > n.
    rng = np.random.default_rng(0)
    v = rng.standard_normal((600, 16)).astype(np.float32)
    assert v.shape[0] > kcenter.FRONTIER
    narrow = greedy_kcenter(v, 11, 600)
    wide = greedy_kcenter(np.pad(v, ((0, 0), (0, 600))), 11, 600)
    assert wide.indices == narrow.indices
    for (_, a), (_, b) in zip(wide.trace, narrow.trace):
        assert abs(a - b) <= 1e-12


def test_picked_tokens_stay_out_of_the_frontier():
    # At k = n a frontier that kept picked tokens would grow to every token
    # and its Gram to n x n float64 (72 MB here).
    v = np.random.default_rng(0).standard_normal((3000, 8)).astype(np.float32)
    tracemalloc.start()
    try:
        greedy_kcenter(v, 0, 3000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_tie_class_gram_stays_bounded():
    # Identical rows tie throughout, so every unpicked token joins the
    # frontier; a Gram over all of them would be n x n float64 (72 MB here).
    v = np.ones((3000, 8), dtype=np.float32)
    tracemalloc.start()
    try:
        picked = greedy_kcenter(v, 0, 300)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert picked.indices == tuple(range(300))
    assert peak < 16 * 2**20


@pytest.mark.parametrize("seed", range(6))
def test_outsized_tie_classes_match_oracle(seed):
    # Classes of 700 and 300 exact copies at random positions: a frontier
    # holding the larger one (or, once 202 distinct rows are picked, every
    # unpicked copy) is too large for its Gram at the default FRONTIER, so
    # those picks are flushed one at a time.
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((1200, 8)).astype(np.float32)
    order = rng.permutation(1200)
    v[order[:700]] = v[order[0]]
    v[order[700:1000]] = v[order[700]]
    assert 700 ** 2 > 1200 * max(kcenter.FRONTIER, 8)
    pivot = int(rng.integers(0, 1200))
    fast, slow = greedy_kcenter(v, pivot, 400), oracle_greedy(v, pivot, 400)
    assert fast.indices == slow.indices
    for (_, a), (_, b) in zip(fast.trace, slow.trace):
        assert abs(a - b) <= 1e-12


# Referees at the bench's stage-1 shapes: video-narrow's 4608 x 64 at
# ratio 0.10, and anyres-wide's 2880 x 4096 at k = 144 and 288.

def test_greedy_matches_oracle_at_video_scale():
    # k > FRONTIER, so the default frontier runs out and flushes.
    v = np.random.default_rng(7).standard_normal((4608, 64)).astype(np.float32)
    assert 461 > kcenter.FRONTIER
    fast, slow = greedy_kcenter(v, 5, 461), oracle_greedy(v, 5, 461)
    assert fast.indices == slow.indices
    for (_, a), (_, b) in zip(fast.trace, slow.trace):
        assert abs(a - b) <= 1e-12


@pytest.fixture(scope="module")
def anyres_scale():
    v = np.random.default_rng(7).standard_normal((2880, 4096)).astype(np.float32)
    return v, greedy_kcenter(v, 37, 288)


def test_anyres_scale_rows_times_four_change_nothing(anyres_scale):
    v, picked = anyres_scale
    assert greedy_kcenter(v * 4, 37, 288) == picked


def test_anyres_scale_smaller_k_is_a_prefix(anyres_scale):
    v, picked = anyres_scale
    smaller = greedy_kcenter(v, 37, 144)
    assert smaller.indices == picked.indices[:144]
    assert smaller.trace == picked.trace[:144]


def test_anyres_scale_appended_copy_of_a_row_changes_nothing(anyres_scale):
    # The copy ties its original while neither is picked, and the original's
    # lower index wins; once picked, the original covers the copy at 1.
    v, picked = anyres_scale
    unpicked = min(set(range(len(v))) - set(picked.indices))
    for row in (picked.indices[1], unpicked):
        assert greedy_kcenter(np.vstack((v, v[row])), 37, 288) == picked


def test_anyres_scale_permuted_rows_give_permuted_picks(anyres_scale):
    v, picked = anyres_scale
    perm = np.random.default_rng(8).permutation(len(v))
    pivot = int(np.flatnonzero(perm == 37)[0])
    permuted = greedy_kcenter(v[perm], pivot, 288)
    assert tuple(int(i) for i in perm[list(permuted.indices)]) == picked.indices
