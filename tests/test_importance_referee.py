"""Diversity against importance: the paper's case for keeping the tokens
that cover the visual set rather than the ones the [CLS] token attends to
most. Greedy k-center from the pivot is a 2-approximation of the optimal
covering radius (Gonzalez 1985), and no k-set covers better than the
optimum, so its radius is at most twice that of any k-set S, among them the
importance top-k (one argsort of the pivot's CLS scores, the FastV-style
ranking) and random sets.
"""

import numpy as np
import pytest

from oracles import covering_radius
from vtcomp.kcenter import greedy_kcenter
from vtcomp.layout import InputLayout
from vtcomp.pivot import cls_attention, select_pivot


def image_layout(m):
    return InputLayout(kind="image", system_range=(0, 1), visual_range=(1, 1 + m),
                       text_range=(1 + m, 3 + m))


def planted_clusters(rng, sizes, d, noise):
    """Rows around mutually orthogonal unit centers, ``sizes[c]`` rows at
    center c, with the centers and each row's cluster."""
    centers = np.linalg.qr(rng.standard_normal((d, len(sizes))))[0].T
    labels = np.repeat(np.arange(len(sizes)), sizes)
    rows = centers[labels] + noise * rng.standard_normal((len(labels), d))
    return rows.astype(np.float32), centers, labels


def gaussian_rows(rng):
    return rng.standard_normal((600, 64)).astype(np.float32)


def clustered_rows(rng):
    sizes = rng.integers(10, 90, 12)
    return planted_clusters(rng, sizes, 64, 0.05)[0]


def greedy_and_importance(v, z_cls, w_q, w_k, k):
    """Greedy's k picks from the pipeline's pivot, and the k highest CLS scores."""
    layout = image_layout(len(v))
    scores = cls_attention(z_cls, v, w_q, w_k, layout)
    greedy = greedy_kcenter(v, select_pivot(scores, layout), k).indices
    return greedy, np.argsort(-scores, kind="stable")[:k]


@pytest.mark.parametrize("draw", [gaussian_rows, clustered_rows])
@pytest.mark.parametrize("k", [8, 60])
def test_greedy_covers_within_twice_any_k_set(draw, k):
    rng = np.random.default_rng(16)
    v = draw(rng)
    n, d = v.shape
    w_q, w_k = (rng.standard_normal((d, d)).astype(np.float32) for _ in range(2))
    greedy, importance = greedy_and_importance(v, rng.standard_normal(d), w_q, w_k, k)
    r_greedy = covering_radius(v, greedy)
    others = [importance, *(rng.choice(n, k, replace=False) for _ in range(20))]
    for s in others:
        assert r_greedy <= 2.0 * covering_radius(v, s) + 1e-9


def test_greedy_touches_every_cluster_while_importance_stays_in_one():
    # The most attended cluster holds most tokens; the other four are small.
    rng = np.random.default_rng(16)
    v, centers, labels = planted_clusters(rng, [400, 50, 50, 50, 50], 32, 0.02)
    k = 8
    greedy, importance = greedy_and_importance(v, 4.0 * centers[0], np.eye(32), np.eye(32), k)
    assert set(labels[list(greedy)]) == set(range(5))
    assert set(labels[importance]) == {0}
    # Orthogonal unit centers lie sqrt(2) apart in chordal distance: the
    # importance set leaves four clusters that far out; greedy covers them.
    assert covering_radius(v, importance) > 1.3
    assert covering_radius(v, greedy) < 0.3
