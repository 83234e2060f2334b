"""Tests of ``conftest.cosine_similarity``, the one-pair similarity oracle."""

import math

import pytest

from conftest import cosine_similarity
from vtcomp.errors import EngineError


def test_orthogonal_vectors():
    assert cosine_similarity([1, 0], [0, 1]) == 0.0


def test_scale_invariance_exact_direction():
    assert cosine_similarity([2, 0], [1, 0]) == 1.0


def test_analytic_diagonal():
    assert cosine_similarity([1, 1], [1, 0]) == pytest.approx(1 / math.sqrt(2), abs=1e-6)


def test_symmetry_exact(rng):
    for _ in range(50):
        a = rng.standard_normal(17)
        b = rng.standard_normal(17)
        assert cosine_similarity(a, b) == cosine_similarity(b, a)


def test_positive_scaling_invariance(rng):
    for _ in range(20):
        a = rng.standard_normal(9)
        b = rng.standard_normal(9)
        c = float(rng.uniform(0.01, 100.0))
        assert cosine_similarity(c * a, b) == pytest.approx(cosine_similarity(a, b), abs=1e-6)


def test_degenerate_vector_raises():
    with pytest.raises(EngineError, match="cosine_similarity: first argument has near-zero norm"):
        cosine_similarity([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(EngineError, match="cosine_similarity: second argument has near-zero norm"):
        cosine_similarity([1.0, 0.0], [1e-13, 0.0])


def test_dim_mismatch():
    with pytest.raises(EngineError, match=r"cosine_similarity: dims differ \(2 vs 3\)"):
        cosine_similarity([1, 0], [1, 0, 0])
