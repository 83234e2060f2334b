import math

import mpmath
import numpy as np
import pytest

from conftest import cosine_similarity
from vtcomp.errors import EngineError
from vtcomp.tensors import normalize_rows, softmax_row


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


def test_normalize_rows_reports_offending_row():
    m = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]], dtype=np.float32)
    with pytest.raises(EngineError, match="^matrix: row 1 has near-zero norm$"):
        normalize_rows(m)


def test_softmax_symmetry():
    np.testing.assert_allclose(softmax_row([0.0, 0.0]), [0.5, 0.5], atol=1e-7)


def test_softmax_analytic():
    np.testing.assert_allclose(softmax_row([math.log(2), 0.0]), [2 / 3, 1 / 3], atol=1e-6)


def test_softmax_overflow_safety_vs_arbitrary_precision():
    scores = [1000.0, 1000.0, 999.0]
    got = softmax_row(scores)
    assert np.all(np.isfinite(got))
    assert got.sum() == pytest.approx(1.0, abs=1e-6)
    with mpmath.workdps(60):
        exps = [mpmath.exp(s) for s in scores]
        total = mpmath.fsum(exps)
        want = [float(e / total) for e in exps]
    np.testing.assert_allclose(got, want, atol=1e-6)


def test_softmax_shift_invariance(rng):
    s = rng.standard_normal(11)
    np.testing.assert_allclose(softmax_row(s), softmax_row(s + 37.5), atol=1e-6)
