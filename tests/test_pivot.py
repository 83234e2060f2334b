import math
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest

from conftest import build_manifest, rss_file_kb
from vtcomp import manifest, pivot
from vtcomp.errors import EngineError
from vtcomp.layout import InputLayout
from vtcomp.manifest import BLOCK_ROWS, load_manifest
from vtcomp.pivot import cls_attention, select_pivot, softmax_row


def image_layout(m, system=1, text=2, **kw):
    return InputLayout(kind=kw.pop("kind", "image"),
                       system_range=(0, system),
                       visual_range=(system, system + m),
                       text_range=(system + m, system + m + text), **kw)


def test_cls_attention_analytic_1d():
    attn = cls_attention([1.0], [[0.0], [math.log(2)]], [[1.0]], [[1.0]], image_layout(2))
    np.testing.assert_allclose(attn, [1 / 3, 2 / 3], atol=1e-6)


def test_cls_attention_identical_rows_uniform(rng):
    row = rng.standard_normal(4)
    z_v = np.tile(row, (6, 1))
    attn = cls_attention(rng.standard_normal(4), z_v,
                         rng.standard_normal((4, 4)), rng.standard_normal((4, 4)), image_layout(6))
    np.testing.assert_allclose(attn, np.full(6, 1 / 6), atol=1e-6)


def test_cls_attention_matches_naive_oracle(rng):
    d, n = 8, 16
    z_cls = rng.standard_normal(d)
    z_v = rng.standard_normal((n, d))
    w_q = rng.standard_normal((d, d))
    w_k = rng.standard_normal((d, d))

    # Independent explicit evaluation: matrix products plus softmax by hand.
    q = np.zeros(d)
    for j in range(d):
        q[j] = sum(z_cls[i] * w_q[i][j] for i in range(d))
    logits = np.zeros(n)
    for r in range(n):
        key = [sum(z_v[r][i] * w_k[i][j] for i in range(d)) for j in range(d)]
        logits[r] = sum(q[j] * key[j] for j in range(d)) / math.sqrt(d)
    exps = np.exp(logits - logits.max())
    want = exps / exps.sum()

    got = cls_attention(z_cls, z_v, w_q, w_k, image_layout(n))
    np.testing.assert_allclose(got, want, atol=1e-5)


def test_cls_attention_matches_key_matrix_product(rng):
    # The logits are re-associated as z_v @ (w_k @ q); the textbook order
    # forms the keys z_v @ w_k first.
    d, n = 64, 256
    lo = image_layout(n)
    z_cls = rng.standard_normal(d).astype(np.float32)
    z_v = rng.standard_normal((n, d)).astype(np.float32)
    w_q = (rng.standard_normal((d, d)) / np.sqrt(d)).astype(np.float32)
    w_k = (rng.standard_normal((d, d)) / np.sqrt(d)).astype(np.float32)

    q = z_cls.astype(np.float64) @ w_q.astype(np.float64)
    keys = z_v.astype(np.float64) @ w_k.astype(np.float64)
    logits = (keys @ q) / np.sqrt(d)
    exps = np.exp(logits - logits.max())
    want = exps / exps.sum()

    got = cls_attention(z_cls, z_v, w_q, w_k, lo)
    np.testing.assert_allclose(got, want, rtol=1e-6)
    assert select_pivot(got, lo) == int(np.argmax(want))


def test_select_pivot_plain_argmax():
    lo = image_layout(3)
    assert select_pivot(np.array([0.1, 0.7, 0.2]), lo) == 1


def test_select_pivot_tie_breaks_low():
    lo = image_layout(4)
    assert select_pivot(np.array([0.2, 0.3, 0.3, 0.2]), lo) == 1


def test_select_pivot_video_flattening():
    lo = image_layout(4, kind="video", frames=2, tokens_per_frame=2)
    scores = np.array([[0.2, 0.3], [0.6, 0.1]])
    p = select_pivot(scores, lo)
    assert p == 2
    assert (p // 2, p % 2) == (1, 0)


def test_select_pivot_anyres_restricted_to_thumbnail():
    lo = image_layout(8, kind="anyres", thumbnail_range=(0, 4), crop_ranges=((4, 8),))
    scores = np.array([0.01, 0.02, 0.04, 0.03, 0.4, 0.2, 0.2, 0.1])
    assert select_pivot(scores, lo) == 2


def test_pivot_invariant_under_logit_shift(rng):
    d, n = 5, 12
    lo = image_layout(n)
    z_cls = rng.standard_normal(d)
    z_v = rng.standard_normal((n, d))
    w_q = rng.standard_normal((d, d))
    w_k = rng.standard_normal((d, d))
    base = select_pivot(cls_attention(z_cls, z_v, w_q, w_k, lo), lo)
    # Adding a constant to every logit leaves the softmax argmax unchanged;
    # emulate by shifting the computed scores through the softmax identity.
    attn = cls_attention(z_cls, z_v, w_q, w_k, lo)
    shifted = attn * 0.5  # positive rescale keeps argmax
    assert select_pivot(shifted, lo) == base


def test_video_per_frame_normalization(rng):
    f, t, d = 3, 4, 6
    lo = image_layout(f * t, kind="video", frames=f, tokens_per_frame=t)
    attn = cls_attention(rng.standard_normal(d), rng.standard_normal((f * t, d)),
                         rng.standard_normal((d, d)), rng.standard_normal((d, d)), lo)
    assert attn.shape == (f, t)
    np.testing.assert_allclose(attn.sum(axis=1), np.ones(f), atol=1e-6)
    p = select_pivot(attn, lo)
    assert 0 <= p < f * t


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


def test_float32_scores_tie_to_lowest_index():
    # Logits 1e-9 apart are distinct in float64 but equal after the float32
    # cast, so the lower index takes the pivot.
    logits = np.zeros(8)
    logits[2], logits[5] = 0.5, 0.5 + 1e-9
    scores = softmax_row(logits)
    assert int(np.argmax(logits)) == 5
    assert scores[2] == scores[5]
    assert select_pivot(scores, image_layout(8)) == 2


def test_softmax_rows_equal_per_row_calls(rng):
    # One call over (frames, t) is the stack of per-frame calls, bit for bit,
    # including a frame whose top two scores tie only after the float32 cast
    # and a frame 800 above the others (one shift for all frames underflows).
    logits = rng.standard_normal((5, 7)) * 3.0
    logits[3, 1], logits[3, 4] = 2.5, 2.5 + 1e-9
    logits[0] += 800.0
    got = softmax_row(logits)
    assert got.shape == (5, 7) and got.dtype == np.float32
    assert np.array_equal(got, np.stack([softmax_row(row) for row in logits]))
    assert got[3, 1] == got[3, 4]


def float32_operands(rng, d, n):
    return (rng.standard_normal(d).astype(np.float32),
            rng.standard_normal((n, d)).astype(np.float32),
            (rng.standard_normal((d, d)) / np.sqrt(d)).astype(np.float32),
            (rng.standard_normal((d, d)) / np.sqrt(d)).astype(np.float32))


def whole_array_logits(z_cls, z_v, w_q, w_k):
    """Each operand cast whole to float64, in the engine's association order."""
    q = z_cls.astype(np.float64) @ w_q.astype(np.float64)
    return (z_v.astype(np.float64) @ (w_k.astype(np.float64) @ q)) / np.sqrt(len(z_cls))


@pytest.mark.parametrize("kind", ["image", "video"])
def test_blocked_pivot_equals_whole_array_products(rng, kind):
    # d and n both span several blocks and end in a ragged one.
    d, n = 600, 777
    assert d > 2 * BLOCK_ROWS and n > 3 * BLOCK_ROWS
    assert d % BLOCK_ROWS and n % BLOCK_ROWS
    extra = {"frames": 7, "tokens_per_frame": 111} if kind == "video" else {}
    lo = image_layout(n, kind=kind, **extra)
    operands = float32_operands(rng, d, n)
    logits = whole_array_logits(*operands)
    want = softmax_row(logits.reshape(7, 111) if kind == "video" else logits)

    got = cls_attention(*operands, lo)
    assert np.array_equal(got, want)
    assert select_pivot(got, lo) == select_pivot(want, lo)


def test_blocked_logits_equal_whole_array_products(rng, monkeypatch):
    # The float32 scores hide last-bit differences, so this compares the
    # float64 logits that reach the softmax. Both sizes end in a partial
    # block but are multiples of 128, like every bench shape, so BLAS
    # rounds a block's edge elements as in the whole product. At ragged
    # sizes it may round one a last bit apart.
    d, n = 640, 896
    assert d % BLOCK_ROWS and n % BLOCK_ROWS
    operands = float32_operands(rng, d, n)
    seen = []
    monkeypatch.setattr(pivot, "softmax_row", lambda s: seen.append(s.copy()) or softmax_row(s))
    cls_attention(*operands, image_layout(n))
    assert np.array_equal(seen[0], whole_array_logits(*operands))


def test_pivot_holds_no_whole_payload_float64_copy(rng):
    # One d x d float64 copy of w_q or w_k is 8 MB here.
    d, n = 1024, 2048
    operands = float32_operands(rng, d, n)
    tracemalloc.start()
    try:
        cls_attention(*operands, image_layout(n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < d * d * 8


@pytest.mark.skipif(sys.platform != "linux", reason="reads RssFile from /proc/self/status")
def test_pivot_releases_the_projection_pages(tmp_path):
    d = 2048  # wq and wk are 16 MB each
    md = load_manifest(build_manifest(tmp_path, visual_len=512, width=d))
    copies = {name: np.fromfile(tmp_path / f"{name}.bin", dtype="<f4")
              for name in ("cls", "visual", "wq", "wk")}
    want = cls_attention(copies["cls"], copies["visual"].reshape(-1, d),
                         copies["wq"].reshape(d, d), copies["wk"].reshape(d, d), md.layout)
    for payload in (md.visual_embeddings, md.wq, md.wk):  # none resident, whatever the load left
        manifest.release(payload)
    before = rss_file_kb()
    got = cls_attention(md.cls_vector, md.visual_embeddings, md.wq, md.wk, md.layout)
    assert rss_file_kb() - before < (md.wq.nbytes + md.wk.nbytes) // 1024 // 2
    assert np.array_equal(got, want)
