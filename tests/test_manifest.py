import json

import numpy as np
import pytest

from conftest import build_manifest, row_stochastic, write_tensor
from vtcomp.errors import EngineError
from vtcomp.manifest import load_manifest


def test_minimal_manifest_loads(tmp_path):
    visual = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
    path = build_manifest(tmp_path, visual=visual, system_len=1, text_len=1,
                          with_stage1=False)
    md = load_manifest(path)
    assert md.visual_embeddings.shape == (2, 2)
    assert md.layout.visual_len == 2
    assert not md.has_stage1_inputs()


def test_stage1_inputs_detected(tmp_path):
    path = build_manifest(tmp_path)
    md = load_manifest(path)
    assert md.has_stage1_inputs()
    assert md.wq.shape == md.wk.shape == (6, 6)
    assert md.cls_vector.shape == (6,)


def test_declared_shape_vs_file_size(tmp_path):
    path = build_manifest(tmp_path, with_stage1=False)
    # Truncate the payload: shape [8, 6] needs 192 bytes.
    payload = tmp_path / "visual.bin"
    payload.write_bytes(payload.read_bytes()[:188])
    with pytest.raises(EngineError, match=r"entry 'visual': file 'visual.bin' holds 188 bytes, shape \[8, 6\] requires 192"):
        load_manifest(path)


def test_nonfinite_payload(tmp_path):
    visual = np.ones((3, 2), dtype=np.float32)
    visual[1, 1] = np.nan
    path = build_manifest(tmp_path, visual=visual, with_stage1=False)
    with pytest.raises(EngineError, match="entry 'visual': payload contains NaN/Inf"):
        load_manifest(path)


def test_nan_reported_before_negative_weight(tmp_path, rng):
    attn = row_stochastic(rng, 14)
    attn[2, 3] = -0.5
    attn[9, 1] = np.nan
    path = build_manifest(tmp_path, attention={4: attn}, with_stage1=False)
    with pytest.raises(EngineError, match="^entry 'attn_4': payload contains NaN/Inf$"):
        load_manifest(path)


def test_nan_reported_before_wrong_shape(tmp_path, rng):
    attn = rng.random((14, 15)).astype(np.float32)
    attn[0, 14] = np.nan
    path = build_manifest(tmp_path, attention={4: attn}, with_stage1=False)
    with pytest.raises(EngineError, match="^entry 'attn_4': payload contains NaN/Inf$"):
        load_manifest(path)


def test_float32_max_row_sums_finite_in_float64(tmp_path, rng):
    # 14 x float32 max is about 4.8e39: far past float32, finite in float64,
    # so the row fails the sum check and not the NaN/Inf check.
    attn = row_stochastic(rng, 14)
    attn[0] = np.finfo(np.float32).max
    path = build_manifest(tmp_path, attention={4: attn}, with_stage1=False)
    with pytest.raises(EngineError, match=r"^entry 'attn_4': row 0 sums to 4763\d{36}\.000000, expected 1 "):
        load_manifest(path)


def test_loaded_arrays_are_read_only(tmp_path, rng):
    path = build_manifest(tmp_path, attention={4: row_stochastic(rng, 14)},
                          decode_rows={4: row_stochastic(rng, 14)[:2]})
    md = load_manifest(path)
    arrays = [md.visual_embeddings, md.cls_vector, md.wq, md.wk,
              *md.attention_layers.values(), *md.decode_rows.values()]
    assert len(arrays) == 6
    assert not any(a.flags.writeable for a in arrays)


def test_row_sum_violation_names_row(tmp_path, rng):
    attn = row_stochastic(rng, 14)
    attn[5] *= 0.8
    path = build_manifest(tmp_path, attention={4: attn}, with_stage1=False)
    with pytest.raises(EngineError, match="entry 'attn_4': row 5 sums to "):
        load_manifest(path)


def test_fully_masked_rows_are_allowed(tmp_path, rng):
    attn = row_stochastic(rng, 14)
    attn[3] = 0.0
    path = build_manifest(tmp_path, attention={4: attn}, with_stage1=False)
    md = load_manifest(path)
    assert 4 in md.attention_layers


def test_unknown_role_rejected(tmp_path):
    path = build_manifest(tmp_path, with_stage1=False)
    raw = json.loads(path.read_text())
    raw["entries"][0]["role"] = "mystery"
    path.write_text(json.dumps(raw))
    with pytest.raises(EngineError, match="entry 'visual': unknown role 'mystery'"):
        load_manifest(path)


def test_bad_format_version(tmp_path):
    path = build_manifest(tmp_path, with_stage1=False)
    raw = json.loads(path.read_text())
    raw["format_version"] = 2
    path.write_text(json.dumps(raw))
    with pytest.raises(EngineError, match="format_version must be 1"):
        load_manifest(path)


def test_attention_requires_layer(tmp_path, rng):
    path = build_manifest(tmp_path, attention={4: row_stochastic(rng, 14)}, with_stage1=False)
    raw = json.loads(path.read_text())
    for entry in raw["entries"]:
        entry.pop("layer", None)
    path.write_text(json.dumps(raw))
    with pytest.raises(EngineError, match="entry 'attn_4': role attention_layer_k requires an integer layer"):
        load_manifest(path)


def test_duplicate_layer_rejected(tmp_path, rng):
    attn = row_stochastic(rng, 14)
    path = build_manifest(tmp_path, attention={4: attn}, with_stage1=False)
    raw = json.loads(path.read_text())
    raw["entries"].append(dict(raw["entries"][-1]))
    path.write_text(json.dumps(raw))
    with pytest.raises(EngineError, match="entry 'attn_4': duplicate attention_layer_k for layer 4"):
        load_manifest(path)


def test_visual_rows_must_match_layout(tmp_path):
    path = build_manifest(tmp_path, with_stage1=False)
    raw = json.loads(path.read_text())
    raw["layout"]["visual_range"] = [2, 9]
    raw["layout"]["text_range"] = [9, 13]
    path.write_text(json.dumps(raw))
    with pytest.raises(EngineError, match="visual_embeddings: 8 rows but layout declares M=7"):
        load_manifest(path)


def test_non_utf8_manifest_rejected(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_bytes(b"\xff\xfe{")
    with pytest.raises(EngineError, match=r"^manifest .*manifest\.json: 'utf-8' codec can't decode"):
        load_manifest(path)


def test_deeply_nested_manifest_rejected(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text("[" * 200000 + "]" * 200000, encoding="utf-8")
    with pytest.raises(EngineError, match=r"^manifest .*manifest\.json: maximum recursion depth exceeded"):
        load_manifest(path)


def test_missing_referenced_file(tmp_path):
    path = build_manifest(tmp_path, with_stage1=False)
    (tmp_path / "visual.bin").unlink()
    with pytest.raises(EngineError, match="entry 'visual': file 'visual.bin' does not exist"):
        load_manifest(path)


def test_decode_rows_width_checked(tmp_path, rng):
    rows = rng.random((2, 5)).astype(np.float32)  # narrower than seq_len 14
    path = build_manifest(tmp_path, decode_rows={3: rows}, with_stage1=False)
    with pytest.raises(EngineError, match=r"entry 'decode_3': decode rows shape \(2, 5\) narrower than prompt length 14"):
        load_manifest(path)


def test_decode_rows_negative_weight_rejected(tmp_path, rng):
    rows = row_stochastic(rng, 14)[:2]
    rows[1, 3] = -0.01
    path = build_manifest(tmp_path, decode_rows={3: rows}, with_stage1=False)
    with pytest.raises(EngineError, match="^entry 'decode_3': negative attention weight$"):
        load_manifest(path)


def test_decode_rows_sum_violation_names_row(tmp_path, rng):
    # Rows wider than the prompt: the sum runs over the generated keys too.
    rows = row_stochastic(rng, 16)[:3]
    rows[2] *= 2.0
    path = build_manifest(tmp_path, decode_rows={3: rows}, with_stage1=False)
    with pytest.raises(EngineError, match=r"^entry 'decode_3': row 2 sums to 2\.0000\d\d, expected 1 \+/- "):
        load_manifest(path)


def test_write_tensor_roundtrip(tmp_path, rng):
    data = rng.standard_normal((5, 3)).astype(np.float32)
    write_tensor(tmp_path / "t.bin", data)
    back = np.fromfile(tmp_path / "t.bin", dtype="<f4").reshape(5, 3)
    np.testing.assert_array_equal(back, data)
