import json
import mmap
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import build_manifest, row_stochastic, rss_file_kb, write_tensor
from vtcomp import manifest
from vtcomp.errors import EngineError
from vtcomp.manifest import BLOCK_ROWS, load_manifest
from vtcomp.relevance import partition_masses


def test_minimal_manifest_loads(tmp_path):
    visual = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
    path = build_manifest(tmp_path, visual=visual, system_len=1, text_len=1,
                          with_stage1=False)
    md = load_manifest(path)
    assert md.visual_embeddings.shape == (2, 2)
    assert md.layout.visual_len == 2
    assert md.cls_vector is None and md.wq is None and md.wk is None


def test_stage1_inputs_detected(tmp_path):
    path = build_manifest(tmp_path)
    md = load_manifest(path)
    assert md.wq.shape == md.wk.shape == (6, 6)
    assert md.cls_vector.shape == (6,)


def test_declared_shape_vs_file_size(tmp_path):
    path = build_manifest(tmp_path, with_stage1=False)
    # Truncate the payload: shape [8, 6] needs 192 bytes.
    payload = tmp_path / "visual.bin"
    payload.write_bytes(payload.read_bytes()[:188])
    with pytest.raises(EngineError, match=r"entry 'visual': file 'visual.bin' holds 188 bytes, shape \[8, 6\] requires 192"):
        load_manifest(path)
    # Each dimension parses, but the byte count has more digits than Python prints.
    raw = json.loads(path.read_text(encoding="utf-8"))
    raw["entries"][0]["shape"] = [10**3000, 10**3000]
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(EngineError, match=r"^entry 'visual': file 'visual.bin' holds 188 bytes, "
                                          r"shape \[10{3000}, 10{3000}\] requires <more than 4300 digits>$"):
        load_manifest(path)


def test_nonfinite_payload(tmp_path):
    visual = np.ones((3, 2), dtype=np.float32)
    visual[1, 1] = np.nan
    path = build_manifest(tmp_path, visual=visual, with_stage1=False)
    with pytest.raises(EngineError, match="entry 'visual': payload contains NaN/Inf"):
        load_manifest(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("name", ["visual", "cls", "wq", "wk"])
def test_non_finite_last_value_of_a_plain_payload_fails(tmp_path, monkeypatch, name, value):
    # Blocks of 3 entries of the first axis: the 8-row visual payload ends in
    # a ragged block, the 6-row wq and wk and the 6-entry cls in a full one.
    monkeypatch.setattr(manifest, "BLOCK_ROWS", 3)
    path = build_manifest(tmp_path)
    payload = tmp_path / f"{name}.bin"
    data = np.fromfile(payload, dtype="<f4")
    data[-1] = value
    write_tensor(payload, data)
    with pytest.raises(EngineError, match=f"^entry '{name}': payload contains NaN/Inf$"):
        load_manifest(path)


@pytest.mark.parametrize("signs", [(1, 1), (-1, -1), (1, -1)], ids=["positive", "negative", "both"])
def test_finite_payload_whose_float32_sum_overflows_loads(tmp_path, signs):
    # Rows of +/-3.4e38: finite values whose float32 sum is not, while each
    # float64 row sum (about 2e39) is.
    wq = np.full((6, 6), 3.4e38, dtype=np.float32)
    wq[:3] *= signs[0]
    wq[3:] *= signs[1]
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(wq.sum())
    path = build_manifest(tmp_path)
    write_tensor(tmp_path / "wq.bin", wq)
    assert np.array_equal(load_manifest(path).wq, wq)


def test_nan_reported_before_negative_weight(tmp_path, rng):
    attn = row_stochastic(rng, 14)
    attn[2, 3] = -0.5
    attn[9, 1] = np.nan
    path = build_manifest(tmp_path, attention={4: attn}, with_stage1=False)
    with pytest.raises(EngineError, match="^entry 'attn_4': payload contains NaN/Inf$"):
        load_manifest(path)


def test_wrong_shape_reported_before_nan(tmp_path, rng, monkeypatch):
    # The shape rule needs no values, so a wrongly shaped payload is
    # rejected before its values are scanned.
    attn = rng.random((14, 15)).astype(np.float32)
    attn[0, 14] = np.nan
    path = build_manifest(tmp_path, attention={4: attn}, with_stage1=False)
    scanned, scan = [], manifest._scan
    monkeypatch.setattr(manifest, "_scan", lambda data, *args: scanned.append(data.shape) or scan(data, *args))
    with pytest.raises(EngineError, match=r"^entry 'attn_4': attention shape \(14, 15\) != \(14, 14\)$"):
        load_manifest(path)
    assert (14, 15) not in scanned


def test_visual_shape_reported_before_a_later_nan(tmp_path, rng):
    # The visual shape rule is checked at its entry, not after the join.
    attn = row_stochastic(rng, 14)
    attn[6, 6] = np.nan
    path = build_manifest(tmp_path, attention={9: attn}, with_stage1=False)
    write_tensor(tmp_path / "visual.bin", rng.standard_normal((7, 6)))
    _rewrite(path, lambda raw: raw["entries"][0].update(shape=[7, 6]))
    with pytest.raises(EngineError, match="^visual_embeddings: 7 rows but layout declares M=8$"):
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
              *md.attention_layers.values(), *md.attention_masses.values(),
              *md.decode_rows.values(), *md.decode_masses.values()]
    assert len(arrays) == 8
    assert not any(a.flags.writeable for a in arrays)


def test_attention_row_sums_kept_per_layer(tmp_path, rng):
    # The partition masses kept at load are the only attention data stage 2
    # reads; with text placed before visual they still follow the ranges.
    for layout_extra in (None, {"text_range": [2, 6], "visual_range": [6, 14]}):
        attn4 = row_stochastic(rng, 14)
        attn4[3] = 0.0
        path = build_manifest(tmp_path / str(bool(layout_extra)), layout_extra=layout_extra,
                              attention={4: attn4, 7: row_stochastic(rng, 14)}, with_stage1=False)
        md = load_manifest(path)
        assert md.attention_masses.keys() == md.attention_layers.keys() == {4, 7}
        ranges = [md.layout.system_range, md.layout.visual_range, md.layout.text_range]
        for layer, a in md.attention_layers.items():
            masses = md.attention_masses[layer]
            assert masses.dtype == np.float64 and masses.shape == (14, 3)
            assert np.array_equal(masses, partition_masses(a, md.layout))
            nested = [[sum(float(a[i, j]) for j in range(*r)) for r in ranges] for i in range(14)]
            assert np.allclose(masses, nested, rtol=0, atol=1e-12)
        assert not md.attention_masses[4][3].any()


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


@pytest.mark.parametrize("role", ["attention", "decode_rows"])
@pytest.mark.parametrize("layer, message", [
    (-1, "layer -1 must be non-negative"),
    (32, "layer 32 beyond num_layers 32"),
], ids=["negative", "num-layers"])
def test_layer_out_of_range_rejected_before_its_file(tmp_path, rng, role, layer, message):
    rows = row_stochastic(rng, 14)[:2] if role == "decode_rows" else row_stochastic(rng, 14)
    plan = {"retain_ratio": 0.5, "num_layers": 32}
    path = build_manifest(tmp_path, plan=plan, with_stage1=False, **{role: {layer: rows, 31: rows}})
    name = f"{'decode' if role == 'decode_rows' else 'attn'}_{layer}"
    (tmp_path / f"{name}.bin").unlink()  # the layer is checked before the file
    with pytest.raises(EngineError, match=f"^entry '{name}': {message}$"):
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


def test_integer_past_the_digit_limit_rejected(tmp_path):
    path = build_manifest(tmp_path)
    path.write_text(path.read_text(encoding="utf-8").replace('"retain_ratio": 0.5', '"retain_k": ' + "9" * 5000),
                    encoding="utf-8")
    with pytest.raises(EngineError, match=r"^manifest .*manifest\.json: Exceeds the limit \(4300 digits\)"):
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


def _rewrite(path, edit):
    raw = json.loads(path.read_text(encoding="utf-8"))
    edit(raw)
    path.write_text(json.dumps(raw), encoding="utf-8")


def test_nan_reported_before_later_missing_file(tmp_path, rng):
    # The entries are mapped and scanned in parallel; the earlier NaN is
    # still the error.
    visual = rng.standard_normal((8, 6)).astype(np.float32)
    visual[4, 2] = np.nan
    path = build_manifest(tmp_path, visual=visual, attention={4: row_stochastic(rng, 14)})
    (tmp_path / "attn_4.bin").unlink()
    with pytest.raises(EngineError, match="^entry 'visual': payload contains NaN/Inf$"):
        load_manifest(path)


def test_missing_file_reported_before_later_nan(tmp_path, rng, monkeypatch):
    # The map failure is raised on the pool, and still surfaces at its entry.
    attn = row_stochastic(rng, 14)
    attn[6, 6] = np.nan
    path = build_manifest(tmp_path, attention={4: row_stochastic(rng, 14), 5: attn})
    (tmp_path / "attn_4.bin").unlink()
    mapped_on, map_entry = [], manifest._map_entry

    def recorded_map(*args):
        mapped_on.append(threading.current_thread())
        return map_entry(*args)

    monkeypatch.setattr(manifest, "_map_entry", recorded_map)
    with pytest.raises(EngineError, match="^entry 'attn_4': file 'attn_4.bin' does not exist$"):
        load_manifest(path)
    assert mapped_on and threading.current_thread() not in mapped_on


def test_unknown_role_reported_before_later_nan(tmp_path, rng):
    attn = row_stochastic(rng, 14)
    attn[6, 6] = np.nan
    path = build_manifest(tmp_path, attention={4: attn})
    _rewrite(path, lambda raw: raw["entries"][1].update(role="mystery"))
    with pytest.raises(EngineError, match="^entry 'cls': unknown role 'mystery'$"):
        load_manifest(path)


@pytest.mark.parametrize("first, second, named", [
    ("negative", "sum", "^entry 'attn_16': negative attention weight$"),
    ("sum", "negative", "^entry 'attn_16': row 3 sums to "),
], ids=["negative-then-sum", "sum-then-negative"])
def test_layer_errors_reported_in_entry_order(tmp_path, rng, first, second, named):
    def corrupt(a, how):
        if how == "negative":
            a[7, 2] = -0.25
        else:
            a[3] *= 0.5
        return a

    path = build_manifest(tmp_path, attention={16: corrupt(row_stochastic(rng, 14), first),
                                               20: corrupt(row_stochastic(rng, 14), second)},
                          with_stage1=False)
    with pytest.raises(EngineError, match=named):
        load_manifest(path)


def test_load_joins_its_scan_threads(tmp_path, rng, monkeypatch):
    monkeypatch.setattr(manifest, "_usable_cpus", lambda: 4)
    attention = {layer: row_stochastic(rng, 14) for layer in (4, 5, 6, 7)}
    path = build_manifest(tmp_path, attention=attention)
    before = threading.active_count()
    load_manifest(path)
    assert threading.active_count() == before
    # The NaN layer fails while the next, larger layer may still be in its
    # scan, and the layers behind it are not started.
    seq = 1500
    attention = {layer: row_stochastic(rng, seq) for layer in (4, 5, 6, 7)}
    attention[4][0, 0] = np.nan
    path = build_manifest(tmp_path / "bad", text_len=seq - 10, attention=attention,
                          with_stage1=False)
    with pytest.raises(EngineError, match="^entry 'attn_4': payload contains NaN/Inf$"):
        load_manifest(path)
    assert threading.active_count() == before
    # The last layer's file is missing: the layers before it are scanned and
    # pass, and then its map failure is raised.
    attention = {layer: row_stochastic(rng, seq) for layer in (4, 5, 6, 7)}
    path = build_manifest(tmp_path / "missing", text_len=seq - 10, attention=attention,
                          with_stage1=False)
    (tmp_path / "missing" / "attn_7.bin").unlink()
    with pytest.raises(EngineError, match="^entry 'attn_7': file 'attn_7.bin' does not exist$"):
        load_manifest(path)
    assert threading.active_count() == before


def test_scan_error_reaches_the_caller_with_its_type(tmp_path, rng, monkeypatch):
    path = build_manifest(tmp_path, attention={4: row_stochastic(rng, 14)})
    raised_on = []

    def scan_fails(*args):
        raised_on.append(threading.current_thread())
        raise MemoryError("scan")

    monkeypatch.setattr(manifest, "_scan", scan_fails)
    with pytest.raises(MemoryError, match="^scan$"):
        load_manifest(path)
    assert raised_on and threading.current_thread() not in raised_on


def test_each_payload_scanned_once_by_more_threads_than_cores(tmp_path, rng, monkeypatch):
    attention = {layer: row_stochastic(rng, 14) for layer in range(24)}
    path = build_manifest(tmp_path, attention=attention)
    calls, lock, scan = Counter(), threading.Lock(), manifest._scan

    def counted_scan(data, *args):
        with lock:
            calls[id(data)] += 1
        return scan(data, *args)

    monkeypatch.setattr(manifest, "_scan", counted_scan)
    monkeypatch.setattr(manifest, "_usable_cpus", lambda: 8)
    loaded = {}
    caller = threading.Thread(target=lambda: loaded.update(md=load_manifest(path)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        caller.start()
        caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not caller.is_alive()
    assert sorted(calls.values()) == [1] * 28  # visual, cls, wq, wk and 24 layers
    md = loaded["md"]
    assert md.attention_masses.keys() == set(range(24))
    for layer, a in attention.items():
        assert np.array_equal(md.attention_masses[layer], partition_masses(a, md.layout))


@pytest.mark.parametrize("edit, message", [
    (lambda raw: raw.update(Entries=[]), r"^manifest .*manifest\.json: unknown key 'Entries'$"),
    (lambda raw: raw["entries"][0].update(Shape=[8, 6]), "^entry 'visual': unknown key 'Shape'$"),
    (lambda raw: raw["entries"][0].update(layer=4),
     "^entry 'visual': key 'layer' does not apply to role 'visual_embeddings'$"),
    (lambda raw: raw["layout"].update(frame=2), "^layout: unknown key 'frame'$"),
    (lambda raw: raw["layout"].update(frames=None),
     "^layout: key 'frames' does not apply to kind 'image'$"),
    (lambda raw: raw["plan"].update(Tau=0.99), "^plan: unknown key 'Tau'$"),
], ids=["top-level", "entry", "layer-on-singleton", "layout", "layout-other-kind", "plan"])
def test_unknown_keys_rejected(tmp_path, edit, message):
    path = build_manifest(tmp_path)
    _rewrite(path, edit)
    with pytest.raises(EngineError, match=message):
        load_manifest(path)


@pytest.mark.parametrize("kind, extra, named", [
    ("video", {"frames": 2, "tokens_per_frame": 4, "thumbnail_range": [0, 4]}, "thumbnail_range"),
    ("anyres", {"thumbnail_range": [0, 4], "crop_ranges": [[4, 8]], "frames": 1}, "frames"),
], ids=["video", "anyres"])
def test_key_of_another_kind_rejected(tmp_path, kind, extra, named):
    # A key another kind takes is an error, not ignored: a video layout with
    # a thumbnail_range means two things.
    path = build_manifest(tmp_path, kind=kind, layout_extra=extra)
    with pytest.raises(EngineError, match=f"^layout: key '{named}' does not apply to kind '{kind}'$"):
        load_manifest(path)


def test_write_tensor_roundtrip(tmp_path, rng):
    data = rng.standard_normal((5, 3)).astype(np.float32)
    write_tensor(tmp_path / "t.bin", data)
    back = np.fromfile(tmp_path / "t.bin", dtype="<f4").reshape(5, 3)
    np.testing.assert_array_equal(back, data)


def test_row_blocks_releases_each_block_after_the_callers_body(monkeypatch):
    # The first axis of 600 entries: two full blocks and a partial one.
    a = np.arange(1200.0).reshape(600, 2)
    events = []
    monkeypatch.setattr(manifest, "release", lambda block: events.append(("release", span(block))))

    def span(block):
        assert np.shares_memory(block, a)
        return int(block[0, 0]) // 2, int(block[-1, 0]) // 2 + 1

    for start, block in manifest.row_blocks(a):
        assert start == span(block)[0]
        events.append(("body", span(block)))
    spans = [(0, 256), (256, 512), (512, 600)]
    assert events == [(event, s) for s in spans for event in ("body", "release")]

    # The .T of a 600 x 300 array: its blocks are strided, so after the last
    # one the untransposed array is released whole.
    wide = np.arange(600.0 * 300).reshape(600, 300)
    events = []
    monkeypatch.setattr(manifest, "release", lambda view: events.append(("release", view)))
    for start, block in manifest.row_blocks(wide.T):
        events.append(("body", (start, start + len(block))))
    assert [event for event, _ in events] == ["body", "release", "body", "release", "release"]
    assert [s for event, s in events if event == "body"] == [(0, 256), (256, 300)]
    assert events[-1][1].__array_interface__ == wide.__array_interface__  # same data, shape, strides


def test_scan_releases_a_mapped_cls_vector_once(tmp_path, monkeypatch):
    # A 1-D payload is one row: blocks of 256 values, each smaller than a
    # page, would release the page the next block then faults back in.
    write_tensor(tmp_path / "cls.bin", np.ones(4096, dtype=np.float32))
    cls = manifest._map_payload(tmp_path, {"shape": [4096], "file": "cls.bin"}, "cls")
    released = []
    monkeypatch.setattr(manifest, "release", released.append)
    assert manifest._scan(cls, "cls_vector", "cls", None) is None
    assert len(released) == 1 and released[0].size == 4096 and np.shares_memory(released[0], cls)


@pytest.mark.parametrize("seq", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3],
                         ids=["under-one-block", "one-block", "one-row-past", "three-blocks"])
def test_block_scan_equals_whole_array_reductions(tmp_path, rng, seq):
    attn = row_stochastic(rng, seq)
    decode = row_stochastic(rng, seq + 5)[:seq - 2]
    for a in (attn, decode):
        a[[0, len(a) // 2, -1]] = 0.0  # fully masked rows in the first and the last block
    path = build_manifest(tmp_path, text_len=seq - 10, attention={4: attn}, decode_rows={4: decode},
                          with_stage1=False)
    md = load_manifest(path)
    assert np.array_equal(md.attention_masses[4], partition_masses(attn, md.layout))
    queries = decode.sum(axis=1, dtype=np.float64) > 0
    assert np.array_equal(md.decode_masses[4], partition_masses(decode, md.layout)[queries])
    assert np.array_equal(manifest._scan(md.decode_rows[4], "decode_rows", "decode_4", md.layout),
                          md.decode_masses[4])
    assert manifest._scan(md.visual_embeddings, "visual_embeddings", "visual", md.layout) is None


@pytest.mark.parametrize("row", [0, 5, -1], ids=["first-block", "middle-block", "last-block"])
def test_nan_in_any_block_fails_the_load(tmp_path, rng, monkeypatch, row):
    monkeypatch.setattr(manifest, "BLOCK_ROWS", 4)
    rows = row_stochastic(rng, 14)[:10]
    rows[row, 3] = np.nan
    path = build_manifest(tmp_path, decode_rows={4: rows}, with_stage1=False)
    with pytest.raises(EngineError, match="^entry 'decode_4': payload contains NaN/Inf$"):
        load_manifest(path)


@pytest.mark.parametrize("role", ["attention_layer_k", "decode_rows"])
@pytest.mark.parametrize("corruption, message", [
    ("nan", "payload contains NaN/Inf$"),
    ("negative", "negative attention weight$"),
    ("sum", rf"row {BLOCK_ROWS} sums to 0\.5"),
], ids=["nan", "negative", "sum"])
def test_last_block_of_last_payload_fails_at_its_entry(tmp_path, rng, role, corruption, message):
    seq = BLOCK_ROWS + 1  # the last block holds one row
    width = seq + 2 if role == "decode_rows" else seq
    layers = {layer: row_stochastic(rng, width)[:seq] for layer in (4, 7)}
    last = layers[7]
    if corruption == "nan":
        last[-1, 5] = np.nan
    elif corruption == "negative":
        last[-1, 5] = -0.25
    else:
        last[-1] *= 0.5
    if role == "decode_rows":
        path = build_manifest(tmp_path, text_len=seq - 10, attention={4: row_stochastic(rng, seq)},
                              decode_rows=layers)
    else:
        path = build_manifest(tmp_path, text_len=seq - 10, attention=layers)
    name = "decode_7" if role == "decode_rows" else "attn_7"
    with pytest.raises(EngineError, match=f"^entry '{name}': {message}"):
        load_manifest(path)


@pytest.mark.skipif(sys.platform != "linux", reason="reads RssFile from /proc/self/status")
def test_load_releases_the_payload_pages_it_scanned(tmp_path, rng, monkeypatch):
    seq = 2048
    attn = row_stochastic(rng, seq)  # 16 MB per payload
    path = build_manifest(tmp_path, text_len=seq - 10, with_stage1=False,
                          attention={layer: attn for layer in (4, 5, 6, 7)})
    payload_kb = attn.nbytes // 1024
    before = rss_file_kb()
    md = load_manifest(path)
    assert rss_file_kb() - before < payload_kb // 2  # not 4 * payload_kb
    # The pages left the process, not the data: a read faults the same bytes back in.
    a = md.attention_layers[7]
    assert np.array_equal(a, np.fromfile(tmp_path / "attn_7.bin", dtype="<f4").reshape(seq, seq))
    assert rss_file_kb() - before > payload_kb // 2
    with monkeypatch.context() as m:
        m.delattr(mmap, "MADV_DONTNEED")
        manifest.release(a)
        assert rss_file_kb() - before > payload_kb // 2
    manifest.release(a)
    assert rss_file_kb() - before < payload_kb // 2
    assert np.array_equal(a, attn)


@pytest.mark.skipif(sys.platform != "linux", reason="reads RssFile from /proc/self/status")
def test_release_drops_only_the_pages_of_a_contiguous_view(tmp_path):
    d = 2048  # wq is 16 MB, and 256 of its rows are 2 MB
    md = load_manifest(build_manifest(tmp_path, visual_len=8, width=d))
    wq, rows_kb = md.wq, 256 * d * 4 // 1024
    assert np.array_equal(wq, np.fromfile(tmp_path / "wq.bin", dtype="<f4").reshape(d, d))
    before = rss_file_kb()

    def resident_change_is(kb):  # give or take the few pages a first library call faults in
        return abs(rss_file_kb() - before - kb) <= 64

    # 256 columns: its data pointer and size would name rows 0-255, which it
    # does not hold, so release must leave them resident.
    manifest.release(wq.T[:256])
    assert resident_change_is(0)
    manifest.release(wq[256:512])
    assert resident_change_is(-rows_kb)
    # Reading every other row faults nothing in: only rows 256-511 left.
    assert np.isfinite(wq[:256]).all() and np.isfinite(wq[512:]).all()
    assert resident_change_is(-rows_kb)
    assert np.isfinite(wq[256:512]).all()
    assert resident_change_is(0)


def test_release_is_a_no_op_on_arrays_the_loader_did_not_map(tmp_path):
    (tmp_path / "empty.bin").write_bytes(b"")
    empty = manifest._map_payload(tmp_path, {"shape": [0, 14], "file": "empty.bin"}, "empty")
    manifest.release(empty)
    plain = np.arange(12.0).reshape(3, 4)
    manifest.release(plain)
    manifest.release(plain[1:])
    assert empty.shape == (0, 14) and np.array_equal(plain, np.arange(12.0).reshape(3, 4))
