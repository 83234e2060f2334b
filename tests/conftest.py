import json
from pathlib import Path

import numpy as np
import pytest

from vtcomp.errors import EngineError
from vtcomp.kcenter import NORM_EPS


def write_tensor(path, data: np.ndarray) -> None:
    """Write a raw little-endian float32 payload."""
    np.ascontiguousarray(data, dtype="<f4").tofile(path)


def cosine_similarity(a, b) -> float:
    """Cosine similarity of two vectors, clamped to [-1, 1]: the one-pair
    oracle for the engine's batched similarity code.

    Raises EngineError if either norm is <= NORM_EPS.
    """
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if a.shape != b.shape:
        raise EngineError(f"cosine_similarity: dims differ ({a.shape[0]} vs {b.shape[0]})")
    na = float(np.sqrt(np.dot(a, a)))
    nb = float(np.sqrt(np.dot(b, b)))
    if na <= NORM_EPS:
        raise EngineError("cosine_similarity: first argument has near-zero norm")
    if nb <= NORM_EPS:
        raise EngineError("cosine_similarity: second argument has near-zero norm")
    val = np.dot(a, b) / (na * nb)
    return float(np.float32(min(1.0, max(-1.0, val))))


def row_sums(a):
    """Float64 row sums, as load_manifest keeps them for each attention
    payload: of one matrix, or of each matrix in a layer -> matrix dict."""
    if isinstance(a, dict):
        return {layer: row_sums(m) for layer, m in a.items()}
    return a.sum(axis=1, dtype=np.float64)


def row_stochastic(rng, seq):
    a = rng.random((seq, seq)) + 1e-3
    return (a / a.sum(axis=1, keepdims=True)).astype(np.float32)


def block_weighted_attention(rng, layout, cross_mass):
    """Row-stochastic matrix whose text<->visual blocks carry roughly
    ``cross_mass`` of each row's attention."""
    seq = layout.seq_len
    a = rng.random((seq, seq)) + 1e-3
    v0, v1 = layout.visual_range
    t0, t1 = layout.text_range
    a[t0:t1, v0:v1] *= cross_mass
    a[v0:v1, t0:t1] *= cross_mass
    return (a / a.sum(axis=1, keepdims=True)).astype(np.float32)


def build_manifest(
    dirpath,
    *,
    system_len=2,
    visual_len=8,
    text_len=4,
    width=6,
    kind="image",
    plan=None,
    layout_extra=None,
    attention=None,
    decode_rows=None,
    with_stage1=True,
    visual=None,
    seed=0,
):
    """Write a complete fixture (payloads + manifest.json) and return its path.

    ``attention`` maps layer index -> (seq, seq) matrix; ``decode_rows``
    maps layer index -> (rows, >=seq) matrix.
    """
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    if visual is None:
        visual = rng.standard_normal((visual_len, width)).astype(np.float32)
    visual_len, width = visual.shape

    layout = {
        "kind": kind,
        "system_range": [0, system_len],
        "visual_range": [system_len, system_len + visual_len],
        "text_range": [system_len + visual_len, system_len + visual_len + text_len],
    }
    if layout_extra:
        layout.update(layout_extra)

    entries = []

    def add(name, role, data, layer=None):
        fname = f"{name}.bin"
        write_tensor(dirpath / fname, data)
        entry = {
            "name": name,
            "role": role,
            "dtype": "f32le",
            "shape": list(np.asarray(data).shape),
            "file": fname,
        }
        if layer is not None:
            entry["layer"] = layer
        entries.append(entry)

    add("visual", "visual_embeddings", visual)
    if with_stage1:
        add("cls", "cls_vector", rng.standard_normal(width).astype(np.float32))
        add("wq", "wq", rng.standard_normal((width, width)).astype(np.float32))
        add("wk", "wk", rng.standard_normal((width, width)).astype(np.float32))
    for layer, mat in (attention or {}).items():
        add(f"attn_{layer}", "attention_layer_k", np.asarray(mat, dtype=np.float32), layer=layer)
    for layer, rows in (decode_rows or {}).items():
        add(f"decode_{layer}", "decode_rows", np.asarray(rows, dtype=np.float32), layer=layer)

    manifest = {
        "format_version": 1,
        "entries": entries,
        "layout": layout,
        "plan": plan if plan is not None else {"retain_ratio": 0.5},
    }
    path = dirpath / "manifest.json"
    path.write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return path


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
