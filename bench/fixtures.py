"""Seeded manifest generator for the benchmark workloads.

Usage: python3 bench/fixtures.py --workload NAME --seed N --out DIR

Writes DIR/manifest.json plus raw little-endian float32 payloads, and
DIR/design.json with what the fixture was built to produce (the drop
layer the cross-modal masses were designed for). Attention matrices are
row-stochastic; the text<->visual blocks are scaled by a designed
cross-modal multiplier before row normalisation, as in the test fixtures.

The payload writer is a plain ``tofile`` of a little-endian float32 array,
so the benchmark does not depend on the engine's own export helper.
Payloads are synced to disk before the generator exits.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path

import numpy as np

NUM_LAYERS = 32
PROBE_LAYERS = (16, 20, 24, 28)  # default schedule for 32 layers
QUIET = 1e-4  # cross-modal multiplier that puts both ratios far below tau=0.03
LOUD = 1.0

# name -> shape parameters and per-layer cross-modal multipliers.
SPECS = {
    "anyres-wide": {
        "kind": "anyres", "system": 8, "text": 112, "width": 4096,
        "thumbnail": 576, "crops": 4, "crop_len": 576,
        "cross_mass": {16: QUIET, 20: QUIET, 24: QUIET, 28: QUIET},
        "decode_rows": 0,
    },
    "video-narrow": {
        "kind": "video", "system": 8, "text": 112, "width": 64,
        "frames": 8, "tokens_per_frame": 576,
        "cross_mass": {16: LOUD, 20: LOUD, 24: LOUD, 28: QUIET},
        "decode_rows": 20,
    },
}


def visual_len(spec: dict) -> int:
    if spec["kind"] == "anyres":
        return spec["thumbnail"] + spec["crops"] * spec["crop_len"]
    return spec["frames"] * spec["tokens_per_frame"]


def layout_of(spec: dict) -> dict:
    s, m, t = spec["system"], visual_len(spec), spec["text"]
    layout = {
        "kind": spec["kind"],
        "system_range": [0, s],
        "visual_range": [s, s + m],
        "text_range": [s + m, s + m + t],
    }
    if spec["kind"] == "anyres":
        th, cl = spec["thumbnail"], spec["crop_len"]
        layout["thumbnail_range"] = [0, th]
        layout["crop_ranges"] = [[th + i * cl, th + (i + 1) * cl] for i in range(spec["crops"])]
    else:
        layout["frames"] = spec["frames"]
        layout["tokens_per_frame"] = spec["tokens_per_frame"]
    return layout


def designed_drop_layer(spec: dict) -> int | None:
    for layer in sorted(spec["cross_mass"]):
        if spec["cross_mass"][layer] == QUIET:
            return layer
    return None


def _row_normalise(a: np.ndarray) -> np.ndarray:
    a /= a.sum(axis=1, dtype=np.float64, keepdims=True).astype(np.float32)
    return a


def attention(rng: np.random.Generator, layout: dict, mass: float) -> np.ndarray:
    seq = layout["text_range"][1]
    a = rng.random((seq, seq), dtype=np.float32)
    a += np.float32(1e-3)
    v0, v1 = layout["visual_range"]
    t0, t1 = layout["text_range"]
    a[t0:t1, v0:v1] *= np.float32(mass)
    a[v0:v1, t0:t1] *= np.float32(mass)
    return _row_normalise(a)


def build(workload: str, seed: int, out: Path) -> dict:
    """Write the workload's manifest under ``out``; return the design record."""
    spec = SPECS[workload]
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, sorted(SPECS).index(workload)])
    layout = layout_of(spec)
    m, d = visual_len(spec), spec["width"]
    seq = layout["text_range"][1]
    entries = []
    payload_bytes = 0

    def add(name: str, role: str, data: np.ndarray, layer: int | None = None) -> None:
        nonlocal payload_bytes
        data = np.ascontiguousarray(data, dtype="<f4")
        with open(out / f"{name}.bin", "wb") as fh:
            data.tofile(fh)
            fh.flush()
            # Write back now, so that the kernel does not flush these pages
            # to disk while the benchmark is timing calls.
            os.fsync(fh.fileno())
        payload_bytes += data.nbytes
        entry = {"name": name, "role": role, "dtype": "f32le",
                 "shape": list(data.shape), "file": f"{name}.bin"}
        if layer is not None:
            entry["layer"] = layer
        entries.append(entry)

    # Projections scaled by 1/sqrt(d) keep the [CLS] logits O(1), so the
    # softmax is spread out and the pivot is not decided by rounding ties.
    scale = np.float32(1.0 / np.sqrt(d))
    add("visual", "visual_embeddings", rng.standard_normal((m, d), dtype=np.float32))
    add("cls", "cls_vector", rng.standard_normal(d, dtype=np.float32))
    add("wq", "wq", rng.standard_normal((d, d), dtype=np.float32) * scale)
    add("wk", "wk", rng.standard_normal((d, d), dtype=np.float32) * scale)
    for layer, mass in sorted(spec["cross_mass"].items()):
        add(f"attn_{layer}", "attention_layer_k", attention(rng, layout, mass), layer=layer)
    if spec["decode_rows"]:
        for layer in PROBE_LAYERS:
            rows = rng.random((spec["decode_rows"], seq + spec["decode_rows"]), dtype=np.float32)
            add(f"decode_{layer}", "decode_rows", _row_normalise(rows), layer=layer)

    manifest = {
        "format_version": 1,
        "entries": entries,
        "layout": layout,
        "plan": {"retain_ratio": 0.10, "tau": 0.03, "num_layers": NUM_LAYERS},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    design = {
        "workload": workload,
        "seed": seed,
        "drop_layer": designed_drop_layer(spec),
        "payload_bytes": payload_bytes,
        "visual_len": m,
        "width": d,
        "seq_len": seq,
        "decode_rows": spec["decode_rows"],
    }
    (out / "design.json").write_text(json.dumps(design, indent=1), encoding="utf-8")
    return design


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    build(args.workload, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
