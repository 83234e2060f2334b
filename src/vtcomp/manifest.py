"""Manifest loading and tensor payload validation.

A manifest is a UTF-8 JSON file describing headerless binary tensor
payloads (raw little-endian IEEE-754 float32, row-major), the input
layout, and the compression plan. Payload files are named relative to the
manifest directory and must resolve inside it. Every validation failure
names the offending entry.

Each payload is mapped read-only, not copied, and every array the loader
returns is read-only. The float64 row sums of each attention payload are
kept, so stage 2 need not read the matrix again. A payload must not be
truncated or rewritten while a command runs: a read past the end of a
truncated mapping ends the process with SIGBUS, not an error message.
"""

from __future__ import annotations

import json
import math
import mmap
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EngineError
from .layout import CompressionPlan, InputLayout, is_int

FORMAT_VERSION = 1
ROW_SUM_TOL = 1e-4

ROLES = ("visual_embeddings", "cls_vector", "wq", "wk", "attention_layer_k", "decode_rows")
_LAYERED_ROLES = ("attention_layer_k", "decode_rows")


@dataclass(frozen=True)
class ManifestData:
    """Everything a run needs: validated tensors, layout, and plan."""

    visual_embeddings: np.ndarray
    layout: InputLayout
    plan: CompressionPlan
    cls_vector: np.ndarray | None = None
    wq: np.ndarray | None = None
    wk: np.ndarray | None = None
    attention_layers: dict[int, np.ndarray] = field(default_factory=dict)
    attention_row_sums: dict[int, np.ndarray] = field(default_factory=dict)
    decode_rows: dict[int, np.ndarray] = field(default_factory=dict)
    path: Path | None = None

    def has_stage1_inputs(self) -> bool:
        return self.cls_vector is not None and self.wq is not None and self.wk is not None


def _read_payload(base: Path, entry: dict, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Map one payload read-only; return it with its float64 sums (per row
    for a 2-D payload, else the total). Finite float32 values cannot
    overflow a float64 sum, and a NaN or an inf of each sign gives a NaN,
    so the sums are finite exactly when every entry is."""
    dtype = entry.get("dtype", "f32le")
    if dtype != "f32le":
        raise EngineError(f"entry {name!r}: unsupported dtype {dtype!r} (only f32le)")
    shape = entry.get("shape")
    if not isinstance(shape, list) or not shape or not all(is_int(x) and x >= 0 for x in shape):
        raise EngineError(f"entry {name!r}: shape must be a non-empty list of non-negative ints")
    rel = entry.get("file")
    if not isinstance(rel, str):
        raise EngineError(f"entry {name!r}: missing file path")
    if "\0" in rel:
        raise EngineError(f"entry {name!r}: file {rel!r} contains a NUL byte")
    if Path(rel).is_absolute():
        raise EngineError(f"entry {name!r}: file {rel!r} must be relative to the manifest directory")
    path = base / rel
    try:
        if not path.resolve().is_relative_to(base.resolve()):
            raise EngineError(f"entry {name!r}: file {rel!r} resolves outside the manifest directory")
        if not path.is_file():
            raise EngineError(f"entry {name!r}: file {rel!r} does not exist")
        expected = math.prod(shape) * 4
        actual = path.stat().st_size
        if actual != expected:
            raise EngineError(
                f"entry {name!r}: file {rel!r} holds {actual} bytes, shape {shape} requires {expected}")
        buf = b""  # mmap rejects an empty file
        if expected:
            with open(path, "rb") as f:
                buf = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    except OSError as e:
        raise EngineError(f"entry {name!r}: file {rel!r}: {e.strerror}") from None
    data = np.frombuffer(buf, dtype="<f4").reshape(shape)
    with np.errstate(invalid="ignore"):  # +inf + -inf in one sum
        sums = data.sum(axis=1, dtype=np.float64) if data.ndim == 2 else data.sum(dtype=np.float64)
    if not np.isfinite(sums).all():
        raise EngineError(f"entry {name!r}: payload contains NaN/Inf")
    return data, sums


def _validate_rows(a: np.ndarray, sums: np.ndarray, name: str) -> None:
    """Attention rows, square or decode-step, with their float64 row sums:
    non-negative weights, and each row that is not fully masked sums to 1
    over its full width."""
    if a.size and a.min() < 0:
        raise EngineError(f"entry {name!r}: negative attention weight")
    # Fully masked rows (all exact zeros) are allowed; every other row must
    # be stochastic over its unmasked support.
    unmasked = sums > 0
    bad = np.flatnonzero(unmasked & (np.abs(sums - 1.0) > ROW_SUM_TOL))
    if bad.size:
        row = int(bad[0])
        raise EngineError(
            f"entry {name!r}: row {row} sums to {sums[row]:.6f}, expected 1 +/- {ROW_SUM_TOL}")


def load_manifest(path) -> ManifestData:
    """Parse and fully validate a manifest plus all referenced payloads."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise EngineError(f"manifest {path}: {e}") from None
    if not isinstance(raw, dict):
        raise EngineError(f"manifest {path}: top level must be a JSON object")
    version = raw.get("format_version")
    if not is_int(version) or version != FORMAT_VERSION:
        raise EngineError(f"manifest {path}: format_version must be {FORMAT_VERSION}")

    if "layout" not in raw:
        raise EngineError(f"manifest {path}: missing layout")
    layout = InputLayout.from_dict(raw["layout"])
    plan = CompressionPlan.from_dict(raw.get("plan", {}))

    entries = raw.get("entries")
    if not isinstance(entries, list):
        raise EngineError(f"manifest {path}: entries must be a list")

    base = path.parent
    singletons: dict[str, np.ndarray] = {}
    attention_layers: dict[int, np.ndarray] = {}
    attention_row_sums: dict[int, np.ndarray] = {}
    decode_rows: dict[int, np.ndarray] = {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise EngineError(f"entry #{i}: must be a JSON object")
        name = entry.get("name", f"#{i}")
        role = entry.get("role")
        if role not in ROLES:
            raise EngineError(f"entry {name!r}: unknown role {role!r}")
        data, sums = _read_payload(base, entry, name)

        if role in _LAYERED_ROLES:
            layer = entry.get("layer")
            if not is_int(layer):
                raise EngineError(f"entry {name!r}: role {role} requires an integer layer")
            target = attention_layers if role == "attention_layer_k" else decode_rows
            if layer in target:
                raise EngineError(f"entry {name!r}: duplicate {role} for layer {layer}")
            seq = layout.seq_len
            if role == "attention_layer_k":
                if data.shape != (seq, seq):
                    raise EngineError(f"entry {name!r}: attention shape {data.shape} != ({seq}, {seq})")
            elif data.ndim != 2 or data.shape[1] < seq:
                raise EngineError(
                    f"entry {name!r}: decode rows shape {data.shape} narrower than prompt length {seq}")
            elif data.shape[0] < 1:
                raise EngineError(f"entry {name!r}: decode rows need at least one row, got 0")
            _validate_rows(data, sums, name)
            target[layer] = data
            if role == "attention_layer_k":
                sums.flags.writeable = False
                attention_row_sums[layer] = sums
        else:
            if role in singletons:
                raise EngineError(f"entry {name!r}: duplicate role {role!r}")
            singletons[role] = data

    visual = singletons.get("visual_embeddings")
    if visual is None:
        raise EngineError(f"manifest {path}: no visual_embeddings entry")
    if visual.ndim != 2:
        raise EngineError(f"visual_embeddings: expected 2-D matrix, got shape {visual.shape}")
    if visual.shape[0] != layout.visual_len:
        raise EngineError(
            f"visual_embeddings: {visual.shape[0]} rows but layout declares M={layout.visual_len}")

    d = visual.shape[1]
    if d < 1:
        raise EngineError(f"visual_embeddings: token width must be >= 1, got {d}")
    cls_vector = singletons.get("cls_vector")
    if cls_vector is not None:
        cls_vector = cls_vector.reshape(-1)
        if cls_vector.shape[0] != d:
            raise EngineError(f"cls_vector: length {cls_vector.shape[0]} != token width {d}")
    for role in ("wq", "wk"):
        w = singletons.get(role)
        if w is not None and w.shape != (d, d):
            raise EngineError(f"{role}: shape {w.shape} != ({d}, {d})")

    return ManifestData(
        visual_embeddings=visual,
        layout=layout,
        plan=plan,
        cls_vector=cls_vector,
        wq=singletons.get("wq"),
        wk=singletons.get("wk"),
        attention_layers=attention_layers,
        attention_row_sums=attention_row_sums,
        decode_rows=decode_rows,
        path=path,
    )
