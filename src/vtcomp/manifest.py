"""Manifest loading and tensor payload validation.

A manifest is a UTF-8 JSON file describing headerless binary tensor
payloads (raw little-endian IEEE-754 float32, row-major), the input
layout, and the compression plan. Payload files are named relative to the
manifest directory and must resolve inside it. No JSON object may give a
key twice, and each object takes a closed set of keys: any other key is an
error. Every validation failure names the offending entry or key.

Each payload is mapped read-only, not copied, and every array the loader
returns is read-only. The payloads' float64 sum passes run on a thread
pool with one worker per CPU the process may use; errors are still
reported in entry order, so an input fails at the same entry, with the same
message, on any number of CPUs. An error raised inside a scan (such as
``MemoryError``) surfaces with its own type. The loader keeps each prompt
attention payload's per-row system/visual/text masses, so stage 2 reads no
prompt attention matrix after the load. Each scan reads its payload in
row blocks and releases the pages behind each block once it is reduced (the
CLI releases ``wq`` and ``wk`` again after the pivot); they stay in the page
cache, and a later read faults the same bytes back in. A payload must not be
truncated or rewritten while a command runs: a read past the end of a
truncated mapping ends the process with SIGBUS, not an error message.
"""

from __future__ import annotations

import errno
import json
import math
import mmap
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EngineError
from .layout import CompressionPlan, InputLayout, check_keys, is_int
from .relevance import partition_masses

FORMAT_VERSION = 1
ROW_SUM_TOL = 1e-4
SCAN_ROWS = 256  # rows per scan block

ROLES = ("visual_embeddings", "cls_vector", "wq", "wk", "attention_layer_k", "decode_rows")
_LAYERED_ROLES = ("attention_layer_k", "decode_rows")
MANIFEST_KEYS = ("format_version", "entries", "layout", "plan")
ENTRY_KEYS = ("name", "role", "dtype", "shape", "file", "layer")  # layer: layered roles only


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
    attention_masses: dict[int, np.ndarray] = field(default_factory=dict)
    decode_rows: dict[int, np.ndarray] = field(default_factory=dict)
    path: Path | None = None


def _map_payload(base: Path, entry: dict, name: str) -> np.ndarray:
    """Check one payload's dtype, shape, path and size, and map it read-only."""
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
    except RuntimeError:  # a symlink loop, as resolve() reports it before Python 3.13
        raise EngineError(f"entry {name!r}: file {rel!r}: {os.strerror(errno.ELOOP)}") from None
    return np.frombuffer(buf, dtype="<f4").reshape(shape)


def release(array: np.ndarray) -> None:
    """Drop from this process the resident pages under ``array``, a
    contiguous view of a payload the loader mapped. The pages stay in the
    page cache, so a later read faults the same bytes back in. A no-op on an
    empty payload, on an array the loader did not map, and where the
    platform has no MADV_DONTNEED."""
    owner = array
    while isinstance(owner.base, np.ndarray):
        owner = owner.base
    buf = getattr(owner.base, "obj", None)  # np.frombuffer keeps a memoryview of the mmap
    if isinstance(buf, mmap.mmap) and hasattr(mmap, "MADV_DONTNEED"):
        start = array.__array_interface__["data"][0] - owner.__array_interface__["data"][0]
        page = start - start % mmap.PAGESIZE
        buf.madvise(mmap.MADV_DONTNEED, page, start + array.nbytes - page)


def _scan(data: np.ndarray, role: str, layout: InputLayout) -> tuple[np.ndarray, object]:
    """The payload's float64 sums: the partition masses of a (seq, seq)
    attention payload, else per row (any payload that is not 2-D counts as
    one row); and, for a layered role, its minimum (None when it is empty).
    Finite float32 values cannot overflow a float64 sum, a NaN or an inf of
    each sign gives a NaN, and the partitions tile a row, so the sums are
    finite exactly when every entry is. Each block of SCAN_ROWS rows is
    released once reduced; a row's sums do not depend on its block."""
    rows = data if data.ndim == 2 else data.reshape(1, -1)
    square = role == "attention_layer_k" and data.shape == (layout.seq_len,) * 2
    sums, lows = [], []
    # Numpy's error state is per thread, so it is set here, on the worker.
    with np.errstate(invalid="ignore"):  # +inf + -inf in one sum
        for start in range(0, max(len(rows), 1), SCAN_ROWS):  # one empty block for no rows
            block = rows[start:start + SCAN_ROWS]
            sums.append(partition_masses(block, layout) if square else block.sum(axis=1, dtype=np.float64))
            if role in _LAYERED_ROLES and block.size:
                lows.append(block.min())
            release(block)
    # np.minimum, unlike min(), keeps a NaN wherever it falls.
    return np.concatenate(sums), np.minimum.reduce(lows) if lows else None


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _validate_rows(low, sums: np.ndarray, name: str) -> None:
    """Attention rows, square or decode-step, from their minimum and float64
    row sums: non-negative weights, and each row that is not fully masked
    sums to 1 over its full width. Both layered roles reject an empty shape
    first, so ``low`` is a number here."""
    if low < 0:
        raise EngineError(f"entry {name!r}: negative attention weight")
    # Fully masked rows (all exact zeros) are allowed; every other row must
    # be stochastic over its unmasked support.
    unmasked = sums > 0
    bad = np.flatnonzero(unmasked & (np.abs(sums - 1.0) > ROW_SUM_TOL))
    if bad.size:
        row = int(bad[0])
        raise EngineError(
            f"entry {name!r}: row {row} sums to {sums[row]:.6f}, expected 1 +/- {ROW_SUM_TOL}")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """JSON object hook: a key given twice is an error, not "last one wins"."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise EngineError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _map_entry(base: Path, i: int, entry) -> tuple[str, str, np.ndarray]:
    """The checks on one entry that need no payload scan, then its mapped
    payload: returns the entry's name, role and data."""
    if not isinstance(entry, dict):
        raise EngineError(f"entry #{i}: must be a JSON object")
    name = entry.get("name", f"#{i}")
    check_keys(entry, ENTRY_KEYS, f"entry {name!r}")
    role = entry.get("role")
    if role not in ROLES:
        raise EngineError(f"entry {name!r}: unknown role {role!r}")
    if "layer" in entry and role not in _LAYERED_ROLES:
        raise EngineError(f"entry {name!r}: key 'layer' does not apply to role {role!r}")
    return name, role, _map_payload(base, entry, name)


def load_manifest(path) -> ManifestData:
    """Parse and fully validate a manifest plus all referenced payloads."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError, EngineError) as e:
        raise EngineError(f"manifest {path}: {e}") from None
    if not isinstance(raw, dict):
        raise EngineError(f"manifest {path}: top level must be a JSON object")
    check_keys(raw, MANIFEST_KEYS, f"manifest {path}")
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

    # Three steps. Map the entries in order, on this thread, up to the first
    # that fails. Scan the mapped payloads on the pool. Check the scans in
    # entry order. The map failure is raised only after every earlier entry
    # has passed, so each input fails at the same entry, with the same
    # message, as one pass in entry order would.
    mapped: list[tuple[str, str, np.ndarray]] = []
    map_failure = None
    for i, entry in enumerate(entries):
        try:
            mapped.append(_map_entry(path.parent, i, entry))
        except EngineError as e:
            map_failure = str(e)
            break

    singletons: dict[str, np.ndarray] = {}
    attention_layers: dict[int, np.ndarray] = {}
    attention_masses: dict[int, np.ndarray] = {}
    decode_rows: dict[int, np.ndarray] = {}
    # Imported here: the import costs every command about 10 ms at startup.
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(_usable_cpus())
    try:
        scans = pool.map(lambda entry: _scan(entry[2], entry[1], layout), mapped)
        for i, ((name, role, data), (sums, low)) in enumerate(zip(mapped, scans)):
            if not np.isfinite(sums).all():
                raise EngineError(f"entry {name!r}: payload contains NaN/Inf")
            if role in _LAYERED_ROLES:
                layer = entries[i].get("layer")
                if not is_int(layer):
                    raise EngineError(f"entry {name!r}: role {role} requires an integer layer")
                target = attention_layers if role == "attention_layer_k" else decode_rows
                if layer in target:
                    raise EngineError(f"entry {name!r}: duplicate {role} for layer {layer}")
                seq = layout.seq_len
                if role == "attention_layer_k":
                    if data.shape != (seq, seq):
                        raise EngineError(f"entry {name!r}: attention shape {data.shape} != ({seq}, {seq})")
                    sums.flags.writeable = False
                    attention_masses[layer] = sums
                    sums = sums.sum(axis=1)
                elif data.ndim != 2 or data.shape[1] < seq:
                    raise EngineError(
                        f"entry {name!r}: decode rows shape {data.shape} narrower than prompt length {seq}")
                elif data.shape[0] < 1:
                    raise EngineError(f"entry {name!r}: decode rows need at least one row, got 0")
                _validate_rows(low, sums, name)
                target[layer] = data
            else:
                if role in singletons:
                    raise EngineError(f"entry {name!r}: duplicate role {role!r}")
                singletons[role] = data
    finally:
        pool.shutdown(cancel_futures=True)
    if map_failure is not None:
        raise EngineError(map_failure)

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
        attention_masses=attention_masses,
        decode_rows=decode_rows,
        path=path,
    )
