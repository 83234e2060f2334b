"""Manifest loading and tensor payload validation.

A manifest is a UTF-8 JSON file describing headerless binary tensor
payloads (raw little-endian IEEE-754 float32, row-major), the input
layout, and the compression plan. Payload files are named relative to the
manifest directory and must resolve inside it. No JSON object may give a
key twice, and each object takes a closed set of keys: any other key is an
error. Every validation failure names the offending entry or key.

Each entry is checked completely by ``_map_entry``, on a thread pool with
one worker per CPU the process may use, in one order: its JSON, its file,
its role's shape rule against the layout, then its values block by block.
Errors are taken in entry order, so a manifest fails at its first bad
entry, with the same message, on any number of CPUs; an error raised in a
check (such as ``MemoryError``) keeps its type. The join then checks only
the rules between entries: duplicates, a missing ``visual_embeddings``,
and the widths of ``cls_vector``, ``wq`` and ``wk``.

Payloads are mapped read-only and every returned array is read-only. The
scan keeps the partition masses of each attention payload and of each
decode payload's query rows, so no later stage reads those payloads. The
scan, the pivot and ``kcenter.normalize_rows`` each read a payload through
``row_blocks``, the one caller of ``release``: it releases each block's
pages once the caller is done with it, and a transposed operand whole
after its last block; a later read faults them back in from the page
cache. A payload must not be truncated or rewritten while a command runs:
a read past the end of a truncated mapping ends the process with SIGBUS,
not an error message.
"""

from __future__ import annotations

import errno
import functools
import json
import math
import mmap
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import EngineError, number_text
from .layout import CompressionPlan, InputLayout, check_keys, is_int
from .relevance import partition_masses

FORMAT_VERSION = 1
ROW_SUM_TOL = 1e-4
BLOCK_ROWS = 256  # per row_blocks block: 8 MB as float64 at d=4096, so the heap reuses its pages

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
    attention_masses: dict[int, np.ndarray] = field(default_factory=dict)
    decode_masses: dict[int, np.ndarray] = field(default_factory=dict)  # query rows only
    # The mapped layered payloads. Nothing in src/ reads them; they stay only
    # for the bench's byte counts (bench/loop.py::_manifest_counts).
    attention_layers: dict[int, np.ndarray] = field(default_factory=dict)
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
            raise EngineError(f"entry {name!r}: file {rel!r} holds {actual} bytes, "
                              f"shape {shape} requires {number_text(expected)}")
        buf = b""  # mmap rejects an empty file
        if expected:
            with open(path, "rb") as f:
                buf = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    except OSError as e:
        raise EngineError(f"entry {name!r}: file {rel!r}: {e.strerror}") from None
    except RuntimeError:  # a symlink loop, as resolve() reports it before Python 3.13
        raise EngineError(f"entry {name!r}: file {rel!r}: {os.strerror(errno.ELOOP)}") from None
    try:
        return np.frombuffer(buf, dtype="<f4").reshape(shape)
    except ValueError as e:  # more axes than numpy supports
        raise EngineError(f"entry {name!r}: shape {shape}: {e}") from None


def release(array: np.ndarray) -> None:
    """Drop from this process the resident pages under ``array``, a view of
    a payload the loader mapped, once ``row_blocks``' caller has read it. The
    pages stay in the page cache, so a later read faults the same bytes back
    in. A no-op on a view that is not C-contiguous (its data range spans
    other rows), on an empty payload, on an array the loader did not map,
    and without MADV_DONTNEED."""
    owner = array
    while isinstance(owner.base, np.ndarray):
        owner = owner.base
    buf = getattr(owner.base, "obj", None)  # np.frombuffer keeps a memoryview of the mmap
    if isinstance(buf, mmap.mmap) and hasattr(mmap, "MADV_DONTNEED") and array.flags.c_contiguous:
        start = array.__array_interface__["data"][0] - owner.__array_interface__["data"][0]
        page = start - start % mmap.PAGESIZE
        buf.madvise(mmap.MADV_DONTNEED, page, start + array.nbytes - page)


def row_blocks(array: np.ndarray):
    """Yield ``(start, block)`` over blocks of BLOCK_ROWS entries of the first
    axis of ``array``, releasing each block when the caller asks for the next
    and, after the last, ``array.T`` whole if ``array`` is not C-contiguous
    (a transposed payload, whose strided blocks ``release`` skips)."""
    for start in range(0, len(array), BLOCK_ROWS):
        block = array[start:start + BLOCK_ROWS]
        yield start, block
        release(block)
    if not array.flags.c_contiguous:
        release(array.T)


def _scan(data: np.ndarray, role: str, name: str, layout: InputLayout) -> np.ndarray | None:
    """Check a payload's values one ``row_blocks`` block at a time, raising
    at the first bad block: finite values, then, for a layered role, no
    negative weight and each row not fully masked (all exact zeros) summing
    to 1 +/- ROW_SUM_TOL over its full width. A float64 sum over the last
    axis is finite exactly when its float32 values are: they cannot
    overflow it, and a NaN or an inf spreads. Plain roles need no sums: a
    float32 block sum, non-finite whenever a value is, screens them without
    allocating, and only a non-finite one (finite values can overflow it)
    falls back to the float64 sums. Returns a layered payload's read-only
    partition masses (of its query rows, for decode rows), else None."""
    layered = role in _LAYERED_ROLES
    masses = []
    # Numpy's error state is per thread, so it is set here, on the worker.
    with np.errstate(invalid="ignore", over="ignore"):  # +inf + -inf in one sum; float32 overflow
        for start, block in row_blocks(np.atleast_2d(data)):  # a 1-D payload is one row
            part = partition_masses(block, layout) if layered else None
            if layered or not np.isfinite(block.sum()):
                # An attention row's masses tile it, so their sum is its row sum.
                sums = (part if role == "attention_layer_k" else block).sum(axis=-1, dtype=np.float64)
                if not np.isfinite(sums).all():
                    raise EngineError(f"entry {name!r}: payload contains NaN/Inf")
            if layered:
                if block.min() < 0:
                    raise EngineError(f"entry {name!r}: negative attention weight")
                unmasked = sums > 0
                bad = np.flatnonzero(unmasked & (np.abs(sums - 1.0) > ROW_SUM_TOL))
                if bad.size:
                    row = bad[0]
                    raise EngineError(f"entry {name!r}: row {start + row} sums to {sums[row]:.6f}, "
                                      f"expected 1 +/- {ROW_SUM_TOL}")
                masses.append(part[unmasked] if role == "decode_rows" else part)
    if not layered:
        return None
    masses = np.concatenate(masses)  # a layered payload's shape rule leaves it a row
    masses.flags.writeable = False
    return masses


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """JSON object hook: a key given twice is an error, not "last one wins"."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise EngineError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _map_entry(base: Path, layout: InputLayout, plan: CompressionPlan, i: int,
               entry) -> tuple[str, str, int | None, np.ndarray, np.ndarray | None]:
    """Every check on one entry, in order: its JSON, its file, its role's
    shape rule against the layout (the join checks the widths of cls_vector,
    wq and wk against visual's d), then its values. Returns the entry's name,
    role, layer (None for a role without one), data and ``_scan``'s masses."""
    if not isinstance(entry, dict):
        raise EngineError(f"entry #{i}: must be a JSON object")
    name = entry.get("name", f"#{i}")
    check_keys(entry, ENTRY_KEYS, f"entry {name!r}")
    role = entry.get("role")
    if role not in ROLES:
        raise EngineError(f"entry {name!r}: unknown role {role!r}")
    layer = entry.get("layer")
    if role not in _LAYERED_ROLES:
        if "layer" in entry:
            raise EngineError(f"entry {name!r}: key 'layer' does not apply to role {role!r}")
    elif not is_int(layer):
        raise EngineError(f"entry {name!r}: role {role} requires an integer layer")
    elif layer < 0:
        raise EngineError(f"entry {name!r}: layer {layer} must be non-negative")
    elif plan.num_layers is not None and layer >= plan.num_layers:
        raise EngineError(f"entry {name!r}: layer {layer} beyond num_layers {plan.num_layers}")
    data = _map_payload(base, entry, name)
    seq = layout.seq_len
    if role == "visual_embeddings":
        if data.ndim != 2:
            raise EngineError(f"visual_embeddings: expected 2-D matrix, got shape {data.shape}")
        if data.shape[0] != layout.visual_len:
            raise EngineError(
                f"visual_embeddings: {data.shape[0]} rows but layout declares M={layout.visual_len}")
        if data.shape[1] < 1:
            raise EngineError(f"visual_embeddings: token width must be >= 1, got {data.shape[1]}")
    elif role == "attention_layer_k" and data.shape != (seq, seq):
        raise EngineError(f"entry {name!r}: attention shape {data.shape} != ({seq}, {seq})")
    elif role == "decode_rows":
        if data.ndim != 2 or data.shape[1] < seq:
            raise EngineError(
                f"entry {name!r}: decode rows shape {data.shape} narrower than prompt length {seq}")
        if data.shape[0] < 1:
            raise EngineError(f"entry {name!r}: decode rows need at least one row, got 0")
    return name, role, layer, data, _scan(data, role, name, layout)


def load_manifest(path) -> ManifestData:
    """Parse and fully validate a manifest plus all referenced payloads."""
    path = Path(path)
    try:  # ValueError: bad UTF-8, bad JSON, or an integer past Python's digit limit
        raw = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except (OSError, ValueError, RecursionError, EngineError) as e:
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

    singletons: dict[str, np.ndarray] = {}
    layered: dict[str, dict[int, np.ndarray]] = {role: {} for role in _LAYERED_ROLES}
    reduced: dict[str, dict[int, np.ndarray]] = {role: {} for role in _LAYERED_ROLES}
    # Imported here: the import costs every command about 10 ms at startup.
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(usable_cpus())
    try:
        # Results, and any error raised on the pool, come back in entry order.
        for name, role, layer, data, masses in pool.map(
                functools.partial(_map_entry, path.parent, layout, plan), range(len(entries)), entries):
            if role in _LAYERED_ROLES:
                if layer in layered[role]:
                    raise EngineError(f"entry {name!r}: duplicate {role} for layer {layer}")
                layered[role][layer] = data
                reduced[role][layer] = masses
            elif role in singletons:
                raise EngineError(f"entry {name!r}: duplicate role {role!r}")
            else:
                singletons[role] = data
    finally:
        pool.shutdown(cancel_futures=True)

    if "visual_embeddings" not in singletons:
        raise EngineError(f"manifest {path}: no visual_embeddings entry")
    d = singletons["visual_embeddings"].shape[1]
    if "cls_vector" in singletons:
        cls_vector = singletons["cls_vector"] = singletons["cls_vector"].reshape(-1)
        if cls_vector.shape[0] != d:
            raise EngineError(f"cls_vector: length {cls_vector.shape[0]} != token width {d}")
    for role in ("wq", "wk"):
        w = singletons.get(role)
        if w is not None and w.shape != (d, d):
            raise EngineError(f"{role}: shape {w.shape} != ({d}, {d})")

    return ManifestData(
        **singletons,  # the singleton roles are named as their fields
        layout=layout,
        plan=plan,
        attention_masses=reduced["attention_layer_k"],
        decode_masses=reduced["decode_rows"],
        attention_layers=layered["attention_layer_k"],
        decode_rows=layered["decode_rows"],
        path=path,
    )
