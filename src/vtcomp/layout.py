"""Structural description of the token sequence and the compression plan.

Index ranges are half-open ``(start, stop)`` pairs. The system/visual/text
ranges partition the full LLM input sequence; their relative order is
input-defined and not constrained here. For AnyRes images the thumbnail
and crop ranges are expressed *within* the visual tokens, i.e. over
``[0, M)``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, fields

from .errors import EngineError, number_text

KIND_IMAGE = "image"
KIND_ANYRES = "anyres"
KIND_VIDEO = "video"
KINDS = (KIND_IMAGE, KIND_ANYRES, KIND_VIDEO)

Range = tuple[int, int]

# Layout keys that only one kind takes; a layout of another kind rejects
# them, whatever their value.
_KEY_KIND = {"thumbnail_range": KIND_ANYRES, "crop_ranges": KIND_ANYRES,
             "frames": KIND_VIDEO, "tokens_per_frame": KIND_VIDEO}


def is_int(x) -> bool:
    """An integer value, as opposed to a bool, a float or a string."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def check_keys(obj: dict, allowed, where: str) -> None:
    """A closed key set: the first key outside ``allowed`` is an error."""
    for key in obj:
        if key not in allowed:
            raise EngineError(f"{where}: unknown key {key!r}")


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _check_range(r, name: str) -> Range:
    if not isinstance(r, (list, tuple)) or len(r) != 2 or not all(is_int(x) for x in r):
        raise EngineError(f"{name}: expected a [start, stop] pair of integers, got {r!r}")
    start, stop = int(r[0]), int(r[1])
    if start < 0 or stop < start:
        raise EngineError(f"{name}: invalid range ({start}, {stop})")
    return (start, stop)


def _length(r: Range) -> int:
    return r[1] - r[0]


def _tile_end(spans, message: str) -> int:
    """End of ``spans`` laid end to end from 0 in sorted order. Raises
    ``message`` formatted with the start of the first span that leaves a
    gap or overlaps."""
    pos = 0
    for start, stop in sorted(spans):
        if start != pos:
            raise EngineError(message.format(start))
        pos = stop
    return pos


@dataclass(frozen=True)
class InputLayout:
    kind: str
    system_range: Range
    visual_range: Range
    text_range: Range
    thumbnail_range: Range | None = None
    crop_ranges: tuple[Range, ...] | None = None
    frames: int | None = None
    tokens_per_frame: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise EngineError(f"layout: unknown kind {self.kind!r}")
        ranges = {
            "system_range": _check_range(self.system_range, "system_range"),
            "visual_range": _check_range(self.visual_range, "visual_range"),
            "text_range": _check_range(self.text_range, "text_range"),
        }
        for name, r in ranges.items():
            object.__setattr__(self, name, r)

        # The three partitions must tile [0, L+M+N) exactly, in any order.
        _tile_end(ranges.values(), "layout: system/visual/text ranges must tile the sequence "
                                   "without gaps or overlap (break at position {})")

        m = self.visual_len
        if m == 0:
            raise EngineError("layout: visual_range is empty")
        if self.kind == KIND_ANYRES:
            if self.thumbnail_range is None or not isinstance(self.crop_ranges, (list, tuple)):
                raise EngineError("layout: anyres requires thumbnail_range and a list of crop_ranges")
            thumb = _check_range(self.thumbnail_range, "thumbnail_range")
            if thumb[1] == thumb[0]:
                raise EngineError("layout: anyres thumbnail_range is empty")
            crops = tuple(_check_range(c, "crop_ranges") for c in self.crop_ranges)
            object.__setattr__(self, "thumbnail_range", thumb)
            object.__setattr__(self, "crop_ranges", crops)
            pos = _tile_end([thumb, *crops], "layout: thumbnail and crop ranges must tile the "
                                             "visual tokens (break at {})")
            if pos != m:
                raise EngineError(f"layout: thumbnail/crop ranges cover {pos} of {m} visual tokens")
        elif self.kind == KIND_VIDEO:
            f, t = self.frames, self.tokens_per_frame
            if not (is_int(f) and is_int(t)) or f < 1 or t < 1:
                raise EngineError("layout: video requires frames >= 1 and tokens_per_frame >= 1")
            if f * t != m:
                raise EngineError(f"layout: frames*tokens_per_frame = {number_text(f * t)} "
                                  f"!= visual count {m}")

    @property
    def system_len(self) -> int:
        return _length(self.system_range)

    @property
    def visual_len(self) -> int:
        return _length(self.visual_range)

    @property
    def text_len(self) -> int:
        return _length(self.text_range)

    @property
    def seq_len(self) -> int:
        return self.system_len + self.visual_len + self.text_len

    @classmethod
    def from_dict(cls, d: dict) -> "InputLayout":
        if not isinstance(d, dict):
            raise EngineError("layout: must be a JSON object")
        check_keys(d, [f.name for f in fields(cls)], "layout")
        kind = d.get("kind")
        for key in d:
            if kind in KINDS and _KEY_KIND.get(key, kind) != kind:
                raise EngineError(f"layout: key {key!r} does not apply to kind {kind!r}")
        for f in fields(cls):
            if f.default is MISSING and f.name not in d:
                raise EngineError(f"layout: missing field {f.name!r}")
        return cls(**d)


DEFAULT_TAU = 0.03


@dataclass(frozen=True)
class CompressionPlan:
    """How much to keep (stage 1) and when to drop everything (stage 2).

    Exactly one of retain_k / retain_ratio must be set by the time the plan
    is resolved against a token count. tau accepts the closed interval
    [0, 1] so that the boundary behaviours (always drop / never drop) stay
    expressible from the CLI.
    """

    tau: float = DEFAULT_TAU
    retain_k: int | None = None
    retain_ratio: float | None = None
    schedule: tuple[int, ...] | None = None
    num_layers: int | None = None

    def __post_init__(self):
        for name in ("retain_k", "num_layers"):
            value = getattr(self, name)
            if value is not None and not is_int(value):
                raise EngineError(f"plan: {name} must be an integer, got {value!r}")
        if self.retain_ratio is not None and not _is_real(self.retain_ratio):
            raise EngineError(f"plan: retain_ratio must be a number, got {self.retain_ratio!r}")
        if not _is_real(self.tau):
            raise EngineError(f"plan: tau must be a number, got {self.tau!r}")
        if self.retain_k is not None and self.retain_k < 1:
            raise EngineError(f"plan: retain_k must be >= 1, got {self.retain_k}")
        if self.retain_ratio is not None and not 0.0 < self.retain_ratio <= 1.0:
            raise EngineError(f"plan: retain_ratio must be in (0, 1], got {self.retain_ratio}")
        if not 0.0 <= self.tau <= 1.0:
            raise EngineError(f"plan: tau must be in [0, 1], got {self.tau}")
        if self.schedule is not None:
            if not isinstance(self.schedule, (list, tuple)) or not all(is_int(x) for x in self.schedule):
                raise EngineError(f"plan: schedule must be a list of integers, got {self.schedule!r}")
            sched = tuple(int(x) for x in self.schedule)
            if not sched:
                raise EngineError("plan: schedule must list at least one layer")
            if any(b <= a for a, b in zip(sched, sched[1:])):
                raise EngineError("plan: schedule indices must be strictly increasing")
            if sched[0] < 0:
                raise EngineError("plan: schedule indices must be non-negative")
            if self.num_layers is not None and sched[-1] >= self.num_layers:
                raise EngineError("plan: schedule index beyond num_layers")
            object.__setattr__(self, "schedule", sched)

    def to_dict(self) -> dict:
        """The fields that are set, in field order: the report's key order."""
        return {f.name: v for f in fields(self) if (v := getattr(self, f.name)) is not None}

    @classmethod
    def from_dict(cls, d: dict) -> "CompressionPlan":
        if not isinstance(d, dict):
            raise EngineError("plan: must be a JSON object")
        check_keys(d, [f.name for f in fields(cls)], "plan")
        return cls(**d)

    def resolved_schedule(self) -> tuple[int, ...]:
        if self.schedule is not None:
            return self.schedule
        if self.num_layers is not None:
            return tuple(layer_schedule(self.num_layers))
        raise EngineError("plan: neither schedule nor num_layers given; cannot derive probe layers")


def resolve_k(plan: CompressionPlan, m: int) -> int:
    """Number of tokens to retain out of ``m`` visual tokens.

    Ratio resolution uses half-up rounding and is clamped to [1, m]; ``m`` is
    at least 1, as ``InputLayout`` checks.
    """
    if (plan.retain_k is None) == (plan.retain_ratio is None):
        raise EngineError("plan: exactly one of retain_k / retain_ratio must be set")
    if plan.retain_k is not None:
        return min(plan.retain_k, m)
    return max(1, min(m, math.floor(plan.retain_ratio * m + 0.5)))


def layer_schedule(num_layers: int) -> list[int]:
    """Probe layers at fractional depths 1/2, 5/8, 6/8 and 7/8 (0-based, floored);
    each exceeds the one before by at least floor(num_layers / 8) >= 1."""
    if num_layers < 8:
        raise EngineError(f"layer_schedule: need at least 8 layers, got {num_layers}")
    return [num_layers // 2, 5 * num_layers // 8, 6 * num_layers // 8, 7 * num_layers // 8]
