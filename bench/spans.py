"""In-memory span recorder for the traced benchmark run.

``SpanRecorder.install`` replaces module attributes with wrappers that
record one span per call (name, start, end, parent span, call id) plus
counts derived from the call's arguments and result. ``uninstall`` puts
the originals back, so traced and untraced calls run the same code apart
from the wrappers. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

CountFn = Callable[[tuple, dict, Any], dict]


@dataclass
class Span:
    id: int
    parent: int | None
    call: int
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "call": self.call, "name": self.name,
                "start": self.start, "end": self.end, "counts": self.counts}


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``module.attr`` recorded under ``name``."""

    module: Any
    attr: str
    name: str
    counts: CountFn | None = None


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals: list[tuple[Any, str, Any]] = []
        self._call = -1

    def _open(self, name: str) -> Span:
        span = Span(id=len(self.spans), parent=self._stack[-1] if self._stack else None,
                    call=self._call, name=name, start=time.perf_counter())
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def root(self, call: int, name: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` as the root span of call number ``call``."""
        self._call = call
        span = self._open(name)
        try:
            return fn()
        finally:
            self._close(span)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            span = self._open(target.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if target.counts is not None:
                span.counts = target.counts(args, kwargs, result)
            return result

        return wrapper

    def install(self, targets: list[Target]) -> None:
        for t in targets:
            original = getattr(t.module, t.attr)
            self._originals.append((t.module, t.attr, original))
            setattr(t.module, t.attr, self._wrap(t, original))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it that its direct children cover.

    Spans come from one thread, so siblings never overlap.
    """
    covered = dict.fromkeys((s["id"] for s in spans), 0.0)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"]) - covered[s["id"]] for s in spans}
