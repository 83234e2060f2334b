"""Canonical report serialization.

Reports must be byte-identical across identical runs, so JSON is emitted
by a fixed-order serializer of our own: keys keep insertion order, floats
print with 9 significant digits, and the file ends with a single newline.
Keys come only from engine code, so each is encoded once and cached.
CSV output carries one row per probed layer and per decode layer, plus
summary rows.
"""

from __future__ import annotations

import functools
import json
import sys
from typing import Any

from .errors import EngineError, InternalInvariant
from .kcenter import RetentionSet
from .relevance import PruneDecision


def _text(value: Any) -> str:
    try:
        return str(value)
    except ValueError:  # an int longer than Python will print
        raise EngineError(f"report: an integer value has more than "
                          f"{sys.get_int_max_str_digits()} digits") from None


_key_text = functools.cache(lambda key: json.dumps(key, ensure_ascii=False))


def _render(value: Any, out: list[str]) -> None:
    if isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, int):
        out.append(_text(value))
    elif isinstance(value, float):
        out.append(format(value, ".9g"))
    elif value is None:
        out.append("null")
    elif isinstance(value, str):
        out.append(json.dumps(value, ensure_ascii=False))
    elif isinstance(value, dict):
        out.append("{")
        for i, (k, v) in enumerate(value.items()):
            if i:
                out.append(",")
            out.append(_key_text(str(k)))
            out.append(":")
            _render(v, out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, v in enumerate(value):
            if i:
                out.append(",")
            _render(v, out)
        out.append("]")
    else:
        raise InternalInvariant(f"cannot serialize {type(value).__name__}")


def canonical_json(obj: Any) -> str:
    out: list[str] = []
    _render(obj, out)
    out.append("\n")
    return "".join(out)


def build_run_report(
    *,
    seed: int,
    config: dict,
    retention: RetentionSet | None = None,
    decision: PruneDecision | None = None,
    flops: dict | None = None,
    decode_report: list[dict] | None = None,
    warnings: list[str] | None = None,
) -> dict:
    """Assemble the run report body in its canonical key order; the CLI puts
    the engine_version/command header in front of it."""
    report: dict = {"seed": seed, "config": config}
    if retention is not None:
        report["retention"] = {
            "k": len(retention.indices),
            "pivot": retention.indices[0],
            "indices": list(retention.indices),
            "trace": [{"index": i, "max_similarity": s} for i, s in retention.trace],
        }
    if decision is not None:
        report["prune_decision"] = {
            "drop_layer": decision.drop_layer,
            "tau": decision.tau,
            "probed": [
                {"layer": layer, "text_to_visual": tv, "visual_to_text": vt}
                for layer, tv, vt in decision.probed
            ],
        }
    if flops is not None:
        report["flops"] = flops
    if decode_report is not None:
        report["decoding_attention"] = decode_report
    if warnings:
        report["warnings"] = list(warnings)
    return report


def report_to_csv(report: dict) -> str:
    """Flat CSV rendering: probe rows first, then summary key/value rows.
    Every row has five cells; decode rows carry to_system, to_visual and
    to_text, and each warning is one quoted summary row."""
    lines = ["section,key,value_1,value_2,value_3"]

    def fmt(v: Any) -> str:  # a string as is, None as empty, a number as in the JSON
        if v is None or isinstance(v, str):
            return v or ""
        return canonical_json(v)[:-1]

    def row(section: str, key: str, *values: Any) -> None:
        lines.append(",".join([section, key, *map(fmt, values), *[""] * (3 - len(values))]))

    def quoted(text: str) -> str:
        return '"' + text.replace('"', '""') + '"'

    decision = report.get("prune_decision")
    if decision:
        for probe in decision["probed"]:
            row("probe", f"layer_{probe['layer']}", probe["text_to_visual"], probe["visual_to_text"])
        row("summary", "drop_layer", decision["drop_layer"])
        row("summary", "tau", decision["tau"])
    retention = report.get("retention")
    if retention:
        row("summary", "k", retention["k"])
        row("summary", "pivot", retention["pivot"])
        row("summary", "indices", quoted(" ".join(str(i) for i in retention["indices"])))
    for key, value in (report.get("flops") or {}).items():
        row("summary", f"flops_{key}", value)
    for entry in report.get("decoding_attention") or []:
        row("decode", f"layer_{entry['layer']}", entry["to_system"], entry["to_visual"], entry["to_text"])
    for warning in report.get("warnings") or []:
        row("summary", "warning", quoted(warning))
    row("summary", "engine_version", report["engine_version"])
    row("summary", "seed", report["seed"])
    return "\n".join(lines) + "\n"
