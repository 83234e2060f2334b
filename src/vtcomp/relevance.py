"""Cross-modal attention ratios and the full-drop decision (stage 2).

Attention matrices are head-averaged, row-stochastic over their unmasked
support, and sized to the prompt (system + visual + text); masked entries
are stored as exact zeros, so the ratio sums need no mask logic. Decode
rows are query rows captured during generation; they may extend past the
prompt length to cover previously generated keys. The inputs are arrays
whose shapes ``load_manifest`` has already validated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EngineError
from .layout import InputLayout


@dataclass(frozen=True)
class PruneDecision:
    """Outcome of probing the schedule: first layer where both ratios < tau.

    ``probed`` records every probe actually evaluated, in schedule order,
    as (layer, text_to_visual, visual_to_text). Probing stops at the first
    qualifying layer.
    """

    drop_layer: int | None
    probed: tuple[tuple[int, float, float], ...]
    tau: float


def attention_ratios(a: np.ndarray, row_sums: np.ndarray, layout: InputLayout) -> tuple[float, float]:
    """Fraction of text-query attention mass on visual keys, and vice versa.

    ``row_sums`` holds the float64 row sums of ``a`` that ``load_manifest``
    computed while validating it. The totals add those sums over the text
    and the visual rows, so only the two cross-modal blocks of ``a`` are
    read, accumulated in float64 without copying. A row-block with no
    attention mass (every row masked) has no ratio and raises EngineError
    rather than reading as 0, which would pass any tau.
    """
    if layout.text_len == 0:
        raise EngineError("attention_ratios: text partition is empty")
    if layout.visual_len == 0:
        raise EngineError("attention_ratios: visual partition is empty")

    v0, v1 = layout.visual_range
    t0, t1 = layout.text_range

    t_to_v = a[t0:t1, v0:v1].sum(dtype=np.float64)
    t_total = row_sums[t0:t1].sum()
    v_to_t = a[v0:v1, t0:t1].sum(dtype=np.float64)
    v_total = row_sums[v0:v1].sum()

    if not t_total > 0:
        raise EngineError("attention_ratios: text rows carry no attention mass (all masked)")
    if not v_total > 0:
        raise EngineError("attention_ratios: visual rows carry no attention mass (all masked)")
    return float(t_to_v / t_total), float(v_to_t / v_total)


def decide_drop_layer(
    layers: dict[int, np.ndarray],
    row_sums: dict[int, np.ndarray],
    layout: InputLayout,
    schedule,
    tau: float,
) -> PruneDecision:
    """Probe scheduled layers in ascending order; drop at the first layer
    where both cross-modal ratios fall below tau, else None.

    ``layers`` maps a layer index to its head-averaged prompt attention,
    and ``row_sums`` maps it to that matrix's float64 row sums.
    """
    ordered = sorted(int(x) for x in schedule)
    for layer in ordered:
        if layer not in layers:
            raise EngineError(f"decide_drop_layer: no attention matrix for scheduled layer {layer}")
    probed: list[tuple[int, float, float]] = []
    drop_layer = None
    for layer in ordered:
        try:
            alpha_tv, alpha_vt = attention_ratios(layers[layer], row_sums[layer], layout)
        except EngineError as e:
            raise EngineError(f"decide_drop_layer: layer {layer}: {e}") from None
        probed.append((layer, alpha_tv, alpha_vt))
        if alpha_tv < tau and alpha_vt < tau:
            drop_layer = layer
            break
    return PruneDecision(drop_layer=drop_layer, probed=tuple(probed), tau=tau)


def decoding_attention_report(decode_rows: dict[int, np.ndarray], layout: InputLayout) -> list[dict]:
    """Per-layer mean attention fractions of decode-step queries onto the
    system / visual / text prompt partitions. ``decode_rows`` maps a layer
    index to its decode-step query rows.

    Rows may be longer than the prompt; any remaining mass sits on
    previously generated keys, so the three fractions sum to <= 1.
    """
    s0, s1 = layout.system_range
    v0, v1 = layout.visual_range
    t0, t1 = layout.text_range

    report = []
    for layer in sorted(decode_rows):
        # float64 sets the summation dtype, and so the report bytes.
        rows = np.asarray(decode_rows[layer], dtype=np.float64)
        report.append({
            "layer": layer,
            "to_system": float(rows[:, s0:s1].sum(axis=1).mean()),
            "to_visual": float(rows[:, v0:v1].sum(axis=1).mean()),
            "to_text": float(rows[:, t0:t1].sum(axis=1).mean()),
        })
    return report
