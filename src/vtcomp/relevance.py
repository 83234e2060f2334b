"""Cross-modal attention ratios and the full-drop decision (stage 2).

Attention rows are head-averaged query rows, row-stochastic over their
unmasked support; masked entries are stored as exact zeros, so the sums
need no mask logic. Both stage 2 and the decode report work from one
reduction, ``partition_masses``: each row's float64 mass on the system,
visual and text keys. ``load_manifest`` takes it of every prompt attention
matrix and every set of decode rows while validating them, so neither
stage 2 nor the decode report reads an attention payload. Decode rows are
query rows captured during generation; they may extend past the prompt to
cover previously generated keys, whose mass lies in no partition. Each
mass is a float64 ``einsum`` of float32 weights, added in sequence (maybe in
SIMD lanes, so the last bits may depend on the CPU): bit-equal to pairwise
sums on the bench fixtures, and within 2.3e-15 relative of ``math.fsum`` on
1280 softmax rows of n = 4608, logits ~ N(0, 6^2) (pairwise: 4.4e-16).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EngineError
from .layout import InputLayout

SYSTEM, VISUAL, TEXT = range(3)  # the columns of partition_masses


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


def partition_masses(rows: np.ndarray, layout: InputLayout) -> np.ndarray:
    """Each row's attention mass on the system, visual and text keys, as a
    (rows, 3) float64 array with one float64 sum per row and partition."""
    ranges = (layout.system_range, layout.visual_range, layout.text_range)
    return np.stack([np.einsum("ij->i", rows[:, a:b], dtype=np.float64) for a, b in ranges], axis=1)


def attention_ratios(masses: np.ndarray, layout: InputLayout) -> tuple[float, float]:
    """Fraction of text-query attention mass on visual keys, and vice versa,
    from the partition masses of a prompt attention matrix. A row-block with
    no attention mass (every row masked) has no ratio and raises EngineError
    rather than reading as 0, which would pass any tau.
    """
    if layout.text_len == 0:
        raise EngineError("attention_ratios: text partition is empty")
    text = masses[slice(*layout.text_range)]
    visual = masses[slice(*layout.visual_range)]
    t_total, v_total = text.sum(), visual.sum()
    if not t_total > 0:
        raise EngineError("attention_ratios: text rows carry no attention mass (all masked)")
    if not v_total > 0:
        raise EngineError("attention_ratios: visual rows carry no attention mass (all masked)")
    return float(text[:, VISUAL].sum() / t_total), float(visual[:, TEXT].sum() / v_total)


def decide_drop_layer(masses: dict[int, np.ndarray], layout: InputLayout, schedule,
                      tau: float) -> PruneDecision:
    """Probe the scheduled layers in the order given (a plan's schedule is
    strictly increasing); drop at the first layer where both cross-modal
    ratios fall below tau, else None.

    ``masses`` maps a layer index to the partition masses of its
    head-averaged prompt attention.
    """
    for layer in schedule:
        if layer not in masses:
            raise EngineError(f"decide_drop_layer: no attention matrix for scheduled layer {layer}")
    probed: list[tuple[int, float, float]] = []
    drop_layer = None
    for layer in schedule:
        try:
            alpha_tv, alpha_vt = attention_ratios(masses[layer], layout)
        except EngineError as e:
            raise EngineError(f"decide_drop_layer: layer {layer}: {e}") from None
        probed.append((layer, alpha_tv, alpha_vt))
        if alpha_tv < tau and alpha_vt < tau:
            drop_layer = layer
            break
    return PruneDecision(drop_layer=drop_layer, probed=tuple(probed), tau=tau)


def decoding_attention_report(masses: dict[int, np.ndarray]) -> list[dict]:
    """Per-layer mean attention fractions of decode-step queries onto the
    system / visual / text prompt partitions. ``masses`` maps a layer index
    to the partition masses of its decode query rows: ``load_manifest``
    keeps only the rows with a positive full-width sum, since a fully masked
    row is not a query. A layer with no query rows raises EngineError. Any
    remaining mass sits on previously generated keys, so the three
    fractions sum to <= 1.
    """
    report = []
    for layer in sorted(masses):
        if not len(masses[layer]):
            raise EngineError(f"decoding_attention_report: layer {layer}: "
                              "decode rows carry no attention mass (all masked)")
        system, visual, text = masses[layer].mean(axis=0).tolist()
        report.append({"layer": layer, "to_system": system, "to_visual": visual, "to_text": text})
    return report
