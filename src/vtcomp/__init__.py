"""Two-stage visual-token compression engine.

Stage 1 keeps a maximally diverse subset of visual tokens via greedy
k-center expansion seeded from [CLS] attention; stage 2 drops all
remaining visual tokens at the first scheduled decoder layer where both
cross-modal attention ratios fall below a threshold. The package also
ships the transformer FLOPs cost model, brute-force validation oracles,
and a Monte Carlo verifier for the diversity/redundancy covariance lemma.
"""

__version__ = "0.1.0"

from .errors import EngineError
from .kcenter import RetentionSet, greedy_kcenter, oracle_greedy, optimal_kcenter_radius
from .layout import CompressionPlan, InputLayout, layer_schedule, resolve_k
from .pivot import cls_attention, select_pivot
from .relevance import PruneDecision, attention_ratios, decide_drop_layer, decoding_attention_report
from .costmodel import FlopsReport, StageConfig, flops_decode, flops_prefill, stage_ratio_report
from .theory import LemmaTrial, covariance_experiment, cross_redundancy_measure, diversity_measure

__all__ = [
    "__version__",
    "EngineError",
    "RetentionSet",
    "greedy_kcenter",
    "oracle_greedy",
    "optimal_kcenter_radius",
    "CompressionPlan",
    "InputLayout",
    "layer_schedule",
    "resolve_k",
    "cls_attention",
    "select_pivot",
    "PruneDecision",
    "attention_ratios",
    "decide_drop_layer",
    "decoding_attention_report",
    "FlopsReport",
    "StageConfig",
    "flops_decode",
    "flops_prefill",
    "stage_ratio_report",
    "LemmaTrial",
    "covariance_experiment",
    "cross_redundancy_measure",
    "diversity_measure",
]
