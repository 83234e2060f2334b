"""FLOPs cost model for the encoding / prefilling / decoding stages.

All formula evaluation happens in Python integers (exact at any scale);
ratios and savings are the only floating-point outputs, and a ratio beyond
float64 is refused. ``stage_ratio_report`` returns the report's ``flops``
section. Architecture presets are shipped inputs, not hard-coded truths:
the published stage ratios pin down an effective encoder cost that standard
per-crop ViT-L/14 accounting does not reproduce, so the headline presets
carry an effective encoder sequence length (804) calibrated to those ratios;
the plain per-crop encoder (577 tokens) is reached with ``flops --enc-n 577``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import EngineError


@dataclass(frozen=True)
class StageConfig:
    """One transformer stack plus the sequence lengths it processes."""

    layers: int
    hidden: int
    ffn: int
    seq_len: int
    out_len: int = 0

    def __post_init__(self):
        if min(self.layers, self.hidden, self.ffn, self.seq_len) < 1 or self.out_len < 0:
            raise EngineError(f"StageConfig: non-positive dimension in {self}")


def flops_prefill(cfg: StageConfig) -> int:
    """Full-sequence pass: T * (4*n*d^2 + 2*n^2*d + 2*n*d*m).

    Also used for the encoding stage with the encoder's own dimensions.
    """
    t, d, m, n = cfg.layers, cfg.hidden, cfg.ffn, cfg.seq_len
    return t * (4 * n * d * d + 2 * n * n * d + 2 * n * d * m)


def flops_decode(cfg: StageConfig) -> int:
    """Closed form of the per-step decoding sum:
    T * (4*L*d^2 + 2*L*d*m + d*L*(2n + L - 1)), which is 0 at L = 0."""
    t, d, m, n, l = cfg.layers, cfg.hidden, cfg.ffn, cfg.seq_len, cfg.out_len
    return t * (4 * l * d * d + 2 * l * d * m + d * l * (2 * n + l - 1))


def stage_ratio_report(
    encoder_cfg: StageConfig,
    llm_cfg: StageConfig,
    reduced_seq_len: int | None = None,
) -> dict:
    """Stage FLOPs with ratios normalized to encoding = 1.

    When ``reduced_seq_len`` is given, ``savings`` is the fraction of
    prefill FLOPs removed by shrinking the LLM input to that length.
    """
    if reduced_seq_len is not None and not 1 <= reduced_seq_len <= llm_cfg.seq_len:
        raise EngineError(
            f"stage_ratio_report: reduced length {reduced_seq_len} outside [1, {llm_cfg.seq_len}]")
    enc = flops_prefill(encoder_cfg)
    pre = flops_prefill(llm_cfg)
    report = {"encoding": enc, "prefilling": pre, "decoding": flops_decode(llm_cfg)}
    for ratio, stage in (("prefill_ratio", "prefilling"), ("decode_ratio", "decoding")):
        try:
            report[ratio] = report[stage] / enc
        except OverflowError:
            raise EngineError(f"stage_ratio_report: {ratio} is beyond float64") from None
    if reduced_seq_len is not None:
        reduced = flops_prefill(replace(llm_cfg, seq_len=reduced_seq_len))
        report["savings"] = 1.0 - reduced / pre
    return report


# CLIP ViT-L/14-336 with the effective sequence length (804) that
# reproduces the published encoding:prefilling:decoding ratios for both the
# 7B and 13B stacks. Standard per-crop accounting (577 tokens) does not.
EFFECTIVE_ENCODER = StageConfig(layers=24, hidden=1024, ffn=4096, seq_len=804)

# Headline presets pair the effective encoder with each Vicuna LLM stack.
MODEL_PRESETS: dict[str, tuple[StageConfig, StageConfig]] = {
    "llava-next-7b": (EFFECTIVE_ENCODER, StageConfig(
        layers=32, hidden=4096, ffn=11008, seq_len=3000, out_len=20)),
    "llava-next-13b": (EFFECTIVE_ENCODER, StageConfig(
        layers=40, hidden=5120, ffn=13824, seq_len=3000, out_len=20)),
}


def preset_configs(
    name: str,
    seq_len: int | None = None,
    out_len: int | None = None,
    encoder_seq_len: int | None = None,
) -> tuple[StageConfig, StageConfig]:
    """Encoder/LLM configs for a named preset, with optional length overrides."""
    enc, llm = MODEL_PRESETS[name]
    if encoder_seq_len is not None:
        enc = replace(enc, seq_len=encoder_seq_len)
    if seq_len is not None:
        llm = replace(llm, seq_len=seq_len)
    if out_len is not None:
        llm = replace(llm, out_len=out_len)
    return enc, llm
