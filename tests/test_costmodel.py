import pytest

from vtcomp.costmodel import (
    MODEL_PRESETS,
    StageConfig,
    flops_decode,
    flops_prefill,
    preset_configs,
    stage_ratio_report,
)
from vtcomp.errors import EngineError


def decode_loop_sum(cfg):
    """Per-step decoding cost, summed explicitly (independent oracle)."""
    t, d, m, n = cfg.layers, cfg.hidden, cfg.ffn, cfg.seq_len
    return t * sum(4 * d * d + 2 * d * (n + step - 1) + 2 * d * m
                   for step in range(1, cfg.out_len + 1))


def test_prefill_unit_config():
    assert flops_prefill(StageConfig(1, 1, 1, 1)) == 8


def test_prefill_big_integer_exact():
    cfg = StageConfig(layers=32, hidden=4096, ffn=11008, seq_len=3000)
    t, d, m, n = 32, 4096, 11008, 3000
    want = t * (4 * n * d ** 2 + 2 * n ** 2 * d + 2 * n * d * m)
    assert flops_prefill(cfg) == want
    assert isinstance(flops_prefill(cfg), int)


def test_prefill_quadratic_term_scaling():
    # With the attention term dominant, doubling n roughly quadruples it.
    cfg = StageConfig(layers=1, hidden=4, ffn=4, seq_len=100000)
    big = StageConfig(layers=1, hidden=4, ffn=4, seq_len=200000)
    ratio = flops_prefill(big) / flops_prefill(cfg)
    assert 3.9 < ratio < 4.0


def test_decode_unit_config():
    assert flops_decode(StageConfig(1, 1, 1, 1, out_len=1)) == 8


def test_decode_zero_output_is_free():
    assert flops_decode(StageConfig(4, 16, 64, 100, out_len=0)) == 0


def test_decode_closed_form_equals_loop(rng):
    for _ in range(50):
        cfg = StageConfig(
            layers=int(rng.integers(1, 50)),
            hidden=int(rng.integers(1, 600)),
            ffn=int(rng.integers(1, 2000)),
            seq_len=int(rng.integers(1, 5000)),
            out_len=int(rng.integers(1, 100)),
        )
        assert flops_decode(cfg) == decode_loop_sum(cfg)


def test_prefill_monotone_in_each_dimension():
    base = StageConfig(layers=4, hidden=32, ffn=64, seq_len=128)
    for field, bump in (("layers", 5), ("hidden", 33), ("ffn", 65), ("seq_len", 129)):
        kwargs = {"layers": 4, "hidden": 32, "ffn": 64, "seq_len": 128}
        kwargs[field] = bump
        assert flops_prefill(StageConfig(**kwargs)) > flops_prefill(base)


def test_stage_ratio_identity():
    cfg = StageConfig(layers=4, hidden=32, ffn=64, seq_len=128)
    r = stage_ratio_report(cfg, cfg)
    assert r["prefill_ratio"] == 1.0


def test_headline_7b_ratios():
    enc, llm = preset_configs("llava-next-7b", seq_len=3000, out_len=20)
    r = stage_ratio_report(enc, llm)
    assert 57.2 <= r["prefill_ratio"] <= 70.0
    assert 0.3 <= r["decode_ratio"] <= 0.5


def test_headline_13b_ratios():
    enc, llm = preset_configs("llava-next-13b", seq_len=3000, out_len=20)
    r = stage_ratio_report(enc, llm)
    assert 109.0 <= r["prefill_ratio"] <= 133.0


def test_ratio_consistency_with_raw_values():
    enc, llm = preset_configs("llava-next-7b")
    r = stage_ratio_report(enc, llm)
    assert r["prefill_ratio"] == pytest.approx(r["prefilling"] / r["encoding"], rel=1e-9)
    assert r["decode_ratio"] == pytest.approx(r["decoding"] / r["encoding"], rel=1e-9)


def test_savings_fraction_monotone():
    enc, llm = preset_configs("llava-next-7b", seq_len=3000)
    previous = -1.0
    for reduced in (3000, 2500, 1500, 500, 100):
        r = stage_ratio_report(enc, llm, reduced_seq_len=reduced)
        assert 0.0 <= r["savings"] < 1.0
        assert r["savings"] > previous or reduced == 3000
        previous = r["savings"]


def test_savings_bounds_checked():
    enc, llm = preset_configs("llava-next-7b", seq_len=3000)
    with pytest.raises(EngineError, match=r"reduced length 0 outside \[1, 3000\]"):
        stage_ratio_report(enc, llm, reduced_seq_len=0)
    with pytest.raises(EngineError, match=r"reduced length 3001 outside \[1, 3000\]"):
        stage_ratio_report(enc, llm, reduced_seq_len=3001)


def test_presets_are_overridable():
    enc, llm = preset_configs("llava-next-7b", seq_len=1234, out_len=7, encoder_seq_len=577)
    assert llm.seq_len == 1234 and llm.out_len == 7
    assert enc.seq_len == 577
    assert MODEL_PRESETS["llava-next-7b"][1].hidden == 4096


def test_stage_config_validation():
    with pytest.raises(EngineError, match="StageConfig: non-positive dimension"):
        StageConfig(0, 1, 1, 1)
    with pytest.raises(EngineError, match="StageConfig: non-positive dimension"):
        StageConfig(1, 1, 1, 1, out_len=-1)
