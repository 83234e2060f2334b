"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (visible with ``pytest -s`` or on failure).

Criteria:
  1. greedy/oracle index-sequence equivalence over >= 200 random instances
  2. greedy covering radius <= 2x exhaustive optimum on small instances
  3. published stage-ratio reproduction + decode closed form == loop sum
  4. covariance lemma: |cov| <= 3 SE at 1e5 trials; negative control exceeds
  5. plan arithmetic anchors (k=288 / k=720, schedule for 32 layers)
  6. cross-modal ratio correctness, analytic cases, tau monotonicity
  7. byte-identical reports and lossless round-trips
  8. desk-scale performance bounds
"""

import json
import time

import numpy as np
import pytest

from conftest import block_weighted_attention, build_manifest
from oracles import covering_radius, optimal_kcenter_radius
from vtcomp.cli import main
from vtcomp.costmodel import StageConfig, flops_decode, preset_configs, stage_ratio_report
from vtcomp.kcenter import greedy_kcenter, oracle_greedy
from vtcomp.layout import CompressionPlan, InputLayout, layer_schedule, resolve_k
from vtcomp.relevance import attention_ratios, decide_drop_layer, partition_masses
from vtcomp.report import canonical_json
from vtcomp.theory import LemmaTrial, covariance_experiment


def _verdict(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion failed: {name}"


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(2024)
    start = time.monotonic()
    ok = True
    for i in range(200):
        n = int(rng.integers(2, 65))
        d = int(rng.integers(2, 17))
        v = rng.standard_normal((n, d)).astype(np.float32)
        pivot = int(rng.integers(0, n))
        # k = n covers every k: greedy selection orders are prefix-stable,
        # spot-checked below on a random k.
        fast = greedy_kcenter(v, pivot, n)
        slow = oracle_greedy(v, pivot, n)
        ok &= fast.indices == slow.indices
        k = int(rng.integers(1, n + 1))
        ok &= greedy_kcenter(v, pivot, k).indices == fast.indices[:k]
    elapsed = time.monotonic() - start
    ok &= elapsed < 30.0
    _verdict(f"1 oracle-equivalence (200 instances, {elapsed:.1f}s)", ok)


def test_criterion_2_two_approximation():
    rng = np.random.default_rng(7)
    start = time.monotonic()
    ok = True
    for _ in range(50):
        n = int(rng.integers(3, 13))
        d = int(rng.integers(2, 9))
        v = rng.standard_normal((n, d))
        pivot = int(rng.integers(0, n))
        for k in range(1, min(5, n) + 1):
            greedy = greedy_kcenter(v, pivot, k)
            r_greedy = covering_radius(v, greedy.indices)
            r_opt = optimal_kcenter_radius(v, k)
            ok &= r_greedy <= 2.0 * r_opt + 1e-9
    elapsed = time.monotonic() - start
    ok &= elapsed < 60.0
    _verdict(f"2 two-approximation (50 sets, {elapsed:.1f}s)", ok)


def test_criterion_3_flops_ratios_and_decode_form():
    enc7, llm7 = preset_configs("llava-next-7b", seq_len=3000, out_len=20)
    r7 = stage_ratio_report(enc7, llm7)
    enc13, llm13 = preset_configs("llava-next-13b", seq_len=3000, out_len=20)
    r13 = stage_ratio_report(enc13, llm13)
    ok = 57.2 <= r7["prefill_ratio"] <= 70.0
    ok &= 0.3 <= r7["decode_ratio"] <= 0.5
    ok &= 109.0 <= r13["prefill_ratio"] <= 133.0

    rng = np.random.default_rng(99)
    for _ in range(100):
        cfg = StageConfig(
            layers=int(rng.integers(1, 64)),
            hidden=int(rng.integers(1, 8192)),
            ffn=int(rng.integers(1, 16384)),
            seq_len=int(rng.integers(1, 8192)),
            out_len=int(rng.integers(0, 256)),
        )
        loop = cfg.layers * sum(
            4 * cfg.hidden ** 2 + 2 * cfg.hidden * (cfg.seq_len + t - 1) + 2 * cfg.hidden * cfg.ffn
            for t in range(1, cfg.out_len + 1))
        ok &= flops_decode(cfg) == loop
    _verdict(f"3 flops-ratios (7B {r7['prefill_ratio']:.1f}:{r7['decode_ratio']:.2f}, "
             f"13B {r13['prefill_ratio']:.1f}) + decode closed form", ok)


def test_criterion_4_covariance_lemma():
    start = time.monotonic()
    res = covariance_experiment(LemmaTrial(seed=0), 100000)
    ok = abs(res["sample_covariance"]) <= 3.0 * res["standard_error"]
    control = covariance_experiment(LemmaTrial(seed=0), 10000, negative_control=True)
    ok &= abs(control["sample_covariance"]) > 3.0 * control["standard_error"]
    elapsed = time.monotonic() - start
    ok &= elapsed < 120.0
    _verdict(f"4 covariance-lemma (cov={res['sample_covariance']:.2e}, "
             f"se={res['standard_error']:.2e}, {elapsed:.1f}s)", ok)


def test_criterion_5_plan_arithmetic():
    ok = resolve_k(CompressionPlan(retain_ratio=0.10), 2880) == 288
    ok &= resolve_k(CompressionPlan(retain_ratio=0.25), 2880) == 720
    ok &= layer_schedule(32) == [16, 20, 24, 28]
    _verdict("5 plan-arithmetic", ok)


def test_criterion_6_attention_ratio_correctness():
    rng = np.random.default_rng(31)
    ok = True
    for _ in range(100):
        s = int(rng.integers(1, 5))
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 6))
        lo = InputLayout(kind="image", system_range=(0, s), visual_range=(s, s + m),
                         text_range=(s + m, s + m + n))
        a = rng.random((lo.seq_len, lo.seq_len)) + 1e-3
        a /= a.sum(axis=1, keepdims=True)
        got = attention_ratios(partition_masses(a, lo), lo)
        t_idx = range(s + m, s + m + n)
        v_idx = range(s, s + m)
        prompt = range(lo.seq_len)
        tv = sum(a[i][j] for i in t_idx for j in v_idx)
        td = sum(a[i][j] for i in t_idx for j in prompt)
        vt = sum(a[i][j] for i in v_idx for j in t_idx)
        vd = sum(a[i][j] for i in v_idx for j in prompt)
        ok &= abs(got[0] - tv / td) <= 1e-6 and abs(got[1] - vt / vd) <= 1e-6

    lo = InputLayout(kind="image", system_range=(0, 1), visual_range=(1, 3), text_range=(3, 4))
    a = np.full((4, 4), 0.25)
    tv, vt = attention_ratios(partition_masses(a, lo), lo)
    ok &= abs(tv - 0.5) <= 1e-9 and abs(vt - 0.25) <= 1e-9

    lo = InputLayout(kind="image", system_range=(0, 2), visual_range=(2, 6), text_range=(6, 9))
    for _ in range(100):
        masses = {l: partition_masses((lambda x: x / x.sum(axis=1, keepdims=True))(
                      rng.random((9, 9)) + 1e-3), lo) for l in (2, 5, 7)}
        previous = np.inf
        for tau in (0.0, 0.05, 0.2, 0.5, 1.0):
            drop = decide_drop_layer(masses, lo, [2, 5, 7], tau=tau).drop_layer
            pos = np.inf if drop is None else drop
            ok &= pos <= previous
            previous = pos
    _verdict("6 attention-ratio-correctness", ok)


def test_criterion_7_determinism(tmp_path):
    rng = np.random.default_rng(55)
    lo = InputLayout(kind="image", system_range=(0, 2), visual_range=(2, 10),
                     text_range=(10, 14))
    attention = {l: block_weighted_attention(rng, lo, 1e-4) for l in (4, 5, 6, 7)}
    path = build_manifest(tmp_path, attention=attention,
                          plan={"retain_ratio": 0.5, "tau": 0.03, "schedule": [4, 5, 6, 7]})
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    ok = main(["pipeline", "--manifest", str(path), "--seed", "3", "--out", str(out1)]) == 0
    ok &= main(["pipeline", "--manifest", str(path), "--seed", "3", "--out", str(out2)]) == 0
    ok &= out1.read_bytes() == out2.read_bytes()
    # Round-trip losslessness: parse and re-serialize canonically.
    text = out1.read_text()
    ok &= canonical_json(json.loads(text)) == text
    _verdict("7 determinism", ok)


def test_criterion_8_desk_scale_performance(tmp_path):
    rng = np.random.default_rng(77)
    v = rng.standard_normal((2880, 4096)).astype(np.float32)
    start = time.monotonic()
    retention = greedy_kcenter(v, 0, 288)
    stage1_elapsed = time.monotonic() - start
    ok = len(retention) == 288 and stage1_elapsed < 5.0

    # Reference fixture: M=2880 visual tokens, schedule-only attention trace.
    layout_kw = dict(system_len=8, visual_len=2880, text_len=112, width=64)
    lo = InputLayout(kind="image", system_range=(0, 8), visual_range=(8, 2888),
                     text_range=(2888, 3000))
    attention = {l: block_weighted_attention(rng, lo, 1e-4) for l in (16, 20, 24, 28)}
    path = build_manifest(tmp_path, attention=attention,
                          plan={"retain_ratio": 0.10, "tau": 0.03,
                                "schedule": [16, 20, 24, 28]},
                          **layout_kw)
    out = tmp_path / "ref.json"
    start = time.monotonic()
    code = main(["pipeline", "--manifest", str(path), "--out", str(out)])
    pipeline_elapsed = time.monotonic() - start
    report = json.loads(out.read_text())
    ok &= code == 0 and pipeline_elapsed < 10.0
    ok &= report["retention"]["k"] == 288
    ok &= report["prune_decision"]["drop_layer"] == 16
    _verdict(f"8 desk-scale-performance (stage1 {stage1_elapsed:.2f}s, "
             f"pipeline {pipeline_elapsed:.2f}s)", ok)
