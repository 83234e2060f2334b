"""Output checks run once per distinct argv, outside the timed loop.

Every check recomputes the answer from the raw fixture payloads with numpy
alone, by a different route than the engine takes: retention is replayed
from one float64 Gram block and a running row-max, the pivot from a
re-associated logit product, the probe ratios from whole-block sums, and
the FLOPs from the per-step decode loop over the preset dimensions, which
are restated here. Each check returns a list of failure messages.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

TIE_TOL = 1e-9  # near-tie slack when replaying argmin/argmax decisions
REL_TOL = 1e-6  # reports print floats with 9 significant digits

# (layers, hidden, ffn) of the engine's llava-next-7b preset: the effective
# 804-token CLIP encoder and the Vicuna-7B stack.
ENCODER = (24, 1024, 4096, 804)
LLM = (32, 4096, 11008)


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _payload(base: Path, manifest: dict, name: str) -> np.ndarray:
    entry = next(e for e in manifest["entries"] if e["name"] == name)
    return np.fromfile(base / entry["file"], dtype="<f4").reshape(entry["shape"])


def _check_pivot(base, manifest, layout, pivot) -> list[str]:
    z = _payload(base, manifest, "visual").astype(np.float64)
    cls = _payload(base, manifest, "cls").astype(np.float64)
    wq = _payload(base, manifest, "wq").astype(np.float64)
    wk = _payload(base, manifest, "wk").astype(np.float64)
    d = cls.shape[0]
    logits = z @ (wk @ (cls @ wq)) / math.sqrt(d)
    if layout["kind"] == "video":
        per = logits.reshape(layout["frames"], layout["tokens_per_frame"])
        e = np.exp(per - per.max(axis=1, keepdims=True))
        scores = (e / e.sum(axis=1, keepdims=True)).reshape(-1)
        lo, hi = 0, scores.shape[0]
    else:
        e = np.exp(logits - logits.max())
        scores = e / e.sum()
        lo, hi = layout["thumbnail_range"]
    if not lo <= pivot < hi:
        return [f"pivot {pivot} outside candidate range [{lo}, {hi})"]
    best = scores[lo:hi].max()
    if scores[pivot] < best - 1e-6 * best:
        return [f"pivot {pivot} scores {scores[pivot]:.9g}, best candidate {best:.9g}"]
    return []


def _check_retention(base, manifest, retention, k) -> list[str]:
    idx = retention["indices"]
    if retention["k"] != k or len(idx) != k or len(set(idx)) != k:
        return [f"retention: expected {k} distinct indices, got k={retention['k']}"]
    if retention["pivot"] != idx[0]:
        return ["retention: pivot is not the first index"]
    z = _payload(base, manifest, "visual").astype(np.float64)
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    gram = np.clip(z[idx] @ z.T, -1.0, 1.0)  # k x n, one BLAS-3 call
    cover = gram[0].copy()
    taken = np.zeros(z.shape[0], dtype=bool)
    taken[idx[0]] = True
    for step in range(1, k):
        c = idx[step]
        floor = cover[~taken].min()
        if taken[c] or cover[c] > floor + TIE_TOL:
            return [f"retention step {step}: picked {c} at {cover[c]:.12g}, min is {floor:.12g}"]
        reported = retention["trace"][step]
        if reported["index"] != c or not abs(reported["max_similarity"] - cover[c]) <= 1e-8:
            return [f"retention step {step}: trace {reported} != ({c}, {cover[c]:.9g})"]
        taken[c] = True
        np.maximum(cover, gram[step], out=cover)
    return []


def _check_probes(base, manifest, layout, decision, drop_layer) -> list[str]:
    v0, v1 = layout["visual_range"]
    t0, t1 = layout["text_range"]
    tau = decision["tau"]
    schedule = sorted(e["layer"] for e in manifest["entries"] if e["role"] == "attention_layer_k")
    probed = decision["probed"]
    errors = []
    if [p["layer"] for p in probed] != schedule[:len(probed)]:
        errors.append(f"probes {[p['layer'] for p in probed]} are not a prefix of {schedule}")
    for n, p in enumerate(probed):
        a = _payload(base, manifest, f"attn_{p['layer']}")
        tv = a[t0:t1, v0:v1].sum(dtype=np.float64) / a[t0:t1].sum(dtype=np.float64)
        vt = a[v0:v1, t0:t1].sum(dtype=np.float64) / a[v0:v1].sum(dtype=np.float64)
        if not (_close(tv, p["text_to_visual"]) and _close(vt, p["visual_to_text"])):
            errors.append(f"layer {p['layer']}: ratios ({p['text_to_visual']}, {p['visual_to_text']})"
                          f" != recomputed ({tv:.9g}, {vt:.9g})")
        quiet = tv < tau and vt < tau
        if quiet != (n == len(probed) - 1 and decision["drop_layer"] is not None):
            errors.append(f"layer {p['layer']}: probing did not stop at the first quiet layer")
    if decision["drop_layer"] != drop_layer:
        errors.append(f"drop layer {decision['drop_layer']} != designed {drop_layer}")
    return errors


def _prefill(layers, d, m, n) -> int:
    return layers * (4 * n * d * d + 2 * n * n * d + 2 * n * d * m)


def _check_flops(flops, seq, reduced, decode_len) -> list[str]:
    t, d, m = LLM
    enc = _prefill(ENCODER[0], ENCODER[1], ENCODER[2], ENCODER[3])
    pre = _prefill(t, d, m, seq)
    dec = 0
    for step in range(decode_len):  # one token against seq + step keys
        dec += t * (4 * d * d + 2 * d * m + 2 * d * (seq + step))
    expect = {"encoding": enc, "prefilling": pre, "decoding": dec}
    errors = [f"flops {key}: {flops[key]} != {v}" for key, v in expect.items() if flops[key] != v]
    savings = 1.0 - _prefill(t, d, m, reduced) / pre
    for key, v in (("prefill_ratio", pre / enc), ("decode_ratio", dec / enc), ("savings", savings)):
        if not _close(flops[key], v, 1e-8):
            errors.append(f"flops {key}: {flops[key]} != {v:.9g}")
    return errors


def _check_decode(base, manifest, layout, rows_report) -> list[str]:
    errors = []
    parts = {"to_system": layout["system_range"], "to_visual": layout["visual_range"],
             "to_text": layout["text_range"]}
    for entry in rows_report:
        rows = _payload(base, manifest, f"decode_{entry['layer']}").astype(np.float64)
        for key, (a, b) in parts.items():
            expect = float(np.mean(rows[:, a:b].sum(axis=1)))
            if not _close(entry[key], expect):
                errors.append(f"decode layer {entry['layer']} {key}: {entry[key]} != {expect:.9g}")
    return errors


def check_pipeline(manifest_path: Path, report_path: Path, ratio: float, design: dict) -> list[str]:
    base = manifest_path.parent
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    layout = manifest["layout"]
    report = json.loads(report_path.read_text(encoding="utf-8"))
    m = layout["visual_range"][1] - layout["visual_range"][0]
    k = max(1, min(m, math.floor(ratio * m + 0.5)))
    seq = layout["text_range"][1]
    system = layout["system_range"][1] - layout["system_range"][0]
    text = layout["text_range"][1] - layout["text_range"][0]
    retention = report["retention"]
    errors = _check_pivot(base, manifest, layout, retention["pivot"])
    errors += _check_retention(base, manifest, retention, k)
    errors += _check_probes(base, manifest, layout, report["prune_decision"], design["drop_layer"])
    errors += _check_flops(report["flops"], seq, system + k + text, report["config"]["decode_len"])
    if design["decode_rows"]:
        errors += _check_decode(base, manifest, layout, report.get("decoding_attention", []))
    return errors


def check_verify(reports: list[Path]) -> list[str]:
    positive, control, oracle = (json.loads(p.read_text(encoding="utf-8")) for p in reports)
    errors = []
    if positive.get("within_3se") is not True or positive.get("negative_control") is not False:
        errors.append("verify-lemma: orthogonal run is not within 3 standard errors")
    if control.get("within_3se") is not False or control.get("negative_control") is not True:
        errors.append("verify-lemma --negative-control: covariance is not significant")
    if oracle.get("mismatches") != 0 or oracle.get("ok") is not True:
        errors.append(f"oracle-check: {oracle.get('mismatches')} mismatches")
    return errors
