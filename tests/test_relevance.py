import numpy as np
import pytest

from conftest import build_manifest
from vtcomp.errors import EngineError
from vtcomp.layout import InputLayout
from vtcomp.manifest import load_manifest
from vtcomp.relevance import (attention_ratios, decide_drop_layer, decoding_attention_report,
                              partition_masses)


def layout_for(system, visual, text):
    return InputLayout(kind="image",
                       system_range=(0, system),
                       visual_range=(system, system + visual),
                       text_range=(system + visual, system + visual + text))


def row_stochastic(rng, seq):
    a = rng.random((seq, seq)) + 1e-3
    return a / a.sum(axis=1, keepdims=True)


def naive_ratios(a, layout):
    """Independent nested-sum evaluation over explicit index sets."""
    s = range(*layout.system_range)
    v = range(*layout.visual_range)
    t = range(*layout.text_range)
    prompt = list(s) + list(v) + list(t)
    tv = sum(a[i][j] for i in t for j in v)
    t_all = sum(a[i][j] for i in t for j in prompt)
    vt = sum(a[i][j] for i in v for j in t)
    v_all = sum(a[i][j] for i in v for j in prompt)
    return tv / t_all, vt / v_all


def test_partition_masses_sum_each_key_range(rng):
    # Text placed before visual: the columns follow the partitions, not
    # their order in the sequence. Keys past the prompt lie in no column.
    lo = InputLayout(kind="image", system_range=(0, 2), visual_range=(5, 9), text_range=(2, 5))
    rows = rng.random((4, 12)).astype(np.float32)
    got = partition_masses(rows, lo)
    assert got.shape == (4, 3) and got.dtype == np.float64
    for i in range(4):
        for col, (a, b) in enumerate([(0, 2), (5, 9), (2, 5)]):
            assert got[i, col] == pytest.approx(sum(float(rows[i, j]) for j in range(a, b)), abs=1e-12)


def test_uniform_matrix_analytic():
    lo = layout_for(1, 2, 1)
    a = np.full((4, 4), 0.25)
    tv, vt = attention_ratios(partition_masses(a, lo), lo)
    assert tv == pytest.approx(0.5, abs=1e-9)
    assert vt == pytest.approx(0.25, abs=1e-9)


def test_block_diagonal_is_zero():
    lo = layout_for(1, 2, 1)
    a = np.zeros((4, 4))
    a[0, 0] = 1.0
    a[1:3, 1:3] = 0.5
    a[3, 3] = 1.0
    assert attention_ratios(partition_masses(a, lo), lo) == (0.0, 0.0)


def test_matches_nested_sum_oracle(rng):
    # The second layout places text before visual: partition order is input-defined.
    text_first = InputLayout(kind="image", system_range=(0, 2), visual_range=(6, 12), text_range=(2, 6))
    for lo in (layout_for(2, 6, 4), text_first):
        for _ in range(20):
            a = row_stochastic(rng, 12)
            got = attention_ratios(partition_masses(a, lo), lo)
            want = naive_ratios(a, lo)
            assert got[0] == pytest.approx(want[0], abs=1e-6)
            assert got[1] == pytest.approx(want[1], abs=1e-6)
            assert 0.0 <= got[0] <= 1.0 and 0.0 <= got[1] <= 1.0


def test_denominator_equals_partition_size(rng):
    lo = layout_for(3, 5, 4)
    a = row_stochastic(rng, 12)
    t0, t1 = lo.text_range
    assert a[t0:t1].sum() == pytest.approx(lo.text_len, abs=1e-4)
    v0, v1 = lo.visual_range
    assert a[v0:v1].sum() == pytest.approx(lo.visual_len, abs=1e-4)


def test_empty_partition():
    lo = InputLayout(kind="image", system_range=(0, 2), visual_range=(2, 4), text_range=(4, 4))
    a = np.full((4, 4), 0.25)
    with pytest.raises(EngineError, match="attention_ratios: text partition is empty"):
        attention_ratios(partition_masses(a, lo), lo)


def test_fully_masked_block_raises():
    lo = layout_for(1, 2, 1)
    a = np.full((4, 4), 0.25)
    a[3] = 0.0  # the only text row is masked
    with pytest.raises(EngineError, match="^attention_ratios: text rows carry no attention mass"):
        attention_ratios(partition_masses(a, lo), lo)
    b = np.full((4, 4), 0.25)
    b[1:3] = 0.0  # both visual rows are masked
    with pytest.raises(EngineError, match="^attention_ratios: visual rows carry no attention mass"):
        attention_ratios(partition_masses(b, lo), lo)


def make_layers(rng, lo, layers):
    return {l: row_stochastic(rng, lo.seq_len) for l in layers}


def masses_of(layers, lo):
    return {layer: partition_masses(a, lo) for layer, a in layers.items()}


def test_drop_at_first_qualifying_layer():
    lo = layout_for(1, 2, 1)
    quiet = np.eye(4)  # block diagonal: ratios (0, 0)
    busy = np.full((4, 4), 0.25)
    layers = {4: busy, 5: quiet, 6: quiet, 7: busy}
    d = decide_drop_layer(masses_of(layers, lo), lo, [4, 5, 6, 7], tau=0.03)
    assert d.drop_layer == 5
    # Probing stops at the first hit.
    assert [p[0] for p in d.probed] == [4, 5]


def test_no_drop_when_conjunction_fails():
    lo = layout_for(1, 2, 1)
    a = np.zeros((4, 4))
    a[0, 0] = 1.0
    a[1, 3], a[1, 1] = 0.01, 0.99  # visual -> text stays below tau
    a[2, 2] = 1.0
    a[3, 1], a[3, 3] = 0.05, 0.95  # text -> visual exceeds tau
    layers = {4: a}
    d = decide_drop_layer(masses_of(layers, lo), lo, [4], tau=0.03)
    assert d.drop_layer is None
    assert len(d.probed) == 1


def test_missing_layer(rng):
    lo = layout_for(1, 2, 1)
    layers = make_layers(rng, lo, [4, 6])
    with pytest.raises(EngineError, match="no attention matrix for scheduled layer 5"):
        decide_drop_layer(masses_of(layers, lo), lo, [4, 5, 6], tau=0.03)


def test_masked_probe_raises_naming_layer(rng):
    lo = layout_for(2, 4, 3)
    layers = make_layers(rng, lo, [2, 5, 7])
    t0, t1 = lo.text_range
    layers[5][t0:t1] = 0.0
    # tau=0 never drops, so probing reaches layer 5 instead of stopping at 2.
    with pytest.raises(EngineError, match="^decide_drop_layer: layer 5: attention_ratios: text rows carry no attention mass"):
        decide_drop_layer(masses_of(layers, lo), lo, [2, 5, 7], tau=0.0)


def test_tau_boundaries(rng):
    lo = layout_for(2, 4, 3)
    layers = make_layers(rng, lo, [2, 5, 7])
    assert decide_drop_layer(masses_of(layers, lo), lo, [2, 5, 7], tau=1.0).drop_layer == 2
    assert decide_drop_layer(masses_of(layers, lo), lo, [2, 5, 7], tau=0.0).drop_layer is None


def test_tau_monotonicity(rng):
    lo = layout_for(2, 4, 3)
    for _ in range(25):
        layers = make_layers(rng, lo, [2, 5, 7])
        previous = None
        for tau in (0.0, 0.1, 0.3, 0.6, 1.0):
            d = decide_drop_layer(masses_of(layers, lo), lo, [2, 5, 7], tau=tau).drop_layer
            if previous is not None:
                prev_pos = np.inf if previous is None else previous
                cur_pos = np.inf if d is None else d
                assert cur_pos <= prev_pos
            previous = d


def test_unscheduled_layers_ignored(rng):
    lo = layout_for(2, 4, 3)
    layers = make_layers(rng, lo, [2, 5, 7, 9])
    base = decide_drop_layer(masses_of(layers, lo), lo, [2, 5], tau=0.2)
    perturbed = {**layers, 9: row_stochastic(rng, lo.seq_len)}
    again = decide_drop_layer(masses_of(perturbed, lo), lo, [2, 5], tau=0.2)
    assert base == again


def loaded_decode_masses(tmp_path, lo, rows):
    """The decode masses ``load_manifest`` keeps for ``rows`` (layer -> decode rows)."""
    path = build_manifest(tmp_path, system_len=lo.system_len, visual_len=lo.visual_len,
                          text_len=lo.text_len, decode_rows=rows, with_stage1=False)
    return load_manifest(path).decode_masses


def test_decode_report_uniform_row():
    lo = layout_for(1, 2, 1)
    rep = decoding_attention_report({3: partition_masses(np.full((1, 4), 0.25), lo)})
    assert rep == [{"layer": 3, "to_system": pytest.approx(0.25),
                    "to_visual": pytest.approx(0.5), "to_text": pytest.approx(0.25)}]


def test_decode_report_zero_visual_mass():
    lo = layout_for(1, 2, 1)
    row = np.array([[0.5, 0.0, 0.0, 0.5]])
    rep = decoding_attention_report({0: partition_masses(row, lo)})
    assert rep[0]["to_visual"] == 0.0


def test_decode_report_deep_layer_visual_fraction(rng):
    # Synthetic trace shaped like the observed decoding statistics: visual
    # fraction below 5% in deep layers, remainder on generated tokens.
    lo = layout_for(4, 10, 6)
    rows = {}
    for layer in (16, 24, 31):
        r = rng.random((3, lo.seq_len + 5))
        r[:, 4:14] *= 0.01
        r /= r.sum(axis=1, keepdims=True)
        rows[layer] = r
    rep = decoding_attention_report({layer: partition_masses(r, lo) for layer, r in rows.items()})
    for entry in rep:
        assert entry["to_visual"] < 0.05
        total = entry["to_system"] + entry["to_visual"] + entry["to_text"]
        assert total <= 1.0 + 1e-9
        # Direct summation cross-check on the raw rows.
        direct = rows[entry["layer"]][:, 4:14].sum(axis=1).mean()
        assert entry["to_visual"] == pytest.approx(direct, abs=1e-12)


def test_decode_report_skips_fully_masked_rows(tmp_path, rng):
    # Masked rows are not queries: half-masked rows give the same fractions
    # as the unmasked rows alone, not half of them.
    lo = layout_for(2, 5, 3)
    rows = row_stochastic(rng, lo.seq_len + 4)[:4].astype(np.float32)
    masked = rows.copy()
    masked[[0, 2]] = 0.0
    rep = decoding_attention_report(loaded_decode_masses(tmp_path / "masked", lo, {6: masked}))
    assert rep == decoding_attention_report(loaded_decode_masses(tmp_path / "queries", lo,
                                                                 {6: rows[[1, 3]]}))
    want = partition_masses(rows[[1, 3]], lo).mean(axis=0)
    assert [rep[0][k] for k in ("to_system", "to_visual", "to_text")] == pytest.approx(want, abs=1e-15)


def test_decode_report_row_with_mass_only_past_the_prompt_counts(tmp_path):
    # A row whose mass is all on generated keys is a query with zero prompt mass.
    lo = layout_for(1, 2, 1)
    rows = np.array([[0.25, 0.25, 0.25, 0.25, 0.0], [0.0, 0.0, 0.0, 0.0, 1.0]])
    rep = decoding_attention_report(loaded_decode_masses(tmp_path, lo, {0: rows}))
    assert rep[0]["to_visual"] == pytest.approx(0.25)


def test_decode_report_fully_masked_layer_raises_naming_layer(tmp_path):
    lo = layout_for(1, 2, 1)
    masses = loaded_decode_masses(tmp_path, lo, {3: np.full((1, 4), 0.25), 5: np.zeros((2, 6))})
    with pytest.raises(EngineError, match=r"^decoding_attention_report: layer 5: decode rows carry "
                                          r"no attention mass \(all masked\)$"):
        decoding_attention_report(masses)
