"""The traced benchmark wraps engine functions by the names ``vtcomp.cli``
and ``vtcomp.kcenter`` call them by. A refactor that renames or inlines one
of them breaks only the traced bench run, so these tests pin the names and
the spans that each command records."""

import sys
from pathlib import Path

import pytest

from conftest import block_weighted_attention, build_manifest, row_stochastic
from vtcomp import cli, kcenter
from vtcomp.layout import InputLayout

# bench/ is on the path only for these imports: its module names are generic.
BENCH = str(Path(__file__).resolve().parents[1] / "bench")
sys.path.insert(0, BENCH)
try:
    import loop
    from spans import SpanRecorder
finally:
    sys.path.remove(BENCH)


def test_every_bench_target_is_bound_and_callable():
    for target in loop.targets(cli, kcenter):
        assert callable(getattr(target.module, target.attr, None)), target.attr


def _anyres_manifest(tmp_path, rng):
    extra = {"thumbnail_range": [0, 4], "crop_ranges": [[4, 8]]}
    layout = InputLayout.from_dict({"kind": "anyres", "system_range": [0, 2],
                                    "visual_range": [2, 10], "text_range": [10, 14], **extra})
    return build_manifest(
        tmp_path, kind="anyres", layout_extra=extra,
        attention={4: block_weighted_attention(rng, layout, 1.0),
                   5: block_weighted_attention(rng, layout, 1e-4)},
        decode_rows={4: row_stochastic(rng, layout.seq_len)[:2]},
        plan={"retain_ratio": 0.5, "schedule": [4, 5]})


GREEDY_PAIR = ["kcenter.greedy", "tensors.normalize_rows",
               "kcenter.oracle_greedy", "tensors.normalize_rows"]


@pytest.mark.parametrize("argv, names", [
    (["pipeline"], ["manifest.load", "pivot.cls_attention", "pivot.select_pivot",
                    "kcenter.greedy", "tensors.normalize_rows", "relevance.decide",
                    "costmodel.stage_ratio", "relevance.decode_report", "report.build",
                    "report.emit"]),
    (["flops"], ["costmodel.stage_ratio", "report.build", "report.emit"]),
    (["verify-lemma", "--trials", "100", "--bootstrap", "2"], ["theory.covariance", "report.emit"]),
    (["oracle-check", "--instances", "2", "--max-n", "4"], [*GREEDY_PAIR, *GREEDY_PAIR, "report.emit"]),
], ids=["pipeline", "flops", "verify-lemma", "oracle-check"])
def test_bench_spans_per_command(tmp_path, rng, argv, names):
    if argv[0] == "pipeline":
        argv = [*argv, "--manifest", str(_anyres_manifest(tmp_path, rng))]
    recorder = SpanRecorder()
    recorder.install(loop.targets(cli, kcenter))
    try:
        code = recorder.root(0, "cli", lambda: cli.main([*argv, "--out", str(tmp_path / "r.json")]))
    finally:
        recorder.uninstall()
    assert code == 0
    assert [span.name for span in recorder.spans] == ["cli", *names]


def test_manifest_counts_equal_the_payload_file_sizes(tmp_path, rng):
    # The bench alone reads ManifestData.attention_layers and decode_rows:
    # their byte counts are the payload files' sizes.
    path = _anyres_manifest(tmp_path, rng)
    counts = loop._manifest_counts((), {}, cli.load_manifest(path))
    assert counts["layer_bytes"] == {str(layer): (tmp_path / f"attn_{layer}.bin").stat().st_size
                                     for layer in (4, 5)}
    assert counts["decode_bytes"] == (tmp_path / "decode_4.bin").stat().st_size > 0
