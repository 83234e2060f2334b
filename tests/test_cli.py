import csv
import errno
import hashlib
import io
import json
import mmap
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import block_weighted_attention, build_manifest, row_stochastic
from vtcomp import cli, kcenter, manifest
from vtcomp.cli import main
from vtcomp.layout import InputLayout
from vtcomp.report import canonical_json


def small_layout():
    return InputLayout(kind="image", system_range=(0, 2), visual_range=(2, 10),
                       text_range=(10, 14))


def fixture_with_trace(tmp_path, rng, cross_mass=(1.0, 1e-4, 1e-4, 1.0), tau=0.03):
    layout = small_layout()
    attention = {layer: block_weighted_attention(rng, layout, mass)
                 for layer, mass in zip((4, 5, 6, 7), cross_mass)}
    return build_manifest(
        tmp_path, attention=attention,
        plan={"retain_ratio": 0.5, "tau": tau, "schedule": [4, 5, 6, 7]})


def run_json(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_select_reports_retention(tmp_path, rng, capsys):
    path = build_manifest(tmp_path)
    code, report = run_json(["select", "--manifest", str(path), "--ratio", "0.5"], capsys)
    assert code == 0
    assert report["retention"]["k"] == 4
    indices = report["retention"]["indices"]
    assert len(set(indices)) == 4
    assert indices[0] == report["retention"]["pivot"]


def test_select_k_flag_overrides_plan(tmp_path, rng, capsys):
    path = build_manifest(tmp_path)
    code, report = run_json(["select", "--manifest", str(path), "--k", "2"], capsys)
    assert code == 0
    assert report["retention"]["k"] == 2


def test_ratio_and_k_conflict_is_usage_error(tmp_path):
    path = build_manifest(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["select", "--manifest", str(path), "--ratio", "0.5", "--k", "2"])
    assert exc.value.code == 2


def test_decide_finds_first_quiet_layer(tmp_path, rng, capsys):
    path = fixture_with_trace(tmp_path, rng)
    code, report = run_json(["decide", "--manifest", str(path)], capsys)
    assert code == 0
    assert report["prune_decision"]["drop_layer"] == 5
    assert [p["layer"] for p in report["prune_decision"]["probed"]] == [4, 5]


def test_decide_tau_zero_never_drops(tmp_path, rng, capsys):
    path = fixture_with_trace(tmp_path, rng)
    code, report = run_json(["decide", "--manifest", str(path), "--tau", "0.0"], capsys)
    assert code == 0
    assert report["prune_decision"]["drop_layer"] is None


def test_decide_missing_scheduled_layer_exits_3(tmp_path, rng, capsys):
    path = fixture_with_trace(tmp_path, rng)
    code = main(["decide", "--manifest", str(path), "--schedule", "4,5,9"])
    assert code == 3
    assert "9" in capsys.readouterr().err


def test_pipeline_full(tmp_path, rng, capsys):
    path = fixture_with_trace(tmp_path, rng)
    code, report = run_json(["pipeline", "--manifest", str(path)], capsys)
    assert code == 0
    assert report["retention"]["k"] == 4
    assert report["prune_decision"]["drop_layer"] == 5
    assert 0.0 <= report["flops"]["savings"] < 1.0
    assert "warnings" not in report


def test_pipeline_stage1_only_warns(tmp_path, rng, capsys):
    path = build_manifest(tmp_path)
    code, report = run_json(["pipeline", "--manifest", str(path)], capsys)
    assert code == 0
    assert "retention" in report
    assert "prune_decision" not in report
    assert report["warnings"]


@pytest.mark.parametrize("kind, extra", [
    ("image", {}),
    ("anyres", {"thumbnail_range": [0, 4], "crop_ranges": [[4, 8]]}),
    ("video", {"frames": 2, "tokens_per_frame": 4}),
])
def test_pipeline_is_select_plus_decide(tmp_path, rng, capsys, kind, extra):
    layout = InputLayout.from_dict({"kind": kind, "system_range": [0, 2], "visual_range": [2, 10],
                                    "text_range": [10, 14], **extra})
    path = build_manifest(
        tmp_path, kind=kind, layout_extra=extra,
        attention={4: block_weighted_attention(rng, layout, 1.0),
                   5: block_weighted_attention(rng, layout, 1e-4)},
        decode_rows={4: row_stochastic(rng, layout.seq_len)[:2]},
        plan={"retain_ratio": 0.5, "schedule": [4, 5]})
    reports = {}
    for command in ("select", "decide", "pipeline"):
        code, reports[command] = run_json([command, "--manifest", str(path)], capsys)
        assert code == 0
    select, decide, pipeline = reports.values()
    assert pipeline["retention"] == select["retention"]
    assert pipeline["prune_decision"] == decide["prune_decision"]
    assert pipeline["prune_decision"]["drop_layer"] == 5
    assert pipeline["decoding_attention"] == decide["decoding_attention"]
    assert select["config"]["plan"] == decide["config"]["plan"] == pipeline["config"]["plan"]
    assert set(pipeline) == set(select) | set(decide) | {"flops"}


@pytest.mark.parametrize("command", ["select", "decide", "pipeline"])
def test_empty_visual_range_exits_3(tmp_path, rng, capsys, command):
    path = build_manifest(tmp_path, visual=np.zeros((0, 6), dtype=np.float32),
                          attention={4: row_stochastic(rng, 6)},
                          plan={"retain_ratio": 0.5, "schedule": [4]})
    code = main([command, "--manifest", str(path)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == f"vtcomp {command}: error: layout: visual_range is empty\n"


def test_pipeline_determinism(tmp_path, rng):
    path = fixture_with_trace(tmp_path, rng)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["pipeline", "--manifest", str(path), "--seed", "7", "--out", str(out1)]) == 0
    assert main(["pipeline", "--manifest", str(path), "--seed", "7", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_report_roundtrip_via_canonical_json(tmp_path, rng, capsys):
    path = fixture_with_trace(tmp_path, rng)
    out = tmp_path / "report.json"
    assert main(["pipeline", "--manifest", str(path), "--out", str(out)]) == 0
    text = out.read_text()
    parsed = json.loads(text)
    assert canonical_json(parsed) == text


def test_csv_report(tmp_path, rng, capsys):
    path = fixture_with_trace(tmp_path, rng)
    code = main(["pipeline", "--manifest", str(path), "--report", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "section,key,value_1,value_2,value_3"
    assert any(line.startswith("probe,layer_4,") for line in lines)
    assert any(line.startswith("summary,drop_layer,5") for line in lines)


@pytest.mark.parametrize("with_attention", [True, False], ids=["stage2", "stage2-skipped"])
def test_csv_carries_every_probe_decode_and_warning_value(tmp_path, rng, capsys, with_attention):
    layout = small_layout()
    attention = {layer: block_weighted_attention(rng, layout, mass)
                 for layer, mass in ((4, 1.0), (5, 1e-4))} if with_attention else None
    path = build_manifest(tmp_path, attention=attention,
                          decode_rows={4: row_stochastic(rng, layout.seq_len + 2)[:2],
                                       6: row_stochastic(rng, layout.seq_len + 3)[:3]},
                          plan={"retain_ratio": 0.5, "schedule": [4, 5]})
    argv = ["pipeline", "--manifest", str(path), "--tau", "0"]
    code, report = run_json(argv, capsys)
    assert code == 0 and main([*argv, "--report", "csv"]) == 0
    table = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert table[0] == ["section", "key", "value_1", "value_2", "value_3"]
    assert all(len(row) == 5 for row in table)
    probes = [(r[1], float(r[2]), float(r[3]), r[4]) for r in table if r[0] == "probe"]
    assert probes == [(f"layer_{p['layer']}", p["text_to_visual"], p["visual_to_text"], "")
                      for p in report.get("prune_decision", {"probed": []})["probed"]]
    decode = [(r[1], *map(float, r[2:])) for r in table if r[0] == "decode"]
    assert decode == [(f"layer_{e['layer']}", e["to_system"], e["to_visual"], e["to_text"])
                      for e in report["decoding_attention"]]
    assert len(decode) == 2
    warnings = [r[2:] for r in table if r[:2] == ["summary", "warning"]]
    assert warnings == [[w, "", ""] for w in report.get("warnings", [])]
    assert len(warnings) == (0 if with_attention else 1)


def test_decide_fully_masked_decode_layer_exits_3(tmp_path, rng, capsys):
    layout = small_layout()
    rows = row_stochastic(rng, layout.seq_len)[:2]
    path = build_manifest(tmp_path, attention={4: block_weighted_attention(rng, layout, 1.0)},
                          decode_rows={4: rows, 6: np.zeros_like(rows)},
                          plan={"retain_ratio": 0.5, "schedule": [4]})
    code = main(["decide", "--manifest", str(path)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == ("vtcomp decide: error: decoding_attention_report: layer 6: "
                            "decode rows carry no attention mass (all masked)\n")


def test_decode_report_reads_no_payload_after_the_load(tmp_path, rng, capsys, monkeypatch):
    # The load keeps the decode rows' masses. The files are zeroed in place,
    # at the same size, just before the report: the mappings see the zeros,
    # so a report that read the rows would find every row masked and exit 3.
    layout = small_layout()
    path = build_manifest(tmp_path, attention={4: block_weighted_attention(rng, layout, 1.0)},
                          decode_rows={4: row_stochastic(rng, layout.seq_len + 2)[:2],
                                       6: row_stochastic(rng, layout.seq_len)[:3]},
                          plan={"retain_ratio": 0.5, "schedule": [4]})
    argv = ["decide", "--manifest", str(path)]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    report = cli.decoding_attention_report

    def zero_then_report(*args):
        for payload in tmp_path.glob("decode_*.bin"):
            with open(payload, "r+b") as f:
                f.write(bytes(payload.stat().st_size))
        return report(*args)

    monkeypatch.setattr(cli, "decoding_attention_report", zero_then_report)
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
    assert "decoding_attention" in json.loads(expected)
    assert not any(np.fromfile(p, dtype="<f4").any() for p in tmp_path.glob("decode_*.bin"))


def test_missing_manifest_exits_3(tmp_path, capsys):
    code = main(["select", "--manifest", str(tmp_path / "nope.json")])
    assert code == 3


def test_decide_masked_text_rows_exits_3(tmp_path, rng, capsys):
    layout = small_layout()
    attention = {layer: block_weighted_attention(rng, layout, 1.0) for layer in (4, 5)}
    t0, t1 = layout.text_range
    attention[5][t0:t1] = 0.0
    path = build_manifest(tmp_path, attention=attention,
                          plan={"retain_ratio": 0.5, "tau": 0.03, "schedule": [4, 5]})
    code = main(["decide", "--manifest", str(path)])
    err = capsys.readouterr().err
    assert code == 3
    assert "layer 5" in err and "text rows" in err
    assert "Traceback" not in err


def test_decide_probes_each_layer_with_its_own_row_sums(tmp_path, rng, capsys):
    # Each layer masks different text rows, so its text total differs: a
    # probe given another layer's partition masses reports a wrong ratio.
    layout = small_layout()
    attention = {layer: block_weighted_attention(rng, layout, 0.5) for layer in (4, 5)}
    t0, t1 = layout.text_range
    attention[4][t0] = 0.0
    attention[5][t1 - 2:t1] = 0.0
    path = build_manifest(tmp_path, attention=attention,
                          plan={"retain_ratio": 0.5, "schedule": [4, 5]})
    code, report = run_json(["decide", "--manifest", str(path), "--tau", "0"], capsys)
    assert code == 0
    probed = report["prune_decision"]["probed"]
    assert [p["layer"] for p in probed] == [4, 5]
    v, t, prompt = range(*layout.visual_range), range(t0, t1), range(layout.seq_len)
    for p in probed:
        a = attention[p["layer"]].astype(np.float64)
        tv = sum(a[i][j] for i in t for j in v) / sum(a[i][j] for i in t for j in prompt)
        vt = sum(a[i][j] for i in v for j in t) / sum(a[i][j] for i in v for j in prompt)
        assert p["text_to_visual"] == pytest.approx(tv, abs=1e-9)
        assert p["visual_to_text"] == pytest.approx(vt, abs=1e-9)


def _repoint_visual(path, file):
    manifest = json.loads(path.read_text(encoding="utf-8"))
    for entry in manifest["entries"]:
        if entry["name"] == "visual":
            entry["file"] = file
    path.write_text(json.dumps(manifest), encoding="utf-8")


def test_payload_outside_manifest_dir_exits_3(tmp_path, capsys):
    path = build_manifest(tmp_path / "fixture")
    (tmp_path / "fixture" / "visual.bin").rename(tmp_path / "outside_visual.bin")
    _repoint_visual(path, "../outside_visual.bin")
    code = main(["select", "--manifest", str(path), "--ratio", "0.5"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "'visual'" in captured.err and "outside the manifest directory" in captured.err


def test_absolute_payload_path_exits_3(tmp_path, capsys):
    path = build_manifest(tmp_path)
    _repoint_visual(path, str((tmp_path / "visual.bin").resolve()))
    code = main(["select", "--manifest", str(path), "--ratio", "0.5"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "'visual'" in captured.err and "must be relative" in captured.err


def test_payload_symlink_loop_exits_3(tmp_path, capsys):
    path = build_manifest(tmp_path)
    (tmp_path / "visual.bin").unlink()
    os.symlink("visual.bin", tmp_path / "visual.bin")
    code = main(["select", "--manifest", str(path), "--ratio", "0.5"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("vtcomp select: error: entry 'visual': file 'visual.bin': "
                            f"{os.strerror(errno.ELOOP)}\n")


def test_select_without_stage1_inputs_exits_3(tmp_path, capsys):
    path = build_manifest(tmp_path, with_stage1=False)
    code = main(["select", "--manifest", str(path), "--ratio", "0.5"])
    assert code == 3
    assert "cls_vector" in capsys.readouterr().err


def test_flops_subcommand(tmp_path, capsys):
    code, report = run_json(
        ["flops", "--preset", "llava-next-7b", "--n", "3000", "--decode-len", "20"], capsys)
    assert code == 0
    assert 57.2 <= report["flops"]["prefill_ratio"] <= 70.0
    assert 0.3 <= report["flops"]["decode_ratio"] <= 0.5


def test_flops_encoder_override(tmp_path, capsys):
    code, report = run_json(
        ["flops", "--preset", "llava-next-7b", "--enc-n", "577"], capsys)
    assert code == 0
    assert report["config"]["encoder"]["seq_len"] == 577


def test_verify_lemma_subcommand(capsys):
    code, report = run_json(
        ["verify-lemma", "--trials", "2000", "--bootstrap", "100", "--seed", "0"], capsys)
    assert code == 0
    assert report["within_3se"] is True


def test_verify_lemma_negative_control(capsys):
    code, report = run_json(
        ["verify-lemma", "--trials", "2000", "--bootstrap", "100", "--negative-control"],
        capsys)
    assert code == 0
    assert report["within_3se"] is False


def test_oracle_check_subcommand(capsys):
    code, report = run_json(
        ["oracle-check", "--instances", "10", "--max-n", "16", "--max-d", "6"], capsys)
    assert code == 0
    assert report["ok"] is True
    assert report["mismatches"] == 0


def test_schedule_default_needs_num_layers(tmp_path, rng, capsys):
    path = fixture_with_trace(tmp_path, rng)
    code = main(["decide", "--manifest", str(path), "--schedule", "default"])
    assert code == 3


def test_schedule_default_from_manifest(tmp_path, rng, capsys):
    layout = small_layout()
    attention = {layer: block_weighted_attention(rng, layout, 1e-4)
                 for layer in (16, 20, 24, 28)}
    path = build_manifest(tmp_path, attention=attention,
                          plan={"retain_ratio": 0.5, "tau": 0.03, "num_layers": 32})
    code, report = run_json(["decide", "--manifest", str(path), "--schedule", "default"], capsys)
    assert code == 0
    assert report["prune_decision"]["drop_layer"] == 16


def test_video_manifest_pipeline(tmp_path, rng, capsys):
    path = build_manifest(
        tmp_path, kind="video", visual_len=8,
        layout_extra={"frames": 2, "tokens_per_frame": 4},
        plan={"retain_k": 3})
    code, report = run_json(["pipeline", "--manifest", str(path)], capsys)
    assert code == 0
    assert report["retention"]["k"] == 3


def test_anyres_manifest_pivot_in_thumbnail(tmp_path, rng, capsys):
    path = build_manifest(
        tmp_path, kind="anyres", visual_len=8,
        layout_extra={"thumbnail_range": [0, 3], "crop_ranges": [[3, 8]]},
        plan={"retain_k": 4})
    code, report = run_json(["select", "--manifest", str(path)], capsys)
    assert code == 0
    assert 0 <= report["retention"]["pivot"] < 3


def test_decide_on_empty_thumbnail_exits_3(tmp_path, rng, capsys):
    # decide picks no pivot, but the layout is checked where it enters.
    layout = small_layout()
    path = build_manifest(
        tmp_path, kind="anyres", attention={4: block_weighted_attention(rng, layout, 1e-4)},
        layout_extra={"thumbnail_range": [0, 0], "crop_ranges": [[0, 8]]},
        plan={"retain_ratio": 0.5, "schedule": [4]})
    code = main(["decide", "--manifest", str(path)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "vtcomp decide: error: layout: anyres thumbnail_range is empty\n"


def test_misspelled_plan_key_exits_3(tmp_path, rng, capsys):
    # Ignored, "Tau" would leave tau at its default and move the drop layer.
    path = build_manifest(tmp_path, attention={4: block_weighted_attention(rng, small_layout(), 1e-4)},
                          plan={"retain_ratio": 0.5, "schedule": [4], "Tau": 0.99})
    code = main(["decide", "--manifest", str(path)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "vtcomp decide: error: plan: unknown key 'Tau'\n"


def _set(section, key, value):
    def mutate(manifest):
        manifest[section][key] = value
    return mutate


def _replace_ratio_by_k(value):
    def mutate(manifest):
        del manifest["plan"]["retain_ratio"]
        manifest["plan"]["retain_k"] = value
    return mutate


def _layer_one_as_bool(manifest):
    entry = next(e for e in manifest["entries"] if e.get("layer") == 1)
    entry["layer"] = True


def _visual_file(name):
    def mutate(manifest):
        next(e for e in manifest["entries"] if e["name"] == "visual")["file"] = name
    return mutate


@pytest.mark.parametrize("mutate, named", [
    (_set("plan", "retain_ratio", "0.5"), "retain_ratio"),
    (_set("plan", "tau", "0.1"), "tau"),
    (_replace_ratio_by_k("5"), "retain_k"),
    (_replace_ratio_by_k(2.5), "retain_k"),
    (_set("plan", "schedule", [1.7, 5.2]), "schedule"),
    (_set("layout", "system_range", [0, "x"]), "system_range"),
    (_set("layout", "system_range", [0]), "system_range"),
    (_set("layout", "system_range", 5), "system_range"),
    (_set("layout", "system_range", [0, 2.5]), "system_range"),
    (_layer_one_as_bool, "layer"),
    (lambda manifest: manifest.update(format_version=True), "format_version"),
    (_visual_file("visual\u0000.bin"), "'visual'"),
    (_set("plan", "schedule", []), "schedule"),
    (_visual_file("a" * 300), "'visual'"),
], ids=["ratio-str", "tau-str", "k-str", "k-float", "schedule-float", "range-str",
        "range-short", "range-scalar", "range-float", "layer-bool", "version-bool",
        "file-nul", "schedule-empty", "file-too-long"])
def test_malformed_manifest_types_exit_3(tmp_path, rng, capsys, mutate, named):
    layout = small_layout()
    attention = {layer: block_weighted_attention(rng, layout, 1e-4) for layer in (1, 5, 6, 7)}
    path = build_manifest(tmp_path, attention=attention,
                          plan={"retain_ratio": 0.5, "tau": 0.03, "schedule": [1, 5, 6, 7]})
    manifest = json.loads(path.read_text(encoding="utf-8"))
    mutate(manifest)
    path.write_text(json.dumps(manifest), encoding="utf-8")
    code = main(["pipeline", "--manifest", str(path)])
    err = capsys.readouterr().err
    assert code == 3
    assert "error:" in err and named in err
    assert "Traceback" not in err


def test_duplicate_manifest_key_exits_3(tmp_path, rng, capsys):
    # json.loads alone keeps the last value: this would run as layer 99.
    path = build_manifest(tmp_path, attention={4: block_weighted_attention(rng, small_layout(), 1e-4)},
                          plan={"retain_ratio": 0.5, "schedule": [4]})
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace('"layer": 4', '"layer": 4, "layer": 99'), encoding="utf-8")
    code = main(["decide", "--manifest", str(path)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == f"vtcomp decide: error: manifest {path}: duplicate key 'layer'\n"


def test_invalid_decode_rows_exit_3(tmp_path, rng, capsys):
    layout = small_layout()
    rows = np.zeros((1, layout.seq_len), dtype=np.float32)
    rows[0, 2], rows[0, 10] = 5.0, -3.0  # a visual and a text key
    path = build_manifest(tmp_path, attention={4: block_weighted_attention(rng, layout, 1e-4)},
                          decode_rows={4: rows}, plan={"retain_ratio": 0.5, "schedule": [4]})
    code = main(["decide", "--manifest", str(path)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "vtcomp decide: error: entry 'decode_4': negative attention weight\n"


# Values by flat index into the payload; attention rows are 14 wide, so
# indices 43 and 49 are both in row 3, whose float64 sum is inf - inf = NaN.
@pytest.mark.parametrize("name, values", [
    ("attn_4", {43: np.inf, 49: -np.inf}), ("attn_4", {43: np.inf}), ("cls", {2: np.nan}),
], ids=["attention-inf-pair", "attention-inf", "cls-nan"])
def test_non_finite_payload_exits_3_without_warning(tmp_path, rng, capsys, recwarn, name, values):
    layout = small_layout()
    path = build_manifest(tmp_path, attention={4: block_weighted_attention(rng, layout, 1e-4)},
                          plan={"retain_ratio": 0.5, "schedule": [4]})
    payload = tmp_path / f"{name}.bin"
    a = np.fromfile(payload, dtype="<f4")
    a[list(values)] = list(values.values())
    payload.write_bytes(a.tobytes())
    code = main(["pipeline", "--manifest", str(path)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == f"vtcomp pipeline: error: entry {name!r}: payload contains NaN/Inf\n"
    assert "Warning" not in captured.err
    assert not recwarn.list


def test_pipeline_leaves_payload_files_unchanged(tmp_path, rng, capsys):
    path = fixture_with_trace(tmp_path, rng)
    before = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.bin")}
    assert len(before) == 8
    assert main(["pipeline", "--manifest", str(path)]) == 0
    after = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.bin")}
    assert after == before


def test_failed_payload_map_exits_3(tmp_path, monkeypatch, capsys):
    path = build_manifest(tmp_path)

    def no_map(*args, **kwargs):
        raise OSError(errno.ENODEV, os.strerror(errno.ENODEV))

    monkeypatch.setattr(mmap, "mmap", no_map)
    code = main(["select", "--manifest", str(path)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == (f"vtcomp select: error: entry 'visual': file 'visual.bin': "
                            f"{os.strerror(errno.ENODEV)}\n")


# Each case rewrites one payload of the 8 x 6 image fixture (seq 14) with
# data whose file size matches its declared shape but whose shape is wrong.
# load_manifest is the only check of these rules.
@pytest.mark.parametrize("name, shape, named", [
    ("cls", [7], "cls_vector: length 7 != token width 6"),
    ("wq", [6, 7], "wq: shape (6, 7) != (6, 6)"),
    ("wk", [7, 7], "wk: shape (7, 7) != (6, 6)"),
    ("attn_4", [14, 15], "entry 'attn_4': attention shape (14, 15) != (14, 14)"),
    ("visual", [8, 2, 3], "visual_embeddings: expected 2-D matrix, got shape (8, 2, 3)"),
    ("decode_4", [0, 14], "entry 'decode_4': decode rows need at least one row, got 0"),
    ("visual", [8, 0], "visual_embeddings: token width must be >= 1, got 0"),
], ids=["cls-long", "wq-wide", "wk-square", "attention-wide", "visual-3d", "decode-no-rows",
        "visual-no-width"])
def test_wrong_payload_shape_exits_3(tmp_path, rng, capsys, recwarn, name, shape, named):
    layout = small_layout()
    path = build_manifest(tmp_path, attention={4: block_weighted_attention(rng, layout, 1e-4)},
                          decode_rows={4: row_stochastic(rng, layout.seq_len)[:2]},
                          plan={"retain_ratio": 0.5, "schedule": [4]})
    manifest = json.loads(path.read_text(encoding="utf-8"))
    next(e for e in manifest["entries"] if e["name"] == name)["shape"] = shape
    path.write_text(json.dumps(manifest), encoding="utf-8")
    (tmp_path / f"{name}.bin").write_bytes(rng.random(shape, dtype=np.float32).tobytes())
    code = main(["pipeline", "--manifest", str(path)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == f"vtcomp pipeline: error: {named}\n"
    assert not recwarn.list


@pytest.mark.parametrize("argv", [
    ["flops", "--preset", "nope"],
    ["pipeline", "--manifest", "m.json", "--preset", "nope"],
    ["verify-lemma", "--kernel", "bogus"],
], ids=["flops-preset", "pipeline-preset", "lemma-kernel"])
def test_flag_outside_choices_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify-lemma", "oracle-check"])
def test_json_only_commands_reject_report_flag(command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--report", "csv"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["flops"],
    ["oracle-check", "--instances", "2", "--max-n", "4"],
], ids=["flops", "oracle-check"])
def test_unwritable_out_exits_3(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "r.json"
    code = main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert f"error: --out {out}: No such file or directory" in captured.err
    assert "Traceback" not in captured.err


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli_process(argv, **kwargs):
    """Exit code and stderr of ``argv`` run as a child process with src/ importable."""
    proc = subprocess.run(argv, stderr=subprocess.PIPE, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, **kwargs)
    return proc.returncode, proc.stderr


def test_report_to_a_pipe_without_reader_exits_3(tmp_path):
    path = build_manifest(tmp_path)
    read, write = os.pipe()
    os.close(read)  # the reader has exited before the report is written
    try:
        code, err = run_cli_process(
            [sys.executable, "-m", "vtcomp.cli", "pipeline", "--manifest", str(path)], stdout=write)
    finally:
        os.close(write)
    assert (code, err) == (3, "vtcomp pipeline: error: stdout: Broken pipe\n")


def test_report_to_a_closed_stdout_exits_3():
    # With fd 1 closed at startup, Python's sys.stdout is None.
    code, err = run_cli_process(
        ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "vtcomp.cli", "flops"])
    assert (code, err) == (3, "vtcomp flops: error: stdout: Bad file descriptor\n")


@pytest.mark.parametrize("flag, value", [
    ("--instances", "0"), ("--instances", "-1"),
    ("--instances", "10001"), ("--instances", "100000000000000000000"),
    ("--max-n", "1"), ("--max-n", "513"), ("--max-d", "1"), ("--seed", "-1"),
])
def test_oracle_check_bounds_exit_3(capsys, flag, value):
    code = main(["oracle-check", flag, value])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert f"error: {flag} must be" in captured.err and f"got {value}" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["--subspace", "0"], "LemmaTrial: need subdim >= 1"),
    (["--subspace", "-1"], "LemmaTrial: need subdim >= 1"),
    (["--negative-control", "--text-m", "9", "--visual-n", "8"],
     "negative control requires n_text <= n_visual"),
    (["--bootstrap", "1"], "covariance_experiment: need >= 2 bootstrap resamples"),
], ids=["subspace-0", "subspace--1", "negative-control-text-m", "bootstrap-1"])
def test_verify_lemma_bounds_exit_3(capsys, argv, message):
    code = main(["verify-lemma", "--trials", "100", "--bootstrap", "2", *argv])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"vtcomp verify-lemma: error: {message}\n"


@pytest.mark.parametrize("flag, ratio", [("--n", "prefill_ratio"), ("--decode-len", "decode_ratio")])
def test_flops_ratio_beyond_float64_exits_3(capsys, flag, ratio):
    # 10**157 still gives a finite ratio.
    code = main(["flops", flag, str(10**158)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"vtcomp flops: error: stage_ratio_report: {ratio} is beyond float64\n"


@pytest.mark.parametrize("report", ["json", "csv"])
def test_report_integer_beyond_print_limit_exits_3(capsys, report):
    # The encoder FLOPs of a 3001-digit length have more digits than Python prints.
    code = main(["flops", "--enc-n", str(10**3000), "--report", report])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "vtcomp flops: error: report: an integer value has more than 4300 digits\n"


def test_verify_lemma_negative_seed_exits_3(capsys):
    code = main(["verify-lemma", "--trials", "100", "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "vtcomp verify-lemma: error: --seed must be >= 0, got -1\n"


def test_deeply_nested_manifest_exits_3(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000, encoding="utf-8")
    code = main(["select", "--manifest", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "error: manifest" in captured.err and "maximum recursion depth" in captured.err
    assert "Traceback" not in captured.err



def test_manifest_integer_past_the_digit_limit_exits_3(tmp_path, capsys):
    path = build_manifest(tmp_path)
    path.write_text(path.read_text(encoding="utf-8").replace('"retain_ratio": 0.5', '"retain_k": ' + "9" * 5000),
                    encoding="utf-8")
    code = main(["select", "--manifest", str(path)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith(f"vtcomp select: error: manifest {path}: Exceeds the limit (4300 digits)")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

BIG = "100000000000000000000"


# Each first allocation is beyond the 128 TiB user address space, so numpy
# refuses it without touching memory, whatever the overcommit policy. The
# arrays of the cases with a message are beyond the int64 address range
# itself, so the engine refuses them before it allocates anything.
@pytest.mark.parametrize("argv, message", [
    (["verify-lemma", "--trials", "1000000000000000", "--bootstrap", "2"], None),
    (["verify-lemma", "--dim", "35184372088832", "--trials", "100", "--bootstrap", "2"], None),
    (["oracle-check", "--instances", "1", "--max-d", "4611686018427387904"],
     "--max-n, --max-d: a float64 array of 295147905179352825856 elements"),
    (["oracle-check", "--max-d", BIG],
     f"--max-n, --max-d: a float64 array of {64 * int(BIG)} elements"),
    (["verify-lemma", "--trials", "100", "--dim", BIG],
     f"ambient_dim, subdim: a float64 array of {8 * int(BIG)} elements"),
    (["verify-lemma", "--trials", "100", "--visual-n", BIG],
     f"n_visual, ambient_dim: a float64 array of {1600 * int(BIG)} elements"),
    (["verify-lemma", "--trials", "100", "--text-m", BIG],
     f"n_text, ambient_dim: a float64 array of {1600 * int(BIG)} elements"),
    (["verify-lemma", "--trials", "100", "--bootstrap", BIG],
     f"bootstrap_resamples: a float64 array of {BIG} elements"),
    (["verify-lemma", "--trials", BIG], f"num_trials: a float64 array of {BIG} elements"),
], ids=["trials", "dim", "oracle-max-d", "oracle-max-d-int64", "lemma-dim", "lemma-visual-n",
        "lemma-text-m", "lemma-bootstrap", "lemma-trials"])
def test_out_of_memory_exits_3(monkeypatch, capsys, argv, message):
    if message is not None:
        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated before refusing")
        monkeypatch.setattr(cli.np.random, "default_rng", no_allocation)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    prefix = f"vtcomp {argv[0]}: error: out of memory: "
    if message is None:
        assert captured.err.startswith(prefix) and captured.err.count("\n") == 1
    else:
        assert captured.err == f"{prefix}{message} exceeds the address space\n"
    assert "Traceback" not in captured.err


def test_scan_out_of_memory_during_select_exits_3(tmp_path, monkeypatch, capsys):
    path = build_manifest(tmp_path)

    def scan_fails(*args):
        raise MemoryError("scan")

    monkeypatch.setattr(manifest, "_scan", scan_fails)
    code = main(["select", "--manifest", str(path), "--ratio", "0.5"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "vtcomp select: error: out of memory: scan\n"


def test_importing_the_cli_leaves_the_thread_pool_unloaded():
    # concurrent.futures and the logging it imports add about 10 ms to every
    # command's startup, so only the manifest load imports them.
    probe = ("import sys, vtcomp.cli; "
             "print('vtcomp.manifest' in sys.modules, 'concurrent.futures' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}).stdout
    assert out == "True False\n"


def test_oracle_check_at_size_bound(capsys):
    # Seed 757 draws n = 512, the largest instance oracle-check accepts.
    code, report = run_json(
        ["oracle-check", "--instances", "1", "--max-n", "512", "--max-d", "4", "--seed", "757"],
        capsys)
    assert code == 0
    assert report["ok"] is True


def test_oracle_check_covers_the_frontier_flush(monkeypatch, capsys):
    # oracle-check runs k = n, so an instance with n > FRONTIER > d must
    # outgrow greedy's first frontier, flush and rebuild it.
    shapes = []

    def recording(v, pivot, k):
        shapes.append(v.shape)
        return kcenter.greedy_kcenter(v, pivot, k)
    monkeypatch.setattr(cli, "greedy_kcenter", recording)
    code, report = run_json(
        ["oracle-check", "--instances", "20", "--max-n", "512", "--max-d", "16", "--seed", "1"],
        capsys)
    assert code == 0
    assert report["mismatches"] == 0
    assert any(n > kcenter.FRONTIER > d for n, d in shapes)


def test_oracle_check_reports_are_byte_identical(tmp_path):
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:
        assert main(["oracle-check", "--instances", "20", "--max-n", "24", "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands(heading):
    """The ``vtcomp ...`` lines of the first sh block after ``heading``."""
    text = README.read_text(encoding="utf-8")
    block = re.search(re.escape(heading) + r".*?```sh\n(.*?)```", text, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("vtcomp ")]


def test_readme_cli_flags_exist(capsys):
    # Two-way: every README flag exists, and every flag is in the README.
    lines = _readme_commands("## CLI")
    assert len(lines) == 6
    for line in lines:
        command = line.split()[1]
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        help_flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
        readme_flags = set(re.findall(r"--[a-z][a-z-]*", line))
        assert readme_flags - help_flags == set(), f"README: {command} has no such flags"
        assert help_flags - readme_flags == set(), f"README: {command} line omits these flags"


def test_readme_flops_example_runs(capsys):
    (line,) = [x for x in _readme_commands("Example:") if x.startswith("vtcomp flops")]
    assert main(shlex.split(line)[1:]) == 0
    assert json.loads(capsys.readouterr().out)["command"] == "flops"
