"""Canonical report bytes, pinned by SHA-256.

Every command that emits a report runs on fixed inputs: a video, an AnyRes
and a wide image manifest built by ``conftest.build_manifest`` from the
``rng`` fixture (seed 12345), or the command's own seed. A refactor that claims
byte-identical reports is checked here rather than by hand. Reports echo
the manifest path, so each command runs from ``tmp_path`` with a relative
``--manifest``.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import block_weighted_attention, build_manifest, row_stochastic
from vtcomp.cli import main
from vtcomp.layout import InputLayout

LAYOUT_EXTRA = {"video": {"frames": 3, "tokens_per_frame": 4},
                "anyres": {"thumbnail_range": [0, 4], "crop_ranges": [[4, 8], [8, 12]]}}
PLAN = {"retain_ratio": 0.5, "tau": 0.03, "schedule": [2, 5, 7]}


def _manifest(tmp_path, rng, kind):
    if kind == "image-wide":
        # Width and visual length above the pivot's 256-row blocks, so each of
        # its products runs in several blocks and ends in a ragged one.
        visual = (rng.standard_normal((600, 300)) / 100).astype(np.float32)
        build_manifest(tmp_path / "m", kind="image", visual=visual, text_len=5)
        return ["--manifest", "m/manifest.json"]
    extra = LAYOUT_EXTRA[kind]
    layout = InputLayout.from_dict({"kind": kind, "system_range": [0, 2], "visual_range": [2, 14],
                                    "text_range": [14, 19], **extra})
    attention = {layer: block_weighted_attention(rng, layout, mass)
                 for layer, mass in ((2, 1.0), (5, 1e-4), (7, 0.5))}
    # Decode rows two keys wider than the prompt: mass on generated keys.
    decode = {5: row_stochastic(rng, layout.seq_len + 2)[:3],
              7: row_stochastic(rng, layout.seq_len + 2)[:2]}
    build_manifest(tmp_path / "m", kind=kind, system_len=2, visual_len=12, text_len=5, width=8,
                   layout_extra=extra, attention=attention, decode_rows=decode, plan=PLAN)
    return ["--manifest", "m/manifest.json"]


# name -> (argv, manifest kind or None, SHA-256 of stdout)
CASES = {
    "select-json": (["select", "--ratio", "0.5"], "video",
                    "602a26a526c27d310b90c582268d0235dc20a17fc48fdac4ac6bd3551683bd4f"),
    "select-csv": (["select", "--k", "5", "--report", "csv"], "video",
                   "8372eea864236f645825fba2d7a377692c2447d2aa408b913fe7936568188052"),
    "select-anyres-json": (["select", "--k", "7"], "anyres",
                           "f78f30cee887ffd97f2474db4b905ed2400a8e0a811c3dff621aa46e7810c493"),
    "select-image-wide-json": (["select", "--ratio", "0.25"], "image-wide",
                               "f5a62c17d907503b80bc0257f4b7b51bd2906eb931e2ba32018aa5e41f580bbc"),
    "decide-json": (["decide"], "video",
                    "a1367443f85587c1dedb5cacedc8dcd28103b46d4932cdcf693dc5e25a1a20b4"),
    "decide-csv": (["decide", "--tau", "0", "--report", "csv"], "video",
                   "c6f42ff9e1c0ae4fb0920e7b393881f9a9c0ad7fe4581d608fd393510f90760f"),
    "pipeline-json": (["pipeline", "--ratio", "0.25"], "video",
                      "4becc3b1e0bb9342a75669f9b8ad29827065c181eb08d21736af68707437706e"),
    "pipeline-csv": (["pipeline", "--ratio", "1.0", "--report", "csv"], "video",
                     "e53532777cd7cdc54995fc1e6de290e7b9e1717157c502af0c46edefa7d70eb3"),
    "pipeline-anyres-json": (["pipeline", "--k", "3", "--tau", "0", "--preset", "llava-next-13b"],
                             "anyres",
                             "46641777902bbdb42467d20f7842400598f341e8390536eff7a466a4202261aa"),
    "flops-json": (["flops"], None,
                   "c760fe288abc62211cb3c907e5152d9732debc423e7c58b21c5349abb7e4107a"),
    "flops-csv": (["flops", "--report", "csv", "--reduced-n", "500", "--preset", "llava-next-13b"],
                  None, "538cbf4be60037c46445b205820693475a42d925d30e939bd480fc915faddc59"),
    "verify-lemma": (["verify-lemma", "--trials", "500", "--seed", "3"], None,
                     "56f83e824e1ac15ce33cbe0c62c14cb99449f982af124989bf83176fb1b5e2c9"),
    "verify-lemma-negative-control": (
        ["verify-lemma", "--trials", "500", "--kernel", "shifted",
         "--negative-control"], None,
        "933f457e0fd9e3c72b1ef8f56e1a24c99cd69400757c73f09d50ab7f2ef7cff6"),
    "oracle-check": (["oracle-check", "--instances", "20", "--max-n", "40", "--seed", "5"], None,
                     "835807acaffdb2b7a9522da2a3d6cda95c1f4270f34f9ce41bce3623921206cb"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_report_bytes(name, tmp_path, rng, monkeypatch, capsys):
    argv, kind, want = CASES[name]
    monkeypatch.chdir(tmp_path)
    if kind is not None:
        argv = [*argv, *_manifest(tmp_path, rng, kind)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    if "csv" not in argv:
        assert out.startswith(f'{{"engine_version":"0.1.0","command":"{argv[0]}",')
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want


def test_pipeline_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, rng):
    # OpenBLAS may round a product differently when it splits it among more
    # threads, which at ragged sizes can move the pivot's float64 logits; the
    # report must not move. OpenBLAS reads its thread count at load, so each
    # run is its own process.
    wide = tmp_path / "wide"
    argvs = {wide: ["pipeline", "--ratio", "0.25", *_manifest(wide, rng, "image-wide")]}
    visual = (rng.standard_normal((777, 600)) / 100).astype(np.float32)
    layout = InputLayout.from_dict({"kind": "image", "system_range": [0, 2], "visual_range": [2, 779],
                                    "text_range": [779, 784]})
    attention = {layer: block_weighted_attention(rng, layout, mass) for layer, mass in ((2, 1.0), (5, 1e-4))}
    ragged = tmp_path / "ragged"
    build_manifest(ragged, visual=visual, text_len=5, attention=attention,
                   plan={"retain_ratio": 0.3, "tau": 0.03, "schedule": [2, 5]})
    argvs[ragged] = ["pipeline", "--manifest", "manifest.json"]
    src = Path(__file__).resolve().parents[1] / "src"
    for cwd, argv in argvs.items():
        outs = [subprocess.run([sys.executable, "-m", "vtcomp.cli", *argv], cwd=cwd, capture_output=True,
                               check=True, env={**os.environ, "PYTHONPATH": str(src),
                                                "OPENBLAS_NUM_THREADS": threads}).stdout
                for threads in ("1", "2")]
        assert outs[0] == outs[1] and b'"retention":{' in outs[0]
