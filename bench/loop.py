"""Closed-loop runner of ``vtcomp.cli.main`` for one workload.

Usage: python3 bench/loop.py PLAN.json RESULT.json

Runs in its own process so that its peak RSS is the workload's alone. The
plan gives the argv list, the seconds to measure and whether to trace.
One caller sends the argvs in turn, each call only after the previous one
returned. Every argv is first called once untimed (page cache, BLAS
threads). The timed loop stops at the first whole cycle of argvs that ends
after the measuring time. With tracing on, each cycle runs every argv
traced and then untraced, so the two sides see the same conditions.

Each call's report is hashed, with oracle-check's wall-clock
``elapsed_seconds`` masked; the first report of each argv is kept for the
output checks.
"""

from __future__ import annotations

import hashlib
import json
import re
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from spans import SpanRecorder, Target

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

_ELAPSED = re.compile(rb'"elapsed_seconds":[^,}]*')


def report_digest(data: bytes) -> str:
    return hashlib.sha256(_ELAPSED.sub(b'"elapsed_seconds":null', data)).hexdigest()


def _import_cli():
    import vtcomp.cli as cli  # found through PYTHONPATH=src, set by run.py
    import vtcomp.kcenter as kcenter

    where = Path(cli.__file__).resolve().parent
    if where != (SRC / "vtcomp").resolve():
        raise SystemExit(f"loop: imported vtcomp from {where}, not from {SRC}")
    return cli, kcenter


# Counts recorded at the span boundaries. All are computed from shapes and
# return values, not measured.

def _manifest_counts(args, kwargs, md) -> dict:
    base = [md.visual_embeddings, md.cls_vector, md.wq, md.wk]
    return {
        "base_bytes": sum(a.nbytes for a in base if a is not None),
        "layer_bytes": {str(layer): a.nbytes for layer, a in md.attention_layers.items()},
        "decode_bytes": sum(a.nbytes for a in md.decode_rows.values()),
    }


def _pivot_counts(args, kwargs, result) -> dict:
    n, d = args[1].shape
    # q = z_cls @ wq, keys = z_v @ wk, logits = keys @ q; one multiply-add = 2 flops.
    return {"flops": 2 * d * d + 2 * n * d * d + 2 * n * d}


def _greedy_counts(args, kwargs, result) -> dict:
    n, d = args[0].shape
    k = len(result.indices)
    # float32 -> float64 normalised copy (read 4 B, write 8 B per entry), then
    # one pass over the n x d float64 rows per selected token plus ~6 passes
    # over length-n float64 vectors (product, clip, max, mask, argmin).
    return {"steps": k - 1, "bytes_moved": 12 * n * d + k * 8 * n * (d + 6)}


def _decide_counts(args, kwargs, decision) -> dict:
    tau = decision.tau
    return {
        "probes": len(decision.probed),
        "qualifying": sum(1 for _, tv, vt in decision.probed if tv < tau and vt < tau),
        "layers": [layer for layer, _, _ in decision.probed],
    }


def targets(cli, kcenter) -> list[Target]:
    """The public functions under the names ``vtcomp.cli`` calls them by,
    plus ``normalize_rows`` as ``vtcomp.kcenter`` calls it."""
    return [
        Target(cli, "load_manifest", "manifest.load", _manifest_counts),
        Target(cli, "cls_attention", "pivot.cls_attention", _pivot_counts),
        Target(cli, "select_pivot", "pivot.select_pivot"),
        Target(cli, "greedy_kcenter", "kcenter.greedy", _greedy_counts),
        Target(kcenter, "normalize_rows", "tensors.normalize_rows"),
        Target(cli, "oracle_greedy", "kcenter.oracle_greedy"),
        Target(cli, "covariance_experiment", "theory.covariance",
               lambda a, k, r: {"trials": r["num_trials"]}),
        Target(cli, "decide_drop_layer", "relevance.decide", _decide_counts),
        Target(cli, "decoding_attention_report", "relevance.decode_report"),
        Target(cli, "stage_ratio_report", "costmodel.stage_ratio"),
        Target(cli, "build_run_report", "report.build"),
        Target(cli, "canonical_json", "report.emit",
               lambda a, k, r: {"bytes": len(r.encode("utf-8"))}),
    ]


def _main_rc(cli, argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 1
    except Exception:  # a traceback is a failed call; keep measuring the rest
        traceback.print_exc()
        return 1


def run(plan: dict) -> dict:
    cli, kcenter = _import_cli()
    argvs, outs = plan["argvs"], [Path(p) for p in plan["outs"]]
    recorder = SpanRecorder()
    wrapped = targets(cli, kcenter)

    def call(i: int, traced: bool, number: int) -> dict:
        outs[i].unlink(missing_ok=True)
        if traced:
            recorder.install(wrapped)
            t0 = time.perf_counter()
            rc = recorder.root(number, "cli", lambda: _main_rc(cli, argvs[i]))
            seconds = time.perf_counter() - t0
            recorder.uninstall()
        else:
            t0 = time.perf_counter()
            rc = _main_rc(cli, argvs[i])
            seconds = time.perf_counter() - t0
        digest = report_digest(outs[i].read_bytes()) if outs[i].is_file() else None
        return {"argv": i, "traced": traced, "seconds": seconds, "rc": rc, "sha256": digest}

    warmup = []
    for i in range(len(argvs)):
        warmup.append(call(i, False, -1))
        if outs[i].is_file():
            shutil.copyfile(outs[i], plan["firsts"][i])

    modes = (True, False) if plan["trace"] else (False,)
    cycle = [(i, traced) for traced in modes for i in range(len(argvs))]
    calls = []
    start = time.perf_counter()
    while time.perf_counter() - start < plan["seconds"]:
        for i, traced in cycle:
            calls.append(call(i, traced, len(calls)))
    loop_seconds = time.perf_counter() - start

    return {
        "warmup": warmup,
        "calls": calls,
        "loop_seconds": loop_seconds,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": [s.to_dict() for s in recorder.spans],
    }


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result = run(plan)
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
