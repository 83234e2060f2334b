"""vtcomp benchmark: warm CLI latency per workload, with a traced per-layer run.

Usage, from the root of a checkout:
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench/run.py --workload all --seed N --seconds S --trace 0|1
  python3 bench/run.py --compare PARENT.jsonl CHANGE.jsonl

One run:
  1. builds the workload's manifest from the seed into .bench_out/work/
     (timed on its own as fixture_build_s, part of no metric);
  2. times setup_s: a fresh interpreter importing vtcomp.cli from src/ and
     building its parser, median of SETUP_REPEATS spawns;
  3. starts bench/loop.py, which drives vtcomp.cli.main in a closed loop
     (one caller, BLAS threads = nproc) for --seconds after one untimed
     call per argv, and with --trace 1 alternates traced and untraced calls;
  4. checks the first report of each argv against independent recomputation
     (bench/checks.py) and that every repeat of an argv is byte-identical;
  5. prints each metric by name with its unit, then one JSON line.

The end-to-end figures are warm: fixtures were just written, so the page
cache holds them. Cold-cache figures would need the file cache dropped,
which this benchmark does not do or approximate.

Every run appends a record (metrics, report SHA-256s, environment) to
.bench_out/results.jsonl; --compare reads two such files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import compare
import metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("anyres-wide", "video-narrow", "verify")
SETUP_REPEATS = 9
SETUP_SNIPPET = ("import sys, vtcomp.cli as cli; cli.build_parser(); "
                 "sys.stdout.write('ok'); sys.stdout.flush()")

# Verify rounds use acceptance-criterion settings with fixed seeds, so every
# run does the same work: oracle-check's cost follows the sizes of its 200
# random instances, which moved a round's time by up to a third between
# seeds, and a random lemma seed would fail the 3-sigma check by chance
# about once in 370 runs. With seed 0 the positive run sits inside 3
# standard errors and the control outside. --seed does not change verify.
VERIFY_COMMANDS = (
    ["verify-lemma", "--trials", "100000", "--bootstrap", "1000", "--seed", "0"],
    ["verify-lemma", "--negative-control", "--trials", "10000", "--seed", "0"],
    ["oracle-check", "--seed", "0"],
)
RATIOS = ("0.10", "0.25")

# Per-layer counts derived from shapes and return values, not measured.
COMPUTED = ("manifest.bytes_read", "manifest.bytes_used_frac", "pivot.flops",
            "kcenter.steps", "kcenter.bytes_moved")


def child_env() -> tuple[dict, int]:
    threads = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env, threads


def plan_for(workload: str, work: Path) -> tuple[list[list[str]], list[str]]:
    """Argvs of the workload's cycle and their --out paths, relative to ROOT
    so that reports (which echo the manifest path) match across checkouts."""
    rel = work.relative_to(ROOT).as_posix()
    if workload == "verify":
        commands = list(VERIFY_COMMANDS)
    else:
        manifest = f"{rel}/manifest.json"
        commands = [["pipeline", "--manifest", manifest, "--ratio", r] for r in RATIOS]
    outs = [f"{rel}/out_{i}.json" for i in range(len(commands))]
    return [c + ["--out", o] for c, o in zip(commands, outs)], outs


def measure_setup(env: dict) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE) as proc:
            ready = proc.stdout.read(2)
            times.append(time.perf_counter() - start)
        if proc.returncode != 0 or ready != b"ok":
            raise SystemExit(f"setup: importing vtcomp.cli failed (exit {proc.returncode})")
    return times


def _read(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown"


def environment(threads: int, working_set: int) -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    caches = Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")
    llc = max((f"L{_read(c / 'level')} {_read(c / 'size')}" for c in caches), default="unknown")
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name", "unknown"), blas.get("version", "unknown")
    except (TypeError, KeyError):
        blas_name = blas_version = "unknown"
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu, "llc": llc,
        "working_set_bytes_computed": working_set, "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas_name, "blas_version": blas_version,
        "blas_threads_given": threads,
    }


def _verify_working_set() -> int:
    # covariance_experiment holds one 10000-trial chunk of visual (8 x 16)
    # and text (4 x 16) float64 tokens plus two float64 arrays of 1e5 measures.
    return 10000 * (8 + 4) * 16 * 8 + 2 * 100000 * 8


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    env, threads = child_env()
    work = OUT / "work" / f"{workload}-s{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        design = None
        t0 = time.perf_counter()
        if workload != "verify":
            subprocess.run([sys.executable, str(BENCH / "fixtures.py"), "--workload", workload,
                            "--seed", str(seed), "--out", str(work)], env=env, check=True)
            design = json.loads((work / "design.json").read_text(encoding="utf-8"))
        fixture_build_s = time.perf_counter() - t0

        setup = measure_setup(env)

        argvs, outs = plan_for(workload, work)
        plan = {"argvs": argvs, "outs": outs, "seconds": seconds, "trace": trace,
                "firsts": [f"{o}.first" for o in outs]}
        (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
        subprocess.run([sys.executable, str(BENCH / "loop.py"), str(work / "plan.json"),
                        str(work / "result.json")], cwd=ROOT, env=env, check=True)
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))

        errors: dict[int, list[str]] = {}
        firsts = [ROOT / f for f in plan["firsts"]]
        for i, first in enumerate(firsts):
            if not first.is_file():
                errors[i] = [f"argv {i}: no report written"]
            elif workload != "verify":
                errors[i] = checks.check_pipeline(work / "manifest.json", first,
                                                  float(RATIOS[i]), design)
        if workload == "verify" and all(f.is_file() for f in firsts):
            errors = {i: checks.check_verify(firsts) for i in range(len(firsts))}
        everything = result["warmup"] + result["calls"]
        first_sha = {c["argv"]: c["sha256"] for c in result["warmup"]}
        failed = sum(1 for c in everything if c["rc"] != 0 or errors.get(c["argv"])
                     or c["sha256"] != first_sha[c["argv"]])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e = metrics.end_to_end(result)
    e2e["setup_s"] = statistics.median(setup)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": failed == 0, "attempted": len(everything), "failed": failed,
        "errors": sorted({e for errs in errors.values() for e in errs}),
        "end_to_end": e2e, "setup_samples_s": setup,
        "call_seconds": [[c["argv"], c["traced"], c["seconds"]] for c in result["calls"]],
        "fixture_build_s": fixture_build_s, "computed_metrics": COMPUTED,
        "report_sha256": {" ".join(a[:-2]): first_sha[i] for i, a in enumerate(argvs)},
        "environment": environment(threads, design["payload_bytes"] if design
                                   else _verify_working_set()),
    }
    if trace:
        record["per_layer"] = metrics.per_layer(result, e2e["call_p50_s"])
        OUT.joinpath("spans").mkdir(parents=True, exist_ok=True)
        with open(OUT / "spans" / f"{workload}-s{seed}.jsonl", "w", encoding="utf-8") as fh:
            for span in result["spans"]:
                fh.write(json.dumps(span) + "\n")
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    return record


def print_record(record: dict, wanted: list[dict]) -> dict:
    """Print the human-readable block; return the metrics object for the JSON line."""
    e2e = record["end_to_end"]
    print(f"== {record['workload']} seed {record['seed']}: {record['attempted']} calls, "
          f"{record['failed']} failed, fixture_build_s {record['fixture_build_s']:.3f} (no metric)")
    for err in record["errors"]:
        print(f"   check failed: {err}")
    print("   environment: " + json.dumps(record["environment"]))
    if record["trace"]:
        pl = record["per_layer"]
        values = pl["metrics"]
        call = pl["traced_span_call_s"]
        shares = sorted(((values[m["name"]] / call, m["name"]) for m in wanted
                         if m["unit"] == "s" and m["name"] != "cli.self_s"), reverse=True)
        print(f"   traced calls {pl['traced_calls']}, traced call p50 {pl['traced_call_p50_s']:.6f} s,"
              f" untraced {e2e['call_p50_s']:.6f} s, largest |sum of self times - call wall time| "
              f"{pl['self_sum_gap_s']:.3g} s")
        print("   share of traced call time (inclusive): "
              + ", ".join(f"{n} {share:.1%}" for share, n in shares[:4]))
    else:
        values = e2e
        print(f"   call_tail_s is p{e2e['tail_percentile']:.1f} of {e2e['calls']} calls")
    out = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, v in out.items():
        print(f"   {name:28s} {v['value']:.6g} {v['unit']}" + (" (computed)" if name in COMPUTED else ""))
    if not record["trace"]:
        print(f"   {'error_frac':28s} {record['failed'] / record['attempted']:.6g} fraction")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description="vtcomp benchmark")
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = ap.parse_args()
    # On SIGTERM, unwind so that subprocess.run kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.compare:
        return compare.main(*args.compare, spec)
    if args.workload is None:
        ap.error("--workload is required")
    if not (SRC / "vtcomp" / "cli.py").is_file():
        print(f"run.py: no engine source at {SRC / 'vtcomp'}", file=sys.stderr)
        return 2

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        record = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        summary = {"correct": record["correct"], "attempted": record["attempted"],
                   "failed": record["failed"], "metrics": print_record(record, wanted)}
        print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
