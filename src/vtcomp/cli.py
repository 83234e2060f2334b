"""Command-line pipeline.

Subcommands:
  select        stage 1: pivot selection + greedy k-center retention
  decide        stage 2: cross-modal ratio probes + drop decision + decode report
  pipeline      select + decide + the FLOPs savings report; without attention
                layers it skips stage 2 with a warning (decide exits 3)
  flops         stage-ratio cost model with named presets
  verify-lemma  Monte Carlo covariance check of the orthogonality lemma
  oracle-check  greedy k-center vs. brute-force oracle over random instances

Exit codes: 0 success, 2 usage error, 3 data validation error (EngineError)
or a request too large for memory, 4 internal invariant violation
(InternalInvariant).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from .costmodel import MODEL_PRESETS, preset_configs, stage_ratio_report
from .errors import EngineError, InternalInvariant
from .kcenter import greedy_kcenter, oracle_greedy
from .layout import CompressionPlan, layer_schedule, resolve_k
from .manifest import ManifestData, load_manifest, release
from .pivot import cls_attention, select_pivot
from .relevance import decide_drop_layer, decoding_attention_report
from .report import build_run_report, canonical_json, report_to_csv
from .theory import KERNELS, LemmaTrial, covariance_experiment

EXIT_OK = 0
EXIT_DATA = 3
EXIT_INTERNAL = 4
# oracle-check runs the oracle at k = n: n - 1 steps, each one (step x n)
# matrix product. Warm on a 2-core Xeon with OpenBLAS, the default 200
# instances take about 0.26 s, one at n = 512, d = 16 about 0.12 s (0.16-0.17 s
# as a process's first call), and one at --max-n 512 about 0.05 s on average, so
# the instance cap bounds a run to about 8 min.
ORACLE_MAX_N = 512
ORACLE_MAX_INSTANCES = 10_000


def _add_common_flags(p: argparse.ArgumentParser, with_plan: bool = True) -> None:
    p.add_argument("--manifest", required=True, help="path to the manifest JSON")
    if with_plan:
        group = p.add_mutually_exclusive_group()
        group.add_argument("--ratio", type=float, help="fraction of visual tokens to retain")
        group.add_argument("--k", type=int, help="absolute number of tokens to retain")
    p.add_argument("--tau", type=float, default=None,
                   help="cross-modal ratio threshold (default 0.03 or manifest value)")
    p.add_argument("--schedule", default=None,
                   help="'default' (fractional depths from the manifest layer count) "
                        "or a comma-separated list of layer indices")
    p.add_argument("--seed", type=int, default=0, help="seed echoed into the report")
    p.add_argument("--report", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def _parse_schedule(spec: str, plan: CompressionPlan) -> tuple[int, ...]:
    if spec == "default":
        if plan.num_layers is None:
            raise EngineError("--schedule default requires num_layers in the manifest plan")
        return tuple(layer_schedule(plan.num_layers))
    try:
        return tuple(int(x) for x in spec.split(","))
    except ValueError:
        raise EngineError(f"--schedule: cannot parse {spec!r}") from None


def _effective_plan(md: ManifestData, args) -> CompressionPlan:
    plan = md.plan
    updates: dict = {}
    # --ratio and --k exclude each other; either one replaces the plan's pair.
    if getattr(args, "ratio", None) is not None or getattr(args, "k", None) is not None:
        updates.update(retain_ratio=args.ratio, retain_k=args.k)
    if args.tau is not None:
        updates["tau"] = args.tau
    if args.schedule is not None:
        updates["schedule"] = _parse_schedule(args.schedule, plan)
    return replace(plan, **updates) if updates else plan


def _emit(body: dict, args) -> None:
    """Write the report: the engine_version/command header, then ``body``."""
    report = {"engine_version": __version__, "command": args.command, **body}
    # verify-lemma and oracle-check have no --report: their results are JSON only.
    text = report_to_csv(report) if getattr(args, "report", "json") == "csv" else canonical_json(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as e:
            raise EngineError(f"--out {args.out}: {e.strerror}") from None
    else:
        sys.stdout.write(text)


def cmd_run(args) -> int:
    """Run the subcommand's ``stages`` on one manifest and emit one report."""
    md = load_manifest(args.manifest)
    plan = _effective_plan(md, args)
    layout = md.layout
    config = {"manifest": str(md.path), "plan": plan.to_dict()}
    retention = decision = flops = decode_report = None
    warnings: list[str] = []
    if "stage1" in args.stages:
        if md.cls_vector is None or md.wq is None or md.wk is None:
            raise EngineError("stage 1 requires cls_vector, wq and wk entries in the manifest")
        scores = cls_attention(md.cls_vector, md.visual_embeddings, md.wq, md.wk, layout)
        release(md.wq)  # nothing reads the projections after the pivot
        release(md.wk)
        pivot = select_pivot(scores, layout)
        retention = greedy_kcenter(md.visual_embeddings, pivot, resolve_k(plan, layout.visual_len))
    if "stage2" in args.stages:
        # A run that has retained tokens still reports them without stage 2.
        if md.attention_masses or retention is None:
            decision = decide_drop_layer(md.attention_masses, layout, plan.resolved_schedule(), plan.tau)
        else:
            warnings.append("stage 2 skipped: manifest carries no attention_layer_k entries")
    if "flops" in args.stages:
        reduced = layout.system_len + len(retention) + layout.text_len
        enc_cfg, llm_cfg = preset_configs(args.preset, seq_len=layout.seq_len, out_len=args.decode_len)
        flops = stage_ratio_report(enc_cfg, llm_cfg, reduced_seq_len=reduced)
        config.update(preset=args.preset, decode_len=args.decode_len)
    if "decode" in args.stages and md.decode_masses:
        decode_report = decoding_attention_report(md.decode_masses)
    report = build_run_report(seed=args.seed, config=config, retention=retention, decision=decision,
                              flops=flops, decode_report=decode_report, warnings=warnings)
    _emit(report, args)
    return EXIT_OK


def cmd_flops(args) -> int:
    enc_cfg, llm_cfg = preset_configs(
        args.preset, seq_len=args.n, out_len=args.decode_len, encoder_seq_len=args.enc_n)
    flops = stage_ratio_report(enc_cfg, llm_cfg, reduced_seq_len=args.reduced_n)
    report = build_run_report(
        seed=args.seed, config={
            "preset": args.preset,
            "encoder": {k: v for k, v in asdict(enc_cfg).items() if k != "out_len"},
            "llm": asdict(llm_cfg),
        },
        flops=flops)
    _emit(report, args)
    return EXIT_OK


def cmd_verify_lemma(args) -> int:
    if args.seed < 0:  # numpy's SeedSequence takes only non-negative seeds
        raise EngineError(f"--seed must be >= 0, got {args.seed}")
    trial = LemmaTrial(
        n_visual=args.visual_n, n_text=args.text_m, ambient_dim=args.dim,
        subdim=args.subspace, kernel=args.kernel, seed=args.seed)
    result = covariance_experiment(trial, args.trials, negative_control=args.negative_control,
                                   bootstrap_resamples=args.bootstrap)
    _emit(result, args)
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    if args.instances < 1:
        raise EngineError(f"--instances must be >= 1, got {args.instances}")
    if args.instances > ORACLE_MAX_INSTANCES:
        raise EngineError(f"--instances must be <= {ORACLE_MAX_INSTANCES}, got {args.instances}")
    if not 2 <= args.max_n <= ORACLE_MAX_N:
        raise EngineError(f"--max-n must be in [2, {ORACLE_MAX_N}], got {args.max_n}")
    if args.max_d < 2:
        raise EngineError(f"--max-d must be >= 2, got {args.max_d}")
    if args.seed < 0:
        raise EngineError(f"--seed must be >= 0, got {args.seed}")
    # numpy would raise ValueError, not MemoryError, on the largest instance.
    if 8 * args.max_n * args.max_d > sys.maxsize:
        raise EngineError(f"out of memory: --max-n, --max-d: a float64 array of "
                          f"{args.max_n * args.max_d} elements exceeds the address space")
    rng = np.random.default_rng(args.seed)
    mismatches = 0
    for _ in range(args.instances):
        n = int(rng.integers(2, args.max_n + 1))
        d = int(rng.integers(2, args.max_d + 1))
        v = rng.standard_normal((n, d)).astype(np.float32)
        pivot = int(rng.integers(0, n))
        # k = n covers every smaller k: greedy selections are prefix-stable.
        fast = greedy_kcenter(v, pivot, n)
        slow = oracle_greedy(v, pivot, n)
        if fast.indices != slow.indices:
            mismatches += 1
    _emit({"instances": args.instances, "max_n": args.max_n, "max_d": args.max_d,
           "seed": args.seed, "mismatches": mismatches, "ok": mismatches == 0}, args)
    if mismatches:
        raise InternalInvariant(f"oracle-check: {mismatches} mismatching instances")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vtcomp",
        description="Two-stage visual-token compression engine")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("select", help="stage 1: diversity-driven token retention")
    _add_common_flags(p)
    p.set_defaults(func=cmd_run, stages=("stage1",))

    p = sub.add_parser("decide", help="stage 2: relevance-driven drop decision")
    _add_common_flags(p, with_plan=False)
    p.set_defaults(func=cmd_run, stages=("stage2", "decode"))

    p = sub.add_parser("pipeline", help="both stages plus the FLOPs savings report")
    _add_common_flags(p)
    p.add_argument("--preset", default="llava-next-7b", choices=sorted(MODEL_PRESETS))
    p.add_argument("--decode-len", type=int, default=20)
    p.set_defaults(func=cmd_run, stages=("stage1", "stage2", "decode", "flops"))

    p = sub.add_parser("flops", help="stage-ratio cost model with presets")
    p.add_argument("--preset", default="llava-next-7b", choices=sorted(MODEL_PRESETS))
    p.add_argument("--n", type=int, default=None, help="LLM input length")
    p.add_argument("--decode-len", type=int, default=None, help="LLM output length")
    p.add_argument("--enc-n", type=int, default=None, help="override encoder sequence length")
    p.add_argument("--reduced-n", type=int, default=None,
                   help="reduced LLM input length for the savings fraction")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_flops)

    p = sub.add_parser("verify-lemma", help="Monte Carlo covariance check")
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--visual-n", type=int, default=8)
    p.add_argument("--text-m", type=int, default=4)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--subspace", type=int, default=4)
    p.add_argument("--kernel", choices=KERNELS, default="cosine")
    p.add_argument("--bootstrap", type=int, default=1000)
    p.add_argument("--negative-control", action="store_true",
                   help="break orthogonality on purpose (shared basis + shared tokens)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify_lemma)

    p = sub.add_parser("oracle-check", help="greedy vs. brute-force oracle equivalence")
    p.add_argument("--instances", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-n", type=int, default=64)
    p.add_argument("--max-d", type=int, default=16)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EngineError as e:
        print(f"vtcomp {args.command}: error: {e}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as e:
        print(f"vtcomp {args.command}: error: out of memory: {e}", file=sys.stderr)
        return EXIT_DATA
    except InternalInvariant as e:
        print(f"vtcomp {args.command}: internal invariant violated: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
