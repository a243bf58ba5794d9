"""Command-line interface: ``python -m repro`` / ``barracuda``.

Subcommands
-----------
``tune``      autotune a named workload or a DSL file for a GPU
``submit``    one-call store-backed tuning (hit = instant champion)
``serve``     run a batch of requests through the multi-worker service
``variants``  show OCTOPI's strength-reduction variants for a DSL input
``codegen``   emit the Orio annotation / CUDA source for a tuned workload
``report``    regenerate the paper's tables and figures
``list``      list known workloads and architectures
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.autotune import Autotuner
from repro.core.pipeline import compile_contraction, compile_dsl
from repro.dsl.parser import parse_contraction
from repro.errors import ReproError
from repro.gpusim.arch import ALL_GPUS, gpu_by_name
from repro.obs.tracer import Tracer, get_tracer, use_tracer
from repro.workloads import get_workload, workload_names

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="barracuda",
        description="Barracuda tensor-contraction autotuner (ICPP 2015 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tune = sub.add_parser("tune", help="autotune a workload for a GPU")
    tune.add_argument("workload", help="workload name (see `list`) or a DSL file path")
    tune.add_argument("--arch", default="gtx980", help="gtx980 | k20 | c2050")
    tune.add_argument("--evals", type=int, default=100, help="SURF evaluation budget")
    tune.add_argument("--batch", type=int, default=10, help="SURF batch size")
    tune.add_argument("--pool", type=int, default=2500, help="configuration pool size")
    tune.add_argument("--seed", type=int, default=1)
    tune.add_argument(
        "--searcher", default="surf",
        choices=("surf", "random", "exhaustive", "sweep"),
    )
    tune.add_argument(
        "--backend", default="loopnest",
        choices=("loopnest", "ttgt", "auto"),
        help="kernel backend per operation: 'loopnest' (the paper's mapped "
        "loop nests), 'ttgt' (transpose-transpose-GEMM-transpose through a "
        "batched GEMM), or 'auto' (pick per operation by modeled best time; "
        "ineligible operations fall back to loop nests)",
    )
    tune.add_argument(
        "--per-variant", action="store_true",
        help="autotune each OCTOPI variant separately (the paper's flow)",
    )
    tune.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="dump per-batch search telemetry as JSON to PATH ('-' for stdout)",
    )
    tune.add_argument(
        "--faults", default="", metavar="SPEC",
        help="inject deterministic evaluation faults (default: none): a "
        "bare probability ('0.15') and/or 'compile=..,launch=..,"
        "transient=..,worker=..'; add ',retries=N' for the "
        "transient-failure retry budget (default 2)",
    )
    tune.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="persist search state (atomic per-batch checkpoint) under "
        "DIR for kill-safe resumption; the sweep saves only its manifest",
    )
    tune.add_argument(
        "--resume", action="store_true",
        help="with --checkpoint-dir: restore an interrupted run's state "
        "and finish bitwise-identical to an uninterrupted run",
    )
    tune.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write a Chrome-trace (Perfetto-loadable) span trace of the "
        "whole run to FILE, plus a run-provenance manifest.json next to "
        "it; results are bitwise identical with tracing on or off",
    )
    tune.add_argument(
        "--store", default=None, metavar="DIR",
        help="content-addressed result store directory: serve the whole "
        "run from a prior identical one (champion + history, zero model "
        "evaluations) and record misses for the next requester "
        "(default: $REPRO_RESULT_STORE or off)",
    )

    submit = sub.add_parser(
        "submit",
        help="one-call store-backed tuning: instant champion on a store hit",
    )
    submit.add_argument("workload", help="workload name (see `list`) or a DSL file path")
    submit.add_argument("--arch", default="gtx980", help="gtx980 | k20 | c2050")
    submit.add_argument(
        "--store", required=True, metavar="DIR",
        help="content-addressed result store directory (created if absent)",
    )
    submit.add_argument("--evals", type=int, default=100)
    submit.add_argument("--batch", type=int, default=10)
    submit.add_argument("--pool", type=int, default=2500)
    submit.add_argument("--seed", type=int, default=1)
    submit.add_argument(
        "--searcher", default="surf",
        choices=("surf", "random", "exhaustive", "sweep"),
    )

    serve = sub.add_parser(
        "serve",
        help="run tuning requests through the multi-worker service",
    )
    serve.add_argument(
        "requests", nargs="+", metavar="WORKLOAD[@ARCH]",
        help="requests like 'lg3@k20' (ARCH defaults to --arch)",
    )
    serve.add_argument(
        "--store", required=True, metavar="DIR",
        help="shared content-addressed result store directory",
    )
    serve.add_argument("--workers", type=int, default=2, help="concurrent tuning jobs")
    serve.add_argument("--arch", default="gtx980", help="default architecture")
    serve.add_argument("--evals", type=int, default=100)
    serve.add_argument("--batch", type=int, default=10)
    serve.add_argument("--pool", type=int, default=2500)
    serve.add_argument("--seed", type=int, default=1)
    serve.add_argument(
        "--deadline", type=float, default=None, metavar="S",
        help="per-job queue deadline in seconds: jobs still queued when "
        "it expires are cancelled instead of run",
    )
    serve.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write a Chrome trace of the whole service run (serve.job "
        "spans, store.hit/miss events) to FILE",
    )

    variants = sub.add_parser("variants", help="show OCTOPI variants for a DSL input")
    variants.add_argument("dsl", help="DSL file path or inline statement")
    variants.add_argument("--default-dim", type=int, default=None)

    codegen = sub.add_parser("codegen", help="emit Orio annotation / CUDA for a workload")
    codegen.add_argument("workload")
    codegen.add_argument("--arch", default="gtx980")
    codegen.add_argument("--kind", choices=("orio", "cuda", "c", "tcr"), default="cuda")
    codegen.add_argument("--evals", type=int, default=60)
    codegen.add_argument("--pool", type=int, default=1500)
    codegen.add_argument("--seed", type=int, default=1)

    roofline = sub.add_parser(
        "roofline", help="tune a workload and explain what binds each kernel"
    )
    roofline.add_argument("workload")
    roofline.add_argument("--arch", default="gtx980")
    roofline.add_argument("--evals", type=int, default=60)
    roofline.add_argument("--pool", type=int, default=1500)
    roofline.add_argument("--seed", type=int, default=1)

    report = sub.add_parser("report", help="regenerate the paper's tables/figures")
    report.add_argument(
        "experiment",
        choices=("table1", "table2", "table3", "table4", "figure3", "intext", "all"),
    )
    report.add_argument("--evals", type=int, default=100)
    report.add_argument("--pool", type=int, default=2500)
    report.add_argument("--seed", type=int, default=1)

    sub.add_parser("list", help="list workloads and architectures")
    return parser


def _load_workload(spec: str):
    if spec in workload_names():
        return get_workload(spec)
    try:
        with open(spec, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ReproError(
            f"{spec!r} is neither a known workload nor a readable DSL file: {exc}"
        ) from None
    from repro.workloads.base import Workload

    with get_tracer().span("dsl.parse", category="dsl", source=spec):
        contraction = parse_contraction(text, name="user")
    return Workload(
        name=spec, description="user DSL input", contraction=contraction
    )


def _cmd_tune(args: argparse.Namespace) -> int:
    if args.trace:
        # Install the run tracer before workload loading so DSL-parse spans
        # land in the same trace the Autotuner exports on completion.
        with use_tracer(Tracer()):
            return _run_tune(args)
    return _run_tune(args)


def _run_tune(args: argparse.Namespace) -> int:
    workload = _load_workload(args.workload)
    tuner = Autotuner(
        gpu_by_name(args.arch),
        searcher=args.searcher,
        max_evaluations=args.evals,
        batch_size=args.batch,
        pool_size=args.pool,
        seed=args.seed,
        per_variant=args.per_variant,
        faults=args.faults,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        trace=args.trace,
        result_store=args.store,
        backend=args.backend,
    )
    result = workload.tune(tuner)
    if result.store_hit:
        print("result store: hit (champion served, zero model evaluations)")
    print(result.summary())
    print(f"device rate (kernels only): {result.timing.device_gflops:.2f} GFlops")
    print(f"best configuration: {result.best_config.describe()}")
    if result.search.telemetry is not None:
        totals = result.search.telemetry.totals()
        print(
            f"telemetry: {totals['batches']} batches, "
            f"{totals['evaluations']} model evals, "
            f"surrogate fit {totals['fit_seconds']:.2f}s"
        )
        failures = {
            key: int(totals.get(key, 0))
            for key in ("invalid", "transient", "permanent", "retries")
        }
        if any(failures.values()):
            print(
                "failures: "
                f"{failures['invalid']} invalid, "
                f"{failures['transient']} transient, "
                f"{failures['permanent']} permanent, "
                f"{failures['retries']} retries"
            )
        if args.telemetry:
            payload = result.search.telemetry.to_json()
            if args.telemetry == "-":
                print(payload)
            else:
                with open(args.telemetry, "w", encoding="utf-8") as handle:
                    handle.write(payload + "\n")
                print(f"telemetry written to {args.telemetry}")
    print("TCR program of the winning variant:")
    print(result.best_program.to_text())
    if args.trace:
        print(f"trace written to {args.trace} (manifest.json alongside)")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.serve.client import tune_contraction

    workload = _load_workload(args.workload)
    source = workload.contraction if workload.contraction is not None else workload.program
    result = tune_contraction(
        source,
        arch=args.arch,
        store=args.store,
        searcher=args.searcher,
        max_evaluations=args.evals,
        batch_size=args.batch,
        pool_size=args.pool,
        seed=args.seed,
    )
    print(f"result store: {'hit' if result.store_hit else 'miss'} ({args.store})")
    print(result.summary())
    print(f"best configuration: {result.best_config.describe()}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs.exporters import write_chrome_trace
    from repro.serve.service import JobState, TuneRequest, TuningService

    settings = {
        "max_evaluations": args.evals,
        "batch_size": args.batch,
        "pool_size": args.pool,
        "seed": args.seed,
    }
    requests = []
    for spec in args.requests:
        source, _, arch = spec.partition("@")
        requests.append(
            TuneRequest(source=source, arch=arch or args.arch, settings=settings)
        )
    tracer = Tracer() if args.trace else get_tracer()
    with use_tracer(tracer) if args.trace else _null_context():
        with TuningService(args.store, workers=args.workers) as service:
            ids = [
                service.submit(request, deadline=args.deadline)
                for request in requests
            ]
            # Dedup can map several specs to one job; report each spec's job.
            jobs = [service.wait(job_id) for job_id in ids]
    if args.trace:
        write_chrome_trace(tracer.finished(), args.trace)
        print(f"trace written to {args.trace}")
    failed = cancelled = 0
    for job in jobs:
        print(job.describe())
        failed += job.state == JobState.FAILED
        cancelled += job.state == JobState.CANCELLED
    hits = sum(1 for j in jobs if j.store_hit)
    summary = (
        f"served {len(jobs)} request(s): {hits} store hit(s), "
        f"{len(jobs) - hits - failed - cancelled} tuned, {failed} failed"
    )
    if cancelled:
        summary += f", {cancelled} cancelled"
    print(summary)
    return 1 if failed else 0


def _null_context():
    from contextlib import nullcontext

    return nullcontext()


def _cmd_variants(args: argparse.Namespace) -> int:
    spec = args.dsl
    try:
        with open(spec, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        # Fall back to treating the argument as inline DSL only when it
        # does not name an existing path: an unreadable *existing* file
        # (permissions, a directory, ...) must surface its real error, not
        # a baffling DSL parse error on the file name.
        if os.path.exists(spec):
            raise ReproError(f"cannot read DSL file {spec!r}: {exc}") from None
        if "=" not in spec:
            # Not a file and syntactically never a DSL statement — almost
            # certainly a typo'd path; say so instead of parse-erroring.
            raise ReproError(
                f"{spec!r} is neither an existing DSL file nor an inline "
                "DSL statement"
            ) from None
        text = spec
    for compiled in compile_dsl(text, default_dim=args.default_dim, name="input"):
        print(f"# {compiled.contraction}")
        print(
            f"# {len(compiled.variants)} variants, "
            f"{len(compiled.minimal_flop_variants())} with minimal flops "
            f"({compiled.min_flops})"
        )
        for variant in compiled.variants:
            print(variant)
    return 0


def _cmd_codegen(args: argparse.Namespace) -> int:
    from repro.tcr.codegen_c import generate_c
    from repro.tcr.codegen_cuda import generate_cuda_program
    from repro.tcr.decision import decide_search_space
    from repro.tcr.orio import emit_orio_annotation

    workload = _load_workload(args.workload)
    if workload.kind == "contraction":
        program = compile_contraction(workload.contraction).minimal_flop_variants()[0].program
    else:
        program = workload.program
    if args.kind == "tcr":
        print(program.to_text())
        return 0
    if args.kind == "c":
        print(generate_c(program))
        return 0
    space = decide_search_space(program)
    if args.kind == "orio":
        print(emit_orio_annotation(space))
        return 0
    tuner = Autotuner(
        gpu_by_name(args.arch),
        max_evaluations=args.evals,
        pool_size=args.pool,
        seed=args.seed,
    )
    result = tuner.tune_program(program)
    print(generate_cuda_program(program, result.best_config))
    return 0


def _cmd_roofline(args: argparse.Namespace) -> int:
    from repro.gpusim.perfmodel import GPUPerformanceModel
    from repro.gpusim.roofline import analyze_program

    workload = _load_workload(args.workload)
    arch = gpu_by_name(args.arch)
    tuner = Autotuner(
        arch, max_evaluations=args.evals, pool_size=args.pool, seed=args.seed
    )
    result = workload.tune(tuner)
    print(result.summary())
    model = GPUPerformanceModel(arch)
    for i, point in enumerate(
        analyze_program(model, result.best_program, result.best_config)
    ):
        op = result.best_program.operations[i]
        print(f"k{i} [{op}]")
        print(f"   {point.describe()}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.reporting import (
        figure3_report,
        intext_report,
        table1_report,
        table2_report,
        table3_report,
        table4_report,
    )

    kw = {"evals": args.evals, "pool": args.pool, "seed": args.seed}
    producers = {
        "table1": lambda: table1_report(),
        "table2": lambda: table2_report(**kw),
        "table3": lambda: table3_report(**kw),
        "table4": lambda: table4_report(**kw),
        "figure3": lambda: figure3_report(**kw),
        "intext": lambda: intext_report(**kw),
    }
    keys = list(producers) if args.experiment == "all" else [args.experiment]
    for key in keys:
        print(producers[key]().text)
        print()
    return 0


def _cmd_list() -> int:
    print("workloads:")
    for name in workload_names():
        print(f"  {name}")
    print("applications: nekbone (see repro.apps.nekbone)")
    print("architectures:")
    for arch in ALL_GPUS:
        print(f"  {arch.name} ({arch.generation}), peak {arch.peak_dp_gflops:.0f} DP GFlops")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "tune":
            return _cmd_tune(args)
        if args.command == "submit":
            return _cmd_submit(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "variants":
            return _cmd_variants(args)
        if args.command == "codegen":
            return _cmd_codegen(args)
        if args.command == "roofline":
            return _cmd_roofline(args)
        if args.command == "report":
            return _cmd_report(args)
        if args.command == "list":
            return _cmd_list()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
