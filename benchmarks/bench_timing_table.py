"""Component bench: scalar model evaluation vs timing-table lookup.

Not a paper table — this guards the vectorized
:mod:`repro.gpusim.timing_table` fast path: it must (a) reproduce the
scalar evaluator's values *exactly* and (b) beat it on throughput, table
construction included.  :func:`run_bench` measures any (program, space);
the script measures the lg3t loop-nest space, and
:func:`benchmarks.bench_ttgt_crossover.ttgt_case` supplies a TTGT space.
Run as a script for the CI perf smoke step::

    PYTHONPATH=src python benchmarks/bench_timing_table.py \
        --configs 256 --min-speedup 1.0 --json output.json

or via pytest alongside the other component benches (no pytest-benchmark
fixture needed — the comparison is self-timed so the speedup can be
asserted, not just reported).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

from repro.gpusim.arch import GTX980
from repro.gpusim.perfmodel import GPUPerformanceModel
from repro.gpusim.timing_table import ProgramTimingTable
from repro.surf.evaluator import ConfigurationEvaluator
from repro.tcr.decision import decide_search_space
from repro.tcr.program import TCRProgram
from repro.tcr.space import ProgramSpace, TuningSpace
from repro.util.rng import spawn_rng
from repro.workloads import lg3t

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


def lg3t_case() -> tuple[TCRProgram, ProgramSpace]:
    """The lg3t program and its loop-nest space."""
    program = lg3t().program
    return program, decide_search_space(program)


def run_bench(
    program: TCRProgram, space: ProgramSpace, n_configs: int, seed: int = 1
) -> dict:
    """Time scalar vs table-backed batch evaluation on the same pool.

    The table path is charged its full cost: building every per-kernel
    table (one vectorized pass over sum-of-kernel-space-sizes entries)
    *plus* scoring the pool by lookup.  Values must match bitwise.
    """
    model = GPUPerformanceModel(GTX980)
    tuning_space = TuningSpace([space])
    pool = tuning_space.sample_pool(
        min(n_configs, tuning_space.size()), spawn_rng(seed, "bench-pool")
    )
    # A space smaller than n_configs is tiled up to it so both paths score
    # enough work for the wall-clock ratio to be stable — repeated configs
    # time identically either way.
    if 0 < len(pool) < n_configs:
        reps = -(-n_configs // len(pool))
        pool = (pool * reps)[:n_configs]

    scalar = ConfigurationEvaluator([program], model, noisy=False)
    t0 = time.perf_counter()
    scalar_values = scalar.evaluate_batch(pool)
    scalar_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    table = ProgramTimingTable.build(model, program, space)
    build_seconds = time.perf_counter() - t0

    fast = ConfigurationEvaluator([program], model, noisy=False, tables=[table])
    t0 = time.perf_counter()
    fast_values = fast.evaluate_batch(pool)
    lookup_seconds = time.perf_counter() - t0

    mismatches = sum(1 for a, b in zip(scalar_values, fast_values) if a != b)
    table_seconds = build_seconds + lookup_seconds
    return {
        "workload": program.name,
        "arch": GTX980.name,
        "configs": len(pool),
        "kernel_table_entries": table.kernel_evaluations,
        "scalar_seconds": scalar_seconds,
        "table_build_seconds": build_seconds,
        "table_lookup_seconds": lookup_seconds,
        "table_seconds": table_seconds,
        "speedup": scalar_seconds / table_seconds if table_seconds > 0 else float("inf"),
        "exact_match": mismatches == 0,
        "mismatches": mismatches,
    }


def test_timing_table_faster_than_scalar():
    """Suite-run guard: exact values, and lookup beats the scalar model."""
    result = run_bench(*lg3t_case(), 300)
    assert result["exact_match"], f"{result['mismatches']} value mismatches"
    assert result["speedup"] > 1.0, (
        f"table path slower than scalar: {result['speedup']:.2f}x"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--configs", type=int, default=2000,
                        help="pool size to score on both paths (>= 1000 for "
                        "the acceptance-level speedup measurement)")
    parser.add_argument("--min-speedup", type=float, default=10.0,
                        help="fail (exit 1) below this scalar/table ratio")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the result record as JSON to PATH")
    args = parser.parse_args(argv)

    result = run_bench(*lg3t_case(), args.configs, seed=args.seed)
    result["min_speedup"] = args.min_speedup
    result["passed"] = bool(result["exact_match"]) and (
        result["speedup"] >= args.min_speedup
    )

    if args.json:
        path = pathlib.Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    print(
        f"{result['configs']} configs on {result['workload']}/{result['arch']}: "
        f"scalar {result['scalar_seconds'] * 1e3:.1f} ms, "
        f"table {result['table_seconds'] * 1e3:.1f} ms "
        f"(build {result['table_build_seconds'] * 1e3:.1f} + "
        f"lookup {result['table_lookup_seconds'] * 1e3:.1f}) "
        f"-> {result['speedup']:.1f}x, "
        f"exact={'yes' if result['exact_match'] else 'NO'}"
    )
    if not result["exact_match"]:
        print("FAIL: table values diverge from the scalar model", file=sys.stderr)
        return 1
    if result["speedup"] < args.min_speedup:
        print(
            f"FAIL: speedup {result['speedup']:.2f}x below required "
            f"{args.min_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
