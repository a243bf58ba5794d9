"""Component bench: the scalar model vs one timing-table build.

Not a paper table — this guards the vectorized
:mod:`repro.gpusim.timing_table` pass the separable sweep
(``--searcher sweep``) reads its exact optimum from.  Over the same
kernel configurations — every configuration of every kernel space — it
(a) checks each table entry bitwise against the scalar model
(``kernel_timing(build_launch(...))`` for loop nests,
``ttgt_kernel_timing`` for TTGT plans; ``+inf`` where the scalar path
raises) and (b) times :meth:`ProgramTimingTable.build` against scoring
those configurations one at a time.  :func:`run_bench` measures any
(program, space); the script measures the lg3t loop-nest space, and
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

from repro.errors import ConfigurationError
from repro.gpusim.arch import GTX980
from repro.gpusim.kernel import build_launch
from repro.gpusim.perfmodel import GPUPerformanceModel
from repro.gpusim.timing_table import ProgramTimingTable
from repro.tcr.decision import decide_search_space
from repro.tcr.program import TCRProgram
from repro.tcr.space import ProgramSpace, TTGTKernelSpace
from repro.workloads import lg3t


def lg3t_case() -> tuple[TCRProgram, ProgramSpace]:
    """The lg3t program and its loop-nest space."""
    program = lg3t().program
    return program, decide_search_space(program)


def _scalar_totals(
    model: GPUPerformanceModel, program: TCRProgram, space: ProgramSpace
) -> list[list[float]]:
    """Each kernel configuration's ``total_s`` on the scalar model, per
    kernel space (``+inf`` where the scalar model refuses the point)."""
    totals = []
    for op, ks in zip(program.operations, space.kernel_spaces):
        row = []
        for cfg in ks:
            if isinstance(ks, TTGTKernelSpace):
                row.append(model.ttgt_kernel_timing(op, cfg, program.dims).total_s)
                continue
            try:
                launch = build_launch(op, cfg, program.dims)
                row.append(model.kernel_timing(launch).total_s)
            except ConfigurationError:
                row.append(float("inf"))
        totals.append(row)
    return totals


def _best_round(measure, rounds: int) -> float:
    """Fastest of ``rounds`` timed calls (the least-disturbed sample)."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        measure()
        best = min(best, time.perf_counter() - t0)
    return best


def run_bench(program: TCRProgram, space: ProgramSpace, n_configs: int) -> dict:
    """Time the scalar model against ``ProgramTimingTable.build``.

    Every table entry must equal its scalar value bitwise.  That untimed
    check also warms the caches both sides share (TTGT plans).  Then each
    side scores every kernel configuration of ``space`` once per round,
    for as many rounds as it takes to score ``n_configs``, and the ratio
    is of the two sides' fastest rounds.
    """
    model = GPUPerformanceModel(GTX980)
    scalar = _scalar_totals(model, program, space)
    table = ProgramTimingTable.build(model, program, space)
    mismatches = sum(
        a != b
        for row, kernel in zip(scalar, table.kernels, strict=True)
        for a, b in zip(row, kernel.totals.tolist(), strict=True)
    )
    entries = table.kernel_evaluations
    rounds = max(1, -(-n_configs // entries))
    scalar_seconds = _best_round(
        lambda: _scalar_totals(model, program, space), rounds
    )
    build_seconds = _best_round(
        lambda: ProgramTimingTable.build(model, program, space), rounds
    )
    return {
        "workload": program.name,
        "arch": GTX980.name,
        "configs": entries * rounds,
        "kernel_table_entries": entries,
        "rounds": rounds,
        "scalar_seconds": scalar_seconds,
        "table_build_seconds": build_seconds,
        "speedup": scalar_seconds / build_seconds if build_seconds > 0 else float("inf"),
        "exact_match": mismatches == 0,
        "mismatches": mismatches,
    }


def test_timing_table_faster_than_scalar():
    """Suite-run guard: exact entries, and the build beats the scalar model."""
    result = run_bench(*lg3t_case(), 300)
    assert result["exact_match"], f"{result['mismatches']} value mismatches"
    assert result["speedup"] > 1.0, (
        f"table build slower than scalar: {result['speedup']:.2f}x"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--configs", type=int, default=2000,
                        help="kernel configurations each side scores, in "
                        "whole rounds over the space")
    parser.add_argument("--min-speedup", type=float, default=1.0,
                        help="fail (exit 1) below this scalar/table ratio")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the result record as JSON to PATH")
    args = parser.parse_args(argv)

    result = run_bench(*lg3t_case(), args.configs)
    result["min_speedup"] = args.min_speedup
    result["passed"] = bool(result["exact_match"]) and (
        result["speedup"] >= args.min_speedup
    )

    if args.json:
        path = pathlib.Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    print(
        f"{result['kernel_table_entries']} kernel configs on "
        f"{result['workload']}/{result['arch']}, best of "
        f"{result['rounds']} rounds: "
        f"scalar {result['scalar_seconds'] * 1e3:.1f} ms, "
        f"table build {result['table_build_seconds'] * 1e3:.1f} ms "
        f"-> {result['speedup']:.1f}x, "
        f"exact={'yes' if result['exact_match'] else 'NO'}"
    )
    if not result["exact_match"]:
        print("FAIL: table entries diverge from the scalar model", file=sys.stderr)
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
