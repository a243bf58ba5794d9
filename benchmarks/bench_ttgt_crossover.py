"""Backend crossover study: TTGT vs loop-nest vs auto, per architecture.

Not a paper table — this guards the TTGT batched-GEMM backend and the
transpose-aware decision layer (:mod:`repro.tcr.ttgt`,
:mod:`repro.gpusim.gemm`, :mod:`repro.gpusim.transpose`):

* **Crossover**: on every architecture the loop-nest backend must win at
  least one small extent and TTGT at least one large extent of the sweep
  — the decision layer only earns its keep if neither backend dominates.
* **Auto exactness**: ``--backend auto`` must equal
  ``min(loopnest, ttgt)`` bitwise at *every* point — the per-operation
  choice compares full-space table minima, so it can never lose to a
  fixed backend under the sweep searcher.
* **Table parity/throughput** (the ``ttgt`` entry of the regression
  gate's ``tables`` suite): every entry of
  :meth:`KernelTimingTable.build_ttgt` must reproduce the scalar
  :meth:`GPUPerformanceModel.ttgt_kernel_timing` value exactly, and one
  table build must beat scoring the same configurations one at a time.

The swept operation is a batched contraction whose ``A`` operand carries
the batch index in the middle (``A[i,b,k]`` with batch ``b``): no legal
TTGT operand layout matches it, so every TTGT plan pays a materialized
transpose kernel — small extents are then won by the single-launch loop
nest and large extents by the GEMM's tiling efficiency.

CI usage (smoke sweeps one small and one large extent)::

    PYTHONPATH=src python benchmarks/bench_ttgt_crossover.py --smoke
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.core.tensor import TensorRef
from repro.gpusim.arch import C2050, GTX980, K20
from repro.gpusim.perfmodel import GPUPerformanceModel
from repro.gpusim.timing_table import ProgramTimingTable
from repro.tcr.decision import decide_search_space
from repro.tcr.program import TCROperation, TCRProgram
from repro.tcr.space import ProgramSpace

try:
    from benchmarks.bench_timing_table import run_bench
except ImportError:  # run as a script from benchmarks/
    from bench_timing_table import run_bench

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"

ARCHES = (C2050, K20, GTX980)

#: Full sweep of the shared extent d (all four indices at d).
SWEEP_DIMS = (6, 8, 12, 16, 24, 32, 48, 64, 96)

#: Smoke sweep: one extent from each side of every arch's crossover.
SMOKE_DIMS = (6, 96)

BACKENDS = ("loopnest", "ttgt", "auto")


def crossover_program(d: int) -> TCRProgram:
    """``C[b,i,j] += A[i,b,k] * B[b,k,j]`` with every extent at ``d``.

    The misplaced batch index in ``A`` forces a transpose kernel into
    every TTGT plan (``batch_m``/``batch_n`` escapes need two m- or
    n-indices), so the backends genuinely trade launches for GEMM
    efficiency.
    """
    return TCRProgram(
        name=f"ttgt-crossover-d{d}",
        dims={"b": d, "i": d, "j": d, "k": d},
        arrays={
            "A": ("i", "b", "k"),
            "B": ("b", "k", "j"),
            "C": ("b", "i", "j"),
        },
        operations=[
            TCROperation(
                TensorRef("C", ("b", "i", "j")),
                (TensorRef("A", ("i", "b", "k")), TensorRef("B", ("b", "k", "j"))),
            )
        ],
    )


def bench_program(d: int = 16) -> TCRProgram:
    """A richer operation for the throughput record (bigger TTGT space).

    Distinct index orders between the operands and the output multiply
    the legal group orderings, and the empty batch group adds the
    ``flat``/``batch_m``/``batch_n`` modes — ~100 configurations instead
    of the crossover op's 8.
    """
    return TCRProgram(
        name=f"ttgt-bench-d{d}",
        dims={"a": d, "b": d, "i": d, "j": d, "k": d, "l": d},
        arrays={
            "A": ("i", "k", "a", "l"),
            "B": ("l", "j", "k", "b"),
            "C": ("a", "i", "j", "b"),
        },
        operations=[
            TCROperation(
                TensorRef("C", ("a", "i", "j", "b")),
                (
                    TensorRef("A", ("i", "k", "a", "l")),
                    TensorRef("B", ("l", "j", "k", "b")),
                ),
            )
        ],
    )


# ----------------------------------------------------------------------
# Crossover study


def sweep_point(model: GPUPerformanceModel, d: int) -> dict:
    """Noise-free full-space best time per backend at extent ``d``.

    Uses exactly the sweep searcher's machinery (`decide_search_space`
    + per-kernel table argmin), so "best" means the same thing a
    ``--searcher sweep --backend X`` run would report.
    """
    program = crossover_program(d)
    best = {}
    for backend in BACKENDS:
        space = decide_search_space(program, backend=backend, model=model)
        table = ProgramTimingTable.build(model, program, space)
        best[backend] = float(
            sum(kernel.totals.min() for kernel in table.kernels)
        )
    return {
        "arch": model.arch.name,
        "dim": d,
        "loopnest_s": best["loopnest"],
        "ttgt_s": best["ttgt"],
        "auto_s": best["auto"],
        "winner": "loopnest" if best["loopnest"] < best["ttgt"] else "ttgt",
        "auto_exact": best["auto"] == min(best["loopnest"], best["ttgt"]),
    }


def run_crossover(dims=SWEEP_DIMS, arches=ARCHES) -> list[dict]:
    return [
        sweep_point(GPUPerformanceModel(arch), d)
        for arch in arches
        for d in dims
    ]


def check_crossover(records: list[dict]) -> list[str]:
    """The acceptance conditions; returns human-readable failures."""
    failures = []
    by_arch: dict[str, list[dict]] = {}
    for record in records:
        by_arch.setdefault(record["arch"], []).append(record)
    for arch, points in by_arch.items():
        wins = [p["winner"] for p in points]
        if "loopnest" not in wins:
            failures.append(f"{arch}: loop-nest never wins a point")
        if "ttgt" not in wins:
            failures.append(f"{arch}: TTGT never wins a point")
        for p in points:
            if not p["auto_exact"]:
                failures.append(
                    f"{arch} d={p['dim']}: auto={p['auto_s']!r} != "
                    f"min(loopnest={p['loopnest_s']!r}, ttgt={p['ttgt_s']!r})"
                )
    return failures


# ----------------------------------------------------------------------
# Regression-gate entry: scalar TTGT model vs vectorized table


def ttgt_case() -> tuple[TCRProgram, ProgramSpace]:
    """:func:`bench_program` and its pure-TTGT space on the GTX 980, for
    :func:`benchmarks.bench_timing_table.run_bench`: every scored value
    flows through the GEMM/transpose cost model."""
    program = bench_program()
    model = GPUPerformanceModel(GTX980)
    return program, decide_search_space(program, backend="ttgt", model=model)


# ----------------------------------------------------------------------
# Suite-run guards


def test_crossover_and_auto_exactness():
    """Each arch crosses over, and auto equals min(fixed) bitwise."""
    failures = check_crossover(run_crossover())
    assert not failures, "; ".join(failures)


def test_ttgt_table_matches_scalar():
    """Table-backed TTGT scoring is bitwise-exact vs the scalar model."""
    result = run_bench(*ttgt_case(), 300)
    assert result["exact_match"], f"{result['mismatches']} value mismatches"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="sweep only one small and one large extent "
                        "(CI smoke; the acceptance checks still run)")
    parser.add_argument("--configs", type=int, default=2000,
                        help="kernel configurations each side scores for "
                        "the scalar-vs-table record")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write sweep + bench records as JSON to PATH")
    args = parser.parse_args(argv)

    dims = SMOKE_DIMS if args.smoke else SWEEP_DIMS
    records = run_crossover(dims=dims)
    for record in records:
        print(
            f"{record['arch']:11s} d={record['dim']:3d}  "
            f"loopnest {record['loopnest_s'] * 1e6:9.2f} us  "
            f"ttgt {record['ttgt_s'] * 1e6:9.2f} us  "
            f"winner={record['winner']:8s} "
            f"auto_exact={'yes' if record['auto_exact'] else 'NO'}"
        )
    failures = check_crossover(records)

    bench = run_bench(*ttgt_case(), args.configs)
    print(
        f"{bench['kernel_table_entries']} TTGT configs on "
        f"{bench['workload']}/{bench['arch']}, best of {bench['rounds']} "
        f"rounds: scalar {bench['scalar_seconds'] * 1e3:.1f} ms, "
        f"table build {bench['table_build_seconds'] * 1e3:.1f} ms "
        f"-> {bench['speedup']:.1f}x, "
        f"exact={'yes' if bench['exact_match'] else 'NO'}"
    )
    if not bench["exact_match"]:
        failures.append(
            f"table entries diverge from the scalar TTGT model "
            f"({bench['mismatches']} mismatches)"
        )

    if args.json:
        path = pathlib.Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"sweep": records, "bench": bench, **bench}
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
