"""Shared knobs and reporting helpers for the benchmark harness.

Every bench regenerates one of the paper's tables/figures through the full
pipeline.  Budgets are environment-tunable:

=====================  ========  ==========================================
variable               default   meaning
=====================  ========  ==========================================
REPRO_BENCH_EVALS      50        SURF evaluation budget per search
REPRO_BENCH_POOL       1200      configuration pool size
REPRO_BENCH_SEED       1         master seed
REPRO_BENCH_FULL       unset     set to 1 for the paper's full budgets
                                 (evals=100, pool=2500)
=====================  ========  ==========================================

Rendered tables/figures are written to ``benchmarks/output/`` and echoed to
stdout (run pytest with ``-s`` to see them live).
"""

from __future__ import annotations

import os
import pathlib

import pytest

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


def budgets() -> dict:
    if os.environ.get("REPRO_BENCH_FULL"):
        return {"evals": 100, "pool": 2500, "seed": int(os.environ.get("REPRO_BENCH_SEED", 1))}
    return {
        "evals": int(os.environ.get("REPRO_BENCH_EVALS", 50)),
        "pool": int(os.environ.get("REPRO_BENCH_POOL", 1200)),
        "seed": int(os.environ.get("REPRO_BENCH_SEED", 1)),
    }


@pytest.fixture(scope="session")
def bench_budgets() -> dict:
    return budgets()


@pytest.fixture(scope="session")
def report_sink():
    """Write a rendered report to benchmarks/output/<key>.txt and stdout."""
    OUTPUT_DIR.mkdir(exist_ok=True)

    def sink(report) -> None:
        path = OUTPUT_DIR / f"{report.key}.txt"
        path.write_text(report.text + "\n", encoding="utf-8")
        print()
        print(report.text)

    return sink
