"""Search-quality contract: SURF against the exact ``sweep`` optimum.

The forest's bits are pinned by golden digests (``test_search_parity``);
whether the search still *works* is pinned here, statistically.  The
grid of ``benchmarks/bench_search_quality.py`` (five workloads x three
GPUs x ten seeds, pool 500, ``nmax`` 40, batch 10) runs with SURF and
with random search, and SURF is held to the committed numbers of the
seed-pinned forest it replaced (``tests/golden/search_quality_parent.json``):

* the 95% upper bound of the paired geometric-mean regret ratio (new
  over parent), from a fixed-seed bootstrap over the paired runs, is at
  most 1.03;
* the median evaluations-to-within-5% rises by at most 10%;
* SURF beats random search at equal budget (the paper's Table II claim):
  lower geometric-mean regret and fewer median evaluations-to-within-5%.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from benchmarks.bench_search_quality import (
    geomean_regret,
    median_evals,
    run_grid,
)

PARENT = Path(__file__).parent / "golden" / "search_quality_parent.json"

#: Largest allowed 95% upper bound of the geometric-mean regret ratio.
MAX_REGRET_RATIO = 1.03
#: Largest allowed rise of the median evaluations-to-within-5%.
MAX_EVALS_RISE = 1.10
BOOTSTRAP_SAMPLES = 10_000


def _key(record: dict) -> tuple:
    return record["workload"], record["arch"], record["seed"]


@pytest.fixture(scope="module")
def parent() -> list[dict]:
    return json.loads(PARENT.read_text())["records"]


@pytest.fixture(scope="module")
def surf(parent) -> list[dict]:
    records = run_grid("surf")
    assert [_key(r) for r in records] == [_key(r) for r in parent]
    return records


@pytest.fixture(scope="module")
def random_search() -> list[dict]:
    return run_grid("random")


def test_regret_no_worse_than_parent(surf, parent):
    log_ratio = np.log(
        [new["regret"] / old["regret"] for new, old in zip(surf, parent)]
    )
    rng = np.random.default_rng(0)
    resamples = rng.integers(0, log_ratio.size, size=(BOOTSTRAP_SAMPLES, log_ratio.size))
    upper = float(np.exp(np.quantile(log_ratio[resamples].mean(axis=1), 0.95)))
    assert upper <= MAX_REGRET_RATIO, (
        f"geometric-mean regret ratio 95% upper bound {upper:.4f}"
    )


def test_evals_to_5pct_no_worse_than_parent(surf, parent):
    assert median_evals(surf) <= MAX_EVALS_RISE * median_evals(parent)


def test_surf_beats_random(surf, random_search):
    assert all(r["regret"] >= 1.0 for r in surf + random_search)
    assert geomean_regret(surf) < geomean_regret(random_search)
    assert median_evals(surf) < median_evals(random_search)
