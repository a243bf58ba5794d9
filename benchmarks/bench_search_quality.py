"""Search quality against the exact optimum: regret and evaluations-to-5%.

Runs a searcher over a fixed grid — five paper workloads x three GPUs x
ten seeds, pool 500, ``nmax`` 40, batch 10 — and scores every run against
the exact noise-free optimum that ``searcher="sweep"`` finds for the same
workload and GPU:

``regret``
    The champion's noise-free modeled time over the optimum (>= 1).
``evals_to_5pct``
    Evaluations spent before the best noise-free time seen so far comes
    within 5% of the optimum (``nmax + 1`` when it never does).

``tests/test_search_quality.py`` reruns the grid and holds SURF to the
committed parent numbers in ``tests/golden/search_quality_parent.json``
(see ``tests/golden/README.md`` for the command that wrote them).

Run as a script::

    PYTHONPATH=src python benchmarks/bench_search_quality.py \
        --searcher surf --json quality.json
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import statistics
import sys

WORKLOADS = ("lg3", "tce_ex", "s1_1", "d1_1", "d2_1")
ARCHES = ("gtx980", "k20", "c2050")
SEEDS = tuple(range(10))
POOL = 500
NMAX = 40
BATCH = 10
WITHIN = 1.05


def _programs(workload) -> list:
    from repro.core.pipeline import compile_contraction

    if workload.program is not None:
        return [workload.program]
    return [v.program for v in compile_contraction(workload.contraction).variants]


def _noise_free(model, programs, config) -> float:
    from repro.errors import ReproError

    try:
        return model.program_timing(programs[config.variant_index], config).total_s
    except ReproError:  # an invalid configuration has no modeled time
        return math.inf


def run_grid(
    searcher: str = "surf",
    workloads=WORKLOADS,
    arches=ARCHES,
    seeds=SEEDS,
) -> list[dict]:
    """One record per (workload, arch, seed) run of ``searcher``."""
    from repro.autotune import Autotuner
    from repro.gpusim.arch import gpu_by_name
    from repro.workloads import get_workload

    records = []
    for name in workloads:
        workload = get_workload(name)
        programs = _programs(workload)
        for arch_name in arches:
            arch = gpu_by_name(arch_name)
            optimum = workload.tune(Autotuner(arch, searcher="sweep")).seconds
            for seed in seeds:
                tuner = Autotuner(
                    arch, searcher=searcher, seed=seed, pool_size=POOL,
                    max_evaluations=NMAX, batch_size=BATCH,
                )
                result = workload.tune(tuner)
                reached = NMAX + 1
                best = math.inf
                for i, (config, _y) in enumerate(result.search.history, 1):
                    best = min(best, _noise_free(tuner.model, programs, config))
                    if best <= WITHIN * optimum:
                        reached = i
                        break
                records.append({
                    "workload": name,
                    "arch": arch_name,
                    "seed": seed,
                    "regret": result.seconds / optimum,
                    "evals_to_5pct": reached,
                })
    return records


def geomean_regret(records: list[dict]) -> float:
    return math.exp(statistics.fmean(math.log(r["regret"]) for r in records))


def median_evals(records: list[dict]) -> float:
    return statistics.median(r["evals_to_5pct"] for r in records)


def write_records(path: pathlib.Path, payload: dict) -> None:
    """Write ``payload`` as JSON with one grid record per line."""
    head = json.dumps({k: v for k, v in payload.items() if k != "records"})
    rows = ",\n  ".join(json.dumps(r) for r in payload["records"])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        head[:-1] + ', "records": [\n  ' + rows + "\n]}\n", encoding="utf-8"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--searcher", default="surf",
                        choices=("surf", "random"))
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the grid records as JSON to PATH")
    args = parser.parse_args(argv)
    records = run_grid(args.searcher)
    payload = {
        "searcher": args.searcher,
        "pool": POOL, "nmax": NMAX, "batch": BATCH, "within": WITHIN,
        "records": records,
    }
    print(
        f"{args.searcher}: {len(records)} runs, "
        f"geomean regret {geomean_regret(records):.4f}, "
        f"median evals-to-5% {median_evals(records)}"
    )
    if args.json:
        write_records(pathlib.Path(args.json), payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
