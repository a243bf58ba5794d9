"""Component bench: throughput of the array-native SURF search core.

Not a paper table — this times the SURF core (id pools, space-fed design
matrices, the level-wise forest fit, the coded pool router, mask-based
bookkeeping) stage by stage and end to end, in one process.

Stages measured on one pool:

``encode`` / ``matrix``
    Pool ids -> rank codes, by the driver's path (:meth:`SpacePool.codes`:
    vectorized id decode + ``transform_codes``, no float matrix).  With
    ``--min-encode-speedup`` it races the reference path
    (:meth:`SpacePool.design_matrix` + ``pool_codes``), best of
    ``PREDICTOR_REPEATS`` each: they must agree bitwise, and the flag
    gates their same-machine ratio.
``fit``
    Surrogate refit on a full history: ``nmax`` pool rows rebuilt from
    the codes (as the driver's refits do) with their K20
    performance-model times, like a late SURF refit.
``predict`` / ``select``
    One search-loop iteration over the whole remaining pool: score it,
    take the best batch, update the bookkeeping.  This is the loop body
    that dominates large-pool runs.
``partition`` / ``table``
    Only with ``--min-partition-speedup``: the same predict pass by each
    of the router's two predictors, called directly (best of
    ``PREDICTOR_REPEATS``): the row-set partition and the next-state
    table descent.  They must agree bitwise, and the flag gates their
    same-machine ratio.
``end_to_end``
    A whole SURF run (``nmax`` evaluations in batches of ``bs``) with a
    cheap deterministic evaluator.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_search_throughput.py \
        --pool-sizes 10000,100000 --json output.json

The end-to-end run is traced, and the per-phase wall breakdown (encode,
every refit, every full-pool predict pass, batch
materialization, evaluation, selection, history bookkeeping) lands in the
JSON record — so the gap between the sum of the stage microbenches and
the end-to-end wall is attributed, not guessed at.
``--max-end-to-end-seconds`` gates that wall.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

from repro.core.pipeline import compile_contraction
from repro.dsl.parser import parse_contraction
from repro.gpusim.arch import K20
from repro.gpusim.perfmodel import GPUPerformanceModel
from repro.obs.tracer import Tracer, use_tracer
from repro.surf import ConfigurationEvaluator
from repro.surf.binarize import FeatureBinarizer
from repro.surf.forest import ExtraTreesRegressor, pool_codes
from repro.surf.pool import SpacePool
from repro.surf.search import SURFSearch, _bottom_k_lex, clamp_targets
from repro.tcr.decision import decide_search_space
from repro.tcr.space import TuningSpace
from repro.util.rng import spawn_rng, stable_hash

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"

#: Timings per encode path and per predictor in the stages that race two
#: paths (best kept).
PREDICTOR_REPEATS = 3

#: A contraction whose tuning space exceeds 10^7 points, so every bench
#: pool is a genuine subsample.
BENCH_CONTRACTION = """
dim i j k l m n o p = 4
W[i j k o] = Sum([l m n p], A[l k p] * B[m j] * C[n i] * U[l m n o])
"""

_SPACE: TuningSpace | None = None


def bench_space() -> TuningSpace:
    global _SPACE
    if _SPACE is None:
        contraction = parse_contraction(BENCH_CONTRACTION, name="bench4d")
        variant = compile_contraction(contraction).minimal_flop_variants()[0]
        _SPACE = TuningSpace([decide_search_space(variant.program)])
    return _SPACE


def synthetic_evaluate(batch) -> list[float]:
    """Deterministic, order-independent stand-in objective (hash of the
    configuration identity) — the bench times the search core, not the
    performance model."""
    return [
        1e-4 + (stable_hash("bench-y", c.describe()) % 2**32) / 2**32 * 1e-2
        for c in batch
    ]


def _phase_breakdown(spans, wall_seconds: float) -> dict:
    """Aggregate the driver's ``search.*`` spans into per-phase totals.

    ``unattributed_seconds`` is what the spans do not explain — the
    honest remainder, recorded instead of hidden.
    """
    phases: dict[str, dict] = {}
    for span in spans:
        if span.duration_s is None or not span.name.startswith("search."):
            continue
        rec = phases.setdefault(span.name, {"seconds": 0.0, "count": 0})
        rec["seconds"] += span.duration_s
        rec["count"] += 1
    attributed = sum(rec["seconds"] for rec in phases.values())
    return {
        "phases": phases,
        "attributed_seconds": attributed,
        "unattributed_seconds": max(0.0, wall_seconds - attributed),
    }


def run_bench(
    pool_size: int,
    seed: int = 1,
    nmax: int = 200,
    batch_size: int = 10,
    end_to_end: bool = True,
    race_encode: bool = True,
    race_predictors: bool = True,
) -> dict:
    """Time every search-core stage at one pool size; ``race_encode`` and
    ``race_predictors`` also race the reference encode and the two router
    predictors (the stages the speedup gates need)."""
    space = bench_space()
    if pool_size > space.size():
        raise ValueError(f"pool_size {pool_size} exceeds space {space.size()}")
    ids = space.sample_ids(pool_size, spawn_rng(seed, "bench-search-pool"))
    pool = SpacePool(space, ids)
    n = len(pool)
    result: dict = {"configs": n, "space": space.size(), "nmax": nmax,
                    "batch_size": batch_size}

    # --- encode: direct codes (against matrix + rank coding) ---------
    codes, result["encode_seconds"] = _best_of(
        lambda: pool.codes(FeatureBinarizer()),
        PREDICTOR_REPEATS if race_encode else 1,
    )
    if race_encode:
        reference, result["matrix_seconds"] = _best_of(
            lambda: pool_codes(pool.design_matrix(FeatureBinarizer()))
        )
        result["encode_matches_matrix"] = _same_codes(codes, reference)
        result["encode_speedup"] = (
            result["matrix_seconds"] / result["encode_seconds"]
        )

    # --- fit (full history of nmax observations) ---------------------
    hist_rng = spawn_rng(seed, "bench-history")
    hist_ids = np.sort(hist_rng.choice(n, size=min(nmax, n), replace=False))
    evaluator = ConfigurationEvaluator(
        [ps.program for ps in space.program_spaces], GPUPerformanceModel(K20)
    )
    y = np.log(clamp_targets(
        np.asarray(evaluator.evaluate_batch(pool.configs(hist_ids)))
    ))
    forest = ExtraTreesRegressor(n_estimators=30, seed=seed)
    t0 = time.perf_counter()
    forest.fit(codes.rows(hist_ids), y)
    result["fit_seconds"] = time.perf_counter() - t0

    # --- predict over the remaining pool -----------------------------
    alive = np.ones(n, dtype=bool)
    alive[hist_ids] = False
    alive_ids = np.flatnonzero(alive)
    t0 = time.perf_counter()
    router = forest.make_router(codes)
    preds = router.predict(alive_ids)
    result["predict_seconds"] = time.perf_counter() - t0

    # --- partition against table descent, same router and rows -------
    if race_predictors:
        for name, predictor in (("table", router.descend),
                                ("partition", router.partition)):
            out, result[f"{name}_seconds"] = _best_of(
                lambda: predictor(alive_ids)
            )
            result[f"{name}_matches_predict"] = bool(np.array_equal(out, preds))
        result["partition_speedup"] = (
            result["table_seconds"] / result["partition_seconds"]
        )

    # --- select + bookkeeping (one loop iteration) -------------------
    perm = spawn_rng(seed, "bench-select").permutation(alive_ids.size)
    t0 = time.perf_counter()
    sel = _bottom_k_lex(preds, perm, batch_size)
    batch_ids = alive_ids[sel]
    alive[batch_ids] = False
    result["select_seconds"] = time.perf_counter() - t0
    alive[batch_ids] = True

    result["predict_select_configs_per_sec"] = alive_ids.size / (
        result["predict_seconds"] + result["select_seconds"]
    )

    # --- end-to-end run ----------------------------------------------
    if end_to_end:
        result = _bench_end_to_end(result, pool, nmax, batch_size, seed)
    return result


def _best_of(fn, repeats: int = PREDICTOR_REPEATS):
    """``fn()``'s result and its best wall time over ``repeats`` calls."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def _same_codes(a, b) -> bool:
    """Two :class:`PoolCodes` (or Nones) hold the same bits."""
    if a is None or b is None:
        return a is None and b is None
    return (
        a.codes.shape == b.codes.shape
        and a.codes.tobytes() == b.codes.tobytes()
        and len(a.columns) == len(b.columns)
        and all(x.tobytes() == y.tobytes() for x, y in zip(a.columns, b.columns))
    )


def _bench_end_to_end(
    result: dict, pool: SpacePool, nmax: int, batch_size: int, seed: int
) -> dict:
    """One traced full SURF run; phase breakdown + history digest into
    ``result``, which is returned."""
    surf_kwargs = dict(
        batch_size=batch_size, max_evaluations=min(nmax, len(pool)), seed=seed
    )
    tracer = Tracer()
    t0 = time.perf_counter()
    with use_tracer(tracer):
        run = SURFSearch(**surf_kwargs).search(pool, synthetic_evaluate)
    wall = time.perf_counter() - t0
    result["end_to_end_seconds"] = wall
    result["end_to_end_breakdown"] = _phase_breakdown(tracer.finished(), wall)
    ys = [y for _c, y in run.history]
    result["end_best_objective"] = run.best_objective
    # Champion + full history in one digest: two runs with equal digests
    # walked the identical course.
    result["history_digest"] = format(
        stable_hash("bench-run", run.best_objective, ys), "016x"
    )
    return result


def _fmt(result: dict) -> str:
    lines = [f"pool {result['configs']} (space {result['space']}):"]
    for stage in ("encode", "matrix", "fit", "predict", "select", "table",
                  "partition"):
        if f"{stage}_seconds" not in result:
            continue
        lines.append(f"  {stage:8s} {result[f'{stage}_seconds'] * 1e3:9.1f} ms")
    if "encode_speedup" in result:
        same = result["encode_matches_matrix"]
        lines.append(
            f"  encode vs matrix: {result['encode_speedup']:.2f}x "
            f"[{'bitwise' if same else 'DIVERGED'}]"
        )
    if "partition_speedup" in result:
        same = result["partition_matches_predict"] and result[
            "table_matches_predict"
        ]
        lines.append(
            f"  partition vs table: {result['partition_speedup']:.2f}x "
            f"[{'bitwise' if same else 'DIVERGED'}]"
        )
    if "end_to_end_seconds" in result:
        lines.append(
            f"  full run {result['end_to_end_seconds'] * 1e3:9.1f} ms"
        )
        breakdown = result.get("end_to_end_breakdown")
        if breakdown:
            for name, rec in sorted(
                breakdown["phases"].items(),
                key=lambda kv: -kv[1]["seconds"],
            ):
                lines.append(
                    f"    {name:20s} {rec['seconds'] * 1e3:9.1f} ms"
                    f"  x{rec['count']}"
                )
            lines.append(
                f"    {'(unattributed)':20s} "
                f"{breakdown['unattributed_seconds'] * 1e3:9.1f} ms"
            )
    if "predict_select_configs_per_sec" in result:
        tput = result["predict_select_configs_per_sec"]
        lines.append(f"  predict+select throughput {tput:,.0f} configs/s")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pool-sizes", default="10000,100000",
                        help="comma-separated pool sizes to measure")
    parser.add_argument("--nmax", type=int, default=200)
    parser.add_argument("--batch-size", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--no-end-to-end", action="store_true",
                        help="stage timings only (skip the full SURF runs)")
    parser.add_argument("--max-end-to-end-seconds", type=float, default=None,
                        help="fail (exit 1) if an end-to-end run exceeds "
                        "this wall time")
    parser.add_argument("--min-partition-speedup", type=float, default=None,
                        help="race the partition predictor against the "
                        "table descent on a pool's predict pass; fail (exit "
                        "1) if they differ or the partition is less than "
                        "this many times faster")
    parser.add_argument("--min-encode-speedup", type=float, default=None,
                        help="race the direct encode against the design "
                        "matrix plus rank coding on a pool; fail (exit 1) "
                        "if they differ or the direct encode is less than "
                        "this many times faster")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the result records as JSON to PATH")
    args = parser.parse_args(argv)

    records = []
    for size in (int(s) for s in args.pool_sizes.split(",")):
        record = run_bench(
            size, seed=args.seed, nmax=args.nmax, batch_size=args.batch_size,
            end_to_end=not args.no_end_to_end,
            race_encode=args.min_encode_speedup is not None,
            race_predictors=args.min_partition_speedup is not None,
        )
        records.append(record)
        print(_fmt(record))

    payload = {"suite": "search_throughput", "records": records}
    if args.json:
        path = pathlib.Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    for record in records:
        if "encode_speedup" not in record:
            continue
        if not record["encode_matches_matrix"]:
            print(
                f"FAIL: direct codes and matrix codes diverged at pool "
                f"{record['configs']}",
                file=sys.stderr,
            )
            return 1
        if (args.min_encode_speedup is not None
                and record["encode_speedup"] < args.min_encode_speedup):
            print(
                f"FAIL: direct encode only {record['encode_speedup']:.2f}x "
                f"the design matrix plus rank coding at pool "
                f"{record['configs']} (target {args.min_encode_speedup:.1f}x)",
                file=sys.stderr,
            )
            return 1
    for record in records:
        if "partition_speedup" not in record:
            continue
        if not (record["partition_matches_predict"]
                and record["table_matches_predict"]):
            print(
                f"FAIL: partition and table predictors diverged at pool "
                f"{record['configs']}",
                file=sys.stderr,
            )
            return 1
        if (args.min_partition_speedup is not None
                and record["partition_speedup"] < args.min_partition_speedup):
            print(
                f"FAIL: partition predictor only "
                f"{record['partition_speedup']:.2f}x the table descent at "
                f"pool {record['configs']} (target "
                f"{args.min_partition_speedup:.1f}x)",
                file=sys.stderr,
            )
            return 1
    if args.max_end_to_end_seconds is not None:
        over = [r for r in records
                if r.get("end_to_end_seconds", 0.0)
                > args.max_end_to_end_seconds]
        if over:
            print(
                f"FAIL: end-to-end run at pool {over[0]['configs']} took "
                f"{over[0]['end_to_end_seconds']:.1f}s "
                f"(target {args.max_end_to_end_seconds:.1f}s)",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
