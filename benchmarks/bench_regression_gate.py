#!/usr/bin/env python3
"""Bench regression gate: fail CI when the timing-table build regresses.

Times the scalar model against one ``ProgramTimingTable.build`` over the
same kernel configurations (:func:`benchmarks.bench_timing_table.run_bench`,
which also checks every table entry bitwise) for each entry of the
committed ``BENCH_tables.json`` at the repo root — ``loopnest``, the
lg3t loop-nest space (1008 kernel configurations, 4 rounds), and
``ttgt``, the d16 TTGT space of :mod:`benchmarks.bench_ttgt_crossover`
(96, 21 rounds) — and gates each entry's scalar/table *speedup ratio*
against its own committed baseline.

Comparing ratios — not raw seconds — makes the gate robust to CI
machines of different speeds: both sides run on the same box, so a
genuine regression of the vectorized build shows up as a lower ratio
regardless of absolute clock speed.

CI usage (fails with exit 1 on a >20% speedup drop of any entry)::

    PYTHONPATH=src python benchmarks/bench_regression_gate.py \
        --json benchmarks/output/BENCH_tables.json

Refresh the committed baselines after an intentional perf change (every
entry, or only the named ones; each is measured ``UPDATE_RUNS`` times and
the median-ratio run is recorded)::

    PYTHONPATH=src python benchmarks/bench_regression_gate.py --update
    PYTHONPATH=src python benchmarks/bench_regression_gate.py --update loopnest
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

try:
    from benchmarks.bench_timing_table import lg3t_case
    from benchmarks.bench_timing_table import run_bench as run_table_bench
    from benchmarks.bench_ttgt_crossover import ttgt_case
except ImportError:  # run as a script from benchmarks/
    from bench_timing_table import lg3t_case
    from bench_timing_table import run_bench as run_table_bench
    from bench_ttgt_crossover import ttgt_case

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "BENCH_tables.json"
OUTPUT = pathlib.Path(__file__).parent / "output" / "BENCH_tables.json"
LABEL = "timing-table build"

#: Allowed fractional drop in speedup vs the baseline before failing.
TOLERANCE = 0.20

#: The (program, space) each ``tables`` entry times, by entry name.
TABLE_CASES = {"loopnest": lg3t_case, "ttgt": ttgt_case}

#: ``--update`` measures each named entry this many times (each run the
#: best of ``--repeats``) and records the median-ratio run: a single run's
#: ratio spreads too widely between processes to serve as a baseline.
UPDATE_RUNS = 5


def _best_of(measure, repeats: int) -> dict:
    """Best-of-N bench run (best ratio — least noise-polluted sample)."""
    best: dict | None = None
    for attempt in range(repeats):
        result = measure()
        result["attempt"] = attempt
        if best is None or result["speedup"] > best["speedup"]:
            best = result
    assert best is not None
    best["repeats"] = repeats
    return best


def _load_baseline(path: pathlib.Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SystemExit(f"FAIL: cannot read baseline {path}: {exc}")


def _check(result: dict, baseline_speedup: float, label: str, args) -> bool:
    """Gate one fresh measurement against its baseline ratio; annotate
    ``result`` with the floor and the verdict and print both."""
    floor = (1.0 - args.tolerance) * baseline_speedup
    result["baseline_speedup"] = baseline_speedup
    result["required_speedup"] = floor
    result["passed"] = result["speedup"] >= floor
    print(
        f"{label}: {result['speedup']:.1f}x "
        f"(baseline {baseline_speedup:.1f}x, floor {floor:.1f}x after "
        f"{args.tolerance:.0%} tolerance, best of {args.repeats})"
    )
    if not result["passed"]:
        print(
            f"FAIL: speedup {result['speedup']:.2f}x fell more than "
            f"{args.tolerance:.0%} below the {baseline_speedup:.2f}x "
            f"baseline — {label} regressed",
            file=sys.stderr,
        )
    return result["passed"]


def _write(path: pathlib.Path, record: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


def _measure(entry: dict, args) -> dict | None:
    """One best-of-N measurement of ``entry`` at its own pool size; None
    (after reporting) if a table entry diverges from the scalar model."""
    case = TABLE_CASES[entry["name"]]
    result = _best_of(
        lambda: run_table_bench(*case(), entry["configs"]), args.repeats
    )
    if not result["exact_match"]:
        print(
            f"FAIL: {entry['name']} table entries diverge from the scalar "
            f"model ({result['mismatches']} mismatches)",
            file=sys.stderr,
        )
        return None
    return {"name": entry["name"], **result, "tolerance": args.tolerance}


def _update(args, baseline_all: dict, baseline_path) -> int:
    """Re-record the named entries (all without a name), each as the
    median-ratio run of :data:`UPDATE_RUNS` measurements."""
    entries = baseline_all["entries"]
    names = set(args.update) or {entry["name"] for entry in entries}
    for i, entry in enumerate(entries):
        if entry["name"] not in names:
            continue
        runs = [_measure(entry, args) for _ in range(UPDATE_RUNS)]
        if None in runs:
            return 1
        median = sorted(runs, key=lambda run: run["speedup"])[len(runs) // 2]
        entries[i] = median
        print(
            f"{entry['name']}: "
            + " ".join(f"{run['speedup']:.1f}x" for run in runs)
            + f" over {UPDATE_RUNS} runs; recording the median "
            f"{median['speedup']:.1f}x on {median['configs']} configs"
        )
    _write(baseline_path, baseline_all)
    print(f"baseline updated: {baseline_path} {sorted(names)}")
    return 0


def _gate_tables(args, baseline_path, json_path) -> int:
    """One best-of-N measurement per committed entry, each at the entry's
    own pool size and against its own ratio."""
    baseline_all = _load_baseline(baseline_path)
    entries = baseline_all["entries"]
    unknown = set(args.update or ()) - {entry["name"] for entry in entries}
    if unknown:
        raise SystemExit(f"FAIL: no baseline entry named {sorted(unknown)}")
    if args.update is not None:
        return _update(args, baseline_all, baseline_path)
    results = [_measure(entry, args) for entry in entries]
    if None in results:
        return 1

    passed = [
        _check(
            result, float(entry["speedup"]),
            f"{LABEL} [{entry['name']}, {result['workload']}]", args,
        )
        for entry, result in zip(entries, results)
    ]
    _write(json_path, {
        "suite": "tables",
        "tolerance": args.tolerance,
        "repeats": args.repeats,
        "passed": all(passed),
        "entries": results,
    })
    return 0 if all(passed) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3,
                        help="bench repetitions; the best ratio is compared")
    parser.add_argument("--tolerance", type=float, default=TOLERANCE,
                        help="allowed fractional speedup drop vs baseline")
    parser.add_argument("--baseline", default=None,
                        help="committed baseline record to compare against")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the fresh measurement record to PATH")
    parser.add_argument("--update", nargs="*", default=None, metavar="NAME",
                        help="write the fresh measurement as the new baseline "
                        "of the named entries (all without a name) instead "
                        "of gating against the old one")
    args = parser.parse_args(argv)
    return _gate_tables(
        args,
        pathlib.Path(args.baseline or BASELINE),
        pathlib.Path(args.json or OUTPUT),
    )


if __name__ == "__main__":
    sys.exit(main())
