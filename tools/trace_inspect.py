#!/usr/bin/env python3
"""Summarize a Barracuda trace file (``--trace`` output or JSONL spans).

Usage::

    python tools/trace_inspect.py out.trace
    python tools/trace_inspect.py out.trace --top 10 --json summary.json

Accepts both exporter formats of :mod:`repro.obs.exporters`: a Chrome
trace-event file (``{"traceEvents": [...]}``) or span-per-line JSONL.
Prints per-category and per-span-name time breakdowns — self time (a
span's duration minus its direct children's) beside inclusive time (a
span nested in another of the same category or name is not counted
twice) — the longest individual spans, and the aggregated search/eval
counters carried as span attributes (the same numbers
``SearchTelemetry`` reports — the trace is the unified carrier).  Exits
1 on an unreadable or structurally invalid file, 0 otherwise.  When a
``manifest.json`` sits next to the trace, its provenance header is
printed too.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import defaultdict
from pathlib import Path

#: Monotone counter attributes summed over search.batch events (the
#: authoritative per-batch records) for the "counter totals" section.
COUNTER_KEYS = (
    "evaluations",
    "invalid",
    "transient",
    "permanent",
    "retries",
)


def load_records(path: Path) -> list[dict]:
    """Load trace records as dicts with name/cat/ph/dur_us/args keys."""
    text = path.read_text(encoding="utf-8")
    stripped = text.lstrip()
    records: list[dict] = []
    if stripped.startswith("{"):
        payload = json.loads(text)
        events = payload.get("traceEvents")
        if not isinstance(events, list):
            raise ValueError("not a Chrome trace: no traceEvents array")
        for event in events:
            args = event.get("args", {})
            records.append(
                {
                    "name": event.get("name", "?"),
                    "cat": event.get("cat", "misc"),
                    "ph": event.get("ph", "X"),
                    "dur_us": float(event.get("dur", 0.0)),
                    "args": args,
                    "id": args.get("span_id"),
                    "parent": args.get("parent_id"),
                }
            )
    else:
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            span = json.loads(line)
            duration = span.get("duration_s")
            records.append(
                {
                    "name": span.get("name", "?"),
                    "cat": span.get("category") or "misc",
                    "ph": "i" if duration is None else "X",
                    "dur_us": 0.0 if duration is None else float(duration) * 1e6,
                    "args": span.get("attributes", {}),
                    "id": span.get("span_id"),
                    "parent": span.get("parent_id"),
                }
            )
    if not records:
        raise ValueError("trace contains no spans")
    return records


def summarize(records: list[dict], top: int = 5) -> dict:
    """Build the summary dict the CLI prints (and can dump as JSON)."""
    spans = [r for r in records if r["ph"] == "X"]
    events = [r for r in records if r["ph"] != "X"]
    by_id = {r["id"]: r for r in spans if r["id"] is not None}
    children_us: dict[int, float] = defaultdict(float)
    for r in spans:
        if r["parent"] in by_id:
            children_us[r["parent"]] += r["dur_us"]

    def ancestors(r: dict):
        seen = set()
        while r["parent"] in by_id and r["parent"] not in seen:
            seen.add(r["parent"])
            r = by_id[r["parent"]]
            yield r

    by_category: dict[str, dict[str, float]] = defaultdict(
        lambda: {"count": 0, "self_us": 0.0, "inclusive_us": 0.0}
    )
    by_name: dict[str, dict[str, float]] = defaultdict(
        lambda: {"count": 0, "self_us": 0.0, "inclusive_us": 0.0, "max_us": 0.0}
    )
    for r in spans:
        self_us = max(0.0, r["dur_us"] - children_us.get(r["id"], 0.0))
        lineage = list(ancestors(r))
        for key, table in (("cat", by_category), ("name", by_name)):
            agg = table[r[key]]
            agg["count"] += 1
            agg["self_us"] += self_us
            if all(a[key] != r[key] for a in lineage):
                agg["inclusive_us"] += r["dur_us"]
        name = by_name[r["name"]]
        name["max_us"] = max(name["max_us"], r["dur_us"])
    for r in events:
        by_name[r["name"]]["count"] += 1

    counters: dict[str, float] = {key: 0.0 for key in COUNTER_KEYS}
    batches = 0
    best = float("inf")
    wall = 0.0
    for r in records:
        if r["name"] != "search.batch":
            continue
        batches += 1
        args = r["args"]
        for key in COUNTER_KEYS:
            counters[key] += float(args.get(key, 0) or 0)
        if "best_so_far" in args:
            best = min(best, float(args["best_so_far"]))
        wall = max(wall, float(args.get("simulated_wall_seconds", 0.0) or 0.0))
    counters["batches"] = batches
    if batches:
        counters["best_objective"] = best
        counters["simulated_wall_seconds"] = wall

    top_spans = sorted(spans, key=lambda r: -r["dur_us"])[:top]
    return {
        "spans": len(spans),
        "events": len(events),
        "categories": {k: dict(v) for k, v in sorted(by_category.items())},
        "names": {k: dict(v) for k, v in sorted(by_name.items())},
        "counters": counters,
        "top_spans": [
            {"name": r["name"], "cat": r["cat"], "dur_us": r["dur_us"]}
            for r in top_spans
        ],
    }


def print_summary(summary: dict, path: Path) -> None:
    print(f"trace: {path}")
    print(f"  {summary['spans']} spans, {summary['events']} events")
    print("per-phase time (by category), self / inclusive:")
    for cat, agg in sorted(
        summary["categories"].items(), key=lambda kv: -kv[1]["self_us"]
    ):
        print(
            f"  {cat:<12} {agg['self_us'] / 1e3:10.2f} ms"
            f" {agg['inclusive_us'] / 1e3:10.2f} ms"
            f"  ({int(agg['count'])} spans)"
        )
    print("per-span-name time, self / inclusive:")
    for name, agg in sorted(
        summary["names"].items(), key=lambda kv: -kv[1]["self_us"]
    ):
        print(
            f"  {name:<20} {agg['self_us'] / 1e3:10.2f} ms"
            f" {agg['inclusive_us'] / 1e3:10.2f} ms"
            f"  ({int(agg['count'])} x, max {agg.get('max_us', 0.0) / 1e3:.2f} ms)"
        )
    print(f"top {len(summary['top_spans'])} spans by duration:")
    for r in summary["top_spans"]:
        print(f"  {r['dur_us'] / 1e3:10.2f} ms  {r['name']} [{r['cat']}]")
    counters = summary["counters"]
    if counters.get("batches"):
        print("counter totals (search.batch events):")
        print(f"  batches:    {int(counters['batches'])}")
        for key in COUNTER_KEYS:
            print(f"  {key + ':':<12}{int(counters[key])}")
        print(f"  best_objective: {counters['best_objective']:.6g}")
        print(
            "  simulated_wall_seconds: "
            f"{counters['simulated_wall_seconds']:.2f}"
        )


def print_manifest(trace_path: Path) -> None:
    manifest_path = trace_path.parent / "manifest.json"
    if not manifest_path.exists():
        return
    try:
        payload = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        print(f"manifest: {manifest_path} (unreadable)")
        return
    print(
        f"manifest: {payload.get('name')} on {payload.get('arch')} "
        f"(seed {payload.get('seed')}, searcher {payload.get('searcher')}, "
        f"package {payload.get('package_version')})"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", help="Chrome-trace JSON or JSONL span file")
    parser.add_argument(
        "--top", type=int, default=5, help="longest spans to list"
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also dump the summary as JSON ('-' for stdout)",
    )
    args = parser.parse_args(argv)
    path = Path(args.trace)
    try:
        records = load_records(path)
    except (OSError, ValueError) as exc:
        print(f"INVALID trace {path}: {exc}")
        return 1
    summary = summarize(records, top=args.top)
    print_summary(summary, path)
    print_manifest(path)
    if args.json:
        payload = json.dumps(summary, indent=2, sort_keys=True)
        if args.json == "-":
            print(payload)
        else:
            Path(args.json).write_text(payload + "\n", encoding="utf-8")
            print(f"summary written to {args.json}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `trace_inspect.py t | head`
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
