"""Inspect and validate an autotuner checkpoint directory.

Usage:
    python tools/checkpoint_inspect.py DIR [--prune]

Prints the run fingerprint, the search revision, searcher progress and
telemetry totals for ``DIR`` (recursing into per-variant ``v*/``
subdirectories), and validates the state file's structure.  A state
written under another search revision is reported INVALID: resume would
refuse it.  ``--prune`` removes stale ``.state.json.tmp.*`` files left
behind by killed writers.

Exit status: 0 when every state file found is valid, 1 otherwise.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.autotune.settings import SEARCH_REVISION  # noqa: E402
from repro.errors import CheckpointError  # noqa: E402
from repro.surf.checkpoint import CheckpointManager, STATE_FILENAME  # noqa: E402


def _describe_state(payload: dict) -> list[str]:
    lines = []
    fingerprint = payload.get("fingerprint", {})
    if fingerprint:
        lines.append("fingerprint:")
        for key in sorted(fingerprint):
            lines.append(f"  {key} = {fingerprint[key]}")
    state = payload.get("searcher") or {}
    lines.append(f"searcher: {state.get('searcher', '?')}")
    history = state.get("history")
    if history is not None:
        finite = sum(1 for _i, y in history if y == y and y != float("inf"))
        lines.append(f"history: {len(history)} entries ({finite} finite)")
    for key in ("queue", "fits"):
        if key in state:
            value = state[key]
            if isinstance(value, list):
                value = f"{len(value)} entries"
            lines.append(f"{key}: {value}")
    telemetry = state.get("telemetry") or {}
    records = telemetry.get("records", [])
    if records:
        lines.append(f"telemetry: {len(records)} batch records")
    counters = payload.get("extra", {}).get("evaluator_counters", {})
    if counters:
        interesting = {
            key: value
            for key, value in sorted(counters.items())
            if isinstance(value, (int, float)) and value
        }
        lines.append(f"evaluator counters: {interesting}")
    return lines


def inspect_dir(directory: Path, prune: bool, indent: str = "") -> bool:
    """Print one checkpoint directory; returns False on a corrupt state."""
    ok = True
    manager = CheckpointManager(directory)
    if prune:
        for stale in manager.prune_tmp():
            print(f"{indent}pruned stale tmp: {stale.name}")
    state_path = directory / STATE_FILENAME
    if state_path.exists():
        try:
            payload = manager.load()
        except CheckpointError as exc:
            print(f"{indent}INVALID {state_path}: {exc}")
            ok = False
        else:
            for line in _describe_state(payload or {}):
                print(f"{indent}{line}")
            revision = (payload or {}).get("fingerprint", {}).get("search_revision")
            print(f"{indent}search_revision: {revision}")
            if revision != SEARCH_REVISION:
                print(
                    f"{indent}INVALID {state_path}: written under search "
                    f"revision {revision}, this code is revision "
                    f"{SEARCH_REVISION}; resume would refuse it"
                )
                ok = False
    else:
        print(f"{indent}no {STATE_FILENAME}")
    for sub in sorted(directory.glob("v*")):
        if sub.is_dir() and (sub / STATE_FILENAME).exists():
            print(f"{indent}variant directory {sub.name}/:")
            ok = inspect_dir(sub, prune, indent + "  ") and ok
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("directory", type=Path, help="checkpoint directory")
    parser.add_argument(
        "--prune", action="store_true",
        help="remove stale .state.json.tmp.* files from killed writers",
    )
    args = parser.parse_args(argv)
    if not args.directory.is_dir():
        print(f"error: {args.directory} is not a directory", file=sys.stderr)
        return 1
    print(f"checkpoint directory {args.directory}:")
    return 0 if inspect_dir(args.directory, args.prune) else 1


if __name__ == "__main__":
    raise SystemExit(main())
