"""Run provenance: the ``manifest.json`` written next to traces/checkpoints.

A :class:`RunManifest` captures everything needed to attribute and replay
a tuning run — package version, workload name, architecture and
calibration fingerprints (stable hashes over their dataclass fields), a
DSL hash over the tuned TCR programs, the searcher and master seed, and
the ``keyed`` settings of :class:`~repro.autotune.settings.TuneSettings`
(which form the result-store key).  Kernel Tuner persists the same kind of
header atop its cache files; here it is a standalone JSON document so
checkpoints and traces stay self-describing.

Determinism contract: a manifest contains **no wall-clock fields** — two
runs with identical settings produce byte-identical ``manifest.json``, so
manifests can be diffed (and checked in) like any other fingerprint.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

from repro.errors import ReproError
from repro.util.jsonl import replace_atomically
from repro.util.rng import stable_hash

__all__ = ["RunManifest", "MANIFEST_FORMAT", "MANIFEST_FILENAME", "fingerprint_of"]

#: Bump on any incompatible change to the manifest layout.
MANIFEST_FORMAT = 1

MANIFEST_FILENAME = "manifest.json"


def fingerprint_of(obj: object) -> str:
    """Stable hex fingerprint of a (frozen) dataclass's field values."""
    if is_dataclass(obj) and not isinstance(obj, type):
        payload = {f.name: getattr(obj, f.name) for f in fields(obj)}
    else:
        payload = obj
    return format(stable_hash(type(obj).__name__, payload), "016x")


@dataclass(frozen=True)
class RunManifest:
    """Provenance header of one autotuning run (no wall-clock fields)."""

    name: str
    package_version: str
    arch: str
    arch_fingerprint: str
    calibration_fingerprint: str
    dsl_fingerprint: str
    seed: int
    searcher: str
    settings: dict = field(default_factory=dict)
    format: int = MANIFEST_FORMAT

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n"

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        replace_atomically(path, self.to_json())
        return path

    @classmethod
    def load(cls, path: str | Path) -> "RunManifest":
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ReproError(f"cannot read run manifest {path}: {exc}") from None
        if not isinstance(payload, dict) or payload.get("format") != MANIFEST_FORMAT:
            raise ReproError(
                f"unsupported manifest format in {path} "
                f"(got {payload.get('format')!r}, want {MANIFEST_FORMAT})"
            )
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in known})
