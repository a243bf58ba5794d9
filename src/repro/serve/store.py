"""Content-addressed result store: tuned champions and full histories.

The one memo a tune call keeps across runs: the store memoizes **whole
tuning runs** — the champion configuration, the full search history, and
the run's accounting — keyed on everything that determines the outcome
bitwise:

* the **DSL fingerprint** (hash over the tuned TCR program texts),
* the **architecture fingerprint** (hash over the GPU's dataclass fields),
* the **calibration fingerprint** (the model constants),
* the **searcher-settings fingerprint** (searcher kind, master seed,
  every result-relevant setting, and the search code's
  :data:`~repro.autotune.settings.SEARCH_REVISION`).

These are exactly the fields a :class:`~repro.obs.manifest.RunManifest`
records, so the provenance layer doubles as the cache key: two requests
with identical manifests would run bitwise-identical searches, which is
what makes serving the stored result safe.  Only the manifest settings
:class:`~repro.autotune.settings.TuneSettings` declares ``keyed`` enter
the key; a name an older manifest carries that is no longer declared is
ignored.  That keeps stored results reachable only when the retired
name never entered the key.  Retiring a keyed setting, or bumping the
revision, moves every digest, so nothing stored before is served.

On disk the store is a directory of **sharded append-only JSONL files**
(``shard-NNN.jsonl``, shard chosen by key digest), each starting with a
versioned header line.  All appends go through
:func:`repro.util.jsonl.atomic_append_jsonl` (one ``O_APPEND`` write under
an exclusive lock), so any number of concurrent writer processes is safe; duplicate keys
resolve **first-wins** on load, matching live ``put`` semantics, so every
reader agrees with every writer.  Corrupt lines are counted and warned
about, never fatal; a shard whose *header* is wrong (alien format
version, or a nonempty file with no header) raises
:class:`~repro.errors.StoreError` instead of merging garbage.

Eviction: the files are append-only, so space is reclaimed offline by
:meth:`ResultStore.compact` — rewrite each shard keeping the newest
``max_entries_per_shard`` unique keys (oldest evicted first).  Compaction
requires writer quiescence; it is a maintenance operation, not a hot-path
one.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.autotune.settings import KEYED_SETTINGS
from repro.errors import StoreError
from repro.obs.manifest import RunManifest
from repro.obs.tracer import get_tracer
from repro.surf.search import SearchResult
from repro.tcr.space import KernelConfig, ProgramConfig, TTGTConfig
from repro.util.jsonl import (
    atomic_append_jsonl,
    load_jsonl,
    replace_atomically,
    report_corrupt_lines,
)
from repro.util.rng import stable_hash

__all__ = [
    "STORE_FORMAT",
    "StoreKey",
    "ResultStore",
    "pack_config",
    "unpack_config",
    "pack_search",
    "unpack_search",
    "pack_tune_record",
]

#: Bump on any incompatible change to the shard layout or record schema.
STORE_FORMAT = 1

#: The header ``kind`` tag — refuses headers of unrelated JSONL files.
STORE_KIND = "repro-result-store"


# ----------------------------------------------------------------------
# Keys


@dataclass(frozen=True)
class StoreKey:
    """The content address of one tuning run (all hex fingerprints)."""

    dsl: str
    arch: str
    calibration: str
    searcher: str

    def digest(self) -> str:
        """The combined 64-bit hex digest used for sharding and lookup."""
        return format(
            stable_hash(
                "result-store-key",
                self.dsl,
                self.arch,
                self.calibration,
                self.searcher,
            ),
            "016x",
        )

    @classmethod
    def from_manifest(cls, manifest: RunManifest) -> "StoreKey":
        """Derive the key from a run's provenance manifest."""
        settings = {
            k: v for k, v in manifest.settings.items() if k in KEYED_SETTINGS
        }
        searcher_fp = format(
            stable_hash(
                "searcher-settings", manifest.searcher, manifest.seed, settings,
                manifest.search_revision,
            ),
            "016x",
        )
        return cls(
            dsl=manifest.dsl_fingerprint,
            arch=manifest.arch_fingerprint,
            calibration=manifest.calibration_fingerprint,
            searcher=searcher_fp,
        )


# ----------------------------------------------------------------------
# Record (de)serialization — bitwise round-trips


def _pack_kernel(k) -> dict:
    """JSON-able form of one per-kernel configuration.

    Loop-nest kernels keep the original schema (no ``kind`` tag) so
    every record written before the TTGT backend existed stays readable
    byte-for-byte; TTGT kernels are tagged ``"kind": "ttgt"``.
    """
    if isinstance(k, TTGTConfig):
        return {
            "kind": "ttgt",
            "m_order": list(k.m_order),
            "n_order": list(k.n_order),
            "k_order": list(k.k_order),
            "batch_order": list(k.batch_order),
            "batch_mode": k.batch_mode,
            "op_a": k.op_a,
            "op_b": k.op_b,
            "swap_ab": k.swap_ab,
            "trans_a": k.trans_a,
            "trans_b": k.trans_b,
            "trans_out": k.trans_out,
        }
    return {
        "tx": k.tx,
        "ty": k.ty,
        "bx": k.bx,
        "by": k.by,
        "serial_order": list(k.serial_order),
        "unroll": k.unroll,
    }


def _unpack_kernel(k: dict):
    """Inverse of :func:`_pack_kernel` (absent ``kind`` = loop-nest)."""
    if k.get("kind") == "ttgt":
        return TTGTConfig(
            m_order=tuple(k["m_order"]),
            n_order=tuple(k["n_order"]),
            k_order=tuple(k["k_order"]),
            batch_order=tuple(k["batch_order"]),
            batch_mode=str(k["batch_mode"]),
            op_a=str(k["op_a"]),
            op_b=str(k["op_b"]),
            swap_ab=bool(k["swap_ab"]),
            trans_a=bool(k["trans_a"]),
            trans_b=bool(k["trans_b"]),
            trans_out=bool(k["trans_out"]),
        )
    return KernelConfig(
        tx=k["tx"],
        ty=k["ty"],
        bx=k["bx"],
        by=k["by"],
        serial_order=tuple(k["serial_order"]),
        unroll=int(k["unroll"]),
    )


def pack_config(config: ProgramConfig) -> dict:
    """JSON-able form of a :class:`ProgramConfig` (exact round-trip)."""
    return {
        "variant_index": config.variant_index,
        "global_id": config.global_id,
        "kernels": [_pack_kernel(k) for k in config.kernels],
    }


def unpack_config(payload: dict) -> ProgramConfig:
    """Inverse of :func:`pack_config`."""
    return ProgramConfig(
        variant_index=int(payload["variant_index"]),
        kernels=tuple(_unpack_kernel(k) for k in payload["kernels"]),
        global_id=int(payload["global_id"]),
    )


def pack_search(result: SearchResult) -> dict:
    """JSON-able form of a search outcome: champion *and* full history.

    Objective values round-trip bitwise through JSON (repr-based floats;
    ``inf`` survives as ``Infinity``), so a served history is
    indistinguishable from the one the original run returned.
    """
    return {
        "searcher": result.searcher,
        "champion": pack_config(result.best_config),
        "best_objective": result.best_objective,
        "history": [[pack_config(c), y] for c, y in result.history],
        "evaluations": result.evaluations,
        "simulated_wall_seconds": result.simulated_wall_seconds,
    }


def unpack_search(payload: dict) -> SearchResult:
    """Inverse of :func:`pack_search` (telemetry is not persisted)."""
    return SearchResult(
        searcher=str(payload["searcher"]),
        best_config=unpack_config(payload["champion"]),
        best_objective=float(payload["best_objective"]),
        history=[
            (unpack_config(c), float(y)) for c, y in payload["history"]
        ],
        evaluations=int(payload["evaluations"]),
        simulated_wall_seconds=float(payload["simulated_wall_seconds"]),
    )


def pack_tune_record(result) -> dict:
    """Store record for a finished :class:`~repro.autotune.tuner.TuneResult`.

    Only search-side state is persisted: the winning program and its
    timing are cheap, deterministic recomputations from the champion
    config (no model *evaluations* in the search sense), so storing them
    would just be a second source of truth to keep consistent.
    """
    return {
        "name": result.name,
        "arch": result.arch.name,
        "search": pack_search(result.search),
        "space_size": result.space_size,
        "pool_size": result.pool_size,
        "variant_count": result.variant_count,
    }


# ----------------------------------------------------------------------
# The store


class ResultStore:
    """Sharded, content-addressed, many-writer-safe result store.

    Parameters
    ----------
    root:
        Store directory (created on first write).
    shards:
        Number of shard files keys are spread over.  Readers accept any
        sharding (lookup is by digest, not by file), so the count can be
        changed between runs without invalidating existing data.
    """

    def __init__(self, root: str | Path, shards: int = 16) -> None:
        if shards < 1:
            raise StoreError(f"shard count must be >= 1, got {shards}")
        self.root = Path(root)
        self.shards = shards
        self.corrupt_lines = 0
        self.duplicate_keys = 0
        self._lock = threading.Lock()
        #: digest -> (key dict, record) in first-seen order
        self._memory: dict[str, tuple[dict, dict]] = {}
        self._loaded_paths: set[Path] = set()
        if self.root.exists():
            self._load_all()

    # -- on-disk layout -------------------------------------------------
    def shard_path(self, digest: str) -> Path:
        index = int(digest[:8], 16) % self.shards
        return self.root / f"shard-{index:03d}.jsonl"

    def shard_paths(self) -> list[Path]:
        """Every existing shard file (any shard count's naming)."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("shard-*.jsonl"))

    @staticmethod
    def _header() -> dict:
        return {"kind": STORE_KIND, "format": STORE_FORMAT}

    def _ensure_shard(self, path: Path) -> None:
        """Create ``path`` with its header, atomically, exactly once.

        The header must be the first line even when several processes
        race to create the same shard: the file is populated in a tmp
        file and published with ``os.link`` (atomic fail-if-exists), so
        at the instant the shard becomes visible it already carries its
        header — a concurrent appender can never get a record in first.
        The tmp name is unique per thread, not just per process, so racing
        threads never unlink each other's file.
        """
        if path.exists():
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{path.name}.hdr.{os.getpid()}.{threading.get_ident()}"
        tmp.write_text(json.dumps(self._header()) + "\n", encoding="utf-8")
        try:
            os.link(tmp, path)
        except FileExistsError:
            pass
        finally:
            tmp.unlink()

    # -- loading --------------------------------------------------------
    def _load_all(self) -> None:
        for path in self.shard_paths():
            self._load_shard(path)

    def _load_shard(self, path: Path) -> None:
        entries, corrupt = load_jsonl(path)
        if entries:
            head = entries[0]
            if not (
                isinstance(head, dict)
                and head.get("kind") == STORE_KIND
            ):
                raise StoreError(
                    f"result-store shard {path} has no valid header — not a "
                    f"{STORE_KIND} file (or written before headers existed); "
                    "refusing to merge it"
                )
            if head.get("format") != STORE_FORMAT:
                raise StoreError(
                    f"unsupported result-store format in {path} "
                    f"(got {head.get('format')!r}, want {STORE_FORMAT})"
                )
        for entry in entries[1:]:
            if isinstance(entry, dict) and entry.get("kind") == STORE_KIND:
                continue  # stray duplicate header — harmless, skip
            try:
                digest = entry["digest"]
                key = entry["key"]
                record = entry["record"]
                if not isinstance(digest, str) or not isinstance(key, dict):
                    raise ValueError("malformed store entry")
                if not isinstance(record, dict):
                    raise ValueError("malformed store record")
            except (ValueError, KeyError, TypeError):
                corrupt += 1
                continue
            # First-wins, same rule as live ``put``.
            if digest in self._memory:
                self.duplicate_keys += 1
            else:
                self._memory[digest] = (key, record)
        self.corrupt_lines += corrupt
        self._loaded_paths.add(path)
        report_corrupt_lines(path, corrupt, "result")

    def refresh(self) -> None:
        """Re-read every shard, picking up other processes' appends.

        First-wins merging makes a full reload equivalent to an
        incremental one; entries this process already holds are kept.
        """
        with self._lock:
            for path in self.shard_paths():
                self._load_shard(path)

    # -- queries --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._memory)

    def __contains__(self, key: StoreKey) -> bool:
        return key.digest() in self._memory

    def get(self, key: StoreKey) -> dict | None:
        """The stored record for ``key`` (O(1)), or None on a miss."""
        with self._lock:
            hit = self._memory.get(key.digest())
        return hit[1] if hit is not None else None

    def put(self, key: StoreKey, record: dict) -> bool:
        """Record one result; idempotent (first write wins).

        Returns True when the record was stored, False when the key was
        already present (the existing record stays authoritative).
        """
        digest = key.digest()
        with self._lock:
            if digest in self._memory:
                return False
            self._memory[digest] = (asdict(key), record)
        path = self.shard_path(digest)
        self._ensure_shard(path)
        atomic_append_jsonl(
            path, {"digest": digest, "key": asdict(key), "record": record}
        )
        if get_tracer().enabled:
            get_tracer().event(
                "store.put", category="store", digest=digest,
                workload=record.get("name"),
            )
        return True

    def entries(self) -> list[tuple[dict, dict]]:
        """All ``(key dict, record)`` pairs in first-seen order (a copy)."""
        with self._lock:
            return list(self._memory.values())

    def stats(self) -> dict:
        """Aggregate health/occupancy counters for tooling."""
        with self._lock:
            per_shard: dict[str, int] = {}
            for digest in self._memory:
                per_shard.setdefault(self.shard_path(digest).name, 0)
                per_shard[self.shard_path(digest).name] += 1
            return {
                "entries": len(self._memory),
                "shard_files": len(self.shard_paths()),
                "corrupt_lines": self.corrupt_lines,
                "duplicate_keys": self.duplicate_keys,
                "per_shard": dict(sorted(per_shard.items())),
            }

    # -- eviction -------------------------------------------------------
    def compact(self, max_entries_per_shard: int | None = None) -> dict:
        """Rewrite shards: drop duplicate keys, evict oldest beyond cap.

        Keeps, per shard, the **newest** ``max_entries_per_shard`` unique
        keys by append order (``None`` = no cap, duplicates only).  Each
        shard is rewritten atomically (:func:`replace_atomically`), but
        compaction as a whole requires writer quiescence: a concurrent
        ``put`` between read and replace would be lost.  Run it from
        maintenance tooling, not the serving path.
        """
        kept = 0
        evicted = 0
        deduped = 0
        for path in self.shard_paths():
            entries, _corrupt = load_jsonl(path)
            records: dict[str, dict] = {}
            for entry in entries[1:] if entries else []:
                if not isinstance(entry, dict):
                    continue
                if entry.get("kind") == STORE_KIND:
                    continue
                digest = entry.get("digest")
                if not isinstance(digest, str):
                    continue
                if digest in records:
                    deduped += 1
                    continue  # first-wins: later lines are shadowed
                records[digest] = entry
            keep = list(records.values())
            if max_entries_per_shard is not None and len(keep) > max_entries_per_shard:
                evicted += len(keep) - max_entries_per_shard
                keep = keep[len(keep) - max_entries_per_shard:]
            kept += len(keep)
            replace_atomically(
                path, "".join(json.dumps(e) + "\n" for e in [self._header(), *keep])
            )
        # Rebuild memory to match the compacted disk state.
        with self._lock:
            self._memory.clear()
            self.corrupt_lines = 0
            self.duplicate_keys = 0
            self._loaded_paths.clear()
            self._load_all()
        return {"kept": kept, "evicted": evicted, "deduplicated": deduped}
