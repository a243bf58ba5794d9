"""Filesystem lease spool: the coordination substrate of elastic search.

The elastic evaluator (:mod:`repro.surf.elastic`) splits every SURF batch
into **leases** — small contiguous slices of the batch, identified by
``(batch_index, ordinal)`` — and publishes them to a spool directory that
any number of worker processes watch.  The spool is plain files with the
same crash-safe primitives the rest of the system already relies on:

* **Publish** — a lease is a JSON file written tmp + ``os.replace``
  (readers see a whole lease or none).  It carries its configurations
  (via :func:`repro.serve.store.pack_config`), a content digest over
  them, and the digest of the evaluator snapshot it must be scored with.
* **Claim** — exclusive, via tmp + ``os.link`` (fail-if-exists, the same
  pattern the result store uses to publish shard headers).  Exactly one
  claimer wins; everyone else moves on.  A claim carries a deadline;
  the coordinator **reclaims** (unlinks) claims whose deadline passed —
  the holding worker is presumed dead, and the lease becomes claimable
  again.
* **Result** — tmp + ``os.replace``, recording the lease digest and the
  evaluator digest it was computed under.  The coordinator accepts a
  result only when both match, so results left behind by a previous
  coordinator incarnation (or an alien run sharing the directory) can
  never be merged into the wrong batch.  Duplicate completions — a
  reclaimed lease finishing twice — are harmless by construction:
  ``evaluate_one`` is pure, so both writers produce identical payloads
  and ``os.replace`` keeps the file atomic throughout.
* **Heartbeat** — one JSON file per worker, rewritten atomically; a
  worker is *live* while its last beat is younger than the lease TTL.
  The coordinator uses liveness only as a scheduling hint (when nobody
  is alive it evaluates leases inline), never for correctness.

A coordinator (re)initializing a spool bumps the ``generation`` in
``meta.json``, clears all leases, claims, and the shutdown marker, and
republishes its evaluator snapshot.  Stale *results* are kept: if a
resumed run republishes a lease with the same id, digest, and evaluator
digest — which it does, because resume replays the interrupted batch
bitwise — the work the killed run already paid for is reused.
"""

from __future__ import annotations

import json
import os
import pickle
import time
from dataclasses import dataclass, field
from hashlib import blake2b
from pathlib import Path

from repro.errors import SpoolError
from repro.surf.evaluator import EvalOutcome
from repro.tcr.space import ProgramConfig
from repro.util.rng import stable_hash

__all__ = [
    "SPOOL_FORMAT",
    "SPOOL_KIND",
    "Lease",
    "LeaseSpool",
    "lease_id_for",
    "pack_outcome",
    "unpack_outcome",
]

#: Bump on any incompatible change to the spool layout or file schemas.
SPOOL_FORMAT = 1

#: The ``meta.json`` ``kind`` tag — refuses directories of unrelated runs.
SPOOL_KIND = "repro-elastic-spool"

_META = "meta.json"
_EVALUATOR = "evaluator.pkl"
_SHUTDOWN = "shutdown"


def lease_id_for(batch_index: int, ordinal: int) -> str:
    """Canonical lease file stem: sorts by (batch, ordinal) lexically."""
    return f"b{batch_index:06d}-o{ordinal:04d}"


def pack_outcome(outcome: EvalOutcome) -> dict:
    """JSON-able form of an :class:`EvalOutcome` (bitwise round-trip).

    Floats survive JSON bitwise (repr-based encoding; ``inf`` as
    ``Infinity``), same as the result store's search records.
    """
    from repro.serve.store import pack_config

    return {
        "config": pack_config(outcome.config),
        "value": outcome.value,
        "wall": outcome.wall,
        "cached": outcome.cached,
        "status": outcome.status,
        "detail": outcome.detail,
        "attempts": outcome.attempts,
    }


def unpack_outcome(payload: dict) -> EvalOutcome:
    """Inverse of :func:`pack_outcome`."""
    from repro.serve.store import unpack_config

    return EvalOutcome(
        config=unpack_config(payload["config"]),
        value=float(payload["value"]),
        wall=float(payload["wall"]),
        cached=bool(payload["cached"]),
        status=str(payload["status"]),
        detail=str(payload["detail"]),
        attempts=int(payload["attempts"]),
    )


@dataclass
class Lease:
    """One published slice of a batch: what to evaluate, and its identity."""

    lease_id: str
    batch_index: int
    ordinal: int
    #: Index of this lease's first configuration within its batch.
    start: int
    configs: list[ProgramConfig]
    #: Content digest over (batch, ordinal, packed configs): a result is
    #: merged only when its recorded digest matches the published lease.
    digest: str
    #: Digest of the pickled evaluator snapshot this lease must be scored
    #: with — guards against results computed under a stale snapshot.
    evaluator_digest: str
    #: Coordinator-side bookkeeping (not persisted): publish wall-clock.
    published_at: float = field(default=0.0, compare=False)


def _atomic_write_json(path: Path, payload: dict) -> None:
    tmp = path.with_name(f".tmp-{path.name}.{os.getpid()}")
    with tmp.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload))
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def _read_json(path: Path) -> dict | None:
    """Load a JSON file, tolerating races (missing) and torn state (never
    produced by our atomic writers, but a shared directory is hostile)."""
    try:
        with path.open("r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


class LeaseSpool:
    """One spool directory, seen from either side of the protocol.

    The same object serves the coordinator (``init_coordinator``,
    ``publish``, ``read_result``, ``reclaim``, ``retire``) and workers
    (``list_claimable``, ``try_claim``, ``write_result``, ``heartbeat``);
    all cross-process state lives in the directory, never in memory.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.leases_dir = self.root / "leases"
        self.claims_dir = self.root / "claims"
        self.results_dir = self.root / "results"
        self.workers_dir = self.root / "workers"

    # -- meta / lifecycle ----------------------------------------------
    def meta(self) -> dict | None:
        """The spool's ``meta.json``, or None before a coordinator ran.

        Raises :class:`SpoolError` when the directory belongs to
        something else entirely (alien kind or format).
        """
        payload = _read_json(self.root / _META)
        if payload is None:
            return None
        if payload.get("kind") != SPOOL_KIND:
            raise SpoolError(
                f"{self.root / _META} is not an elastic spool "
                f"(kind={payload.get('kind')!r})"
            )
        if payload.get("format") != SPOOL_FORMAT:
            raise SpoolError(
                f"spool {self.root} has format {payload.get('format')!r}, "
                f"this build reads format {SPOOL_FORMAT}"
            )
        return payload

    def is_ready(self) -> bool:
        """True once a coordinator has initialized the spool."""
        return self.meta() is not None

    def init_coordinator(self, evaluator: object) -> str:
        """Take ownership of the spool for a new run (or a resume).

        Clears every lease, claim, and the shutdown marker (results are
        kept — they are digest-validated on read, and a resumed run
        republishing the interrupted batch bitwise gets to reuse them),
        publishes the pickled evaluator snapshot, and bumps the
        generation.  Returns the evaluator digest.
        """
        prior = self.meta()
        for sub in (self.leases_dir, self.claims_dir, self.results_dir,
                    self.workers_dir):
            sub.mkdir(parents=True, exist_ok=True)
        for sub in (self.leases_dir, self.claims_dir):
            for path in sub.iterdir():
                _unlink_quietly(path)
        _unlink_quietly(self.root / _SHUTDOWN)
        blob = pickle.dumps(evaluator)
        digest = blake2b(blob, digest_size=8).hexdigest()
        tmp = self.root / f".tmp-{_EVALUATOR}.{os.getpid()}"
        with tmp.open("wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.root / _EVALUATOR)
        _atomic_write_json(
            self.root / _META,
            {
                "kind": SPOOL_KIND,
                "format": SPOOL_FORMAT,
                "generation": int(prior.get("generation", 0)) + 1 if prior else 1,
                "coordinator_pid": os.getpid(),
                "evaluator_digest": digest,
            },
        )
        return digest

    def load_evaluator(self) -> tuple[object, str]:
        """Worker side: unpickle the current evaluator snapshot + digest."""
        try:
            blob = (self.root / _EVALUATOR).read_bytes()
        except OSError as exc:
            raise SpoolError(f"spool {self.root} has no evaluator snapshot: {exc}")
        return pickle.loads(blob), blake2b(blob, digest_size=8).hexdigest()

    def request_shutdown(self) -> None:
        """Tell every watching worker to exit once it finishes its lease."""
        _atomic_write_json(self.root / _SHUTDOWN, {"at": time.time()})

    def shutdown_requested(self) -> bool:
        return (self.root / _SHUTDOWN).exists()

    # -- leases (coordinator) ------------------------------------------
    def publish(
        self,
        batch_index: int,
        ordinal: int,
        start: int,
        configs: list[ProgramConfig],
        evaluator_digest: str,
    ) -> Lease:
        """Publish one lease; atomically replaces any stale same-id file."""
        from repro.serve.store import pack_config

        packed = [pack_config(c) for c in configs]
        digest = format(
            stable_hash("lease", batch_index, ordinal, packed, evaluator_digest),
            "016x",
        )
        lease_id = lease_id_for(batch_index, ordinal)
        _atomic_write_json(
            self.leases_dir / f"{lease_id}.json",
            {
                "kind": "lease",
                "lease_id": lease_id,
                "batch_index": batch_index,
                "ordinal": ordinal,
                "start": start,
                "configs": packed,
                "digest": digest,
                "evaluator_digest": evaluator_digest,
            },
        )
        # A republished lease (coordinator resume) invalidates any claim a
        # previous incarnation's worker still holds on the same id.
        _unlink_quietly(self.claims_dir / f"{lease_id}.json")
        return Lease(
            lease_id=lease_id,
            batch_index=batch_index,
            ordinal=ordinal,
            start=start,
            configs=list(configs),
            digest=digest,
            evaluator_digest=evaluator_digest,
            published_at=time.time(),
        )

    def retire(self, lease: Lease) -> None:
        """Remove a merged lease's files, keeping the spool bounded."""
        for sub in (self.leases_dir, self.claims_dir, self.results_dir):
            _unlink_quietly(sub / f"{lease.lease_id}.json")

    # -- leases (worker) -----------------------------------------------
    def list_claimable(self) -> list[str]:
        """Lease ids with no result and no claim, in (batch, ordinal) order.

        Only finished ``.json`` files count: the temporary file of a lease
        still being published is not a lease, and claiming it would let a
        worker hold a claim the coordinator never sees."""
        try:
            published = sorted(
                p.stem for p in self.leases_dir.iterdir() if p.suffix == ".json"
            )
        except OSError:
            return []
        out = []
        for lease_id in published:
            if (self.results_dir / f"{lease_id}.json").exists():
                continue
            if (self.claims_dir / f"{lease_id}.json").exists():
                continue
            out.append(lease_id)
        return out

    def load_lease(self, lease_id: str) -> Lease | None:
        """Read a published lease back (None when gone or torn)."""
        from repro.serve.store import unpack_config

        payload = _read_json(self.leases_dir / f"{lease_id}.json")
        if payload is None or payload.get("kind") != "lease":
            return None
        try:
            return Lease(
                lease_id=str(payload["lease_id"]),
                batch_index=int(payload["batch_index"]),
                ordinal=int(payload["ordinal"]),
                start=int(payload["start"]),
                configs=[unpack_config(c) for c in payload["configs"]],
                digest=str(payload["digest"]),
                evaluator_digest=str(payload["evaluator_digest"]),
            )
        except (KeyError, TypeError, ValueError):
            return None

    # -- claims ---------------------------------------------------------
    def try_claim(self, lease_id: str, worker: str, ttl: float) -> bool:
        """Atomically claim a lease; False when somebody else holds it."""
        now = time.time()
        tmp = self.claims_dir / f".tmp-{lease_id}.{os.getpid()}"
        _atomic_write_json(
            tmp,
            {
                "lease_id": lease_id,
                "worker": worker,
                "pid": os.getpid(),
                "claimed_at": now,
                "deadline": now + max(0.0, ttl),
            },
        )
        try:
            os.link(tmp, self.claims_dir / f"{lease_id}.json")
            return True
        except FileExistsError:
            return False
        except OSError:
            return False
        finally:
            _unlink_quietly(tmp)

    def claim_info(self, lease_id: str) -> dict | None:
        return _read_json(self.claims_dir / f"{lease_id}.json")

    def reclaim(self, lease_id: str) -> None:
        """Coordinator: void an expired claim so the lease is claimable."""
        _unlink_quietly(self.claims_dir / f"{lease_id}.json")

    def release_claim(self, lease_id: str, worker: str) -> None:
        """Worker: drop *our own* claim (a reclaimed-and-reissued claim
        belongs to someone else and must survive us)."""
        info = self.claim_info(lease_id)
        if info is not None and info.get("worker") == worker:
            _unlink_quietly(self.claims_dir / f"{lease_id}.json")

    # -- results --------------------------------------------------------
    def write_result(
        self, lease: Lease, outcomes: list[EvalOutcome], worker: str,
        error: str | None = None,
    ) -> None:
        payload = {
            "kind": "result",
            "lease_id": lease.lease_id,
            "digest": lease.digest,
            "evaluator_digest": lease.evaluator_digest,
            "worker": worker,
            "pid": os.getpid(),
        }
        if error is not None:
            payload["error"] = error
        else:
            payload["outcomes"] = [pack_outcome(o) for o in outcomes]
        _atomic_write_json(self.results_dir / f"{lease.lease_id}.json", payload)

    def read_result(self, lease: Lease) -> tuple[list[EvalOutcome], dict] | None:
        """A lease's validated result ``(outcomes, record)``, or None.

        Results whose content or evaluator digest disagrees with the
        published lease are stale (an earlier generation's leftovers) and
        are discarded so the lease gets re-evaluated.

        Raises :class:`SpoolError` when a worker reported an evaluation
        error — the serial run would have crashed on the same exception,
        so the coordinator must not silently continue.
        """
        path = self.results_dir / f"{lease.lease_id}.json"
        payload = _read_json(path)
        if payload is None or payload.get("kind") != "result":
            return None
        if (
            payload.get("digest") != lease.digest
            or payload.get("evaluator_digest") != lease.evaluator_digest
        ):
            _unlink_quietly(path)
            return None
        if "error" in payload:
            raise SpoolError(
                f"worker {payload.get('worker')} (pid {payload.get('pid')}) "
                f"failed evaluating lease {lease.lease_id}: {payload['error']}"
            )
        try:
            outcomes = [unpack_outcome(o) for o in payload["outcomes"]]
        except (KeyError, TypeError, ValueError):
            _unlink_quietly(path)
            return None
        if len(outcomes) != len(lease.configs):
            _unlink_quietly(path)
            return None
        return outcomes, payload

    # -- heartbeats -----------------------------------------------------
    def heartbeat(self, worker: str, leases_done: int = 0) -> None:
        _atomic_write_json(
            self.workers_dir / f"{worker}.json",
            {
                "worker": worker,
                "pid": os.getpid(),
                "beat_at": time.time(),
                "leases_done": int(leases_done),
            },
        )

    def workers(self) -> list[dict]:
        """Every worker heartbeat record ever written, sorted by name."""
        try:
            paths = sorted(self.workers_dir.iterdir())
        except OSError:
            return []
        return [w for w in (_read_json(p) for p in paths) if w is not None]

    def live_workers(self, ttl: float) -> list[dict]:
        """Workers whose last heartbeat is younger than ``ttl`` seconds."""
        horizon = time.time() - max(0.0, ttl)
        return [w for w in self.workers() if w.get("beat_at", 0.0) >= horizon]


def _unlink_quietly(path: Path) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass
