"""Search observability: per-batch event records for every searcher.

Each search run (SURF, random, exhaustive) emits one :class:`BatchRecord`
per evaluated batch — how many points were scored, the best objective seen
so far, how long the surrogate refit took, and the simulated wall clock.
:class:`SearchTelemetry` collects them, computes counter deltas against
the evaluator stack (via its ``counters()`` provider), and serializes to
JSON for the CLI and the benchmark harness.

Telemetry is pure observability: it never influences search decisions, so
enabling it cannot perturb reproducibility.  (Surrogate fit times are real
wall-clock measurements of this process and naturally vary run to run;
everything else in a record is deterministic.)
"""

from __future__ import annotations

import json
from collections.abc import Callable, Iterable
from dataclasses import asdict, dataclass

from repro.obs.tracer import get_tracer

__all__ = ["BatchRecord", "SearchTelemetry"]


@dataclass(frozen=True)
class BatchRecord:
    """One evaluated batch, as seen from the search driver."""

    batch_index: int
    batch_size: int
    #: model evaluations spent on this batch
    evaluations: int
    #: best objective (seconds) over everything evaluated so far
    best_so_far: float
    #: real wall-clock seconds spent (re)fitting the surrogate, 0 for
    #: model-free searchers
    fit_seconds: float
    #: cumulative simulated rig wall-clock after this batch
    simulated_wall_seconds: float
    #: per-status failure accounting for this batch (see EVAL_STATUSES):
    #: deterministically-unbuildable points, retry-exhausted transient
    #: failures, permanent rig failures, and transient retries consumed
    invalid: int = 0
    transient: int = 0
    permanent: int = 0
    retries: int = 0
    #: which sub-search the record came from in a merged per-variant
    #: telemetry (0 for single-search runs); ``(part, batch_index)`` is
    #: unique across a merged stream where ``batch_index`` alone is not
    part: int = 0


class SearchTelemetry:
    """Collects :class:`BatchRecord` events during one search run.

    Parameters
    ----------
    counters:
        Optional provider of monotone counters (the evaluator stack's
        ``counters()``).  When given, per-batch evaluation and failure
        counts are computed as deltas between snapshots; without it, every
        scored point is assumed to be a fresh model evaluation.
    """

    def __init__(self, counters: Callable[[], dict[str, float]] | None = None) -> None:
        self._counters = counters
        self._last = self._snapshot()
        self.records: list[BatchRecord] = []

    def _snapshot(self) -> dict[str, float]:
        if self._counters is None:
            return {}
        return dict(self._counters())

    def record_batch(
        self, batch_size: int, best_so_far: float, fit_seconds: float = 0.0
    ) -> BatchRecord:
        """Append the record for the batch that just finished evaluating."""
        now = self._snapshot()

        def delta(key: str) -> int:
            return int(now.get(key, 0) - self._last.get(key, 0))

        if now:
            evals = delta("evaluations")
            wall = float(now.get("simulated_wall_seconds", 0.0))
            statuses = {k: delta(k) for k in ("invalid", "transient", "permanent", "retries")}
        else:
            evals, wall = batch_size, 0.0
            statuses = {}
        self._last = now
        record = BatchRecord(
            batch_index=len(self.records),
            batch_size=batch_size,
            evaluations=evals,
            best_so_far=float(best_so_far),
            fit_seconds=float(fit_seconds),
            simulated_wall_seconds=wall,
            **statuses,
        )
        self.records.append(record)
        # Unified observability: when a tracer is active, each batch record
        # doubles as a trace event with the record's fields as attributes —
        # one mechanism, two sinks (the JSON telemetry dump and the trace).
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event("search.batch", category="search", **asdict(record))
        return record

    # ------------------------------------------------------------------
    def totals(self) -> dict[str, float]:
        """Aggregate view over the whole run."""
        return {
            "batches": len(self.records),
            "points": sum(r.batch_size for r in self.records),
            "evaluations": sum(r.evaluations for r in self.records),
            "fit_seconds": sum(r.fit_seconds for r in self.records),
            "best_objective": min(
                (r.best_so_far for r in self.records), default=float("inf")
            ),
            "simulated_wall_seconds": max(
                (r.simulated_wall_seconds for r in self.records), default=0.0
            ),
            "invalid": sum(r.invalid for r in self.records),
            "transient": sum(r.transient for r in self.records),
            "permanent": sum(r.permanent for r in self.records),
            "retries": sum(r.retries for r in self.records),
        }

    def as_dicts(self) -> list[dict[str, float]]:
        return [asdict(r) for r in self.records]

    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict[str, object]:
        """Checkpointable state: the records plus the counter snapshot.

        Saved records keep the key of the retired, always-zero
        ``cache_hits`` field at 0: the state layout, and every digest
        pinned over it, stay what they have been since the format began.
        """
        return {
            "records": [{**r, "cache_hits": 0} for r in self.as_dicts()],
            "last": dict(self._last),
        }

    def restore_state(self, state: dict[str, object]) -> None:
        """Restore :meth:`snapshot_state` output (for search resume).

        The counter baseline is **re-snapshotted from the live provider**:
        the persisted snapshot describes the interrupted process's
        evaluator stack, but the resuming process's counters may start
        anywhere (zero on a fresh stack, or restored from the checkpoint's
        own counter record) — diffing the first post-resume batch against
        the stale snapshot produced negative or double-counted deltas.
        Without a provider the persisted snapshot is the only baseline
        available, so it is kept as saved.  The saved records' retired
        ``cache_hits`` key is dropped.
        """
        self.records = [
            BatchRecord(**{k: v for k, v in r.items() if k != "cache_hits"})
            for r in state.get("records", [])
        ]
        if self._counters is not None:
            self._last = self._snapshot()
        else:
            self._last = {k: float(v) for k, v in dict(state.get("last", {})).items()}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(
            {"totals": self.totals(), "batches": self.as_dicts()}, indent=indent
        )

    @classmethod
    def merged(cls, parts: Iterable["SearchTelemetry | None"]) -> "SearchTelemetry":
        """Concatenate sub-search telemetries (e.g. per-variant runs).

        Each record keeps its within-part ``batch_index`` and is tagged
        with its ``part`` ordinal, so ``(part, batch_index)`` is unique
        across the merge (a globally renumbered index silently hid which
        sub-search a batch belonged to, and two parts' "batch 0" collided
        in any per-part analysis).  ``best_so_far`` is re-monotonized as a
        running minimum over the merged stream: each part tracked only its
        own best, so the raw concatenation could *increase* when a later
        variant started worse than an earlier one finished.
        """
        out = cls()
        running_best = float("inf")
        for part_index, part in enumerate(parts):
            if part is None:
                continue
            base_wall = max(
                (r.simulated_wall_seconds for r in out.records), default=0.0
            )
            for record in part.records:
                running_best = min(running_best, record.best_so_far)
                out.records.append(
                    BatchRecord(
                        batch_index=record.batch_index,
                        batch_size=record.batch_size,
                        evaluations=record.evaluations,
                        best_so_far=running_best,
                        fit_seconds=record.fit_seconds,
                        simulated_wall_seconds=base_wall
                        + record.simulated_wall_seconds,
                        invalid=record.invalid,
                        transient=record.transient,
                        permanent=record.permanent,
                        retries=record.retries,
                        part=part_index,
                    )
                )
        return out
