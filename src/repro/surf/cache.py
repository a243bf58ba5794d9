"""Persistent memoization of configuration evaluations.

Autotuning re-scores identical points constantly: per-variant sweeps visit
the same kernel configurations the union search already paid for, repeated
tuner runs re-evaluate everything, and the benchmark suite regenerates the
same tables over and over.  Kernel Tuner solves this with a persistent
cache of evaluated configurations keyed on the tunable parameters; this
module is the same idea for the Barracuda evaluation engine.

Keys are ``(arch name, context fingerprint, program fingerprint,
config.describe())``.  The context fingerprint hashes everything else the
objective depends on — the calibration constants plus the evaluator's
``seed`` / ``noisy`` / ``include_transfer`` knobs — so a changed
calibration or noise seed can never serve stale values.  The program
fingerprint hashes the variant's TCR text, so structurally identical
programs share entries regardless of which run produced them.

The on-disk format is JSON lines (one entry per line, append-only),
written through :func:`repro.util.jsonl.atomic_append_jsonl` — a single
``O_APPEND`` write per entry, so concurrent appends from independent
runs/processes can never interleave within a line — and loaded
corruption-tolerantly (a crash mid-append truncating the last line costs
that line, counted and warned about, never the store).

Merge semantics are **first-wins** everywhere: ``put`` keeps the first
in-memory entry for a key, and ``_load`` keeps the first on-disk line —
so a reloaded store always agrees with the process that wrote it, no
matter how many concurrent writers appended duplicate keys behind each
other's backs.
"""

from __future__ import annotations

from pathlib import Path

from repro.surf.evaluator import BatchEvaluator, ConfigurationEvaluator, EvalOutcome
from repro.tcr.space import ProgramConfig
from repro.util.jsonl import atomic_append_jsonl, load_jsonl, report_corrupt_lines
from repro.util.rng import stable_hash

__all__ = ["EvaluationCache", "CachedEvaluator", "QuarantineStore"]

#: Cache-entry keys: (arch, context fingerprint, program fingerprint, config).
CacheKey = tuple[str, str, str, str]


class EvaluationCache:
    """In-memory map of evaluated configurations, optionally JSONL-backed.

    Entries store ``(value, wall, status)`` — ``status`` distinguishes a
    real measurement (``"ok"``) from a deterministically-unbuildable point
    (``"invalid"``), so negative results are memoized too and are never
    re-dispatched to the rig.  (Transient/permanent *rig* failures are
    deliberately not cacheable — see ``CachedEvaluator.record_outcome``.)

    Parameters
    ----------
    path:
        Optional JSON-lines store.  Existing entries are loaded eagerly
        (undecodable lines are counted in ``corrupt_lines`` and skipped);
        new entries are appended as they are recorded.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self._memory: dict[CacheKey, tuple[float, float, str]] = {}
        self.path = Path(path) if path is not None else None
        self.corrupt_lines = 0
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self) -> None:
        assert self.path is not None
        entries, self.corrupt_lines = load_jsonl(self.path)
        for entry in entries:
            try:
                key = tuple(entry["key"])
                value = float(entry["value"])
                wall = float(entry["wall"])
                status = str(entry.get("status", "ok"))
                if len(key) != 4 or not all(isinstance(p, str) for p in key):
                    raise ValueError("malformed key")
            except (ValueError, KeyError, TypeError):
                self.corrupt_lines += 1
                continue
            # First-wins, matching ``put``: duplicate on-disk lines (two
            # processes racing the same key) must resolve the same way a
            # live writer resolved them, or a reload would silently swap
            # the served value.
            self._memory.setdefault(key, (value, wall, status))
        report_corrupt_lines(self.path, self.corrupt_lines, "evaluation-cache")

    def __len__(self) -> int:
        return len(self._memory)

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._memory

    def get(self, key: CacheKey) -> tuple[float, float, str] | None:
        """Return ``(value, wall, status)`` for ``key``, or None on a miss."""
        return self._memory.get(key)

    def put(self, key: CacheKey, value: float, wall: float, status: str = "ok") -> None:
        """Record one evaluation; idempotent (first write wins)."""
        if key in self._memory:
            return
        self._memory[key] = (value, wall, status)
        if self.path is not None:
            entry = {"key": list(key), "value": value, "wall": wall, "status": status}
            atomic_append_jsonl(self.path, entry)


class QuarantineStore:
    """Persistent set of permanently-failed configuration fingerprints.

    The resilience layer adds a fingerprint (``config.describe()``, which
    covers the variant index and every kernel parameter) the first time a
    configuration fails permanently; quarantined points are served an
    instant ``+inf`` outcome and never dispatched to the rig again — in
    this run or, with a JSONL path (kept alongside the eval cache in a
    checkpoint directory), any later run.  Same append-only, corruption-
    tolerant on-disk discipline as :class:`EvaluationCache`.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self._reasons: dict[str, str] = {}
        self.path = Path(path) if path is not None else None
        self.corrupt_lines = 0
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self) -> None:
        assert self.path is not None
        entries, self.corrupt_lines = load_jsonl(self.path)
        for entry in entries:
            try:
                fingerprint = entry["fingerprint"]
                reason = str(entry.get("reason", ""))
                if not isinstance(fingerprint, str):
                    raise ValueError("malformed fingerprint")
            except (ValueError, KeyError, TypeError):
                self.corrupt_lines += 1
                continue
            self._reasons.setdefault(fingerprint, reason)
        report_corrupt_lines(self.path, self.corrupt_lines, "quarantine")

    def __len__(self) -> int:
        return len(self._reasons)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._reasons

    def reason(self, fingerprint: str) -> str | None:
        return self._reasons.get(fingerprint)

    def entries(self) -> dict[str, str]:
        """Fingerprint → reason map (a copy; for tooling/telemetry)."""
        return dict(self._reasons)

    def add(self, fingerprint: str, reason: str) -> None:
        """Quarantine one fingerprint; idempotent (first reason wins)."""
        if fingerprint in self._reasons:
            return
        self._reasons[fingerprint] = reason
        if self.path is not None:
            atomic_append_jsonl(
                self.path, {"fingerprint": fingerprint, "reason": reason}
            )


def _base_evaluator(evaluator: BatchEvaluator) -> ConfigurationEvaluator:
    """Walk the wrapper chain to the base :class:`ConfigurationEvaluator`.

    The cache may sit above a fault-injection layer; cache keys are about
    the *objective* (arch, calibration, program, config), which only the
    base evaluator knows.  Injected faults never alter an ``ok`` outcome,
    so entries remain valid across differing fault specs.
    """
    seen = 0
    inner = evaluator
    while inner is not None and seen < 16:
        if isinstance(inner, ConfigurationEvaluator):
            return inner
        inner = getattr(inner, "inner", None)
        seen += 1
    raise TypeError(
        "CachedEvaluator needs a ConfigurationEvaluator at the base of its "
        f"wrapper chain; got {type(evaluator).__name__}"
    )


def _context_fingerprint(inner: ConfigurationEvaluator) -> str:
    """Hash of everything besides (program, config) the objective sees."""
    cal = inner.model.cal
    return format(
        stable_hash(
            "eval-context",
            {name: getattr(cal, name) for name in cal.__dataclass_fields__},
            inner.seed,
            inner.noisy,
            inner.include_transfer,
        ),
        "016x",
    )


class CachedEvaluator(BatchEvaluator):
    """Memoizing wrapper around a :class:`ConfigurationEvaluator`.

    Hits skip the model entirely (``evaluation_count`` counts only real
    model evaluations) but still charge the *stored* wall cost to the
    simulated search clock — the cache speeds up the reproduction, not the
    imaginary rig it models, so Table II's "Search" column is unchanged by
    enabling it.
    """

    def __init__(
        self, inner: BatchEvaluator, cache: EvaluationCache | None = None
    ) -> None:
        self.inner = inner
        self.cache = cache if cache is not None else EvaluationCache()
        base = _base_evaluator(inner)
        self._base = base
        self._arch_name = base.model.arch.name
        self._context = _context_fingerprint(base)
        self._program_fps: dict[int, str] = {}
        self.evaluation_count = 0
        self.cache_hits = 0
        self.simulated_wall_seconds = 0.0

    @property
    def batch_lanes(self) -> int:
        return self.inner.batch_lanes

    def key_for(self, config: ProgramConfig) -> CacheKey:
        fp = self._program_fps.get(config.variant_index)
        if fp is None:
            program = self._base.program_for(config)
            fp = format(stable_hash("program", program.to_text()), "016x")
            self._program_fps[config.variant_index] = fp
        return (self._arch_name, self._context, fp, config.describe())

    def evaluate_one(self, config: ProgramConfig) -> EvalOutcome:
        return self.evaluate_attempt(config, 0)

    def evaluate_attempt(self, config: ProgramConfig, attempt: int) -> EvalOutcome:
        hit = self.cache.get(self.key_for(config))
        if hit is not None:
            value, wall, status = hit
            return EvalOutcome(
                config=config, value=value, wall=wall, cached=True, status=status
            )
        return self.inner.evaluate_attempt(config, attempt)

    def record_outcome(self, outcome: EvalOutcome) -> None:
        # Insertion happens here, once per batch, rather than inside
        # evaluate_one: that keeps evaluate_one pure and serializes JSONL
        # appends without a lock.
        # Only deterministic outcomes are cacheable: ``ok`` measurements and
        # ``invalid`` (unbuildable) points.  Rig failures are not properties
        # of the configuration — permanent ones go to the quarantine store,
        # transient ones should simply be retried next time.
        if not outcome.cached and outcome.status in ("ok", "invalid"):
            self.cache.put(
                self.key_for(outcome.config),
                outcome.value,
                outcome.wall,
                outcome.status,
            )
