"""Retry, quarantine, and failure surfacing for the evaluation engine.

:class:`ResilientEvaluator` is the layer that turns raised
:class:`~repro.errors.EvaluationFailure`\\ s — real or injected by
:class:`~repro.surf.faults.FaultInjectingEvaluator` — into *observations*
the search can keep running on:

* **Transient** failures (timeouts, slowdown spikes, dead workers) are
  retried up to ``max_retries`` times with capped exponential backoff.
  The backoff is *simulated* wall-clock charged to the outcome, never a
  real sleep — the rig being modeled waits, the reproduction does not.
  A point that exhausts its retries becomes a ``status="transient"``
  outcome scored ``+inf``.
* **Permanent** failures (compile/launch) immediately become
  ``status="permanent"`` outcomes scored ``+inf`` and are **quarantined**
  by configuration fingerprint: later evaluations are served an instant
  quarantine hit (``cached=True``, zero wall) without ever reaching the
  rig again.  With a persistent :class:`~repro.surf.cache.QuarantineStore`
  the set survives across runs, alongside the evaluation cache.

Failed outcomes carry ``value=inf`` so searchers can tell a failure from
a merely-penalized *invalid* configuration; the searchers clamp non-finite
targets before surrogate training so the forest is not poisoned.

``evaluate_one`` stays pure (quarantine reads only); quarantine insertion
happens in ``record_outcome``, once per batch, like cache insertion.
"""

from __future__ import annotations

from repro.errors import EvaluationFailure, SearchError, TransientEvaluationError
from repro.obs.tracer import get_tracer
from repro.surf.cache import QuarantineStore
from repro.surf.evaluator import BatchEvaluator, EvalOutcome
from repro.tcr.space import ProgramConfig

__all__ = ["ResilientEvaluator", "FAILURE_VALUE"]

#: Objective recorded for failed (transient/permanent) outcomes.  Infinite —
#: unlike the finite :data:`~repro.surf.evaluator.PENALTY_SECONDS` of merely
#: invalid points — so "we learned this is bad" and "we learned nothing"
#: stay distinguishable in history; searchers clamp it for model fitting.
FAILURE_VALUE = float("inf")


class ResilientEvaluator(BatchEvaluator):
    """Fault-tolerant wrapper over any :class:`BatchEvaluator`.

    Parameters
    ----------
    inner:
        The wrapped evaluator stack (typically fault injector and/or cache
        over a :class:`~repro.surf.evaluator.ConfigurationEvaluator`).
    max_retries:
        Transient-failure retries per configuration (total attempts =
        ``max_retries + 1``).
    backoff_seconds / backoff_factor / backoff_cap_seconds:
        Deterministic exponential backoff charged (as simulated wall)
        before each retry: ``min(cap, backoff * factor**(attempt-1))``.
    quarantine:
        The permanent-failure set; defaults to a fresh in-memory store.
    """

    def __init__(
        self,
        inner: BatchEvaluator,
        max_retries: int = 2,
        backoff_seconds: float = 1.0,
        backoff_factor: float = 2.0,
        backoff_cap_seconds: float = 30.0,
        quarantine: QuarantineStore | None = None,
    ) -> None:
        if max_retries < 0:
            raise SearchError("max_retries must be >= 0")
        if backoff_seconds < 0.0 or backoff_factor < 1.0 or backoff_cap_seconds < 0.0:
            raise SearchError("backoff must be nonnegative with factor >= 1")
        self.inner = inner
        self.max_retries = max_retries
        self.backoff_seconds = backoff_seconds
        self.backoff_factor = backoff_factor
        self.backoff_cap_seconds = backoff_cap_seconds
        self.quarantine = quarantine if quarantine is not None else QuarantineStore()

    @property
    def batch_lanes(self) -> int:
        return self.inner.batch_lanes

    @staticmethod
    def fingerprint(config: ProgramConfig) -> str:
        return config.describe()

    def is_quarantined(self, config: ProgramConfig) -> bool:
        return self.fingerprint(config) in self.quarantine

    def _backoff(self, retry_index: int) -> float:
        """Simulated wait before retry ``retry_index`` (0-based)."""
        return min(
            self.backoff_cap_seconds,
            self.backoff_seconds * self.backoff_factor**retry_index,
        )

    def evaluate_one(self, config: ProgramConfig) -> EvalOutcome:
        """Score one configuration, absorbing failures; pure."""
        fp = self.fingerprint(config)
        if fp in self.quarantine:
            return EvalOutcome(
                config=config,
                value=FAILURE_VALUE,
                wall=0.0,
                cached=True,  # served from the quarantine set, rig untouched
                status="permanent",
                detail=f"quarantined: {self.quarantine.reason(fp)}",
            )
        wall = 0.0
        attempts = 0
        while True:
            attempts += 1
            try:
                out = self.inner.evaluate_attempt(config, attempts - 1)
            except TransientEvaluationError as exc:
                wall += exc.wall
                if attempts > self.max_retries:
                    return EvalOutcome(
                        config=config,
                        value=FAILURE_VALUE,
                        wall=wall,
                        status="transient",
                        detail=f"gave up after {attempts} attempts: {exc}",
                        attempts=attempts,
                    )
                wall += self._backoff(attempts - 1)
                continue
            except EvaluationFailure as exc:
                wall += exc.wall
                return EvalOutcome(
                    config=config,
                    value=FAILURE_VALUE,
                    wall=wall,
                    status="permanent",
                    detail=str(exc),
                    attempts=attempts,
                )
            return EvalOutcome(
                config=out.config,
                value=out.value,
                wall=out.wall + wall,
                cached=out.cached,
                status=out.status,
                detail=out.detail,
                attempts=attempts,
            )

    def record_outcome(self, outcome: EvalOutcome) -> None:
        # Driver-thread side effects, mirroring CachedEvaluator: quarantine
        # insertion here keeps evaluate_one pure and JSONL appends serial.
        if outcome.status == "permanent" and not outcome.cached:
            fp = self.fingerprint(outcome.config)
            self.quarantine.add(fp, outcome.detail)
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event(
                    "eval.quarantine", category="eval",
                    fingerprint=fp, reason=outcome.detail,
                    quarantined=len(self.quarantine),
                )
        self.inner.record_outcome(outcome)

    def extra_counters(self) -> dict[str, float]:
        out = dict(super().extra_counters())
        out["quarantined"] = float(len(self.quarantine))
        return out
