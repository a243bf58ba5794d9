"""Retry and failure surfacing for the evaluation engine.

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
  ``status="permanent"`` outcomes scored ``+inf``, without a retry.  A
  search scores each pool point at most once, so nothing needs to
  remember them.

Failed outcomes carry ``value=inf`` so searchers can tell a failure from
a merely-penalized *invalid* configuration; the searchers clamp non-finite
targets before surrogate training so the forest is not poisoned.
"""

from __future__ import annotations

from repro.errors import EvaluationFailure, SearchError, TransientEvaluationError
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
        The wrapped evaluator stack (typically a fault injector over a
        :class:`~repro.surf.evaluator.ConfigurationEvaluator`).
    max_retries:
        Transient-failure retries per configuration (total attempts =
        ``max_retries + 1``).
    backoff_seconds / backoff_factor / backoff_cap_seconds:
        Deterministic exponential backoff charged (as simulated wall)
        before each retry: ``min(cap, backoff * factor**(attempt-1))``.
    """

    def __init__(
        self,
        inner: BatchEvaluator,
        max_retries: int = 2,
        backoff_seconds: float = 1.0,
        backoff_factor: float = 2.0,
        backoff_cap_seconds: float = 30.0,
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

    @property
    def batch_lanes(self) -> int:
        return self.inner.batch_lanes

    def _backoff(self, retry_index: int) -> float:
        """Simulated wait before retry ``retry_index`` (0-based)."""
        return min(
            self.backoff_cap_seconds,
            self.backoff_seconds * self.backoff_factor**retry_index,
        )

    def evaluate_one(self, config: ProgramConfig) -> EvalOutcome:
        """Score one configuration, absorbing failures; pure."""
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
                status=out.status,
                detail=out.detail,
                attempts=attempts,
            )
