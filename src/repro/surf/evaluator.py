"""Empirical-evaluation stand-in: scoring configurations on the simulator.

In the paper, evaluating a configuration means generating CUDA through
CUDA-CHiLL, compiling with nvcc, and timing 100 repetitions on the GPU.
Here it means asking :class:`~repro.gpusim.perfmodel.GPUPerformanceModel`
for the modeled time (plus measurement noise).  The evaluator also keeps
the books the paper reports: how many evaluations were spent and how much
*wall-clock search time* they would have cost on the real toolchain
(Table II's "Search" column).

The evaluation engine is one class, :class:`ConfigurationEvaluator`: the
whole simulated rig.  It scores every point with the model's
``program_timing`` (the timing tables serve only the separable sweep,
:mod:`repro.surf.separable`).  When its
:class:`~repro.surf.faults.FaultSpec` can fire, every attempt first asks
the spec for a hazard verdict: transient failures are retried with
capped backoff, permanent ones are scored ``+inf``.  The
:class:`BatchEvaluator` base does the per-batch bookkeeping
(``evaluate_one`` is pure; counters move once per batch, on the driver).

Nothing is memoized: each call scores every point it is handed, so a
run's accounting never depends on what an earlier run evaluated.

Every batch runs in the search driver's process, and the simulated rig
times one configuration at a time: the paper's Table II search times imply
one rig timing one variant at a time.  The model itself is too cheap
(milliseconds per batch) for a process fan-out to pay.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

from repro.errors import ConfigurationError
from repro.gpusim.perfmodel import GPUPerformanceModel
from repro.obs.tracer import get_tracer
from repro.surf.faults import HAZARDS, FaultSpec, backoff_seconds
from repro.tcr.program import TCRProgram
from repro.tcr.space import ProgramConfig
from repro.util.rng import spawn_rng

__all__ = [
    "ConfigurationEvaluator",
    "BatchEvaluator",
    "EvalOutcome",
    "PENALTY_SECONDS",
    "FAILURE_VALUE",
    "EVAL_STATUSES",
]

#: Objective assigned to configurations the backend cannot build (e.g. a
#: block too large for the device).  Far above any real kernel time so the
#: search learns to avoid the region, but finite so surrogate fitting works.
PENALTY_SECONDS = 10.0

#: Objective recorded for failed (transient/permanent) outcomes.  Infinite —
#: unlike the finite :data:`PENALTY_SECONDS` of merely invalid points — so
#: "we learned this is bad" and "we learned nothing" stay distinguishable
#: in history; searchers clamp it for model fitting.
FAILURE_VALUE = float("inf")

#: The outcome taxonomy, in increasing order of badness:
#: ``ok`` — a real measurement; ``invalid`` — the configuration is illegal
#: (deterministic, scored at :data:`PENALTY_SECONDS`); ``transient`` — the
#: rig failed repeatedly on a retryable hazard and gave up; ``permanent`` —
#: the rig can never evaluate this point (compile/launch failure).  The
#: last two score ``+inf`` and are clamped out of surrogate training.
EVAL_STATUSES = ("ok", "invalid", "transient", "permanent")


@dataclass(frozen=True)
class EvalOutcome:
    """Result of scoring one configuration.

    ``wall`` is the simulated wall-clock cost of *performing* the
    evaluation on the real rig (compile + repetitions — for failed
    attempts, everything the rig burned before giving up, retry backoff
    included).  ``status`` is one of :data:`EVAL_STATUSES`; ``attempts``
    counts dispatches consumed (1 = no retries).
    """

    config: ProgramConfig
    value: float
    wall: float
    status: str = "ok"
    detail: str = ""
    attempts: int = 1

    @property
    def failed(self) -> bool:
        """True for outcomes that produced no usable measurement."""
        return self.status in ("transient", "permanent")


class BatchEvaluator:
    """Per-batch bookkeeping of an evaluator.

    Subclasses implement :meth:`evaluate_one` (a *pure* scoring function —
    no counter mutation).  ``evaluate_batch`` then does all bookkeeping
    once per batch: counters and wall accounting.  One rig times the
    batch's points one after another, so a batch costs the sum of its
    outcomes' walls.
    """

    evaluation_count: int = 0
    simulated_wall_seconds: float = 0.0
    invalid_count: int = 0
    transient_count: int = 0
    permanent_count: int = 0
    retry_count: int = 0

    def evaluate_one(self, config: ProgramConfig) -> EvalOutcome:
        raise NotImplementedError

    def evaluate_batch(self, configs: Sequence[ProgramConfig]) -> list[float]:
        """Algorithm 2's ``Evaluate_Parallel``: score a batch of points."""
        tracer = get_tracer()
        with tracer.span("eval.batch", category="eval") as sp:
            outcomes = [self.evaluate_one(c) for c in configs]
            self._tally(outcomes)
            if tracer.enabled:
                sp.set(
                    points=len(outcomes),
                    evaluations=len(outcomes),
                    invalid=sum(1 for o in outcomes if o.status == "invalid"),
                    transient=sum(1 for o in outcomes if o.status == "transient"),
                    permanent=sum(1 for o in outcomes if o.status == "permanent"),
                    retries=sum(max(0, o.attempts - 1) for o in outcomes),
                    simulated_wall_seconds=self.simulated_wall_seconds,
                )
        return [o.value for o in outcomes]

    def evaluate(self, config: ProgramConfig) -> float:
        """Objective for one configuration (seconds; penalty when illegal)."""
        return self.evaluate_batch([config])[0]

    def _tally(self, outcomes: Sequence[EvalOutcome]) -> None:
        if not outcomes:
            return
        self.evaluation_count += len(outcomes)
        for o in outcomes:
            if o.status == "invalid":
                self.invalid_count += 1
            elif o.status == "transient":
                self.transient_count += 1
            elif o.status == "permanent":
                self.permanent_count += 1
            self.retry_count += max(0, o.attempts - 1)
        self.simulated_wall_seconds += sum(o.wall for o in outcomes)

    def counters(self) -> dict[str, float]:
        """Monotone counters for telemetry deltas (see ``SearchTelemetry``)."""
        return {
            "evaluations": self.evaluation_count,
            "simulated_wall_seconds": self.simulated_wall_seconds,
            "invalid": self.invalid_count,
            "transient": self.transient_count,
            "permanent": self.permanent_count,
            "retries": self.retry_count,
        }

    def restore_counters(self, saved: dict[str, float]) -> None:
        """Reset the bookkeeping to a checkpointed ``counters()`` snapshot."""
        self.evaluation_count = int(saved.get("evaluations", 0))
        self.simulated_wall_seconds = float(saved.get("simulated_wall_seconds", 0.0))
        self.invalid_count = int(saved.get("invalid", 0))
        self.transient_count = int(saved.get("transient", 0))
        self.permanent_count = int(saved.get("permanent", 0))
        self.retry_count = int(saved.get("retries", 0))


class ConfigurationEvaluator(BatchEvaluator):
    """Maps :class:`ProgramConfig` points to objective values (seconds).

    Parameters
    ----------
    programs:
        The TCR program of each OCTOPI variant, indexed by
        ``config.variant_index``.
    model:
        The device timing model.
    seed:
        Seed for measurement noise (each evaluation gets an independent
        substream keyed on the configuration, so repeated evaluation of the
        same point is itself reproducible).
    noisy:
        Disable to make the objective exactly deterministic.
    include_transfer:
        Whether the objective includes the program's PCIe transfers.
    faults:
        The rig's hazard mix and retry budget (:mod:`repro.surf.faults`);
        fault-free by default.
    """

    def __init__(
        self,
        programs: Sequence[TCRProgram],
        model: GPUPerformanceModel,
        seed: int = 0,
        noisy: bool = True,
        include_transfer: bool = True,
        faults: FaultSpec | None = None,
    ) -> None:
        self.programs = list(programs)
        self.model = model
        self.seed = seed
        self.noisy = noisy
        self.include_transfer = include_transfer
        self.faults = faults if faults is not None else FaultSpec()
        self.evaluation_count = 0
        self.simulated_wall_seconds = 0.0

    def program_for(self, config: ProgramConfig) -> TCRProgram:
        return self.programs[config.variant_index]

    def _measure_rng(self, config: ProgramConfig):
        return spawn_rng(
            self.seed, "measure", config.variant_index, config.global_id,
            config.describe(),
        )

    def evaluate_one(self, config: ProgramConfig) -> EvalOutcome:
        """Score one configuration on the rig; pure (no evaluator state is
        touched).

        Each attempt first takes the fault spec's verdict.  A transient
        hazard is retried up to ``faults.retries`` times, and a point that
        exhausts them is a ``transient`` outcome; a permanent hazard is a
        ``permanent`` outcome at once.  Both score :data:`FAILURE_VALUE`.
        The walls of doomed attempts and the backoff before each retry are
        charged to the outcome.
        """
        faults = self.faults
        if not faults.any():
            return self._measure(config)
        cal = self.model.cal
        fingerprint = config.describe()
        wall = 0.0
        for attempt in range(faults.retries + 1):
            hazard = faults.verdict(fingerprint, attempt)
            if hazard is None:
                out = self._measure(config)
                return replace(out, wall=out.wall + wall, attempts=attempt + 1)
            permanent, cap_share = HAZARDS[hazard]
            wall += cal.compile_seconds + cap_share * cal.measure_cap_seconds
            detail = f"injected {hazard} failure (attempt {attempt}) [{fingerprint}]"
            if permanent:
                return EvalOutcome(
                    config=config, value=FAILURE_VALUE, wall=wall,
                    status="permanent", detail=detail, attempts=attempt + 1,
                )
            if attempt < faults.retries:
                wall += backoff_seconds(attempt)
        return EvalOutcome(
            config=config, value=FAILURE_VALUE, wall=wall, status="transient",
            detail=f"gave up after {attempt + 1} attempts: {detail}",
            attempts=attempt + 1,
        )

    def _measure(self, config: ProgramConfig) -> EvalOutcome:
        """One successful dispatch: the model's outcome."""
        program = self.program_for(config)
        try:
            timing = self.model.program_timing(program, config)
            rng = self._measure_rng(config) if self.noisy else None
            value = self.model.value_from_timing(
                timing, rng=rng, include_transfer=self.include_transfer
            )
            wall = self.model.wall_from_timing(timing)
        except ConfigurationError as exc:
            # The configuration is deterministically unbuildable: record it
            # as an ``invalid`` outcome (counted in telemetry) rather than
            # swallowing the error into an anonymous penalty score.
            return EvalOutcome(
                config=config,
                value=PENALTY_SECONDS,
                wall=self.model.cal.compile_seconds,  # it failed at build time
                status="invalid",
                detail=f"build failed: {exc}",
            )
        return EvalOutcome(config=config, value=value, wall=wall)
