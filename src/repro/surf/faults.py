"""Deterministic fault injection for the evaluation engine.

Real autotuning rigs fail in ways the performance model never does:
``nvcc`` rejects a kernel, a launch asserts, a measurement times out or
comes back wildly slow because the node was busy, a worker process dies.
Production tuners treat those as first-class search observations; to make
every failure path of our resilience layer testable without a GPU (or a
flaky cluster), :class:`FaultInjectingEvaluator` simulates a configurable
hazard mix *deterministically*.

Determinism discipline (same as the measurement noise in
:mod:`repro.gpusim.perfmodel`): every hazard decision is a pure function
of ``(fault seed, hazard kind, config fingerprint[, attempt])`` via
:func:`repro.util.rng.stable_uniform` — no stateful generator, so the
verdict cannot depend on evaluation order, thread interleaving, or which
process asks.  Permanent hazards (compile/launch) are keyed on the
configuration alone — the same point always fails, in every run.
Transient hazards (timeout, slowdown spike, worker death) are
additionally keyed on the retry ``attempt``, so a retry can
deterministically succeed where the first dispatch failed.

An injected hazard only ever *raises*: worker death is a
:class:`~repro.errors.WorkerDiedError`, which the resilience layer handles
as a transient fault.  It never ends the real process, so a faulted run
behaves the same whichever process it runs in.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.errors import (
    EvaluationFailure,
    SearchError,
    TransientEvaluationError,
    WorkerDiedError,
)
from repro.surf.evaluator import BatchEvaluator, EvalOutcome
from repro.tcr.space import ProgramConfig
from repro.util.rng import stable_uniform

__all__ = ["FaultSpec", "FaultInjectingEvaluator"]


@dataclass(frozen=True)
class FaultSpec:
    """A hazard mix: per-evaluation probabilities of each failure mode.

    Attributes
    ----------
    compile_rate / launch_rate:
        Permanent, config-dependent failures (the toolchain rejects the
        kernel / the launch always asserts).  Keyed on the configuration
        fingerprint only, so they are stable across retries and runs.
    transient_rate:
        Retryable measurement hazards: timeouts and slowdown spikes
        (``timeout_fraction`` splits the two).  Keyed on (config, attempt).
    worker_death_rate:
        The worker evaluating the point dies mid-flight.  Keyed on
        (config, attempt); handled as a transient fault.
    seed:
        Fault substream seed — independent of the measurement-noise seed,
        so enabling faults never perturbs the values of surviving points.
    """

    compile_rate: float = 0.0
    launch_rate: float = 0.0
    transient_rate: float = 0.0
    worker_death_rate: float = 0.0
    timeout_fraction: float = 0.5
    slowdown_factor: float = 20.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("compile_rate", "launch_rate", "transient_rate",
                     "worker_death_rate", "timeout_fraction"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise SearchError(f"fault {name} must be in [0, 1], got {rate!r}")

    @property
    def total_rate(self) -> float:
        """Upper bound on the probability that an attempt is faulted."""
        return min(
            1.0,
            self.compile_rate + self.launch_rate
            + self.transient_rate + self.worker_death_rate,
        )

    def any(self) -> bool:
        return self.total_rate > 0.0

    def describe(self) -> str:
        """Canonical text form (also the parse format; part of checkpoint
        fingerprints, so it must be stable)."""
        parts = [
            f"compile={self.compile_rate:g}",
            f"launch={self.launch_rate:g}",
            f"transient={self.transient_rate:g}",
            f"worker={self.worker_death_rate:g}",
            f"seed={self.seed}",
        ]
        return ",".join(parts)

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultSpec":
        """Parse a CLI hazard mix.

        Either a bare probability (``"0.15"`` — spread 20/20/60 over
        compile/launch/transient, no worker death), or comma-separated
        ``key=value`` pairs with keys ``compile``, ``launch``,
        ``transient``, ``worker``, ``timeout_fraction``,
        ``slowdown_factor``, ``seed``.
        """
        text = text.strip()
        if not text:
            return cls(seed=seed)
        try:
            total = float(text)
        except ValueError:
            total = None
        if total is not None:
            return cls(
                compile_rate=0.2 * total,
                launch_rate=0.2 * total,
                transient_rate=0.6 * total,
                seed=seed,
            )
        keymap = {
            "compile": "compile_rate",
            "launch": "launch_rate",
            "transient": "transient_rate",
            "worker": "worker_death_rate",
        }
        valid = {f.name for f in fields(cls)}
        kwargs: dict[str, float | int] = {"seed": seed}
        for part in text.split(","):
            if "=" not in part:
                raise SearchError(f"bad fault spec element {part!r} (want key=value)")
            key, _, value = part.partition("=")
            key = keymap.get(key.strip(), key.strip())
            if key not in valid:
                raise SearchError(f"unknown fault spec key {key!r}")
            kwargs[key] = int(value) if key == "seed" else float(value)
        return cls(**kwargs)


def _base_calibration(evaluator: object):
    """Walk the wrapper chain for the model's calibration constants."""
    seen = 0
    while evaluator is not None and seen < 16:
        model = getattr(evaluator, "model", None)
        if model is not None:
            return model.cal
        evaluator = getattr(evaluator, "inner", None)
        seen += 1
    return None


class FaultInjectingEvaluator(BatchEvaluator):
    """Inject the hazard mix of a :class:`FaultSpec` under any evaluator.

    Sits directly above the base :class:`ConfigurationEvaluator`, below
    the resilience layer that retries what it raises.  Faulted attempts raise
    :class:`~repro.errors.EvaluationFailure` subclasses carrying the
    simulated wall-clock the doomed attempt still burned.
    """

    def __init__(self, inner: BatchEvaluator, spec: FaultSpec) -> None:
        self.inner = inner
        self.spec = spec
        cal = _base_calibration(inner)
        # Wall costs of doomed attempts, mirroring the model's accounting:
        # a compile failure costs one compile; a launch failure or worker
        # death costs a compile plus (a fraction of) the measurement cap; a
        # timeout burns compile + the full cap.
        self._compile_wall = cal.compile_seconds if cal is not None else 30.0
        self._cap_wall = cal.measure_cap_seconds if cal is not None else 10.0

    @property
    def batch_lanes(self) -> int:
        return self.inner.batch_lanes

    @staticmethod
    def fingerprint(config: ProgramConfig) -> str:
        return config.describe()

    def _hazard(self, kind: str, *key: object) -> bool:
        rate = getattr(self.spec, f"{kind}_rate")
        if rate <= 0.0:
            return False
        return stable_uniform(self.spec.seed, "fault", kind, *key) < rate

    def evaluate_one(self, config: ProgramConfig) -> EvalOutcome:
        return self.evaluate_attempt(config, 0)

    def evaluate_attempt(self, config: ProgramConfig, attempt: int) -> EvalOutcome:
        """Score one configuration, first rolling the hazard dice; pure."""
        fp = self.fingerprint(config)
        # Permanent hazards: a function of the configuration alone.
        if self._hazard("compile", fp):
            raise EvaluationFailure(
                f"injected compile failure [{fp}]",
                stage="compile", wall=self._compile_wall,
            )
        if self._hazard("launch", fp):
            raise EvaluationFailure(
                f"injected launch failure [{fp}]",
                stage="launch", wall=self._compile_wall + 0.1 * self._cap_wall,
            )
        # Transient hazards: a function of (configuration, attempt).
        if self._hazard("worker_death", fp, attempt):
            raise WorkerDiedError(
                f"injected worker death (attempt {attempt}) [{fp}]",
                stage="dispatch", wall=self._compile_wall + 0.5 * self._cap_wall,
            )
        if self._hazard("transient", fp, attempt):
            spike = (
                stable_uniform(self.spec.seed, "fault", "transient-kind", fp, attempt)
                >= self.spec.timeout_fraction
            )
            if spike:
                raise TransientEvaluationError(
                    f"injected slowdown spike x{self.spec.slowdown_factor:g} "
                    f"(attempt {attempt}) [{fp}]",
                    stage="measure", wall=self._compile_wall + self._cap_wall,
                )
            raise TransientEvaluationError(
                f"injected timeout (attempt {attempt}) [{fp}]",
                stage="measure", wall=self._compile_wall + self._cap_wall,
            )
        return self.inner.evaluate_attempt(config, attempt)
