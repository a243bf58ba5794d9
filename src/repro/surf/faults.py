"""Deterministic fault injection: the simulated rig's hazards and retries.

Real autotuning rigs fail in ways the performance model never does:
``nvcc`` rejects a kernel, a launch asserts, a measurement times out or
comes back wildly slow because the node was busy, a worker process dies.
Production tuners treat those as first-class search observations.  A
:class:`FaultSpec` describes such a hazard mix and the rig's retry
budget; the :class:`~repro.surf.evaluator.ConfigurationEvaluator` asks
it for a :meth:`~FaultSpec.verdict` on every attempt, so every failure
path of the rig is testable without a GPU (or a flaky cluster).

Determinism discipline (same as the measurement noise in
:mod:`repro.gpusim.perfmodel`): every hazard decision is a pure function
of ``(fault seed, hazard kind, config fingerprint[, attempt])`` via
:func:`repro.util.rng.stable_uniform` — no stateful generator, so the
verdict cannot depend on evaluation order, thread interleaving, or which
process asks.  Permanent hazards (compile/launch) are keyed on the
configuration alone — the same point always fails, in every run.
Transient hazards (worker death, timeout) are additionally keyed on the
retry ``attempt``, so a retry can deterministically succeed where the
first dispatch failed.  An injected worker death is a verdict like any
other: it never ends the real process, so a faulted run behaves the same
whichever process it runs in.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.errors import SearchError
from repro.util.rng import stable_uniform

__all__ = ["FaultSpec", "HAZARDS", "backoff_seconds"]

#: Each hazard a verdict can name: whether it is permanent (never
#: retried), and the share of the measurement cap the doomed attempt
#: burns after its compile.  A compile failure costs one compile; a
#: launch failure or worker death costs a compile plus a fraction of the
#: cap; a timeout (or a slowdown spike past the cap) burns compile + the
#: full cap.
HAZARDS = {
    "compile": (True, 0.0),
    "launch": (True, 0.1),
    "worker": (False, 0.5),
    "timeout": (False, 1.0),
}

#: Capped exponential backoff charged (as simulated wall, never a real
#: sleep) before each retry: ``min(cap, first * factor**retry)``.
BACKOFF_FIRST_SECONDS = 1.0
BACKOFF_FACTOR = 2.0
BACKOFF_CAP_SECONDS = 30.0


def backoff_seconds(retry: int) -> float:
    """Simulated wait before retry ``retry`` (0-based)."""
    return min(BACKOFF_CAP_SECONDS, BACKOFF_FIRST_SECONDS * BACKOFF_FACTOR**retry)


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
        Retryable measurement hazards: timeouts and slowdown spikes, each
        of which burns the full measurement cap.  Keyed on (config,
        attempt).
    worker_death_rate:
        The worker evaluating the point dies mid-flight.  Keyed on
        (config, attempt); handled as a transient fault.
    seed:
        Fault substream seed — independent of the measurement-noise seed,
        so enabling faults never perturbs the values of surviving points.
    retries:
        Transient-failure retries per configuration (total attempts =
        ``retries + 1``).  Without hazards nothing is retried, so a
        fault-free spec ignores it.
    """

    compile_rate: float = 0.0
    launch_rate: float = 0.0
    transient_rate: float = 0.0
    worker_death_rate: float = 0.0
    seed: int = 0
    retries: int = 2

    def __post_init__(self) -> None:
        for name in ("compile_rate", "launch_rate", "transient_rate",
                     "worker_death_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise SearchError(f"fault {name} must be in [0, 1], got {rate!r}")
        if self.retries < 0:
            raise SearchError(f"fault retries must be >= 0, got {self.retries!r}")

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
        fingerprints and store keys, so it must be stable).  A fault-free
        spec describes as ``""``, whatever its seed and retry budget."""
        if not self.any():
            return ""
        parts = [
            f"compile={self.compile_rate:g}",
            f"launch={self.launch_rate:g}",
            f"transient={self.transient_rate:g}",
            f"worker={self.worker_death_rate:g}",
            f"seed={self.seed}",
            f"retries={self.retries}",
        ]
        return ",".join(parts)

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultSpec":
        """Parse a CLI hazard mix.

        Comma-separated ``key=value`` pairs with keys ``compile``,
        ``launch``, ``transient``, ``worker``, ``seed`` and ``retries``,
        optionally after a bare probability (``"0.15"`` — spread 20/20/60
        over compile/launch/transient, no worker death).
        """
        text = text.strip()
        if not text:
            return cls(seed=seed)
        keymap = {
            "compile": "compile_rate",
            "launch": "launch_rate",
            "transient": "transient_rate",
            "worker": "worker_death_rate",
        }
        valid = {f.name for f in fields(cls)}
        kwargs: dict[str, float | int] = {"seed": seed}
        parts = text.split(",")
        try:
            total = float(parts[0])
        except ValueError:
            pass
        else:
            parts = parts[1:]
            kwargs.update(
                compile_rate=0.2 * total,
                launch_rate=0.2 * total,
                transient_rate=0.6 * total,
            )
        for part in parts:
            if "=" not in part:
                raise SearchError(f"bad fault spec element {part!r} (want key=value)")
            key, _, value = part.partition("=")
            key = keymap.get(key.strip(), key.strip())
            if key not in valid:
                raise SearchError(f"unknown fault spec key {key!r}")
            kwargs[key] = int(value) if key in ("seed", "retries") else float(value)
        return cls(**kwargs)

    def _fires(self, kind: str, *key: object) -> bool:
        rate = getattr(self, f"{kind}_rate")
        if rate <= 0.0:
            return False
        return stable_uniform(self.seed, "fault", kind, *key) < rate

    def verdict(self, fingerprint: str, attempt: int) -> str | None:
        """The hazard (a :data:`HAZARDS` name) that dooms ``attempt`` of the
        configuration with this ``fingerprint``, or None; pure."""
        if self._fires("compile", fingerprint):
            return "compile"
        if self._fires("launch", fingerprint):
            return "launch"
        if self._fires("worker_death", fingerprint, attempt):
            return "worker"
        if self._fires("transient", fingerprint, attempt):
            return "timeout"
        return None
