"""Checkpoint/resume for search runs: atomic state files in a run directory.

A checkpoint directory owned by one autotuning run holds two files (a
per-variant run keeps each variant's ``state.json`` in a ``v*/``
subdirectory):

``state.json``
    The search state after the last completed batch, written atomically
    (tmp file + ``os.replace``): history (as pool indices + objective
    values), the set of not-yet-dispatched pool indices, the driver rng
    stream position, the surrogate refit counter, telemetry records, and
    the evaluator-stack counters.  One JSON document; a kill can never
    leave a half-written state visible.
``manifest.json``
    The run's provenance (:mod:`repro.obs.manifest`), written by the tuner.

A batch evaluated but not yet saved when the run dies is evaluated again
on resume, so a resumed run's accounting (evaluations, retries,
simulated search seconds) equals the uninterrupted run's.

Resume contract: restoring the state and continuing with the *same* run
fingerprint — seed, searcher and its parameters, pool content, fault
spec — finishes **bitwise-identical** to the uninterrupted run (history
and best value).  Everything the continuation draws on is restored
exactly: objective values round-trip through JSON bit-exactly (repr-based
floats, ``inf`` included), the rng resumes from its serialized
bit-generator state, and the surrogate forest is refit from the restored
``(X, y)`` with its refit counter rewound so each tree re-derives the
same substreams.  When the fingerprint does not match (changed seed,
space, searcher, budget, …) resume is *not* bitwise-safe and
:class:`~repro.errors.CheckpointError` is raised instead of silently
diverging.

The fingerprint's settings are the ``keyed`` ones of
:class:`~repro.autotune.settings.TuneSettings`; the ``runtime`` ones stay
outside it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.errors import CheckpointError
from repro.obs.tracer import get_tracer
from repro.util.jsonl import replace_atomically

__all__ = ["CheckpointManager", "SearchCheckpointer", "rng_state", "set_rng_state"]

#: Bump on any incompatible change to the state layout.
CHECKPOINT_FORMAT = 1

STATE_FILENAME = "state.json"
#: Prefix of the tmp files :func:`replace_atomically` writes ``state.json``
#: through; a killed writer leaves one behind for :meth:`prune_tmp`.
TMP_PREFIX = f".{STATE_FILENAME}.tmp"


def _json_default(obj: Any) -> Any:
    """Serialize stray numpy scalars/arrays the array-native drivers may
    leave in a state dict (Python-typed output, so round-trips are exact)."""
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(
        f"checkpoint state is not JSON-serializable: {type(obj).__name__}"
    )


def rng_state(rng: np.random.Generator) -> dict[str, Any]:
    """JSON-serializable snapshot of a numpy generator's stream position."""
    return rng.bit_generator.state


def set_rng_state(rng: np.random.Generator, state: dict[str, Any]) -> None:
    """Restore a snapshot taken by :func:`rng_state` (exact continuation)."""
    rng.bit_generator.state = state


class CheckpointManager:
    """Owns one checkpoint directory: atomic save, validated load.

    Parameters
    ----------
    directory:
        The run directory (created on first save).
    fingerprint:
        JSON-able identity of the run (seed, searcher parameters, pool
        hash, fault spec...).  ``load`` refuses a state whose stored
        fingerprint differs — resuming it would not be bitwise-safe.
    """

    def __init__(
        self, directory: str | Path, fingerprint: dict[str, Any] | None = None
    ) -> None:
        self.directory = Path(directory)
        self.fingerprint = dict(fingerprint) if fingerprint else {}

    @property
    def state_path(self) -> Path:
        return self.directory / STATE_FILENAME

    def exists(self) -> bool:
        return self.state_path.exists()

    def save(self, searcher_state: dict[str, Any], extra: dict[str, Any] | None = None) -> None:
        """Atomically persist the state after a completed batch.

        The payload is fully serialized before anything touches disk, then
        written with :func:`~repro.util.jsonl.replace_atomically` — readers
        (and a resume after a kill at any instant) see either the previous
        state or the new one, never a torn write.
        """
        tracer = get_tracer()
        with tracer.span("checkpoint.save", category="checkpoint") as sp:
            payload = {
                "format": CHECKPOINT_FORMAT,
                "fingerprint": self.fingerprint,
                "searcher": searcher_state,
                "extra": extra or {},
            }
            text = json.dumps(payload, default=_json_default)
            replace_atomically(self.state_path, text)
            if tracer.enabled:
                sp.set(path=str(self.state_path), bytes=len(text))

    def load(self) -> dict[str, Any] | None:
        """Return the stored payload, or None when no state exists yet.

        Raises :class:`CheckpointError` on a corrupt file, an unknown
        format version, or a fingerprint mismatch.
        """
        if not self.state_path.exists():
            return None
        try:
            with self.state_path.open("r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as exc:
            raise CheckpointError(
                f"corrupt checkpoint state at {self.state_path}: {exc}"
            ) from exc
        if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"unsupported checkpoint format in {self.state_path} "
                f"(got {payload.get('format')!r}, want {CHECKPOINT_FORMAT})"
            )
        stored = payload.get("fingerprint", {})
        if self.fingerprint and stored != self.fingerprint:
            diff = sorted(
                key
                for key in set(stored) | set(self.fingerprint)
                if stored.get(key) != self.fingerprint.get(key)
            )
            raise CheckpointError(
                "checkpoint fingerprint mismatch — resuming would not be "
                f"bitwise-safe (differing: {', '.join(diff) or 'structure'}). "
                "Start a fresh run (new --checkpoint-dir or delete the old one) "
                "or restore the original seed/space/searcher settings."
            )
        return payload

    def clear(self) -> None:
        """Drop the state file (the manifest survives)."""
        try:
            self.state_path.unlink()
        except FileNotFoundError:
            pass

    def prune_tmp(self) -> list[Path]:
        """Remove stale tmp files left by killed writers; returns them."""
        removed = []
        if self.directory.is_dir():
            for stale in sorted(self.directory.glob(f"{TMP_PREFIX}.*")):
                stale.unlink()
                removed.append(stale)
        return removed


class SearchCheckpointer:
    """The searcher-facing handle: save per batch, expose prior state.

    The :class:`~repro.autotune.tuner.Autotuner` builds one per run and
    hands it to ``searcher.search(...)``: the searcher calls :meth:`save`
    after every completed batch and reads :attr:`resume_state` (the
    ``searcher`` section of a validated prior payload, set by the tuner on
    ``resume=True``) to restore itself before the first batch.  ``extra``
    is a provider of tuner-owned state saved alongside (the evaluator
    counters) and restored by the tuner, not the searcher.
    """

    def __init__(
        self,
        manager: CheckpointManager,
        extra: Callable[[], dict[str, Any]] | None = None,
    ) -> None:
        self.manager = manager
        self._extra = extra
        self.resume_state: dict[str, Any] | None = None

    def save(self, searcher_state: dict[str, Any]) -> None:
        self.manager.save(
            searcher_state, extra=self._extra() if self._extra is not None else {}
        )
