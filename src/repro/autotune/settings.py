"""Every :class:`~repro.autotune.tuner.Autotuner` setting, declared once.

Each field of :class:`TuneSettings` carries its default and exactly one
of two **roles** — the single place that decides what a setting changes:

``keyed``
    Changes the tuned result or its accounting (champion, history, best
    objective, simulated search seconds).  Enters the run manifest's
    settings — and through them the result-store key
    (:meth:`repro.serve.store.StoreKey.from_manifest`) — and the
    checkpoint fingerprint.  ``searcher`` and ``seed`` are keyed too; the
    manifest holds them as fields of its own.
``runtime``
    Where state lives and how the run is observed: checkpoints, trace and
    result store.  Enters neither.

Beside the settings, :data:`SEARCH_REVISION` keys the search code itself.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path

from repro.errors import ConfigurationError
from repro.surf.faults import FaultSpec
from repro.tcr.decision import BACKENDS

__all__ = [
    "TuneSettings", "KEYED", "RUNTIME", "KEYED_SETTINGS", "SEARCH_REVISION",
]

KEYED = "keyed"
RUNTIME = "runtime"

#: The revision of the search code, keyed beside the settings: it enters
#: the run manifest (and through it the result-store key) and the
#: checkpoint fingerprint, so a stored result or a ``state.json`` written
#: under another revision is never served or resumed.  Bump it with any
#: change that moves a champion, a history, a simulated search time or
#: the checkpoint layout for fixed inputs and settings.
SEARCH_REVISION = 1

#: Keyed settings the run manifest records as fields of its own.
MANIFEST_FIELDS = ("searcher", "seed")


def _setting(default, role: str, *, encode=None):
    return field(default=default, metadata={"role": role, "encode": encode})


@dataclass(frozen=True)
class TuneSettings:
    """The searcher settings of one :class:`~repro.autotune.tuner.Autotuner`.

    Keyed
    -----
    searcher:
        ``"surf"`` (default), ``"random"``, ``"exhaustive"``, or
        ``"sweep"`` (separability-aware exhaustive optimum over timing
        tables — exact noise-free best in ``O(sum of kernel-space sizes)``).
    seed:
        Master seed: pool sampling, surrogate, measurement noise.
    max_evaluations / batch_size:
        SURF's ``nmax`` and ``bs`` (paper defaults: 100 and a small batch).
    pool_size:
        Size of the sampled configuration pool ``Xp`` handed to the search.
    noisy / include_transfer:
        Measurement noise on evaluations; PCIe transfers in the objective.
    per_variant:
        Autotune each OCTOPI variant with its own budget and let the
        champions compete (the paper's flow, Table II's Eqn.(1) search).
    faults:
        The simulated rig's hazards and retry budget
        (:mod:`repro.surf.faults`): a :class:`FaultSpec` or a spec string
        for :meth:`FaultSpec.parse` (empty = none).  A fault-free spec
        enters keys as ``""``, whatever its seed and retry budget.
    backend:
        Kernel lowering per operation: ``"loopnest"`` (default),
        ``"ttgt"`` or ``"auto"``.

    Runtime
    -------
    checkpoint_dir / resume:
        Run directory for the atomic per-batch search state
        (:mod:`repro.surf.checkpoint`); ``resume`` continues an
        interrupted run bitwise-identically, and refuses one whose
        fingerprint differs with a :class:`~repro.errors.CheckpointError`.
        The sweep saves no search state.
    trace:
        Write a Chrome trace of every ``tune_*`` call to this path, plus a
        ``manifest.json`` next to it.
    result_store:
        Whole-run memoization (:mod:`repro.serve.store`): a
        ``ResultStore`` or a directory; ``None`` reads
        ``REPRO_RESULT_STORE``, the one setting the environment fills.
    """

    searcher: str = _setting("surf", KEYED)
    seed: int = _setting(0, KEYED)
    max_evaluations: int = _setting(100, KEYED)
    batch_size: int = _setting(10, KEYED)
    pool_size: int = _setting(3000, KEYED)
    noisy: bool = _setting(True, KEYED)
    include_transfer: bool = _setting(True, KEYED)
    per_variant: bool = _setting(False, KEYED)
    faults: FaultSpec | str = _setting("", KEYED, encode=FaultSpec.describe)
    backend: str = _setting("loopnest", KEYED)
    checkpoint_dir: str | Path | None = _setting(None, RUNTIME)
    resume: bool = _setting(False, RUNTIME)
    trace: str | Path | None = _setting(None, RUNTIME)
    result_store: object = _setting(None, RUNTIME)

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        faults = self.faults
        if isinstance(faults, str):
            faults = FaultSpec.parse(faults, seed=self.seed)
        normal = {"faults": faults}
        if self.result_store is None:
            normal["result_store"] = os.environ.get("REPRO_RESULT_STORE") or None
        for name in ("checkpoint_dir", "trace"):
            value = getattr(self, name)
            normal[name] = Path(value) if value else None
        for name, value in normal.items():
            object.__setattr__(self, name, value)

    def _values(self, entries) -> dict:
        values = vars(self)
        return {
            name: values[name] if encode is None else encode(values[name])
            for name, encode in entries
        }

    @cached_property
    def keyed(self) -> dict:
        """Every keyed setting — the checkpoint fingerprint's settings."""
        return self._values(_KEYED)

    @cached_property
    def manifest_settings(self) -> dict:
        """The manifest's ``settings``: every keyed setting bar its own fields."""
        return self._values(_MANIFEST)


#: ``(name, encode)`` of each keyed setting.
_KEYED = tuple(
    (f.name, f.metadata["encode"])
    for f in fields(TuneSettings)
    if f.metadata["role"] == KEYED
)
_MANIFEST = tuple(e for e in _KEYED if e[0] not in MANIFEST_FIELDS)

#: Names of the keyed settings a manifest's ``settings`` may carry.
KEYED_SETTINGS = frozenset(name for name, _ in _MANIFEST)
