"""Configuration pools: what the searchers iterate over, array-natively.

The searchers used to take a ``Sequence[ProgramConfig]`` and walk Python
objects per point.  This module gives them an id-based protocol instead:

``MaterializedPool``
    Wraps an explicit config list (the old interface, still accepted
    everywhere — ``as_pool`` adapts transparently).
``SpacePool``
    Holds only sorted global ids against a
    :class:`~repro.tcr.space.TuningSpace`.  Its rank codes (``codes``)
    are written in one vectorized pass from the space's per-kernel
    feature tables (see :func:`feature_view`), with no float design
    matrix on the way; ``ProgramConfig`` objects are materialized lazily,
    only for evaluation batches, the champion, and checkpoints.

Both expose ``__len__``, ``config(i)``, ``configs(ids)``,
``design_matrix(encoder)`` and ``fingerprint()``.  For identical ids the
two produce bitwise-identical design matrices and value-equal configs,
so search results do not depend on which representation carried the pool.

``GrowableArray`` is the amortized-append numpy buffer the drivers use
for history ids/objectives (replacing per-batch Python list churn).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import SearchError
from repro.surf.binarize import FeatureBinarizer, OrdinalEncoder
from repro.surf.forest import PoolCodes
from repro.tcr.space import ProgramConfig, TuningSpace
from repro.util.rng import stable_hash

__all__ = [
    "CatGroup",
    "NumGroup",
    "FeatureView",
    "feature_view",
    "GrowableArray",
    "MaterializedPool",
    "SpacePool",
    "as_pool",
]

#: Pools at most this large keep the seed checkpoint layout (explicit
#: "remaining" id list, describe-based fingerprint); larger pools switch
#: to derived remaining-sets and id-based fingerprints so checkpoint size
#: and save time stay bounded.
SMALL_POOL_LIMIT = 200_000


class GrowableArray:
    """An append-friendly 1-D numpy buffer (amortized doubling)."""

    def __init__(self, dtype=np.float64, capacity: int = 64) -> None:
        self._buf = np.empty(max(1, capacity), dtype=dtype)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    @property
    def view(self) -> np.ndarray:
        """The live prefix — a view, invalidated by the next extend()."""
        return self._buf[: self._n]

    def extend(self, values) -> None:
        values = np.asarray(values, dtype=self._buf.dtype)
        need = self._n + values.size
        if need > self._buf.size:
            cap = self._buf.size
            while cap < need:
                cap *= 2
            grown = np.empty(cap, dtype=self._buf.dtype)
            grown[: self._n] = self._buf[: self._n]
            self._buf = grown
        self._buf[self._n : need] = values
        self._n = need


# ----------------------------------------------------------------------
# Columnar feature views (SpacePool -> encoder, no dicts in between).

@dataclass
class CatGroup:
    """One categorical feature over one slice of pool rows."""

    key: str
    rows: np.ndarray        # row positions within the pool
    codes: np.ndarray       # per-row index into vocab
    vocab: tuple[str, ...]


@dataclass
class NumGroup:
    """One numeric feature over one slice of pool rows."""

    key: str
    rows: np.ndarray
    codes: np.ndarray       # per-row index into table
    table: np.ndarray       # float64 values


@dataclass
class FeatureView:
    """Columnar equivalent of ``[config.features() for config in pool]``.

    A key may appear in several groups (one per variant); rows not covered
    by any group of a key are where that key is absent (mixed-variant
    pools with differing kernel counts).
    """

    n: int
    cats: list[CatGroup]
    nums: list[NumGroup]


def feature_view(space: TuningSpace, ids: np.ndarray) -> FeatureView:
    """Build the FeatureView of sorted global ``ids`` in one vectorized
    pass: decode ids to kernel-space digits, then gather each attribute
    from the per-kernel feature tables."""
    cats: list[CatGroup] = []
    nums: list[NumGroup] = []
    for pos, rows, digits in space.decode_rows(ids):
        ps = space.program_spaces[pos]
        cats.append(
            CatGroup(
                "variant",
                rows,
                np.zeros(rows.size, dtype=np.int64),
                (str(ps.variant_index),),
            )
        )
        for k, (ks, dig) in enumerate(zip(ps.kernel_spaces, digits)):
            tables = ks.feature_tables()
            for attr in ("tx", "ty", "bx", "by", "inner"):
                codes, vocab = tables[attr]
                cats.append(CatGroup(f"k{k}_{attr}", rows, codes[dig], vocab))
            nums.append(NumGroup(f"k{k}_unroll", rows, dig, tables["unroll"]))
    return FeatureView(n=len(ids), cats=cats, nums=nums)


# ----------------------------------------------------------------------
# Pools.

class MaterializedPool:
    """A pool backed by an explicit config sequence (object identity kept)."""

    def __init__(self, configs: Sequence[ProgramConfig]) -> None:
        self._items = configs if isinstance(configs, list) else list(configs)

    def __len__(self) -> int:
        return len(self._items)

    def config(self, i: int) -> ProgramConfig:
        return self._items[i]

    def configs(self, ids: Sequence[int]) -> list[ProgramConfig]:
        return [self._items[int(i)] for i in ids]

    def design_matrix(
        self, encoder: FeatureBinarizer | OrdinalEncoder
    ) -> np.ndarray:
        return encoder.fit_transform([c.features() for c in self._items])

    def fingerprint(self) -> str:
        return format(
            stable_hash("pool", [c.describe() for c in self._items]), "016x"
        )


class SpacePool:
    """A pool of global ids against a :class:`TuningSpace` — nothing
    materialized until a batch is actually evaluated."""

    def __init__(self, space: TuningSpace, ids: Sequence[int] | np.ndarray) -> None:
        arr = np.asarray(ids, dtype=np.int64)
        if arr.size and np.any(np.diff(arr) < 0):
            arr = np.sort(arr)
        self.space = space
        self.ids = arr

    def __len__(self) -> int:
        return int(self.ids.size)

    def config(self, i: int) -> ProgramConfig:
        return self.space.config_at(int(self.ids[int(i)]))

    def configs(self, ids: Sequence[int]) -> list[ProgramConfig]:
        return [self.space.config_at(int(self.ids[int(i)])) for i in ids]

    def design_matrix(
        self, encoder: FeatureBinarizer | OrdinalEncoder
    ) -> np.ndarray:
        view = feature_view(self.space, self.ids)
        encoder.fit_view(view)
        return encoder.transform_matrix(view)

    def codes(
        self, encoder: FeatureBinarizer | OrdinalEncoder
    ) -> PoolCodes | None:
        """``pool_codes(self.design_matrix(encoder))``, bitwise, written
        straight from the feature view (None exactly where that is)."""
        view = feature_view(self.space, self.ids)
        encoder.fit_view(view)
        return encoder.transform_codes(view)

    def fingerprint(self) -> str:
        if len(self) <= SMALL_POOL_LIMIT:
            # Seed-compatible describe hash: checkpoints written against a
            # materialized pool with the same ids keep resuming.
            describes = [
                self.space.config_at(int(g)).describe() for g in self.ids
            ]
            return format(stable_hash("pool", describes), "016x")
        return format(
            stable_hash("pool-ids", int(self.space.size()), self.ids.tolist()),
            "016x",
        )


def as_pool(pool) -> MaterializedPool | SpacePool:
    """Adapt a raw config sequence (the historical interface) to the pool
    protocol; pass pool objects through untouched."""
    if isinstance(pool, (MaterializedPool, SpacePool)):
        return pool
    if isinstance(pool, Sequence):
        return MaterializedPool(pool)
    raise SearchError(
        f"cannot interpret {type(pool).__name__!r} as a configuration pool"
    )
