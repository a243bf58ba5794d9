"""Feature binarization of tuning configurations (Section V).

The decomposition parameters "do not admit a natural ordinal relationship",
so the paper transforms them into binary vectors before surrogate modeling
("feature binarization", their [6]).  :class:`FeatureBinarizer` does this:
string-valued features become one-hot indicator columns; numeric features
(unroll factors) pass through as ordinal columns.

The binarizer is fit on the *pool* (so every category is known up front)
and then applied to evaluated/unevaluated subsets consistently.

Pools may be *heterogeneous*: a union tuning space mixes OCTOPI variants
with different kernel counts, so ``ProgramConfig.features()`` emits
``k{i}_*`` keys for kernel slots some variants simply do not have.  Both
encoders work over the union of keys and treat an absent key as the
sentinel category :data:`ABSENT` — a missing categorical key lights a
dedicated one-hot column, and a missing numeric key zeroes the ordinal
column and lights a presence-indicator column, so the surrogate can tell
"kernel 2 has unroll 0" apart from "variant has no kernel 2".

Both encoders also accept a columnar
:class:`~repro.surf.pool.FeatureView` (``fit_view`` /
``transform_matrix``): the array-native pipeline feeds them whole pool
slices gathered from the tuning space's odometer tables, skipping the
per-config dict materialization entirely.  For the same pool the two
routes produce bitwise-identical design matrices (pinned by the parity
suite).  ``transform_codes`` goes one step further and writes the
view's :class:`~repro.surf.forest.PoolCodes` directly — each column's
uint8 ranks and sorted vocabulary, bitwise what
:func:`~repro.surf.forest.pool_codes` derives from the float matrix —
so the SURF driver never builds that matrix for a space pool.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import SearchError
from repro.surf.forest import MAX_ROUTER_CARD, PoolCodes

__all__ = ["FeatureBinarizer", "OrdinalEncoder", "ABSENT"]

#: Sentinel category for feature keys a configuration does not define
#: (e.g. ``k2_tx`` for a two-kernel variant in a mixed-variant pool).
ABSENT = "<absent>"


def _assemble_columns(
    keys: list[str],
    numeric: set[str],
    categories: dict[str, set[str]],
) -> list[tuple[str, str | None]]:
    """Column layout shared by the dict and columnar fit paths."""
    columns: list[tuple[str, str | None]] = []
    for key in keys:
        if key in numeric:
            columns.append((key, None))
            if key in categories:  # numeric, but absent for some variants
                columns.append((key, ABSENT))
        else:
            for cat in sorted(categories[key]):
                columns.append((key, cat))
    return columns


def _observed(g) -> set[str]:
    """The categories a view group's rows take (counted, not sorted)."""
    counts = np.bincount(g.codes, minlength=len(g.vocab))
    return {g.vocab[c] for c in np.flatnonzero(counts)}


def _rank_column(n: int, fill: float, writes: list):
    """``(codes, vocab)`` of the column that starts at ``fill`` and takes
    ``column[rows] = table[codes]`` for each ``(rows, codes, table)`` in
    turn, or None past ``MAX_ROUTER_CARD`` values.  A per-row slot into
    the concatenated tables stands for the value, so only the table
    values the rows take are sorted, not the ``n`` rows."""
    slot = np.zeros(n, dtype=np.int64)
    tables = [np.array([fill])]
    offset = 1
    for rows, codes, table in writes:
        slot[rows] = codes + offset
        tables.append(table)
        offset += len(table)
    values = np.concatenate(tables).astype(np.float64)
    vocab = np.unique(values[np.bincount(slot, minlength=offset) > 0])
    if vocab.size > MAX_ROUTER_CARD:
        return None
    return np.searchsorted(vocab, values).astype(np.uint8)[slot], vocab


class FeatureBinarizer:
    """One-hot encoder for mixed categorical/numeric feature dicts."""

    def __init__(self) -> None:
        self._columns: list[tuple[str, str | None]] | None = None
        self._keys: list[str] | None = None

    @property
    def columns(self) -> list[tuple[str, str | None]]:
        """Output columns as (feature, category) — category None = numeric."""
        if self._columns is None:
            raise SearchError("binarizer has not been fit")
        return list(self._columns)

    def fit(self, feature_dicts: Sequence[dict[str, object]]) -> "FeatureBinarizer":
        if not feature_dicts:
            raise SearchError("cannot fit a binarizer on an empty pool")
        keys = sorted(set().union(*feature_dicts))
        numeric: set[str] = set()
        categories: dict[str, set[str]] = {}
        for feats in feature_dicts:
            for key in keys:
                if key not in feats:
                    categories.setdefault(key, set()).add(ABSENT)
                    continue
                value = feats[key]
                if isinstance(value, bool) or not isinstance(value, (int, float, str)):
                    raise SearchError(
                        f"feature {key!r} has unsupported value {value!r}"
                    )
                if isinstance(value, str):
                    categories.setdefault(key, set()).add(value)
                else:
                    numeric.add(key)
        overlap = {
            key for key in numeric & set(categories)
            if categories[key] != {ABSENT}
        }
        if overlap:
            raise SearchError(
                f"features {sorted(overlap)} mix numeric and string values"
            )
        self._columns = _assemble_columns(keys, numeric, categories)
        self._keys = keys
        return self

    def fit_view(self, view) -> "FeatureBinarizer":
        """Fit from a :class:`~repro.surf.pool.FeatureView` — the same
        columns :meth:`fit` derives from the corresponding dicts."""
        if view.n == 0:
            raise SearchError("cannot fit a binarizer on an empty pool")
        numeric: set[str] = set()
        categories: dict[str, set[str]] = {}
        coverage: dict[str, int] = {}
        for g in view.cats:
            categories.setdefault(g.key, set()).update(_observed(g))
            coverage[g.key] = coverage.get(g.key, 0) + int(g.rows.size)
        for g in view.nums:
            numeric.add(g.key)
            coverage[g.key] = coverage.get(g.key, 0) + int(g.rows.size)
        keys = sorted(coverage)
        for key in keys:
            if coverage[key] < view.n:  # absent for some rows
                categories.setdefault(key, set()).add(ABSENT)
        self._columns = _assemble_columns(keys, numeric, categories)
        self._keys = keys
        return self

    def _writes(self, view):
        """What a FeatureView writes into the design matrix: per
        categorical group the ``(rows, codes, colmap)`` that light cells
        ``(rows, colmap[codes])`` (``-1``: an unseen category lights
        none), the ``(rows, codes, table)`` writes of each numeric column,
        and each absent indicator's ``(column, covered rows mask)``."""
        if self._columns is None:
            raise SearchError("binarizer has not been fit")
        col_of: dict[tuple[str, str | None], int] = {
            c: i for i, c in enumerate(self._columns)
        }
        covered = {
            key: np.zeros(view.n, dtype=bool)
            for key, cat in self._columns if cat == ABSENT
        }
        hot: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        numeric: dict[int, list] = {}
        for g in view.cats:
            colmap = np.array(
                [col_of.get((g.key, v), -1) for v in g.vocab], dtype=np.int64
            )
            rows, codes = g.rows, g.codes
            if (colmap < 0).any():  # unseen category encodes as all-zero
                ok = colmap[codes] >= 0
                rows, codes = rows[ok], codes[ok]
            hot.append((rows, codes, colmap))
            if g.key in covered:
                covered[g.key][g.rows] = True
        for g in view.nums:
            col = col_of.get((g.key, None))
            if col is None:
                raise SearchError(
                    f"numeric feature {g.key!r} was not seen during fit"
                )
            numeric.setdefault(col, []).append((g.rows, g.codes, g.table))
            if g.key in covered:
                covered[g.key][g.rows] = True
        absent = [(col_of[(key, ABSENT)], mask) for key, mask in covered.items()]
        return hot, numeric, absent

    def transform_matrix(self, view) -> np.ndarray:
        """Vectorized transform of a FeatureView — bitwise-identical to
        :meth:`transform` on the corresponding feature dicts."""
        hot, numeric, absent = self._writes(view)
        out = np.zeros((view.n, len(self._columns)))
        for rows, codes, colmap in hot:
            out[rows, colmap[codes]] = 1.0
        for col, writes in numeric.items():
            for rows, codes, table in writes:
                out[rows, col] = table[codes]
        for col, mask in absent:
            out[~mask, col] = 1.0
        return out

    def transform_codes(self, view) -> PoolCodes | None:
        """``pool_codes(self.transform_matrix(view))``, bitwise and None
        exactly where that is, with no float matrix on the way: one-hot
        columns are counted, never sorted, and a numeric column ranks
        only the table values its rows take."""
        hot, numeric, absent = self._writes(view)
        n = view.n
        out = np.zeros((len(self._columns), n), dtype=np.uint8)
        flat = out.reshape(-1)
        for rows, codes, colmap in hot:
            flat[(colmap * n)[codes] + rows] = 1
        for col, mask in absent:
            out[col, ~mask] = 1
        columns: list[np.ndarray] = []
        for j, (_key, cat) in enumerate(self._columns):
            if cat is None:
                ranked = _rank_column(n, 0.0, numeric.get(j, []))
                if ranked is None:
                    return None
                out[j], vocab = ranked
            else:
                lit = np.count_nonzero(out[j])
                vocab = np.array([v for v, k in ((0.0, n - lit), (1.0, lit)) if k])
                if lit == n:
                    out[j] = 0  # a constant 1 ranks 0 in [1.]
            columns.append(vocab)
        return PoolCodes(out, columns)

    def transform(self, feature_dicts: Sequence[dict[str, object]]) -> np.ndarray:
        """Encode dicts into a dense (n, d) float64 design matrix."""
        if self._columns is None:
            raise SearchError("binarizer has not been fit")
        out = np.zeros((len(feature_dicts), len(self._columns)))
        col_of: dict[tuple[str, str | None], int] = {
            c: i for i, c in enumerate(self._columns)
        }
        fit_keys = self._keys or []
        for row, feats in enumerate(feature_dicts):
            for key, value in feats.items():
                if isinstance(value, str):
                    col = col_of.get((key, value))
                    if col is not None:  # unseen category encodes as all-zero
                        out[row, col] = 1.0
                else:
                    col = col_of.get((key, None))
                    if col is None:
                        raise SearchError(
                            f"numeric feature {key!r} was not seen during fit"
                        )
                    out[row, col] = float(value)
            for key in fit_keys:
                if key not in feats:
                    col = col_of.get((key, ABSENT))
                    if col is not None:
                        out[row, col] = 1.0
        return out

    def fit_transform(self, feature_dicts: Sequence[dict[str, object]]) -> np.ndarray:
        return self.fit(feature_dicts).transform(feature_dicts)


class OrdinalEncoder:
    """The ablation foil for :class:`FeatureBinarizer`.

    Encodes each categorical feature as the *ordinal position* of its value
    in the sorted category list — exactly the naive encoding the paper's
    binarization replaces ("the resulting variants do not admit a natural
    ordinal relationship").  Benchmarks use it to quantify how much the
    binarization actually buys the surrogate.
    """

    def __init__(self) -> None:
        self._codes: dict[str, dict[str, int]] | None = None
        self._keys: list[str] | None = None

    def fit(self, feature_dicts: Sequence[dict[str, object]]) -> "OrdinalEncoder":
        if not feature_dicts:
            raise SearchError("cannot fit an encoder on an empty pool")
        self._keys = sorted(set().union(*feature_dicts))
        categories: dict[str, set[str]] = {}
        for feats in feature_dicts:
            for key, value in feats.items():
                if isinstance(value, str):
                    categories.setdefault(key, set()).add(value)
        self._codes = {
            key: {cat: n for n, cat in enumerate(sorted(cats))}
            for key, cats in categories.items()
        }
        return self

    def fit_view(self, view) -> "OrdinalEncoder":
        """FeatureView twin of :meth:`fit` (same keys, same code maps)."""
        if view.n == 0:
            raise SearchError("cannot fit an encoder on an empty pool")
        keys: set[str] = set()
        categories: dict[str, set[str]] = {}
        for g in view.cats:
            keys.add(g.key)
            categories.setdefault(g.key, set()).update(_observed(g))
        for g in view.nums:
            keys.add(g.key)
        self._keys = sorted(keys)
        self._codes = {
            key: {cat: n for n, cat in enumerate(sorted(cats))}
            for key, cats in categories.items()
        }
        return self

    def _writes(self, view) -> list[list]:
        """Per output column, the ``(rows, codes, table)`` writes of a
        FeatureView, in the order they apply."""
        if self._codes is None or self._keys is None:
            raise SearchError("encoder has not been fit")
        col_of = {key: i for i, key in enumerate(self._keys)}
        writes: list[list] = [[] for _ in self._keys]
        for g in view.cats:
            col = col_of.get(g.key)
            if col is None:
                continue  # key unseen at fit: dict transform ignores it too
            codes = self._codes.get(g.key, {})
            vmap = np.array([float(codes.get(v, -1)) for v in g.vocab])
            writes[col].append((g.rows, g.codes, vmap))
        for g in view.nums:
            col = col_of.get(g.key)
            if col is not None:
                writes[col].append((g.rows, g.codes, g.table))
        return writes

    def transform_matrix(self, view) -> np.ndarray:
        """Vectorized FeatureView transform, bitwise equal to
        :meth:`transform` on the corresponding dicts."""
        writes = self._writes(view)
        # Every (row, key) cell is either written below or the key is
        # absent for that row: start from the absent sentinel.
        out = np.full((view.n, len(writes)), -2.0)
        for col, column in enumerate(writes):
            for rows, codes, table in column:
                out[rows, col] = table[codes]
        return out

    def transform_codes(self, view) -> PoolCodes | None:
        """``pool_codes(self.transform_matrix(view))``, bitwise and None
        exactly where that is, with no float matrix on the way."""
        writes = self._writes(view)
        codes = np.empty((len(writes), view.n), dtype=np.uint8)
        columns: list[np.ndarray] = []
        for col, column in enumerate(writes):
            ranked = _rank_column(view.n, -2.0, column)
            if ranked is None:
                return None
            codes[col], vocab = ranked
            columns.append(vocab)
        return PoolCodes(codes, columns)

    def transform(self, feature_dicts: Sequence[dict[str, object]]) -> np.ndarray:
        if self._codes is None or self._keys is None:
            raise SearchError("encoder has not been fit")
        out = np.zeros((len(feature_dicts), len(self._keys)))
        for row, feats in enumerate(feature_dicts):
            for col, key in enumerate(self._keys):
                if key not in feats:  # absent kernel slot (mixed variants)
                    out[row, col] = -2.0
                    continue
                value = feats[key]
                if isinstance(value, str):
                    out[row, col] = float(self._codes.get(key, {}).get(value, -1))
                else:
                    out[row, col] = float(value)
        return out

    def fit_transform(self, feature_dicts: Sequence[dict[str, object]]) -> np.ndarray:
        return self.fit(feature_dicts).transform(feature_dicts)
