"""Ensemble of extremely randomized trees (the SURF surrogate model).

"We deploy statistical machine learning methods for building surrogate
models.  In particular, we choose randomized trees, … due to their ability
to handle the binarized parameters using recursive partitioning and to
model nonlinear interactions among the parameters."  (Section V)

The fit follows Geurts, Ernst & Wehenkel (2006) with every feature a
candidate: at each node, each feature that is not constant there draws
one threshold uniformly between its node min and max, and the candidate
with the largest variance reduction wins.  All trees grow together, one
depth level per step, in batched numpy (:meth:`ExtraTreesRegressor.fit`);
exact ties break uniformly at random, and each refit draws from its own
substream, so fits are reproducible for a given seed.  The trees draw no
bootstrap, so their nodes share sample sets, and a two-valued column (as
every one-hot column) splits a set the same way whatever its threshold:
those columns are scored once per distinct set, not once per node.

The fitted ensemble is one set of parallel node arrays (feature /
threshold / left / right / value, node ids running level by level across
all trees).  ``predict`` descends the whole ensemble in a single
depth-bounded vectorized loop over (tree, sample) pairs, and averages
the trees in tree order.

For repeated prediction over one fixed pool (the SURF driver's inner
loop), :class:`PoolCodes` + :meth:`ExtraTreesRegressor.make_router` go
further: tuning features take only a handful of distinct values per
column, so the pool compresses into per-column *rank codes* (column
major; the encoders write them straight from a pool's feature view, and
:func:`pool_codes` derives them from a float design matrix), and each
fitted forest compiles into a next-state table that
resolves every ``value <= threshold`` comparison per (node, code) pair
once, at build time (~ms).  Descent then costs two gathers per level —
no float loads, no comparisons — and stays bitwise-identical to
:meth:`predict` because ``x <= t``  ⟺  ``rank(x) < searchsorted(vocab,
t, 'right')`` exactly.  Large passes split row sets down the trees
instead (:meth:`PoolRouter.partition`), one test per node and each
shared split once, with the same addends in the same order.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SearchError
from repro.util.rng import spawn_rng

__all__ = [
    "ExtraTreesRegressor",
    "PoolCodes",
    "PoolRouter",
    "pool_codes",
]

#: Columns with more distinct values than this fall back to float descent.
MAX_ROUTER_CARD = 64

#: Bound of every fit temporary, however many nodes are open: scoring
#: takes blocks of sample sets or of nodes of at most this many (sample,
#: feature) cells, plus one set's or node's, and a chunk of nodes holds at
#: most this many (node, feature) cells, or one block's.
FIT_BLOCK_CELLS = 1 << 14

#: (tree, sample) states processed per descent block — sized to keep the
#: working set L2-resident instead of streaming pool-sized temporaries.
ROUTER_BLOCK_STATES = 1 << 16

#: ``PoolRouter.predict`` partitions a pass of at least this many rows
#: per forest node; below it, per-node Python overhead loses to the table
#: descent.
PARTITION_ROWS_PER_NODE = 2


class PoolCodes:
    """A design matrix compressed to per-column rank codes, column-major.

    ``codes[j, i]`` is the rank of ``X[i, j]`` within ``columns[j]`` (the
    sorted distinct values of column ``j``), so ``columns[j][codes[j, i]]``
    reconstructs ``X[i, j]`` bitwise.  Each column is contiguous: the
    partition predictor reads one column per node test.
    """

    def __init__(self, codes: np.ndarray, columns: list[np.ndarray]) -> None:
        self.codes = np.ascontiguousarray(codes)
        self.flat = self.codes.reshape(-1)
        self.columns = columns
        self.d, self.n = codes.shape
        # ``columns`` padded into one (d, max card) table for ``rows``.
        self._vocab = np.zeros((self.d, max((c.size for c in columns), default=1)))
        for j, vals in enumerate(columns):
            self._vocab[j, : vals.size] = vals

    def rows(self, ids: np.ndarray) -> np.ndarray:
        """Design-matrix rows ``X[ids]``, rebuilt bitwise from the codes."""
        ids = np.asarray(ids, dtype=np.int64)
        return self._vocab[np.arange(self.d), self.codes[:, ids].T]


def pool_codes(X: np.ndarray, max_card: int = MAX_ROUTER_CARD) -> PoolCodes | None:
    """Compress ``X`` into :class:`PoolCodes`, or None if any column has
    more than ``max_card`` distinct values (router not worthwhile/safe)."""
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    codes = np.empty((d, n), dtype=np.uint8)
    columns: list[np.ndarray] = []
    for j in range(d):
        vals = np.unique(X[:, j])
        if vals.size > max_card:
            return None
        codes[j] = np.searchsorted(vals, X[:, j])
        columns.append(vals)
    return PoolCodes(codes, columns)


class PoolRouter:
    """Per-fit routing tables for one forest over one coded pool.

    Each state packs ``(node << fbits) | feature``; one descent level is
    ``code = flat[(state & fmask) * n + row]`` followed by
    ``state = table[((state >> fbits) << shift) + code]``, where ``flat``
    is the pool's flat column-major code matrix (``pool.flat``).  Leaves
    self-loop, so running the loop for the ensemble's max depth lands
    every (tree, sample) pair on its leaf.  The same cuts, per node,
    drive the partition predictor (:meth:`partition`).  Every predictor
    reduces each row in fixed tree order, so it is bitwise equal to the
    float descent of :class:`ExtraTreesRegressor` on the same rows.
    """

    def __init__(self, forest: "ExtraTreesRegressor", pool: PoolCodes) -> None:
        feat = forest._feature
        nn = feat.size
        d = pool.d
        maxcard = max(c.size for c in pool.columns)
        shift = 1
        while (1 << shift) < maxcard:
            shift += 1
        fbits = 1
        while (1 << fbits) < d:
            fbits += 1
        card = 1 << shift
        needs64 = max(nn << shift, nn << fbits, pool.n * d) >= 2**31
        dtype = np.int64 if needs64 else np.int32
        packed = ((np.arange(nn, dtype=np.int64) << fbits)
                  | np.maximum(feat, 0)).astype(dtype)
        table = np.empty((nn, card), dtype=dtype)
        table[:] = packed[:, None]  # leaves (and unused codes) self-loop
        internal = np.flatnonzero(feat >= 0)
        node_cut = np.zeros(nn, dtype=np.int64)
        if internal.size:
            fi = feat[internal]
            thr = forest._threshold[internal]
            cut = np.empty(internal.size, dtype=np.int64)
            for j in np.unique(fi):
                sel = fi == j
                cut[sel] = np.searchsorted(
                    pool.columns[j], thr[sel], side="right"
                )
            node_cut[internal] = cut
            go_left = np.arange(card)[None, :] < cut[:, None]
            table[internal] = np.where(
                go_left,
                packed[forest._left[internal], None],
                packed[forest._right[internal], None],
            )
        self.pool = pool
        self.table = table.reshape(-1)
        self.value = forest._value
        # Trees sorted deepest-first: at level L only the prefix of trees
        # deeper than L still routes, so each tree costs exactly its own
        # depth instead of the ensemble max.
        self.order = np.argsort(-forest._tree_depths, kind="stable")
        self.roots = packed[forest._roots][self.order]
        self.depth = forest._max_depth
        self.active = np.searchsorted(
            -forest._tree_depths[self.order], -np.arange(max(self.depth, 1)),
            side="left",
        )
        self.shift = shift
        self.fbits = fbits
        self.fmask = (1 << fbits) - 1
        self.nt = forest._roots.size
        self.dtype = np.dtype(dtype)
        #: Per node: split column (-1 for a leaf), code cut (a row goes
        #: right when its code is ``>= cut``), and child node ids.
        self.column = feat
        self.cut = node_cut
        self.left = forest._left
        self.right = forest._right

    def _descend(self, ids: np.ndarray):
        """Yield ``(start, stop, seed_values)`` leaf-value blocks, with
        trees back in seed order — the shared core of the table descent."""
        ids = np.asarray(ids, dtype=np.int64)
        m = ids.size
        nt, n = self.nt, self.pool.n
        flat, table = self.pool.flat, self.table
        fmask, fbits, shift = self.fmask, self.fbits, self.shift
        block = max(1, ROUTER_BLOCK_STATES // max(nt, 1))
        for s in range(0, m, block):
            e = min(s + block, m)
            blk = e - s
            st = np.repeat(self.roots, blk).reshape(nt, blk)
            row = ids[s:e].astype(self.dtype)[None, :]
            for lvl in range(self.depth):
                a = int(self.active[lvl])
                part = st[:a]
                at = part & fmask
                at *= n
                at += row
                st[:a] = table[((part >> fbits) << shift) + flat[at]]
            values = self.value[st >> fbits]
            seed_values = np.empty_like(values)
            seed_values[self.order] = values  # back to seed tree order
            yield s, e, seed_values

    def predict(self, ids: np.ndarray, stats: dict | None = None) -> np.ndarray:
        """Ensemble mean over pool rows — bitwise equal to
        ``forest.predict(X[ids])``.

        Passes of at least ``PARTITION_ROWS_PER_NODE`` rows per forest
        node take :meth:`partition`, smaller ones :meth:`descend`.
        ``stats``, when given, is filled with the ``path`` taken (and the
        partition's split counts)."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size >= PARTITION_ROWS_PER_NODE * self.column.size:
            return self.partition(ids, stats)
        if stats is not None:
            stats["path"] = "table"
        return self.descend(ids)

    def descend(self, ids: np.ndarray) -> np.ndarray:
        """Ensemble mean by next-state table descent.

        Fused with the descent: each block accumulates its own mean in
        seed tree order instead of materializing the (nt, m) leaf matrix
        twice (per-row sums see the same addends in the same order, so
        block width cannot change a bit)."""
        ids = np.asarray(ids, dtype=np.int64)
        acc = np.zeros(ids.size)
        for s, e, seed_values in self._descend(ids):
            sub = acc[s:e]
            for row in seed_values:  # seed accumulation order: tree 0, 1, ...
                sub += row
        return acc / self.nt

    def split_users(self) -> tuple[np.ndarray, np.ndarray]:
        """The structural pass of :meth:`partition`: a split id per node
        (-1 for a leaf) and the number of nodes that use each split.

        Nodes share a split when they test the same column at the same
        cut on the same parent path, so they send the same rows the same
        way.  A path is the split above plus the side taken; the roots
        share the empty path.  Level by level, over all trees at once."""
        column, cut, left, right = self.column, self.cut, self.left, self.right
        split = np.full(column.size, -1, dtype=np.int64)
        path = np.zeros(column.size, dtype=np.int64)
        users = []
        frontier = self.roots >> self.fbits
        n_splits = 0
        while frontier.size:
            inner = frontier[column[frontier] >= 0]
            # One int per (path, column, cut); a cut is at most 256, since
            # codes are uint8.
            key = (path[inner] * self.pool.d + column[inner]) * 257 + cut[inner]
            _, inverse, count = np.unique(
                key, return_inverse=True, return_counts=True
            )
            sid = n_splits + inverse
            split[inner] = sid
            path[left[inner]] = 2 * sid + 1
            path[right[inner]] = 2 * sid + 2
            users.append(count)
            n_splits += count.size
            frontier = np.concatenate((left[inner], right[inner]))
        return split, np.concatenate(users)

    def partition(self, ids: np.ndarray, stats: dict | None = None) -> np.ndarray:
        """Ensemble mean by splitting row sets down the trees — bitwise
        equal to :meth:`descend`.

        Each tree, in seed order, splits the rows down its nodes with one
        test per node on one contiguous code column; its leaves write
        their values into a pool-sized buffer, which is added to the sum
        after the tree, so each row gets the same addends in the same
        order as the table descent.  A split is computed once per
        distinct (parent path, column, cut), handed to every later tree
        that reaches it, and dropped after its last user
        (:meth:`split_users`).  ``stats`` gets the distinct ``splits``
        computed, the ``split_rows`` they split, and the splits still
        ``held`` at the end (0: every user came)."""
        ids = np.asarray(ids, dtype=np.int64)
        split, users = self.split_users()
        waiting = users.tolist()
        column = self.column.tolist()
        cut = self.cut.tolist()
        left = self.left.tolist()
        right = self.right.tolist()
        value = self.value.tolist()
        sid = split.tolist()
        codes = list(self.pool.codes)
        n = self.pool.n
        seed_roots = np.empty(self.nt, dtype=np.int64)
        seed_roots[self.order] = self.roots >> self.fbits
        held: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        splits = split_rows = 0
        acc = np.zeros(n)
        buf = np.zeros(n)
        for root in seed_roots.tolist():
            stack = [(root, ids)] if ids.size else []
            while stack:
                node, rows = stack.pop()
                j = column[node]
                if j < 0:
                    buf[rows] = value[node]
                    continue
                s = sid[node]
                sides = held.get(s)
                if sides is None:
                    go_right = codes[j][rows] >= cut[node]
                    sides = rows[~go_right], rows[go_right]
                    splits += 1
                    split_rows += rows.size
                waiting[s] -= 1
                if waiting[s]:
                    held[s] = sides
                else:
                    held.pop(s, None)
                lo, hi = sides
                if hi.size:
                    stack.append((right[node], hi))
                if lo.size:
                    stack.append((left[node], lo))
            acc += buf
        if stats is not None:
            stats.update(
                path="partition", splits=splits, split_rows=split_rows,
                held=len(held),
            )
        return acc[ids] / self.nt

    def predict_mean_std(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Both ensemble moments from a single table descent — bitwise
        equal to ``forest.predict(X[ids])`` and ``forest.predict_std(X[ids])``.

        Acquisition rules that need uncertainty (e.g. a lower confidence
        bound) get both here for one descent."""
        ids = np.asarray(ids, dtype=np.int64)
        mean = np.zeros(ids.size)
        std = np.empty(ids.size)
        for s, e, seed_values in self._descend(ids):
            sub = mean[s:e]
            for row in seed_values:
                sub += row
            std[s:e] = seed_values.std(axis=0)
        return mean / self.nt, std


def _blocks(counts: np.ndarray, width: int) -> list[tuple[int, int]]:
    """``[a, b)`` runs of consecutive entries of ``counts`` rows by
    ``width`` columns whose first cells fall in one window of
    ``FIT_BLOCK_CELLS``: the fit's block rule.  A run spans at most that
    many cells plus its last entry's."""
    if (int(counts.sum()) - int(counts[-1])) * width < FIT_BLOCK_CELLS:
        return [(0, counts.size)]
    block = (np.cumsum(counts) - counts) * width // FIT_BLOCK_CELLS
    cut = (np.flatnonzero(block[1:] != block[:-1]) + 1).tolist()
    return list(zip([0, *cut], [*cut, counts.size]))


def _chunks(blocks, width: int) -> list[list]:
    """Whole blocks grouped, in order, into chunks of at most
    ``FIT_BLOCK_CELLS`` (entry x ``width``) cells, or one larger block:
    ``[a, b, sizes]`` per chunk, ``sizes`` its blocks' entry counts."""
    chunks: list[list] = []
    for a, b in blocks:
        if chunks and (b - chunks[-1][0]) * width <= FIT_BLOCK_CELLS:
            chunks[-1][1] = b
            chunks[-1][2].append(b - a)
        else:
            chunks.append([a, b, [b - a]])
    return chunks


def _gather(rows, starts, counts, ids):
    """The rows of sets ``ids``, concatenated."""
    cnt = counts[ids]
    offset = np.cumsum(cnt) - cnt
    return rows[np.repeat(starts[ids] - offset, cnt) + np.arange(int(cnt.sum()))]


def _score(usable, n_a, s_a, counts, sums):
    """Variance reduction up to terms constant per node: sum of (side
    sum)^2 / (side count).  Unusable features score ``-inf``; their
    empty side divides by 1 instead (a floating-point error would cost
    more than the whole score on a small level)."""
    n_b = counts[:, None] - n_a
    s_b = sums[:, None] - s_a
    return np.where(
        usable,
        s_a * s_a / np.maximum(n_a, 1) + s_b * s_b / np.maximum(n_b, 1),
        -np.inf,
    )


def _score_sets(high, y, rows, counts, sums):
    """Two-valued columns on one block of sample sets (``rows`` set after
    set, ``counts`` per set): the count ``c1`` of high values, the usable
    mask and the score of each (set, column).

    Any threshold of a two-valued column sends the low rows left and the
    high rows right, so none of this depends on the draw.  The side sum
    is taken as in :func:`_score_nodes`: over the side that holds the
    set's first row, the set's other rows adding zeros in place, so a set
    scores bitwise as each of its nodes would (and complementary twins
    tie exactly)."""
    starts = np.cumsum(counts) - counts
    hb = high[rows]
    c1 = np.add.reduceat(hb, starts, axis=0, dtype=np.int64)
    first = hb[starts]
    side = hb == np.repeat(first, counts, axis=0)
    n_a = np.where(first, c1, counts[:, None] - c1)
    s_a = np.add.reduceat(side * y[rows][:, None], starts, axis=0)
    usable = (c1 > 0) & (c1 < counts[:, None])
    return c1, usable, _score(usable, n_a, s_a, counts, sums)


def _score_nodes(X, y, rows, counts, sums, draws):
    """Columns of more than two values on one block of open nodes (``rows``
    node after node): each column that is not constant in a node draws
    one threshold uniformly in [node min, node max).  Returns the usable
    mask, the thresholds, the left counts and the scores per (node,
    column)."""
    starts = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(counts.size), counts)
    Xb = X[rows]
    lo = np.minimum.reduceat(Xb, starts, axis=0)
    hi = np.maximum.reduceat(Xb, starts, axis=0)
    usable = hi > lo
    thr = lo + draws * (hi - lo)
    thr = np.where(thr < hi, thr, lo)  # rounding may land on max
    # Sum the side that holds the node's first sample: complementary
    # columns then add the same terms in the same order, so they score
    # bitwise equal and the tie draw (not float noise) picks one.
    first = Xb[starts] <= thr
    side = (Xb <= thr[owner]) == first[owner]
    n_a = np.add.reduceat(side, starts, axis=0, dtype=np.int64)
    s_a = np.add.reduceat(side * y[rows][:, None], starts, axis=0)
    n_left = np.where(first, n_a, counts[:, None] - n_a)
    return usable, thr, n_left, _score(usable, n_a, s_a, counts, sums)


class _Columns:
    """One fit's training columns.  Columns constant over the training set
    can never split and are dropped; the rest are *two-valued* (exactly
    two values, as every one-hot column) or *other* (more values)."""

    def __init__(self, X: np.ndarray, y: np.ndarray) -> None:
        self.y = y
        self.cols = np.flatnonzero(X.max(axis=0) > X.min(axis=0))
        self.X = Xs = np.ascontiguousarray(X[:, self.cols])
        self.lo, self.hi = lo, hi = Xs.min(axis=0), Xs.max(axis=0)
        self.two = two = ((Xs == lo) | (Xs == hi)).all(axis=0)
        self.ti, self.oi = ti, oi = np.flatnonzero(two), np.flatnonzero(~two)
        #: Two-valued columns: is the row's value the high one.
        self.high = Xs[:, ti] == hi[ti]
        self.other = np.ascontiguousarray(Xs[:, oi])
        #: A column's index among the columns of its kind.
        self.at = np.empty(self.cols.size, dtype=np.int64)
        self.at[ti] = np.arange(ti.size)
        self.at[oi] = np.arange(oi.size)


def _split_level(data: _Columns, rng, rows, starts, set_counts, set_sums,
                 varies, node_set, stats):
    """Best (feature, threshold) and left count of every open node of one
    level; feature ``-1`` where the node's set does not vary or no feature
    splits it.

    Two-valued columns are scored once per distinct varying set; other
    columns per node, with the node's own threshold draw.  Then, chunk by
    chunk, every varying node takes the best score (exact ties go to a
    uniform draw), and the picked column's threshold and left count."""
    ti, oi, C = data.ti, data.oi, data.cols.size
    k = node_set.size
    feature = np.full(k, -1)
    threshold = np.zeros(k)
    n_left = np.zeros(k, dtype=np.int64)
    counts = set_counts[node_set]
    split = np.flatnonzero(varies[node_set])
    if not split.size:
        return feature, threshold, n_left
    vsets = np.flatnonzero(varies)
    vcounts = set_counts[vsets]
    vrows = rows[np.repeat(varies, set_counts)]
    row_at = np.concatenate(([0], np.cumsum(vcounts)))
    stats["sets"] += vsets.size
    stats["set_rows"] += vrows.size
    stats["node_rows"] += int(counts[split].sum())
    # Per varying set, in column order (other columns left to the nodes).
    slot = np.zeros(varies.size, dtype=np.int64)
    slot[vsets] = np.arange(vsets.size)
    set_score = np.empty((vsets.size, C))
    set_c1 = np.zeros((vsets.size, C), dtype=np.int64)
    set_usable = np.zeros(vsets.size, dtype=bool)
    for a, b in _blocks(vcounts, ti.size) if ti.size else ():
        c1, usable, score = _score_sets(
            data.high, data.y, vrows[row_at[a]:row_at[b]], vcounts[a:b],
            set_sums[vsets[a:b]],
        )
        set_c1[a:b, ti] = c1
        set_score[a:b, ti] = score
        set_usable[a:b] = usable.any(axis=1)
    for a0, b0, sizes in _chunks(_blocks(counts[split], C), C):
        nodes, kc = split[a0:b0], b0 - a0
        draws = rng.random((2 * kc, C))
        # Each block's threshold rows, then its tie rows.
        if len(sizes) == 1:
            thr_u, tie_u = draws[:kc], draws[kc:]
        else:
            row = np.arange(kc) + np.repeat(np.cumsum(sizes) - sizes, sizes)
            thr_u, tie_u = draws[row], draws[row + np.repeat(sizes, sizes)]
        sets = node_set[nodes]
        ncounts = counts[nodes]
        s = slot[sets]
        score = set_score[s]
        usable = set_usable[s]
        thr_o = np.empty((kc, oi.size))
        left_o = np.empty((kc, oi.size), dtype=np.int64)
        for a, b in _blocks(ncounts, oi.size) if oi.size else ():
            us, thr_o[a:b], left_o[a:b], score[a:b, oi] = _score_nodes(
                data.other, data.y, _gather(rows, starts, set_counts, sets[a:b]),
                ncounts[a:b], set_sums[sets[a:b]], thr_u[a:b, oi],
            )
            usable[a:b] |= us.any(axis=1)
        tie = score == score.max(axis=1)[:, None]
        pick = np.argmax(np.where(tie, tie_u, -1.0), axis=1)
        feature[nodes] = np.where(usable, pick, -1)
        # The picked column's threshold and left count.  A two-valued
        # column's node min and max follow from c1, and it sends its
        # low rows left.
        c = set_c1[s, pick]
        lo, hi = data.lo[pick], data.hi[pick]
        lo, hi = np.where(c < ncounts, lo, hi), np.where(c > 0, hi, lo)
        t = lo + thr_u[np.arange(kc), pick] * (hi - lo)
        t = np.where(t < hi, t, lo)
        nl = ncounts - c
        if oi.size:
            other = ~data.two[pick]
            j = np.arange(kc), np.minimum(data.at[pick], oi.size - 1)
            t = np.where(other, thr_o[j], t)
            nl = np.where(other, left_o[j], nl)
        threshold[nodes] = t
        n_left[nodes] = nl
    return feature, threshold, n_left


class ExtraTreesRegressor:
    """Averaged extremely-randomized-trees regressor.

    Parameters
    ----------
    n_estimators:
        Ensemble size.
    seed:
        Base seed; refit ``k`` draws from ``spawn_rng(seed, "forest", k)``.
    """

    def __init__(self, n_estimators: int = 30, seed: int = 0) -> None:
        if n_estimators < 1:
            raise SearchError("need at least one tree")
        self.n_estimators = n_estimators
        self.seed = seed
        self._fit_count = 0
        # Node arrays of the whole ensemble, level by level (set by fit):
        self._roots: np.ndarray | None = None
        self._feature: np.ndarray | None = None  # split feature, -1 for leaf
        self._threshold: np.ndarray | None = None
        self._left: np.ndarray | None = None
        self._right: np.ndarray | None = None
        self._value: np.ndarray | None = None
        self._max_depth = 0
        self._tree_depths: np.ndarray | None = None
        #: The last fit's sharing counts (see :meth:`fit`).
        self.fit_stats: dict[str, int] = {}

    def fit(self, X: np.ndarray, y: np.ndarray) -> "ExtraTreesRegressor":
        """(Re)fit every tree; each refit draws from a fresh substream.

        All trees grow together, one depth level per step.  The trees draw
        no bootstrap, so their open nodes share *sample sets*: each open
        node holds a set id (the roots share set 0), and a set holds its
        rows in ascending order.  Per level, each distinct set's target
        sum, value and "targets vary" test are taken once, from its rows
        in the order any node on the set would take them, so they are
        bitwise the node's (:func:`_split_level` scores the columns).
        Children get one partition per distinct (set, feature, left
        count).  Trees grow fully: a node is a leaf when its targets are
        all equal or no feature splits it.  Node ids run level by level
        across the ensemble (roots ``0 .. n_estimators - 1``).

        Draws follow blocks of consecutive varying nodes whose first
        (sample x feature) cells fall in one ``FIT_BLOCK_CELLS`` window: a
        block draws one threshold per (node, feature), then one tie key
        per (node, feature).  Whole blocks are taken in chunks of at most
        ``FIT_BLOCK_CELLS`` (node x feature) cells, one ``rng.random``
        call per chunk, so the stream is the same as one call per block.

        ``fit_stats`` counts the distinct varying ``sets`` scored, the
        ``set_rows`` they hold and the ``node_rows`` of the varying nodes
        (what per-node scoring would touch), summed over levels."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise SearchError(f"bad training shapes X{X.shape} y{y.shape}")
        n = X.shape[0]
        if n == 0:
            raise SearchError("cannot fit a forest on zero samples")
        rng = spawn_rng(self.seed, "forest", self._fit_count)
        self._fit_count += 1
        data = _Columns(X, y)
        C = data.cols.size
        nt = self.n_estimators
        rows = np.arange(n)  # the level's sample sets, set after set
        set_counts = np.array([n])
        node_set = np.zeros(nt, dtype=np.int64)
        tree = np.arange(nt)
        depths = np.zeros(nt, dtype=np.int64)
        stats = {"sets": 0, "set_rows": 0, "node_rows": 0}
        levels = []
        next_id = nt
        level = 0
        while True:
            starts = np.cumsum(set_counts) - set_counts
            yr = y[rows]
            set_sums = np.add.reduceat(yr, starts)
            varies = (np.minimum.reduceat(yr, starts)
                      < np.maximum.reduceat(yr, starts)) & (C > 0)
            feature, threshold, n_left = _split_level(
                data, rng, rows, starts, set_counts, set_sums, varies,
                node_set, stats,
            )
            k = node_set.size
            inner = np.flatnonzero(feature >= 0)
            left = np.full(k, -1)
            right = np.full(k, -1)
            left[inner] = next_id + 2 * np.arange(inner.size)
            right[inner] = left[inner] + 1
            next_id += 2 * inner.size
            column = np.full(k, -1)
            column[inner] = data.cols[feature[inner]]
            levels.append(
                (column, threshold, left, right, (set_sums / set_counts)[node_set])
            )
            if inner.size == 0:
                break
            level += 1
            depths[tree[inner]] = level
            # Children: one partition per distinct (set, feature, left
            # count).  On one set and one column, thresholds that send as
            # many rows left send the same rows.
            key = (node_set[inner] * C + feature[inner]) * (n + 1) + n_left[inner]
            _, rep, child = np.unique(key, return_index=True, return_inverse=True)
            rep = inner[rep]
            part_rows = _gather(rows, starts, set_counts, node_set[rep])
            part_counts = set_counts[node_set[rep]]
            owner = np.repeat(np.arange(rep.size), part_counts)
            go_right = (data.X[part_rows, feature[rep][owner]]
                        > threshold[rep][owner])
            rows = part_rows[np.argsort(2 * owner + go_right, kind="stable")]
            set_counts = np.empty(2 * rep.size, dtype=np.int64)
            set_counts[0::2] = n_left[rep]
            set_counts[1::2] = part_counts - n_left[rep]
            node_set = np.empty(2 * inner.size, dtype=np.int64)
            node_set[0::2] = 2 * child
            node_set[1::2] = 2 * child + 1
            tree = np.repeat(tree[inner], 2)
        self._feature, self._threshold, self._left, self._right, self._value = (
            np.concatenate(parts) for parts in zip(*levels)
        )
        self._roots = np.arange(nt)
        self._tree_depths = depths
        self._max_depth = level
        self.fit_stats = stats
        return self

    @property
    def node_count(self) -> int:
        """Nodes of the fitted ensemble, leaves included."""
        self._require_fit()
        return int(self._feature.size)

    @property
    def depth(self) -> int:
        """Depth of the deepest fitted tree (0 = every tree a single leaf)."""
        self._require_fit()
        return self._max_depth

    def _require_fit(self) -> None:
        if self._feature is None:
            raise SearchError("forest has not been fit")

    def make_router(self, pool: PoolCodes | None) -> "PoolRouter | None":
        """Compile this fit's trees into a :class:`PoolRouter` over ``pool``
        (None in, None out — callers thread the fallback through)."""
        self._require_fit()
        if pool is None:
            return None
        return PoolRouter(self, pool)

    def _leaf_values(self, X: np.ndarray) -> np.ndarray:
        """Per-tree leaf predictions, shape ``(n_estimators, n_samples)``.

        One active-set descent over all (tree, sample) pairs at once: each
        pair starts at its tree's root and the loop runs until every pair
        sits on a leaf (bounded by the deepest tree).
        """
        self._require_fit()
        X = np.asarray(X, dtype=np.float64)
        n = X.shape[0]
        nt = self._roots.size
        cur = np.repeat(self._roots, n)  # row-major (tree, sample) order
        sample = np.tile(np.arange(n, dtype=np.int64), nt)
        active = np.flatnonzero(self._feature[cur] >= 0)
        while active.size:
            node = cur[active]
            go_left = X[sample[active], self._feature[node]] <= self._threshold[node]
            nxt = np.where(go_left, self._left[node], self._right[node])
            cur[active] = nxt
            active = active[self._feature[nxt] >= 0]
        return self._value[cur].reshape(nt, n)

    @staticmethod
    def _mean(leaves: np.ndarray) -> np.ndarray:
        """Tree-order ensemble mean — the router accumulates identically."""
        acc = np.zeros(leaves.shape[1])
        for row in leaves:
            acc += row
        return acc / leaves.shape[0]

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._mean(self._leaf_values(X))

    def predict_std(self, X: np.ndarray) -> np.ndarray:
        """Cross-tree standard deviation (a cheap uncertainty proxy)."""
        return self._leaf_values(X).std(axis=0)

    def predict_mean_std(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Both ensemble moments from one leaf descent — bitwise equal to
        ``(predict(X), predict_std(X))`` at half the tree walks."""
        leaves = self._leaf_values(X)
        return self._mean(leaves), leaves.std(axis=0)

    def score(self, X: np.ndarray, y: np.ndarray) -> float:
        """Coefficient of determination R^2 on (X, y)."""
        y = np.asarray(y, dtype=np.float64)
        pred = self.predict(X)
        ss_res = float(((y - pred) ** 2).sum())
        ss_tot = float(((y - y.mean()) ** 2).sum())
        if ss_tot == 0.0:
            return 1.0 if ss_res == 0.0 else 0.0
        return 1.0 - ss_res / ss_tot
