"""SURF — Algorithm 2 of the paper, plus the shared search-result type.

.. code-block:: text

    Input: configuration pool Xp, batch size bs, max evaluations nmax
    1  Xout <- sample min{bs, nmax} distinct configurations from Xp
    2  Yout <- Evaluate_Parallel(Xout)
    3  M    <- fit(Xout, Yout)
    4  Xp   <- Xp - Xout
    5  for i <- bs+1 to nmax:
    6      Yp  <- predict(M, Xp)
    7      x   <- select bs configurations from Xp with best predicted Yp
    8      y   <- Evaluate_Parallel(x)
    9      retrain M with (x, y)
    10     Xout, Yout <- Xout + x, Yout + y;  Xp <- Xp - x
    Output: x in Xout with the best performance in Yout

The surrogate is the extremely-randomized-trees ensemble over binarized
features.  Determinism: sampling, tree fitting and tie-breaking all run on
seeded substreams.

The driver is array-native: the pool is ids (see :mod:`repro.surf.pool`),
binarized once, straight to per-column rank codes; the not-yet-dispatched
set is a boolean mask, selection takes the bottom-k by argpartition, and
prediction over the pool runs through the forest's coded router
(:mod:`repro.surf.forest`).  Config objects are materialized only for
evaluation batches, the champion, and checkpoints.

:class:`SearchHistory` is what SURF and the random and exhaustive
baselines share: it evaluates a batch, records it in growable arrays,
tracks the useful count and the champion, and writes and restores the
history half of a checkpoint.  Each driver keeps only its own selection
state.

Fault tolerance (see :mod:`repro.surf.faults`): failed evaluations
come back as ``+inf`` observations.  They enter the history (the search
*learned* the point is bad) but are clamped to the penalty value before
surrogate training so an infinite target cannot poison the forest, and
they do not consume the evaluation budget — each batch's failures are
replenished from the pool on later iterations, so ``nmax`` still buys
``nmax`` *useful* evaluations (until the pool runs dry).  With no
failures, the behavior — including every rng draw — is bitwise identical
to the failure-oblivious algorithm.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.errors import CheckpointError, SearchError
from repro.obs.tracer import get_tracer
from repro.surf.binarize import FeatureBinarizer, OrdinalEncoder
from repro.surf.checkpoint import SearchCheckpointer, rng_state, set_rng_state
from repro.surf.evaluator import PENALTY_SECONDS
from repro.surf.forest import ExtraTreesRegressor, PoolCodes, pool_codes
from repro.surf.pool import GrowableArray, SpacePool, as_pool
from repro.surf.telemetry import SearchTelemetry
from repro.tcr.space import ProgramConfig
from repro.util.rng import spawn_rng

__all__ = ["SearchHistory", "SearchResult", "SURFSearch", "clamp_targets"]

#: Surrogate forest size.
N_ESTIMATORS = 30

#: Share of each batch drawn at random instead of by predicted rank: it
#: keeps the surrogate from tunnel-visioning on one region ("the batching
#: allows for a higher degree of parameter space exploration", Section V).
EXPLORE_FRACTION = 0.2


def _bottom_k_lex(preds: np.ndarray, perm: np.ndarray, k: int) -> np.ndarray:
    """Bottom-``k`` of the (preds, perm) lexicographic order — exactly
    ``np.lexsort((perm, preds))[:k]``, sorting only the candidate slice."""
    n = preds.size
    if k >= n:
        return np.lexsort((perm, preds))[:k]
    part = np.argpartition(preds, k - 1)[:k]
    pivot = preds[part].max()
    cand = np.flatnonzero(preds <= pivot)  # superset: all possible winners
    ranked = cand[np.lexsort((perm[cand], preds[cand]))]
    return ranked[:k]


def _encode_pool(
    pool, encoder: FeatureBinarizer | OrdinalEncoder
) -> tuple[PoolCodes | None, np.ndarray | None]:
    """The pool as the loop reads it: ``(codes, None)``, or ``(None, X)``
    when a column has too many values for rank codes.  A
    :class:`SpacePool`'s codes come straight from its feature view; any
    other pool rank-codes its float design matrix, then drops it.  The
    ``search.encode`` span records the ``path`` (``codes``, or ``matrix``
    where the matrix was built) and the ``kept_bytes`` the loop holds."""
    tracer = get_tracer()
    n = len(pool)
    with tracer.span("search.encode", category="search", rows=n) as sp:
        X = None
        if isinstance(pool, SpacePool):
            codes = pool.codes(encoder)
            if codes is None:  # pool_codes(X) would be None as well
                X = pool.design_matrix(encoder)
        else:
            X = pool.design_matrix(encoder)
            with tracer.span("search.codes", category="search", rows=n):
                codes = pool_codes(X)
        sp.set(path="codes" if X is None else "matrix")
        if codes is not None:
            X = None
        sp.set(kept_bytes=int(X.nbytes if codes is None else codes.codes.nbytes))
    return codes, X


def clamp_targets(y: np.ndarray) -> np.ndarray:
    """Make failure observations (``+inf``) safe for surrogate training.

    Failed evaluations are clamped to the invalid-configuration penalty:
    the model still learns the region is bad, but the fit is not destroyed
    by infinities (and the log-time target stays finite).
    """
    return np.where(np.isfinite(y), y, PENALTY_SECONDS)


@dataclass
class SearchResult:
    """Outcome of one search run (shared by SURF and the baselines)."""

    searcher: str
    best_config: ProgramConfig
    best_objective: float
    history: list[tuple[ProgramConfig, float]] = field(repr=False, default_factory=list)
    evaluations: int = 0
    simulated_wall_seconds: float = 0.0
    #: per-batch event records of the run (None if telemetry was disabled)
    telemetry: SearchTelemetry | None = field(repr=False, default=None)

    def best_so_far(self) -> list[float]:
        """Running minimum of the objective — the convergence curve."""
        if not self.history:
            return []
        ys = np.array([y for _cfg, y in self.history])
        return np.minimum.accumulate(ys).tolist()


class SearchHistory:
    """What every pool searcher records, and its half of a checkpoint.

    SURF, random and exhaustive search differ only in how they pick the
    next batch of pool ids.  This core evaluates each batch, refusing one
    the evaluator answers with the wrong number of values, and holds the
    evaluated pool ids, objectives and configs, the useful (finite) count
    that the ``nmax`` budget buys, and the index of the first best value,
    which is the champion (strict ``<``, like ``argmin``).  A checkpoint
    state is ``searcher`` and ``history`` from here, then the driver's
    selection state, then ``telemetry``; resume recounts the useful count
    and the champion from the history.
    """

    def __init__(
        self,
        name: str,
        pool: Sequence[ProgramConfig],
        evaluate_batch: Callable[[Sequence[ProgramConfig]], list[float]],
        telemetry: SearchTelemetry | None = None,
        checkpointer: SearchCheckpointer | None = None,
    ) -> None:
        self.name = name
        self.pool = as_pool(pool)
        if len(self.pool) == 0:
            raise SearchError("configuration pool is empty")
        self.evaluate_batch = evaluate_batch
        self.telemetry = telemetry if telemetry is not None else SearchTelemetry()
        self.checkpointer = checkpointer
        self.history: list[tuple[ProgramConfig, float]] = []
        self.ids = GrowableArray(np.int64)
        self.ys = GrowableArray(np.float64)
        self.useful = 0
        self.best_i = 0
        self.best_y = float("inf")

    def __len__(self) -> int:
        return len(self.history)

    def resume(self) -> dict | None:
        """Restore the checkpointed run's history and telemetry; return its
        state (None on a fresh run) for the driver's selection state."""
        state = None if self.checkpointer is None else self.checkpointer.resume_state
        if state is None:
            return None
        if state.get("searcher") != self.name:
            raise CheckpointError(
                f"checkpoint belongs to searcher {state.get('searcher')!r}, "
                f"cannot resume with {self.name!r}"
            )
        ids = [int(i) for i, _y in state["history"]]
        ys = [float(y) for _i, y in state["history"]]
        self._append(ids, self.pool.configs(ids), ys)
        self.telemetry.restore_state(state["telemetry"])
        return state

    def run_batch(self, ids: list[int]) -> None:
        """Evaluate the pool points ``ids`` and append them to the history."""
        tracer = get_tracer()
        with tracer.span("search.materialize", category="search", batch=len(ids)):
            configs = self.pool.configs(ids)
        with tracer.span("search.evaluate", category="search", batch=len(ids)):
            ys = self.evaluate_batch(configs)
        if len(ys) != len(configs):
            raise SearchError("evaluator returned a mismatched batch")
        with tracer.span("search.history", category="search", batch=len(ids)):
            self._append(ids, configs, [float(y) for y in ys])

    def _append(self, ids: list[int], configs, ys: list[float]) -> None:
        for cfg, y in zip(configs, ys):
            if y < self.best_y:
                self.best_i, self.best_y = len(self.history), y
            self.history.append((cfg, y))
        self.ids.extend(ids)
        self.ys.extend(ys)
        self.useful += int(np.isfinite(np.array(ys)).sum())

    def end_batch(
        self,
        batch_size: int,
        selection_state: Callable[[], dict] = dict,
        fit_seconds: float = 0.0,
    ) -> None:
        """Record the batch's telemetry, then checkpoint the run; the
        driver's ``selection_state()`` (none by default) is built only when
        checkpointing."""
        self.telemetry.record_batch(
            batch_size=batch_size, best_so_far=self.best_y, fit_seconds=fit_seconds
        )
        if self.checkpointer is None:
            return
        history = zip(self.ids.view.tolist(), self.ys.view.tolist())
        self.checkpointer.save(
            {
                "searcher": self.name,
                "history": [[i, y] for i, y in history],
                **selection_state(),
                "telemetry": self.telemetry.snapshot_state(),
            }
        )

    def result(self, wall_seconds: Callable[[], float] | None) -> SearchResult:
        """The run's outcome, with the first best value as the champion."""
        best_config, best_objective = self.history[self.best_i]
        return SearchResult(
            searcher=self.name,
            best_config=best_config,
            best_objective=best_objective,
            history=self.history,
            evaluations=len(self.history),
            simulated_wall_seconds=wall_seconds() if wall_seconds else 0.0,
            telemetry=self.telemetry,
        )


class SURFSearch:
    """Model-based search over a finite configuration pool.

    Parameters
    ----------
    batch_size:
        ``bs`` — concurrent evaluations per iteration.
    max_evaluations:
        ``nmax`` — total evaluation budget.
    seed:
        Drives pool sampling, surrogate randomness and tie-breaking.
    """

    name = "surf"

    def __init__(
        self,
        batch_size: int = 10,
        max_evaluations: int = 100,
        seed: int = 0,
        binarize: bool = True,
    ) -> None:
        """The forest (:data:`N_ESTIMATORS` trees) fits log-times: the
        objective spans microseconds to multi-second penalty values, and
        variance-reduction splits in linear space see only the penalties.
        :data:`EXPLORE_FRACTION` of each batch is drawn at random.
        ``binarize=False`` swaps the paper's feature binarization for a
        naive ordinal encoding (ablation).

        Each iteration ranks the not-yet-evaluated pool by the
        ensemble-mean prediction, as Algorithm 2 does.  Equal predictions
        are ordered within a batch by a seeded permutation
        (``(prediction, permutation)`` lexsort), so ties are randomized at
        any prediction magnitude."""
        if batch_size < 1 or max_evaluations < 1:
            raise SearchError("batch size and evaluation budget must be >= 1")
        self.batch_size = batch_size
        self.max_evaluations = max_evaluations
        self.seed = seed
        self.binarize = binarize

    def search(
        self,
        pool: Sequence[ProgramConfig],
        evaluate_batch: Callable[[Sequence[ProgramConfig]], list[float]],
        wall_seconds: Callable[[], float] | None = None,
        telemetry: SearchTelemetry | None = None,
        checkpointer: SearchCheckpointer | None = None,
    ) -> SearchResult:
        """Run Algorithm 2 over ``pool`` with the given batch evaluator.

        With a ``checkpointer``, the full driver state is persisted after
        every completed batch, and a prior state (same run fingerprint) is
        restored before the first — the continued run is bitwise identical
        to one that was never interrupted.
        """
        hist = SearchHistory(
            self.name, pool, evaluate_batch, telemetry, checkpointer
        )
        pool = hist.pool
        n = len(pool)
        rng = spawn_rng(self.seed, "surf-driver")
        encoder = FeatureBinarizer() if self.binarize else OrdinalEncoder()
        # Rank codes for the router, or the float matrix (and float
        # descent) when a column is too wide for them.
        codes, X_all = _encode_pool(pool, encoder)

        def train_rows() -> np.ndarray:
            ids = hist.ids.view
            return X_all[ids] if codes is None else codes.rows(ids)

        alive = np.ones(n, dtype=bool)  # not yet dispatched
        nmax = min(self.max_evaluations, n)
        model = ExtraTreesRegressor(n_estimators=N_ESTIMATORS, seed=self.seed)
        router = None

        def targets() -> np.ndarray:
            return np.log(np.maximum(clamp_targets(hist.ys.view), 1e-12))

        def refit(model) -> float:
            nonlocal router
            with get_tracer().span(
                "search.fit", category="search", observations=len(hist),
            ) as sp:
                start = time.perf_counter()
                model.fit(train_rows(), targets())
                sp.set(nodes=model.node_count, depth=model.depth, **model.fit_stats)
                router = model.make_router(codes)
                return time.perf_counter() - start

        def selection_state() -> dict:
            # The dispatched set is the history's ids, and the useful
            # count is recounted from its values: resume derives both.
            return {"rng_state": rng_state(rng), "fits": model._fit_count}

        def step(batch_ids: list[int]) -> None:
            alive[batch_ids] = False
            hist.run_batch(batch_ids)
            fit_s = refit(model)
            hist.end_batch(len(batch_ids), selection_state, fit_seconds=fit_s)

        state = hist.resume()
        if state is not None:
            alive[hist.ids.view] = False
            set_rng_state(rng, state["rng_state"])
            # Rebuild the surrogate the interrupted run was holding: rewind
            # the refit counter and refit on the restored (X, y) — the refit
            # re-derives the same substream, so the forest (and every
            # prediction the continuation makes) is bitwise identical.
            model._fit_count = max(0, int(state["fits"]) - 1)
            if len(hist):
                refit(model)
        else:
            # Initialization: random batch.
            first = min(self.batch_size, nmax)
            pick = rng.choice(n, size=first, replace=False)
            step(sorted(int(i) for i in pick))

        while hist.useful < nmax and alive.any():
            alive_ids = np.flatnonzero(alive)
            m = alive_ids.size
            bs = min(self.batch_size, nmax - hist.useful, m)
            n_explore = min(int(round(bs * EXPLORE_FRACTION)), bs - 1)
            take = bs - n_explore
            with get_tracer().span(
                "search.predict", category="search", rows=m
            ) as sp:
                # Which predictor ran: "partition" or "table" on the
                # coded pool, "float" without codes (+ partition counts).
                info = {"path": "table" if router is not None else "float"}
                if router is not None:
                    preds = router.predict(alive_ids, info)
                else:
                    preds = model.predict(X_all[alive_ids])
                sp.set(**info)
            with get_tracer().span(
                "search.select", category="search", rows=m, take=take
            ):
                perm = rng.permutation(m)
                sel = _bottom_k_lex(preds, perm, take)
                batch_ids = alive_ids[sel].tolist()
                if n_explore:
                    keep = np.ones(m, dtype=bool)
                    keep[sel] = False
                    leftovers = alive_ids[keep]
                    pick = rng.choice(
                        leftovers.size,
                        size=min(n_explore, leftovers.size),
                        replace=False,
                    )
                    batch_ids.extend(leftovers[np.sort(pick)].tolist())
            step(batch_ids)
        return hist.result(wall_seconds)
