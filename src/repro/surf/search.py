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
the not-yet-dispatched set is a boolean mask, history accumulates in
growable arrays, selection takes the bottom-k by argpartition, and
prediction over the pool runs through the forest's coded router
(:mod:`repro.surf.forest`).  Config objects are materialized only for
evaluation batches, the champion, and checkpoints.

Fault tolerance (see :mod:`repro.surf.resilience`): failed evaluations
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
from repro.surf.forest import (
    ExtraTreesRegressor,
    pool_codes,
    pool_codes_shared,
    shared_router_predict,
)
from repro.surf.pool import (
    SMALL_POOL_LIMIT,
    GrowableArray,
    SharedPool,
    SpacePool,
    as_pool,
)
from repro.surf.shared import SearchWorkerContext, resolve_search_workers
from repro.surf.telemetry import SearchTelemetry
from repro.tcr.space import ProgramConfig
from repro.util.rng import spawn_rng

__all__ = ["SearchResult", "SURFSearch", "clamp_targets"]

#: Exploration weight of the ``"lcb"`` acquisition rule: candidates rank
#: by ``mean - LCB_KAPPA * std`` (lower confidence bound on log-time).
LCB_KAPPA = 1.0


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


def clamp_targets(y: np.ndarray) -> np.ndarray:
    """Make failure observations (``+inf``) safe for surrogate training.

    Failed evaluations are clamped to the invalid-configuration penalty:
    the model still learns the region is bad, but the fit is not destroyed
    by infinities (and, under ``log_objective``, the target stays finite).
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


class SURFSearch:
    """Model-based search over a finite configuration pool.

    Parameters
    ----------
    batch_size:
        ``bs`` — concurrent evaluations per iteration.
    max_evaluations:
        ``nmax`` — total evaluation budget.
    n_estimators:
        Surrogate forest size.
    seed:
        Drives pool sampling, surrogate randomness and tie-breaking.
    """

    name = "surf"

    def __init__(
        self,
        batch_size: int = 10,
        max_evaluations: int = 100,
        n_estimators: int = 30,
        seed: int = 0,
        explore_fraction: float = 0.2,
        log_objective: bool = True,
        binarize: bool = True,
        search_workers: int | None = None,
        acquisition: str = "mean",
    ) -> None:
        """``explore_fraction`` of each batch is drawn at random instead of
        by predicted rank (keeps the surrogate from tunnel-visioning on one
        region — "the batching allows for a higher degree of parameter
        space exploration", Section V).  ``log_objective`` fits the model
        on log-times: the objective spans microseconds to multi-second
        penalty values, and variance-reduction splits in linear space see
        only the penalties.  ``binarize=False`` swaps the paper's feature
        binarization for a naive ordinal encoding (ablation).

        Equal predictions are ordered within a batch by a seeded
        permutation (``(prediction, permutation)`` lexsort), so ties are
        randomized at any prediction magnitude.

        ``search_workers`` fans the search core's pool-sized loops — the
        full-pool predict pass, the rank coding and the odometer encode —
        out over that many worker processes (shared-memory pool, see
        :mod:`repro.surf.shared`).  Results are bitwise-identical for
        every worker count; ``None`` or 1 is the serial path.

        ``acquisition`` ranks the not-yet-evaluated pool each iteration:
        ``"mean"`` (default, the paper's rule) by the ensemble-mean
        prediction alone; ``"lcb"`` by the lower confidence bound ``mean -
        kappa * std``, which needs both moments and gets them from one
        combined tree descent (:meth:`PoolRouter.predict_mean_std`)."""
        if batch_size < 1 or max_evaluations < 1:
            raise SearchError("batch size and evaluation budget must be >= 1")
        if not 0.0 <= explore_fraction < 1.0:
            raise SearchError("explore_fraction must be in [0, 1)")
        if acquisition not in ("mean", "lcb"):
            raise SearchError("acquisition must be 'mean' or 'lcb'")
        self.batch_size = batch_size
        self.max_evaluations = max_evaluations
        self.n_estimators = n_estimators
        self.seed = seed
        self.explore_fraction = explore_fraction
        self.log_objective = log_objective
        self.binarize = binarize
        self.search_workers = resolve_search_workers(search_workers)
        self.acquisition = acquisition

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

        With ``search_workers > 1`` a per-run worker context (process pool
        + shared-memory segments) lives for exactly this call; every value
        the search produces — champion, history, rng stream, checkpoint
        states — is bitwise-identical to the serial run, so the worker
        count is a ``recorded`` setting, absent from run fingerprints and
        checkpoint state (a run may resume under a different count).
        """
        pool = as_pool(pool)
        n = len(pool)
        if n == 0:
            raise SearchError("configuration pool is empty")
        ctx = SearchWorkerContext.create(self.search_workers)
        try:
            if ctx is not None and type(pool) is SpacePool:
                pool = SharedPool.from_pool(pool, ctx)
            return self._search(
                pool, evaluate_batch, wall_seconds, telemetry, checkpointer, ctx
            )
        finally:
            if ctx is not None:
                ctx.close()

    def _search(
        self, pool, evaluate_batch, wall_seconds, telemetry, checkpointer, ctx
    ) -> SearchResult:
        n = len(pool)
        workers = ctx.workers if ctx is not None else 1
        if telemetry is None:
            telemetry = SearchTelemetry()
        rng = spawn_rng(self.seed, "surf-driver")
        encoder = FeatureBinarizer() if self.binarize else OrdinalEncoder()
        with get_tracer().span(
            "search.encode", category="search", rows=n, workers=workers
        ):
            X_all = pool.design_matrix(encoder)
        # Coded twin of X_all for the router fast path (None if any column
        # is too wide — prediction then falls back to float descent).
        with get_tracer().span(
            "search.codes", category="search", rows=n, workers=workers
        ):
            if (
                ctx is not None
                and isinstance(pool, SharedPool)
                and pool.X_spec is not None
            ):
                codes = pool_codes_shared(ctx, pool.X_spec, n, X_all.shape[1])
            else:
                codes = pool_codes(X_all)
                if ctx is not None and codes is not None:
                    # Materialized-pool fallback: copy the codes into a
                    # context segment so predict workers can attach them.
                    codes.spec = ctx.share(codes.codes).spec

        alive = np.ones(n, dtype=bool)  # not yet dispatched
        nmax = min(self.max_evaluations, n)

        history: list[tuple[ProgramConfig, float]] = []
        hist_ids = GrowableArray(np.int64)
        y_hist = GrowableArray(np.float64)
        useful = 0  # finite observations — what the nmax budget buys
        best_y = float("inf")
        model = ExtraTreesRegressor(n_estimators=self.n_estimators, seed=self.seed)
        router = None

        def run_batch(ids: list[int]) -> None:
            nonlocal useful, best_y
            tracer = get_tracer()
            with tracer.span(
                "search.materialize", category="search", batch=len(ids)
            ):
                configs = pool.configs(ids)
            with tracer.span(
                "search.evaluate", category="search", batch=len(ids)
            ):
                ys = evaluate_batch(configs)
            if len(ys) != len(configs):
                raise SearchError("evaluator returned a mismatched batch")
            with tracer.span("search.history", category="search", batch=len(ids)):
                ys = [float(y) for y in ys]
                for cfg, y in zip(configs, ys):
                    history.append((cfg, y))
                hist_ids.extend(ids)
                y_hist.extend(ys)
                useful += int(np.isfinite(np.array(ys)).sum())
                best_y = min(best_y, min(ys))

        def targets() -> np.ndarray:
            y = clamp_targets(y_hist.view)
            return np.log(np.maximum(y, 1e-12)) if self.log_objective else y

        def refit(model) -> float:
            nonlocal router
            with get_tracer().span(
                "search.fit", category="search", observations=len(y_hist),
            ) as sp:
                start = time.perf_counter()
                model.fit(X_all[hist_ids.view], targets())
                sp.set(nodes=model.node_count, depth=model.depth)
                router = model.make_router(codes)
                return time.perf_counter() - start

        def save_checkpoint() -> None:
            if checkpointer is None:
                return
            state = {
                "searcher": self.name,
                "history": [
                    [i, y]
                    for i, y in zip(hist_ids.view.tolist(), y_hist.view.tolist())
                ],
            }
            if n <= SMALL_POOL_LIMIT:
                # Small pools store the remaining set; huge pools derive
                # it from the history on load instead.
                state["remaining"] = np.flatnonzero(alive).tolist()
            state.update(
                {
                    "useful": useful,
                    "rng_state": rng_state(rng),
                    "fits": model._fit_count,
                    "telemetry": telemetry.snapshot_state(),
                }
            )
            checkpointer.save(state)

        state = checkpointer.resume_state if checkpointer is not None else None
        if state is not None:
            if state.get("searcher") != self.name:
                raise CheckpointError(
                    f"checkpoint belongs to searcher {state.get('searcher')!r}, "
                    f"cannot resume with {self.name!r}"
                )
            ids = [int(i) for i, _y in state["history"]]
            ys = [float(y) for _i, y in state["history"]]
            for cfg, y in zip(pool.configs(ids), ys):
                history.append((cfg, y))
            hist_ids.extend(ids)
            y_hist.extend(ys)
            useful = int(np.isfinite(np.array(ys)).sum()) if ys else 0
            if ys:
                best_y = min(ys)
            if "remaining" in state:
                alive[:] = False
                alive[np.asarray(state["remaining"], dtype=np.int64)] = True
            else:
                alive[hist_ids.view] = False
            set_rng_state(rng, state["rng_state"])
            telemetry.restore_state(state["telemetry"])
            # Rebuild the surrogate the interrupted run was holding: rewind
            # the refit counter and refit on the restored (X, y) — the refit
            # re-derives the same substream, so the forest (and every
            # prediction the continuation makes) is bitwise identical.
            model._fit_count = max(0, int(state["fits"]) - 1)
            if len(hist_ids):
                refit(model)
        else:
            # Initialization: random batch.
            first = min(self.batch_size, nmax)
            pick = rng.choice(n, size=first, replace=False)
            batch_ids = sorted(int(i) for i in pick)
            alive[batch_ids] = False
            run_batch(batch_ids)
            fit_s = refit(model)
            telemetry.record_batch(
                batch_size=len(batch_ids),
                best_so_far=best_y,
                fit_seconds=fit_s,
            )
            save_checkpoint()

        while useful < nmax and alive.any():
            alive_ids = np.flatnonzero(alive)
            m = alive_ids.size
            bs = min(self.batch_size, nmax - useful, m)
            n_explore = min(int(round(bs * self.explore_fraction)), bs - 1)
            take = bs - n_explore
            shared = (
                ctx is not None and router is not None
                and router.pool.spec is not None
            )
            with get_tracer().span(
                "search.predict", category="search", rows=m,
                workers=workers, chunks=(workers if shared else 1),
                acquisition=self.acquisition,
            ) as sp:
                if self.acquisition == "lcb":
                    if shared:
                        mean, std = shared_router_predict(
                            ctx, router, alive_ids, "mean_std", parent=sp
                        )
                    elif router is not None:
                        mean, std = router.predict_mean_std(alive_ids)
                    else:
                        mean, std = model.predict_mean_std(X_all[alive_ids])
                    preds = mean - LCB_KAPPA * std
                elif shared:
                    preds = shared_router_predict(
                        ctx, router, alive_ids, "mean", parent=sp
                    )
                elif router is not None:
                    preds = router.predict(alive_ids)
                else:
                    preds = model.predict(X_all[alive_ids])
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
            alive[batch_ids] = False
            run_batch(batch_ids)
            fit_s = refit(model)
            telemetry.record_batch(
                batch_size=len(batch_ids), best_so_far=best_y, fit_seconds=fit_s
            )
            save_checkpoint()

        best_i = int(np.argmin(y_hist.view))
        return SearchResult(
            searcher=self.name,
            best_config=history[best_i][0],
            best_objective=history[best_i][1],
            history=history,
            evaluations=len(history),
            simulated_wall_seconds=wall_seconds() if wall_seconds else 0.0,
            telemetry=telemetry,
        )
