"""Random search baseline: same budget as SURF, no surrogate.

Used by the benchmark harness to demonstrate SURF's value (the paper argues
model-based search finds "high-performing code variants while examining
relatively few variants").
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.errors import SearchError
from repro.surf.checkpoint import SearchCheckpointer, rng_state, set_rng_state
from repro.surf.search import SearchHistory, SearchResult
from repro.surf.telemetry import SearchTelemetry
from repro.tcr.space import ProgramConfig
from repro.util.rng import spawn_rng

__all__ = ["RandomSearch"]


class RandomSearch:
    """Uniformly sample ``max_evaluations`` distinct pool points.

    Failed evaluations (``+inf``) do not consume the budget: once the
    initial draw is exhausted, replacement points are drawn from the
    not-yet-chosen remainder until ``nmax`` useful observations are in (or
    the pool runs dry).  With no failures the draws — and hence the whole
    run — are bitwise identical to the failure-oblivious sampler.
    """

    name = "random"

    def __init__(
        self, batch_size: int = 10, max_evaluations: int = 100, seed: int = 0
    ) -> None:
        if batch_size < 1 or max_evaluations < 1:
            raise SearchError("batch size and evaluation budget must be >= 1")
        self.batch_size = batch_size
        self.max_evaluations = max_evaluations
        self.seed = seed

    def search(
        self,
        pool: Sequence[ProgramConfig],
        evaluate_batch: Callable[[Sequence[ProgramConfig]], list[float]],
        wall_seconds: Callable[[], float] | None = None,
        telemetry: SearchTelemetry | None = None,
        checkpointer: SearchCheckpointer | None = None,
    ) -> SearchResult:
        hist = SearchHistory(
            self.name, pool, evaluate_batch, telemetry, checkpointer
        )
        n = len(hist.pool)
        rng = spawn_rng(self.seed, "random-driver")
        nmax = min(self.max_evaluations, n)
        state = hist.resume()
        if state is not None:
            queue = np.asarray(state["queue"], dtype=np.int64)
            set_rng_state(rng, state["rng_state"])
        else:
            queue = rng.choice(n, size=nmax, replace=False)

        def selection_state() -> dict:
            return {"queue": queue.tolist(), "rng_state": rng_state(rng)}

        while hist.useful < nmax:
            if queue.size == 0:
                # Replenish: failures burned part of the draw — top it up
                # from the untouched remainder of the pool.
                leftovers = np.setdiff1d(
                    np.arange(n, dtype=np.int64), hist.ids.view
                )
                if leftovers.size == 0:
                    break
                pick = rng.choice(
                    leftovers.size,
                    size=min(nmax - hist.useful, leftovers.size),
                    replace=False,
                )
                queue = leftovers[pick]
            k = min(self.batch_size, nmax - hist.useful)
            ids = queue[:k].tolist()
            queue = queue[len(ids):]
            hist.run_batch(ids)
            hist.end_batch(len(ids), selection_state)
        return hist.result(wall_seconds)
