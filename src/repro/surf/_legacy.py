"""Seed-exact reference implementations of the baseline search drivers.

The array-native random and exhaustive drivers
(:mod:`repro.surf.random_search`, :mod:`repro.surf.exhaustive`) claim
*bitwise* parity with the list-based implementations they replaced: same
rng draws, same champion, same history, same checkpoint state.  This
module preserves those implementations verbatim so the parity suite
(``tests/test_search_parity.py::TestBaselineParity``) pins the new code
against the genuine seed behavior instead of a re-derivation of it.

Nothing in the production pipeline imports this module; it is test
equipment.  Do not "improve" it — its only value is being exactly what
the seed did.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.errors import CheckpointError, SearchError
from repro.surf.checkpoint import SearchCheckpointer, rng_state, set_rng_state
from repro.surf.search import SearchResult
from repro.surf.telemetry import SearchTelemetry
from repro.tcr.space import ProgramConfig
from repro.util.rng import spawn_rng

__all__ = ["LegacyRandomSearch", "LegacyExhaustiveSearch"]


class LegacyRandomSearch:
    """Seed random-search baseline (list bookkeeping, quadratic replenish)."""

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
        if not pool:
            raise SearchError("configuration pool is empty")
        if telemetry is None:
            telemetry = SearchTelemetry()
        rng = spawn_rng(self.seed, "random-driver")
        nmax = min(self.max_evaluations, len(pool))
        queue: list[int] = []
        history: list[tuple[ProgramConfig, float]] = []
        hist_ids: list[int] = []
        useful = 0
        state = checkpointer.resume_state if checkpointer is not None else None
        if state is not None:
            if state.get("searcher") != self.name:
                raise CheckpointError(
                    f"checkpoint belongs to searcher {state.get('searcher')!r}, "
                    f"cannot resume with {self.name!r}"
                )
            for i, y in state["history"]:
                i, y = int(i), float(y)
                history.append((pool[i], y))
                hist_ids.append(i)
                if np.isfinite(y):
                    useful += 1
            queue = [int(i) for i in state["queue"]]
            set_rng_state(rng, state["rng_state"])
            telemetry.restore_state(state["telemetry"])
        else:
            queue = rng.choice(len(pool), size=nmax, replace=False).tolist()
        while useful < nmax:
            if not queue:
                seen = set(hist_ids)
                leftovers = [i for i in range(len(pool)) if i not in seen]
                if not leftovers:
                    break
                pick = rng.choice(
                    len(leftovers), size=min(nmax - useful, len(leftovers)),
                    replace=False,
                )
                queue = [leftovers[i] for i in pick.tolist()]
            ids = queue[: min(self.batch_size, nmax - useful)]
            queue = queue[len(ids):]
            configs = [pool[i] for i in ids]
            for i, (cfg, y) in enumerate(zip(configs, evaluate_batch(configs))):
                y = float(y)
                history.append((cfg, y))
                hist_ids.append(ids[i])
                if np.isfinite(y):
                    useful += 1
            telemetry.record_batch(
                batch_size=len(configs),
                best_so_far=min(y for _c, y in history),
            )
            if checkpointer is not None:
                checkpointer.save(
                    {
                        "searcher": self.name,
                        "history": [
                            [i, y] for i, (_c, y) in zip(hist_ids, history)
                        ],
                        "queue": list(queue),
                        "rng_state": rng_state(rng),
                        "telemetry": telemetry.snapshot_state(),
                    }
                )
        ys = np.array([y for _c, y in history])
        best_i = int(np.argmin(ys))
        return SearchResult(
            searcher=self.name,
            best_config=history[best_i][0],
            best_objective=history[best_i][1],
            history=history,
            evaluations=len(history),
            simulated_wall_seconds=wall_seconds() if wall_seconds else 0.0,
            telemetry=telemetry,
        )


class LegacyExhaustiveSearch:
    """Seed brute-force baseline."""

    name = "exhaustive"

    def __init__(self, batch_size: int = 10, limit: int | None = None) -> None:
        if batch_size < 1:
            raise SearchError("batch size must be >= 1")
        self.batch_size = batch_size
        self.limit = limit

    def search(
        self,
        pool: Sequence[ProgramConfig],
        evaluate_batch: Callable[[Sequence[ProgramConfig]], list[float]],
        wall_seconds: Callable[[], float] | None = None,
        telemetry: SearchTelemetry | None = None,
        checkpointer: SearchCheckpointer | None = None,
    ) -> SearchResult:
        if not pool:
            raise SearchError("configuration pool is empty")
        if telemetry is None:
            telemetry = SearchTelemetry()
        stop = len(pool) if self.limit is None else min(self.limit, len(pool))
        history: list[tuple[ProgramConfig, float]] = []
        best_i = 0
        best_y = float("inf")
        first = 0
        state = checkpointer.resume_state if checkpointer is not None else None
        if state is not None:
            if state.get("searcher") != self.name:
                raise CheckpointError(
                    f"checkpoint belongs to searcher {state.get('searcher')!r}, "
                    f"cannot resume with {self.name!r}"
                )
            for i, y in state["history"]:
                history.append((pool[int(i)], float(y)))
            best_i = int(state["best_i"])
            best_y = float(state["best_y"])
            first = len(history)
            telemetry.restore_state(state["telemetry"])
        for start in range(first, stop, self.batch_size):
            configs = list(pool[start : min(start + self.batch_size, stop)])
            for cfg, y in zip(configs, evaluate_batch(configs)):
                y = float(y)
                if y < best_y:  # strict: first occurrence wins, like argmin
                    best_y = y
                    best_i = len(history)
                history.append((cfg, y))
            telemetry.record_batch(batch_size=len(configs), best_so_far=best_y)
            if checkpointer is not None:
                checkpointer.save(
                    {
                        "searcher": self.name,
                        "history": [[i, y] for i, (_c, y) in enumerate(history)],
                        "best_i": best_i,
                        "best_y": best_y,
                        "telemetry": telemetry.snapshot_state(),
                    }
                )
        return SearchResult(
            searcher=self.name,
            best_config=history[best_i][0],
            best_objective=history[best_i][1],
            history=history,
            evaluations=len(history),
            simulated_wall_seconds=wall_seconds() if wall_seconds else 0.0,
            telemetry=telemetry,
        )
