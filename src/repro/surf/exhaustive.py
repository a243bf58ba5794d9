"""Brute-force enumeration baseline.

The paper's earlier work [25] tuned a smaller, pruned space exhaustively;
Section VI compares SURF against it ("comparable to and sometimes better
than the prior brute force search").  This searcher evaluates an entire
pool (optionally capped) so benches can make the same comparison on spaces
small enough to enumerate.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.errors import SearchError
from repro.surf.checkpoint import SearchCheckpointer
from repro.surf.search import SearchHistory, SearchResult
from repro.surf.telemetry import SearchTelemetry
from repro.tcr.space import ProgramConfig

__all__ = ["ExhaustiveSearch"]


class ExhaustiveSearch:
    """Evaluate every configuration in the pool (up to ``limit``).

    Failure-tolerant by construction: failed evaluations enter the history
    as ``+inf`` and can never displace a finite best (strict ``<``).
    With a checkpointer, state is saved per batch and an interrupted scan
    resumes at the first unevaluated index.
    """

    name = "exhaustive"

    def __init__(self, batch_size: int = 10, limit: int | None = None) -> None:
        if batch_size < 1:
            raise SearchError("batch size must be >= 1")
        if limit is not None and limit < 1:
            raise SearchError("limit must be >= 1")
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
        hist = SearchHistory(
            self.name, pool, evaluate_batch, telemetry, checkpointer
        )
        n = len(hist.pool)
        stop = n if self.limit is None else min(self.limit, n)

        def selection_state() -> dict:
            # Resume recomputes the champion from the history; the keys
            # stay so every exhaustive state.json keeps the same shape.
            return {"best_i": hist.best_i, "best_y": hist.best_y}

        hist.resume()
        for start in range(len(hist), stop, self.batch_size):
            ids = list(range(start, min(start + self.batch_size, stop)))
            hist.run_batch(ids)
            hist.end_batch(len(ids), selection_state)
        return hist.result(wall_seconds)
