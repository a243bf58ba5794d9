"""Separability-aware exhaustive search over timing tables.

The modeled objective is a sum of independent per-kernel timings plus
configuration-independent transfer costs, so the noise-free optimum of a
product space factorizes: the best program configuration is the tuple of
per-kernel argmins, found in ``O(|K1| + ... + |Kn|)`` kernel evaluations
instead of ``O(|K1| x ... x |Kn|)`` program evaluations.  This searcher
runs that argmin per OCTOPI variant on precomputed
:class:`~repro.gpusim.timing_table.ProgramTimingTable`\\ s and reports the
same :class:`~repro.surf.search.SearchResult` /
:class:`~repro.surf.telemetry.SearchTelemetry` shape as
:class:`~repro.surf.exhaustive.ExhaustiveSearch`, so benches and the CLI
can swap one for the other.

Equivalence contract (enforced by tests): on a fully enumerable space with
a *noise-free* evaluator, the result matches ``ExhaustiveSearch`` over
``TuningSpace.enumerate_all`` exactly — same best configuration (ties
broken by enumeration order, penalties included) and bitwise-equal best
objective.  Under measurement noise the two legitimately differ: the
separable argmin optimizes the modeled time, while an empirical sweep
optimizes one noisy draw per point.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import SearchError
from repro.gpusim.timing_table import ProgramTimingTable
from repro.surf.evaluator import PENALTY_SECONDS
from repro.surf.search import SearchResult
from repro.surf.telemetry import SearchTelemetry
from repro.tcr.space import ProgramConfig, TuningSpace

__all__ = ["SeparableExhaustiveSearch"]


class SeparableExhaustiveSearch:
    """Noise-free exhaustive optimum via per-kernel argmin on timing tables.

    Parameters
    ----------
    tables:
        One :class:`ProgramTimingTable` per OCTOPI variant, in variant
        order (aligned with ``tuning_space.program_spaces`` when given).
    include_transfer:
        Whether the objective includes H2D/D2H time (must match the
        evaluator being compared against).
    tuning_space:
        Optional owning space, used to stamp the winner's dense
        ``global_id`` (so the result is config-equal to what pool-based
        searchers return).
    """

    name = "separable"

    def __init__(
        self,
        tables: Sequence[ProgramTimingTable],
        include_transfer: bool = True,
        tuning_space: TuningSpace | None = None,
    ) -> None:
        if not tables:
            raise SearchError("separable search needs at least one timing table")
        self.tables = tuple(tables)
        self.include_transfer = include_transfer
        self.tuning_space = tuning_space

    # ------------------------------------------------------------------
    def _variant_champion(
        self, table: ProgramTimingTable
    ) -> tuple[tuple[int, ...], float] | None:
        """(kernel ids, objective) of one variant's enumeration-order best.

        Reproduces what an exhaustive scan of the variant would keep: the
        first configuration attaining the minimal objective, counting
        unbuildable points at ``PENALTY_SECONDS``.
        """
        candidates: list[tuple[float, int, tuple[int, ...]]] = []
        found = table.argmin(include_transfer=self.include_transfer)
        if found is not None:
            ids, val = found
            candidates.append((val, table.local_index(ids), ids))
        first_invalid = table.first_invalid()
        if first_invalid is not None:
            candidates.append(
                (PENALTY_SECONDS, table.local_index(first_invalid), first_invalid)
            )
        if not candidates:
            return None
        val, _pos, ids = min(candidates, key=lambda c: (c[0], c[1]))
        return ids, val

    # ------------------------------------------------------------------
    def search(self, telemetry: SearchTelemetry | None = None) -> SearchResult:
        """Optimize over the tables: no pool, no evaluator.

        The sweep takes milliseconds, so it saves no checkpoint state.
        """
        if telemetry is None:
            telemetry = SearchTelemetry()
        history: list[tuple[ProgramConfig, float]] = []
        best_i: int | None = None
        best_y = float("inf")
        simulated_wall = 0.0
        kernel_evals = 0
        for pos, table in enumerate(self.tables):
            champion = self._variant_champion(table)
            kernel_evals += table.kernel_evaluations
            if champion is None:
                continue
            ids, val = champion
            global_id = (
                self.tuning_space.global_id_for(pos, table.local_index(ids))
                if self.tuning_space is not None
                else -1
            )
            history.append((table.config_for(ids, global_id=global_id), val))
            # One confirmation run of the champion on the simulated rig
            # (compile + repetitions) — the wall cost an empirical tuner
            # cannot avoid even when the model pre-screens the space.
            simulated_wall += table.evaluation_wall(ids)
            if val < best_y:
                best_y = val
                best_i = len(history) - 1
            telemetry.record_batch(
                batch_size=table.kernel_evaluations, best_so_far=best_y
            )
        if best_i is None:
            raise SearchError("no variant produced a configuration")
        return SearchResult(
            searcher=self.name,
            best_config=history[best_i][0],
            best_objective=history[best_i][1],
            history=history,
            evaluations=kernel_evals,
            simulated_wall_seconds=simulated_wall,
            telemetry=telemetry,
        )
