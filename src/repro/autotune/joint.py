"""Joint optimization of adjacent programs — the paper's future work.

"As we expand the approach to surrounding computations, such as jointly
optimizing lgrad3, lgrad3t and adjacent code, the search space will grow,
and pruning it will be essential to feasibility."  (Section VIII)

:func:`concatenate_programs` merges a sequence of TCR programs (e.g. Lg3,
a pointwise scaling, Lg3t) into one program whose kernels are tuned
*together* — one SURF run over the product space, data staying resident
across all kernels — and :func:`tune_jointly` drives it, optionally with
the model-based pruning of :mod:`repro.tcr.pruning` to keep the grown
space tractable.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.autotune.tuner import Autotuner, TuneResult, _make_searcher
from repro.errors import TCRError
from repro.surf.telemetry import SearchTelemetry
from repro.tcr.decision import decide_search_space
from repro.tcr.program import TCRProgram
from repro.tcr.pruning import model_pruned_pool
from repro.tcr.space import TuningSpace
from repro.util.rng import spawn_rng

__all__ = ["concatenate_programs", "tune_jointly"]


def concatenate_programs(name: str, programs: Sequence[TCRProgram]) -> TCRProgram:
    """Merge programs into one (shared arrays by name, ops in sequence).

    Dimensions and array layouts must agree where names coincide — the
    point is that Lg3's outputs *are* Lg3t's inputs, so the merged program
    keeps them device-resident instead of round-tripping over PCIe.
    """
    if not programs:
        raise TCRError("nothing to concatenate")
    dims: dict[str, int] = {}
    arrays: dict[str, tuple[str, ...]] = {}
    operations = []
    for program in programs:
        for idx, size in program.dims.items():
            if dims.setdefault(idx, size) != size:
                raise TCRError(
                    f"index {idx!r} has extent {dims[idx]} in one program "
                    f"and {size} in another; rename before concatenating"
                )
        for arr, layout in program.arrays.items():
            if arr not in arrays:
                arrays[arr] = layout
                continue
            # Layout tuples are axis *labels*; what must agree across
            # programs is the concrete shape (Lg3 labels ur's axes
            # (e,i,j,k) while Lg3t reads it as (e,l,j,k) — same array).
            have = tuple(dims[i] for i in arrays[arr])
            want = tuple(program.dims[i] for i in layout)
            if have != want:
                raise TCRError(
                    f"array {arr!r} has shape {have} in one program and "
                    f"{want} in another; the programs disagree"
                )
        operations.extend(program.operations)
    return TCRProgram(name=name, dims=dims, arrays=arrays, operations=list(operations))


def tune_jointly(
    tuner: Autotuner,
    name: str,
    programs: Sequence[TCRProgram],
    prune: bool = False,
    min_parallelism: int = 1024,
) -> TuneResult:
    """Tune the concatenation of ``programs`` as one search problem.

    With ``prune=True`` the sampled pool is filtered by the static
    plausibility rules before SURF sees it (the conclusion's "pruning …
    will be essential to feasibility").  The pruned search runs on the
    tuner's own rig (lanes, faults) with its searcher and acquisition.
    """
    merged = concatenate_programs(name, programs)
    if not prune:
        return tuner.tune_program(merged)

    settings = tuner.settings
    space = TuningSpace([decide_search_space(merged)])
    rng = spawn_rng(settings.seed, "joint-pool", name, tuner.arch.name)
    pool = space.sample_pool(min(settings.pool_size, space.size()), rng)
    pool = model_pruned_pool(
        merged, pool, tuner.arch, min_parallelism=min_parallelism
    )
    evaluator = tuner._build_evaluator([merged])
    searcher = _make_searcher(
        settings.searcher, settings.batch_size, settings.max_evaluations,
        settings.seed, acquisition=settings.acquisition,
    )
    result = searcher.search(
        pool,
        evaluator.evaluate_batch,
        wall_seconds=lambda: evaluator.simulated_wall_seconds,
        telemetry=SearchTelemetry(counters=evaluator.counters),
    )
    best = result.best_config
    timing = tuner.model.program_timing(merged, best)
    return TuneResult(
        name=name,
        arch=tuner.arch,
        best_config=best,
        best_program=merged,
        timing=timing,
        search=result,
        space_size=space.size(),
        pool_size=len(pool),
        variant_count=1,
    )
