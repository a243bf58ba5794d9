"""The pruned search space of the paper's prior work [25].

:func:`decide_pruned_kernel_space` is the *a-priori* pruned space of the
earlier decision algorithm ("an earlier version of this decision
algorithm created a smaller, pruned search space, which is a subset of
the one used in [25]"): ThreadX restricted to the single best coalescing
candidate, one-dimensional thread blocks (ThreadY = 1), BlockY limited to
{loop, 1}, and unroll factors limited to divisors of the trip count.
Small enough to enumerate exhaustively — this is the brute-force
comparison point of Section VI ("we also compared performance for some
of these with prior work in [25] which used a brute force search of a
smaller search space").
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.errors import SearchSpaceError
from repro.tcr.decision import thread_block_candidates, _serial_orders_factory
from repro.tcr.program import TCROperation, TCRProgram
from repro.tcr.space import ONE, KernelSpace, ProgramSpace

__all__ = [
    "decide_pruned_kernel_space",
    "decide_pruned_search_space",
]


def _divisors(n: int) -> tuple[int, ...]:
    return tuple(d for d in range(1, n + 1) if n % d == 0)


def decide_pruned_kernel_space(
    operation: TCROperation, dims: Mapping[str, int]
) -> KernelSpace:
    """The earlier, enumerable decision algorithm for one kernel."""
    if not operation.parallel_indices:
        raise SearchSpaceError(
            f"operation {operation} has no parallel loops; it cannot be "
            "mapped to a GPU grid"
        )
    tx, ordered = thread_block_candidates(operation, dims)
    tx = tx[:1]  # single best coalescing choice
    ordered = tuple(ordered[:3])
    bx = ordered if ordered else (ONE,)
    by = tuple(ordered[:1]) + (ONE,)
    reductions = operation.reduction_indices
    if reductions:
        unroll = _divisors(dims[reductions[-1]])
    else:
        unroll = (1,)
    return KernelSpace(
        operation=operation,
        tx_candidates=tx,
        ty_candidates=(ONE,),  # one-dimensional thread blocks only
        bx_candidates=bx,
        by_candidates=by,
        serial_orders_for=_serial_orders_factory(operation, dims, False),
        unroll_factors=unroll,
    )


def decide_pruned_search_space(
    program: TCRProgram, variant_index: int = 0
) -> ProgramSpace:
    """The pruned space for a whole program (small enough to enumerate)."""
    return ProgramSpace(
        variant_index=variant_index,
        program=program,
        kernel_spaces=tuple(
            decide_pruned_kernel_space(op, program.dims)
            for op in program.operations
        ),
    )
