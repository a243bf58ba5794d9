"""The GPU decision algorithm: from a TCR operation to a search space.

Implements Section IV's rules for generating the thread/block decomposition
candidates (a simplification of Khan et al.'s algorithm, extended relative
to the pruned space of the earlier work [25]):

* **ThreadX** — any parallel loop such that adjacent elements of an input
  tensor are accessed by adjacent threads (stride-1 in some input ⇒ global
  memory coalescing).
* **ThreadY / BlockX / BlockY** — selected from an ordered candidate list:
  parallel loop indices of the *contiguous* tensors from innermost to
  outermost; if the contiguous tensors yield fewer than four parallel
  loops, continue with the *non-contiguous* tensors' indices from outermost
  to innermost.  ``"1"`` (no loop) is a legal value for the Y dimensions.
* **PERMUTE semantics** — one value per parameter, mutually distinct.
* **Loop permutation** — the loops remaining inside the thread may be
  reordered; we consider the default order plus each choice of innermost
  loop ("improve memory layout of inner dimensions").
* **Unroll** — factors 1..trip-count of the innermost reduction loop
  ("relatively small because of the small loop iteration counts").
* **Scalar replacement** of the output is always applied (it is a constant
  of the space, not a parameter — see :mod:`repro.tcr.codegen_cuda`).
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.errors import SearchSpaceError
from repro.obs.tracer import get_tracer
from repro.tcr.memory import coalescing_indices, contiguous_tensors
from repro.tcr.program import TCROperation, TCRProgram
from repro.tcr.space import ONE, KernelSpace, ProgramSpace

__all__ = [
    "BACKENDS",
    "thread_block_candidates",
    "decide_kernel_space",
    "decide_search_space",
]

#: Cap on unroll factors ("a number of unroll factors are considered, but
#: these are relatively small").
MAX_UNROLL = 16


def thread_block_candidates(
    operation: TCROperation, dims: Mapping[str, int]
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Return (ThreadX candidates, ordered ThreadY/BlockX/BlockY candidates).

    Pure implementation of the two selection rules; both lists contain only
    parallel (LHS) indices.
    """
    parallel = set(operation.parallel_indices)
    tx = list(coalescing_indices(operation, dims))
    if not tx:
        # No coalescing-friendly loop exists (every input is strided in all
        # parallel indices).  The decomposition still needs a ThreadX; take
        # the innermost output loop, the least-strided remaining choice.
        tx = [operation.output.indices[-1]]

    ordered: list[str] = []
    contiguous = contiguous_tensors(operation)
    for ref in contiguous:
        for idx in reversed(ref.indices):  # innermost (fastest) first
            if idx in parallel and idx not in ordered:
                ordered.append(idx)
    if len(ordered) < 4:
        non_contiguous = [r for r in operation.inputs if r not in contiguous]
        for ref in non_contiguous:
            for idx in ref.indices:  # outermost first
                if idx in parallel and idx not in ordered:
                    ordered.append(idx)
    if len(ordered) < 4:
        # Any parallel loop not reachable through the inputs (it can happen
        # when the output has an index some input lacks… only via the other
        # input; still, be safe and complete the list in output order).
        # The same parallel-only filter as the passes above applies here:
        # candidates feed thread/block PERMUTE lists, which must never
        # carry a dependence.
        for idx in operation.output.indices:
            if idx in parallel and idx not in ordered:
                ordered.append(idx)
    return tuple(tx), tuple(ordered)


def _serial_orders_factory(
    operation: TCROperation, dims: Mapping[str, int], permute_serial: bool
):
    """Build the ``serial_orders_for(mapped)`` callback for a KernelSpace.

    Given the mapped loop indices, the serial loops are the unmapped
    parallel loops followed by the reduction loops.  By default the order
    is fixed (the paper's Orio excerpt tunes only the PERMUTE decomposition
    parameters plus unrolling — the decomposition itself *is* the loop
    permutation); with ``permute_serial`` the space additionally offers
    each serial loop rotated to the innermost position, for the ablation
    benches.
    """
    all_default = operation.output.indices + operation.reduction_indices

    def serial_orders_for(mapped: tuple[str, ...]) -> list[tuple[str, ...]]:
        mapped_set = set(mapped)
        serial = tuple(i for i in all_default if i not in mapped_set)
        if len(serial) <= 1 or not permute_serial:
            return [serial]
        orders = [serial]
        for idx in serial[:-1]:
            rotated = tuple(i for i in serial if i != idx) + (idx,)
            if rotated not in orders:
                orders.append(rotated)
        return orders

    return serial_orders_for


#: At most this many loops feed the ThreadY/BlockX/BlockY PERMUTE lists —
#: the decision algorithm collects candidates until it has four parallel
#: loops ("if the contiguous tensors have fewer than four parallel loops,
#: then start selecting…"), which also matches the Fig. 2(c) list sizes.
MAX_PERMUTE_CANDIDATES = 4


def decide_kernel_space(
    operation: TCROperation,
    dims: Mapping[str, int],
    permute_serial: bool = False,
) -> KernelSpace:
    """Run the decision algorithm for one operation (= one GPU kernel)."""
    if not operation.parallel_indices:
        raise SearchSpaceError(
            f"operation {operation} has no parallel loops; it cannot be "
            "mapped to a GPU grid"
        )
    tx, ordered = thread_block_candidates(operation, dims)
    ordered = ordered[:MAX_PERMUTE_CANDIDATES]
    ty = tuple(ordered) + (ONE,)
    # BlockX normally maps a real loop; allow "1" only when the operation is
    # too small to give ThreadX and BlockX distinct loops.
    bx: tuple[str, ...] = tuple(ordered)
    if len(set(ordered) | set(tx)) < 2:
        bx = bx + (ONE,)
    by = tuple(ordered) + (ONE,)

    reductions = operation.reduction_indices
    if reductions:
        innermost_red = reductions[-1]
        trip = dims[innermost_red]
        unroll = tuple(range(1, min(trip, MAX_UNROLL) + 1))
    else:
        unroll = (1,)

    return KernelSpace(
        operation=operation,
        tx_candidates=tx,
        ty_candidates=ty,
        bx_candidates=bx,
        by_candidates=by,
        serial_orders_for=_serial_orders_factory(operation, dims, permute_serial),
        unroll_factors=unroll,
    )


#: Recognized values of the ``backend`` parameter / CLI flag.
BACKENDS = ("loopnest", "ttgt", "auto")


def _choose_backend_space(operation, loop_space, ttgt_space, dims, model):
    """Per-operation backend choice for ``backend="auto"``.

    Scores both candidate spaces with the vectorized timing tables and
    keeps the one whose *best valid configuration* is faster — exactly
    the quantity a sweep search would optimize, so under the separable
    program objective ``auto`` can never lose to either fixed backend.
    Ties (and a loop-nest space with no valid configuration at all) go
    to TTGT only when it is strictly better / the only survivor;
    otherwise the paper's loop-nest path wins.  Returns the chosen space,
    its table (which the sweep then reads instead of rebuilding it) and
    both minima.
    """
    # Local import: repro.gpusim.timing_table imports repro.tcr.space,
    # which would close a package-level cycle through repro.tcr.__init__.
    from repro.gpusim.timing_table import KernelTimingTable

    loop_table = KernelTimingTable.build(model, operation, loop_space, dims)
    ttgt_table = KernelTimingTable.build_ttgt(model, operation, ttgt_space, dims)
    best_ttgt = float(ttgt_table.totals.min())
    if not bool(loop_table.valid.any()):
        return ttgt_space, ttgt_table, float("inf"), best_ttgt
    best_loop = float(loop_table.totals.min())
    if best_ttgt < best_loop:
        return ttgt_space, ttgt_table, best_loop, best_ttgt
    return loop_space, loop_table, best_loop, best_ttgt


def decide_search_space(
    program: TCRProgram,
    variant_index: int = 0,
    permute_serial: bool = False,
    backend: str = "loopnest",
    model=None,
) -> ProgramSpace:
    """Build the full per-variant space: one kernel space per operation.

    ``backend`` selects the lowering family per operation:

    * ``"loopnest"`` (default) — the paper's direct loop-nest kernels.
    * ``"ttgt"`` — the transpose-transpose-GEMM-transpose lowering where
      the operation is TTGT-eligible; ineligible operations (unary ops,
      copies, outer products…) fall back to the loop-nest space.
    * ``"auto"`` — score both candidate spaces with ``model`` (a
      :class:`~repro.gpusim.perfmodel.GPUPerformanceModel`, required)
      and keep the per-operation winner.  The winner's timing table
      rides along in :attr:`ProgramSpace.tables`, so a sweep over the
      space does not price it again.
    """
    if backend not in BACKENDS:
        raise SearchSpaceError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend == "auto" and model is None:
        raise SearchSpaceError(
            "backend='auto' needs a performance model to score the "
            "candidate spaces; pass model=GPUPerformanceModel(arch)"
        )
    # Local import keeps repro.tcr.decision importable before
    # repro.tcr.ttgt during package initialization.
    from repro.tcr.ttgt import decide_ttgt_space

    tracer = get_tracer()
    with tracer.span(
        "tcr.decision", category="tcr",
        program=program.name, variant=variant_index, backend=backend,
    ) as sp:
        spaces = []
        tables = [None] * len(program.operations)
        for k, op in enumerate(program.operations):
            loop_space = decide_kernel_space(op, program.dims, permute_serial)
            if backend == "loopnest":
                spaces.append(loop_space)
                continue
            ttgt_space = decide_ttgt_space(op, program.dims)
            if ttgt_space is None:
                if tracer.enabled:
                    tracer.event(
                        "tcr.backend_choice", category="tcr",
                        operation=str(op), requested=backend,
                        chosen="loopnest", reason="ineligible",
                    )
                spaces.append(loop_space)
                continue
            if backend == "ttgt":
                spaces.append(ttgt_space)
                continue
            chosen, table, best_loop, best_ttgt = _choose_backend_space(
                op, loop_space, ttgt_space, program.dims, model
            )
            tables[k] = table
            if tracer.enabled:
                tracer.event(
                    "tcr.backend_choice", category="tcr",
                    operation=str(op), requested=backend,
                    chosen="ttgt" if chosen is ttgt_space else "loopnest",
                    best_loopnest_s=best_loop, best_ttgt_s=best_ttgt,
                )
            spaces.append(chosen)
        space = ProgramSpace(
            variant_index=variant_index,
            program=program,
            kernel_spaces=tuple(spaces),
            tables=tuple(tables),
            priced_by=model,
        )
        if tracer.enabled:
            families = [ks.families for ks in spaces if isinstance(ks, KernelSpace)]
            sp.set(
                kernels=len(spaces), families=sum(map(len, families)),
                size=space.size(),
            )
    return space
