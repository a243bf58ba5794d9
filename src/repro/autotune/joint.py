"""Joint optimization of adjacent programs — the paper's future work.

"As we expand the approach to surrounding computations, such as jointly
optimizing lgrad3, lgrad3t and adjacent code, the search space will grow,
and pruning it will be essential to feasibility."  (Section VIII)

:func:`concatenate_programs` merges a sequence of TCR programs (e.g. Lg3,
a pointwise scaling, Lg3t) into one program whose kernels are tuned
*together*: ``tuner.tune_program(concatenate_programs(name, programs))``
is one search over the product space, data staying resident across all
kernels.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import TCRError
from repro.tcr.program import TCRProgram

__all__ = ["concatenate_programs"]


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
