"""Concrete kernel launches: binding a configuration to an operation.

A :class:`KernelLaunch` is the meeting point of the three consumers of a
tuning decision: the CUDA code generator, the functional executor, and the
performance model.  It resolves a :class:`~repro.tcr.space.KernelConfig`
against its operation's extents into grid/block shapes, the serial loop
structure inside each thread, and a per-reference memory access
classification (coalesced / broadcast / strided with respect to ThreadX,
plus intra-thread locality of the innermost serial loop).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from repro.core.tensor import TensorRef
from repro.errors import ConfigurationError
from repro.tcr.memory import stride_of
from repro.tcr.program import TCROperation
from repro.tcr.space import ONE, KernelConfig

__all__ = [
    "AccessClass",
    "RefAccess",
    "KernelLaunch",
    "build_launch",
    "build_launch_cached",
]


class AccessClass(Enum):
    """How a warp's lanes (adjacent ThreadX values) touch one reference."""

    COALESCED = "coalesced"  # stride 1 in ThreadX: one transaction per warp
    BROADCAST = "broadcast"  # invariant in ThreadX: one lane's word serves all
    STRIDED = "strided"      # anything else: one transaction per lane


@dataclass(frozen=True)
class RefAccess:
    """Access-pattern summary of one array reference under a launch."""

    ref: TensorRef
    is_output: bool
    access_class: AccessClass
    #: element stride for the ThreadX index (0 when invariant)
    tx_stride: int
    #: element stride for the innermost serial loop (0 when invariant)
    inner_stride: int
    #: total elements of the underlying array
    elements: int

    @property
    def inner_local(self) -> bool:
        """Consecutive serial iterations touch nearby memory (<= one line)."""
        return 0 <= self.inner_stride <= 4


@dataclass(frozen=True)
class KernelLaunch:
    """Everything the simulator needs to know about one kernel invocation."""

    operation: TCROperation
    config: KernelConfig
    dims: Mapping[str, int]
    block_dim: tuple[int, int]       # (x, y) threads
    grid_dim: tuple[int, int]        # (x, y) blocks
    serial_loops: tuple[tuple[str, int], ...]  # (index, extent), outer->inner
    accesses: tuple[RefAccess, ...]

    @property
    def threads_per_block(self) -> int:
        return self.block_dim[0] * self.block_dim[1]

    @property
    def total_blocks(self) -> int:
        return self.grid_dim[0] * self.grid_dim[1]

    @property
    def total_threads(self) -> int:
        return self.threads_per_block * self.total_blocks

    @property
    def serial_iterations(self) -> int:
        n = 1
        for _idx, extent in self.serial_loops:
            n *= extent
        return n

    @property
    def flops(self) -> int:
        return self.operation.flops(self.dims)

    @property
    def reduction_trip(self) -> int:
        """Trip count of the innermost reduction loop (1 if none serial)."""
        red = set(self.operation.reduction_indices)
        for idx, extent in reversed(self.serial_loops):
            if idx in red:
                return extent
        return 1

    @property
    def unroll(self) -> int:
        return self.config.unroll

    def registers_per_thread(self) -> int:
        """Register-pressure estimate for the occupancy calculation.

        Base cost covers index arithmetic and the scalar-replaced output;
        each unrolled iteration keeps an extra operand pair live; each
        serial loop costs an induction variable.
        """
        base = 14
        per_unroll = 3
        per_loop = 2
        return base + per_unroll * max(0, self.unroll - 1) + per_loop * len(self.serial_loops)

    def describe(self) -> str:
        return (
            f"grid=({self.grid_dim[0]},{self.grid_dim[1]}) "
            f"block=({self.block_dim[0]},{self.block_dim[1]}) "
            f"serial={'x'.join(str(e) for _, e in self.serial_loops) or '1'} "
            f"unroll={self.unroll}"
        )


def _extent(index: str, dims: Mapping[str, int]) -> int:
    return 1 if index == ONE else dims[index]


def build_launch(
    operation: TCROperation,
    config: KernelConfig,
    dims: Mapping[str, int],
) -> KernelLaunch:
    """Resolve a configuration into a :class:`KernelLaunch`.

    Raises :class:`ConfigurationError` when the configuration does not fit
    the operation (wrong indices, reduction mapped to the grid, or a loop
    both mapped and serial).
    """
    if not isinstance(config, KernelConfig):
        raise ConfigurationError(
            f"only loop-nest KernelConfigs lower to a kernel launch, got "
            f"{type(config).__name__}; TTGT configurations are scored by "
            "the TTGT cost model and have no loop-nest lowering (codegen "
            "and the functional executor are loop-nest-only)"
        )
    parallel = set(operation.parallel_indices)
    all_indices = set(operation.all_indices)
    for role, idx in (("tx", config.tx), ("ty", config.ty), ("bx", config.bx), ("by", config.by)):
        if idx == ONE:
            if role == "tx":
                raise ConfigurationError("ThreadX must map a real loop")
            continue
        if idx not in all_indices:
            raise ConfigurationError(
                f"{role}={idx!r} is not an index of {operation}"
            )
        if idx not in parallel:
            raise ConfigurationError(
                f"{role}={idx!r} carries a dependence (reduction index) and "
                "cannot be a thread/block dimension"
            )
    mapped = config.mapped
    if len(set(mapped)) != len(mapped):
        raise ConfigurationError(f"decomposition repeats a loop: {mapped}")
    expected_serial = tuple(
        i for i in operation.output.indices + operation.reduction_indices
        if i not in set(mapped)
    )
    if sorted(config.serial_order) != sorted(expected_serial):
        raise ConfigurationError(
            f"serial order {config.serial_order} must cover exactly the "
            f"unmapped loops {expected_serial}"
        )
    red = set(operation.reduction_indices)
    inner_red_extent = 1
    for idx in reversed(config.serial_order):
        if idx in red:
            inner_red_extent = dims[idx]
            break
    if config.unroll < 1 or (inner_red_extent == 1 and config.unroll != 1):
        raise ConfigurationError(
            f"unroll={config.unroll} is invalid for a reduction trip of "
            f"{inner_red_extent}"
        )
    if config.unroll > inner_red_extent:
        raise ConfigurationError(
            f"unroll={config.unroll} exceeds the reduction trip count "
            f"{inner_red_extent}"
        )

    serial_loops = tuple((i, dims[i]) for i in config.serial_order)
    inner_serial = config.serial_order[-1] if config.serial_order else None

    accesses = []
    for ref, is_output in [(r, False) for r in operation.inputs] + [
        (operation.output, True)
    ]:
        tx_stride = stride_of(ref, config.tx, dims)
        inner_stride = (
            stride_of(ref, inner_serial, dims) if inner_serial is not None else 0
        )
        if tx_stride == 1:
            klass = AccessClass.COALESCED
        elif tx_stride == 0:
            klass = AccessClass.BROADCAST
        else:
            klass = AccessClass.STRIDED
        accesses.append(
            RefAccess(
                ref=ref,
                is_output=is_output,
                access_class=klass,
                tx_stride=tx_stride,
                inner_stride=inner_stride,
                elements=ref.size(dims),
            )
        )

    return KernelLaunch(
        operation=operation,
        config=config,
        dims=dims,
        block_dim=(_extent(config.tx, dims), _extent(config.ty, dims)),
        grid_dim=(_extent(config.bx, dims), _extent(config.by, dims)),
        serial_loops=serial_loops,
        accesses=tuple(accesses),
    )


@lru_cache(maxsize=65536)
def _build_launch_from_items(
    operation: TCROperation,
    config: KernelConfig,
    dims_items: tuple[tuple[str, int], ...],
) -> KernelLaunch:
    return build_launch(operation, config, dict(dims_items))


def build_launch_cached(
    operation: TCROperation,
    config: KernelConfig,
    dims: Mapping[str, int],
) -> KernelLaunch:
    """Memoized :func:`build_launch` for repeat visits to the same point.

    Annealing neighborhoods and per-variant sweeps rebuild identical
    launches many times; the launch is immutable, so one construction per
    ``(operation, config, dims)`` suffices.  Failed builds are *not* cached
    (``lru_cache`` does not memoize exceptions) — penalty
    configurations re-pay construction, which is fine because they are also
    re-charged compile time by the evaluator.
    """
    return _build_launch_from_items(operation, config, tuple(sorted(dims.items())))
