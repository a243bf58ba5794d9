"""Analytical GPU timing model — the autotuning objective function.

This is the reproduction's substitute for running nvcc-compiled kernels on
real silicon.  For a :class:`~repro.gpusim.kernel.KernelLaunch` it computes
a roofline-style time from exactly the features the paper's search space
manipulates, so the optimization landscape responds to every tuning
parameter for the same physical reasons the hardware does:

========================  ====================================================
decision                  effect in the model
========================  ====================================================
ThreadX choice            per-reference coalescing class -> transaction bytes
ThreadY/BlockX/BlockY     threads/block & grid size -> occupancy, latency
                          hiding, SM utilisation (tail/wave effects)
serial loop order         loop-invariant hoisting (a reference independent of
                          an inner loop is loaded once, not per iteration)
                          and intra-thread locality of the innermost loop
unroll factor             ILP ramp + loop-overhead amortisation, opposed by
                          register pressure -> occupancy loss (non-monotone)
OCTOPI variant            total flops, #kernels (launch overhead), temporary
                          traffic, per-kernel shapes
========================  ====================================================

A deterministic ±3% perturbation keyed on the configuration makes the
landscape realistically rough; optional measurement noise models run-to-run
variation of the empirical autotuner.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.gpusim.arch import GPUArch
from repro.gpusim.calibration import DEFAULT_GPU_CAL, GPUCalibration
from repro.gpusim.gemm import combine_busy, gemm_calibration, gemm_features, gemm_times
from repro.gpusim.kernel import AccessClass, KernelLaunch, build_launch_cached
from repro.gpusim.transfer import program_transfer_time
from repro.gpusim.transpose import transpose_calibration, transpose_time
from repro.tcr.program import TCROperation, TCRProgram
from repro.tcr.space import ProgramConfig, TTGTConfig
from repro.tcr.ttgt import resolve_plan_cached
from repro.util.rng import stable_uniform

__all__ = ["KernelTiming", "ProgramTiming", "GPUPerformanceModel"]

_B = 8  # bytes per double


@dataclass(frozen=True)
class KernelTiming:
    """Breakdown of one kernel's modeled execution."""

    compute_s: float
    memory_s: float
    utilization: float
    occupancy: float
    launch_s: float
    total_s: float
    flops: int

    @property
    def gflops(self) -> float:
        return self.flops / self.total_s / 1e9 if self.total_s > 0 else 0.0

    @property
    def bound(self) -> str:
        return "compute" if self.compute_s >= self.memory_s else "memory"


@dataclass(frozen=True)
class ProgramTiming:
    """Breakdown of a whole tuned program run (transfers + all kernels)."""

    h2d_s: float
    d2h_s: float
    kernels: tuple[KernelTiming, ...]
    flops: int

    @property
    def kernel_s(self) -> float:
        return sum(k.total_s for k in self.kernels)

    @property
    def total_s(self) -> float:
        return self.h2d_s + self.kernel_s + self.d2h_s

    @property
    def gflops(self) -> float:
        return self.flops / self.total_s / 1e9 if self.total_s > 0 else 0.0

    @property
    def device_gflops(self) -> float:
        """Rate excluding PCIe transfers (kernel time only)."""
        return self.flops / self.kernel_s / 1e9 if self.kernel_s > 0 else 0.0


class GPUPerformanceModel:
    """Timing model for one architecture.

    Parameters
    ----------
    arch:
        The device datasheet.
    calibration:
        Behavioural constants (defaults reproduce the paper's shapes).
    """

    def __init__(
        self, arch: GPUArch, calibration: GPUCalibration = DEFAULT_GPU_CAL
    ) -> None:
        self.arch = arch
        self.cal = calibration

    # ------------------------------------------------------------------
    # Occupancy & utilization
    # ------------------------------------------------------------------
    def occupancy(self, launch: KernelLaunch) -> tuple[float, int]:
        """(occupancy fraction, concurrent blocks per SM).

        Standard CUDA occupancy arithmetic: blocks per SM limited by the
        block slots, the warp slots, and the register file.
        """
        arch = self.arch
        tpb = launch.threads_per_block
        if tpb > arch.max_threads_per_block:
            raise ConfigurationError(
                f"{tpb} threads/block exceeds {arch.name}'s limit of "
                f"{arch.max_threads_per_block}"
            )
        wpb = math.ceil(tpb / arch.warp_size)
        regs = min(launch.registers_per_thread(), arch.max_registers_per_thread)
        reg_limit = arch.registers_per_sm // max(1, regs * tpb)
        blocks_per_sm = min(
            arch.max_blocks_per_sm, arch.max_warps_per_sm // wpb, reg_limit
        )
        if blocks_per_sm < 1:
            raise ConfigurationError(
                f"register pressure ({regs}/thread x {tpb} threads) leaves no "
                f"room for a block on {arch.name}"
            )
        active_warps = min(blocks_per_sm * wpb, arch.max_warps_per_sm)
        return active_warps / arch.max_warps_per_sm, blocks_per_sm

    def _utilization(self, launch: KernelLaunch, blocks_per_sm: int) -> float:
        """Fraction of the device's latency-hiding capacity actually used."""
        arch = self.arch
        cal = self.cal
        wpb = math.ceil(launch.threads_per_block / arch.warp_size)
        concurrent_blocks = min(launch.total_blocks, arch.sm_count * blocks_per_sm)
        active_warps_total = concurrent_blocks * wpb
        needed = arch.sm_count * arch.latency_hiding_warps
        latency_factor = min(1.0, active_warps_total / needed) ** cal.latency_exponent
        # Wave quantization: a grid of capacity+1 blocks runs as slow as two
        # full waves.  Grids smaller than one wave are *not* penalized here —
        # their idle SMs are what the latency factor already accounts for.
        capacity = arch.sm_count * blocks_per_sm
        waves = math.ceil(launch.total_blocks / capacity)
        tail_factor = (
            1.0 if waves <= 1 else launch.total_blocks / (waves * capacity)
        )
        return latency_factor * max(tail_factor, 1e-3)

    # ------------------------------------------------------------------
    # Compute and memory components
    # ------------------------------------------------------------------
    def _compute_time(self, launch: KernelLaunch) -> float:
        arch = self.arch
        cal = self.cal
        tpb = launch.threads_per_block
        wpb = math.ceil(tpb / arch.warp_size)
        warp_fill = tpb / (wpb * arch.warp_size)
        u = launch.unroll
        ilp = cal.ilp_base + (1.0 - cal.ilp_base) * min(u, cal.ilp_saturation) / cal.ilp_saturation
        overhead = 1.0 / (1.0 + cal.loop_overhead / u)
        eff = cal.compute_efficiency_max * warp_fill * ilp * overhead
        dp_time = launch.flops / (arch.peak_dp_gflops * 1e9 * eff)
        # Small-tensor kernels spend a large share of their issue slots on
        # index arithmetic; unrolling lets the compiler CSE the addressing.
        iterations = launch.total_threads * launch.serial_iterations
        addr_ops_per_iter = cal.addr_base + cal.addr_loop / u
        int_time = iterations * addr_ops_per_iter / (arch.int_gops * 1e9 * warp_fill)
        return dp_time + int_time

    def _memory_time(self, launch: KernelLaunch, scalar_replacement: bool = True) -> float:
        arch = self.arch
        cal = self.cal
        wpb = math.ceil(launch.threads_per_block / arch.warp_size)
        warps_total = launch.total_blocks * wpb
        serial = dict(launch.serial_loops)
        grid_indices = {launch.config.bx, launch.config.by}
        usable_l2 = arch.l2_bytes * cal.l2_usable_fraction
        dram_bytes = 0.0
        l2_bytes = 0.0
        # First pass: per-ref traffic; second pass: split DRAM/L2 using the
        # *hot set* — only re-used arrays compete for L2 residency (streamed
        # arrays such as a huge write-once output do not evict the operands).
        per_ref: list[tuple[float, float]] = []  # (total, cold)
        for acc in launch.accesses:
            # Loop-invariant hoisting: a reference is re-accessed only across
            # the serial loops whose index it actually uses.
            reaccess = 1
            for idx, extent in serial.items():
                if idx in acc.ref.indices:
                    reaccess *= extent
            if acc.access_class is AccessClass.COALESCED:
                per_warp = arch.warp_size * _B
            elif acc.access_class is AccessClass.BROADCAST:
                per_warp = arch.transaction_bytes
            else:  # STRIDED: one transaction per lane
                per_warp = arch.warp_size * arch.transaction_bytes
                if acc.inner_local:
                    # Consecutive serial iterations walk within a line, so the
                    # fetched transaction is partially reused from L1/registers.
                    per_warp /= max(1.0, arch.transaction_bytes / (4 * _B))
            if acc.is_output and not scalar_replacement:
                # Without scalar replacement the accumulator lives in global
                # memory: every reduction iteration reloads and rewrites it.
                red = set(launch.operation.reduction_indices)
                for idx, extent in serial.items():
                    if idx in red and idx not in acc.ref.indices:
                        reaccess *= extent
            raw = warps_total * reaccess * per_warp
            # Intra-block reuse: the elements a block touches (everything not
            # split across the grid) sit in the first-level/read-only cache,
            # so only a calibrated fraction of re-accesses leaves the SM.
            footprint = _B
            for idx in acc.ref.indices:
                if idx not in grid_indices:
                    footprint *= launch.dims[idx]
            block_floor = launch.total_blocks * footprint
            if acc.is_output:
                raw *= 2.0         # read-modify-write at the edges (or per trip)
                block_floor *= 2.0
            if block_floor < raw and footprint <= 64 * 1024:
                total = block_floor + arch.cache_miss_fraction * (raw - block_floor)
            else:
                total = raw
            cold = acc.elements * _B * (2.0 if acc.is_output and cal.write_allocate else 1.0)
            cold = min(cold, total)
            per_ref.append((total, cold))
        hot_set = sum(
            acc.elements * _B
            for acc, (total, cold) in zip(launch.accesses, per_ref)
            if total > 1.5 * cold  # genuinely re-used
        )
        l2_hit = min(1.0, usable_l2 / hot_set) if hot_set > 0 else 1.0
        for total, cold in per_ref:
            dram_now = cold + (total - cold) * (1.0 - l2_hit)
            dram_bytes += dram_now
            l2_bytes += total - dram_now
        eff_bw = arch.dram_bandwidth_gbs * arch.dram_efficiency * 1e9
        return dram_bytes / eff_bw + l2_bytes / (eff_bw * arch.l2_bandwidth_ratio)

    # ------------------------------------------------------------------
    # Public timing API
    # ------------------------------------------------------------------
    def kernel_timing(
        self,
        launch: KernelLaunch,
        scalar_replacement: bool = True,
        efficiency_factor: float = 1.0,
    ) -> KernelTiming:
        """Model one kernel; deterministic for a given (arch, launch).

        ``scalar_replacement=False`` and ``efficiency_factor`` let the
        OpenACC strategy models reuse this machinery with their handicaps.
        """
        occupancy, blocks_per_sm = self.occupancy(launch)
        utilization = self._utilization(launch, blocks_per_sm) * efficiency_factor
        t_c = self._compute_time(launch)
        t_m = self._memory_time(launch, scalar_replacement=scalar_replacement)
        busy = max(t_c, t_m) + 0.3 * min(t_c, t_m)  # imperfect overlap
        launch_s = self.arch.kernel_launch_us * 1e-6
        wobble = 1.0 + self.cal.systematic_noise * (
            2.0 * stable_uniform(
                "kernel", self.arch.name, str(launch.operation),
                launch.config.describe(),
            ) - 1.0
        )
        total = busy / utilization * wobble + launch_s
        return KernelTiming(
            compute_s=t_c,
            memory_s=t_m,
            utilization=utilization,
            occupancy=occupancy,
            launch_s=launch_s,
            total_s=total,
            flops=launch.flops,
        )

    def ttgt_kernel_timing(
        self,
        operation: TCROperation,
        config: TTGTConfig,
        dims,
    ) -> KernelTiming:
        """Model one operation lowered via TTGT (transposes + batched GEMM).

        The GEMM leg uses the per-generation roofline of
        :mod:`repro.gpusim.gemm`; each materialized permutation adds the
        :mod:`repro.gpusim.transpose` sweep cost plus a kernel launch.
        The same ±systematic-noise wobble as the loop-nest path applies,
        keyed under a distinct ``"ttgt"`` prefix so the two lowerings of
        one operation land on independent points of the landscape.

        Bitwise contract: :func:`repro.gpusim.timing_table.build_ttgt_table`
        mirrors this computation with array arguments through the *same*
        gemm/transpose helper functions — keep the two in lockstep.
        """
        plan = resolve_plan_cached(operation, config, dims)
        gcal = gemm_calibration(self.arch)
        tcal = transpose_calibration(self.arch)
        t_c, t_m = gemm_times(self.arch, gcal, *gemm_features(gcal, plan))
        trans_s = 0.0
        for spec in plan.transposes:
            trans_s = trans_s + transpose_time(
                self.arch, tcal, float(spec.elements),
                float(spec.read_inner), float(spec.write_inner),
                1.0 if spec.preserved else 0.0,
            )
        busy = combine_busy(t_c, t_m)
        launch_s = plan.n_kernels * (self.arch.kernel_launch_us * 1e-6)
        wobble = 1.0 + self.cal.systematic_noise * (
            2.0 * stable_uniform(
                "ttgt", self.arch.name, str(operation), config.describe()
            ) - 1.0
        )
        total = (busy + trans_s) * wobble + launch_s
        return KernelTiming(
            compute_s=float(t_c),
            memory_s=float(t_m + trans_s),
            utilization=1.0,
            occupancy=1.0,
            launch_s=launch_s,
            total_s=float(total),
            flops=operation.flops(dims),
        )

    def program_timing(
        self, program: TCRProgram, config: ProgramConfig
    ) -> ProgramTiming:
        """Model a full tuned program: H2D, one kernel per operation, D2H."""
        if len(config.kernels) != len(program.operations):
            raise SimulationError(
                f"configuration has {len(config.kernels)} kernels for "
                f"{len(program.operations)} operations"
            )
        kernels = []
        for op, kc in zip(program.operations, config.kernels):
            if isinstance(kc, TTGTConfig):
                kernels.append(self.ttgt_kernel_timing(op, kc, program.dims))
            else:
                launch = build_launch_cached(op, kc, program.dims)
                kernels.append(self.kernel_timing(launch))
        h2d_elems, d2h_elems = program.transfer_elements()
        h2d, d2h = program_transfer_time(
            self.arch, h2d_elems, d2h_elems, h2d_calls=len(program.input_names)
        )
        return ProgramTiming(
            h2d_s=h2d, d2h_s=d2h, kernels=tuple(kernels), flops=program.flops()
        )

    def value_from_timing(
        self,
        timing: ProgramTiming,
        rng: np.random.Generator | None = None,
        include_transfer: bool = True,
    ) -> float:
        """Objective value from an already-computed :class:`ProgramTiming`.

        Evaluator paths that need both the objective and the wall cost can
        compute the timing once and derive both, instead of running the
        model twice per configuration.  With ``rng``, one draw of
        measurement noise perturbs the modeled time.
        """
        t = timing.total_s if include_transfer else timing.kernel_s
        if rng is not None:
            sigma = self.cal.measurement_noise / math.sqrt(self.cal.repetitions)
            t = t * max(0.1, 1.0 + sigma * rng.standard_normal())
        return t

    def wall_from_timing(self, timing: ProgramTiming) -> float:
        """Evaluation wall cost from an already-computed timing."""
        measure = min(
            self.cal.repetitions * timing.total_s, self.cal.measure_cap_seconds
        )
        return self.cal.compile_seconds + measure

    def evaluate(
        self,
        program: TCRProgram,
        config: ProgramConfig,
        rng: np.random.Generator | None = None,
        include_transfer: bool = True,
    ) -> float:
        """The autotuning objective: seconds for one empirical evaluation.

        With ``rng`` given, adds measurement noise shrunk by the repetition
        count (the paper averages each point over 100 runs).
        """
        timing = self.program_timing(program, config)
        return self.value_from_timing(timing, rng=rng, include_transfer=include_transfer)

    def evaluation_wall_seconds(
        self, program: TCRProgram, config: ProgramConfig
    ) -> float:
        """Wall-clock cost of *performing* one empirical evaluation.

        Compile + repetitions; this is what the paper's "Search" column in
        Table II accumulates (about 4 s per variant for Lg3t).
        """
        timing = self.program_timing(program, config)
        return self.wall_from_timing(timing)
