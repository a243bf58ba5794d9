"""Vectorized kernel-timing tables: the performance model, batched.

Every search strategy bottoms out in
:meth:`~repro.gpusim.perfmodel.GPUPerformanceModel.evaluate`, which
rebuilds a :class:`~repro.gpusim.kernel.KernelLaunch` and re-runs the
scalar occupancy/compute/memory arithmetic for each configuration.  But a
program's modeled time is a *sum of independent per-kernel timings* plus
configuration-independent transfer costs, so a product space
``|K1| x |K2| x ... x |Kn|`` contains only ``|K1| + |K2| + ... + |Kn|``
distinct kernel timings.  This module exploits that separability:

``KernelTimingTable``
    All of one kernel's per-configuration timings, computed in a single
    numpy pass over the kernel space: a loop-nest space is priced family
    by family (families × unroll factors), never configuration by
    configuration.  The arithmetic mirrors
    ``GPUPerformanceModel`` operation for operation (same association
    order, same int-to-float conversion points), so table entries are
    **bitwise equal** to ``kernel_timing(...).total_s`` — a guarantee the
    test suite enforces.  Configurations the scalar model would reject
    with :class:`~repro.errors.ConfigurationError` (register pressure,
    oversized blocks, illegal unroll) are marked invalid and carry
    ``+inf``.
``ProgramTimingTable``
    Per-kernel tables composed with the config-independent H2D/D2H costs:
    the per-kernel ``argmin`` in O(sum |Ki|) that the separable sweep
    (:mod:`repro.surf.separable`) reads the exact optimum from.  It
    serves only the sweep; the evaluator scores every point on the scalar
    model.  The tables a ``backend="auto"`` decision built to choose each
    operation's lowering come with its space and are not built again.

The deterministic wobble (``stable_uniform`` keyed on the configuration)
is inherently scalar — one BLAKE2b hash per configuration — so it is
precomputed once per table entry during the gather pass instead of being
re-hashed on every model call.  A loop-nest family's hash state absorbs
the shared :meth:`~repro.tcr.space.KernelFamily.family_prefix` once, and
each configuration only adds its unroll digits.

What the tables do *not* model: measurement noise (the sweep optimizes
the noise-free modeled time) and the ``scalar_replacement=False`` /
``efficiency_factor`` handicaps of the OpenACC strategy models (those
paths stay on the scalar model).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.gpusim.calibration import GPUCalibration
from repro.gpusim.gemm import combine_busy, gemm_calibration, gemm_features, gemm_times
from repro.gpusim.perfmodel import GPUPerformanceModel
from repro.gpusim.transfer import program_transfer_time
from repro.gpusim.transpose import transpose_calibration, transpose_time
from repro.tcr.memory import stride_of
from repro.tcr.program import TCROperation, TCRProgram
from repro.tcr.space import (
    ONE,
    KernelFamily,
    KernelSpace,
    ProgramConfig,
    ProgramSpace,
    TTGTKernelSpace,
)
from repro.tcr.ttgt import resolve_plan_cached
from repro.util.rng import StableHashPrefix

__all__ = ["KernelTimingTable", "ProgramTimingTable"]

_B = 8  # bytes per double (matches perfmodel)

#: Access-class codes for the vectorized memory model.
_COALESCED, _BROADCAST, _STRIDED = 0, 1, 2


@dataclass(frozen=True)
class KernelTimingTable:
    """All per-configuration timings of one kernel, as flat numpy vectors.

    ``totals[i]`` is bitwise equal to
    ``model.kernel_timing(build_launch(operation, space[i], dims)).total_s``
    when configuration ``i`` is buildable, and ``+inf`` (with
    ``valid[i] == False``) when the scalar path would raise
    :class:`~repro.errors.ConfigurationError`.
    """

    operation: TCROperation
    space: KernelSpace | TTGTKernelSpace
    flops: int
    totals: np.ndarray
    valid: np.ndarray
    compute_s: np.ndarray
    memory_s: np.ndarray
    utilization: np.ndarray
    occupancy: np.ndarray

    def __len__(self) -> int:
        return len(self.space)

    @classmethod
    def build(
        cls,
        model: GPUPerformanceModel,
        operation: TCROperation,
        space: KernelSpace,
        dims: Mapping[str, int],
    ) -> "KernelTimingTable":
        """Compute every configuration's timing in one vectorized pass."""
        arch, cal = model.arch, model.cal
        families, unrolls = space.families, space.unroll_factors
        n = len(families) * len(unrolls)
        refs = [(r, False) for r in operation.inputs] + [(operation.output, True)]
        parallel = set(operation.parallel_indices)
        red = set(operation.reduction_indices)
        serial_pool = operation.output.indices + operation.reduction_indices
        wobble_key = StableHashPrefix("kernel", arch.name, str(operation))
        flops = operation.flops(dims)

        def ext(idx: str) -> int:
            return 1 if idx == ONE else dims[idx]

        # ------------------------------------------------------------------
        # Gather pass.  The space is its families times its unroll factors,
        # unroll varying fastest.  Everything but the unroll legality and
        # the wobble is a function of the family, so each family's integers
        # are computed once and repeated over the unroll factors.
        # ------------------------------------------------------------------
        def family_row(family: KernelFamily) -> list[int]:
            # build_launch's legality: a KernelSpace's families already map
            # ThreadX to a loop and never repeat one.
            mapped = family.mapped
            ok = set(mapped) <= parallel and sorted(family.serial_order) == sorted(
                i for i in serial_pool if i not in mapped
            )
            inner_red = 1
            for idx in reversed(family.serial_order):
                if idx in red:
                    inner_red = dims[idx]
                    break
            sit = 1
            for idx in family.serial_order:
                sit *= dims[idx]
            row = [
                ok,
                inner_red,
                ext(family.tx) * ext(family.ty),
                ext(family.bx) * ext(family.by),
                sit,
                len(family.serial_order),
            ]
            grid = {family.bx, family.by}
            inner = family.serial_order[-1] if family.serial_order else None
            for ref, _is_out in refs:
                txs = stride_of(ref, family.tx, dims)
                ins = stride_of(ref, inner, dims) if inner is not None else 0
                code = (
                    _COALESCED if txs == 1
                    else _BROADCAST if txs == 0
                    else _STRIDED
                )
                reacc = 1
                for idx in dict.fromkeys(family.serial_order):
                    if idx in ref.indices:
                        reacc *= dims[idx]
                fp = _B
                for idx in ref.indices:
                    if idx not in grid:
                        fp *= dims[idx]
                row += (code, 0 <= ins <= 4, reacc, fp)
            return row

        tails = [str(uf) for uf in unrolls]
        wobs: list[float] = []
        for f in families:
            wobs += wobble_key.uniform_tails(f.family_prefix(), tails)
        # One row per family field (6 scalars, then 4 per reference), one
        # column per configuration.
        fam = np.repeat(
            np.array([family_row(f) for f in families], dtype=np.int64).T,
            len(unrolls),
            axis=1,
        )
        unroll_l = np.tile(np.array(unrolls, dtype=np.int64), len(families))
        inner_red_l = fam[1]
        # build_launch's unroll rule: 1 <= unroll <= the inner reduction
        # trip, and exactly 1 without a reduction loop inside.
        ok_l = (
            (fam[0] != 0)
            & (unroll_l >= 1)
            & ((inner_red_l != 1) | (unroll_l == 1))
            & (unroll_l <= inner_red_l)
        )
        tpb_l, blocks_l, sit_l, nser_l = fam[2], fam[3], fam[4], fam[5]
        code_l = fam[6::4]
        local_l = fam[7::4] != 0
        reacc_l = fam[8::4]
        fp_l = fam[9::4]
        wob_l = np.array(wobs, dtype=np.float64)

        # ------------------------------------------------------------------
        # Occupancy (perfmodel.occupancy): block slots, warp slots, registers.
        # ------------------------------------------------------------------
        ws = arch.warp_size
        wpb = -(-tpb_l // ws)  # ceil(tpb / warp_size), exact for integer tpb
        regs = np.minimum(
            14 + 3 * np.maximum(0, unroll_l - 1) + 2 * nser_l,
            arch.max_registers_per_thread,
        )
        reg_limit = arch.registers_per_sm // np.maximum(1, regs * tpb_l)
        bps = np.minimum(
            np.minimum(arch.max_blocks_per_sm, arch.max_warps_per_sm // wpb),
            reg_limit,
        )
        valid = ok_l & (tpb_l <= arch.max_threads_per_block) & (bps >= 1)
        bps = np.maximum(bps, 1)  # keep the arithmetic finite on invalid rows
        active_warps = np.minimum(bps * wpb, arch.max_warps_per_sm)
        occupancy = active_warps / arch.max_warps_per_sm

        # ------------------------------------------------------------------
        # Utilization (perfmodel._utilization).
        # ------------------------------------------------------------------
        concurrent = np.minimum(blocks_l, arch.sm_count * bps)
        needed = arch.sm_count * arch.latency_hiding_warps
        # numpy's vectorized pow can differ from libm's by 1 ulp; the scalar
        # model uses Python's ``**`` (libm), so match it elementwise.
        latency_base = np.minimum(1.0, concurrent * wpb / needed)
        exp = cal.latency_exponent
        latency = np.fromiter(
            (b ** exp for b in latency_base.tolist()), dtype=np.float64, count=n
        )
        capacity = arch.sm_count * bps
        waves = np.ceil(blocks_l / capacity)
        tail = np.where(waves <= 1.0, 1.0, blocks_l / (waves * capacity))
        utilization = latency * np.maximum(tail, 1e-3)

        # ------------------------------------------------------------------
        # Compute time (perfmodel._compute_time).
        # ------------------------------------------------------------------
        warp_fill = tpb_l / (wpb * ws)
        ilp = (
            cal.ilp_base
            + (1.0 - cal.ilp_base)
            * np.minimum(unroll_l, cal.ilp_saturation)
            / cal.ilp_saturation
        )
        overhead = 1.0 / (1.0 + cal.loop_overhead / unroll_l)
        eff = cal.compute_efficiency_max * warp_fill * ilp * overhead
        dp_time = flops / (arch.peak_dp_gflops * 1e9 * eff)
        iterations = tpb_l * blocks_l * sit_l
        addr_ops = cal.addr_base + cal.addr_loop / unroll_l
        int_time = iterations * addr_ops / (arch.int_gops * 1e9 * warp_fill)
        compute_s = dp_time + int_time

        # ------------------------------------------------------------------
        # Memory time (perfmodel._memory_time, scalar_replacement=True).
        # ------------------------------------------------------------------
        warps_total = blocks_l * wpb
        strided_pw = float(ws * arch.transaction_bytes)
        strided_pw_local = strided_pw / max(1.0, arch.transaction_bytes / (4 * _B))
        per_ref_traffic: list[tuple[np.ndarray, np.ndarray]] = []
        hot_set = np.zeros(n, dtype=np.int64)
        for r, (ref, is_out) in enumerate(refs):
            per_warp = np.where(
                code_l[r] == _COALESCED,
                float(ws * _B),
                np.where(
                    code_l[r] == _BROADCAST,
                    float(arch.transaction_bytes),
                    np.where(local_l[r], strided_pw_local, strided_pw),
                ),
            )
            raw = warps_total * reacc_l[r] * per_warp
            block_floor = (blocks_l * fp_l[r]).astype(np.float64)
            if is_out:
                raw = raw * 2.0
                block_floor = block_floor * 2.0
            cond = (block_floor < raw) & (fp_l[r] <= 64 * 1024)
            total = np.where(
                cond,
                block_floor + arch.cache_miss_fraction * (raw - block_floor),
                raw,
            )
            elements = ref.size(dims)
            cold_const = elements * _B * (
                2.0 if is_out and cal.write_allocate else 1.0
            )
            cold = np.minimum(cold_const, total)
            hot_set = hot_set + np.where(total > 1.5 * cold, elements * _B, 0)
            per_ref_traffic.append((total, cold))
        usable_l2 = arch.l2_bytes * cal.l2_usable_fraction
        l2_hit = np.where(
            hot_set > 0,
            np.minimum(1.0, usable_l2 / np.maximum(hot_set, 1)),
            1.0,
        )
        dram_bytes = 0.0
        l2_bytes = 0.0
        for total, cold in per_ref_traffic:
            dram_now = cold + (total - cold) * (1.0 - l2_hit)
            dram_bytes = dram_bytes + dram_now
            l2_bytes = l2_bytes + (total - dram_now)
        eff_bw = arch.dram_bandwidth_gbs * arch.dram_efficiency * 1e9
        memory_s = dram_bytes / eff_bw + l2_bytes / (eff_bw * arch.l2_bandwidth_ratio)

        # ------------------------------------------------------------------
        # Whole-kernel assembly (perfmodel.kernel_timing).
        # ------------------------------------------------------------------
        busy = np.maximum(compute_s, memory_s) + 0.3 * np.minimum(compute_s, memory_s)
        launch_s = arch.kernel_launch_us * 1e-6
        wobble = 1.0 + cal.systematic_noise * (2.0 * wob_l - 1.0)
        totals = busy / utilization * wobble + launch_s
        totals = np.where(valid, totals, np.inf)

        return cls(
            operation=operation,
            space=space,
            flops=flops,
            totals=totals,
            valid=valid,
            compute_s=compute_s,
            memory_s=memory_s,
            utilization=utilization,
            occupancy=occupancy,
        )

    @classmethod
    def build_ttgt(
        cls,
        model: GPUPerformanceModel,
        operation: TCROperation,
        space: TTGTKernelSpace,
        dims: Mapping[str, int],
    ) -> "KernelTimingTable":
        """Vectorized TTGT scoring: one table row per TTGT configuration.

        Mirrors ``GPUPerformanceModel.ttgt_kernel_timing`` bitwise.  The
        gather pass resolves each configuration's plan to integers via the
        *same* :func:`~repro.gpusim.gemm.gemm_features` helper the scalar
        path uses; the float math then runs through the *same*
        ``gemm_times``/``transpose_time``/``combine_busy`` functions with
        array arguments (all their operations are elementwise IEEE-754,
        so scalar and array results agree bit for bit).  Transposes
        occupy fixed (A, B, C) slots; absent slots contribute an exact
        ``+ 0.0``, which preserves the scalar sum bitwise.  TTGT legality
        is enforced at enumeration time, so every row is valid.
        """
        arch, cal = model.arch, model.cal
        n = len(space)
        gcal = gemm_calibration(arch)
        tcal = transpose_calibration(arch)
        wobble_key = StableHashPrefix("ttgt", arch.name, str(operation))
        flops = operation.flops(dims)

        feat = np.empty((8, n), dtype=np.float64)
        n_kernels = np.empty(n, dtype=np.float64)
        wob = np.empty(n, dtype=np.float64)
        slot_elements = np.zeros((3, n), dtype=np.float64)
        slot_read = np.ones((3, n), dtype=np.float64)
        slot_write = np.ones((3, n), dtype=np.float64)
        slot_preserved = np.zeros((3, n), dtype=np.float64)
        slot_mask = np.zeros((3, n), dtype=bool)
        slot_of = {"A": 0, "B": 1, "C": 2}
        for i, cfg in enumerate(space):
            plan = resolve_plan_cached(operation, cfg, dims)
            for j, value in enumerate(gemm_features(gcal, plan)):
                feat[j, i] = value
            n_kernels[i] = plan.n_kernels
            wob[i] = wobble_key.uniform(cfg.describe())
            for spec in plan.transposes:
                s = slot_of[spec.slot]
                slot_mask[s, i] = True
                slot_elements[s, i] = spec.elements
                slot_read[s, i] = spec.read_inner
                slot_write[s, i] = spec.write_inner
                slot_preserved[s, i] = 1.0 if spec.preserved else 0.0

        compute_s, gemm_memory_s = gemm_times(
            arch, gcal,
            feat[0], feat[1], feat[2], feat[3], feat[4], feat[5], feat[6],
            feat[7],
        )
        trans_s = np.zeros(n, dtype=np.float64)
        for s in range(3):
            t = transpose_time(
                arch, tcal, slot_elements[s], slot_read[s], slot_write[s],
                slot_preserved[s],
            )
            trans_s = trans_s + np.where(slot_mask[s], t, 0.0)
        busy = combine_busy(compute_s, gemm_memory_s)
        launch_s = n_kernels * (arch.kernel_launch_us * 1e-6)
        wobble = 1.0 + cal.systematic_noise * (2.0 * wob - 1.0)
        totals = (busy + trans_s) * wobble + launch_s

        return cls(
            operation=operation,
            space=space,
            flops=flops,
            totals=totals,
            valid=np.ones(n, dtype=bool),
            compute_s=compute_s,
            memory_s=gemm_memory_s + trans_s,
            utilization=np.ones(n, dtype=np.float64),
            occupancy=np.ones(n, dtype=np.float64),
        )


@dataclass(frozen=True)
class ProgramTimingTable:
    """Per-kernel timing tables composed with the transfer costs.

    Kernel indices are positions in the owning :class:`ProgramSpace`'s
    kernel spaces.  All times reproduce
    ``GPUPerformanceModel.program_timing`` bitwise (same left-to-right
    summation order as ``ProgramTiming``).
    """

    program: TCRProgram
    space: ProgramSpace
    kernels: tuple[KernelTimingTable, ...]
    cal: GPUCalibration
    h2d_s: float
    d2h_s: float
    flops: int

    @classmethod
    def build(
        cls,
        model: GPUPerformanceModel,
        program: TCRProgram,
        space: ProgramSpace,
    ) -> "ProgramTimingTable":
        """Every kernel's table, plus the transfer costs.

        A table the decision already built for ``space`` under this
        ``model`` (:attr:`ProgramSpace.tables`) is taken as it is; every
        other one is built here.
        """
        priced = space.priced_by is model and space.program is program
        kernels = []
        for k, (op, ks) in enumerate(zip(program.operations, space.kernel_spaces)):
            table = space.tables[k] if priced else None
            if table is None:
                build = (
                    KernelTimingTable.build_ttgt
                    if isinstance(ks, TTGTKernelSpace)
                    else KernelTimingTable.build
                )
                table = build(model, op, ks, program.dims)
            kernels.append(table)
        h2d_elems, d2h_elems = program.transfer_elements()
        h2d, d2h = program_transfer_time(
            model.arch, h2d_elems, d2h_elems, h2d_calls=len(program.input_names)
        )
        return cls(
            program=program,
            space=space,
            kernels=tuple(kernels),
            cal=model.cal,
            h2d_s=h2d,
            d2h_s=d2h,
            flops=program.flops(),
        )

    # ------------------------------------------------------------------
    @property
    def kernel_evaluations(self) -> int:
        """Distinct kernel timings held — sum, not product, of space sizes."""
        return sum(len(t) for t in self.kernels)

    def kernel_seconds(self, ids: Sequence[int]) -> float:
        """Sum of kernel times (``ProgramTiming.kernel_s``); inf if invalid."""
        total = 0.0
        for t, i in zip(self.kernels, ids):
            total = total + float(t.totals[i])
        return total

    def total_seconds(self, ids: Sequence[int], include_transfer: bool = True) -> float:
        ks = self.kernel_seconds(ids)
        if not include_transfer:
            return ks
        return (self.h2d_s + ks) + self.d2h_s

    def evaluation_wall(self, ids: Sequence[int]) -> float:
        """Simulated rig cost of one empirical evaluation of this point."""
        total = self.total_seconds(ids, include_transfer=True)
        measure = min(self.cal.repetitions * total, self.cal.measure_cap_seconds)
        return self.cal.compile_seconds + measure

    def config_for(self, ids: Sequence[int], global_id: int = -1) -> ProgramConfig:
        return ProgramConfig(
            variant_index=self.space.variant_index,
            kernels=tuple(
                ks[i] for ks, i in zip(self.space.kernel_spaces, ids)
            ),
            global_id=global_id,
        )

    def local_index(self, ids: Sequence[int]) -> int:
        """Mixed-radix position of ``ids`` within the program space."""
        index = 0
        for ks, i in zip(self.space.kernel_spaces, ids):
            index = index * len(ks) + i
        return index

    # ------------------------------------------------------------------
    def argmin(
        self, include_transfer: bool = True
    ) -> tuple[tuple[int, ...], float] | None:
        """Noise-free optimum via per-kernel argmin — O(sum |Ki|).

        Separability: the program total is a sum of independent per-kernel
        terms plus constants, so its minimizer is the per-kernel minimizer
        tuple.  First-occurrence ``argmin`` per kernel reproduces the
        global enumeration-order tie-break.  Returns None when some kernel
        has no valid configuration at all.
        """
        ids = []
        for t in self.kernels:
            if not bool(t.valid.any()):
                return None
            ids.append(int(np.argmin(t.totals)))
        ids_t = tuple(ids)
        return ids_t, self.total_seconds(ids_t, include_transfer)

    def first_invalid(self) -> tuple[int, ...] | None:
        """Kernel ids of the enumeration-earliest *invalid* configuration.

        That is the first point an exhaustive enumeration would score as a
        build-failure penalty; None when every configuration is valid.
        """
        sizes = [len(t) for t in self.kernels]
        best_pos: int | None = None
        best_ids: tuple[int, ...] | None = None
        for k, t in enumerate(self.kernels):
            invalid = np.flatnonzero(~t.valid)
            if invalid.size == 0:
                continue
            ids = tuple(
                int(invalid[0]) if j == k else 0 for j in range(len(sizes))
            )
            pos = self.local_index(ids)
            if best_pos is None or pos < best_pos:
                best_pos, best_ids = pos, ids
        return best_ids
