"""Tests for the GPU decision algorithm and the search-space machinery."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, SearchSpaceError
from repro.tcr.decision import (
    decide_kernel_space,
    decide_search_space,
    thread_block_candidates,
)
from repro.tcr.program import TCROperation
from repro.tcr.space import ONE, KernelConfig, ProgramConfig, TuningSpace
from repro.util.rng import spawn_rng
from repro.workloads.spectral import eqn1, lg3


class TestCandidates:
    def test_lg3_first_kernel(self):
        program = lg3(12, 64).program
        op = program.operations[0]
        tx, ordered = thread_block_candidates(op, program.dims)
        # k is stride-1 in u and in the output.
        assert "k" in tx
        # The element loop e must be reachable for the grid.
        assert "e" in ordered
        # Reduction index l is never a candidate.
        assert "l" not in tx and "l" not in ordered

    def test_tx_fallback_when_nothing_coalesces(self):
        # Both inputs strided in every parallel index, output too:
        op = TCROperation.parse("o:(j,i) += a:(i,z)*b:(z,j)")
        dims = {"i": 4, "j": 4, "z": 4}
        tx, _ = thread_block_candidates(op, dims)
        assert tx  # falls back to the innermost output loop
        assert set(tx) <= {"i", "j"}

    def test_candidates_are_parallel_only(self, two_op_program):
        for op in two_op_program.operations:
            tx, ordered = thread_block_candidates(op, two_op_program.dims)
            parallel = set(op.parallel_indices)
            assert set(tx) <= parallel
            assert set(ordered) <= parallel

    def test_output_order_fallback_skips_reductions(self):
        # A rank-1 input reachable only through the output-order fallback
        # (fewer than four candidates from the input passes) must not let
        # a reduction index into the thread/block candidate list.  This
        # is the regression test for the unfiltered fallback: every
        # output index used to be appended, parallel or not — impossible
        # through TCROperation (output indices are parallel by
        # construction), but the filter keeps the invariant local, and
        # the resulting space must stay buildable end to end.
        op = TCROperation.parse("o:(j,i) += a:(i,z)*b:(z,j)")
        dims = {"i": 4, "j": 4, "z": 4}
        tx, ordered = thread_block_candidates(op, dims)
        parallel = set(op.parallel_indices)
        assert set(tx) <= parallel
        assert set(ordered) <= parallel
        assert "z" not in ordered
        space = decide_kernel_space(op, dims)
        for config in space:
            assert "z" not in (config.tx, config.ty, config.bx, config.by)


class TestKernelSpace:
    def test_distinctness_enforced(self, two_op_program):
        op = two_op_program.operations[0]
        space = decide_kernel_space(op, two_op_program.dims)
        for config in space:
            mapped = [v for v in (config.tx, config.ty, config.bx, config.by) if v != ONE]
            assert len(set(mapped)) == len(mapped)

    def test_tx_never_one(self, two_op_program):
        op = two_op_program.operations[0]
        for config in decide_kernel_space(op, two_op_program.dims):
            assert config.tx != ONE

    def test_unroll_factors_span_trip(self, two_op_program):
        op = two_op_program.operations[0]  # reduction j of extent 4
        space = decide_kernel_space(op, two_op_program.dims)
        assert set(space.unroll_factors) == {1, 2, 3, 4}

    def test_no_reduction_means_no_unroll(self):
        op = TCROperation.parse("o:(i,j) += a:(i)*b:(j)")
        space = decide_kernel_space(op, {"i": 4, "j": 4})
        assert space.unroll_factors == (1,)

    def test_serial_orders_cover_unmapped(self, two_op_program):
        op = two_op_program.operations[0]
        for config in decide_kernel_space(op, two_op_program.dims):
            expected = {
                i
                for i in op.output.indices + op.reduction_indices
                if i not in set(config.mapped)
            }
            assert set(config.serial_order) == expected

    def test_permute_serial_enlarges_space(self):
        program = lg3(6, 16).program
        base = decide_kernel_space(program.operations[0], program.dims)
        wide = decide_kernel_space(
            program.operations[0], program.dims, permute_serial=True
        )
        assert len(wide) > len(base)

    def test_scalar_output_rejected(self):
        op = TCROperation.parse("o:() += a:(i)*b:(i)")
        with pytest.raises(SearchSpaceError, match="no parallel loops"):
            decide_kernel_space(op, {"i": 4})

    def test_index_lookup(self, two_op_program):
        space = decide_kernel_space(
            two_op_program.operations[0], two_op_program.dims
        )
        for i, config in enumerate(space):
            assert space.index_of(config) == i

    def test_foreign_config_rejected(self, two_op_program):
        space = decide_kernel_space(
            two_op_program.operations[0], two_op_program.dims
        )
        foreign = KernelConfig(
            tx="zz", ty=ONE, bx=ONE, by=ONE, serial_order=(), unroll=1
        )
        with pytest.raises(ConfigurationError):
            space.index_of(foreign)


class TestProgramAndTuningSpace:
    def test_foreign_program_config_rejected(self):
        """A configuration of another variant, or with another kernel
        count, is outside the space even where its kernels are inside."""
        space = decide_search_space(lg3(4, 8).program)
        inside = space.config_at(5)
        assert len(inside.kernels) == 3
        assert space.index_of(inside) == 5
        for foreign in (
            ProgramConfig(7, inside.kernels[:1]),
            ProgramConfig(0, inside.kernels + inside.kernels[:1]),
            ProgramConfig(1, inside.kernels),
        ):
            with pytest.raises(ConfigurationError, match="not in the space"):
                space.index_of(foreign)

    def test_eqn1_variant_space_is_paper_scale(self):
        from repro.core.pipeline import compile_contraction

        compiled = compile_contraction(eqn1().contraction)
        best = compiled.minimal_flop_variants()[0]
        space = decide_search_space(best.program)
        # Three kernels, O(10^5..10^6) combined points (paper: 512,000 for
        # the same-shaped Lg3t space).
        assert len(space.kernel_spaces) == 3
        assert 10_000 <= space.size() <= 5_000_000

    def test_mixed_radix_round_trip(self, two_op_program):
        space = decide_search_space(two_op_program)
        for index in (0, 1, 7, space.size() - 1):
            config = space.config_at(index)
            assert space.index_of(config) == index

    def test_out_of_range(self, two_op_program):
        space = decide_search_space(two_op_program)
        with pytest.raises(ConfigurationError):
            space.config_at(space.size())

    def test_tuning_space_offsets(self, two_op_program):
        ps = decide_search_space(two_op_program)
        ts = TuningSpace([ps, decide_search_space(two_op_program, variant_index=1)])
        assert ts.size() == 2 * ps.size()
        first_of_second = ts.config_at(ps.size())
        assert first_of_second.variant_index == 1
        assert ts.config_at(0).variant_index == 0

    def test_global_ids_attached(self, two_op_program):
        ts = TuningSpace([decide_search_space(two_op_program)])
        config = ts.config_at(5)
        assert config.global_id == 5

    def test_sampling_distinct_and_in_range(self, two_op_program):
        ts = TuningSpace([decide_search_space(two_op_program)])
        rng = spawn_rng(0, "test-sample")
        ids = ts.sample_ids(min(200, ts.size()), rng)
        assert len(set(ids)) == len(ids)
        assert all(0 <= g < ts.size() for g in ids)

    def test_sampling_whole_space_when_small(self, two_op_program):
        ts = TuningSpace([decide_search_space(two_op_program)])
        rng = spawn_rng(0, "x")
        ids = ts.sample_ids(ts.size() + 10, rng)
        assert ids == list(range(ts.size()))

    def test_features_shape(self, two_op_program):
        ts = TuningSpace([decide_search_space(two_op_program)])
        feats = ts.config_at(3).features()
        assert feats["variant"] == "0"
        assert {"k0_tx", "k0_unroll", "k1_tx"} <= set(feats)

    def test_enumerate_all_limited(self, two_op_program):
        ts = TuningSpace([decide_search_space(two_op_program)])
        assert len(list(ts.enumerate_all(limit=10))) == 10
