"""Tests for the pruned spaces and joint tuning (future-work features)."""

import numpy as np
import pytest

from repro.autotune import Autotuner
from repro.autotune.joint import concatenate_programs, tune_jointly
from repro.errors import TCRError
from repro.gpusim.arch import GTX980, K20
from repro.tcr.decision import decide_search_space
from repro.tcr.pruning import (
    decide_pruned_kernel_space,
    decide_pruned_search_space,
    model_pruned_pool,
)
from repro.tcr.space import ONE, TuningSpace
from repro.util.rng import spawn_rng
from repro.workloads.spectral import lg3, lg3t


class TestPrunedSpace:
    def test_subset_scale(self):
        program = lg3t().program
        full = decide_search_space(program)
        pruned = decide_pruned_search_space(program)
        assert pruned.size() < full.size() / 100
        assert pruned.size() <= 50_000  # enumerable, like [25]'s space

    def test_one_dimensional_thread_blocks(self):
        program = lg3().program
        for ks in decide_pruned_search_space(program).kernel_spaces:
            assert all(kc.ty == ONE for kc in ks)

    def test_divisor_unrolls(self, two_op_program):
        ks = decide_pruned_kernel_space(
            two_op_program.operations[0], two_op_program.dims
        )
        assert set(ks.unroll_factors) == {1, 2, 4}

    def test_pruned_best_close_to_full_best(self, two_op_program):
        """The pruned space loses little on simple kernels (why [25]'s
        brute force was a sane baseline)."""
        from repro.gpusim.kernel import build_launch
        from repro.gpusim.perfmodel import GPUPerformanceModel

        model = GPUPerformanceModel(GTX980)
        op = two_op_program.operations[0]

        def best(space):
            return min(
                model.kernel_timing(
                    build_launch(op, kc, two_op_program.dims)
                ).total_s
                for kc in space
            )

        full = best(decide_search_space(two_op_program).kernel_spaces[0])
        pruned = best(decide_pruned_search_space(two_op_program).kernel_spaces[0])
        assert pruned <= full * 3.0


class TestModelPruning:
    def test_filters_and_keeps_floor(self):
        program = lg3(12, 256).program
        space = TuningSpace([decide_search_space(program)])
        pool = space.sample_pool(500, spawn_rng(0, "prune-test"))
        kept = model_pruned_pool(program, pool, GTX980)
        assert 32 <= len(kept) <= len(pool)

    def test_pruning_keeps_the_good_configs(self):
        from repro.gpusim.perfmodel import GPUPerformanceModel

        program = lg3(12, 256).program
        model = GPUPerformanceModel(GTX980)
        space = TuningSpace([decide_search_space(program)])
        pool = space.sample_pool(600, spawn_rng(1, "prune-good"))
        kept = model_pruned_pool(program, pool, GTX980)

        def best_of(configs):
            times = []
            for c in configs:
                try:
                    times.append(model.program_timing(program, c).kernel_s)
                except Exception:
                    pass
            return min(times)

        # Pruning must not discard the pool optimum (within noise).
        assert best_of(kept) <= best_of(pool) * 1.05

    def test_tiny_problem_fallback(self, two_op_program):
        space = TuningSpace([decide_search_space(two_op_program)])
        pool = space.sample_pool(min(16, space.size()), spawn_rng(0, "tiny"))
        kept = model_pruned_pool(two_op_program, pool, GTX980, keep_at_least=8)
        assert len(kept) >= min(8, len(pool))


class TestJoint:
    def test_concatenation_semantics(self):
        p3 = lg3(4, 3).program
        p3t = lg3t(4, 3, output_name="w").program
        merged = concatenate_programs("nekbone_ax", [p3, p3t])
        assert len(merged.operations) == 6
        assert merged.output_names == ("w",)
        assert set(merged.temporaries) == {"ur", "us", "ut"}
        # Functional: merged == lg3t(lg3(u)) with dt = d-transposed binding.
        inputs = merged.random_inputs(0)
        out = merged.evaluate(inputs)
        stage = p3.evaluate_all({"d": inputs["d"], "u": inputs["u"]})
        expected = p3t.evaluate(
            {
                "dt": inputs["dt"],
                "d": inputs["d"],
                "ur": stage["ur"],
                "us": stage["us"],
                "ut": stage["ut"],
            }
        )
        np.testing.assert_allclose(out, expected)

    def test_war_name_collision_rejected(self):
        # lg3 reads u; lg3t writes u: the merged program would overwrite
        # its own input.  The validator must refuse.
        with pytest.raises(TCRError, match="before it is written"):
            concatenate_programs(
                "bad", [lg3(4, 3).program, lg3t(4, 3).program]
            )

    def test_shape_conflict_rejected(self):
        p_small = lg3(4, 3).program
        p_big = lg3t(5, 3).program
        with pytest.raises(TCRError, match="extent|shape"):
            concatenate_programs("bad", [p_small, p_big])

    def test_empty_rejected(self):
        with pytest.raises(TCRError, match="nothing"):
            concatenate_programs("bad", [])

    def test_joint_tuning_runs_and_saves_transfers(self):
        tuner = Autotuner(K20, max_evaluations=25, pool_size=400, seed=5)
        p3, p3t = lg3(8, 32).program, lg3t(8, 32, output_name="w").program
        joint = tune_jointly(tuner, "nekbone_ax", [p3, p3t])
        separate_h2d = (
            tuner.model.program_timing(
                p3, tuner.tune_program(p3).best_config
            ).h2d_s
            + tuner.model.program_timing(
                p3t, tuner.tune_program(p3t).best_config
            ).d2h_s
        )
        assert len(joint.best_config.kernels) == 6
        # The merged program moves less data than the two separate runs
        # (ur/us/ut never cross PCIe).
        h2d_elems, d2h_elems = joint.best_program.transfer_elements()
        assert d2h_elems == 32 * 8**3
        assert joint.timing.total_s > 0
        assert separate_h2d > 0  # (sanity on the comparison values)

    def test_joint_with_pruning(self):
        tuner = Autotuner(K20, max_evaluations=25, pool_size=400, seed=5)
        p3, p3t = lg3(8, 32).program, lg3t(8, 32, output_name="w").program
        plain = tune_jointly(tuner, "ax", [p3, p3t], prune=False)
        pruned = tune_jointly(tuner, "ax", [p3, p3t], prune=True)
        assert pruned.pool_size <= plain.pool_size
        # Pruning should not cost much tuned quality.
        assert pruned.seconds <= plain.seconds * 1.5

    @pytest.mark.parametrize("prune", [False, True])
    def test_rig_and_searcher_settings_reach_the_search(self, prune):
        # Lanes, faults and the acquisition rule change a pruned run the
        # way they change an unpruned one: both run on the tuner's rig.
        p3, p3t = lg3(8, 32).program, lg3t(8, 32, output_name="w").program

        def run(**setting):
            tuner = Autotuner(
                K20, max_evaluations=20, batch_size=5, pool_size=300, seed=5,
                **setting,
            )
            return tune_jointly(tuner, "ax", [p3, p3t], prune=prune)

        plain = run()
        lanes = run(batch_parallelism=4)
        assert lanes.search.history == plain.search.history
        assert lanes.search_seconds < plain.search_seconds
        totals = run(faults="0.3").search.telemetry.totals()
        assert totals["transient"] + totals["permanent"] > 0
        assert run(acquisition="lcb").search.history != plain.search.history
