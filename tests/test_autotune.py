"""Tests for the end-to-end Autotuner."""

import numpy as np
import pytest

from repro.autotune import Autotuner
from repro.errors import SearchError
from repro.gpusim.arch import GTX980, K20
from repro.gpusim.executor import execute_program


def _tuner(**kw):
    defaults = dict(max_evaluations=30, batch_size=10, pool_size=400, seed=0)
    defaults.update(kw)
    return Autotuner(GTX980, **defaults)


class TestTuneProgram:
    def test_result_fields(self, two_op_program):
        result = _tuner().tune_program(two_op_program)
        assert result.name == "chain"
        assert result.arch is GTX980
        assert result.gflops > 0
        assert result.seconds > 0
        assert result.variant_count == 1
        assert result.space_size >= result.pool_size
        assert "GFlops" in result.summary()

    def test_best_config_is_executable_and_correct(self, two_op_program):
        result = _tuner().tune_program(two_op_program)
        inputs = two_op_program.random_inputs(0)
        out = execute_program(two_op_program, result.best_config, inputs)
        np.testing.assert_allclose(
            out["Y"], two_op_program.evaluate(inputs), atol=1e-12
        )

    def test_deterministic(self, two_op_program):
        a = _tuner().tune_program(two_op_program)
        b = _tuner().tune_program(two_op_program)
        assert a.best_config == b.best_config
        assert a.seconds == b.seconds

    def test_seed_changes_search_path(self, eqn1_small):
        from repro.core.pipeline import compile_contraction

        program = compile_contraction(eqn1_small).variants[0].program
        a = _tuner(seed=1).tune_program(program)
        b = _tuner(seed=2).tune_program(program)
        assert [y for _c, y in a.search.history] != [
            y for _c, y in b.search.history
        ]


class TestTuneContraction:
    def test_searches_across_variants(self, eqn1_small):
        result = _tuner(max_evaluations=60, pool_size=800).tune_contraction(
            eqn1_small
        )
        assert result.variant_count == 15
        assert 0 <= result.best_config.variant_index < 15
        assert len(result.best_program.operations) == 3

    def test_per_variant_mode(self, mttkrp):
        joint = _tuner(max_evaluations=30).tune_contraction(mttkrp)
        per = _tuner(max_evaluations=30, per_variant=True).tune_contraction(mttkrp)
        assert per.variant_count == joint.variant_count == 3
        # Per-variant spends the budget 3 times.
        assert per.search.evaluations == 3 * joint.search.evaluations
        assert per.search_seconds > joint.search_seconds

    def test_per_variant_winner_config_is_consistent(self, mttkrp):
        result = _tuner(max_evaluations=20, per_variant=True).tune_contraction(mttkrp)
        # The winning config's variant index addresses the right program.
        assert result.best_program is not None
        assert len(result.best_config.kernels) == len(
            result.best_program.operations
        )

    def test_union_space_with_mixed_kernel_counts(self, two_op_program):
        # Regression: variants with different operation counts emit
        # different k{i}_* feature keys; the union pool used to crash the
        # binarizer with "inconsistent feature keys".
        from repro.core.tensor import TensorRef
        from repro.tcr.program import TCROperation, TCRProgram

        single = TCRProgram(
            name="single",
            dims={"i": 4, "j": 4, "l": 4},
            arrays={"A": ("i", "j"), "C": ("j", "l"), "Y": ("i", "l")},
            operations=[
                TCROperation(
                    TensorRef("Y", ("i", "l")),
                    (TensorRef("A", ("i", "j")), TensorRef("C", ("j", "l"))),
                )
            ],
        )
        result = _tuner().tune_programs("mixed", [two_op_program, single])
        assert result.variant_count == 2
        assert {c.variant_index for c, _y in result.search.history} == {0, 1}

    def test_searcher_choices(self, two_op_program):
        for kind in ("surf", "random", "exhaustive"):
            result = _tuner(searcher=kind).tune_program(two_op_program)
            assert result.search.searcher == kind

    def test_unknown_searcher(self, two_op_program):
        with pytest.raises(SearchError, match="unknown searcher"):
            _tuner(searcher="annealing").tune_program(two_op_program)

    def test_search_wall_accounted(self, two_op_program):
        result = _tuner().tune_program(two_op_program)
        # Every evaluation pays at least the compile time.
        floor = result.search.evaluations * 2.0
        assert result.search_seconds >= floor

    def test_exhaustive_on_tiny_space(self, two_op_program):
        result = _tuner(searcher="exhaustive").tune_program(two_op_program)
        # two_op space is tiny (16 points): exhaustive covers all of it.
        assert result.search.evaluations == min(16, result.pool_size)


class TestCrossArch:
    def test_different_archs_different_times(self, eqn1_small):
        from repro.core.pipeline import compile_contraction

        program = compile_contraction(eqn1_small).variants[0].program
        a = Autotuner(GTX980, max_evaluations=20, pool_size=300, seed=0)
        b = Autotuner(K20, max_evaluations=20, pool_size=300, seed=0)
        ra = a.tune_program(program)
        rb = b.tune_program(program)
        assert ra.seconds != rb.seconds
