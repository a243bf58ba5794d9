"""Tests for the TTGT backend: classification, enumeration, plan
resolution, and the transpose-aware backend decision layer."""

from __future__ import annotations

import pytest

from repro.core.tensor import TensorRef
from repro.errors import ConfigurationError, SearchSpaceError
from repro.gpusim.arch import C2050, GTX980, K20
from repro.gpusim.kernel import build_launch
from repro.gpusim.perfmodel import GPUPerformanceModel
from repro.gpusim.timing_table import KernelTimingTable
from repro.obs.tracer import Tracer, use_tracer
from repro.tcr.decision import BACKENDS, decide_search_space
from repro.tcr.program import TCROperation, TCRProgram
from repro.tcr.space import KernelSpace, TTGTConfig, TTGTKernelSpace
from repro.tcr.ttgt import (
    classify_groups,
    decide_ttgt_space,
    enumerate_ttgt_configs,
    resolve_plan,
    resolve_plan_cached,
)


def _matmul_op() -> TCROperation:
    return TCROperation.parse("c:(i,j) += a:(i,k)*b:(k,j)")


def _batched_op() -> TCROperation:
    """Batch index ``b`` misplaced in A: every plan needs a transpose."""
    return TCROperation(
        TensorRef("C", ("b", "i", "j")),
        (TensorRef("A", ("i", "b", "k")), TensorRef("B", ("b", "k", "j"))),
    )


def _batched_program(d: int = 4) -> TCRProgram:
    return TCRProgram(
        name="batched",
        dims={"b": d, "i": d, "j": d, "k": d},
        arrays={
            "A": ("i", "b", "k"),
            "B": ("b", "k", "j"),
            "C": ("b", "i", "j"),
        },
        operations=[_batched_op()],
    )


def _matvec_program() -> TCRProgram:
    """TTGT-ineligible (empty N group): must fall back to loop nests."""
    return TCRProgram(
        name="matvec",
        dims={"i": 4, "j": 4},
        arrays={"A": ("i", "j"), "x": ("j",), "y": ("i",)},
        operations=[
            TCROperation(
                TensorRef("y", ("i",)),
                (TensorRef("A", ("i", "j")), TensorRef("x", ("j",))),
            )
        ],
    )


class TestClassification:
    def test_matmul_groups(self):
        groups = classify_groups(_matmul_op())
        assert groups is not None
        assert groups.m == frozenset({"i"})
        assert groups.n == frozenset({"j"})
        assert groups.k == frozenset({"k"})
        assert groups.batch == frozenset()

    def test_batched_groups(self):
        groups = classify_groups(_batched_op())
        assert groups.batch == frozenset({"b"})
        assert groups.m == frozenset({"i"})
        assert groups.n == frozenset({"j"})
        assert groups.k == frozenset({"k"})

    def test_non_binary_ineligible(self):
        op = TCROperation(
            TensorRef("o", ("i", "j")), (TensorRef("a", ("j", "i")),)
        )
        assert classify_groups(op) is None
        assert enumerate_ttgt_configs(op) == ()

    def test_matvec_ineligible(self):
        op = TCROperation.parse("y:(i) += a:(i,j)*b:(j)")
        assert classify_groups(op) is None

    def test_outer_product_ineligible(self):
        op = TCROperation.parse("o:(i,j) += a:(i)*b:(j)")
        assert classify_groups(op) is None  # empty K group

    def test_ineligible_space_is_none(self):
        op = TCROperation.parse("y:(i) += a:(i,j)*b:(j)")
        assert decide_ttgt_space(op, {"i": 4, "j": 4}) is None


class TestEnumeration:
    def test_deterministic_and_nonempty(self):
        op = _matmul_op()
        first = enumerate_ttgt_configs(op)
        assert first
        assert first == enumerate_ttgt_configs(op)

    def test_every_config_resolves(self):
        dims = {"b": 3, "i": 4, "j": 5, "k": 6}
        op = _batched_op()
        for config in enumerate_ttgt_configs(op):
            plan = resolve_plan(op, config, dims)
            assert plan.m == 4 and plan.n == 5 and plan.k == 6
            assert plan.batch == 3
            # The misplaced batch index in A forces a materialized
            # transpose into every plan.
            assert plan.n_kernels >= 2
            assert len(plan.transposes) == plan.n_kernels - 1

    def test_transpose_free_plan_exists_for_matmul(self):
        op = _matmul_op()
        dims = {"i": 4, "j": 5, "k": 6}
        plans = [
            resolve_plan(op, c, dims) for c in enumerate_ttgt_configs(op)
        ]
        direct = [p for p in plans if p.n_kernels == 1]
        assert direct, "a:(i,k)*b:(k,j) is already GEMM-shaped"
        assert direct[0].transposes == ()

    def test_transposes_in_fixed_slot_order(self):
        dims = {"b": 4, "i": 4, "j": 4, "k": 4}
        op = _batched_op()
        order = {"A": 0, "B": 1, "C": 2}
        for config in enumerate_ttgt_configs(op):
            slots = [t.slot for t in resolve_plan(op, config, dims).transposes]
            assert slots == sorted(slots, key=order.__getitem__)

    def test_config_duck_typing_for_features(self):
        """TTGT configs expose the feature surface KernelConfig has, so
        the SURF pool/binarizer machinery needs no special cases."""
        for config in enumerate_ttgt_configs(_batched_op()):
            assert isinstance(config.tx, str) and config.tx
            assert isinstance(config.ty, str) and config.ty
            assert isinstance(config.bx, str) and config.bx
            assert isinstance(config.by, str) and config.by
            assert config.innermost_serial  # never falsy
            assert isinstance(config.unroll, int) and config.unroll >= 1
            assert config.describe().startswith("ttgt ")


class TestPlanResolution:
    def test_flat_matmul_shape(self):
        op = _matmul_op()
        dims = {"i": 7, "j": 5, "k": 3}
        config = next(
            c
            for c in enumerate_ttgt_configs(op)
            if not (c.trans_a or c.trans_b or c.trans_out)
        )
        plan = resolve_plan(op, config, dims)
        assert (plan.m, plan.n, plan.k) == (7, 5, 3)
        assert plan.batch == plan.batch_a == plan.batch_b == 1
        assert plan.n_kernels == 1

    def test_wrong_operation_rejected(self):
        config = enumerate_ttgt_configs(_matmul_op())[0]
        other = TCROperation.parse("c:(p,q) += a:(p,r)*b:(r,q)")
        with pytest.raises(ConfigurationError, match="does not cover"):
            resolve_plan(other, config, {"p": 4, "q": 4, "r": 4})

    def test_tampered_transpose_flags_rejected(self):
        op = _matmul_op()
        config = enumerate_ttgt_configs(op)[0]
        tampered = TTGTConfig(
            m_order=config.m_order,
            n_order=config.n_order,
            k_order=config.k_order,
            batch_order=config.batch_order,
            batch_mode=config.batch_mode,
            op_a=config.op_a,
            op_b=config.op_b,
            swap_ab=config.swap_ab,
            trans_a=not config.trans_a,
            trans_b=config.trans_b,
            trans_out=config.trans_out,
        )
        with pytest.raises(ConfigurationError, match="inconsistent"):
            resolve_plan(op, tampered, {"i": 4, "j": 4, "k": 4})

    def test_ineligible_operation_rejected(self):
        op = TCROperation.parse("y:(i) += a:(i,j)*b:(j)")
        config = enumerate_ttgt_configs(_matmul_op())[0]
        with pytest.raises(ConfigurationError, match="no TTGT lowering"):
            resolve_plan(op, config, {"i": 4, "j": 4})

    def test_cached_resolution_memoizes(self):
        op = _batched_op()
        dims = {"b": 4, "i": 4, "j": 4, "k": 4}
        config = enumerate_ttgt_configs(op)[0]
        a = resolve_plan_cached(op, config, dims)
        assert resolve_plan_cached(op, config, dict(dims)) is a
        assert a == resolve_plan(op, config, dims)

    def test_no_loop_nest_lowering(self):
        """TTGT configurations are cost-model-only: the kernel launch
        builder (codegen/executor entry point) must refuse them."""
        config = enumerate_ttgt_configs(_matmul_op())[0]
        with pytest.raises(ConfigurationError, match="no loop-nest lowering"):
            build_launch(_matmul_op(), config, {"i": 4, "j": 4, "k": 4})


class TestTTGTKernelSpace:
    def test_index_round_trip(self):
        space = decide_ttgt_space(_batched_op(), {"b": 4, "i": 4, "j": 4, "k": 4})
        assert isinstance(space, TTGTKernelSpace)
        for i, config in enumerate(space):
            assert space[i] == config
            assert space.index_of(config) == i

    def test_foreign_config_rejected(self):
        space = decide_ttgt_space(_batched_op(), {"b": 4, "i": 4, "j": 4, "k": 4})
        foreign = enumerate_ttgt_configs(_matmul_op())[0]
        with pytest.raises(ConfigurationError, match="not in this kernel space"):
            space.index_of(foreign)

    def test_feature_tables_shape(self):
        space = decide_ttgt_space(_batched_op(), {"b": 4, "i": 4, "j": 4, "k": 4})
        tables = space.feature_tables()
        assert set(tables) == {"tx", "ty", "bx", "by", "inner", "unroll"}
        codes, vocab = tables["tx"]
        assert len(codes) == len(space)
        assert all(0 <= c < len(vocab) for c in codes)


class TestBackendDecision:
    def test_backends_constant(self):
        assert BACKENDS == ("loopnest", "ttgt", "auto")

    def test_unknown_backend_rejected(self):
        with pytest.raises(SearchSpaceError, match="unknown backend"):
            decide_search_space(_batched_program(), backend="cublas")

    def test_auto_requires_model(self):
        with pytest.raises(SearchSpaceError, match="needs a performance model"):
            decide_search_space(_batched_program(), backend="auto")

    def test_loopnest_default_unchanged(self):
        space = decide_search_space(_batched_program())
        assert all(isinstance(ks, KernelSpace) for ks in space.kernel_spaces)

    def test_ttgt_backend_swaps_eligible_spaces(self):
        space = decide_search_space(_batched_program(), backend="ttgt")
        assert all(isinstance(ks, TTGTKernelSpace) for ks in space.kernel_spaces)

    def test_ineligible_falls_back_to_loopnest(self):
        with use_tracer(Tracer()) as tracer:
            space = decide_search_space(_matvec_program(), backend="ttgt")
        assert isinstance(space.kernel_spaces[0], KernelSpace)
        events = [s for s in tracer.finished() if s.name == "tcr.backend_choice"]
        assert events
        assert events[0].attributes["reason"] == "ineligible"
        assert events[0].attributes["chosen"] == "loopnest"

    @pytest.mark.parametrize("arch", [GTX980, K20, C2050], ids=lambda a: a.name)
    def test_auto_picks_tablewise_minimum(self, arch):
        program = _batched_program(8)
        model = GPUPerformanceModel(arch)
        op = program.operations[0]
        loop = decide_search_space(program).kernel_spaces[0]
        ttgt = decide_search_space(program, backend="ttgt").kernel_spaces[0]
        auto = decide_search_space(
            program, backend="auto", model=model
        ).kernel_spaces[0]
        best_loop = KernelTimingTable.build(
            model, op, loop, program.dims
        ).totals.min()
        best_ttgt = KernelTimingTable.build_ttgt(
            model, op, ttgt, program.dims
        ).totals.min()
        chosen = KernelTimingTable.build_ttgt(
            model, op, auto, program.dims
        ).totals.min() if isinstance(auto, TTGTKernelSpace) else (
            KernelTimingTable.build(model, op, auto, program.dims)
            .totals.min()
        )
        assert chosen == min(best_loop, best_ttgt)

    def test_auto_choice_event_traced(self):
        model = GPUPerformanceModel(GTX980)
        with use_tracer(Tracer()) as tracer:
            decide_search_space(_batched_program(), backend="auto", model=model)
        events = [s for s in tracer.finished() if s.name == "tcr.backend_choice"]
        assert events
        attrs = events[0].attributes
        assert attrs["requested"] == "auto"
        assert attrs["chosen"] in ("loopnest", "ttgt")
        assert attrs["best_ttgt_s"] > 0


class TestScalarTiming:
    @pytest.mark.parametrize("arch", [GTX980, K20, C2050], ids=lambda a: a.name)
    def test_timing_fields_sane(self, arch):
        model = GPUPerformanceModel(arch)
        program = _batched_program(8)
        op = program.operations[0]
        for config in enumerate_ttgt_configs(op):
            timing = model.ttgt_kernel_timing(op, config, program.dims)
            assert timing.total_s > 0
            assert timing.compute_s > 0
            assert timing.memory_s > 0
            assert timing.launch_s == pytest.approx(
                resolve_plan(op, config, program.dims).n_kernels
                * arch.kernel_launch_us * 1e-6
            )
            assert isinstance(timing.total_s, float)

    def test_more_transposes_cost_more(self):
        """With identical GEMM shape, each extra materialized transpose
        adds time (launch + memory sweep)."""
        model = GPUPerformanceModel(K20)
        program = _batched_program(16)
        op = program.operations[0]
        configs = enumerate_ttgt_configs(op)
        by_kernels: dict[int, float] = {}
        for config in configs:
            plan = resolve_plan(op, config, program.dims)
            t = model.ttgt_kernel_timing(op, config, program.dims).total_s
            best = by_kernels.get(plan.n_kernels)
            by_kernels[plan.n_kernels] = t if best is None else min(best, t)
        counts = sorted(by_kernels)
        assert len(counts) >= 2
        for lo, hi in zip(counts, counts[1:]):
            assert by_kernels[lo] < by_kernels[hi]
