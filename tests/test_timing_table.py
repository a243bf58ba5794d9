"""Timing tables and the separable sweep that reads them.

The contract under test is *exact* parity: every number the vectorized
layer produces must be bitwise equal to the scalar model's — not close,
equal — so the sweep's optimum is the one an exhaustive search on the
evaluator would find.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Iterator

import numpy as np
import pytest

from repro.autotune import Autotuner
from repro.core.tensor import TensorRef
from repro.errors import ConfigurationError
from repro.gpusim.arch import C2050, GTX980, K20
from repro.gpusim.kernel import build_launch, build_launch_cached
from repro.gpusim.perfmodel import GPUPerformanceModel
from repro.gpusim.timing_table import KernelTimingTable, ProgramTimingTable
from repro.surf.evaluator import ConfigurationEvaluator
from repro.surf.exhaustive import ExhaustiveSearch
from repro.surf.separable import SeparableExhaustiveSearch
from repro.surf.telemetry import SearchTelemetry
from repro.tcr.decision import (
    _serial_orders_factory,
    decide_kernel_space,
    decide_search_space,
)
from repro.tcr.program import TCROperation, TCRProgram
from repro.tcr.space import (
    KernelConfig,
    KernelSpace,
    TTGTKernelSpace,
    TuningSpace,
)
from repro.util.rng import StableHashPrefix, stable_hash
from repro.workloads import get_workload


def _chain_program(dims: dict[str, int]) -> TCRProgram:
    """Two chained matmul-style operations (shared temporary)."""
    return TCRProgram(
        name="chain",
        dims=dims,
        arrays={
            "A": ("i", "j"),
            "B": ("j", "k"),
            "C": ("k", "l"),
            "temp1": ("i", "k"),
            "Y": ("i", "l"),
        },
        operations=[
            TCROperation(
                TensorRef("temp1", ("i", "k")),
                (TensorRef("A", ("i", "j")), TensorRef("B", ("j", "k"))),
            ),
            TCROperation(
                TensorRef("Y", ("i", "l")),
                (TensorRef("temp1", ("i", "k")), TensorRef("C", ("k", "l"))),
            ),
        ],
    )


def _two_red_program(dims: dict[str, int]) -> TCRProgram:
    """One operation with two reduction loops of different extents."""
    return TCRProgram(
        name="tworeds",
        dims=dims,
        arrays={"X": ("i", "j", "k"), "W": ("j", "k"), "Z": ("i",)},
        operations=[
            TCROperation(
                TensorRef("Z", ("i",)),
                (TensorRef("X", ("i", "j", "k")), TensorRef("W", ("j", "k"))),
            )
        ],
    )


def _positions(space) -> Iterator[tuple[int, ...]]:
    """Per-kernel table positions of every configuration of ``space``, in
    ``config_at`` order (the last kernel varies fastest)."""
    return itertools.product(*(range(len(ks)) for ks in space.kernel_spaces))


def _big_elemwise() -> TCRProgram:
    """Three parallel loops with extents making some thread mappings
    exceed 1024 threads/block (e.g. tx=k, ty=j -> 64*64 threads) while
    others stay legal — a mixed valid/penalty space."""
    return TCRProgram(
        name="bigelem",
        dims={"i": 4, "j": 64, "k": 64},
        arrays={"X": ("i", "j", "k"), "W": ("k",), "Y": ("i", "j", "k")},
        operations=[
            TCROperation(
                TensorRef("Y", ("i", "j", "k")),
                (TensorRef("X", ("i", "j", "k")), TensorRef("W", ("k",))),
            )
        ],
    )


def _parity_programs() -> list[TCRProgram]:
    return [
        _chain_program({"i": 4, "j": 4, "k": 4, "l": 4}),
        _chain_program({"i": 16, "j": 8, "k": 24, "l": 2}),
        # Heterogeneous reduction extents: with permuted serial orders
        # some in-space unroll factors exceed the rotated inner trip,
        # so validity handling is exercised too.
        _two_red_program({"i": 4, "j": 2, "k": 8}),
    ]


def _assert_matches_scalar(model, op, space, dims) -> int:
    """Build a table over ``space``; check every entry bitwise against
    the scalar model.  Returns the invalid-entry count."""
    table = KernelTimingTable.build(model, op, space, dims)
    invalid = 0
    for i, cfg in enumerate(space):
        try:
            ref = model.kernel_timing(build_launch(op, cfg, dims))
        except ConfigurationError:
            assert not table.valid[i]
            assert table.totals[i] == float("inf")
            invalid += 1
            continue
        assert table.valid[i]
        assert table.totals[i] == ref.total_s
        assert table.compute_s[i] == ref.compute_s
        assert table.memory_s[i] == ref.memory_s
        assert table.utilization[i] == ref.utilization
        assert table.occupancy[i] == ref.occupancy
    return invalid


class TestKernelTableParity:
    """Table entries are bitwise equal to the scalar ``kernel_timing``."""

    @pytest.mark.parametrize("arch", [GTX980, K20, C2050], ids=lambda a: a.name)
    @pytest.mark.parametrize("permute", [False, True])
    def test_bitwise_equal_across_spaces(self, arch, permute):
        model = GPUPerformanceModel(arch)
        checked_invalid = 0
        for program in _parity_programs():
            space = decide_search_space(program, permute_serial=permute)
            for op, ks in zip(program.operations, space.kernel_spaces):
                checked_invalid += _assert_matches_scalar(
                    model, op, ks, program.dims
                )
        if permute:
            assert checked_invalid > 0, "expected some unbuildable configs"

    def test_shuffled_candidate_lists_match_scalar(self):
        """Spaces built from shuffled candidate lists list their families
        (and unroll factors) in other orders; every entry still matches
        the scalar model at its own position."""
        model = GPUPerformanceModel(K20)
        rng = np.random.default_rng(11)

        def shuffled(values):
            return [values[i] for i in rng.permutation(len(values))]

        checked_invalid = reordered = 0
        for program in _parity_programs():
            for op in program.operations:
                base = decide_kernel_space(op, program.dims, permute_serial=True)
                orders = _serial_orders_factory(op, program.dims, True)
                space = KernelSpace(
                    op,
                    shuffled(base.tx_candidates),
                    shuffled(base.ty_candidates),
                    shuffled(base.bx_candidates),
                    shuffled(base.by_candidates),
                    lambda mapped, orders=orders: shuffled(orders(mapped)),
                    shuffled(base.unroll_factors),
                )
                assert set(space) == set(base)
                reordered += space.families != base.families
                checked_invalid += _assert_matches_scalar(
                    model, op, space, program.dims
                )
        assert reordered > 0, "expected families in another order"
        assert checked_invalid > 0, "expected some unbuildable configs"

    def test_penalty_configs_from_oversized_blocks(self):
        program = _big_elemwise()
        model = GPUPerformanceModel(GTX980)
        space = decide_search_space(program)
        op, ks = program.operations[0], space.kernel_spaces[0]
        table = KernelTimingTable.build(model, op, ks, program.dims)
        invalid = int((~table.valid).sum())
        assert invalid > 0, "tx=k, ty=j mappings should exceed 1024 threads"
        for i, cfg in enumerate(ks):
            try:
                model.kernel_timing(build_launch(op, cfg, program.dims))
                buildable = True
            except ConfigurationError:
                buildable = False
            assert buildable == bool(table.valid[i])


def _ttgt_program(dims: dict[str, int]) -> TCRProgram:
    """A batched contraction whose A operand forces a transpose kernel."""
    return TCRProgram(
        name="ttgtprog",
        dims=dims,
        arrays={
            "A": ("i", "b", "k"),
            "B": ("b", "k", "j"),
            "C": ("b", "i", "j"),
        },
        operations=[
            TCROperation(
                TensorRef("C", ("b", "i", "j")),
                (TensorRef("A", ("i", "b", "k")), TensorRef("B", ("b", "k", "j"))),
            )
        ],
    )


class TestTTGTTableParity:
    """TTGT table entries are bitwise equal to ``ttgt_kernel_timing``."""

    @pytest.mark.parametrize("arch", [GTX980, K20, C2050], ids=lambda a: a.name)
    def test_bitwise_equal_across_spaces(self, arch):
        programs = [
            _ttgt_program({"b": 4, "i": 4, "j": 4, "k": 4}),
            _ttgt_program({"b": 3, "i": 16, "j": 8, "k": 24}),
        ]
        model = GPUPerformanceModel(arch)
        for program in programs:
            space = decide_search_space(program, backend="ttgt")
            for op, ks in zip(program.operations, space.kernel_spaces):
                table = KernelTimingTable.build_ttgt(
                    model, op, ks, program.dims
                )
                assert bool(table.valid.all())
                for i, cfg in enumerate(ks):
                    ref = model.ttgt_kernel_timing(op, cfg, program.dims)
                    assert table.totals[i] == ref.total_s
                    assert table.compute_s[i] == ref.compute_s
                    assert table.memory_s[i] == ref.memory_s

    def test_program_table_lookup_matches_program_timing(self):
        program = _ttgt_program({"b": 4, "i": 4, "j": 4, "k": 4})
        model = GPUPerformanceModel(GTX980)
        space = decide_search_space(program, backend="ttgt")
        table = ProgramTimingTable.build(model, program, space)
        for g, ids in enumerate(_positions(space)):
            cfg = space.config_at(g)
            assert table.config_for(ids).kernels == cfg.kernels
            timing = model.program_timing(program, cfg)
            assert table.total_seconds(ids) == timing.total_s
            assert (
                table.total_seconds(ids, include_transfer=False)
                == timing.kernel_s
            )

    def test_auto_program_total_is_min_of_fixed_backends(self):
        """Under the separable sweep, auto == min(loopnest, ttgt) exactly."""
        model = GPUPerformanceModel(GTX980)
        for dims in ({"b": 4, "i": 4, "j": 4, "k": 4},
                     {"b": 48, "i": 48, "j": 48, "k": 48}):
            program = _ttgt_program(dims)
            best = {}
            for backend in ("loopnest", "ttgt", "auto"):
                space = decide_search_space(
                    program, backend=backend, model=model
                )
                table = ProgramTimingTable.build(model, program, space)
                best[backend] = sum(k.totals.min() for k in table.kernels)
            assert best["auto"] == min(best["loopnest"], best["ttgt"])


class TestDecisionTablesFeedTheSweep:
    """The tables an ``auto`` decision builds to choose each operation's
    lowering are the sweep's: a tune prices each candidate space once."""

    def test_sweep_auto_prices_each_candidate_space_once(self, monkeypatch):
        priced = []  # the spaces themselves: no id is reused mid-call
        for name in ("build", "build_ttgt"):
            original = getattr(KernelTimingTable, name).__func__

            def counting(cls, model, op, space, dims, _original=original):
                priced.append(space)
                return _original(cls, model, op, space, dims)

            monkeypatch.setattr(KernelTimingTable, name, classmethod(counting))
        tuner = Autotuner(GTX980, searcher="sweep", backend="auto")
        get_workload("tce_ex").tune(tuner)
        # Three variants of two operations: two variants' operations are
        # TTGT-eligible (two candidate spaces each), the third's are not.
        assert len(priced) == 10
        counts = Counter(id(ks) for ks in priced)
        assert sorted(counts.values()) == [1] * 10

    def test_sweep_builds_no_per_configuration_objects(self, monkeypatch):
        """The decision and the tables price families: a sweep builds at
        most one configuration per family, plus the champion's kernels."""
        built = Counter()
        config_init, space_init = KernelConfig.__init__, KernelSpace.__init__

        def counting_config(self, *args, **kwargs):
            built["configs"] += 1
            config_init(self, *args, **kwargs)

        def counting_space(self, *args, **kwargs):
            space_init(self, *args, **kwargs)
            built["families"] += len(self.families)

        monkeypatch.setattr(KernelConfig, "__init__", counting_config)
        monkeypatch.setattr(KernelSpace, "__init__", counting_space)
        tuner = Autotuner(GTX980, searcher="sweep", backend="auto")
        result = get_workload("tce_ex").tune(tuner)
        assert built["families"] > 0
        assert built["configs"] <= built["families"] + len(
            result.best_config.kernels
        )

    def test_reused_only_under_the_deciding_model(self):
        program = _ttgt_program({"b": 4, "i": 4, "j": 4, "k": 4})
        gtx, k20 = GPUPerformanceModel(GTX980), GPUPerformanceModel(K20)
        space = decide_search_space(program, backend="auto", model=gtx)
        [decided] = space.tables
        assert decided is not None
        assert ProgramTimingTable.build(gtx, program, space).kernels == (decided,)
        [other] = ProgramTimingTable.build(k20, program, space).kernels
        op, [ks] = program.operations[0], space.kernel_spaces
        build = (
            KernelTimingTable.build_ttgt
            if isinstance(ks, TTGTKernelSpace)
            else KernelTimingTable.build
        )
        fresh = build(k20, op, ks, program.dims)
        assert other is not decided
        assert other.totals.tobytes() == fresh.totals.tobytes()
        # A space the decision did not price: every build builds.
        fixed = decide_search_space(program, backend="ttgt", model=gtx)
        assert fixed.tables == (None,)
        first = ProgramTimingTable.build(gtx, program, fixed).kernels[0]
        assert ProgramTimingTable.build(gtx, program, fixed).kernels[0] is not first


class TestProgramTableParity:
    def test_lookup_matches_program_timing(self, two_op_program):
        model = GPUPerformanceModel(GTX980)
        space = decide_search_space(two_op_program)
        table = ProgramTimingTable.build(model, two_op_program, space)
        for g, ids in enumerate(_positions(space)):
            cfg = space.config_at(g)
            # The sweep's decode of a position: the same point, same place.
            assert table.config_for(ids).kernels == cfg.kernels
            assert table.local_index(ids) == g
            timing = model.program_timing(two_op_program, cfg)
            assert table.total_seconds(ids) == timing.total_s
            assert table.total_seconds(ids, include_transfer=False) == timing.kernel_s
            assert table.evaluation_wall(ids) == model.evaluation_wall_seconds(
                two_op_program, cfg
            )

    def test_argmin_matches_enumeration(self, two_op_program):
        model = GPUPerformanceModel(GTX980)
        space = decide_search_space(two_op_program, permute_serial=True)
        table = ProgramTimingTable.build(model, two_op_program, space)
        swept = [table.total_seconds(ids) for ids in _positions(space)]
        ids, val = table.argmin()
        assert table.local_index(ids) == int(np.argmin(swept))
        assert val == min(swept)


class TestSeparableSearch:
    def _tuning_setup(self, programs, permute=(False, True)):
        model = GPUPerformanceModel(GTX980)
        spaces = [
            decide_search_space(p, variant_index=i, permute_serial=permute[i])
            for i, p in enumerate(programs)
        ]
        tuning = TuningSpace(spaces)
        tables = [
            ProgramTimingTable.build(model, p, s)
            for p, s in zip(programs, spaces)
        ]
        return model, spaces, tuning, tables

    @pytest.mark.parametrize("include_transfer", [False, True])
    def test_matches_exhaustive_on_enumerable_space(
        self, two_op_program, include_transfer
    ):
        programs = [two_op_program, two_op_program]
        model, _spaces, tuning, tables = self._tuning_setup(programs)
        pool = list(tuning.enumerate_all())
        evaluator = ConfigurationEvaluator(
            programs, model, noisy=False, include_transfer=include_transfer
        )
        exhaustive = ExhaustiveSearch(batch_size=16).search(
            pool, evaluator.evaluate_batch
        )
        separable = SeparableExhaustiveSearch(
            tables, include_transfer=include_transfer, tuning_space=tuning
        ).search()
        assert separable.best_objective == exhaustive.best_objective
        # Same winning point, including the dense global id (ProgramConfig
        # equality covers variant, kernel tuple, and global_id).
        assert separable.best_config == exhaustive.best_config
        assert separable.evaluations == sum(t.kernel_evaluations for t in tables)
        assert separable.evaluations < len(pool) * len(tables[0].kernels)

    def test_matches_exhaustive_with_penalties(self):
        program = _big_elemwise()
        model = GPUPerformanceModel(GTX980)
        space = decide_search_space(program)
        tuning = TuningSpace([space])
        table = ProgramTimingTable.build(model, program, space)
        pool = list(tuning.enumerate_all())
        evaluator = ConfigurationEvaluator([program], model, noisy=False)
        exhaustive = ExhaustiveSearch(batch_size=32).search(
            pool, evaluator.evaluate_batch
        )
        separable = SeparableExhaustiveSearch([table], tuning_space=tuning).search()
        assert separable.best_objective == exhaustive.best_objective
        assert separable.best_config == exhaustive.best_config

    def test_include_transfer_false(self, two_op_program):
        programs = [two_op_program]
        model = GPUPerformanceModel(GTX980)
        space = decide_search_space(two_op_program, variant_index=0)
        tuning = TuningSpace([space])
        table = ProgramTimingTable.build(model, two_op_program, space)
        pool = list(tuning.enumerate_all())
        evaluator = ConfigurationEvaluator(
            programs, model, noisy=False, include_transfer=False
        )
        exhaustive = ExhaustiveSearch(batch_size=8).search(
            pool, evaluator.evaluate_batch
        )
        separable = SeparableExhaustiveSearch(
            [table], include_transfer=False, tuning_space=tuning
        ).search()
        assert separable.best_objective == exhaustive.best_objective
        assert separable.best_config == exhaustive.best_config

    def test_telemetry_shape(self, two_op_program):
        programs = [two_op_program, two_op_program]
        _model, _spaces, tuning, tables = self._tuning_setup(programs)
        telemetry = SearchTelemetry()
        result = SeparableExhaustiveSearch(tables, tuning_space=tuning).search(
            telemetry=telemetry
        )
        assert result.telemetry is telemetry
        assert len(telemetry.records) == len(tables)
        bests = [r.best_so_far for r in telemetry.records]
        assert bests == sorted(bests, reverse=True) or len(set(bests)) <= 2
        assert telemetry.records[-1].best_so_far == result.best_objective
        assert result.simulated_wall_seconds > 0
        assert len(result.history) == len(tables)


class TestEnumerateAllOdometer:
    def test_matches_config_at(self, two_op_program):
        spaces = [
            decide_search_space(two_op_program, variant_index=0),
            decide_search_space(two_op_program, variant_index=1, permute_serial=True),
        ]
        tuning = TuningSpace(spaces)
        expected = [tuning.config_at(g) for g in range(tuning.size())]
        assert list(tuning.enumerate_all()) == expected

    def test_limit(self, two_op_program):
        tuning = TuningSpace([decide_search_space(two_op_program)])
        n = tuning.size()
        assert len(list(tuning.enumerate_all(limit=5))) == 5
        assert len(list(tuning.enumerate_all(limit=n + 10))) == n
        assert list(tuning.enumerate_all(limit=0)) == []

    def test_global_id_for(self, two_op_program):
        spaces = [
            decide_search_space(two_op_program, variant_index=0),
            decide_search_space(two_op_program, variant_index=1),
        ]
        tuning = TuningSpace(spaces)
        for pos, space in enumerate(spaces):
            for local in (0, space.size() - 1):
                g = tuning.global_id_for(pos, local)
                cfg = tuning.config_at(g)
                assert cfg.variant_index == space.variant_index
                assert cfg.global_id == g
        with pytest.raises(ConfigurationError):
            tuning.global_id_for(0, spaces[0].size())


class TestRunningBestExhaustive:
    def test_best_and_telemetry(self, two_op_program):
        model = GPUPerformanceModel(GTX980)
        tuning = TuningSpace([decide_search_space(two_op_program)])
        pool = list(tuning.enumerate_all())
        evaluator = ConfigurationEvaluator([two_op_program], model, noisy=False)
        telemetry = SearchTelemetry()
        result = ExhaustiveSearch(batch_size=3).search(
            pool, evaluator.evaluate_batch, telemetry=telemetry
        )
        values = [y for _c, y in result.history]
        best_i = int(np.argmin(values))
        assert result.best_objective == values[best_i]
        assert result.best_config == result.history[best_i][0]
        # per-batch best_so_far is the true running minimum
        running = []
        best = float("inf")
        for start in range(0, len(pool), 3):
            best = min(best, *values[start : start + 3])
            running.append(best)
        assert [r.best_so_far for r in telemetry.records] == running


class TestBuildLaunchCached:
    def test_equal_and_memoized(self, two_op_program):
        op = two_op_program.operations[0]
        space = decide_search_space(two_op_program).kernel_spaces[0]
        cfg = space[0]
        fresh = build_launch(op, cfg, two_op_program.dims)
        cached = build_launch_cached(op, cfg, two_op_program.dims)
        assert cached == fresh
        assert build_launch_cached(op, cfg, two_op_program.dims) is cached
        # a different dims mapping is a different cache entry
        other_dims = {k: v * 2 for k, v in two_op_program.dims.items()}
        other = build_launch_cached(op, cfg, other_dims)
        assert other is not cached
        assert other.grid_dim != cached.grid_dim or other.block_dim != cached.block_dim

    def test_invalid_config_still_raises(self):
        program = _big_elemwise()
        op = program.operations[0]
        space = decide_search_space(program).kernel_spaces[0]
        bad = next(
            cfg
            for cfg in space
            if cfg.tx != "1" and cfg.ty != "1"
            and program.dims[cfg.tx] * program.dims[cfg.ty] > 1024
        )
        # buildable structurally — the launch builds; occupancy rejects it
        launch = build_launch_cached(op, bad, program.dims)
        with pytest.raises(ConfigurationError):
            GPUPerformanceModel(GTX980).occupancy(launch)


class TestStableHashPrefix:
    def test_matches_stable_hash(self):
        prefix = StableHashPrefix("kernel", "GTX 980", "some op")
        for suffix in ("a", "unroll=4", ""):
            assert prefix.hash(suffix) == stable_hash(
                "kernel", "GTX 980", "some op", suffix
            )
        assert StableHashPrefix().hash("x", 1) == stable_hash("x", 1)
        # reusable: interleaved calls do not corrupt the prefix state
        a, b = prefix.hash("a"), prefix.hash("b")
        assert a != b
        assert prefix.hash("a") == a
