"""Bitwise pins of the search drivers: golden SURF, random and exhaustive runs.

SURF runs are pinned to golden digests (champion plus full history) of
the level-wise forest, with binarize on and off and fault injection on;
a killed-and-resumed run must equal the uninterrupted one bitwise,
checkpoint state included.  Random and
exhaustive runs, with and without faults, are pinned to golden digests
of their champion, history and final checkpoint state; a
killed-and-resumed run must reach the same digests.  Those digests were
captured from the drivers while they were still checked bitwise against
copies of the seed implementations.

It also pins the pieces the drivers are built from — the space-fed design
matrix against the per-config ``features()`` dict path, the rank codes
the encoders write straight from a feature view against ``pool_codes``
of that matrix, and the coded router's table descent and row-set
partition against float tree descent (plus a golden large-pool run that
takes the partition on every pass and builds no float matrix) — and the
lexsort tie rule (randomized ties at any prediction magnitude).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.gpusim.arch import GTX980
from repro.gpusim.perfmodel import GPUPerformanceModel
from repro.surf import (
    ConfigurationEvaluator,
    ExhaustiveSearch,
    FaultSpec,
    FeatureBinarizer,
    OrdinalEncoder,
    RandomSearch,
    SURFSearch,
    SpacePool,
)
from repro.surf.checkpoint import CheckpointManager, SearchCheckpointer
from repro.surf.binarize import ABSENT
from repro.surf.forest import (
    MAX_ROUTER_CARD,
    PARTITION_ROWS_PER_NODE,
    ExtraTreesRegressor,
    pool_codes,
)
from repro.surf.pool import (
    CatGroup,
    FeatureView,
    MaterializedPool,
    NumGroup,
    feature_view,
)
from repro.surf.search import _bottom_k_lex
from repro.tcr.decision import decide_search_space
from repro.tcr.space import TTGTKernelSpace, TuningSpace
from repro.util.rng import spawn_rng, stable_hash


@pytest.fixture(scope="module")
def setup(request):
    from repro.core.pipeline import compile_contraction
    from repro.dsl.parser import parse_contraction

    from tests.conftest import EQN1_TEXT

    contraction = parse_contraction(EQN1_TEXT, name="eqn1")
    program = compile_contraction(contraction).minimal_flop_variants()[0].program
    space = TuningSpace([decide_search_space(program)])
    ids = space.sample_ids(min(300, space.size()), spawn_rng(0, "parity-pool"))
    pool = [space.config_at(i) for i in sorted(ids)]
    model = GPUPerformanceModel(GTX980)
    return program, space, ids, pool, model


def _plain_evaluator(program, model):
    return ConfigurationEvaluator([program], model, seed=0)


def _faulty_evaluator(program, model):
    """Deterministic faults: permanent failures surface as +inf."""
    return ConfigurationEvaluator(
        [program], model, seed=0,
        faults=FaultSpec(compile_rate=0.15, transient_rate=0.1, seed=3, retries=1),
    )


def _checkpointed_run(searcher, pool, program, model, directory,
                      make_evaluator=_plain_evaluator):
    """Run one driver with checkpointing; return its result and last state."""
    manager = CheckpointManager(directory)
    result = searcher.search(
        pool, make_evaluator(program, model).evaluate_batch,
        checkpointer=SearchCheckpointer(manager),
    )
    return result, manager.load()["searcher"]


class Interrupt(Exception):
    """Stands in for a kill between two batches."""


def _killed_and_resumed(killed, resumed, pool, program, model, directory,
                        make_evaluator=_plain_evaluator, batches=3):
    """Run ``killed`` until ``batches`` batches are checkpointed, then
    finish with ``resumed`` from that checkpoint; return its result and
    last state."""
    manager = CheckpointManager(directory)
    evaluator = make_evaluator(program, model)
    calls = 0

    def dying_evaluate(batch):
        nonlocal calls
        calls += 1
        if calls > batches:
            raise Interrupt
        return evaluator.evaluate_batch(batch)

    with pytest.raises(Interrupt):
        killed.search(
            pool, dying_evaluate, checkpointer=SearchCheckpointer(manager)
        )
    ck = SearchCheckpointer(manager)
    ck.resume_state = manager.load()["searcher"]
    result = resumed.search(
        pool, make_evaluator(program, model).evaluate_batch, checkpointer=ck
    )
    return result, manager.load()["searcher"]


def _assert_same_run(new, reference, *, state_keys):
    """Champion, full history, and checkpoint state must match bitwise."""
    new_result, new_state = new
    ref_result, ref_state = reference
    assert new_result.best_objective == ref_result.best_objective
    assert new_result.best_config.describe() == ref_result.best_config.describe()
    assert [y for _c, y in new_result.history] == [
        y for _c, y in ref_result.history
    ]
    assert [c.describe() for c, _y in new_result.history] == [
        c.describe() for c, _y in ref_result.history
    ]
    for key in state_keys:
        assert new_state[key] == ref_state[key], f"state[{key!r}] diverged"


SURF_STATE_KEYS = ("history", "rng_state", "fits")


def _run_digest(result) -> str:
    """Champion plus full history of one run, as 16 hex digits."""
    return format(
        stable_hash(
            "surf-golden",
            result.best_config.describe(),
            result.best_objective,
            [(c.describe(), y) for c, y in result.history],
        ),
        "016x",
    )


#: Champion-plus-history digests of the level-wise forest's SURF runs in
#: TestSURFParity.  A change that moves one must say why in CHANGES.md.
GOLDEN_RUNS = {
    "binarize": "cc4d94587cecd88f",
    "ordinal": "68902910392cb04c",
    "faults": "965279628a322ced",
}


class TestSURFParity:
    """SURF runs pinned to golden digests of the level-wise forest."""

    @pytest.mark.parametrize("binarize", [True, False])
    def test_bitwise_parity(self, setup, binarize):
        program, _space, _ids, pool, model = setup
        result = SURFSearch(
            batch_size=7, max_evaluations=40, seed=11, binarize=binarize
        ).search(pool, _plain_evaluator(program, model).evaluate_batch)
        key = "binarize" if binarize else "ordinal"
        assert _run_digest(result) == GOLDEN_RUNS[key]

    def test_bitwise_parity_with_faults(self, setup):
        program, _space, _ids, pool, model = setup
        result = SURFSearch(batch_size=10, max_evaluations=50, seed=5).search(
            pool, _faulty_evaluator(program, model).evaluate_batch
        )
        ys = [y for _c, y in result.history]
        assert any(not np.isfinite(y) for y in ys)  # faults actually fire
        assert _run_digest(result) == GOLDEN_RUNS["faults"]

    def test_resume_mid_run_matches_uninterrupted_legacy(self, setup, tmp_path):
        # Once pinned against the seed driver; now the uninterrupted run of
        # the same code is the reference, checkpoint state included.
        program, _space, _ids, pool, model = setup
        kwargs = dict(batch_size=8, max_evaluations=48, seed=7)
        reference = _checkpointed_run(
            SURFSearch(**kwargs), pool, program, model, tmp_path / "reference"
        )
        resumed = _killed_and_resumed(
            SURFSearch(**kwargs), SURFSearch(**kwargs), pool, program, model,
            tmp_path / "resume",
        )
        _assert_same_run(resumed, reference, state_keys=SURF_STATE_KEYS)


def _state_digest(state, keys) -> str:
    """The named entries of a checkpoint state, as 16 hex digits."""
    return format(
        stable_hash("search-state", [[key, state[key]] for key in keys]), "016x"
    )


#: Each baseline's searcher, its arguments and its checkpoint keys.
BASELINES = {
    "random": (
        RandomSearch, dict(batch_size=9, max_evaluations=60, seed=2),
        ("history", "queue", "rng_state", "telemetry"),
    ),
    "exhaustive": (
        ExhaustiveSearch, dict(batch_size=13, limit=90),
        ("history", "telemetry"),
    ),
}

EVALUATORS = {"plain": _plain_evaluator, "faults": _faulty_evaluator}

#: (champion-plus-history, final checkpoint state) digests of the
#: baseline runs.  The champion-plus-history halves were captured while
#: the drivers were still checked bitwise against copies of the seed
#: implementations; the state halves at search revision 1, whose saved
#: telemetry records carry no ``cache_hits`` and whose exhaustive state
#: is the history and telemetry alone.
GOLDEN_BASELINES = {
    "random/plain": ("ff70849288187e97", "0d32fb586ae66a37"),
    "random/faults": ("159094b1b94c2cdd", "0651a3cf2dbb462e"),
    "exhaustive/plain": ("c34ede6e5681a291", "b48bdee9fa28fac9"),
    "exhaustive/faults": ("11ca67b49465b095", "4fd18e15bea63b7d"),
}


def _assert_golden_baseline(run, searcher, evaluator):
    result, state = run
    if evaluator == "faults":
        ys = [y for _c, y in result.history]
        assert any(not np.isfinite(y) for y in ys)  # faults actually fire
    keys = BASELINES[searcher][2]
    assert (_run_digest(result), _state_digest(state, keys)) == (
        GOLDEN_BASELINES[f"{searcher}/{evaluator}"]
    )


class TestBaselineParity:
    """Random and exhaustive runs pinned to golden digests."""

    def _run(self, setup, directory, searcher, evaluator):
        program, _space, _ids, pool, model = setup
        cls, kwargs, _keys = BASELINES[searcher]
        return _checkpointed_run(
            cls(**kwargs), pool, program, model, directory,
            EVALUATORS[evaluator],
        )

    def test_random_bitwise_parity_with_faults(self, setup, tmp_path):
        run = self._run(setup, tmp_path, "random", "faults")
        _assert_golden_baseline(run, "random", "faults")

    def test_exhaustive_bitwise_parity(self, setup, tmp_path):
        run = self._run(setup, tmp_path, "exhaustive", "faults")
        _assert_golden_baseline(run, "exhaustive", "faults")

    @pytest.mark.parametrize("searcher", sorted(BASELINES))
    def test_golden_without_faults(self, setup, tmp_path, searcher):
        run = self._run(setup, tmp_path, searcher, "plain")
        _assert_golden_baseline(run, searcher, "plain")

    def test_env_var_is_inert_for_random_and_exhaustive(
        self, setup, monkeypatch
    ):
        # The retired REPRO_SEARCH_WORKERS variable is read by nothing:
        # setting it must not perturb the baselines (same history).
        program, _space, _ids, pool, model = setup
        reference_runs = [
            RandomSearch(batch_size=9, max_evaluations=45, seed=2).search(
                pool, _plain_evaluator(program, model).evaluate_batch
            ),
            ExhaustiveSearch(batch_size=13, limit=52).search(
                pool, _plain_evaluator(program, model).evaluate_batch
            ),
        ]
        monkeypatch.setenv("REPRO_SEARCH_WORKERS", "3")
        env_runs = [
            RandomSearch(batch_size=9, max_evaluations=45, seed=2).search(
                pool, _plain_evaluator(program, model).evaluate_batch
            ),
            ExhaustiveSearch(batch_size=13, limit=52).search(
                pool, _plain_evaluator(program, model).evaluate_batch
            ),
        ]
        for reference, env in zip(reference_runs, env_runs):
            assert reference.best_objective == env.best_objective
            assert [y for _c, y in reference.history] == [
                y for _c, y in env.history
            ]

    @pytest.mark.parametrize("evaluator", sorted(EVALUATORS))
    @pytest.mark.parametrize("searcher", sorted(BASELINES))
    def test_killed_and_resumed_run_is_golden(
        self, setup, tmp_path, searcher, evaluator
    ):
        program, _space, _ids, pool, model = setup
        cls, kwargs, _keys = BASELINES[searcher]
        run = _killed_and_resumed(
            cls(**kwargs), cls(**kwargs), pool, program, model, tmp_path,
            EVALUATORS[evaluator],
        )
        _assert_golden_baseline(run, searcher, evaluator)


#: Each pool searcher, its arguments and the keys its ``state.json``
#: holds beside ``searcher``: the history, the driver's selection state
#: and the telemetry.  Resume recounts the useful count and the champion,
#: and SURF re-derives its dispatched set from the history, so no state
#: carries ``remaining``, ``useful``, ``best_i`` or ``best_y``.
STATE_LAYOUTS = {
    "surf": (
        SURFSearch, dict(batch_size=8, max_evaluations=48, seed=7),
        (*SURF_STATE_KEYS, "telemetry"),
    ),
    **BASELINES,
}


class TestStateLayout:
    @pytest.mark.parametrize("searcher", sorted(STATE_LAYOUTS))
    def test_state_holds_only_what_resume_reads(self, setup, tmp_path, searcher):
        # Faults make the useful count differ from the history length, so
        # a resume that recounted it wrongly would take another course.
        program, _space, _ids, pool, model = setup
        cls, kwargs, keys = STATE_LAYOUTS[searcher]
        reference = _checkpointed_run(
            cls(**kwargs), pool, program, model, tmp_path / "reference",
            _faulty_evaluator,
        )
        resumed = _killed_and_resumed(
            cls(**kwargs), cls(**kwargs), pool, program, model,
            tmp_path / "resume", _faulty_evaluator,
        )
        for _result, state in (reference, resumed):
            assert set(state) == {"searcher", *keys}
            assert state["telemetry"]["records"]
            for record in state["telemetry"]["records"]:
                assert "cache_hits" not in record
        _assert_same_run(
            resumed, reference, state_keys=[k for k in keys if k != "telemetry"]
        )


class TestPoolParity:
    """The space-fed feature path must equal the features()-dict path."""

    @pytest.mark.parametrize("encoder_cls", [FeatureBinarizer, OrdinalEncoder])
    def test_design_matrix_bitwise(self, setup, encoder_cls):
        _program, space, ids, pool, _model = setup
        space_pool = SpacePool(space, ids)
        X_space = space_pool.design_matrix(encoder_cls())

        dict_encoder = encoder_cls()
        X_dict = dict_encoder.fit_transform([c.features() for c in pool])
        assert X_space.shape == X_dict.shape
        assert np.array_equal(X_space, X_dict)

    @pytest.mark.parametrize(
        "workload, backend",
        [("lg3", "loopnest"), ("eqn1", "loopnest"), ("lg3", "ttgt")],
    )
    def test_fingerprint_is_the_describe_hash(self, workload, backend):
        # The fingerprint hashes the space's description (each variant
        # index and every kernel position's describe()) with the sorted
        # ids: equal for equal spaces and ids, and moved by any changed id
        # or by any kernel position's describe(), pooled or not.  Single-
        # and multi-variant loop-nest spaces, and a space of TTGT kernels.
        from repro.core.pipeline import compile_contraction
        from repro.workloads import get_workload

        wl = get_workload(workload)
        programs = (
            [wl.program] if wl.program is not None
            else [v.program for v in compile_contraction(wl.contraction).variants]
        )

        def build() -> TuningSpace:
            return TuningSpace([
                decide_search_space(p, variant_index=i, backend=backend)
                for i, p in enumerate(programs)
            ])

        space = build()
        ids = space.sample_ids(400, spawn_rng(0, "fingerprint"))
        fingerprint = SpacePool(space, ids).fingerprint()
        assert SpacePool(build(), ids[::-1]).fingerprint() == fingerprint

        pooled = set(ids)
        free = next(g for g in range(space.size()) if g not in pooled)
        for j in (0, len(ids) // 2, len(ids) - 1):
            moved = list(ids)
            moved[j] = free
            assert SpacePool(space, moved).fingerprint() != fingerprint

        class Renamed:
            """A kernel configuration with another ``describe()``."""

            def __init__(self, config):
                self.config = config

            def describe(self) -> str:
                return self.config.describe() + "'"

        last = len(space.program_spaces) - 1
        for pos, k in ((0, 0), (last, -1)):
            program_space = space.program_spaces[pos]
            kernel_space = program_space.kernel_spaces[k]
            for position in (0, len(kernel_space) - 1):
                configs = list(kernel_space)
                configs[position] = Renamed(configs[position])
                kernel_spaces = list(program_space.kernel_spaces)
                kernel_spaces[k] = TTGTKernelSpace(kernel_space.operation, configs)
                changed = list(space.program_spaces)
                changed[pos] = dataclasses.replace(
                    program_space, kernel_spaces=tuple(kernel_spaces)
                )
                assert (
                    SpacePool(TuningSpace(changed), ids).fingerprint()
                    != fingerprint
                )

    def test_configs_round_trip(self, setup):
        _program, space, ids, pool, _model = setup
        space_pool = SpacePool(space, ids)
        got = space_pool.configs([0, 5, len(pool) - 1])
        want = [pool[0], pool[5], pool[-1]]
        assert [c.describe() for c in got] == [c.describe() for c in want]


class TestRouterParity:
    """Coded-pool descent must equal float descent, bitwise."""

    def test_predict_and_std_bitwise(self, setup):
        _program, space, ids, _pool, _model = setup
        X = SpacePool(space, ids).design_matrix(FeatureBinarizer())
        codes = pool_codes(X)
        assert codes is not None  # binarized columns are tiny-cardinality
        rng = spawn_rng(0, "router-parity")
        train = rng.choice(X.shape[0], size=60, replace=False)
        y = rng.normal(size=train.size)
        forest = ExtraTreesRegressor(n_estimators=12, seed=3).fit(X[train], y)
        router = forest.make_router(codes)
        sub = rng.choice(X.shape[0], size=150, replace=False)
        assert np.array_equal(router.predict(sub), forest.predict(X[sub]))
        mean, std = router.predict_mean_std(sub)
        assert np.array_equal(mean, forest.predict(X[sub]))
        assert np.array_equal(std, forest.predict_std(X[sub]))


class TestPredictMeanStd:
    """The fused single-descent moments equal the two-pass answers."""

    def test_forest_fused_moments(self):
        rng = spawn_rng(2, "fused")
        X = rng.normal(size=(120, 8))
        y = rng.normal(size=60)
        forest = ExtraTreesRegressor(n_estimators=9, seed=1).fit(X[:60], y)
        mean, std = forest.predict_mean_std(X)
        assert np.array_equal(mean, forest.predict(X))
        assert np.array_equal(std, forest.predict_std(X))

    def test_router_fused_moments(self, setup):
        _program, space, ids, _pool, _model = setup
        X = SpacePool(space, ids).design_matrix(FeatureBinarizer())
        rng = spawn_rng(3, "fused-router")
        train = rng.choice(X.shape[0], size=60, replace=False)
        y = rng.normal(size=train.size)
        forest = ExtraTreesRegressor(n_estimators=8, seed=2).fit(X[train], y)
        router = forest.make_router(pool_codes(X))
        sub = rng.choice(X.shape[0], size=100, replace=False)
        mean, std = router.predict_mean_std(sub)
        assert np.array_equal(mean, router.predict(sub))
        assert np.array_equal(mean, forest.predict(X[sub]))
        assert np.array_equal(std, forest.predict_std(X[sub]))


@pytest.fixture(scope="module")
def lg3_space_pool():
    """An lg3 pool whose unroll columns take 12 values each."""
    from repro.workloads import get_workload

    space = TuningSpace([decide_search_space(get_workload("lg3").program)])
    ids = space.sample_ids(1500, spawn_rng(0, "partition-pool"))
    return SpacePool(space, ids)


@pytest.fixture(scope="module")
def lg3_pool(lg3_space_pool):
    """The binarized design matrix of the lg3 pool."""
    return lg3_space_pool.design_matrix(FeatureBinarizer())


def _router_case(X, seed, trees=12, train_rows=60, constant=False):
    """A forest fit on ``train_rows`` rows of ``X`` and its router."""
    codes = pool_codes(X)
    assert codes is not None
    rng = spawn_rng(seed, "partition-parity")
    train = rng.choice(X.shape[0], size=train_rows, replace=False)
    y = np.full(train.size, 0.25) if constant else rng.normal(size=train.size)
    forest = ExtraTreesRegressor(n_estimators=trees, seed=seed).fit(X[train], y)
    return forest, forest.make_router(codes), rng


def _assert_partition_exact(forest, router, X, ids) -> dict:
    """The partition, called directly, equals the float descent and the
    table descent bitwise, and holds no shared split after the pass."""
    stats: dict = {}
    got = router.partition(ids, stats)
    assert np.array_equal(got, forest.predict(X[ids]))
    assert np.array_equal(got, router.descend(ids))
    assert stats["path"] == "partition"
    assert stats["held"] == 0
    return stats


class TestPartitionParity:
    """The partition predictor equals the float and table descents, bitwise."""

    @pytest.mark.parametrize("encoder_cls", [FeatureBinarizer, OrdinalEncoder])
    def test_space_pool(self, setup, encoder_cls):
        _program, space, ids, _pool, _model = setup
        X = SpacePool(space, ids).design_matrix(encoder_cls())
        forest, router, rng = _router_case(X, seed=3)
        stats = _assert_partition_exact(
            forest, router, X, np.arange(X.shape[0])
        )
        # Trees share splits: fewer are computed than internal nodes.
        assert 0 < stats["splits"] < int((router.column >= 0).sum())
        _assert_partition_exact(
            forest, router, X, np.sort(rng.choice(X.shape[0], 150, replace=False))
        )

    def test_multi_valued_unroll_column(self, lg3_pool):
        X = lg3_pool
        assert max(np.unique(X[:, j]).size for j in range(X.shape[1])) == 12
        forest, router, _rng = _router_case(X, seed=5, trees=30, train_rows=100)
        _assert_partition_exact(forest, router, X, np.arange(X.shape[0]))

    def test_single_leaf_trees(self, setup):
        _program, space, ids, _pool, _model = setup
        X = SpacePool(space, ids).design_matrix(FeatureBinarizer())
        forest, router, _rng = _router_case(X, seed=1, constant=True)
        assert forest.depth == 0
        stats = _assert_partition_exact(
            forest, router, X, np.arange(X.shape[0])
        )
        assert stats["splits"] == 0

    def test_unsorted_and_duplicated_ids(self, setup):
        _program, space, ids, _pool, _model = setup
        X = SpacePool(space, ids).design_matrix(FeatureBinarizer())
        forest, router, rng = _router_case(X, seed=7)
        rows = rng.choice(X.shape[0], size=400, replace=True)
        assert np.unique(rows).size < rows.size  # duplicates
        assert np.any(np.diff(rows) < 0)  # unsorted
        _assert_partition_exact(forest, router, X, rows)

    def test_empty_ids(self, setup):
        _program, space, ids, _pool, _model = setup
        X = SpacePool(space, ids).design_matrix(FeatureBinarizer())
        forest, router, _rng = _router_case(X, seed=2)
        stats: dict = {}
        empty = np.zeros(0, dtype=np.int64)
        got = router.partition(empty, stats)
        assert got.shape == (0,)
        assert np.array_equal(got, router.descend(empty))
        assert stats["splits"] == 0 and stats["held"] == 0

    def test_row_chunks_concatenate_to_the_whole(self, lg3_pool):
        X = lg3_pool
        forest, router, _rng = _router_case(X, seed=4, trees=30, train_rows=100)
        rows = np.arange(X.shape[0])
        whole = router.partition(rows)
        chunks = [router.partition(part) for part in (rows[:611], rows[611:])]
        assert np.array_equal(np.concatenate(chunks), whole)
        _assert_partition_exact(forest, router, X, rows)

    def test_size_rule_picks_the_path(self, setup):
        _program, space, ids, _pool, _model = setup
        X = SpacePool(space, ids).design_matrix(FeatureBinarizer())
        forest, router, _rng = _router_case(X, seed=6, trees=3, train_rows=20)
        rule = PARTITION_ROWS_PER_NODE * forest.node_count
        assert rule <= X.shape[0]
        below, above = {}, {}
        small = router.predict(np.arange(rule - 1), below)
        large = router.predict(np.arange(rule), above)
        assert below["path"] == "table" and "splits" not in below
        assert above["path"] == "partition" and above["held"] == 0
        assert np.array_equal(small, large[: rule - 1])
        assert np.array_equal(large, forest.predict(X[:rule]))


class TestCodesRebuildTrainingRows:
    """Refits rebuild their training rows from the pool codes, bitwise."""

    @pytest.mark.parametrize("kind", ["binarized", "ordinal", "materialized"])
    def test_rows_equal_design_matrix_rows(self, setup, kind):
        _program, space, ids, pool, _model = setup
        if kind == "materialized":
            X = MaterializedPool(pool).design_matrix(FeatureBinarizer())
        else:
            encoder = FeatureBinarizer() if kind == "binarized" else OrdinalEncoder()
            X = SpacePool(space, ids).design_matrix(encoder)
        codes = pool_codes(X)
        rows = spawn_rng(8, "rebuild").choice(X.shape[0], size=90, replace=False)
        rebuilt = codes.rows(rows)
        assert rebuilt.dtype == X.dtype and rebuilt.shape == (90, X.shape[1])
        assert rebuilt.tobytes() == X[rows].tobytes()


def _assert_same_codes(got, want) -> None:
    """Two :class:`PoolCodes` hold the same bits, vocabularies included."""
    assert got is not None and want is not None
    assert got.codes.dtype == want.codes.dtype == np.uint8
    assert got.codes.shape == want.codes.shape
    assert got.codes.tobytes() == want.codes.tobytes()
    assert len(got.columns) == len(want.columns)
    for a, b in zip(got.columns, want.columns):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _direct_codes(pool: SpacePool, encoder_cls):
    """A space pool's direct codes, checked against ``pool_codes`` of its
    design matrix; returns the codes and the fitted encoder."""
    encoder = encoder_cls()
    codes = pool.codes(encoder)
    _assert_same_codes(codes, pool_codes(pool.design_matrix(encoder_cls())))
    return codes, encoder


def _union_space(two_op_program) -> TuningSpace:
    """A union space of a two-kernel and a one-kernel variant: the
    one-kernel rows have no ``k1_*`` features."""
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
    return TuningSpace([
        decide_search_space(program, variant_index=i)
        for i, program in enumerate([two_op_program, single])
    ])


def _wide_view(values: int) -> FeatureView:
    """A synthetic view whose numeric column takes ``values`` values."""
    n = 2 * values
    rows = np.arange(n)
    return FeatureView(
        n=n,
        cats=[CatGroup("k0_tx", rows, rows % 2, ("x", "y"))],
        nums=[NumGroup("k0_unroll", rows, rows % values, np.arange(values) + 1.0)],
    )


ENCODERS = [FeatureBinarizer, OrdinalEncoder]


class TestDirectCodes:
    """The encoders' direct codes equal ``pool_codes`` of the design matrix,
    bitwise, vocabularies included, and are None exactly where it is."""

    @pytest.mark.parametrize("encoder_cls", ENCODERS)
    def test_single_variant_pool(self, setup, encoder_cls):
        _program, space, ids, _pool, _model = setup
        codes, encoder = _direct_codes(SpacePool(space, ids), encoder_cls)
        if encoder_cls is FeatureBinarizer:
            variant = encoder.columns.index(("variant", "0"))
            assert codes.columns[variant].tolist() == [1.0]
            assert not codes.codes[variant].any()

    @pytest.mark.parametrize("encoder_cls", ENCODERS)
    def test_union_pool_with_absent_slots(self, two_op_program, encoder_cls):
        space = _union_space(two_op_program)
        ids = space.sample_ids(400, spawn_rng(3, "union-pool"))
        codes, encoder = _direct_codes(SpacePool(space, ids), encoder_cls)
        if encoder_cls is FeatureBinarizer:
            absent = encoder.columns.index(("k1_tx", ABSENT))
            unroll = encoder.columns.index(("k1_unroll", None))
            assert codes.columns[absent].tolist() == [0.0, 1.0]
            assert codes.columns[unroll][0] == 0.0  # zero-filled rows
            assert codes.columns[unroll].size > 1
        else:
            assert min(c[0] for c in codes.columns) == -2.0

    @pytest.mark.parametrize("encoder_cls", ENCODERS)
    def test_lg3_pool_with_12_valued_unroll(self, lg3_space_pool, encoder_cls):
        codes, _encoder = _direct_codes(lg3_space_pool, encoder_cls)
        assert max(c.size for c in codes.columns) == 12

    @pytest.mark.parametrize("encoder_cls", ENCODERS)
    def test_one_row_pool(self, setup, encoder_cls):
        _program, space, ids, _pool, _model = setup
        codes, _encoder = _direct_codes(SpacePool(space, ids[:1]), encoder_cls)
        assert codes.n == 1 and all(c.size == 1 for c in codes.columns)

    @pytest.mark.parametrize("encoder_cls", ENCODERS)
    def test_too_many_values_returns_none(self, encoder_cls):
        wide = _wide_view(MAX_ROUTER_CARD + 1)
        encoder = encoder_cls().fit_view(wide)
        assert pool_codes(encoder.transform_matrix(wide)) is None
        assert encoder.transform_codes(wide) is None
        edge = _wide_view(MAX_ROUTER_CARD)
        encoder = encoder_cls().fit_view(edge)
        _assert_same_codes(
            encoder.transform_codes(edge), pool_codes(encoder.transform_matrix(edge))
        )

    def test_driver_falls_back_to_the_float_matrix(self, setup, monkeypatch):
        from repro.obs.tracer import Tracer, use_tracer
        from repro.surf import pool as pool_module

        program, space, ids, _pool, model = setup
        plain = pool_module.feature_view

        def widened(space, ids):
            view = plain(space, ids)
            rows = np.arange(view.n)
            card = MAX_ROUTER_CARD + 1
            view.nums.append(
                NumGroup("wide", rows, rows % card, np.arange(card) + 1.0)
            )
            return view

        monkeypatch.setattr(pool_module, "feature_view", widened)
        tracer = Tracer()
        with use_tracer(tracer):
            SURFSearch(batch_size=5, max_evaluations=15, seed=2).search(
                SpacePool(space, ids),
                _plain_evaluator(program, model).evaluate_batch,
            )
        spans = tracer.finished()
        (encode,) = [s for s in spans if s.name == "search.encode"]
        assert encode.attributes["path"] == "matrix"
        assert encode.attributes["kept_bytes"] == len(ids) * 8 * (
            len(FeatureBinarizer().fit_view(widened(space, ids)).columns)
        )
        assert not [s for s in spans if s.name == "search.codes"]
        paths = {s.attributes["path"] for s in spans if s.name == "search.predict"}
        assert paths == {"float"}

    def test_fit_view_keeps_only_the_categories_rows_take(self, setup):
        # Three rows take few of each table's categories: fit_view counts
        # the ones they take, like the dict fit.
        _program, space, ids, pool, _model = setup
        view = feature_view(space, np.sort(ids)[:3])
        from_view = FeatureBinarizer().fit_view(view).columns
        from_dicts = FeatureBinarizer().fit(
            [c.features() for c in pool[:3]]
        ).columns
        assert from_view == from_dicts


#: Champion-plus-history digest of ``tune lg3 --arch k20 --evals 40
#: --batch 10 --pool 20000 --seed 3``, captured before the partition
#: predictor existed; all three of its predict passes now take it.
GOLDEN_LARGE_POOL = "65ba09a09d779cd9"


class TestLargePoolGolden:
    def test_partition_serves_every_pass_of_a_golden_run(self):
        from repro.autotune import Autotuner
        from repro.gpusim.arch import K20
        from repro.obs.tracer import Tracer, use_tracer
        from repro.workloads import get_workload

        tracer = Tracer()
        with use_tracer(tracer):
            result = get_workload("lg3").tune(Autotuner(
                K20, seed=3, max_evaluations=40, batch_size=10,
                pool_size=20_000,
            ))
        assert _run_digest(result.search) == GOLDEN_LARGE_POOL
        paths = [
            s.attributes["path"] for s in tracer.finished()
            if s.name == "search.predict"
        ]
        assert paths == ["partition"] * 3

    def test_golden_run_builds_no_float_matrix(self, monkeypatch):
        from repro.autotune import Autotuner
        from repro.gpusim.arch import K20
        from repro.surf import search as search_module
        from repro.workloads import get_workload

        def refuse(*_args, **_kwargs):
            raise AssertionError("a space pool built its float matrix")

        monkeypatch.setattr(SpacePool, "design_matrix", refuse)
        monkeypatch.setattr(search_module, "pool_codes", refuse)
        result = get_workload("lg3").tune(Autotuner(
            K20, seed=3, max_evaluations=40, batch_size=10, pool_size=20_000,
        ))
        assert _run_digest(result.search) == GOLDEN_LARGE_POOL


class TestTieBreak:
    """Equal predictions must not collapse to pool order."""

    def test_lexsort_randomizes_ties_at_any_magnitude(self):
        preds = np.full(100, 16384.0)
        picks = []
        for seed in range(3):
            perm = spawn_rng(seed, "tie").permutation(preds.size)
            sel = _bottom_k_lex(preds, perm, 10)
            assert np.array_equal(sel, np.lexsort((perm, preds))[:10])
            picks.append(tuple(sel.tolist()))
        assert len(set(picks)) == 3  # different seeds, different batches
        assert all(p != tuple(range(10)) for p in picks)

    def test_bottom_k_helpers_match_full_sorts(self):
        rng = spawn_rng(1, "bottom-k")
        for _ in range(20):
            n = int(rng.integers(3, 200))
            k = int(rng.integers(1, n + 1))
            keys = rng.choice([0.0, 1.0, 2.0, np.inf], size=n)  # heavy ties
            perm = rng.permutation(n)
            assert np.array_equal(
                _bottom_k_lex(keys, perm, k),
                np.lexsort((perm, keys))[:k],
            )

    def test_surf_default_is_lexsort(self):
        # Lexsort is the only rule: the retired jitter knob is refused.
        with pytest.raises(TypeError):
            SURFSearch(tie_break="jitter")

    def test_best_so_far_is_running_minimum(self, setup):
        program, _space, _ids, pool, model = setup
        result = SURFSearch(batch_size=10, max_evaluations=30, seed=1).search(
            pool, _plain_evaluator(program, model).evaluate_batch
        )
        curve = result.best_so_far()
        ys = [y for _c, y in result.history]
        expect = [min(ys[: i + 1]) for i in range(len(ys))]
        assert curve == expect
