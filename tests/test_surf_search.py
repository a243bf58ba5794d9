"""Tests for SURF (Algorithm 2) and the baseline searchers."""

import numpy as np
import pytest

from repro.errors import SearchError
from repro.gpusim.arch import GTX980
from repro.gpusim.perfmodel import GPUPerformanceModel
from repro.surf import (
    ConfigurationEvaluator,
    ExhaustiveSearch,
    RandomSearch,
    SURFSearch,
)
from repro.surf.evaluator import PENALTY_SECONDS
from repro.tcr.decision import decide_search_space
from repro.tcr.space import TuningSpace
from repro.util.rng import spawn_rng


@pytest.fixture
def tuning_setup(eqn1_small):
    from repro.core.pipeline import compile_contraction

    program = compile_contraction(eqn1_small).minimal_flop_variants()[0].program
    space = TuningSpace([decide_search_space(program)])
    assert space.size() > 400  # the tests below assume a non-trivial pool
    pool = space.sample_pool(
        min(300, space.size()), spawn_rng(0, "search-test-pool")
    )
    model = GPUPerformanceModel(GTX980)
    return program, pool, model


class TestSURF:
    def test_respects_budget(self, tuning_setup):
        program, pool, model = tuning_setup
        ev = ConfigurationEvaluator([program], model, seed=0)
        result = SURFSearch(batch_size=7, max_evaluations=40, seed=0).search(
            pool, ev.evaluate_batch
        )
        assert result.evaluations == 40
        assert ev.evaluation_count == 40

    def test_never_reevaluates_a_point(self, tuning_setup):
        program, pool, model = tuning_setup
        seen = []

        def evaluate(batch):
            seen.extend(id(c) for c in batch)
            ev = ConfigurationEvaluator([program], model, seed=0)
            return ev.evaluate_batch(batch)

        SURFSearch(batch_size=10, max_evaluations=60, seed=1).search(pool, evaluate)
        assert len(seen) == len(set(seen))

    def test_budget_capped_by_pool(self, tuning_setup):
        program, pool, model = tuning_setup
        small = pool[:25]
        ev = ConfigurationEvaluator([program], model, seed=0)
        result = SURFSearch(batch_size=10, max_evaluations=100, seed=0).search(
            small, ev.evaluate_batch
        )
        assert result.evaluations == 25

    def test_deterministic(self, tuning_setup):
        program, pool, model = tuning_setup

        def run():
            ev = ConfigurationEvaluator([program], model, seed=4)
            return SURFSearch(batch_size=10, max_evaluations=50, seed=4).search(
                pool, ev.evaluate_batch
            )

        a, b = run(), run()
        assert a.best_objective == b.best_objective
        assert [y for _c, y in a.history] == [y for _c, y in b.history]

    def test_beats_or_matches_random(self, tuning_setup):
        program, pool, model = tuning_setup
        wins = 0
        for seed in range(5):
            ev_s = ConfigurationEvaluator([program], model, seed=seed)
            surf = SURFSearch(batch_size=10, max_evaluations=60, seed=seed).search(
                pool, ev_s.evaluate_batch
            )
            ev_r = ConfigurationEvaluator([program], model, seed=seed)
            rand = RandomSearch(batch_size=10, max_evaluations=60, seed=seed).search(
                pool, ev_r.evaluate_batch
            )
            if surf.best_objective <= rand.best_objective * 1.001:
                wins += 1
        assert wins >= 3

    def test_finds_near_pool_optimum(self, tuning_setup):
        program, pool, model = tuning_setup
        ev_b = ConfigurationEvaluator([program], model, noisy=False)
        brute = ExhaustiveSearch(batch_size=50).search(pool, ev_b.evaluate_batch)
        ev_s = ConfigurationEvaluator([program], model, noisy=False)
        surf = SURFSearch(batch_size=10, max_evaluations=80, seed=0).search(
            pool, ev_s.evaluate_batch
        )
        assert surf.best_objective <= brute.best_objective * 1.25

    def test_history_and_best_consistent(self, tuning_setup):
        program, pool, model = tuning_setup
        ev = ConfigurationEvaluator([program], model, seed=0)
        result = SURFSearch(batch_size=10, max_evaluations=40, seed=0).search(
            pool, ev.evaluate_batch
        )
        ys = [y for _c, y in result.history]
        assert result.best_objective == min(ys)
        curve = result.best_so_far()
        assert curve == sorted(curve, reverse=True) or all(
            curve[i] >= curve[i + 1] for i in range(len(curve) - 1)
        )

    def test_empty_pool_rejected(self):
        with pytest.raises(SearchError, match="empty"):
            SURFSearch().search([], lambda b: [])

    def test_invalid_params(self):
        with pytest.raises(SearchError):
            SURFSearch(batch_size=0)
        with pytest.raises(SearchError):
            SURFSearch(explore_fraction=1.0)

    def test_mismatched_evaluator_rejected(self, tuning_setup):
        program, pool, model = tuning_setup
        with pytest.raises(SearchError, match="mismatched"):
            SURFSearch(batch_size=10, max_evaluations=20).search(
                pool, lambda batch: [1.0]
            )


class TestBaselines:
    def test_random_deterministic(self, tuning_setup):
        program, pool, model = tuning_setup

        def run():
            ev = ConfigurationEvaluator([program], model, seed=2)
            return RandomSearch(batch_size=10, max_evaluations=30, seed=2).search(
                pool, ev.evaluate_batch
            )

        assert run().best_objective == run().best_objective

    def test_exhaustive_covers_pool(self, tuning_setup):
        program, pool, model = tuning_setup
        ev = ConfigurationEvaluator([program], model, noisy=False)
        result = ExhaustiveSearch(batch_size=32).search(pool, ev.evaluate_batch)
        assert result.evaluations == len(pool)

    def test_exhaustive_limit(self, tuning_setup):
        program, pool, model = tuning_setup
        ev = ConfigurationEvaluator([program], model, noisy=False)
        result = ExhaustiveSearch(batch_size=32, limit=50).search(
            pool, ev.evaluate_batch
        )
        assert result.evaluations == 50

    @pytest.mark.parametrize("limit", [0, -1])
    def test_exhaustive_limit_below_one_rejected(self, limit):
        with pytest.raises(SearchError, match="limit"):
            ExhaustiveSearch(limit=limit)

    @pytest.mark.parametrize(
        "searcher",
        [
            SURFSearch(batch_size=10, max_evaluations=20),
            RandomSearch(batch_size=10, max_evaluations=20),
            ExhaustiveSearch(batch_size=10, limit=20),
        ],
        ids=lambda searcher: searcher.name,
    )
    def test_short_batch_rejected(self, tuning_setup, searcher):
        # One value short on the first batch only: every driver must
        # refuse it rather than drop, misnumber or redraw the point.
        program, pool, model = tuning_setup
        ev = ConfigurationEvaluator([program], model, seed=0)
        calls = 0

        def short_once(batch):
            nonlocal calls
            calls += 1
            ys = ev.evaluate_batch(batch)
            return ys[:-1] if calls == 1 else ys

        with pytest.raises(SearchError, match="mismatched batch"):
            searcher.search(pool, short_once)


class TestEvaluator:
    def test_wall_clock_accumulates(self, tuning_setup):
        program, pool, model = tuning_setup
        ev = ConfigurationEvaluator([program], model, seed=0)
        ev.evaluate_batch(pool[:10])
        assert ev.simulated_wall_seconds >= 10 * model.cal.compile_seconds

    def test_batch_parallelism_shrinks_wall(self, tuning_setup):
        # Batch-aware accounting: the batch costs its longest lane, which is
        # at least sum/lanes (lanes cannot split one compile+measure cycle)
        # but far below the sequential sum.
        program, pool, model = tuning_setup
        seq = ConfigurationEvaluator([program], model, seed=0)
        par = ConfigurationEvaluator(
            [program], model, seed=0, batch_parallelism=5
        )
        seq.evaluate_batch(pool[:10])
        par.evaluate_batch(pool[:10])
        assert par.simulated_wall_seconds >= seq.simulated_wall_seconds / 5
        assert par.simulated_wall_seconds < seq.simulated_wall_seconds / 4

    def test_batch_parallelism_matches_list_schedule(self, tuning_setup):
        program, pool, model = tuning_setup
        par = ConfigurationEvaluator(
            [program], model, seed=0, batch_parallelism=3
        )
        walls = [par.evaluate_one(c).wall for c in pool[:10]]
        par.evaluate_batch(pool[:10])
        lanes = [0.0, 0.0, 0.0]
        for w in walls:
            lanes[min(range(3), key=lanes.__getitem__)] += w
        assert par.simulated_wall_seconds == pytest.approx(max(lanes))

    def test_lanes_capped_by_batch_size(self, tuning_setup):
        # A single evaluation occupies one lane no matter the parallelism.
        program, pool, model = tuning_setup
        ev = ConfigurationEvaluator(
            [program], model, seed=0, batch_parallelism=8
        )
        wall = ev.evaluate_one(pool[0]).wall
        ev.evaluate(pool[0])
        assert ev.simulated_wall_seconds == pytest.approx(wall)

    def test_illegal_config_penalized(self):
        from repro.workloads.spectral import lg3

        program = lg3(12, 512).program
        model = GPUPerformanceModel(GTX980)
        space = TuningSpace([decide_search_space(program)])
        ev = ConfigurationEvaluator([program], model, seed=0)
        # find a config with ty = e -> 6144 threads/block -> illegal
        bad = next(
            c
            for c in space.sample_pool(4000, spawn_rng(0, "bad"))
            if any(k.ty == "e" for k in c.kernels)
        )
        assert ev.evaluate(bad) == PENALTY_SECONDS

    def test_noiseless_mode_deterministic(self, tuning_setup):
        program, pool, model = tuning_setup
        ev = ConfigurationEvaluator([program], model, noisy=False)
        assert ev.evaluate(pool[0]) == ev.evaluate(pool[0])
