"""Searcher comparison: SURF vs random vs exhaustive, convergence quality.

Quantifies Section V's value proposition on a shared pool: at equal budget
SURF should beat random search on average, and approach the pool optimum
that exhaustive search pays the full price for.  Also benchmarks the raw
cost of each searcher (surrogate fitting included).
"""

import numpy as np
import pytest

from repro.gpusim.arch import GTX980
from repro.gpusim.perfmodel import GPUPerformanceModel
from repro.surf import (
    ConfigurationEvaluator,
    ExhaustiveSearch,
    RandomSearch,
    SURFSearch,
)
from repro.tcr.decision import decide_search_space
from repro.tcr.space import TuningSpace
from repro.util.rng import spawn_rng
from repro.workloads import lg3t


@pytest.fixture(scope="module")
def shared_pool(bench_budgets):
    program = lg3t().program
    space = TuningSpace([decide_search_space(program)])
    pool = space.sample_pool(
        min(bench_budgets["pool"], space.size()),
        spawn_rng(bench_budgets["seed"], "bench-surf-pool"),
    )
    model = GPUPerformanceModel(GTX980)
    return program, pool, model


def _best_of(searcher, program, pool, model, seed):
    evaluator = ConfigurationEvaluator([program], model, seed=seed)
    return searcher.search(pool, evaluator.evaluate_batch).best_objective


def test_surf_beats_random_on_average(benchmark, shared_pool, bench_budgets):
    program, pool, model = shared_pool
    evals = bench_budgets["evals"]

    def trial():
        surf_wins = 0
        gaps = []
        for seed in range(5):
            surf = _best_of(
                SURFSearch(batch_size=10, max_evaluations=evals, seed=seed),
                program, pool, model, seed,
            )
            rand = _best_of(
                RandomSearch(batch_size=10, max_evaluations=evals, seed=seed),
                program, pool, model, seed,
            )
            if surf <= rand:
                surf_wins += 1
            gaps.append(rand / surf)
        return surf_wins, float(np.mean(gaps))

    wins, mean_gap = benchmark.pedantic(trial, rounds=1, iterations=1)
    print(f"\nSURF wins {wins}/5 seeds; random is {mean_gap:.2f}x slower on average")
    assert wins >= 3
    assert mean_gap > 0.95


def test_surf_approaches_exhaustive(benchmark, shared_pool, bench_budgets):
    program, pool, model = shared_pool

    def trial():
        brute = _best_of(ExhaustiveSearch(batch_size=50), program, pool, model, 0)
        surf = _best_of(
            SURFSearch(batch_size=10, max_evaluations=bench_budgets["evals"], seed=0),
            program, pool, model, 0,
        )
        return surf / brute

    ratio = benchmark.pedantic(trial, rounds=1, iterations=1)
    print(f"\nSURF best / pool optimum = {ratio:.3f} "
          f"at {bench_budgets['evals']}/{len(pool)} evaluations")
    assert ratio < 1.3


def test_surrogate_fit_cost(benchmark, shared_pool):
    """Micro: one SURF model refresh (binarize + fit) at typical sizes."""
    program, pool, model = shared_pool
    from repro.surf.binarize import FeatureBinarizer
    from repro.surf.forest import ExtraTreesRegressor

    feats = [c.features() for c in pool[:100]]
    binarizer = FeatureBinarizer().fit([c.features() for c in pool])
    X = binarizer.transform(feats)
    rng = np.random.default_rng(0)
    y = rng.uniform(size=len(feats))

    def fit():
        return ExtraTreesRegressor(n_estimators=30, seed=0).fit(X, y)

    benchmark(fit)
