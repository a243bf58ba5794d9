"""Tests for the evaluation cache (memoized configuration scoring)."""

import json

import pytest

from repro.autotune import Autotuner
from repro.gpusim.arch import GTX980
from repro.gpusim.perfmodel import GPUPerformanceModel
from repro.surf.cache import CachedEvaluator, EvaluationCache, QuarantineStore
from repro.surf.evaluator import ConfigurationEvaluator
from repro.tcr.decision import decide_search_space
from repro.tcr.space import TuningSpace
from repro.util.jsonl import CorruptLinesWarning, atomic_append_jsonl, load_jsonl


@pytest.fixture
def setup(two_op_program):
    model = GPUPerformanceModel(GTX980)
    space = TuningSpace([decide_search_space(two_op_program)])
    pool = [space.config_at(g) for g in range(space.size())]
    return two_op_program, model, pool


def _cached(program, model, cache=None):
    inner = ConfigurationEvaluator([program], model, seed=0)
    return CachedEvaluator(inner, cache)


class TestCachedEvaluator:
    def test_second_evaluation_hits(self, setup):
        program, model, pool = setup
        ev = _cached(program, model)
        first = ev.evaluate(pool[0])
        second = ev.evaluate(pool[0])
        assert first == second
        assert ev.evaluation_count == 1
        assert ev.cache_hits == 1

    def test_values_identical_to_uncached(self, setup):
        program, model, pool = setup
        plain = ConfigurationEvaluator([program], model, seed=0)
        ev = _cached(program, model)
        assert ev.evaluate_batch(pool[:8]) == plain.evaluate_batch(pool[:8])
        # Hits reproduce the original values exactly.
        assert ev.evaluate_batch(pool[:8]) == plain.evaluate_batch(pool[:8])

    def test_hits_still_charge_simulated_wall(self, setup):
        # The cache speeds up the reproduction, not the simulated rig:
        # Table II's "Search" accounting must not depend on cache state.
        program, model, pool = setup
        a = _cached(program, model)
        a.evaluate_batch(pool[:6])
        cold_wall = a.simulated_wall_seconds
        a.evaluate_batch(pool[:6])
        assert a.simulated_wall_seconds == pytest.approx(2 * cold_wall)

    def test_seed_change_misses(self, setup):
        # The context fingerprint covers the noise seed, so a different
        # seed can never be served another seed's measurements.
        program, model, pool = setup
        cache = EvaluationCache()
        CachedEvaluator(
            ConfigurationEvaluator([program], model, seed=0), cache
        ).evaluate(pool[0])
        other = CachedEvaluator(
            ConfigurationEvaluator([program], model, seed=1), cache
        )
        other.evaluate(pool[0])
        assert other.evaluation_count == 1
        assert other.cache_hits == 0


class TestOnDiskStore:
    def test_round_trip(self, setup, tmp_path):
        program, model, pool = setup
        path = tmp_path / "cache.jsonl"
        first = _cached(program, model, EvaluationCache(path))
        values = first.evaluate_batch(pool[:10])
        assert first.evaluation_count == 10

        reloaded = EvaluationCache(path)
        assert len(reloaded) == 10
        second = _cached(program, model, reloaded)
        assert second.evaluate_batch(pool[:10]) == values
        assert second.evaluation_count == 0
        assert second.cache_hits == 10

    def test_survives_truncated_last_line(self, setup, tmp_path):
        program, model, pool = setup
        path = tmp_path / "cache.jsonl"
        first = _cached(program, model, EvaluationCache(path))
        first.evaluate_batch(pool[:6])
        # Simulate a crash mid-append: chop the last line in half.
        raw = path.read_text(encoding="utf-8")
        path.write_text(raw[: len(raw) - len(raw.splitlines()[-1]) // 2 - 1])

        with pytest.warns(CorruptLinesWarning):
            reloaded = EvaluationCache(path)
        assert reloaded.corrupt_lines == 1
        assert len(reloaded) == 5
        ev = _cached(program, model, reloaded)
        ev.evaluate_batch(pool[:6])
        assert ev.cache_hits == 5
        assert ev.evaluation_count == 1

    def test_skips_garbage_lines(self, setup, tmp_path):
        program, model, pool = setup
        path = tmp_path / "cache.jsonl"
        _cached(program, model, EvaluationCache(path)).evaluate(pool[0])
        with path.open("a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write(json.dumps({"key": ["short"], "value": 1.0}) + "\n")
        with pytest.warns(CorruptLinesWarning, match="2 corrupt line"):
            reloaded = EvaluationCache(path)
        assert len(reloaded) == 1
        assert reloaded.corrupt_lines == 2

    def test_put_is_idempotent_on_disk(self, setup, tmp_path):
        program, model, pool = setup
        path = tmp_path / "cache.jsonl"
        cache = EvaluationCache(path)
        ev = _cached(program, model, cache)
        ev.evaluate(pool[0])
        ev.evaluate(pool[0])
        assert len(path.read_text().splitlines()) == 1


class TestMergeSemantics:
    KEY = ("GTX980", "ctx-fp", "prog-fp", "cfg")

    def _line(self, value: float, wall: float) -> dict:
        return {"key": list(self.KEY), "value": value, "wall": wall, "status": "ok"}

    def test_load_serves_first_of_conflicting_lines(self, tmp_path):
        # Regression: _load used plain assignment (last-wins) while put
        # used first-wins, so reloading a file with duplicate keys silently
        # swapped the value a live writer had been serving.
        path = tmp_path / "cache.jsonl"
        atomic_append_jsonl(path, self._line(1.0, 0.5))
        atomic_append_jsonl(path, self._line(2.0, 0.7))
        cache = EvaluationCache(path)
        assert len(cache) == 1
        assert cache.get(self.KEY) == (1.0, 0.5, "ok")

    def test_reload_agrees_with_live_writer(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        live = EvaluationCache(path)
        live.put(self.KEY, 1.0, 0.5)
        # A concurrent process appends the same key behind our back...
        atomic_append_jsonl(path, self._line(9.0, 9.0))
        # ...and our own duplicate put is a no-op (first write wins).
        live.put(self.KEY, 3.0, 0.3)
        assert live.get(self.KEY) == (1.0, 0.5, "ok")
        assert EvaluationCache(path).get(self.KEY) == (1.0, 0.5, "ok")

    def test_quarantine_first_reason_wins(self, tmp_path):
        path = tmp_path / "quarantine.jsonl"
        atomic_append_jsonl(path, {"fingerprint": "cfg-a", "reason": "first"})
        atomic_append_jsonl(path, {"fingerprint": "cfg-a", "reason": "second"})
        store = QuarantineStore(path)
        assert len(store) == 1
        assert store.reason("cfg-a") == "first"

    def test_atomic_append_writes_single_line(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        payload = self._line(1.0, 0.5)
        payload["padding"] = "x" * 10_000  # longer than any stdio buffer
        written = atomic_append_jsonl(path, payload)
        assert written == path.stat().st_size
        assert len(path.read_text(encoding="utf-8").splitlines()) == 1

    def test_append_after_torn_tail_survives(self, tmp_path):
        # Regression: a crash left a final line with no newline, and the
        # next append glued its record onto it, so the load lost both.
        path = tmp_path / "store.jsonl"
        atomic_append_jsonl(path, {"a": 1})
        with path.open("ab") as handle:
            handle.write(b'{"b": "a torn recor')
        atomic_append_jsonl(path, {"c": 3})
        assert load_jsonl(path) == ([{"a": 1}, {"c": 3}], 1)


class TestAutotunerCache:
    def test_repeat_run_is_all_hits(self, two_op_program):
        # Acceptance criterion: with the cache enabled, a repeated tune run
        # performs 0 model evaluations — every point is a hit.
        tuner = Autotuner(
            GTX980, max_evaluations=20, pool_size=200, seed=0, cache=True
        )
        a = tuner.tune_program(two_op_program)
        b = tuner.tune_program(two_op_program)
        assert b.search.telemetry is not None
        totals = b.search.telemetry.totals()
        assert totals["evaluations"] == 0
        assert totals["cache_hits"] == b.search.evaluations
        assert a.best_config == b.best_config
        assert a.seconds == b.seconds

    def test_disk_cache_shared_across_instances(self, two_op_program, tmp_path):
        path = tmp_path / "cache.jsonl"

        def run():
            tuner = Autotuner(
                GTX980, max_evaluations=20, pool_size=200, seed=0, cache=path
            )
            return tuner.tune_program(two_op_program)

        a = run()
        b = run()
        assert a.best_config == b.best_config
        totals = b.search.telemetry.totals()
        assert totals["evaluations"] == 0
        assert totals["cache_hits"] == b.search.evaluations

    def test_cache_does_not_change_results(self, two_op_program):
        plain = Autotuner(GTX980, max_evaluations=20, pool_size=200, seed=0)
        cached = Autotuner(
            GTX980, max_evaluations=20, pool_size=200, seed=0, cache=True
        )
        a = plain.tune_program(two_op_program)
        b = cached.tune_program(two_op_program)
        assert a.best_config == b.best_config
        assert [y for _c, y in a.search.history] == [
            y for _c, y in b.search.history
        ]
        assert a.search_seconds == pytest.approx(b.search_seconds)

    def test_cache_env_var(self, two_op_program, tmp_path, monkeypatch):
        path = tmp_path / "env_cache.jsonl"
        monkeypatch.setenv("REPRO_EVAL_CACHE", str(path))
        tuner = Autotuner(GTX980, max_evaluations=15, pool_size=150, seed=0)
        tuner.tune_program(two_op_program)
        assert path.exists()
        assert len(EvaluationCache(path)) > 0
