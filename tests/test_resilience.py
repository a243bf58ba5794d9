"""Tests for fault injection and the retry resilience layer."""

import multiprocessing

import pytest

from repro.autotune import Autotuner
from repro.errors import (
    EvaluationFailure,
    SearchError,
    TransientEvaluationError,
    WorkerDiedError,
)
from repro.gpusim.arch import GTX980, K20
from repro.gpusim.perfmodel import GPUPerformanceModel
from repro.surf.evaluator import BatchEvaluator, ConfigurationEvaluator, EvalOutcome
from repro.surf.faults import FaultInjectingEvaluator, FaultSpec
from repro.surf.resilience import FAILURE_VALUE, ResilientEvaluator
from repro.tcr.decision import decide_search_space
from repro.tcr.space import TuningSpace
from repro.workloads import get_workload


def _worker_death_run(conn=None):
    """lg3 on the K20 under injected worker deaths: champion and history."""
    tuner = Autotuner(
        K20, max_evaluations=20, batch_size=5, pool_size=200, seed=3,
        faults="worker=0.3",
    )
    search = get_workload("lg3").tune(tuner).search
    outcome = (
        search.best_objective,
        [(c.global_id, y) for c, y in search.history],
        search.telemetry.totals()["retries"],
    )
    if conn is not None:
        conn.send(outcome)
        conn.close()
    return outcome


@pytest.fixture
def setup(two_op_program):
    model = GPUPerformanceModel(GTX980)
    space = TuningSpace([decide_search_space(two_op_program)])
    pool = [space.config_at(g) for g in range(space.size())]
    return two_op_program, model, pool


class TestFaultSpec:
    def test_parse_bare_probability_splits_20_20_60(self):
        spec = FaultSpec.parse("0.2", seed=7)
        assert spec.compile_rate == pytest.approx(0.04)
        assert spec.launch_rate == pytest.approx(0.04)
        assert spec.transient_rate == pytest.approx(0.12)
        assert spec.worker_death_rate == 0.0
        assert spec.seed == 7

    def test_parse_key_value_pairs(self):
        spec = FaultSpec.parse("compile=0.1,worker=0.05,slowdown_factor=8,seed=3")
        assert spec.compile_rate == 0.1
        assert spec.worker_death_rate == 0.05
        assert spec.slowdown_factor == 8.0
        assert spec.seed == 3

    def test_parse_empty_is_fault_free(self):
        assert not FaultSpec.parse("").any()

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(SearchError, match="unknown fault spec key"):
            FaultSpec.parse("explode=0.5")

    def test_rates_validated(self):
        with pytest.raises(SearchError, match="must be in"):
            FaultSpec(compile_rate=1.5)

    def test_describe_is_stable(self):
        spec = FaultSpec.parse("0.15", seed=3)
        assert spec.describe() == FaultSpec.parse("0.15", seed=3).describe()
        assert spec.describe() != FaultSpec.parse("0.15", seed=4).describe()


class TestFaultInjector:
    def test_verdicts_deterministic_and_order_independent(self, setup):
        program, model, pool = setup
        def run(order):
            inj = FaultInjectingEvaluator(
                ConfigurationEvaluator([program], model, seed=0),
                FaultSpec(compile_rate=0.3, transient_rate=0.3, seed=1),
            )
            verdicts = {}
            for config in order:
                try:
                    inj.evaluate_attempt(config, 0)
                    verdicts[config.describe()] = "ok"
                except EvaluationFailure as exc:
                    verdicts[config.describe()] = exc.stage
            return verdicts
        forward = run(pool[:20])
        backward = run(list(reversed(pool[:20])))
        assert forward == backward
        assert len(set(forward.values())) > 1  # the mix actually fires

    def test_permanent_hazard_ignores_attempt(self, setup):
        program, model, pool = setup
        inj = FaultInjectingEvaluator(
            ConfigurationEvaluator([program], model, seed=0),
            FaultSpec(compile_rate=0.5, seed=1),
        )
        doomed = next(
            c for c in pool if inj._hazard("compile", inj.fingerprint(c))
        )
        for attempt in range(4):
            with pytest.raises(EvaluationFailure):
                inj.evaluate_attempt(doomed, attempt)

    def test_transient_hazard_keys_on_attempt(self, setup):
        program, model, pool = setup
        inj = FaultInjectingEvaluator(
            ConfigurationEvaluator([program], model, seed=0),
            FaultSpec(transient_rate=0.4, seed=1),
        )
        verdict = {
            (c.describe(), a): inj._hazard("transient", inj.fingerprint(c), a)
            for c in pool[:40] for a in range(3)
        }
        # Some config fails on one attempt but not another: retries can win.
        assert any(
            verdict[(c.describe(), 0)] != verdict[(c.describe(), 1)]
            for c in pool[:40]
        )

    def test_zero_rates_never_fault(self, setup):
        program, model, pool = setup
        plain = ConfigurationEvaluator([program], model, seed=0)
        inj = FaultInjectingEvaluator(
            ConfigurationEvaluator([program], model, seed=0), FaultSpec()
        )
        assert inj.evaluate_batch(pool[:10]) == plain.evaluate_batch(pool[:10])

    def test_worker_death_raises_outside_process_pool(self, setup):
        program, model, pool = setup
        inj = FaultInjectingEvaluator(
            ConfigurationEvaluator([program], model, seed=0),
            FaultSpec(worker_death_rate=1.0, seed=1),
        )
        # The draw must raise, never exit.
        with pytest.raises(WorkerDiedError):
            inj.evaluate_attempt(pool[0], 0)

    def test_worker_death_in_a_child_process_raises_too(self):
        # An injected worker death is a simulated hazard: a faulted run
        # inside a multiprocessing child must finish exactly as in-process.
        reference = _worker_death_run()
        assert reference[2] > 0, "no injected worker death was retried"
        ctx = multiprocessing.get_context("spawn")
        receive, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_worker_death_run, args=(send,), daemon=True)
        child.start()
        send.close()
        assert receive.poll(300)  # the outcome, or end-of-file if it died
        child.join(timeout=60)
        assert child.exitcode == 0
        assert receive.recv() == reference


class _Flaky(BatchEvaluator):
    """Test double: fails the first ``fail_attempts`` dispatches per config."""

    def __init__(self, inner, fail_attempts, error=TransientEvaluationError):
        self.inner = inner
        self.fail_attempts = fail_attempts
        self.error = error
        self.dispatches = 0

    def evaluate_one(self, config):
        return self.evaluate_attempt(config, 0)

    def evaluate_attempt(self, config, attempt):
        self.dispatches += 1
        if attempt < self.fail_attempts:
            raise self.error("synthetic failure", stage="test", wall=2.0)
        return self.inner.evaluate_attempt(config, attempt)


class TestResilientEvaluator:
    def test_retry_succeeds_and_charges_backoff(self, setup):
        program, model, pool = setup
        plain = ConfigurationEvaluator([program], model, seed=0)
        res = ResilientEvaluator(
            _Flaky(ConfigurationEvaluator([program], model, seed=0), 1),
            max_retries=2,
        )
        out = res.evaluate_one(pool[0])
        ref = plain.evaluate_one(pool[0])
        assert out.status == "ok"
        assert out.attempts == 2
        assert out.value == ref.value
        # Wall = failed attempt (2.0) + backoff (1.0) + the real evaluation.
        assert out.wall == pytest.approx(ref.wall + 2.0 + 1.0)

    def test_gives_up_after_max_retries(self, setup):
        program, model, pool = setup
        res = ResilientEvaluator(
            _Flaky(ConfigurationEvaluator([program], model, seed=0), 99),
            max_retries=2,
        )
        out = res.evaluate_one(pool[0])
        assert out.status == "transient"
        assert out.value == FAILURE_VALUE
        assert out.attempts == 3  # 1 + 2 retries
        # 3 failed attempts + backoffs 1.0 and 2.0.
        assert out.wall == pytest.approx(3 * 2.0 + 1.0 + 2.0)

    def test_backoff_is_capped(self):
        res = ResilientEvaluator(
            _Flaky(None, 0), backoff_seconds=4.0, backoff_cap_seconds=9.0
        )
        assert [res._backoff(i) for i in range(4)] == [4.0, 8.0, 9.0, 9.0]

    def test_permanent_failure_scored_inf_without_retry(self, setup):
        program, model, pool = setup
        res = ResilientEvaluator(
            _Flaky(
                ConfigurationEvaluator([program], model, seed=0),
                99,
                error=EvaluationFailure,
            ),
            max_retries=2,
        )
        values = res.evaluate_batch(pool[:1])
        assert values == [FAILURE_VALUE]
        assert res.permanent_count == 1
        assert res.retry_count == 0
        assert res.inner.dispatches == 1
        # Nothing is remembered: scoring the point again dispatches again
        # and charges the failed attempt's wall again.
        out = res.evaluate_one(pool[0])
        assert out.status == "permanent" and out.wall == 2.0
        assert res.inner.dispatches == 2

    def test_invalid_outcomes_pass_through(self, setup):
        program, model, pool = setup
        res = ResilientEvaluator(ConfigurationEvaluator([program], model, seed=0))
        outcomes = [res.evaluate_one(c) for c in pool]
        assert all(o.status in ("ok", "invalid") for o in outcomes)


class TestZeroFaultComposition:
    """At fault rate 0 the full stack must be bitwise-invisible."""

    def _stack(self, program, model):
        ev = ConfigurationEvaluator([program], model, seed=0)
        ev = FaultInjectingEvaluator(ev, FaultSpec())
        return ResilientEvaluator(ev)

    def test_serial_stack_bitwise_identical(self, setup):
        program, model, pool = setup
        plain = ConfigurationEvaluator([program], model, seed=0)
        stack = self._stack(program, model)
        assert stack.evaluate_batch(pool[:16]) == plain.evaluate_batch(pool[:16])
        assert stack.simulated_wall_seconds == plain.simulated_wall_seconds

    def test_tuner_results_unchanged_by_resilience_layer(self, two_op_program):
        base = Autotuner(
            GTX980, max_evaluations=12, batch_size=4, pool_size=40, seed=5
        ).tune_program(two_op_program)
        hardened = Autotuner(
            GTX980, max_evaluations=12, batch_size=4, pool_size=40, seed=5,
            resilient=True,
        ).tune_program(two_op_program)
        assert hardened.search.best_objective == base.search.best_objective
        assert [
            (c.describe(), y) for c, y in hardened.search.history
        ] == [(c.describe(), y) for c, y in base.search.history]


class TestFaultySearch:
    def test_surf_completes_under_mixed_faults(self, two_op_program):
        tuner = Autotuner(
            GTX980, max_evaluations=15, batch_size=5, pool_size=60, seed=3,
            faults="0.25",
        )
        result = tuner.tune_program(two_op_program)
        totals = result.search.telemetry.totals()
        fault_hits = (
            totals["transient"] + totals["permanent"] + totals["retries"]
        )
        assert fault_hits > 0, "25% hazard mix never fired on 15+ evals"
        # Failures must not shrink the useful budget: every observed +inf
        # was replenished with an extra draw (pool permitting).
        finite = sum(
            1 for _c, y in result.search.history if y != float("inf")
        )
        assert finite >= 15
        assert result.search.best_objective != float("inf")

    def test_same_seed_reproducible_with_faults(self, two_op_program):
        def run():
            tuner = Autotuner(
                GTX980, max_evaluations=12, batch_size=4, pool_size=50,
                seed=9, faults="0.3",
            )
            result = tuner.tune_program(two_op_program)
            return [(c.describe(), y) for c, y in result.search.history]
        assert run() == run()

    def test_failure_counts_surface_in_cli_style_totals(self, two_op_program):
        tuner = Autotuner(
            GTX980, max_evaluations=12, batch_size=4, pool_size=50, seed=9,
            faults="compile=0.3,transient=0.2",
        )
        totals = tuner.tune_program(two_op_program).search.telemetry.totals()
        for key in ("invalid", "transient", "permanent", "retries"):
            assert key in totals
        assert totals["permanent"] > 0


class TestRepeatedCalls:
    """A tune call remembers nothing that a later call on the same tuner sees."""

    SETTINGS = dict(
        max_evaluations=15, batch_size=5, pool_size=60, seed=3,
        faults="compile=0.2,launch=0.1,transient=0.2",
    )

    @staticmethod
    def _outcome(result):
        totals = result.search.telemetry.totals()
        del totals["fit_seconds"]  # real wall-clock of this process
        return (
            [(c.describe(), y) for c, y in result.search.history],
            repr(result.search_seconds),
            totals,
        )

    @pytest.mark.parametrize("entry", ["tune_program", "tune_contraction"])
    def test_faulted_calls_on_one_tuner_match_a_fresh_tuner(
        self, entry, two_op_program, mttkrp
    ):
        source = two_op_program if entry == "tune_program" else mttkrp
        fresh = self._outcome(
            getattr(Autotuner(GTX980, **self.SETTINGS), entry)(source)
        )
        assert fresh[2]["permanent"] > 0, "no permanent failure to remember"
        shared = getattr(Autotuner(GTX980, **self.SETTINGS), entry)
        assert self._outcome(shared(source)) == fresh
        assert self._outcome(shared(source)) == fresh
