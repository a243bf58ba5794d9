"""Tests for the simulated rig's fault injection and retries."""

import multiprocessing

import pytest

from repro.autotune import Autotuner
from repro.errors import SearchError
from repro.gpusim.arch import GTX980, K20
from repro.gpusim.perfmodel import GPUPerformanceModel
from repro.surf.evaluator import FAILURE_VALUE, ConfigurationEvaluator
from repro.surf.faults import FaultSpec, backoff_seconds
from repro.tcr.decision import decide_search_space
from repro.tcr.space import TuningSpace
from repro.util.rng import stable_hash
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
        spec = FaultSpec.parse("compile=0.1,worker=0.05,retries=4,seed=3")
        assert spec.compile_rate == 0.1
        assert spec.worker_death_rate == 0.05
        assert spec.retries == 4
        assert spec.seed == 3
        # A bare probability may lead the pairs.
        mixed = FaultSpec.parse("0.2,retries=1", seed=7)
        assert mixed == FaultSpec(
            compile_rate=0.2 * 0.2, launch_rate=0.2 * 0.2,
            transient_rate=0.6 * 0.2, seed=7, retries=1,
        )

    def test_parse_empty_is_fault_free(self):
        assert not FaultSpec.parse("").any()

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(SearchError, match="unknown fault spec key"):
            FaultSpec.parse("explode=0.5")

    def test_rates_validated(self):
        with pytest.raises(SearchError, match="must be in"):
            FaultSpec(compile_rate=1.5)
        with pytest.raises(SearchError, match="retries must be >= 0"):
            FaultSpec(transient_rate=0.1, retries=-1)

    def test_describe_is_stable(self):
        spec = FaultSpec.parse("0.15", seed=3)
        assert spec.describe() == FaultSpec.parse("0.15", seed=3).describe()
        assert spec.describe() != FaultSpec.parse("0.15", seed=4).describe()
        assert spec.describe() != FaultSpec.parse("0.15,retries=1", seed=3).describe()
        assert FaultSpec.parse(spec.describe()) == spec
        # No fault-free key carries a fault seed or a retry budget.
        assert FaultSpec(seed=5, retries=7).describe() == ""


def _rig(program, model, **faults):
    """The evaluator under a hazard mix (fault seed 1 unless given)."""
    return ConfigurationEvaluator(
        [program], model, seed=0, faults=FaultSpec(**{"seed": 1, **faults})
    )


def _pick(pool, spec, *verdicts):
    """The first pool point whose attempts 0, 1, ... get ``verdicts``."""
    return next(
        c for c in pool
        if all(
            spec.verdict(c.describe(), a) == v for a, v in enumerate(verdicts)
        )
    )


class TestFaultInjector:
    def test_verdicts_deterministic_and_order_independent(self, setup):
        program, model, pool = setup
        def run(order):
            rig = _rig(program, model, compile_rate=0.3, transient_rate=0.3)
            return {
                c.describe(): (o.status, o.attempts, o.wall)
                for c, o in zip(order, (rig.evaluate_one(c) for c in order))
            }
        forward = run(pool[:20])
        backward = run(list(reversed(pool[:20])))
        assert forward == backward
        statuses = {status for status, _a, _w in forward.values()}
        assert len(statuses) > 1  # the mix actually fires

    def test_permanent_hazard_ignores_attempt(self, setup):
        program, model, pool = setup
        rig = _rig(program, model, compile_rate=0.5)
        doomed = _pick(pool, rig.faults, "compile")
        assert [
            rig.faults.verdict(doomed.describe(), a) for a in range(4)
        ] == ["compile"] * 4
        out = rig.evaluate_one(doomed)
        assert (out.status, out.attempts) == ("permanent", 1)

    def test_transient_hazard_keys_on_attempt(self, setup):
        program, model, pool = setup
        spec = FaultSpec(transient_rate=0.4, seed=1)
        verdict = {
            (c.describe(), a): spec.verdict(c.describe(), a)
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
        rig = _rig(program, model, retries=5)
        assert rig.evaluate_batch(pool[:16]) == plain.evaluate_batch(pool[:16])
        assert rig.simulated_wall_seconds == plain.simulated_wall_seconds
        assert rig.counters() == plain.counters()

    def test_worker_death_is_a_retried_verdict(self, setup):
        program, model, pool = setup
        rig = _rig(program, model, worker_death_rate=1.0, retries=3)
        # Every attempt dies; the run gives up on the point, never exits.
        out = rig.evaluate_one(pool[0])
        assert (out.status, out.attempts) == ("transient", 4)

    def test_worker_death_run_in_a_child_process_matches(self):
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


class TestResilientEvaluator:
    """The evaluator retries transient hazards and scores failures +inf."""

    def test_retry_succeeds_and_charges_backoff(self, setup):
        program, model, pool = setup
        plain = ConfigurationEvaluator([program], model, seed=0)
        rig = _rig(program, model, transient_rate=0.5, retries=2)
        config = _pick(pool, rig.faults, "timeout", None)
        out = rig.evaluate_one(config)
        ref = plain.evaluate_one(config)
        assert out.status == "ok"
        assert out.attempts == 2
        assert out.value == ref.value
        # Wall = the timed-out attempt (compile + measurement cap) + the
        # first backoff (1 s) + the real evaluation.
        cal = model.cal
        failed = cal.compile_seconds + cal.measure_cap_seconds
        assert out.wall == pytest.approx(ref.wall + failed + 1.0)

    def test_gives_up_after_max_retries(self, setup):
        program, model, pool = setup
        rig = _rig(program, model, transient_rate=1.0, retries=2)
        out = rig.evaluate_one(pool[0])
        assert out.status == "transient"
        assert out.value == FAILURE_VALUE
        assert out.attempts == 3  # 1 + 2 retries
        # 3 timed-out attempts + backoffs 1.0 and 2.0.
        cal = model.cal
        failed = cal.compile_seconds + cal.measure_cap_seconds
        assert out.wall == pytest.approx(3 * failed + 1.0 + 2.0)

    def test_backoff_is_capped(self):
        assert [backoff_seconds(i) for i in range(7)] == [
            1.0, 2.0, 4.0, 8.0, 16.0, 30.0, 30.0,
        ]

    def test_permanent_failure_scored_inf_without_retry(
        self, setup, monkeypatch
    ):
        program, model, pool = setup
        rig = _rig(program, model, compile_rate=1.0, retries=2)
        verdicts = []
        verdict = FaultSpec.verdict

        def counting(spec, fingerprint, attempt):
            verdicts.append(attempt)
            return verdict(spec, fingerprint, attempt)

        monkeypatch.setattr(FaultSpec, "verdict", counting)
        values = rig.evaluate_batch(pool[:1])
        assert values == [FAILURE_VALUE]
        assert rig.permanent_count == 1
        assert rig.retry_count == 0
        assert verdicts == [0]
        # Nothing is remembered: scoring the point again dispatches again
        # and charges the failed attempt's wall (one compile) again.
        out = rig.evaluate_one(pool[0])
        assert out.status == "permanent"
        assert out.wall == model.cal.compile_seconds
        assert verdicts == [0, 0]

    def test_invalid_outcomes_pass_through(self):
        # lg3 on the K20 has unbuildable points: a retried one stays invalid.
        program = get_workload("lg3").program
        space = TuningSpace([decide_search_space(program)])
        pool = [space.config_at(g) for g in range(0, space.size(), 400_009)]
        model = GPUPerformanceModel(K20)
        plain = ConfigurationEvaluator([program], model, seed=0)
        rig = _rig(program, model, transient_rate=0.3, retries=20)
        outcomes = [rig.evaluate_one(c) for c in pool]
        assert any(o.status == "invalid" and o.attempts > 1 for o in outcomes)
        assert [(o.status, o.value) for o in outcomes] == [
            (o.status, o.value) for o in map(plain.evaluate_one, pool)
        ]


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


#: lg3 on the K20 (40 evaluations, batch 5, pool 200, seed 3) under two
#: hazard mixes: simulated search seconds, evaluations, the
#: invalid/transient/permanent/retries totals and a history digest.
#: These pin the walls of failed attempts and of the retry backoff.
RIG_PINS = {
    "0.15": ("172.25296034372144", 43, (4, 0, 3, 2), "970df72466c9f5ef"),
    "compile=0.05,launch=0.05,transient=0.2,worker=0.1,retries=1": (
        "310.2451091891331", 55, (10, 8, 7, 21), "c9aa3f7522afe618",
    ),
}


class TestRigPin:
    @pytest.mark.parametrize("faults", sorted(RIG_PINS))
    def test_faulted_lg3_run_is_pinned(self, faults):
        tuner = Autotuner(
            K20, max_evaluations=40, batch_size=5, pool_size=200, seed=3,
            faults=faults,
        )
        search = get_workload("lg3").tune(tuner).search
        totals = search.telemetry.totals()
        history = format(
            stable_hash("rig-pin", [(c.describe(), y) for c, y in search.history]),
            "016x",
        )
        assert (
            repr(search.simulated_wall_seconds),
            totals["evaluations"],
            tuple(
                totals[k] for k in ("invalid", "transient", "permanent", "retries")
            ),
            history,
        ) == RIG_PINS[faults]


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
