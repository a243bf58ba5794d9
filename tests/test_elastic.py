"""Tests for elastic coordinator/worker search: lease spool, parity, churn.

The contract under test is the tentpole claim: however many workers an
elastic run has — including workers that join late, die mid-lease, or
rejoin after a coordinator restart — champion, history, rng stream, and
checkpoint state are **bitwise-identical** to the serial run's.
"""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.autotune import Autotuner
from repro.cli import main as cli_main
from repro.errors import SpoolError
from repro.gpusim.arch import GTX980
from repro.obs.tracer import Tracer, use_tracer
from repro.serve.service import TuneRequest, TuningService
from repro.surf.elastic import ElasticBatchEvaluator, spawn_workers
from repro.surf.evaluator import ConfigurationEvaluator
from repro.surf.faults import WORKER_DEATH_EXIT_CODE
from repro.surf.lease import LeaseSpool, lease_id_for, pack_outcome, unpack_outcome
from repro.tcr.decision import decide_search_space
from repro.tcr.space import TuningSpace

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])
TOOLS_DIR = Path(SRC_DIR).parent / "tools"


def _tune(program, **kw):
    kw.setdefault("max_evaluations", 12)
    kw.setdefault("batch_size", 4)
    kw.setdefault("pool_size", 60)
    kw.setdefault("seed", 3)
    return Autotuner(GTX980, **kw).tune_program(program)


def _signature(result):
    return (
        result.search.best_objective,
        [(c.describe(), y) for c, y in result.search.history],
        result.search.simulated_wall_seconds,
        result.search.evaluations,
    )


def _checkpoint_core(ck: Path):
    """The determinism-relevant slice of a run's final checkpoint state.

    Telemetry is excluded: it records real fit wall-clock, which no two
    runs share.  Everything else — history, rng stream, remaining budget,
    evaluator counters — must be bitwise-identical across worker counts.
    """
    state = json.loads((ck / "state.json").read_text(encoding="utf-8"))
    searcher = {k: v for k, v in state["searcher"].items() if k != "telemetry"}
    return searcher, state["extra"]["evaluator_counters"]


def _wait_for_live_worker(spool: LeaseSpool, timeout: float = 20.0) -> None:
    deadline = time.time() + timeout
    while time.time() < deadline:
        if spool.live_workers(10.0):
            return
        time.sleep(0.02)
    raise AssertionError("no elastic worker ever heartbeat")


@pytest.fixture
def pool(two_op_program):
    space = TuningSpace([decide_search_space(two_op_program)])
    return [space.config_at(g) for g in range(min(space.size(), 24))]


# ----------------------------------------------------------------------
class TestLeaseSpool:
    def _evaluator(self, program):
        from repro.gpusim.perfmodel import GPUPerformanceModel

        return ConfigurationEvaluator([program], GPUPerformanceModel(GTX980), seed=0)

    def test_outcome_round_trips_bitwise(self, two_op_program, pool):
        ev = self._evaluator(two_op_program)
        for config in pool[:4]:
            outcome = ev.evaluate_one(config)
            assert unpack_outcome(pack_outcome(outcome)) == outcome
        # inf (an invalid configuration's value) survives the trip too.
        from repro.surf.evaluator import EvalOutcome

        doomed = EvalOutcome(
            config=pool[0], value=float("inf"), wall=0.5, cached=False,
            status="invalid", detail="occupancy", attempts=1,
        )
        assert unpack_outcome(pack_outcome(doomed)) == doomed

    def test_publish_load_claim_result_cycle(self, two_op_program, pool, tmp_path):
        spool = LeaseSpool(tmp_path / "spool")
        digest = spool.init_coordinator(self._evaluator(two_op_program))
        lease = spool.publish(0, 0, 0, pool[:2], digest)
        assert lease.lease_id == lease_id_for(0, 0) == "b000000-o0000"
        assert spool.list_claimable() == [lease.lease_id]
        loaded = spool.load_lease(lease.lease_id)
        assert loaded.configs == lease.configs
        assert loaded.digest == lease.digest

        # Claims are exclusive; only the holder's release works.
        assert spool.try_claim(lease.lease_id, "w1", ttl=5.0)
        assert not spool.try_claim(lease.lease_id, "w2", ttl=5.0)
        assert spool.list_claimable() == []
        spool.release_claim(lease.lease_id, "w2")  # not the holder: no-op
        assert spool.claim_info(lease.lease_id)["worker"] == "w1"
        spool.release_claim(lease.lease_id, "w1")
        assert spool.claim_info(lease.lease_id) is None

        # Result round trip, then retire empties every per-lease file.
        evaluator, _ = spool.load_evaluator()
        outcomes = [evaluator.evaluate_one(c) for c in lease.configs]
        spool.write_result(lease, outcomes, "w1")
        harvested, record = spool.read_result(lease)
        assert harvested == outcomes
        assert record["worker"] == "w1"
        spool.retire(lease)
        assert spool.read_result(lease) is None
        assert spool.list_claimable() == []

    def test_lease_being_published_is_not_claimable(
        self, two_op_program, pool, tmp_path
    ):
        spool = LeaseSpool(tmp_path / "spool")
        digest = spool.init_coordinator(self._evaluator(two_op_program))
        lease = spool.publish(0, 0, 0, pool[:1], digest)
        # The temporary file of a second publish still in flight.
        (spool.leases_dir / ".tmp-b000000-o0001.json.4242").write_text("{}")
        assert spool.list_claimable() == [lease.lease_id]

    def test_reclaim_makes_lease_claimable_again(self, two_op_program, pool, tmp_path):
        spool = LeaseSpool(tmp_path / "spool")
        digest = spool.init_coordinator(self._evaluator(two_op_program))
        lease = spool.publish(0, 0, 0, pool[:1], digest)
        assert spool.try_claim(lease.lease_id, "dead", ttl=0.0)
        assert spool.list_claimable() == []
        spool.reclaim(lease.lease_id)
        assert spool.list_claimable() == [lease.lease_id]
        assert spool.try_claim(lease.lease_id, "alive", ttl=5.0)

    def test_stale_result_is_discarded_on_digest_mismatch(
        self, two_op_program, pool, tmp_path
    ):
        spool = LeaseSpool(tmp_path / "spool")
        digest = spool.init_coordinator(self._evaluator(two_op_program))
        old = spool.publish(0, 0, 0, pool[:1], digest)
        evaluator, _ = spool.load_evaluator()
        spool.write_result(old, [evaluator.evaluate_one(old.configs[0])], "w1")
        # Republish the same id over different configs (a resumed run whose
        # batch 0 differs): the buffered result no longer matches.
        fresh = spool.publish(0, 0, 0, pool[1:2], digest)
        assert fresh.digest != old.digest
        assert spool.read_result(fresh) is None
        assert not (spool.results_dir / f"{fresh.lease_id}.json").exists()

    def test_worker_reported_error_raises(self, two_op_program, pool, tmp_path):
        spool = LeaseSpool(tmp_path / "spool")
        digest = spool.init_coordinator(self._evaluator(two_op_program))
        lease = spool.publish(0, 0, 0, pool[:1], digest)
        spool.write_result(lease, [], "w1", error="ValueError: boom")
        with pytest.raises(SpoolError, match="boom"):
            spool.read_result(lease)

    def test_alien_directory_refused(self, tmp_path):
        (tmp_path / "meta.json").write_text(
            json.dumps({"kind": "something-else"}), encoding="utf-8"
        )
        with pytest.raises(SpoolError, match="not an elastic spool"):
            LeaseSpool(tmp_path).meta()

    def test_init_coordinator_reconciles_but_keeps_results(
        self, two_op_program, pool, tmp_path
    ):
        spool = LeaseSpool(tmp_path / "spool")
        digest = spool.init_coordinator(self._evaluator(two_op_program))
        lease = spool.publish(0, 0, 0, pool[:1], digest)
        spool.try_claim(lease.lease_id, "old-worker", ttl=100.0)
        evaluator, _ = spool.load_evaluator()
        spool.write_result(lease, [evaluator.evaluate_one(lease.configs[0])], "w1")
        spool.request_shutdown()
        assert spool.init_coordinator(self._evaluator(two_op_program)) == digest
        assert spool.meta()["generation"] == 2
        assert not spool.shutdown_requested()
        assert spool.list_claimable() == []  # leases and claims cleared
        assert spool.claim_info(lease.lease_id) is None
        # The paid-for result survived and still validates against a
        # bitwise republish of the same lease.
        replay = spool.publish(0, 0, 0, pool[:1], digest)
        assert spool.read_result(replay) is not None


# ----------------------------------------------------------------------
class TestElasticParity:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_local_workers_bitwise_identical_to_serial(
        self, two_op_program, tmp_path, workers
    ):
        reference = _tune(two_op_program)
        elastic = _tune(
            two_op_program, elastic=workers, spool=tmp_path / "spool",
            lease_ttl=5.0,
        )
        assert _signature(elastic) == _signature(reference)

    def test_zero_workers_spool_only_runs_inline(self, two_op_program, tmp_path):
        reference = _tune(two_op_program)
        elastic = _tune(two_op_program, spool=tmp_path / "spool")
        assert _signature(elastic) == _signature(reference)
        # Nobody ever claimed anything: the coordinator did all the work.
        assert not list((tmp_path / "spool" / "workers").iterdir())

    def test_checkpoint_state_identical_to_serial(self, two_op_program, tmp_path):
        serial_ck = tmp_path / "serial-ck"
        elastic_ck = tmp_path / "elastic-ck"
        reference = _tune(two_op_program, checkpoint_dir=serial_ck)
        elastic = _tune(two_op_program, checkpoint_dir=elastic_ck, elastic=2)
        assert _signature(elastic) == _signature(reference)
        assert _checkpoint_core(elastic_ck) == _checkpoint_core(serial_ck)
        # Without an explicit --spool the spool lands inside the
        # checkpoint directory, next to the state it belongs to.
        assert (elastic_ck / "spool" / "meta.json").exists()

    def test_faulty_search_bitwise_identical_to_serial(
        self, two_op_program, tmp_path
    ):
        kw = {"faults": "worker=0.3,transient=0.2", "max_evaluations": 15,
              "batch_size": 5}
        reference = _tune(two_op_program, **kw)
        # Forked workers execute injected worker-death for real
        # (os._exit while holding the claim); the coordinator reclaims
        # and recovers to the same bits.
        elastic = _tune(
            two_op_program, elastic=2, spool=tmp_path / "spool",
            lease_ttl=0.5, **kw,
        )
        assert _signature(elastic) == _signature(reference)

    def test_env_vars_resolve(self, monkeypatch, tmp_path):
        # REPRO_SPOOL is the one elastic setting read from the
        # environment; a spool alone turns elastic mode on.
        monkeypatch.setenv("REPRO_ELASTIC", "3")
        monkeypatch.setenv("REPRO_SPOOL", str(tmp_path / "sp"))
        settings = Autotuner(GTX980).settings
        assert settings.elastic == 0
        assert settings.spool == tmp_path / "sp"
        assert settings.elastic_enabled

    def test_service_passes_elastic_to_default_tuner(self, tmp_path):
        with TuningService(tmp_path / "store", workers=1, elastic=2) as service:
            tuner = service._default_tuner(TuneRequest(source="lg3"))
            assert tuner.settings.elastic == 2


# ----------------------------------------------------------------------
class TestElasticChurn:
    def test_hard_killed_worker_is_reclaimed_bitwise(
        self, two_op_program, tmp_path
    ):
        spool_dir = tmp_path / "spool"
        spool = LeaseSpool(spool_dir)
        # Pre-initialize the spool so the chaos worker is live before the
        # run starts; the real coordinator re-inits (generation 2) and the
        # worker reloads the evaluator on digest mismatch.
        spool.init_coordinator(None)
        procs = spawn_workers(
            spool_dir, 1, lease_ttl=0.4, poll_interval=0.01,
            name_prefix="chaos", die_after_claims=1,
        )
        try:
            _wait_for_live_worker(spool)
            reference = _tune(two_op_program)
            tracer = Tracer()
            with use_tracer(tracer):
                elastic = _tune(two_op_program, spool=spool_dir, lease_ttl=0.4)
        finally:
            for proc in procs:
                proc.join(timeout=30)
                if proc.is_alive():
                    proc.terminate()
        # The worker hard-exited while *holding* a claim...
        assert procs[0].exitcode == WORKER_DEATH_EXIT_CODE
        # ...the coordinator reclaimed it past the deadline...
        names = [s.name for s in tracer.finished()]
        assert "elastic.reclaim" in names
        # ...and the run still produced the serial bits.
        assert _signature(elastic) == _signature(reference)

    def test_late_joined_cli_worker_participates(self, two_op_program, tmp_path):
        spool_dir = tmp_path / "spool"
        spool = LeaseSpool(spool_dir)
        spool.init_coordinator(None)
        rc: list[int] = []
        thread = threading.Thread(
            target=lambda: rc.append(
                cli_main(
                    [
                        "elastic-workers", "--spool", str(spool_dir),
                        "--ttl", "5", "--idle-exit", "60",
                    ]
                )
            ),
            daemon=True,
        )
        thread.start()
        _wait_for_live_worker(spool)
        reference = _tune(two_op_program)
        # The tune itself spawns no workers: the CLI-attached one (which
        # joined before this coordinator even existed) does the claiming,
        # and close() shuts it down via the spool's shutdown marker.
        elastic = _tune(two_op_program, spool=spool_dir, lease_ttl=5.0)
        thread.join(timeout=60)
        assert not thread.is_alive(), "CLI worker ignored the shutdown marker"
        assert rc == [0]
        assert _signature(elastic) == _signature(reference)
        assert sum(w["leases_done"] for w in spool.workers()) > 0


# ----------------------------------------------------------------------
ELASTIC_KILL_CHILD = """
import json, os, sys
mode, ck, spool = sys.argv[1], sys.argv[2], sys.argv[3]
from repro.autotune import Autotuner
from repro.gpusim.arch import K20
from repro.workloads import get_workload
if mode == "kill":
    from repro.surf.checkpoint import CheckpointManager
    orig = CheckpointManager.save
    count = [0]
    def dying_save(self, state, extra=None):
        orig(self, state, extra=extra)
        count[0] += 1
        if count[0] >= 2:
            os._exit(9)  # SIGKILL-like: leases, claims, spool all orphaned
    CheckpointManager.save = dying_save
kw = {}
if mode != "ref":
    kw.update(
        checkpoint_dir=ck, spool=spool, resume=(mode == "resume"),
        elastic=(1 if mode == "resume" else 0),  # resume under a DIFFERENT count
    )
tuner = Autotuner(
    K20, max_evaluations=15, batch_size=5, pool_size=60, seed=3, **kw
)
result = get_workload("lg3").tune(tuner)
print(json.dumps({
    "best": result.search.best_objective,
    "history": [[c.global_id, y] for c, y in result.search.history],
}))
"""


class TestCoordinatorKillResume:
    """A hard-killed elastic coordinator resumes bitwise — with the spool
    reconciled and even under a different worker count."""

    def _child(self, tmp_path, mode):
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        return subprocess.run(
            [
                sys.executable, "-c", ELASTIC_KILL_CHILD, mode,
                str(tmp_path / "ck"), str(tmp_path / "spool"),
            ],
            capture_output=True, text=True, env=env, timeout=300,
        )

    def test_kill_reconcile_resume_matches_serial_reference(self, tmp_path):
        reference = self._child(tmp_path, "ref")
        assert reference.returncode == 0, reference.stderr
        killed = self._child(tmp_path, "kill")
        assert killed.returncode == 9, killed.stderr
        assert (tmp_path / "ck" / "state.json").exists()

        # Litter the orphaned spool with what a messy crash leaves behind:
        # a stale lease, a stale claim, and a result whose digest belongs
        # to no lease the resumed run will ever publish.
        spool_dir = tmp_path / "spool"
        ghost = "b999999-o0000"
        (spool_dir / "leases" / f"{ghost}.json").write_text(
            json.dumps({"kind": "lease", "lease_id": ghost}), encoding="utf-8"
        )
        (spool_dir / "claims" / f"{ghost}.json").write_text(
            json.dumps({"worker": "ghost", "deadline": 0.0}), encoding="utf-8"
        )
        bogus = spool_dir / "results" / "b000000-o0000.json"
        bogus.write_text(
            json.dumps(
                {
                    "kind": "result", "lease_id": "b000000-o0000",
                    "digest": "0" * 16, "evaluator_digest": "0" * 16,
                    "worker": "ghost", "pid": 1, "outcomes": [],
                }
            ),
            encoding="utf-8",
        )

        resumed = self._child(tmp_path, "resume")
        assert resumed.returncode == 0, resumed.stderr
        assert json.loads(resumed.stdout) == json.loads(reference.stdout)
        # Reconciliation: the new generation cleared the stale lease and
        # claim, and the bogus result was rejected (digest mismatch) when
        # the resumed batch republished that lease id.
        assert not (spool_dir / "leases" / f"{ghost}.json").exists()
        assert not (spool_dir / "claims" / f"{ghost}.json").exists()
        assert not bogus.exists()
        assert LeaseSpool(spool_dir).meta()["generation"] >= 2


# ----------------------------------------------------------------------
class TestElasticEvaluatorUnit:
    def test_batch_lanes_delegates_to_inner(self, two_op_program, tmp_path):
        from repro.gpusim.perfmodel import GPUPerformanceModel

        inner = ConfigurationEvaluator(
            [two_op_program], GPUPerformanceModel(GTX980), seed=0
        )
        elastic = ElasticBatchEvaluator(inner, spool=tmp_path / "spool", workers=4)
        # The simulated rig width must not depend on elastic worker count,
        # or checkpoints could not resume under a different count.
        assert elastic.batch_lanes == inner.batch_lanes

    def test_stats_not_in_counters(self, two_op_program, pool, tmp_path):
        from repro.gpusim.perfmodel import GPUPerformanceModel

        inner = ConfigurationEvaluator(
            [two_op_program], GPUPerformanceModel(GTX980), seed=0
        )
        serial_counters = ConfigurationEvaluator(
            [two_op_program], GPUPerformanceModel(GTX980), seed=0
        )
        serial_counters.evaluate_batch(pool[:6])
        elastic = ElasticBatchEvaluator(
            inner, spool=tmp_path / "spool", workers=0, lease_ttl=0.1
        )
        try:
            elastic.evaluate_batch(pool[:6])
        finally:
            elastic.close()
        # Checkpoint-visible counters match serial exactly; the elastic
        # tallies live on the side.
        assert elastic.counters() == serial_counters.counters()
        assert elastic.stats()["leases_published"] == 6
        assert elastic.stats()["coordinator_evals"] == 6


# ----------------------------------------------------------------------
class TestSpoolInspectTool:
    def _main(self):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "spool_inspect", TOOLS_DIR / "spool_inspect.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.main

    def test_live_spool_summarized(self, two_op_program, pool, tmp_path, capsys):
        from repro.gpusim.perfmodel import GPUPerformanceModel

        spool = LeaseSpool(tmp_path / "spool")
        digest = spool.init_coordinator(
            ConfigurationEvaluator(
                [two_op_program], GPUPerformanceModel(GTX980), seed=0
            )
        )
        lease = spool.publish(0, 0, 0, pool[:1], digest)
        spool.publish(0, 1, 1, pool[1:2], digest)
        spool.try_claim(lease.lease_id, "w1", ttl=0.0)  # instantly expired
        spool.heartbeat("w1", leases_done=3)
        assert self._main()([str(tmp_path / "spool")]) == 0
        out = capsys.readouterr().out
        assert "generation 1" in out
        assert "leases outstanding: 2" in out
        assert "0 live, 1 expired" in out
        assert "w1" in out and "3 lease(s) done" in out

    def test_json_mode(self, two_op_program, tmp_path, capsys):
        from repro.gpusim.perfmodel import GPUPerformanceModel

        spool = LeaseSpool(tmp_path / "spool")
        spool.init_coordinator(
            ConfigurationEvaluator(
                [two_op_program], GPUPerformanceModel(GTX980), seed=0
            )
        )
        spool.request_shutdown()
        assert self._main()([str(tmp_path / "spool"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["generation"] == 1
        assert payload["shutdown_requested"] is True
        assert payload["leases_outstanding"] == []

    def test_alien_or_uninitialized_directory_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert self._main()([str(empty)]) == 1
        assert "invalid spool" in capsys.readouterr().err
        (empty / "meta.json").write_text(
            json.dumps({"kind": "other"}), encoding="utf-8"
        )
        assert self._main()([str(empty)]) == 1
