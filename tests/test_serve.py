"""Tests for the result store, tuning service, and one-call client."""

import dataclasses
import json
import sys
import threading

import pytest

from repro.autotune import Autotuner
from repro.autotune.settings import SEARCH_REVISION
from repro.errors import ServiceError, StoreError
from repro.gpusim.arch import GTX980
from repro.obs.manifest import RunManifest
from repro.obs.tracer import Tracer, use_tracer
from repro.serve.client import resolve_source, tune_contraction
from repro.serve.service import JobState, TuneRequest, TuningService
from repro.serve.store import (
    STORE_FORMAT,
    ResultStore,
    StoreKey,
    pack_config,
    pack_search,
    unpack_config,
    unpack_search,
)
from repro.surf.search import SearchResult
from repro.tcr.decision import decide_search_space
from repro.tcr.space import TuningSpace


def _key(i: int = 0) -> StoreKey:
    return StoreKey(
        dsl=f"{i:016x}", arch="a" * 16, calibration="c" * 16, searcher="s" * 16
    )


@pytest.fixture
def space(two_op_program):
    return TuningSpace([decide_search_space(two_op_program)])


# ----------------------------------------------------------------------
class TestStoreKey:
    def test_digest_is_stable_and_key_sensitive(self):
        assert _key(1).digest() == _key(1).digest()
        assert _key(1).digest() != _key(2).digest()
        assert (
            _key(1).digest()
            != StoreKey(
                dsl=f"{1:016x}", arch="b" * 16, calibration="c" * 16,
                searcher="s" * 16,
            ).digest()
        )

    def test_from_manifest_ignores_result_neutral_settings(self, two_op_program):
        # Only keyed settings enter the key: names the declaration no
        # longer has (a manifest written before "fast_model", "workers",
        # "sweep_full", "elastic" and "search_workers" were deleted, or
        # before the keyed "acquisition", "batch_parallelism" and
        # "max_variants" were retired) leave the address alone.
        manifest = Autotuner(GTX980, seed=0).run_manifest("m", [two_op_program])
        base = StoreKey.from_manifest(manifest)
        for extra in (
            {"fast_model": True}, {"elastic": 4}, {"search_workers": 8},
            {"workers": 4, "sweep_full": True},
            {"acquisition": "lcb"}, {"batch_parallelism": 4},
            {"max_variants": 1},
            {"acquisition": "mean", "batch_parallelism": 1, "max_variants": None},
        ):
            other = dataclasses.replace(
                manifest, settings={**manifest.settings, **extra}
            )
            assert StoreKey.from_manifest(other) == base
        other = dataclasses.replace(
            manifest, settings={**manifest.settings, "max_evaluations": 7}
        )
        assert StoreKey.from_manifest(other) != base

    def test_search_revision_enters_the_key(self, two_op_program, tmp_path):
        # A manifest written before the revision was keyed loads as
        # revision 0 and never maps to a current key.
        manifest = Autotuner(GTX980, seed=0).run_manifest("m", [two_op_program])
        assert manifest.search_revision == SEARCH_REVISION
        payload = manifest.to_dict()
        del payload["search_revision"]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        older = RunManifest.load(path)
        assert older == dataclasses.replace(manifest, search_revision=0)
        assert StoreKey.from_manifest(older) != StoreKey.from_manifest(manifest)

    def test_backend_is_store_key_relevant(self, two_op_program):
        # The backend decides which kernel spaces exist, so "ttgt" and
        # "auto" runs must never be served a "loopnest" record (or each
        # other's).  The explicit default spelling maps to the same key
        # as the implicit one: pre-backend records stay servable.
        def manifest(**overrides):
            tuner = Autotuner(GTX980, seed=0, **overrides)
            return tuner.run_manifest("m", [two_op_program])

        base = StoreKey.from_manifest(manifest())
        assert StoreKey.from_manifest(manifest(backend="loopnest")) == base
        ttgt = StoreKey.from_manifest(manifest(backend="ttgt"))
        auto = StoreKey.from_manifest(manifest(backend="auto"))
        assert ttgt != base
        assert auto != base
        assert ttgt != auto


class TestConfigRoundTrip:
    def test_config_packs_exactly(self, space):
        for gid in (0, 1, space.size() - 1):
            config = space.config_at(gid)
            assert unpack_config(pack_config(config)) == config

    def test_loopnest_payload_schema_unchanged(self, space):
        # Records written before the TTGT backend existed carry no
        # "kind" tag; the packer must keep emitting that exact schema so
        # old stores and new readers stay byte-compatible both ways.
        payload = pack_config(space.config_at(0))
        for kernel in payload["kernels"]:
            assert "kind" not in kernel
            assert set(kernel) == {
                "tx", "ty", "bx", "by", "serial_order", "unroll"
            }

    def test_ttgt_config_packs_exactly(self):
        from repro.core.tensor import TensorRef
        from repro.tcr.program import TCROperation, TCRProgram

        program = TCRProgram(
            name="batched",
            dims={"b": 4, "i": 4, "j": 4, "k": 4},
            arrays={
                "A": ("i", "b", "k"),
                "B": ("b", "k", "j"),
                "C": ("b", "i", "j"),
            },
            operations=[
                TCROperation(
                    TensorRef("C", ("b", "i", "j")),
                    (
                        TensorRef("A", ("i", "b", "k")),
                        TensorRef("B", ("b", "k", "j")),
                    ),
                )
            ],
        )
        ttgt_space = TuningSpace(
            [decide_search_space(program, backend="ttgt")]
        )
        for gid in range(ttgt_space.size()):
            config = ttgt_space.config_at(gid)
            payload = json.loads(json.dumps(pack_config(config)))
            assert payload["kernels"][0]["kind"] == "ttgt"
            assert unpack_config(payload) == config

    def test_search_result_round_trips_bitwise(self, space):
        history = [
            (space.config_at(0), 1.25e-4),
            (space.config_at(1), float("inf")),
            (space.config_at(2), 3.0000000000000004e-5),
        ]
        result = SearchResult(
            searcher="surf",
            best_config=space.config_at(2),
            best_objective=3.0000000000000004e-5,
            history=history,
            evaluations=3,
            simulated_wall_seconds=12.5,
        )
        back = unpack_search(json.loads(json.dumps(pack_search(result))))
        assert back.best_config == result.best_config
        assert back.history == result.history
        assert [repr(y) for _c, y in back.history] == [
            repr(y) for _c, y in result.history
        ]
        assert back.evaluations == 3
        assert back.simulated_wall_seconds == 12.5


# ----------------------------------------------------------------------
class TestResultStore:
    def test_round_trip_and_o1_get(self, tmp_path):
        store = ResultStore(tmp_path / "rs")
        assert store.get(_key(1)) is None
        assert store.put(_key(1), {"name": "w1", "payload": 1})
        assert store.get(_key(1)) == {"name": "w1", "payload": 1}
        reloaded = ResultStore(tmp_path / "rs")
        assert len(reloaded) == 1
        assert reloaded.get(_key(1)) == {"name": "w1", "payload": 1}
        assert reloaded.corrupt_lines == 0

    def test_put_is_first_wins(self, tmp_path):
        store = ResultStore(tmp_path / "rs")
        assert store.put(_key(1), {"v": "first"})
        assert not store.put(_key(1), {"v": "second"})
        assert store.get(_key(1)) == {"v": "first"}
        # And a reload resolves duplicate on-disk lines the same way.
        digest = _key(1).digest()
        from repro.util.jsonl import atomic_append_jsonl

        atomic_append_jsonl(
            store.shard_path(digest),
            {"digest": digest, "key": {}, "record": {"v": "third"}},
        )
        reloaded = ResultStore(tmp_path / "rs")
        assert reloaded.get(_key(1)) == {"v": "first"}
        assert reloaded.duplicate_keys == 1

    def test_header_versioning_refused(self, tmp_path):
        root = tmp_path / "rs"
        root.mkdir()
        bad = root / "shard-000.jsonl"
        bad.write_text(
            json.dumps({"kind": "repro-result-store", "format": STORE_FORMAT + 1})
            + "\n"
        )
        with pytest.raises(StoreError, match="unsupported result-store format"):
            ResultStore(root)
        bad.write_text(json.dumps({"digest": "x", "key": {}, "record": {}}) + "\n")
        with pytest.raises(StoreError, match="no valid header"):
            ResultStore(root)

    def test_corrupt_lines_counted_and_warned(self, tmp_path):
        store = ResultStore(tmp_path / "rs")
        store.put(_key(1), {"v": 1})
        path = store.shard_path(_key(1).digest())
        with path.open("a", encoding="utf-8") as handle:
            handle.write("}} torn line\n")
            handle.write(json.dumps({"digest": 7, "key": {}, "record": {}}) + "\n")
        from repro.util.jsonl import CorruptLinesWarning

        with pytest.warns(CorruptLinesWarning, match="2 corrupt line"):
            reloaded = ResultStore(tmp_path / "rs")
        assert reloaded.corrupt_lines == 2
        assert reloaded.get(_key(1)) == {"v": 1}

    def test_refresh_sees_other_writers(self, tmp_path):
        a = ResultStore(tmp_path / "rs")
        b = ResultStore(tmp_path / "rs")
        a.put(_key(1), {"v": 1})
        assert b.get(_key(1)) is None
        b.refresh()
        assert b.get(_key(1)) == {"v": 1}

    def test_compact_dedups_and_evicts_oldest(self, tmp_path):
        store = ResultStore(tmp_path / "rs", shards=1)
        for i in range(6):
            store.put(_key(i), {"v": i})
        # Shadowed duplicate line on disk.
        from repro.util.jsonl import atomic_append_jsonl

        atomic_append_jsonl(
            store.shard_path(_key(0).digest()),
            {"digest": _key(0).digest(), "key": {}, "record": {"v": "dup"}},
        )
        outcome = store.compact(max_entries_per_shard=4)
        assert outcome == {"kept": 4, "evicted": 2, "deduplicated": 1}
        assert len(store) == 4
        # Oldest (first-put) keys were evicted; newest survive.
        assert store.get(_key(0)) is None
        assert store.get(_key(1)) is None
        assert store.get(_key(5)) == {"v": 5}
        # The rewritten shard still carries a valid header.
        reloaded = ResultStore(tmp_path / "rs", shards=1)
        assert len(reloaded) == 4

    def test_shard_count_change_is_compatible(self, tmp_path):
        wide = ResultStore(tmp_path / "rs", shards=16)
        for i in range(8):
            wide.put(_key(i), {"v": i})
        narrow = ResultStore(tmp_path / "rs", shards=2)
        assert len(narrow) == 8
        assert all(narrow.get(_key(i)) == {"v": i} for i in range(8))

    def test_threads_creating_one_shard_do_not_race(self, tmp_path):
        # Regression: the shard-header tmp file was named per process, so
        # one thread's cleanup unlinked the file another thread was about
        # to publish (FileNotFoundError from os.link).
        errors = []

        def put(store, barrier, i):
            barrier.wait(timeout=10)
            try:
                store.put(_key(i), {"v": i})
            except OSError as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(40):
                store = ResultStore(tmp_path / f"rs{trial}", shards=1)
                barrier = threading.Barrier(8)
                threads = [
                    threading.Thread(target=put, args=(store, barrier, i))
                    for i in range(8)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(ResultStore(tmp_path / "rs39", shards=1)) == 8


# ----------------------------------------------------------------------
class TestAutotunerStore:
    SETTINGS = dict(max_evaluations=20, pool_size=200, seed=0)

    def test_second_identical_request_is_served_from_store(
        self, two_op_program, tmp_path
    ):
        # The acceptance criterion: a second identical tune request is the
        # stored champion — zero model evaluations, bitwise-identical
        # champion and history.
        root = tmp_path / "rs"
        a = Autotuner(
            GTX980, result_store=root, **self.SETTINGS
        ).tune_program(two_op_program)
        b = Autotuner(
            GTX980, result_store=root, **self.SETTINGS
        ).tune_program(two_op_program)
        assert not a.store_hit
        assert b.store_hit
        assert b.search.telemetry is not None
        assert b.search.telemetry.totals()["evaluations"] == 0
        assert b.best_config == a.best_config
        assert b.search.best_objective == a.search.best_objective
        assert b.search.history == a.search.history
        assert [repr(y) for _c, y in b.search.history] == [
            repr(y) for _c, y in a.search.history
        ]
        assert b.seconds == a.seconds
        assert b.search.evaluations == a.search.evaluations
        assert b.search.simulated_wall_seconds == a.search.simulated_wall_seconds
        assert (b.space_size, b.pool_size, b.variant_count) == (
            a.space_size, a.pool_size, a.variant_count,
        )

    def test_changed_settings_miss(self, two_op_program, tmp_path):
        root = tmp_path / "rs"
        Autotuner(GTX980, result_store=root, **self.SETTINGS).tune_program(
            two_op_program
        )
        other = Autotuner(
            GTX980, result_store=root, max_evaluations=20, pool_size=200, seed=1
        ).tune_program(two_op_program)
        assert not other.store_hit

    def test_store_env_var(self, two_op_program, tmp_path, monkeypatch):
        root = tmp_path / "env_rs"
        monkeypatch.setenv("REPRO_RESULT_STORE", str(root))
        Autotuner(GTX980, **self.SETTINGS).tune_program(two_op_program)
        assert root.is_dir()
        assert len(ResultStore(root)) == 1

    def test_hit_and_miss_events_traced(self, two_op_program, tmp_path):
        root = tmp_path / "rs"
        with use_tracer(Tracer()) as tracer:
            Autotuner(GTX980, result_store=root, **self.SETTINGS).tune_program(
                two_op_program
            )
            Autotuner(GTX980, result_store=root, **self.SETTINGS).tune_program(
                two_op_program
            )
        names = [s.name for s in tracer.finished()]
        assert "store.miss" in names
        assert "store.hit" in names
        assert "store.put" in names


# ----------------------------------------------------------------------
class TestClient:
    def test_resolve_source_kinds(self, eqn1_small, two_op_program):
        assert resolve_source(eqn1_small) == ("contraction", eqn1_small)
        assert resolve_source(two_op_program) == ("program", two_op_program)
        kind, obj = resolve_source("lg3")
        assert kind == "program"
        kind, obj = resolve_source(
            "dim i j k = 4\nC[i j] = Sum([k], A[i k] * B[k j])"
        )
        assert kind == "contraction"
        with pytest.raises(ServiceError, match="neither a known workload"):
            resolve_source("definitely-not-a-workload")
        with pytest.raises(ServiceError, match="cannot tune"):
            resolve_source(42)

    def test_one_call_round_trip(self, two_op_program, tmp_path):
        root = tmp_path / "rs"
        first = tune_contraction(
            two_op_program, arch="gtx980", store=root,
            max_evaluations=15, pool_size=120, seed=0,
        )
        second = tune_contraction(
            two_op_program, arch=GTX980, store=root,
            max_evaluations=15, pool_size=120, seed=0,
        )
        assert not first.store_hit
        assert second.store_hit
        assert second.best_config == first.best_config
        assert second.search.history == first.search.history


# ----------------------------------------------------------------------
class TestTuningService:
    SETTINGS = dict(max_evaluations=10, pool_size=100, seed=0, batch_size=5)

    def test_submit_run_resubmit_hits(self, two_op_program, tmp_path):
        request = TuneRequest("lg3", arch="k20", settings=self.SETTINGS)
        with TuningService(tmp_path / "rs", workers=2) as service:
            first = service.wait(service.submit(request), timeout=300)
            assert first.state == JobState.DONE
            assert not first.store_hit
            assert first.evaluation_count > 0
            second = service.wait(service.submit(request), timeout=300)
            assert second.id != first.id
            assert second.state == JobState.DONE
            assert second.store_hit
            assert second.evaluation_count == 0
            assert (
                second.result.search.history == first.result.search.history
            )
            assert second.result.best_config == first.result.best_config

    def test_identical_inflight_requests_deduplicate(self, tmp_path):
        import threading

        release = threading.Event()

        class SlowTuner:
            def __init__(self, inner):
                self.inner = inner

            def tune_program(self, program):
                release.wait(30)
                return self.inner.tune_program(program)

            tune_contraction = tune_program

        def factory(request):
            from repro.autotune import Autotuner
            from repro.gpusim.arch import gpu_by_name

            return SlowTuner(
                Autotuner(gpu_by_name(request.arch), **request.settings)
            )

        request = TuneRequest("lg3", arch="k20", settings=self.SETTINGS)
        with TuningService(
            tmp_path / "rs", workers=2, tuner_factory=factory
        ) as service:
            a = service.submit(request)
            b = service.submit(request)  # in-flight duplicate
            different = service.submit(
                TuneRequest("lg3", arch="k20", settings=dict(self.SETTINGS, seed=9))
            )
            assert a == b
            assert different != a
            release.set()
            assert service.wait(a, timeout=300).state == JobState.DONE
            assert service.wait(different, timeout=300).state == JobState.DONE
            # Completed jobs leave the in-flight table: same request again
            # makes a NEW job (which will be a store hit).
            c = service.submit(request)
            assert c != a

    def test_failed_job_reports_error(self, tmp_path):
        request = TuneRequest("no-such-workload-xyz", settings=self.SETTINGS)
        with TuningService(tmp_path / "rs", workers=1) as service:
            job = service.wait(service.submit(request), timeout=60)
            assert job.state == JobState.FAILED
            assert "neither a known workload" in job.error
            assert "failed" in job.describe()

    def test_unknown_job_and_closed_service(self, tmp_path):
        service = TuningService(tmp_path / "rs", workers=1)
        with pytest.raises(ServiceError, match="unknown job id"):
            service.job("job-999")
        service.shutdown()
        with pytest.raises(ServiceError, match="shut down"):
            service.submit(TuneRequest("lg3"))

    def test_serve_job_span_traced(self, tmp_path):
        with use_tracer(Tracer()) as tracer:
            with TuningService(tmp_path / "rs", workers=1) as service:
                service.wait(
                    service.submit(
                        TuneRequest("lg3", arch="k20", settings=self.SETTINGS)
                    ),
                    timeout=300,
                )
        spans = {s.name for s in tracer.finished()}
        assert "serve.job" in spans
        assert "store.miss" in spans


# ----------------------------------------------------------------------
class TestCancellationAndDeadlines:
    SETTINGS = dict(max_evaluations=10, pool_size=100, seed=0, batch_size=5)

    def _blocking_factory(self, release):
        """Every job parks on ``release``, keeping the single worker busy."""

        class Blocked:
            def tune_program(self, program):
                release.wait(30)
                raise RuntimeError("released")

            tune_contraction = tune_program

        return lambda request: Blocked()

    def test_cancel_queued_job(self, tmp_path):
        import threading

        release = threading.Event()
        with TuningService(
            tmp_path / "rs", workers=1,
            tuner_factory=self._blocking_factory(release),
        ) as service:
            running = service.submit(TuneRequest("lg3", settings=self.SETTINGS))
            queued = service.submit(
                TuneRequest("lg3", settings=dict(self.SETTINGS, seed=7))
            )
            assert service.cancel(queued)
            job = service.wait(queued, timeout=1.0)  # wakes immediately
            assert job.state == JobState.CANCELLED
            assert "cancelled by client" in job.describe()
            # Cancellation is terminal and idempotent-ish: a second cancel
            # (and cancelling the running job) both report False.
            assert not service.cancel(queued)
            assert not service.cancel(running)
            with pytest.raises(ServiceError, match="unknown job id"):
                service.cancel("job-999")
            # The cancelled fingerprint left the in-flight table: the same
            # request queues fresh work instead of returning the dead id.
            resubmitted = service.submit(
                TuneRequest("lg3", settings=dict(self.SETTINGS, seed=7))
            )
            assert resubmitted != queued
            release.set()

    def test_deadline_expires_while_queued(self, tmp_path):
        import threading
        import time

        release = threading.Event()
        with TuningService(
            tmp_path / "rs", workers=1,
            tuner_factory=self._blocking_factory(release),
        ) as service:
            service.submit(TuneRequest("lg3", settings=self.SETTINGS))
            doomed = service.submit(
                TuneRequest("lg3", settings=dict(self.SETTINGS, seed=7)),
                deadline=0.05,
            )
            time.sleep(0.1)  # let the deadline lapse while still queued
            release.set()
            job = service.wait(doomed, timeout=30)
            assert job.state == JobState.CANCELLED
            assert "deadline expired while queued" in job.error

    def test_wait_all_timeout_is_one_shared_deadline(self, tmp_path):
        import time

        class Sleepy:
            def tune_program(self, program):
                time.sleep(0.4)
                raise RuntimeError("done sleeping")

            tune_contraction = tune_program

        with TuningService(
            tmp_path / "rs", workers=1, tuner_factory=lambda request: Sleepy()
        ) as service:
            service.submit(TuneRequest("lg3", settings=self.SETTINGS))
            service.submit(
                TuneRequest("lg3", settings=dict(self.SETTINGS, seed=7))
            )
            # Jobs finish at ~0.4s and ~0.8s.  A shared 0.6s deadline must
            # raise at ~0.6s; the old per-job allowance (0.6s *each*) would
            # have happily waited 0.8s and returned both.
            start = time.monotonic()
            with pytest.raises(ServiceError, match="timed out"):
                service.wait_all(timeout=0.6)
            assert time.monotonic() - start < 0.75
            assert service.wait_all(timeout=30) is not None


# ----------------------------------------------------------------------
class TestCLI:
    def test_submit_hit_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        args = [
            "submit", "lg3", "--arch", "k20", "--store", str(tmp_path / "rs"),
            "--evals", "10", "--batch", "5", "--pool", "100", "--seed", "3",
        ]
        assert main(args) == 0
        assert "result store: miss" in capsys.readouterr().out
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "result store: hit" in out
        assert "evals=10" in out  # replayed accounting, not re-run

    def test_serve_verb(self, tmp_path, capsys):
        from repro.cli import main

        rc = main([
            "serve", "lg3@k20", "lg3@k20", "--store", str(tmp_path / "rs"),
            "--workers", "1", "--evals", "10", "--batch", "5",
            "--pool", "100", "--seed", "3",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "served 2 request(s)" in out

    def test_serve_deadline_cancels_backlog(self, tmp_path, capsys):
        from repro.cli import main

        # One worker, two distinct requests: the second waits in the queue
        # far longer than its 50ms deadline allows and is cancelled.  The
        # first must keep the worker busy well past the deadline (this
        # budget takes about 0.2 s on a 2-vCPU host).
        rc = main([
            "serve", "lg3@k20", "lg3@gtx980", "--store", str(tmp_path / "rs"),
            "--workers", "1", "--deadline", "0.05",
            "--evals", "60", "--batch", "5", "--pool", "300", "--seed", "3",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "1 cancelled" in out
        assert "deadline expired while queued" in out

    def test_tune_store_flag(self, tmp_path, capsys):
        from repro.cli import main

        args = [
            "tune", "lg3", "--arch", "k20", "--store", str(tmp_path / "rs"),
            "--evals", "10", "--batch", "5", "--pool", "100", "--seed", "3",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "result store: hit" not in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "result store: hit" in second

    def test_store_inspect_tool(self, tmp_path, capsys):
        import importlib.util
        from pathlib import Path

        spec = importlib.util.spec_from_file_location(
            "store_inspect",
            Path(__file__).resolve().parent.parent / "tools" / "store_inspect.py",
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)

        store = ResultStore(tmp_path / "rs")
        store.put(_key(1), {"name": "lg3", "arch": "k20", "search": {"evaluations": 7}})
        store.put(_key(2), {"name": "lg3", "arch": "k20", "search": {"evaluations": 3}})
        assert module.main([str(tmp_path / "rs")]) == 0
        out = capsys.readouterr().out
        assert "entries: 2" in out
        assert "lg3: 2" in out
        assert "stored model evaluations: 10" in out
        # Structurally invalid store -> exit 1.
        (tmp_path / "rs" / "shard-000.jsonl").write_text('{"digest": "x"}\n')
        assert module.main([str(tmp_path / "rs")]) == 1
