"""Unit tests for the multi-core search plumbing (:mod:`repro.surf.shared`).

The parity suite (``test_search_parity.py::TestParallelParity``) pins the
end-to-end drivers; this file pins the pieces they are built from — the
shared-memory arrays, the chunking arithmetic, the worker context's
teardown, and the one parallel stage (the router predict over shared
codes) bitwise against its serial counterpart.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.surf import FeatureBinarizer, SpacePool
from repro.surf.forest import (
    ExtraTreesRegressor,
    pool_codes,
    shared_router_predict,
)
from repro.surf.shared import (
    SearchWorkerContext,
    SharedArray,
    attach_shared,
    chunk_ranges,
    resolve_search_workers,
)
from repro.tcr.decision import decide_search_space
from repro.tcr.space import TuningSpace
from repro.util.rng import spawn_rng


@pytest.fixture(scope="module")
def space_and_ids():
    from repro.core.pipeline import compile_contraction
    from repro.dsl.parser import parse_contraction

    from tests.conftest import EQN1_TEXT

    contraction = parse_contraction(EQN1_TEXT, name="eqn1")
    program = compile_contraction(contraction).minimal_flop_variants()[0].program
    space = TuningSpace([decide_search_space(program)])
    ids = space.sample_ids(min(400, space.size()), spawn_rng(0, "shared-pool"))
    return space, np.sort(ids)


@pytest.fixture(scope="module")
def ctx():
    context = SearchWorkerContext.create(3)
    assert context is not None
    yield context
    context.close()


class TestChunkRanges:
    def test_covers_contiguously(self):
        for total in (1, 2, 7, 100, 101):
            for parts in (1, 2, 3, 7, 200):
                ranges = chunk_ranges(total, parts)
                assert ranges[0][0] == 0
                assert ranges[-1][1] == total
                for (_, e1), (s2, _) in zip(ranges, ranges[1:]):
                    assert e1 == s2
                assert all(e > s for s, e in ranges)  # non-empty
                assert len(ranges) == min(parts, total)

    def test_near_equal(self):
        sizes = [e - s for s, e in chunk_ranges(103, 4)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 103


class TestResolveSearchWorkers:
    def test_explicit_wins(self):
        assert resolve_search_workers(3) == 3

    def test_env_fallback(self, monkeypatch):
        # There is no environment fallback any more: the retired
        # REPRO_SEARCH_WORKERS variable is not read.
        monkeypatch.setenv("REPRO_SEARCH_WORKERS", "4")
        assert resolve_search_workers(None) == 1

    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_SEARCH_WORKERS", raising=False)
        assert resolve_search_workers(None) == 1

    def test_floor_at_one(self):
        assert resolve_search_workers(0) == 1
        assert resolve_search_workers(-5) == 1


class TestSharedArray:
    def test_roundtrip_and_attach(self):
        source = np.arange(24, dtype=np.float64).reshape(4, 6)
        shared = SharedArray(source)
        try:
            assert np.array_equal(shared.array, source)
            view = attach_shared(shared.spec)
            assert np.array_equal(view, source)
            shared.array[1, 2] = -99.0  # same mapping, both sides see it
            assert view[1, 2] == -99.0
        finally:
            shared.unlink()

    def test_allocate_shape_dtype(self):
        shared = SharedArray(shape=(3, 5), dtype=np.uint8)
        try:
            assert shared.array.shape == (3, 5)
            assert shared.array.dtype == np.uint8
        finally:
            shared.unlink()

    def test_requires_source_or_shape(self):
        with pytest.raises(ValueError):
            SharedArray()


class TestCleanupErrorHandling:
    """Teardown swallows only the expected failure set, and traces it."""

    @pytest.mark.parametrize("exc_type", [BufferError, FileNotFoundError, OSError])
    def test_expected_close_failure_swallowed_and_traced(self, exc_type):
        from repro.obs.tracer import Tracer, use_tracer

        shared = SharedArray(shape=(2,), dtype=np.float64)
        real_close = shared._shm.close

        def failing_close():
            real_close()
            raise exc_type("injected teardown failure")

        shared._shm.close = failing_close
        with use_tracer(Tracer()) as tracer:
            shared.close()  # must not raise
        shared._shm.close = real_close
        shared.unlink()
        events = [
            s for s in tracer.finished()
            if s.name == "search.shm_cleanup_error"
        ]
        assert len(events) == 1
        attrs = events[0].attributes
        assert attrs["stage"] == "close"
        assert attrs["segment"] == shared._shm.name
        assert exc_type.__name__ in attrs["error"]
        assert "injected teardown failure" in attrs["error"]

    def test_unlink_failure_traced_with_stage(self):
        from repro.obs.tracer import Tracer, use_tracer

        shared = SharedArray(shape=(2,), dtype=np.float64)
        shared.unlink()
        with use_tracer(Tracer()) as tracer:
            shared.unlink()  # second unlink: segment already gone
        stages = [
            s.attributes["stage"] for s in tracer.finished()
            if s.name == "search.shm_cleanup_error"
        ]
        assert "unlink" in stages

    def test_unexpected_failure_propagates(self):
        # The old blanket ``except Exception: pass`` hid programming
        # errors; only the documented OS-level set may be swallowed.
        shared = SharedArray(shape=(2,), dtype=np.float64)
        real_close = shared._shm.close

        def broken_close():
            raise RuntimeError("a bug, not a teardown race")

        shared._shm.close = broken_close
        with pytest.raises(RuntimeError, match="a bug"):
            shared.close()
        shared._shm.close = real_close
        shared.unlink()

    def test_silent_without_tracer(self):
        # With the ambient NullTracer the swallowed failure stays silent
        # (no event machinery runs) but teardown still completes.
        shared = SharedArray(shape=(2,), dtype=np.float64)
        shared.unlink()
        shared.unlink()  # no tracer, no raise


class TestContext:
    def test_serial_request_yields_none(self):
        assert SearchWorkerContext.create(1) is None
        assert SearchWorkerContext.create(0) is None
        assert SearchWorkerContext.create(None) is None

    def test_run_chunks_preserves_order(self, ctx):
        payloads = [(i,) for i in range(8)]
        out = ctx.run_chunks(_echo_task, payloads)
        assert out == list(range(8))


def _echo_task(i):
    return i, {"seconds": 0.0, "worker_pid": 0}


class Boom(Exception):
    """Stands in for a failure inside a parallel search run."""


class TestSearchTeardown:
    """A ``search_workers > 1`` run leaves no worker process and no shared
    segment behind, however it ends."""

    @pytest.mark.parametrize("where", ["encode", "loop", "none"])
    def test_context_closes_on_every_exit_path(
        self, space_and_ids, monkeypatch, where
    ):
        import multiprocessing
        from multiprocessing import shared_memory

        from repro.surf import SURFSearch

        space, ids = space_and_ids
        segments: list[str] = []
        real_share = SearchWorkerContext.share

        def recording_share(self, array):
            shared = real_share(self, array)
            segments.append(shared.spec[0])
            return shared

        monkeypatch.setattr(SearchWorkerContext, "share", recording_share)
        if where == "encode":
            def failing_codes(self, view, max_card=64):
                raise Boom

            monkeypatch.setattr(FeatureBinarizer, "transform_codes", failing_codes)
        batches = 0

        def evaluate(batch):
            nonlocal batches
            batches += 1
            if where == "loop" and batches == 3:  # after two shared predicts
                raise Boom
            return [1.0 + 0.01 * i for i, _config in enumerate(batch)]

        before = {p.pid for p in multiprocessing.active_children()}
        searcher = SURFSearch(
            batch_size=5, max_evaluations=20, seed=1, search_workers=2
        )
        if where == "none":
            searcher.search(SpacePool(space, ids), evaluate)
        else:
            with pytest.raises(Boom):
                searcher.search(SpacePool(space, ids), evaluate)
        after = {p.pid for p in multiprocessing.active_children()}
        assert after <= before  # every worker the run started is gone
        assert len(segments) == (0 if where == "encode" else 1)
        for name in segments:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)


class TestParallelStages:
    """The predict fan-out bitwise against the serial router."""

    def test_shared_predict_matches_serial(self, space_and_ids, ctx):
        space, ids = space_and_ids
        pool = SpacePool(space, ids)
        X = pool.design_matrix(FeatureBinarizer())
        # The driver's way: encode once in this process, then share only
        # the codes segment.
        codes = pool.codes(FeatureBinarizer()).shared(ctx)
        assert codes.spec is not None
        assert np.array_equal(attach_shared(codes.spec), codes.codes)
        rng = spawn_rng(1, "predict-parity")
        train = rng.choice(X.shape[0], size=70, replace=False)
        y = rng.normal(size=train.size)
        forest = ExtraTreesRegressor(n_estimators=12, seed=3).fit(X[train], y)
        router = forest.make_router(codes)
        sub = np.sort(rng.choice(X.shape[0], size=150, replace=False))

        assert np.array_equal(router.predict(sub), forest.predict(X[sub]))
        assert np.array_equal(
            shared_router_predict(ctx, router, sub, mode="mean"),
            router.predict(sub),
        )
        mean, std = shared_router_predict(ctx, router, sub, mode="mean_std")
        assert np.array_equal(mean, router.predict(sub))
        assert np.array_equal(std, router.predict_std(sub))


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

    def test_router_fused_moments(self, space_and_ids):
        space, ids = space_and_ids
        X = SpacePool(space, ids).design_matrix(FeatureBinarizer())
        codes = pool_codes(X)
        rng = spawn_rng(3, "fused-router")
        train = rng.choice(X.shape[0], size=60, replace=False)
        y = rng.normal(size=train.size)
        forest = ExtraTreesRegressor(n_estimators=8, seed=2).fit(X[train], y)
        router = forest.make_router(codes)
        sub = rng.choice(X.shape[0], size=100, replace=False)
        mean, std = router.predict_mean_std(sub)
        assert np.array_equal(mean, router.predict(sub))
        assert np.array_equal(std, router.predict_std(sub))
