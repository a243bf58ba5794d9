"""Tests for search telemetry (per-batch observability records)."""

import json

import pytest

from repro.autotune import Autotuner
from repro.gpusim.arch import GTX980
from repro.surf.telemetry import SearchTelemetry


def _tuner(**kw):
    defaults = dict(max_evaluations=30, batch_size=10, pool_size=300, seed=0)
    defaults.update(kw)
    return Autotuner(GTX980, **defaults)


class TestSearchTelemetry:
    def test_surf_emits_batches(self, two_op_program):
        result = _tuner().tune_program(two_op_program)
        tel = result.search.telemetry
        assert tel is not None
        assert [r.batch_index for r in tel.records] == list(
            range(len(tel.records))
        )
        assert sum(r.batch_size for r in tel.records) == result.search.evaluations
        assert sum(r.evaluations for r in tel.records) == result.search.evaluations
        # SURF refits the surrogate after every batch.
        assert all(r.fit_seconds >= 0.0 for r in tel.records)

    def test_best_so_far_non_increasing(self, two_op_program):
        result = _tuner().tune_program(two_op_program)
        curve = [r.best_so_far for r in result.search.telemetry.records]
        assert curve == sorted(curve, reverse=True)
        assert curve[-1] == pytest.approx(result.search.best_objective)

    def test_wall_clock_monotone(self, two_op_program):
        result = _tuner().tune_program(two_op_program)
        walls = [
            r.simulated_wall_seconds for r in result.search.telemetry.records
        ]
        assert walls == sorted(walls)
        assert walls[-1] == pytest.approx(result.search_seconds)

    def test_baseline_searchers_emit(self, two_op_program):
        for kind in ("random", "exhaustive"):
            result = _tuner(searcher=kind).tune_program(two_op_program)
            tel = result.search.telemetry
            assert tel is not None
            assert sum(r.batch_size for r in tel.records) == result.search.evaluations
            assert all(r.fit_seconds == 0.0 for r in tel.records)

    def test_json_round_trip(self, two_op_program):
        result = _tuner().tune_program(two_op_program)
        payload = json.loads(result.search.telemetry.to_json())
        assert payload["totals"]["evaluations"] == result.search.evaluations
        assert len(payload["batches"]) == len(result.search.telemetry.records)

    def test_disabled_telemetry(self, two_op_program):
        # Telemetry is always on: the keyword that turned it off is gone.
        with pytest.raises(TypeError):
            _tuner(telemetry=False)
        assert _tuner().tune_program(two_op_program).search.telemetry is not None

    def test_without_counters_assumes_fresh_evals(self):
        tel = SearchTelemetry()
        tel.record_batch(batch_size=5, best_so_far=1.0)
        assert tel.records[0].evaluations == 5


class TestPerVariantTelemetry:
    def test_merged_records(self, mttkrp):
        result = _tuner(per_variant=True).tune_contraction(mttkrp)
        tel = result.search.telemetry
        assert tel is not None
        assert sum(r.batch_size for r in tel.records) == result.search.evaluations
        # Records keep their within-part batch_index and are disambiguated
        # by the part ordinal: (part, batch_index) is unique, and each
        # part's indices are contiguous from 0.
        keys = [(r.part, r.batch_index) for r in tel.records]
        assert len(set(keys)) == len(keys)
        parts = sorted({r.part for r in tel.records})
        assert parts == list(range(result.variant_count))
        for part in parts:
            indices = [r.batch_index for r in tel.records if r.part == part]
            assert indices == list(range(len(indices)))
        # Wall clock keeps accumulating across the merged sub-searches.
        assert tel.records[-1].simulated_wall_seconds == pytest.approx(
            result.search_seconds
        )

    def test_merged_best_so_far_monotone(self, mttkrp):
        # Regression: each sub-search tracked only its own running best, so
        # the raw concatenation could *increase* when a later variant
        # started worse than an earlier variant finished.
        result = _tuner(per_variant=True).tune_contraction(mttkrp)
        curve = [r.best_so_far for r in result.search.telemetry.records]
        assert curve == sorted(curve, reverse=True)
        assert curve[-1] == pytest.approx(result.search.best_objective)

    def test_merged_unit_semantics(self):
        # Two synthetic parts: indices collide, and part B starts worse
        # than part A ended.
        a, b = SearchTelemetry(), SearchTelemetry()
        a.record_batch(batch_size=2, best_so_far=1.0)
        a.record_batch(batch_size=2, best_so_far=0.5)
        b.record_batch(batch_size=2, best_so_far=2.0)
        b.record_batch(batch_size=2, best_so_far=0.1)
        merged = SearchTelemetry.merged([a, b])
        assert [(r.part, r.batch_index) for r in merged.records] == [
            (0, 0), (0, 1), (1, 0), (1, 1)
        ]
        assert [r.best_so_far for r in merged.records] == [1.0, 0.5, 0.5, 0.1]

    def test_history_carries_true_variant_indices(self, mttkrp):
        # Regression: merged per-variant history used to keep variant 0 on
        # every entry because sub-runs see their program as variant 0.
        result = _tuner(per_variant=True).tune_contraction(mttkrp)
        indices = {c.variant_index for c, _y in result.search.history}
        assert indices == set(range(result.variant_count))
        per_variant = result.search.evaluations // result.variant_count
        for v in indices:
            count = sum(
                1 for c, _y in result.search.history if c.variant_index == v
            )
            assert count == per_variant


class TestResumeTelemetry:
    def test_restore_resnapshots_live_counters(self):
        # Regression: restore_state kept the *persisted* counter snapshot,
        # but a resuming process's evaluator counters start wherever that
        # process is — diffing against the stale snapshot made the first
        # post-resume batch report negative (or double-counted) deltas.
        counters = {"evaluations": 0.0}
        first = SearchTelemetry(counters=lambda: dict(counters))
        counters["evaluations"] = 10.0
        first.record_batch(batch_size=10, best_so_far=1.0)
        saved = first.snapshot_state()

        fresh = {"evaluations": 0.0}  # new process: zeros
        resumed = SearchTelemetry(counters=lambda: dict(fresh))
        resumed.restore_state(saved)
        fresh["evaluations"] = 4.0  # the first post-resume batch
        record = resumed.record_batch(batch_size=4, best_so_far=0.9)
        assert record.evaluations == 4

    def test_saved_records_are_the_batch_records(self):
        # Saved records hold the BatchRecord fields and nothing else (no
        # retired ``cache_hits`` key), and restore to equal records.
        tel = SearchTelemetry()
        tel.record_batch(batch_size=3, best_so_far=1.0)
        saved = tel.snapshot_state()
        assert saved["records"] == tel.as_dicts()
        assert "cache_hits" not in saved["records"][0]
        restored = SearchTelemetry()
        restored.restore_state(saved)
        assert restored.records == tel.records

    def test_restore_without_counters_keeps_snapshot(self):
        tel = SearchTelemetry()
        tel.record_batch(batch_size=3, best_so_far=1.0)
        saved = tel.snapshot_state()
        saved["last"] = {"evaluations": 7.0}
        plain = SearchTelemetry()
        plain.restore_state(saved)
        assert plain._last == {"evaluations": 7.0}

    def test_resumed_run_telemetry_deltas_nonnegative(
        self, two_op_program, tmp_path, monkeypatch
    ):
        # End-to-end: kill a faulted checkpointed run inside a save, after
        # its batch was evaluated but before it was written, and resume.
        # The unsaved batch is evaluated again, so every post-resume batch
        # has sane deltas and the totals are the uninterrupted run's.
        from tests.test_checkpoint import _Interrupted, _run

        kw = {"faults": "0.2"}
        reference = _run(two_op_program, tmp_path, **kw)
        ck = tmp_path / "ck"
        with pytest.raises(_Interrupted):
            _run(
                two_op_program, tmp_path, monkeypatch, kill_before=2,
                checkpoint_dir=ck, **kw,
            )
        resumed = _run(
            two_op_program, tmp_path, checkpoint_dir=ck, resume=True, **kw
        )
        records = resumed.search.telemetry.records
        assert all(r.evaluations >= 0 for r in records)
        ref_totals = reference.search.telemetry.totals()
        res_totals = resumed.search.telemetry.totals()
        del ref_totals["fit_seconds"], res_totals["fit_seconds"]
        assert ref_totals["retries"] + ref_totals["permanent"] > 0
        assert res_totals == ref_totals
        assert (
            resumed.search.simulated_wall_seconds
            == reference.search.simulated_wall_seconds
        )


class TestCliTelemetry:
    def test_tune_dumps_telemetry(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "telemetry.json"
        code = main(
            [
                "tune", "d1_1",
                "--evals", "15", "--pool", "200", "--seed", "3",
                "--telemetry", str(out),
            ]
        )
        assert code == 0
        assert "telemetry:" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["totals"]["points"] == 15
        assert payload["batches"]
