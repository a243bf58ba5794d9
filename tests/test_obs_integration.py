"""End-to-end observability tests: tracing is complete and changes nothing.

The acceptance bar from the tracing work: a traced run must produce a
Perfetto-loadable Chrome trace covering every pipeline phase and a valid
run manifest, while the search outcome stays bitwise identical to an
untraced run with the same seed (tracing is determinism-neutral).
"""

import importlib.util
import json
import os
import pathlib

import pytest

from repro.autotune import Autotuner
from repro.cli import main
from repro.gpusim.arch import GTX980
from repro.obs.manifest import MANIFEST_FILENAME, RunManifest
from repro.obs.tracer import NULL_TRACER, Tracer, get_tracer, use_tracer

TOOLS = pathlib.Path(__file__).parent.parent / "tools"

DSL = "dim i j k = 16\nCm[i j] = Sum([k], A[i k] * B[k j])\n"

#: Every phase the tracer must cover in one checkpointed CLI tune run.
REQUIRED_SPANS = {
    "tune.run",
    "dsl.parse",
    "octopi.variants",
    "octopi.fusion",
    "tcr.decision",
    "space.pool",
    "search.run",
    "search.fit",
    "search.batch",
    "eval.batch",
    "checkpoint.save",
}

#: The phases of a checkpointed CLI ``--searcher sweep`` run, the only
#: user of the timing tables: they stand in for the pool, the forest and
#: the rig.  A sweep saves no search state, so it has no checkpoint span.
SWEEP_SPANS = {
    "tune.run",
    "dsl.parse",
    "octopi.variants",
    "octopi.fusion",
    "tcr.decision",
    "table.build",
    "search.run",
    "search.batch",
}


def _tuner(**kw):
    defaults = dict(max_evaluations=20, batch_size=5, pool_size=200, seed=4)
    defaults.update(kw)
    return Autotuner(GTX980, **defaults)


def _cli_tune(
    tmp_path: pathlib.Path, tag: str, *flags: str
) -> tuple[pathlib.Path, pathlib.Path]:
    """Run a checkpointed, traced CLI tune; return (trace, checkpoint dir)."""
    dsl = tmp_path / f"mm_{tag}.oct"
    dsl.write_text(DSL)
    trace = tmp_path / tag / "out.trace"
    ck = tmp_path / tag / "ck"
    code = main(
        [
            "tune", str(dsl),
            "--evals", "10", "--pool", "100", "--seed", "3", *flags,
            "--trace", str(trace), "--checkpoint-dir", str(ck),
        ]
    )
    assert code == 0
    return trace, ck


class TestDeterminismNeutral:
    def test_champion_bitwise_identical_with_tracing(self, mttkrp, tmp_path):
        plain = _tuner().tune_contraction(mttkrp)
        traced = _tuner(trace=tmp_path / "out.trace").tune_contraction(mttkrp)
        assert traced.best_config == plain.best_config
        assert traced.search.best_objective == plain.search.best_objective
        assert traced.search.history == plain.search.history
        assert traced.timing == plain.timing
        assert (tmp_path / "out.trace").exists()

    def test_ambient_tracer_restored_after_traced_run(self, matmul, tmp_path):
        _tuner(trace=tmp_path / "t.trace").tune_contraction(matmul)
        assert get_tracer() is NULL_TRACER


class TestPhaseCoverage:
    def test_cli_trace_covers_every_phase(self, tmp_path):
        trace, ck = _cli_tune(tmp_path, "cover")
        payload = json.loads(trace.read_text())
        events = payload["traceEvents"]
        names = {e["name"] for e in events}
        assert REQUIRED_SPANS <= names, (
            f"missing spans: {sorted(REQUIRED_SPANS - names)}"
        )
        # The rig scores every point on the model: no timing tables.
        assert "table.build" not in names
        # The CLI parses the workload before the tuner starts, so the trace
        # has exactly two top-level spans: dsl.parse then the tune.run root
        # everything else nests under.
        roots = sorted(e["name"] for e in events if "parent_id" not in e["args"])
        assert roots == ["dsl.parse", "tune.run"]
        tune_runs = [e for e in events if e["name"] == "tune.run"]
        assert len(tune_runs) == 1
        # eval.batch carries the unified telemetry counters.
        batch = next(e for e in events if e["name"] == "eval.batch")
        assert "evaluations" in batch["args"]

    def test_cli_sweep_trace_covers_the_table_build(self, tmp_path):
        trace, _ = _cli_tune(tmp_path, "sweep", "--searcher", "sweep")
        events = json.loads(trace.read_text())["traceEvents"]
        names = {e["name"] for e in events}
        assert SWEEP_SPANS <= names, (
            f"missing spans: {sorted(SWEEP_SPANS - names)}"
        )
        assert not {
            "space.pool", "search.fit", "eval.batch", "checkpoint.save"
        } & names
        # The decision records the families the tables price: the matmul's
        # one loop-nest family times the 16 unroll factors of k.
        [decision] = [e["args"] for e in events if e["name"] == "tcr.decision"]
        assert decision["kernels"] == 1
        assert decision["families"] == 1
        assert decision["size"] == 16

    def test_cli_auto_sweep_trace_counts_the_reused_tables(self, tmp_path):
        trace, _ = _cli_tune(
            tmp_path, "auto", "--searcher", "sweep", "--backend", "auto"
        )
        events = json.loads(trace.read_text())["traceEvents"]
        kernels = sum(
            e["args"]["kernels"] for e in events if e["name"] == "tcr.decision"
        )
        builds = [e["args"] for e in events if e["name"] == "table.build"]
        assert builds
        # The matmul is TTGT-eligible: the decision priced its one kernel.
        assert sum(b["built"] + b["reused"] for b in builds) == kernels
        assert sum(b["reused"] for b in builds) >= 1
        # TTGT won it, so no loop-nest family is left in the space.
        assert [
            e["args"]["families"] for e in events if e["name"] == "tcr.decision"
        ] == [0]

    def test_fit_spans_record_the_forest_shape(self, mttkrp):
        tracer = Tracer()
        with use_tracer(tracer):
            _tuner().tune_contraction(mttkrp)
        fits = [s for s in tracer.finished() if s.name == "search.fit"]
        assert len(fits) == 4  # 20 evaluations in batches of 5
        for span in fits:
            attrs = span.attributes
            assert "chunks" not in attrs  # the fit runs in-process
            assert attrs["nodes"] >= 30  # at least one node per tree
            assert attrs["depth"] >= 1
        assert [s.attributes["observations"] for s in fits] == [5, 10, 15, 20]

    def test_fit_spans_count_the_shared_sample_sets(self, mttkrp):
        def fit_counts():
            tracer = Tracer()
            with use_tracer(tracer):
                _tuner().tune_contraction(mttkrp)
            return [
                {key: s.attributes[key] for key in ("sets", "set_rows", "node_rows")}
                for s in tracer.finished() if s.name == "search.fit"
            ]

        counts = fit_counts()
        assert counts == fit_counts()  # the counts repeat exactly
        for c in counts:
            # Distinct varying sets, the rows they hold, and the rows
            # per-node scoring would touch: at the roots alone, 30 trees
            # hold one set.
            assert 1 <= c["sets"] <= c["set_rows"] <= c["node_rows"]
            assert c["node_rows"] >= 30 * 5
        # The trees draw no bootstrap, so they share most sample sets.
        set_rows = sum(c["set_rows"] for c in counts)
        assert set_rows < 0.5 * sum(c["node_rows"] for c in counts)

    def test_small_pool_predicts_by_table_descent(self, mttkrp):
        tracer = Tracer()
        with use_tracer(tracer):
            _tuner().tune_contraction(mttkrp)
        predicts = [s for s in tracer.finished() if s.name == "search.predict"]
        assert len(predicts) == 3
        for span in predicts:
            # ~190 rows against hundreds of forest nodes: below the rule.
            assert span.attributes["path"] == "table"
            assert "splits" not in span.attributes
            # The predict runs in this process: no worker or chunk counts.
            assert "workers" not in span.attributes
            assert "chunks" not in span.attributes

    def test_large_pool_predicts_by_partition(self):
        from repro.gpusim.arch import K20
        from repro.workloads import get_workload

        tracer = Tracer()
        with use_tracer(tracer):
            get_workload("lg3").tune(Autotuner(
                K20, seed=3, max_evaluations=40, batch_size=10,
                pool_size=20_000,
            ))
        spans = tracer.finished()
        # The pool is coded straight from its feature view: no float
        # matrix and no rank-coding pass.
        (encode,) = [s for s in spans if s.name == "search.encode"]
        assert encode.attributes["path"] == "codes"
        assert encode.attributes["kept_bytes"] == 20_000 * 43  # uint8 codes
        assert not [s for s in spans if s.name == "search.codes"]
        predicts = [s for s in spans if s.name == "search.predict"]
        assert len(predicts) == 3
        for span in predicts:
            attrs = span.attributes
            assert attrs["path"] == "partition"
            assert attrs["held"] == 0
            # A root split sees every row.  Without sharing, the 30
            # trees' root splits alone would split 30 times the rows.
            assert attrs["splits"] > 0
            assert attrs["rows"] <= attrs["split_rows"] < 30 * attrs["rows"]


class TestManifests:
    def test_manifest_next_to_trace_and_checkpoint(self, tmp_path):
        trace, ck = _cli_tune(tmp_path, "man")
        for where in (trace.parent, ck):
            manifest = RunManifest.load(where / MANIFEST_FILENAME)
            assert manifest.seed == 3
            assert manifest.arch == GTX980.name
            assert manifest.searcher == "surf"
            assert len(manifest.dsl_fingerprint) == 16

    def test_manifest_byte_deterministic_across_runs(self, tmp_path):
        trace_a, _ = _cli_tune(tmp_path, "a")
        trace_b, _ = _cli_tune(tmp_path, "b")
        bytes_a = (trace_a.parent / MANIFEST_FILENAME).read_bytes()
        bytes_b = (trace_b.parent / MANIFEST_FILENAME).read_bytes()
        assert bytes_a == bytes_b

    def test_failed_rewrite_keeps_the_previous_manifest(
        self, tmp_path, monkeypatch, two_op_program
    ):
        path = tmp_path / "run" / MANIFEST_FILENAME
        first = _tuner().run_manifest("chain", [two_op_program])
        first.write(path)

        def crashing_replace(src, dst):
            raise OSError("crashed before the rename")

        monkeypatch.setattr(os, "replace", crashing_replace)
        with pytest.raises(OSError, match="before the rename"):
            _tuner(seed=5).run_manifest("chain", [two_op_program]).write(path)
        monkeypatch.undo()
        assert RunManifest.load(path) == first
        assert [p.name for p in path.parent.iterdir()] == [MANIFEST_FILENAME]


class TestTraceInspect:
    def _module(self):
        spec = importlib.util.spec_from_file_location(
            "trace_inspect", TOOLS / "trace_inspect.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_summarizes_real_trace(self, tmp_path, capsys):
        trace, _ = _cli_tune(tmp_path, "inspect")
        inspect = self._module()
        assert inspect.main([str(trace)]) == 0
        out = capsys.readouterr().out
        assert "per-phase time" in out
        assert "counter totals" in out
        assert "manifest:" in out

    def test_self_time_beside_inclusive_time(self, tmp_path, capsys):
        # tune.run 100 > search.run 80 > (search.fit 50, eval.batch 20),
        # and tune.run > space.pool 10 (microseconds).
        spans = [
            ("tune.run", "tune", 100.0, 1, None),
            ("search.run", "search", 80.0, 2, 1),
            ("search.fit", "search", 50.0, 3, 2),
            ("eval.batch", "eval", 20.0, 4, 2),
            ("space.pool", "space", 10.0, 5, 1),
        ]
        events = []
        for name, cat, dur, span_id, parent in spans:
            args = {"span_id": span_id}
            if parent is not None:
                args["parent_id"] = parent
            events.append({"name": name, "cat": cat, "ph": "X", "ts": 0.0,
                           "dur": dur, "pid": 1, "tid": 1, "args": args})
        trace = tmp_path / "nested.trace"
        trace.write_text(json.dumps({"traceEvents": events}))
        inspect = self._module()
        summary = inspect.summarize(inspect.load_records(trace))
        cats = summary["categories"]
        assert {c: a["self_us"] for c, a in cats.items()} == {
            "tune": 10.0, "search": 60.0, "eval": 20.0, "space": 10.0,
        }
        # Nested search spans are not counted twice.
        assert cats["search"]["inclusive_us"] == 80.0
        assert sum(a["self_us"] for a in cats.values()) <= 100.0
        names = summary["names"]
        assert names["search.run"]["self_us"] == 10.0
        assert names["search.run"]["inclusive_us"] == 80.0
        assert inspect.main([str(trace)]) == 0
        assert "self / inclusive" in capsys.readouterr().out

    def test_rejects_invalid_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace"
        bad.write_text("{\"nope\": 1}")
        inspect = self._module()
        assert inspect.main([str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().out
