"""Tests for checkpoint/resume: atomic state files, bitwise-identical resume."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.autotune import Autotuner
from repro.autotune.settings import SEARCH_REVISION
from repro.errors import CheckpointError
from repro.gpusim.arch import GTX980
from repro.surf.checkpoint import CheckpointManager, SearchCheckpointer

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])
TOOLS_DIR = Path(SRC_DIR).parent / "tools"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


class TestCheckpointManager:
    def test_round_trip(self, tmp_path):
        manager = CheckpointManager(tmp_path / "run", {"seed": 1})
        state = {"searcher": "surf", "history": [[0, 1.5], [3, float("inf")]]}
        manager.save(state, extra={"evaluator_counters": {"evaluations": 2}})
        payload = manager.load()
        assert payload["searcher"] == state
        assert payload["extra"]["evaluator_counters"]["evaluations"] == 2
        assert payload["fingerprint"] == {"seed": 1}
        # inf survives the JSON round trip bitwise.
        assert payload["searcher"]["history"][1][1] == float("inf")

    def test_load_missing_returns_none(self, tmp_path):
        assert CheckpointManager(tmp_path / "nope").load() is None

    def test_corrupt_state_raises(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save({"searcher": "surf"})
        manager.state_path.write_text("{truncated", encoding="utf-8")
        with pytest.raises(CheckpointError, match="corrupt"):
            manager.load()

    def test_format_version_checked(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.state_path.parent.mkdir(parents=True, exist_ok=True)
        manager.state_path.write_text(
            json.dumps({"format": 999, "searcher": {}}), encoding="utf-8"
        )
        with pytest.raises(CheckpointError, match="format"):
            manager.load()

    def test_fingerprint_mismatch_names_differing_keys(self, tmp_path):
        CheckpointManager(tmp_path, {"seed": 1, "arch": "a"}).save({"s": 1})
        with pytest.raises(CheckpointError, match="seed"):
            CheckpointManager(tmp_path, {"seed": 2, "arch": "a"}).load()

    def test_save_replaces_atomically(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save({"n": 1})
        manager.save({"n": 2})
        assert manager.load()["searcher"] == {"n": 2}
        # No tmp leftovers after a clean save.
        assert not list(tmp_path.glob(".state.json.tmp.*"))

    def test_prune_tmp_removes_stale_writers(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save({"n": 1})
        stale = tmp_path / ".state.json.tmp.99999"
        stale.write_text("partial", encoding="utf-8")
        assert manager.prune_tmp() == [stale]
        assert not stale.exists()
        assert manager.load()["searcher"] == {"n": 1}

    def test_clear_drops_state_only(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        manager.save({"n": 1})
        manifest = tmp_path / "manifest.json"
        manifest.write_text("{}", encoding="utf-8")
        manager.clear()
        assert manager.load() is None
        assert manifest.exists()


class _Interrupted(Exception):
    pass


def _run(
    program, tmp_path, monkeypatch=None, kill_after=None, kill_before=None,
    **kw,
):
    """One tuner run; optionally die right after the Nth checkpoint save
    (``kill_after``), or inside it before it writes (``kill_before``: the
    Nth batch is evaluated but never saved)."""
    if kill_after is not None or kill_before is not None:
        orig = CheckpointManager.save
        counter = {"n": 0}

        def killing_save(self, state, extra=None):
            counter["n"] += 1
            if counter["n"] == kill_before:
                raise _Interrupted
            orig(self, state, extra=extra)
            if counter["n"] == kill_after:
                raise _Interrupted

        monkeypatch.setattr(CheckpointManager, "save", killing_save)
    try:
        kw.setdefault("max_evaluations", 12)
        kw.setdefault("batch_size", 4)
        kw.setdefault("pool_size", 40)
        kw.setdefault("seed", 5)
        tuner = Autotuner(GTX980, **kw)
        return tuner.tune_program(program)
    finally:
        if kill_after is not None or kill_before is not None:
            monkeypatch.setattr(CheckpointManager, "save", orig)


def _signature(result):
    return (
        result.search.best_objective,
        [(c.describe(), y) for c, y in result.search.history],
    )


class TestInterruptResume:
    @pytest.mark.parametrize("searcher", ["surf", "random", "exhaustive"])
    def test_killed_run_resumes_bitwise(
        self, two_op_program, tmp_path, monkeypatch, searcher
    ):
        kw = {"searcher": searcher, "faults": "0.2"}
        reference = _run(two_op_program, tmp_path, **kw)
        ck = tmp_path / "ck"
        with pytest.raises(_Interrupted):
            _run(
                two_op_program, tmp_path, monkeypatch, kill_after=2,
                checkpoint_dir=ck, **kw,
            )
        assert (ck / "state.json").exists()
        resumed = _run(
            two_op_program, tmp_path, checkpoint_dir=ck, resume=True, **kw
        )
        assert _signature(resumed) == _signature(reference)

    def test_sweep_searcher_resumes(self, tmp_path, capsys):
        # A sweep takes milliseconds and saves no search state: its
        # checkpoint directory holds the manifest alone, and --resume on
        # it just runs the sweep again.
        from repro.cli import main

        def tune(*flags: str) -> list[str]:
            assert main(["tune", "d1_1", "--searcher", "sweep", *flags]) == 0
            out = capsys.readouterr().out.splitlines()
            return [line for line in out if not line.startswith("telemetry:")]

        reference = tune()
        ck = tmp_path / "ck"
        assert tune("--checkpoint-dir", str(ck)) == reference
        assert sorted(p.name for p in ck.iterdir()) == ["manifest.json"]
        assert tune("--checkpoint-dir", str(ck), "--resume") == reference
        assert sorted(p.name for p in ck.iterdir()) == ["manifest.json"]

    def test_resume_without_state_starts_fresh(self, two_op_program, tmp_path):
        reference = _run(two_op_program, tmp_path)
        fresh = _run(
            two_op_program, tmp_path, checkpoint_dir=tmp_path / "empty",
            resume=True,
        )
        assert _signature(fresh) == _signature(reference)

    def test_changed_seed_refuses_resume(
        self, two_op_program, tmp_path, monkeypatch
    ):
        ck = tmp_path / "ck"
        with pytest.raises(_Interrupted):
            _run(
                two_op_program, tmp_path, monkeypatch, kill_after=1,
                checkpoint_dir=ck,
            )
        with pytest.raises(CheckpointError, match="seed"):
            _run(
                two_op_program, tmp_path, checkpoint_dir=ck, resume=True,
                seed=6,
            )

    def test_restart_without_resume_overwrites(
        self, two_op_program, tmp_path, monkeypatch
    ):
        ck = tmp_path / "ck"
        with pytest.raises(_Interrupted):
            _run(
                two_op_program, tmp_path, monkeypatch, kill_after=1,
                checkpoint_dir=ck,
            )
        reference = _run(two_op_program, tmp_path)
        restarted = _run(two_op_program, tmp_path, checkpoint_dir=ck)
        assert _signature(restarted) == _signature(reference)


KILL_CHILD = """
import json, os, sys
mode, ck = sys.argv[1], sys.argv[2]
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
            os._exit(9)  # SIGKILL-like: no cleanup, no exception handling
    CheckpointManager.save = dying_save
tuner = Autotuner(
    K20, max_evaluations=15, batch_size=5, pool_size=60, seed=3,
    faults="0.15",
    checkpoint_dir=(ck if mode != "ref" else None),
    resume=(mode == "resume"),
)
result = get_workload("lg3").tune(tuner)
print(json.dumps({
    "best": result.search.best_objective,
    "history": [[c.global_id, y] for c, y in result.search.history],
}))
"""


class TestKillResumeSubprocess:
    """The acceptance scenario: a hard-killed process resumes bitwise."""

    def _child(self, tmp_path, mode):
        env = dict(os.environ, PYTHONPATH=SRC_DIR)
        return subprocess.run(
            [sys.executable, "-c", KILL_CHILD, mode, str(tmp_path / "ck")],
            capture_output=True, text=True, env=env, timeout=300,
        )

    def test_hard_kill_then_resume_matches_reference(self, tmp_path):
        reference = self._child(tmp_path, "ref")
        assert reference.returncode == 0, reference.stderr
        killed = self._child(tmp_path, "kill")
        assert killed.returncode == 9, killed.stderr
        assert (tmp_path / "ck" / "state.json").exists()
        resumed = self._child(tmp_path, "resume")
        assert resumed.returncode == 0, resumed.stderr
        assert json.loads(resumed.stdout) == json.loads(reference.stdout)


class TestSearchCheckpointer:
    def test_extra_provider_saved_alongside(self, tmp_path):
        manager = CheckpointManager(tmp_path)
        ck = SearchCheckpointer(manager, extra=lambda: {"gauge": 7})
        ck.save({"searcher": "surf"})
        assert manager.load()["extra"] == {"gauge": 7}


class TestInspectTool:
    def _main(self):
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            "checkpoint_inspect", TOOLS_DIR / "checkpoint_inspect.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.main

    def test_valid_directory_passes(self, two_op_program, tmp_path, capsys):
        ck = tmp_path / "ck"
        _run(two_op_program, tmp_path, checkpoint_dir=ck, faults="0.2")
        (ck / ".state.json.tmp.4242").write_text("partial", encoding="utf-8")
        assert self._main()([str(ck), "--prune"]) == 0
        out = capsys.readouterr().out
        assert "pruned stale tmp" in out
        assert "fingerprint:" in out
        assert f"search_revision: {SEARCH_REVISION}" in out
        # The state and the manifest are all a checkpoint directory holds.
        assert sorted(p.name for p in ck.iterdir()) == [
            "manifest.json", "state.json",
        ]

    def test_state_of_another_revision_fails(self, tmp_path, capsys):
        # Resume would refuse a state written before the search revision
        # was keyed, so the tool reports it INVALID.
        shutil.copy(
            GOLDEN_DIR / "checkpoint_surf_mid_run_one_rig.json",
            tmp_path / "state.json",
        )
        assert self._main()([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "search_revision: None" in out
        assert "INVALID" in out

    def test_corrupt_state_fails(self, tmp_path, capsys):
        manager = CheckpointManager(tmp_path)
        manager.save({"searcher": "surf"})
        manager.state_path.write_text("{nope", encoding="utf-8")
        assert self._main()([str(tmp_path)]) == 1
        assert "INVALID" in capsys.readouterr().out
