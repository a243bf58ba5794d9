"""Tests for the TuneSettings declaration: one place decides what a setting changes.

The test driven by the declaration walks every field: each ``runtime``
setting at a non-default value must reproduce the default run bit for bit — champion, history, best objective, simulated search
seconds — under the same result-store digest, and each ``keyed`` setting
at a non-default value must change the digest.
"""

import dataclasses
import json
import shutil
from pathlib import Path

import pytest

from repro.autotune import Autotuner
from repro.autotune import tuner as tuner_module
from repro.autotune.settings import (
    KEYED,
    KEYED_SETTINGS,
    RUNTIME,
    SEARCH_REVISION,
    TuneSettings,
)
from repro.core.pipeline import compile_contraction
from repro.dsl.parser import parse_contraction
from repro.errors import CheckpointError
from repro.gpusim.arch import GTX980, K20
from repro.serve.service import TuningService
from repro.serve.store import StoreKey
from repro.surf.evaluator import ConfigurationEvaluator
from repro.workloads import get_workload

from tests.conftest import EQN1_TEXT

GOLDEN = Path(__file__).parent / "golden"

BASE = dict(max_evaluations=12, batch_size=4, pool_size=60, seed=3)

#: A cheap non-default value for every setting that is not keyed.
NOT_KEYED = {
    "checkpoint_dir": lambda tmp: {"checkpoint_dir": tmp / "ck"},
    "resume": lambda tmp: {"checkpoint_dir": tmp / "ck", "resume": True},
    "trace": lambda tmp: {"trace": tmp / "trace" / "out.trace"},
    "result_store": lambda tmp: {"result_store": tmp / "rs"},
}

#: A non-default value for every keyed setting.
KEYED_VALUES = {
    "searcher": "random",
    "seed": 4,
    "max_evaluations": 13,
    "batch_size": 5,
    "pool_size": 61,
    "noisy": False,
    "include_transfer": False,
    "per_variant": True,
    "faults": "0.1",
    "backend": "ttgt",
}

#: StoreKey digests (GTX 980, seed 0) at search revision 1, with every
#: keyed setting in every key and a fault-free spec entering as "": a
#: change to how settings enter the key must keep every stored result
#: reachable, and only a deliberate re-pin may move them.
GOLDEN_DIGESTS = {
    "chain/default": "e4c5f9d905f2338c",
    "chain/sweep_auto": "89926fa8c8260231",
    "chain/ttgt": "8da89266e22f273b",
    "chain/faults": "0799e64a1796d3e4",
    "chain/per_variant": "7256d60b51d34c82",
    "eqn1/default": "a4599deb5837bd71",
    "eqn1/sweep_auto": "4c949a80ecd79e64",
    "eqn1/ttgt": "e5a2f620aa82686d",
    "eqn1/faults": "03c59947b5547860",
    "eqn1/per_variant": "0a7ee5add8144c26",
}

#: Digests no request may produce again.  The first sixteen are the same
#: cases under the seed-pinned forest, whose manifests carried
#: ``tie_break``.  The last fourteen are the cases before the search
#: revision was keyed, when ``acquisition``, ``batch_parallelism`` and
#: ``max_variants`` were keyed settings (the ``lcb`` and
#: ``batch_parallelism`` cases among them).  Their stored champions must
#: never be served to a request the current code would answer otherwise.
RETIRED_DIGESTS = frozenset({
    "b893a2f2cd29839e", "c802548013b36573", "ae0f5bd3469f4a90",
    "2b7570d4e49fc7be", "edb9011c3de50d31", "5395600d2fba9bf9",
    "0d29f10fab015d86", "2c83d61c1a4531d0", "1e260f77f71697c2",
    "947d73b048691f30", "c499e429fd8e924d", "627a2e48d03b8984",
    "0805c266ecdbb1ee", "609d19e6f2c2606d", "88607b5c13e5f0c4",
    "cdeb32e6aa603214",
    "ea22411bedb93a08", "7ba85291f4330969", "8fa0ca461e773952",
    "378e31cd013799d1", "d6fa3b95a60189c5", "f77b2d1382c498a3",
    "a36cbc535f091392", "2465a7d745b619f6", "2a06e87e93da1ea3",
    "70ed66675637af1f", "2c0a90623785f978", "cecdc360a3267c93",
    "f855af44dbd2a1e3", "ee5f118e852b82e7",
})

GOLDEN_CASES = {
    "default": {},
    "sweep_auto": {"searcher": "sweep", "backend": "auto"},
    "ttgt": {"backend": "ttgt"},
    "faults": {"faults": "0.1"},
    "per_variant": {"per_variant": True},
}


def _digest(tuner: Autotuner, name: str, programs) -> str:
    return StoreKey.from_manifest(tuner.run_manifest(name, programs)).digest()


def _outcome(result):
    return (
        result.best_config,
        result.search.history,
        repr(result.search.best_objective),
        repr(result.search_seconds),
    )


def _roles() -> dict[str, str]:
    return {f.name: f.metadata["role"] for f in dataclasses.fields(TuneSettings)}


class TestDeclaration:
    def test_two_roles(self):
        # A setting either changes results (and keys them) or only says
        # where state lives and how the run is observed.
        assert set(_roles().values()) == {KEYED, RUNTIME}

    def test_every_setting_has_a_test_value(self):
        keyed = {name for name, role in _roles().items() if role == KEYED}
        assert keyed == set(KEYED_VALUES)
        assert set(_roles()) - keyed == set(NOT_KEYED)
        assert KEYED_SETTINGS == keyed - {"searcher", "seed"}

    def test_not_keyed_settings_leave_result_and_digest_alone(
        self, two_op_program, tmp_path
    ):
        reference_tuner = Autotuner(GTX980, **BASE)
        reference = _outcome(reference_tuner.tune_program(two_op_program))
        digest = _digest(reference_tuner, "chain", [two_op_program])
        for name, make in NOT_KEYED.items():
            tuner = Autotuner(GTX980, **BASE, **make(tmp_path / name))
            assert _digest(tuner, "chain", [two_op_program]) == digest, name
            first = tuner.tune_program(two_op_program)
            assert _outcome(first) == reference, name
            assert not first.store_hit
            if name == "result_store":
                again = Autotuner(GTX980, **BASE, **make(tmp_path / name))
                hit = again.tune_program(two_op_program)
                assert hit.store_hit
                assert hit.search.telemetry.totals()["evaluations"] == 0
                assert _outcome(hit) == reference

    def test_store_written_under_runtime_settings_serves_default_run(
        self, two_op_program, tmp_path
    ):
        root = tmp_path / "rs"
        written = Autotuner(
            GTX980, **BASE, result_store=root,
            checkpoint_dir=tmp_path / "ck", trace=tmp_path / "t" / "out.trace",
        ).tune_program(two_op_program)
        served = Autotuner(GTX980, **BASE, result_store=root).tune_program(
            two_op_program
        )
        assert served.store_hit
        assert _outcome(served) == _outcome(written)

    def test_each_keyed_setting_changes_the_digest(self, two_op_program):
        base = _digest(Autotuner(GTX980, **BASE), "chain", [two_op_program])
        digests = {
            name: _digest(
                Autotuner(GTX980, **{**BASE, name: value}), "chain", [two_op_program]
            )
            for name, value in KEYED_VALUES.items()
        }
        assert base not in digests.values()
        assert len(set(digests.values())) == len(digests)

    def test_explicit_defaults_keep_the_digest(self, two_op_program):
        defaults = {f.name: f.default for f in dataclasses.fields(TuneSettings)}
        explicit = {k: defaults[k] for k in ("backend", "per_variant")}
        assert _digest(
            Autotuner(GTX980, **BASE, **explicit), "chain", [two_op_program]
        ) == _digest(Autotuner(GTX980, **BASE), "chain", [two_op_program])

    def test_fault_free_retry_budget_keeps_the_default_run(self, two_op_program):
        # Retries happen only when a fault can fire: a fault-free spec's
        # retry budget changes neither the run nor its digest.
        reference_tuner = Autotuner(GTX980, **BASE)
        tuner = Autotuner(GTX980, **BASE, faults="retries=5")
        assert _digest(tuner, "chain", [two_op_program]) == _digest(
            reference_tuner, "chain", [two_op_program]
        )
        assert _outcome(tuner.tune_program(two_op_program)) == _outcome(
            reference_tuner.tune_program(two_op_program)
        )


class TestGoldenDigests:
    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_digest_unchanged(self, case, two_op_program):
        eqn1 = parse_contraction(EQN1_TEXT, name="eqn1")
        eqn1_programs = [v.program for v in compile_contraction(eqn1).variants]
        tuner = Autotuner(GTX980, seed=0, **GOLDEN_CASES[case])
        for name, programs in (("chain", [two_op_program]), ("eqn1", eqn1_programs)):
            digest = _digest(tuner, name, programs)
            assert digest not in RETIRED_DIGESTS
            assert digest == GOLDEN_DIGESTS[f"{name}/{case}"]


class TestKeywordsAndEnvironment:
    @pytest.mark.parametrize(
        "knob",
        [
            {"workers": 2},
            {"parallel_executor": "process"},
            {"sweep_full": True},
            {"elastic": 1},
            {"spool": "spool"},
            {"lease_ttl": 5.0},
            {"cache": True},
            {"resilient": True},
            {"max_retries": 3},
            {"search_workers": 2},
            {"fast_model": True},
            {"acquisition": "mean"},
            {"batch_parallelism": 1},
            {"max_variants": 4},
        ],
    )
    def test_deleted_keywords_rejected(self, knob):
        with pytest.raises(TypeError):
            Autotuner(GTX980, **knob)

    def test_service_rejects_the_deleted_elastic_keyword(self, tmp_path):
        with pytest.raises(TypeError):
            TuningService(tmp_path / "rs", workers=1, elastic=2)

    def test_only_path_settings_read_the_environment(self, monkeypatch):
        # The retired variables stay inert, and REPRO_RESULT_STORE fills
        # an unset store (and only an unset one).
        monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
        for retired in ("REPRO_EVAL_WORKERS", "REPRO_SEARCH_WORKERS",
                        "REPRO_ELASTIC", "REPRO_FAST_MODEL"):
            monkeypatch.setenv(retired, "3")
        monkeypatch.setenv("REPRO_EVAL_CACHE", "eval_cache.jsonl")
        monkeypatch.setenv("REPRO_FAULTS", "0.5")
        monkeypatch.setenv("REPRO_SPOOL", "spool")
        settings = TuneSettings()
        assert not hasattr(settings, "search_workers")
        assert not hasattr(settings, "spool")
        assert not hasattr(settings, "cache")
        assert not settings.faults.any()
        for f in dataclasses.fields(TuneSettings):
            if f.name != "faults":
                assert getattr(settings, f.name) == f.default, f.name
        monkeypatch.setenv("REPRO_RESULT_STORE", "rs")
        assert TuneSettings().result_store == "rs"
        assert TuneSettings(result_store="mine").result_store == "mine"
        monkeypatch.setenv("REPRO_RESULT_STORE", "")
        assert TuneSettings().result_store is None


class TestCheckpointFingerprint:
    def test_fingerprint_is_the_keyed_settings(self, two_op_program, tmp_path):
        tuner = Autotuner(GTX980, **BASE, checkpoint_dir=tmp_path / "ck")
        tuner.tune_program(two_op_program)
        state = json.loads((tmp_path / "ck" / "state.json").read_text())
        fingerprint = state["fingerprint"]
        assert set(fingerprint) == {
            "name", "arch", "space_size", "pool", "search_revision",
        } | set(tuner.settings.keyed)
        assert "resilient" not in fingerprint
        assert fingerprint["faults"] == ""
        assert fingerprint["search_revision"] == SEARCH_REVISION

    def test_a_bumped_revision_moves_the_digest_and_refuses_the_checkpoint(
        self, two_op_program, tmp_path, monkeypatch
    ):
        ck = tmp_path / "ck"
        tuner = Autotuner(GTX980, **BASE, checkpoint_dir=ck)
        digest = _digest(tuner, "chain", [two_op_program])
        tuner.tune_program(two_op_program)
        monkeypatch.setattr(tuner_module, "SEARCH_REVISION", SEARCH_REVISION + 1)
        bumped = Autotuner(GTX980, **BASE, checkpoint_dir=ck, resume=True)
        assert _digest(bumped, "chain", [two_op_program]) != digest
        with pytest.raises(CheckpointError, match=r"differing: search_revision\)"):
            bumped.tune_program(two_op_program)

    def test_checkpoint_from_before_the_declaration_is_refused(
        self, two_op_program, tmp_path
    ):
        ck = tmp_path / "ck"
        ck.mkdir()
        shutil.copy(GOLDEN / "checkpoint_before_settings.json", ck / "state.json")
        tuner = Autotuner(
            GTX980, seed=0, max_evaluations=10, batch_size=5, pool_size=40,
            checkpoint_dir=ck, resume=True,
        )
        with pytest.raises(CheckpointError) as info:
            tuner.tune_program(two_op_program)
        # The keyed settings the old fingerprint lacked (the retired ones
        # it lacked too compare equal: absent reads as None both ways), its
        # fault-free spec spelled with a seed, the retired max_retries and
        # tie_break it carried, its per-id pool hash, and no revision.
        assert (
            "differing: backend, faults, max_retries, per_variant, pool, "
            "pool_size, search_revision, tie_break)" in str(info.value)
        )

    def test_checkpoint_of_the_seed_pinned_forest_is_refused(
        self, two_op_program, tmp_path
    ):
        # A SURF state.json written by the seed-pinned forest: resuming it
        # under the level-wise forest would continue a different search.
        ck = tmp_path / "ck"
        ck.mkdir()
        shutil.copy(GOLDEN / "checkpoint_before_forest.json", ck / "state.json")
        tuner = Autotuner(
            GTX980, seed=0, max_evaluations=10, batch_size=5, pool_size=40,
            checkpoint_dir=ck, resume=True,
        )
        with pytest.raises(CheckpointError) as info:
            tuner.tune_program(two_op_program)
        assert (
            "(differing: backend, batch_parallelism, faults, max_retries, pool, "
            "resilient, search_revision, tie_break)" in str(info.value)
        )

    @pytest.mark.parametrize("searcher", ["surf", "random", "exhaustive"])
    def test_mid_run_checkpoint_before_the_revision_is_refused(
        self, tmp_path, searcher
    ):
        # Mid-run state.json files written before the search revision was
        # keyed: their fingerprints carry the retired acquisition and
        # batch_parallelism settings (max_variants compares equal: absent
        # reads as None, its old default) and the per-id describe hash of
        # the pool, and no search_revision.
        ck = tmp_path / "ck"
        ck.mkdir()
        shutil.copy(
            GOLDEN / f"checkpoint_{searcher}_mid_run_one_rig.json",
            ck / "state.json",
        )
        tuner = Autotuner(
            K20, seed=3, max_evaluations=20, batch_size=5, pool_size=200,
            searcher=searcher, checkpoint_dir=ck, resume=True,
        )
        with pytest.raises(CheckpointError) as info:
            get_workload("lg3").tune(tuner)
        assert (
            "(differing: acquisition, batch_parallelism, pool, search_revision)"
            in str(info.value)
        )

    @pytest.mark.parametrize("searcher", ["surf", "random", "exhaustive"])
    def test_mid_run_checkpoint_before_the_one_rig_is_refused(
        self, tmp_path, searcher
    ):
        # Mid-run state.json files whose fingerprints carried the retired
        # resilient, max_retries and batch_parallelism settings, a seeded
        # fault-free spec and the per-id pool hash, and no backend or
        # search_revision: the same search, under other keys.
        ck = tmp_path / "ck"
        ck.mkdir()
        shutil.copy(
            GOLDEN / f"checkpoint_{searcher}_mid_run.json", ck / "state.json"
        )
        tuner = Autotuner(
            K20, seed=3, max_evaluations=20, batch_size=5, pool_size=200,
            searcher=searcher, checkpoint_dir=ck, resume=True,
        )
        with pytest.raises(CheckpointError) as info:
            get_workload("lg3").tune(tuner)
        assert (
            "(differing: backend, batch_parallelism, faults, max_retries, pool, "
            "resilient, search_revision)" in str(info.value)
        )

    def test_mid_run_checkpoint_of_surf_resumes_bitwise(
        self, tmp_path, monkeypatch
    ):
        # A SURF state.json written mid-run: resuming it must finish with
        # the uninterrupted run's champion, history and simulated search
        # seconds.
        settings = dict(seed=3, max_evaluations=20, batch_size=5, pool_size=200)
        lg3 = get_workload("lg3")
        reference = lg3.tune(Autotuner(K20, **settings))
        ck = tmp_path / "ck"
        ck.mkdir()
        shutil.copy(
            GOLDEN / "checkpoint_surf_mid_run_rev1.json", ck / "state.json"
        )
        scored = []
        evaluate_one = ConfigurationEvaluator.evaluate_one

        def counting(self, config):
            scored.append(config.global_id)
            return evaluate_one(self, config)

        monkeypatch.setattr(ConfigurationEvaluator, "evaluate_one", counting)
        resumed = lg3.tune(
            Autotuner(K20, **settings, checkpoint_dir=ck, resume=True)
        )
        # Only the ten points the checkpoint had not reached are scored.
        history = resumed.search.history
        assert len(history) == 20
        assert sorted(scored) == sorted(c.global_id for c, _y in history[10:])
        assert _outcome(resumed) == _outcome(reference)

    @pytest.mark.parametrize("searcher,evaluations", [
        ("random", 20), ("exhaustive", 200),
    ])
    def test_mid_run_checkpoint_of_a_baseline_resumes_bitwise(
        self, tmp_path, monkeypatch, searcher, evaluations
    ):
        # Random and exhaustive state.json files written mid-run (10
        # points scored).
        settings = dict(
            seed=3, max_evaluations=20, batch_size=5, pool_size=200,
            searcher=searcher,
        )
        lg3 = get_workload("lg3")
        reference = lg3.tune(Autotuner(K20, **settings))
        ck = tmp_path / "ck"
        ck.mkdir()
        shutil.copy(
            GOLDEN / f"checkpoint_{searcher}_mid_run_rev1.json",
            ck / "state.json",
        )
        scored = []
        evaluate_one = ConfigurationEvaluator.evaluate_one

        def counting(self, config):
            scored.append(config.global_id)
            return evaluate_one(self, config)

        monkeypatch.setattr(ConfigurationEvaluator, "evaluate_one", counting)
        resumed = lg3.tune(
            Autotuner(K20, **settings, checkpoint_dir=ck, resume=True)
        )
        history = resumed.search.history
        assert len(history) == evaluations
        assert sorted(scored) == sorted(c.global_id for c, _y in history[10:])
        assert _outcome(resumed) == _outcome(reference)
