"""The Barracuda driver: tune a contraction (or TCR program) for one GPU.

Reproduces the Fig. 1 flow end to end:

1. **OCTOPI** — enumerate strength-reduction variants and lower each to a
   TCR program (skipped when the user hands in a TCR program directly, as
   for Nekbone's ``local_grad3``, which is already a fixed operation
   sequence).
2. **TCR** — run the GPU decision algorithm per variant, producing one
   :class:`~repro.tcr.space.ProgramSpace` each; union them into the
   :class:`~repro.tcr.space.TuningSpace`.
3. **SURF** (or a baseline searcher) — draw a configuration pool, search it
   against the simulator objective, return the champion with its timing
   breakdown and the simulated search wall-clock (Table II's "Search").
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from pathlib import Path

from repro.autotune.settings import TuneSettings
from repro.core.contraction import Contraction
from repro.core.pipeline import compile_contraction
from repro.errors import SearchError
from repro.gpusim.arch import GPUArch
from repro.gpusim.calibration import DEFAULT_GPU_CAL, GPUCalibration
from repro.gpusim.perfmodel import GPUPerformanceModel, ProgramTiming
from repro.gpusim.timing_table import ProgramTimingTable
from repro.obs.exporters import write_chrome_trace
from repro.obs.manifest import MANIFEST_FILENAME, RunManifest, fingerprint_of
from repro.obs.tracer import Tracer, get_tracer, use_tracer
from repro.surf.checkpoint import CheckpointManager, SearchCheckpointer
from repro.surf.evaluator import ConfigurationEvaluator
from repro.surf.exhaustive import ExhaustiveSearch
from repro.surf.pool import SpacePool, as_pool
from repro.surf.random_search import RandomSearch
from repro.surf.search import SearchResult, SURFSearch
from repro.surf.separable import SeparableExhaustiveSearch
from repro.surf.telemetry import SearchTelemetry
from repro.tcr.decision import decide_search_space
from repro.tcr.program import TCRProgram
from repro.tcr.space import ProgramConfig, TuningSpace
from repro.util.rng import spawn_rng, stable_hash

__all__ = ["TuneResult", "Autotuner"]


@dataclass
class TuneResult:
    """Outcome of one autotuning run."""

    name: str
    arch: GPUArch
    best_config: ProgramConfig
    best_program: TCRProgram
    timing: ProgramTiming
    search: SearchResult
    space_size: int
    pool_size: int
    variant_count: int
    #: True when the run was served from the content-addressed result
    #: store (zero model evaluations; champion/history replayed bitwise).
    store_hit: bool = False

    @property
    def seconds(self) -> float:
        return self.timing.total_s

    @property
    def gflops(self) -> float:
        return self.timing.gflops

    @property
    def search_seconds(self) -> float:
        return self.search.simulated_wall_seconds

    def summary(self) -> str:
        return (
            f"{self.name} on {self.arch.name}: {self.gflops:.2f} GFlops "
            f"({self.seconds * 1e6:.1f} us), space={self.space_size}, "
            f"evals={self.search.evaluations}, "
            f"search={self.search_seconds:.1f}s (simulated)"
        )


def _retag_variant(config: ProgramConfig, variant_index: int) -> ProgramConfig:
    """Rewrite a sub-run config's variant index to the true OCTOPI index."""
    return ProgramConfig(
        variant_index=variant_index,
        kernels=config.kernels,
        global_id=config.global_id,
    )


def _make_searcher(
    kind: str,
    batch_size: int,
    max_evaluations: int,
    seed: int,
    acquisition: str = "mean",
):
    if kind == "surf":
        return SURFSearch(
            batch_size=batch_size,
            max_evaluations=max_evaluations,
            seed=seed,
            acquisition=acquisition,
        )
    if kind == "random":
        return RandomSearch(
            batch_size=batch_size, max_evaluations=max_evaluations, seed=seed
        )
    if kind == "exhaustive":
        return ExhaustiveSearch(batch_size=batch_size)
    raise SearchError(
        f"unknown searcher {kind!r} (surf|random|exhaustive|sweep)"
    )


class Autotuner:
    """Tunes contractions/programs for a GPU architecture.

    ``Autotuner(arch, calibration=..., **settings)``: ``arch`` is the
    target device, ``calibration`` the performance model's constants, and
    every other keyword is a field of
    :class:`~repro.autotune.settings.TuneSettings` — which also declares,
    per setting, whether it changes results (and so the result-store key,
    the manifest and the checkpoint fingerprint).  The settings are
    available as :attr:`settings`.

    ``per_variant=True`` reproduces the paper's OCTOPI flow for
    multi-variant contractions: each algebraic version is autotuned with
    its own search budget ("OCTOPI generates and sends all versions to
    CUDA-CHiLL for autotuning") and the champions compete.  This is what
    makes Eqn.(1)'s search the longest in Table II: 15 variants × the
    per-version search cost.  The default searches the union space with
    one budget.
    """

    def __init__(
        self,
        arch: GPUArch,
        calibration: GPUCalibration = DEFAULT_GPU_CAL,
        **settings,
    ) -> None:
        self.arch = arch
        self.settings = TuneSettings(**settings)
        self.model = GPUPerformanceModel(arch, calibration)
        self._result_store_obj = None

    # ------------------------------------------------------------------
    def _result_store(self):
        """The instance-wide result store, or None when disabled.

        Imported lazily: :mod:`repro.serve` wraps this module (the
        service drives Autotuners), so a top-level import would cycle.
        """
        spec = self.settings.result_store
        if spec is None:
            return None
        if self._result_store_obj is None:
            from repro.serve.store import ResultStore

            self._result_store_obj = (
                spec if isinstance(spec, ResultStore) else ResultStore(spec)
            )
        return self._result_store_obj

    # ------------------------------------------------------------------
    def _build_evaluator(self, programs: list[TCRProgram]) -> ConfigurationEvaluator:
        """The simulated rig of one search: a fresh evaluator per search, so
        no call's accounting depends on what an earlier call evaluated."""
        settings = self.settings
        return ConfigurationEvaluator(
            programs,
            self.model,
            seed=settings.seed,
            noisy=settings.noisy,
            include_transfer=settings.include_transfer,
            batch_parallelism=settings.batch_parallelism,
            faults=settings.faults,
        )

    # ------------------------------------------------------------------
    @contextmanager
    def _observe(self, name: str):
        """Observation scope of one public ``tune_*`` call.

        With the ``trace`` setting (and no ambient tracer already active —
        e.g. the CLI installs one around workload loading so DSL-parse
        spans are captured), a fresh :class:`~repro.obs.tracer.Tracer`
        becomes ambient for the call; on exit the collected spans are
        exported as a Chrome trace, even when the run failed.  Without
        ``trace`` the ambient tracer (no-op by default) is used as-is.
        """
        ambient = get_tracer()
        created = None
        trace = self.settings.trace
        if trace is not None and not ambient.enabled:
            created = Tracer()
        tracer = created if created is not None else ambient
        try:
            with ExitStack() as stack:
                if created is not None:
                    stack.enter_context(use_tracer(created))
                stack.enter_context(
                    tracer.span(
                        "tune.run", category="tune",
                        workload=name, arch=self.arch.name,
                        searcher=self.settings.searcher, seed=self.settings.seed,
                    )
                )
                yield tracer
        finally:
            if trace is not None:
                write_chrome_trace(tracer.finished(), trace)

    def run_manifest(self, name: str, programs: list[TCRProgram]) -> RunManifest:
        """The provenance manifest of a run over ``programs``."""
        from repro import __version__

        return RunManifest(
            name=name,
            package_version=__version__,
            arch=self.arch.name,
            arch_fingerprint=fingerprint_of(self.arch),
            calibration_fingerprint=fingerprint_of(self.model.cal),
            dsl_fingerprint=format(
                stable_hash("dsl", [p.to_text() for p in programs]), "016x"
            ),
            seed=self.settings.seed,
            searcher=self.settings.searcher,
            settings=dict(self.settings.manifest_settings),
        )

    def _write_manifests(self, name: str, programs: list[TCRProgram]) -> None:
        """Write ``manifest.json`` next to the trace and the checkpoints."""
        destinations = []
        if self.settings.trace is not None:
            destinations.append(self.settings.trace.parent / MANIFEST_FILENAME)
        if self.settings.checkpoint_dir is not None:
            destinations.append(self.settings.checkpoint_dir / MANIFEST_FILENAME)
        if not destinations:
            return
        manifest = self.run_manifest(name, programs)
        for path in destinations:
            manifest.write(path)

    # ------------------------------------------------------------------
    def tune_contraction(self, contraction: Contraction) -> TuneResult:
        """Full pipeline: OCTOPI variants, then search across all of them."""
        with self._observe(contraction.name):
            compiled = compile_contraction(
                contraction, max_variants=self.settings.max_variants
            )
            programs = [v.program for v in compiled.variants]
            self._write_manifests(contraction.name, programs)
            return self._tune_stored(contraction.name, programs)

    def tune_program(self, program: TCRProgram) -> TuneResult:
        """Tune a fixed TCR program (single variant)."""
        with self._observe(program.name):
            self._write_manifests(program.name, [program])
            return self._tune_stored(program.name, [program])

    def tune_programs(self, name: str, programs: list[TCRProgram]) -> TuneResult:
        """Tune an explicit set of alternative programs (custom variants)."""
        with self._observe(name):
            self._write_manifests(name, programs)
            return self._tune_stored(name, programs)

    # ------------------------------------------------------------------
    def _tune_stored(self, name: str, programs: list[TCRProgram]) -> TuneResult:
        """Serve from the result store when possible; store on a miss.

        The store key is derived from the run manifest — the same
        fingerprints the provenance layer writes — so "identical
        request" means exactly "a request whose search would replay
        bitwise".  A hit reconstructs the champion and full history from
        the stored record with **zero** model evaluations (the winning
        program's timing is recomputed deterministically from the
        champion config, which no noise stream touches).
        """
        store = self._result_store()
        if store is None:
            return self._tune(name, programs)
        from repro.serve.store import StoreKey, pack_tune_record, unpack_search

        key = StoreKey.from_manifest(self.run_manifest(name, programs))
        tracer = get_tracer()
        record = store.get(key)
        if record is not None:
            tracer.event(
                "store.hit", category="store",
                workload=name, digest=key.digest(),
            )
            search = unpack_search(record["search"])
            # A fresh empty telemetry: totals() reports 0 evaluations,
            # which is literally what this request cost.
            search.telemetry = SearchTelemetry()
            best = search.best_config
            best_program = programs[best.variant_index]
            return TuneResult(
                name=name,
                arch=self.arch,
                best_config=best,
                best_program=best_program,
                timing=self.model.program_timing(best_program, best),
                search=search,
                space_size=int(record["space_size"]),
                pool_size=int(record["pool_size"]),
                variant_count=int(record["variant_count"]),
                store_hit=True,
            )
        tracer.event(
            "store.miss", category="store", workload=name, digest=key.digest()
        )
        result = self._tune(name, programs)
        store.put(key, pack_tune_record(result))
        return result

    def _run_fingerprint(self, name: str, pool, space_size: int) -> dict:
        """Identity of a run for checkpoint-resume safety: the run's own
        identity plus every keyed setting.  Resuming under a different
        fingerprint is refused."""
        return {
            "name": name,
            "arch": self.arch.name,
            "space_size": space_size,
            "pool": as_pool(pool).fingerprint(),
            **self.settings.keyed,
        }

    def _checkpointer(
        self,
        checkpoint_dir: Path | None,
        name: str,
        pool,
        space_size: int,
        evaluator: ConfigurationEvaluator | None,
    ) -> SearchCheckpointer | None:
        """Build the per-run checkpoint handle; load prior state on resume."""
        if checkpoint_dir is None:
            return None
        manager = CheckpointManager(
            checkpoint_dir, self._run_fingerprint(name, pool, space_size)
        )
        checkpointer = SearchCheckpointer(
            manager,
            extra=(
                (lambda: {"evaluator_counters": evaluator.counters()})
                if evaluator is not None
                else None
            ),
        )
        if self.settings.resume:
            payload = manager.load()  # raises CheckpointError on mismatch
            if payload is not None:
                checkpointer.resume_state = payload.get("searcher")
                if evaluator is not None:
                    evaluator.restore_counters(
                        payload.get("extra", {}).get("evaluator_counters", {})
                    )
        return checkpointer

    # ------------------------------------------------------------------
    def _tune(
        self,
        name: str,
        programs: list[TCRProgram],
        checkpoint_dir: Path | None = None,
    ) -> TuneResult:
        settings = self.settings
        if checkpoint_dir is None:
            checkpoint_dir = settings.checkpoint_dir
        if settings.per_variant and len(programs) > 1:
            return self._tune_per_variant(name, programs)
        tracer = get_tracer()
        spaces = [
            decide_search_space(
                p, variant_index=i, backend=settings.backend, model=self.model
            )
            for i, p in enumerate(programs)
        ]
        tuning_space = TuningSpace(spaces)
        if settings.searcher == "sweep":
            # The separable sweep reads the tables directly — no pool, no
            # evaluator; it optimizes the noise-free modeled time.  The
            # kernel tables an ``auto`` decision built come with its space.
            tables = []
            for p, s in zip(programs, spaces):
                with tracer.span(
                    "table.build", category="table", program=p.name
                ) as sp:
                    table = ProgramTimingTable.build(self.model, p, s)
                    if tracer.enabled:
                        reused = sum(
                            k is t for k, t in zip(table.kernels, s.tables)
                        )
                        sp.set(built=len(table.kernels) - reused, reused=reused)
                tables.append(table)
            searcher = SeparableExhaustiveSearch(
                tables,
                include_transfer=settings.include_transfer,
                tuning_space=tuning_space,
            )
            pool = []
            checkpointer = self._checkpointer(
                checkpoint_dir, name, pool, tuning_space.size(), None
            )
            with tracer.span(
                "search.run", category="search",
                searcher=settings.searcher, workload=name,
            ):
                result = searcher.search(
                    telemetry=SearchTelemetry(), checkpointer=checkpointer
                )
        else:
            with tracer.span("space.pool", category="space") as sp:
                rng = spawn_rng(settings.seed, "pool", name, self.arch.name)
                # Ids only — configs materialize lazily per evaluation batch.
                pool = SpacePool(
                    tuning_space,
                    tuning_space.sample_ids(
                        min(settings.pool_size, tuning_space.size()), rng
                    ),
                )
                if tracer.enabled:
                    sp.set(pool=len(pool), space=tuning_space.size())
            # Wall-clock accounting defaults to sequential
            # (batch_parallelism=1): the paper's ~4 s/variant search times
            # for Lg3t imply one rig timing one variant at a time, with
            # batching used for model refresh cadence.
            evaluator = self._build_evaluator(programs)
            searcher = _make_searcher(
                settings.searcher, settings.batch_size, settings.max_evaluations,
                settings.seed, acquisition=settings.acquisition,
            )
            checkpointer = self._checkpointer(
                checkpoint_dir, name, pool, tuning_space.size(), evaluator
            )
            with tracer.span(
                "search.run", category="search",
                searcher=settings.searcher, workload=name,
            ):
                result = searcher.search(
                    pool,
                    evaluator.evaluate_batch,
                    wall_seconds=lambda: evaluator.simulated_wall_seconds,
                    telemetry=SearchTelemetry(counters=evaluator.counters),
                    checkpointer=checkpointer,
                )
        best = result.best_config
        best_program = programs[best.variant_index]
        timing = self.model.program_timing(best_program, best)
        return TuneResult(
            name=name,
            arch=self.arch,
            best_config=best,
            best_program=best_program,
            timing=timing,
            search=result,
            space_size=tuning_space.size(),
            pool_size=len(pool),
            variant_count=len(programs),
        )

    def _tune_per_variant(self, name: str, programs: list[TCRProgram]) -> TuneResult:
        """Autotune every OCTOPI variant independently; champions compete."""
        results: list[TuneResult] = []
        tracer = get_tracer()
        checkpoint_dir = self.settings.checkpoint_dir
        for i, program in enumerate(programs):
            # Each variant's search state lives in its own subdirectory.
            sub_dir = checkpoint_dir / f"v{i}" if checkpoint_dir is not None else None
            with tracer.span("tune.variant", category="tune", variant=i):
                sub = self._tune(f"{name}_v{i}", [program], checkpoint_dir=sub_dir)
            # Re-tag the winning config — and every history entry — with the
            # real variant index: each sub-run sees its program as variant 0,
            # so without re-tagging the merged history would attribute every
            # evaluation to the first variant.
            cfg = _retag_variant(sub.best_config, i)
            search = SearchResult(
                searcher=sub.search.searcher,
                best_config=cfg,
                best_objective=sub.search.best_objective,
                history=[
                    (_retag_variant(c, i), y) for c, y in sub.search.history
                ],
                evaluations=sub.search.evaluations,
                simulated_wall_seconds=sub.search.simulated_wall_seconds,
                telemetry=sub.search.telemetry,
            )
            results.append(
                TuneResult(
                    name=sub.name,
                    arch=sub.arch,
                    best_config=cfg,
                    best_program=program,
                    timing=sub.timing,
                    search=search,
                    space_size=sub.space_size,
                    pool_size=sub.pool_size,
                    variant_count=1,
                )
            )
        winner = min(results, key=lambda r: r.seconds)
        total_wall = sum(r.search_seconds for r in results)
        total_evals = sum(r.search.evaluations for r in results)
        search = SearchResult(
            searcher=winner.search.searcher,
            best_config=winner.best_config,
            best_objective=winner.search.best_objective,
            history=[h for r in results for h in r.search.history],
            evaluations=total_evals,
            simulated_wall_seconds=total_wall,
            telemetry=SearchTelemetry.merged(r.search.telemetry for r in results),
        )
        return TuneResult(
            name=name,
            arch=self.arch,
            best_config=winner.best_config,
            best_program=winner.best_program,
            timing=winner.timing,
            search=search,
            space_size=sum(r.space_size for r in results),
            pool_size=sum(r.pool_size for r in results),
            variant_count=len(programs),
        )
