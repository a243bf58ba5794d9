"""Elastic coordinator/worker evaluation over a filesystem lease spool.

This is the one fan-out of the evaluation engine: any number of worker
*processes*, joining and leaving mid-run.  The coordinator — the search
driver's :class:`ElasticBatchEvaluator` — publishes each SURF batch as
leases on a :class:`~repro.surf.lease.LeaseSpool`; workers (spawned
locally by ``Autotuner(elastic=N)``, or attached externally via the
``repro elastic-workers`` CLI verb, possibly long after the run started)
claim leases, score them with the run's pickled evaluator snapshot, and
write result files the coordinator merges back.

**Determinism argument.**  ``evaluate_one`` is pure (no evaluator state
is touched), so *where* and *when* a configuration is scored cannot
change its outcome.  The coordinator reassembles each batch by
``(batch_index, lease ordinal)`` — every lease knows the batch slice it
covers — so however leases complete (out of order, twice after a
reclaim, on a worker vs. inline on the coordinator), the outcome list
handed to ``BatchEvaluator.evaluate_batch`` is element-for-element the
one a serial run would have produced.  All bookkeeping (counters, cache
insertion, wall accounting, rng) stays on the driver exactly as in the
serial path, so champion, history, rng stream, and checkpoint state are
bitwise-identical to serial.  ``batch_lanes`` deliberately delegates to
the inner stack: the simulated-rig wall model must not depend on how
many elastic workers happen to be alive, or checkpoints could not be
resumed under a different worker count.

**Liveness.**  Termination never depends on workers existing: the
coordinator evaluates any lease that stays unclaimed past the lease TTL
(immediately, when no worker heartbeat is live) inline through the same
inner stack.  Claims carry deadlines; a claim whose deadline passes is
reclaimed and the lease re-published to whoever gets there first.  A
worker hard-killed mid-lease (including by the injected worker-death
hazards of :mod:`repro.surf.faults`, which forked workers execute for
real) therefore delays its lease by at most one TTL.
"""

from __future__ import annotations

import os
import time
from collections.abc import Sequence
from pathlib import Path

from repro.obs.tracer import get_tracer
from repro.surf.evaluator import BatchEvaluator, EvalOutcome
from repro.surf.lease import Lease, LeaseSpool
from repro.surf.shared import _preferred_context
from repro.tcr.space import ProgramConfig

__all__ = ["ElasticBatchEvaluator", "worker_main", "spawn_workers"]


class ElasticBatchEvaluator(BatchEvaluator):
    """Fan batches out to an elastic pool of worker processes.

    Parameters
    ----------
    inner:
        The wrapped evaluator stack (what a serial run would use).  It is
        pickled once per run into the spool as the snapshot every worker
        scores with; the pool's ids are unique within a run, so a config
        is evaluated at most once and the snapshot can never serve a
        stale cache/quarantine view that the live driver would not.
    spool:
        The spool directory (a :class:`LeaseSpool` or a path).
    workers:
        Local worker processes to spawn lazily on the first batch.  Zero
        is valid: external workers (CLI verb) do the work, and with no
        workers at all the coordinator evaluates everything inline.
    lease_size:
        Configurations per lease (the elasticity granule).
    lease_ttl:
        Claim lifetime and steal threshold, seconds: an expired claim is
        reclaimed, and an unclaimed lease older than this is evaluated
        inline by the coordinator.
    """

    def __init__(
        self,
        inner: BatchEvaluator,
        spool: LeaseSpool | str | Path,
        workers: int = 0,
        lease_size: int = 1,
        lease_ttl: float = 30.0,
        poll_interval: float = 0.005,
    ) -> None:
        self.inner = inner
        self.spool = spool if isinstance(spool, LeaseSpool) else LeaseSpool(spool)
        self.workers = max(0, int(workers))
        self.lease_size = max(1, int(lease_size))
        self.lease_ttl = max(0.05, float(lease_ttl))
        self.poll_interval = max(0.001, float(poll_interval))
        self.evaluation_count = 0
        self.cache_hits = 0
        self.simulated_wall_seconds = 0.0
        # Operational stats — surfaced via stats()/tracing/spool_inspect,
        # deliberately NOT via extra_counters(): counters enter checkpoint
        # state, which must stay bitwise-identical to a serial run's.
        self.leases_published = 0
        self.leases_reclaimed = 0
        self.coordinator_evals = 0
        self.worker_results = 0
        self._evaluator_digest: str | None = None
        self._batch_index = 0
        self._procs: list = []

    # -- protocol passthrough ------------------------------------------
    @property
    def batch_lanes(self) -> int:
        return self.inner.batch_lanes

    def evaluate_one(self, config: ProgramConfig) -> EvalOutcome:
        return self.inner.evaluate_one(config)

    def record_outcome(self, outcome: EvalOutcome) -> None:
        self.inner.record_outcome(outcome)

    def stats(self) -> dict[str, int]:
        """Operational tallies of the elastic run (not checkpoint state)."""
        return {
            "leases_published": self.leases_published,
            "leases_reclaimed": self.leases_reclaimed,
            "coordinator_evals": self.coordinator_evals,
            "worker_results": self.worker_results,
        }

    # -- lifecycle ------------------------------------------------------
    def _ensure_started(self) -> None:
        if self._evaluator_digest is not None:
            return
        self._evaluator_digest = self.spool.init_coordinator(self.inner)
        if self.workers:
            self._procs = spawn_workers(
                self.spool.root,
                self.workers,
                lease_ttl=self.lease_ttl,
                name_prefix=f"local-{os.getpid()}",
            )

    def close(self) -> None:
        """Shut local workers down and release the spool for a next run."""
        if self._evaluator_digest is None:
            return
        self.spool.request_shutdown()
        for proc in self._procs:
            proc.join(timeout=10.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
        self._procs = []
        self._evaluator_digest = None

    # -- the coordinator loop ------------------------------------------
    def _run_batch(self, configs: Sequence[ProgramConfig]) -> list[EvalOutcome]:
        if not configs:
            return []
        self._ensure_started()
        assert self._evaluator_digest is not None
        batch = self._batch_index
        self._batch_index += 1
        tracer = get_tracer()
        leases: list[Lease] = []
        for ordinal, start in enumerate(range(0, len(configs), self.lease_size)):
            chunk = list(configs[start:start + self.lease_size])
            lease = self.spool.publish(
                batch, ordinal, start, chunk, self._evaluator_digest
            )
            leases.append(lease)
            self.leases_published += 1
            if tracer.enabled:
                tracer.event(
                    "elastic.lease", category="elastic",
                    lease=lease.lease_id, configs=len(chunk),
                )
        outcomes: list[EvalOutcome | None] = [None] * len(configs)
        with tracer.span(
            "elastic.merge", category="elastic", batch=batch, leases=len(leases)
        ) as sp:
            reclaims, inline = self._collect(leases, outcomes, tracer)
            if tracer.enabled:
                sp.set(reclaims=reclaims, coordinator_evals=inline)
        for lease in leases:
            self.spool.retire(lease)
        return outcomes  # type: ignore[return-value]  # every slot is filled

    def _collect(self, leases, outcomes, tracer) -> tuple[int, int]:
        """Poll until every lease has merged; returns (reclaims, inline)."""
        done: set[str] = set()
        reclaims = inline = 0
        while len(done) < len(leases):
            progressed = False
            now = time.time()
            for lease in leases:
                if lease.lease_id in done:
                    continue
                harvested = self.spool.read_result(lease)
                if harvested is not None:
                    result, record = harvested
                    outcomes[lease.start:lease.start + len(result)] = result
                    done.add(lease.lease_id)
                    progressed = True
                    self.worker_results += 1
                    if tracer.enabled:
                        tracer.event(
                            "elastic.claim", category="elastic",
                            lease=lease.lease_id,
                            worker=record.get("worker"), pid=record.get("pid"),
                        )
                    continue
                claim = self.spool.claim_info(lease.lease_id)
                if claim is not None and claim.get("deadline", 0.0) < now:
                    # The holder missed its deadline: presume it dead and
                    # void the claim.  If it was merely slow, it finishes
                    # anyway and writes a bitwise-identical result.
                    self.spool.reclaim(lease.lease_id)
                    self.leases_reclaimed += 1
                    reclaims += 1
                    if tracer.enabled:
                        tracer.event(
                            "elastic.reclaim", category="elastic",
                            lease=lease.lease_id,
                            worker=claim.get("worker"), pid=claim.get("pid"),
                        )
                    claim = None
                if claim is None:
                    age = now - lease.published_at
                    if age >= self.lease_ttl or not self.spool.live_workers(
                        self.lease_ttl
                    ):
                        # Inline fallback: the coordinator is the worker of
                        # last resort, so the run terminates with zero
                        # workers and under any churn.
                        result = [self.inner.evaluate_one(c) for c in lease.configs]
                        outcomes[lease.start:lease.start + len(result)] = result
                        done.add(lease.lease_id)
                        progressed = True
                        self.coordinator_evals += len(result)
                        inline += len(result)
            if not progressed:
                time.sleep(self.poll_interval)
        return reclaims, inline


# ----------------------------------------------------------------------
# The worker side


def worker_main(
    spool_dir: str | Path,
    worker_id: str | None = None,
    lease_ttl: float = 30.0,
    poll_interval: float = 0.02,
    max_leases: int | None = None,
    die_after_claims: int | None = None,
    idle_exit: float | None = None,
    safe: bool = False,
) -> int:
    """One elastic worker's whole life; returns leases completed.

    The loop is deliberately dumb: heartbeat, claim the first claimable
    lease, score it with the spool's evaluator snapshot, write the
    result, repeat.  It tolerates joining before the coordinator exists
    (polls until the spool is ready) and exits on the spool's shutdown
    marker, after ``max_leases`` completions, or after ``idle_exit``
    seconds with nothing to do.

    ``die_after_claims=N`` is the chaos hook: the worker hard-exits
    (``os._exit``) on winning its Nth claim — *holding* the claim, which
    is exactly the state a crashed rig node leaves behind — so tests and
    the CI smoke can exercise deadline reclaim deterministically.
    ``safe=True`` downgrades injected worker-death faults to raised
    (retryable) errors for this process, modeling a reliable node.
    """
    from repro.surf.faults import WORKER_DEATH_EXIT_CODE, disable_real_death

    if worker_id is None:
        worker_id = f"worker-{os.getpid()}"
    if safe:
        disable_real_death()
    spool = LeaseSpool(spool_dir)
    evaluator: object | None = None
    digest: str | None = None
    claims = finished = 0
    idle_since = time.time()
    while True:
        if spool.is_ready() and spool.shutdown_requested():
            break
        if idle_exit is not None and time.time() - idle_since > idle_exit:
            break
        if not spool.is_ready():
            time.sleep(poll_interval)
            continue
        spool.heartbeat(worker_id, leases_done=finished)
        lease_id = None
        for candidate in spool.list_claimable():
            if spool.try_claim(candidate, worker_id, lease_ttl):
                lease_id = candidate
                break
        if lease_id is None:
            time.sleep(poll_interval)
            continue
        idle_since = time.time()
        claims += 1
        if die_after_claims is not None and claims >= die_after_claims:
            os._exit(WORKER_DEATH_EXIT_CODE)
        lease = spool.load_lease(lease_id)
        if lease is None:
            spool.release_claim(lease_id, worker_id)
            continue
        if digest != lease.evaluator_digest:
            evaluator, digest = spool.load_evaluator()
            if digest != lease.evaluator_digest:
                # The lease belongs to a different snapshot generation than
                # the spool currently serves; let the coordinator sort it out.
                spool.release_claim(lease_id, worker_id)
                time.sleep(poll_interval)
                continue
        try:
            result = [evaluator.evaluate_one(c) for c in lease.configs]
        except Exception as exc:  # propagate to the coordinator, not the void
            spool.write_result(
                lease, [], worker_id, error=f"{type(exc).__name__}: {exc}"
            )
            spool.release_claim(lease_id, worker_id)
            raise
        spool.write_result(lease, result, worker_id)
        spool.release_claim(lease_id, worker_id)
        finished += 1
        spool.heartbeat(worker_id, leases_done=finished)
        if max_leases is not None and finished >= max_leases:
            break
    return finished


def spawn_workers(
    spool_dir: str | Path,
    count: int,
    lease_ttl: float = 30.0,
    poll_interval: float = 0.02,
    name_prefix: str = "local",
    **worker_kwargs,
) -> list:
    """Start ``count`` daemon worker processes on ``spool_dir``."""
    ctx = _preferred_context()
    procs = []
    for i in range(count):
        proc = ctx.Process(
            target=worker_main,
            args=(str(spool_dir),),
            kwargs={
                "worker_id": f"{name_prefix}-{i}",
                "lease_ttl": lease_ttl,
                "poll_interval": poll_interval,
                **worker_kwargs,
            },
            daemon=True,
        )
        proc.start()
        procs.append(proc)
    return procs
