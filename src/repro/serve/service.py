"""The tuning service: a multi-tenant job queue around the Autotuner.

One long-running :class:`TuningService` owns a shared
:class:`~repro.serve.store.ResultStore` and a pool of worker threads.
Clients :meth:`~TuningService.submit` :class:`TuneRequest`\\ s and get
job ids back immediately; each job moves through
``queued -> running -> done|failed`` and carries the
:class:`~repro.autotune.tuner.TuneResult` (or the error) when finished.
A still-queued job can be :meth:`~TuningService.cancel`\\ ed, and a
per-job deadline cancels work that waited in the queue too long to still
be wanted — both land in the terminal ``cancelled`` state without ever
occupying a worker.

Two platform behaviors make this serve heavy traffic cheaply:

* **Store hits are instant.**  Every worker's Autotuner is wired to the
  service's store, so a request whose content address is already present
  costs one compile + one O(1) lookup — zero model evaluations — and the
  job reports ``store_hit=True`` with ``evaluation_count == 0``.
* **Identical in-flight requests deduplicate.**  A request whose
  fingerprint matches a queued/running job returns *that* job's id
  instead of queuing duplicate work; once the first finishes, later
  identical submissions become store hits anyway.

Everything is observable: each job runs under a ``serve.job`` span and
the store wiring emits ``store.hit`` / ``store.miss`` events, so a traced
service run shows exactly which traffic was served from memory.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.errors import ServiceError
from repro.gpusim.arch import gpu_by_name
from repro.obs.tracer import get_tracer
from repro.serve.client import resolve_source
from repro.serve.store import ResultStore
from repro.util.rng import stable_hash

__all__ = ["JobState", "TuneRequest", "Job", "TuningService"]


class JobState:
    """Job lifecycle states (plain strings, JSON-friendly)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    #: Terminal state of a queued job that was cancelled (explicitly, or
    #: by its deadline expiring before a worker picked it up).  Running
    #: jobs are never interrupted: cancellation is a queue operation.
    CANCELLED = "cancelled"


@dataclass(frozen=True)
class TuneRequest:
    """One tuning request: what to tune, where, and with which settings."""

    source: str
    arch: str = "gtx980"
    #: Autotuner keyword settings (seed, max_evaluations, pool_size, ...)
    settings: dict = field(default_factory=dict)

    def fingerprint(self) -> str:
        """Stable identity for in-flight deduplication.

        Two requests with the same source text, arch, and settings would
        produce the same store key, so running both would be pure waste.
        """
        return format(
            stable_hash(
                "tune-request",
                self.source,
                self.arch,
                sorted(self.settings.items()),
            ),
            "016x",
        )


@dataclass
class Job:
    """One submitted request's lifecycle record."""

    id: str
    request: TuneRequest
    state: str = JobState.QUEUED
    result: object | None = None
    error: str | None = None
    #: served from the result store (set when done)
    store_hit: bool = False
    #: model evaluations this request actually cost (0 on a store hit)
    evaluation_count: int | None = None
    #: ``time.monotonic()`` instant after which a still-queued job is
    #: cancelled instead of run (None = no deadline)
    deadline_at: float | None = None
    done_event: threading.Event = field(default_factory=threading.Event, repr=False)

    @property
    def finished(self) -> bool:
        return self.state in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)

    def describe(self) -> str:
        tail = ""
        if self.state == JobState.DONE:
            hit = "hit" if self.store_hit else "miss"
            tail = (
                f" store={hit} evals={self.evaluation_count} "
                f"{self.result.gflops:.2f} GFlops"
            )
        elif self.state == JobState.FAILED:
            tail = f" error: {self.error}"
        elif self.state == JobState.CANCELLED and self.error:
            tail = f" ({self.error})"
        return (
            f"{self.id} {self.request.source}@{self.request.arch}: "
            f"{self.state}{tail}"
        )


class TuningService:
    """Threaded job queue serving tuning requests from a shared store.

    Parameters
    ----------
    store:
        The service's :class:`ResultStore` (or a directory path for one).
    workers:
        Concurrent tuning jobs.  Store appends are atomic and the
        in-memory store is lock-protected, so any count is safe.
    tuner_factory:
        Optional ``factory(request) -> Autotuner`` override (tests,
        custom calibrations).  The default builds
        ``Autotuner(gpu_by_name(request.arch), result_store=store,
        **request.settings)``.
    """

    def __init__(
        self,
        store: ResultStore | str,
        workers: int = 2,
        tuner_factory=None,
    ) -> None:
        self.store = store if isinstance(store, ResultStore) else ResultStore(store)
        self._tuner_factory = tuner_factory or self._default_tuner
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, workers), thread_name_prefix="tune-worker"
        )
        self._lock = threading.Lock()
        self._jobs: dict[str, Job] = {}
        self._inflight: dict[str, str] = {}  # request fingerprint -> job id
        self._next_id = 1
        self._closed = False

    # -- lifecycle ------------------------------------------------------
    def __enter__(self) -> "TuningService":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.shutdown()
        return False

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting submissions; optionally drain running jobs."""
        with self._lock:
            self._closed = True
        self._executor.shutdown(wait=wait)

    # -- submission -----------------------------------------------------
    def _default_tuner(self, request: TuneRequest):
        from repro.autotune.tuner import Autotuner

        return Autotuner(
            gpu_by_name(request.arch), result_store=self.store, **request.settings
        )

    def submit(self, request: TuneRequest, deadline: float | None = None) -> str:
        """Queue a request; returns its job id immediately.

        An identical request already queued or running returns the
        existing job's id (deduplication) rather than doubling the work.
        ``deadline`` (seconds from now) bounds the *queue* wait: a job
        still queued when it expires is cancelled instead of run, so a
        backlogged service never burns workers on answers nobody is
        waiting for anymore.
        """
        fingerprint = request.fingerprint()
        with self._lock:
            if self._closed:
                raise ServiceError("tuning service is shut down")
            existing = self._inflight.get(fingerprint)
            if existing is not None:
                get_tracer().event(
                    "serve.dedup", category="serve",
                    job=existing, fingerprint=fingerprint,
                )
                return existing
            job = Job(
                id=f"job-{self._next_id}",
                request=request,
                deadline_at=(
                    time.monotonic() + deadline if deadline is not None else None
                ),
            )
            self._next_id += 1
            self._jobs[job.id] = job
            self._inflight[fingerprint] = job.id
        self._executor.submit(self._run, job, fingerprint)
        return job.id

    def cancel(self, job_id: str) -> bool:
        """Cancel a still-queued job; True when the cancellation took.

        Running and finished jobs return False — cancellation is a queue
        operation, never an interruption (a half-run search would be
        wasted work *and* an inconsistent store).  A cancelled job is
        terminal: waiters wake immediately and an identical request
        submitted afterwards queues fresh work.
        """
        job = self.job(job_id)
        with self._lock:
            if job.state != JobState.QUEUED:
                return False
            job.state = JobState.CANCELLED
            job.error = "cancelled by client"
            fingerprint = job.request.fingerprint()
            if self._inflight.get(fingerprint) == job.id:
                del self._inflight[fingerprint]
        job.done_event.set()
        get_tracer().event("serve.cancel", category="serve", job=job.id)
        return True

    # -- execution ------------------------------------------------------
    def _run(self, job: Job, fingerprint: str) -> None:
        tracer = get_tracer()
        with self._lock:
            if job.state != JobState.QUEUED:
                # Cancelled while waiting for a worker; cancel() already
                # cleaned up and woke the waiters.
                return
            if job.deadline_at is not None and time.monotonic() > job.deadline_at:
                job.state = JobState.CANCELLED
                job.error = "deadline expired while queued"
                if self._inflight.get(fingerprint) == job.id:
                    del self._inflight[fingerprint]
                job.done_event.set()
                tracer.event("serve.deadline", category="serve", job=job.id)
                return
            job.state = JobState.RUNNING
        try:
            with tracer.span(
                "serve.job", category="serve",
                job=job.id, source=job.request.source, arch=job.request.arch,
            ):
                tuner = self._tuner_factory(job.request)
                kind, obj = resolve_source(job.request.source)
                result = (
                    tuner.tune_contraction(obj)
                    if kind == "contraction"
                    else tuner.tune_program(obj)
                )
            job.result = result
            job.store_hit = result.store_hit
            if result.store_hit:
                job.evaluation_count = 0
            elif result.search.telemetry is not None:
                job.evaluation_count = int(
                    result.search.telemetry.totals()["evaluations"]
                )
            else:
                job.evaluation_count = result.search.evaluations
            job.state = JobState.DONE
        except Exception as exc:  # jobs must never take the service down
            job.error = f"{type(exc).__name__}: {exc}"
            job.state = JobState.FAILED
        finally:
            with self._lock:
                if self._inflight.get(fingerprint) == job.id:
                    del self._inflight[fingerprint]
            job.done_event.set()

    # -- queries --------------------------------------------------------
    def job(self, job_id: str) -> Job:
        """The job record (live object; check ``state``/``finished``)."""
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job id {job_id!r}")
        return job

    def jobs(self) -> list[Job]:
        """All jobs in submission order."""
        with self._lock:
            return list(self._jobs.values())

    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until a job finishes; returns its record.

        Raises :class:`ServiceError` if the timeout expires first.
        """
        job = self.job(job_id)
        if not job.done_event.wait(timeout):
            raise ServiceError(
                f"timed out after {timeout}s waiting for {job_id} "
                f"(state: {job.state})"
            )
        return job

    def wait_all(self, timeout: float | None = None) -> list[Job]:
        """Wait for every submitted job; returns them in order.

        ``timeout`` is one shared deadline for the whole set, not a
        per-job allowance: N sequential waits share the same clock, so
        the call returns (or raises) within ``timeout`` seconds total.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        finished = []
        for job in self.jobs():
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            finished.append(self.wait(job.id, remaining))
        return finished
