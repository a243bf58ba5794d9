"""Multi-core plumbing for the array-native search core.

The SURF inner loop's full-pool router descent is embarrassingly
parallel (independent per row), but numpy's gather/fancy-indexing kernels
hold the GIL, so threads cannot scale it.  This module provides the
process-worker infrastructure instead:

``SharedArray`` / ``attach_shared``
    Numpy arrays backed by ``multiprocessing.shared_memory``.  The parent
    puts the pool's rank codes in a segment; workers attach by name and
    never receive a pickled pool.  Attachments are cached per process.

``SearchWorkerPool``
    A persistent ``ProcessPoolExecutor`` (fork start method where the
    platform offers it — workers inherit the parent's imports for free)
    sized to ``workers`` processes, reused across every predict pass of
    one search run.

``SearchWorkerContext``
    The per-run bundle the driver threads through: the worker pool, the
    registry of owned segments (so teardown is exception-safe), and
    ``run_chunks`` — submit one task per contiguous chunk, collect results
    in submission order, and record a child tracer span per chunk under
    the caller's phase span.

Bitwise contract: a predict pass partitions its rows into contiguous
chunks, computes each chunk exactly as the serial code would, and
reassembles in chunk order.  Because the serial kernels are per-row
independent, the result is bitwise-identical for *any* worker count —
``search_workers`` is a throughput knob, never a semantics knob.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import multiprocessing
from multiprocessing import shared_memory

import numpy as np

__all__ = [
    "SharedArray",
    "SearchWorkerPool",
    "SearchWorkerContext",
    "attach_shared",
    "chunk_ranges",
    "resolve_search_workers",
]


def resolve_search_workers(value: int | None) -> int:
    """``value`` floored at 1; ``None`` means 1 (serial)."""
    return 1 if value is None else max(1, int(value))


def chunk_ranges(total: int, parts: int) -> list[tuple[int, int]]:
    """Split ``[0, total)`` into at most ``parts`` contiguous, non-empty,
    near-equal ranges (first ``total % parts`` ranges get the extra row)."""
    parts = max(1, min(int(parts), int(total)))
    base, extra = divmod(int(total), parts)
    ranges = []
    start = 0
    for i in range(parts):
        stop = start + base + (1 if i < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


# ----------------------------------------------------------------------
# Shared-memory arrays.

def _record_cleanup_error(stage: str, segment: str, exc: BaseException) -> None:
    """Count a swallowed shared-memory teardown failure on the tracer.

    Teardown must stay best-effort (a dead worker may already have
    unlinked a segment; a double-``close`` is harmless), but the expected
    failure set is exactly ``(BufferError, FileNotFoundError, OSError)``
    — anything else is a programming error and now propagates.  The
    expected ones emit a ``search.shm_cleanup_error`` event so traced
    runs can count leaks/use-after-free signals instead of losing them.
    """
    from repro.obs.tracer import get_tracer

    tracer = get_tracer()
    if tracer.enabled:
        tracer.event(
            "search.shm_cleanup_error",
            category="search",
            stage=stage,
            segment=segment,
            error=f"{type(exc).__name__}: {exc}",
        )

#: Per-process cache of attached segments: name -> (SharedMemory, ndarray).
#: Keeps worker attach cost to one dict lookup per task and keeps the
#: mapped segment alive for the worker's lifetime.
_ATTACHED: dict[str, tuple[shared_memory.SharedMemory, np.ndarray]] = {}


def attach_shared(spec: tuple[str, tuple[int, ...], str]) -> np.ndarray:
    """Attach (or re-use) the shared segment described by ``spec`` and
    return the ndarray view.  Safe to call in parent and workers alike."""
    name, shape, dtype = spec
    cached = _ATTACHED.get(name)
    if cached is not None:
        return cached[1]
    # Note on the resource tracker: CPython registers shared memory on
    # attach as well as create, but pool workers (fork or spawn) inherit
    # the parent's tracker process, whose per-type cache is a set — the
    # worker-side re-registration collapses into the parent's entry and
    # the single unlink at context teardown clears it.  Unregistering
    # here would double-remove and make the tracker log KeyErrors.
    shm = shared_memory.SharedMemory(name=name)
    array = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
    _ATTACHED[name] = (shm, array)
    return array


class SharedArray:
    """A parent-owned numpy array in a shared-memory segment.

    ``spec`` is the picklable handle workers pass to :func:`attach_shared`.
    The parent must keep the instance alive while workers use it and call
    :meth:`unlink` when done (``SearchWorkerContext`` automates both).
    """

    def __init__(self, source: np.ndarray | None = None, *,
                 shape: tuple[int, ...] | None = None,
                 dtype=None) -> None:
        if source is not None:
            shape = source.shape
            dtype = source.dtype
        if shape is None or dtype is None:
            raise ValueError("SharedArray needs a source array or shape+dtype")
        dtype = np.dtype(dtype)
        nbytes = max(1, int(np.prod(shape)) * dtype.itemsize)
        self._shm = shared_memory.SharedMemory(create=True, size=nbytes)
        self.array = np.ndarray(shape, dtype=dtype, buffer=self._shm.buf)
        if source is not None:
            self.array[...] = source
        self.spec = (self._shm.name, tuple(shape), dtype.str)

    def close(self) -> None:
        # Drop the mapping before closing: an ndarray view outliving the
        # closed mmap would be a use-after-free.
        self.array = None
        try:
            self._shm.close()
        except (BufferError, FileNotFoundError, OSError) as exc:
            _record_cleanup_error("close", self._shm.name, exc)

    def unlink(self) -> None:
        self.close()
        try:
            self._shm.unlink()
        except (BufferError, FileNotFoundError, OSError) as exc:
            _record_cleanup_error("unlink", self._shm.name, exc)


# ----------------------------------------------------------------------
# Worker pool and per-run context.

def _preferred_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class SearchWorkerPool:
    """A persistent process pool for the search core's parallel stages.

    One pool serves a whole search run: every predict pass reuses the
    same worker processes, so per-pass overhead is one pickle round-trip
    of the small task payload (router tables — the pool's codes travel
    via shared memory).
    """

    def __init__(self, workers: int) -> None:
        self.workers = max(1, int(workers))
        self._executor: ProcessPoolExecutor | None = None

    def executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=_preferred_context()
            )
        return self._executor

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None


class SearchWorkerContext:
    """Everything one parallel search run owns: pool + shared segments.

    Created by the driver when ``search_workers > 1`` (and shared memory
    is actually available), handed down to the stages that fan out, and
    closed in a ``finally`` so segments never leak past the run.
    """

    def __init__(self, workers: int) -> None:
        self.workers = max(2, int(workers))
        self.pool = SearchWorkerPool(self.workers)
        self._segments: list[SharedArray] = []

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, workers: int) -> "SearchWorkerContext | None":
        """Build a context, or None when parallelism cannot help/work:
        ``workers <= 1``, or shared memory unavailable on this host."""
        if workers is None or int(workers) <= 1:
            return None
        try:
            probe = shared_memory.SharedMemory(create=True, size=1)
            probe.close()
            probe.unlink()
        except (BufferError, FileNotFoundError, OSError) as exc:
            _record_cleanup_error("probe", "<capability-probe>", exc)
            return None
        return cls(int(workers))

    # ------------------------------------------------------------------
    def share(self, array: np.ndarray) -> SharedArray:
        """Copy ``array`` into a context-owned shared segment."""
        shared = SharedArray(array)
        self._segments.append(shared)
        return shared

    # ------------------------------------------------------------------
    def run_chunks(self, fn, payloads: list, span_name: str = "",
                   parent=None) -> list:
        """Run ``fn(*payload)`` for every payload on the worker pool and
        return results in payload order.

        Each task's wall time becomes a child span of ``parent`` (when a
        real tracer is ambient): the span opens at submission and closes
        when the task's result is collected, with the worker-measured
        compute seconds and worker pid attached from the task's returned
        ``(result, meta)`` pair.
        """
        from repro.obs.tracer import get_tracer

        executor = self.pool.executor()
        futures = [executor.submit(fn, *payload) for payload in payloads]
        tracer = get_tracer()
        traced = tracer.enabled and span_name
        results = []
        for i, future in enumerate(futures):
            if traced:
                with tracer.span(
                    span_name, category="search", parent=parent, chunk=i
                ) as sp:
                    result, meta = future.result()
                    sp.set(**meta)
            else:
                result, meta = future.result()
            results.append(result)
        return results

    # ------------------------------------------------------------------
    def close(self) -> None:
        self.pool.close()
        for segment in self._segments:
            segment.unlink()
        self._segments.clear()

    def __enter__(self) -> "SearchWorkerContext":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
