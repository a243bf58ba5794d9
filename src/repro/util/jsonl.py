"""Crash-safe file writes: one atomic-append and one atomic-replace primitive.

The append-only persistent store in this package — the content-addressed
result store's JSONL shards — may be written by many independent
processes at once.  Its appends route through :func:`atomic_append_jsonl`:
the serialized line is flushed in a **single** ``os.write`` on an
``O_APPEND`` file descriptor, so concurrent writers can never interleave
*within* a line — the kernel serializes the offset update with the data.
(A buffered ``file.write`` gives no such guarantee: lines longer than
the stream's buffer are split across multiple syscalls and two processes
can shear each other's records.)

Loading is corruption-tolerant: undecodable lines (including the
truncated final line a crash mid-append can leave) are counted, never
fatal, and :func:`report_corrupt_lines` makes a nonzero count *visible* —
a ``CorruptLinesWarning`` plus, when a tracer is active, a
``store.corrupt_lines`` event — instead of silently shrinking the store.

Files that are rewritten whole — the checkpoint ``state.json``, a
compacted result-store shard, a run's ``manifest.json`` — go through
:func:`replace_atomically` instead: a reader (or a resume after a kill at
any instant) sees the previous contents or the new ones, never a torn
file.
"""

from __future__ import annotations

import json
import os
import threading
import warnings
from pathlib import Path
from typing import Any

__all__ = [
    "CorruptLinesWarning",
    "atomic_append_jsonl",
    "load_jsonl",
    "replace_atomically",
    "report_corrupt_lines",
]


class CorruptLinesWarning(UserWarning):
    """A JSONL store was loaded with undecodable lines skipped."""


def atomic_append_jsonl(path: str | Path, obj: Any) -> int:
    """Append ``obj`` as one JSON line via a single ``O_APPEND`` write.

    Creates the file (and parent directory) if needed.  Returns the
    number of bytes written.  With ``O_APPEND``, each ``os.write`` is
    atomic with respect to the file offset, so concurrent appenders in
    other threads or processes cannot interleave inside the line.

    When the file does not end in a newline — a crash left a torn final
    line — the write starts with one, so the torn line stays the only
    casualty instead of swallowing this record too.  If another writer
    completes a line in between, the cost is one blank line, which
    :func:`load_jsonl` skips.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = (json.dumps(obj) + "\n").encode("utf-8")
    fd = os.open(str(path), os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            data = b"\n" + data
        written = os.write(fd, data)
        # A short write on a regular file is essentially impossible (disk
        # full aside); finish the line rather than drop bytes on the rare
        # platforms/filesystems where it can happen.
        while written < len(data):
            written += os.write(fd, data[written:])
    finally:
        os.close(fd)
    return written


def replace_atomically(path: str | Path, text: str) -> None:
    """Replace ``path``'s contents with ``text`` in one atomic step.

    ``text`` goes to ``.<name>.tmp.<pid>.<thread>`` in the same directory
    (created if needed), is fsynced, and is ``os.replace``\\ d over
    ``path``.  A write that fails removes its tmp file; a writer killed
    outright leaves it behind (``CheckpointManager.prune_tmp`` removes
    the checkpoint's by that pattern).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp.{os.getpid()}.{threading.get_ident()}")
    try:
        with tmp.open("w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_jsonl(path: str | Path) -> tuple[list[Any], int]:
    """Parse a JSONL file into ``(entries, corrupt_line_count)``.

    Blank lines are ignored; lines that fail to decode (torn, truncated,
    or garbage) are counted and skipped — schema validation of decoded
    entries is the caller's job (callers add their own rejects to the
    corrupt count before calling :func:`report_corrupt_lines`).
    """
    entries: list[Any] = []
    corrupt = 0
    with Path(path).open("r", encoding="utf-8", errors="replace") as handle:
        for line in handle:
            if not line.strip():
                continue
            try:
                entries.append(json.loads(line))
            except ValueError:
                corrupt += 1
    return entries, corrupt


def report_corrupt_lines(path: str | Path, count: int, kind: str) -> None:
    """Surface a nonzero corrupt-line count: warn + tracer event.

    Silent corruption is the failure mode this guards against — a store
    that quietly loads smaller than it was written serves misses with no
    signal anything is wrong.
    """
    if count <= 0:
        return
    # Imported here: repro.obs writes its manifests through this module.
    from repro.obs.tracer import get_tracer

    warnings.warn(
        f"{kind} store {path}: skipped {count} corrupt line(s) on load "
        "(torn/truncated appends or on-disk damage); entries on those "
        "lines are lost",
        CorruptLinesWarning,
        stacklevel=3,
    )
    tracer = get_tracer()
    if tracer.enabled:
        tracer.event(
            "store.corrupt_lines",
            category="store",
            path=str(path),
            kind=kind,
            count=count,
        )
