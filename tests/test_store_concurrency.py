"""Multi-process concurrency smoke: many writers, one file, no torn lines.

N subprocesses hammer the same on-disk file, padded past any stdio buffer
size so a non-atomic append *would* shear.  The result store gets
overlapping keys (every writer writes every key, values derived
deterministically from the key); the parent reloads it and asserts zero
corrupt lines and exact first-wins contents — whichever process won each
key, the value is the one every process would have computed for it.  The
bare append primitive gets one headerless file, and every append must
come back whole.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.serve.store import ResultStore, StoreKey
from repro.util.jsonl import load_jsonl

SRC = Path(__file__).resolve().parent.parent / "src"

N_PROCS = 4
N_KEYS = 12

# Each worker writes every key: maximal key overlap, so every append
# races every other process.  Values are key-derived, so first-wins can
# be checked without knowing which process won.
RESULT_STORE_WORKER = """
import sys
from repro.serve.store import ResultStore, StoreKey

root, worker = sys.argv[1], int(sys.argv[2])
store = ResultStore(root, shards=4)
print("ready", flush=True)
sys.stdin.read(1)
for i in range({n_keys}):
    key = StoreKey(
        dsl=format(i, "016x"), arch="a" * 16,
        calibration="c" * 16, searcher="s" * 16,
    )
    store.put(key, {{"name": f"w{{i}}", "value": i * 10, "pad": "x" * 8192}})
"""

APPEND_WORKER = """
import sys
from repro.util.jsonl import atomic_append_jsonl

path, worker = sys.argv[1], int(sys.argv[2])
print("ready", flush=True)
sys.stdin.read(1)
for i in range({n_keys}):
    atomic_append_jsonl(path, {{"worker": worker, "i": i, "pad": "p" * 8192}})
"""


def _hammer(tmp_path, script: str, target: str) -> None:
    """Start every writer, then release them together: each reports ready
    once imported and waits for a byte on stdin, so the appends overlap
    instead of running one process after another as the next starts."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script.format(n_keys=N_KEYS), target, str(w)],
            env=env,
            cwd=tmp_path,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        for w in range(N_PROCS)
    ]
    for proc in procs:
        ready = proc.stdout.readline()
        assert ready == b"ready\n", proc.communicate(timeout=120)[1].decode()
    for proc in procs:
        proc.stdin.write(b"g")
        proc.stdin.flush()
    for proc in procs:
        _out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()


def test_result_store_many_writers(tmp_path):
    root = tmp_path / "rs"
    _hammer(tmp_path, RESULT_STORE_WORKER, str(root))

    store = ResultStore(root, shards=4)
    assert store.corrupt_lines == 0
    assert len(store) == N_KEYS
    # Every key's record is the (deterministic) value whichever process
    # won the race would have written — first-wins is indistinguishable
    # from a single writer.
    for i in range(N_KEYS):
        key = StoreKey(
            dsl=format(i, "016x"), arch="a" * 16,
            calibration="c" * 16, searcher="s" * 16,
        )
        record = store.get(key)
        assert record is not None
        assert record["name"] == f"w{i}"
        assert record["value"] == i * 10
        assert record["pad"] == "x" * 8192
    # Duplicate appends happened (N_PROCS racing writers), but every
    # shard file is still line-clean: each line parses on its own.
    total_lines = 0
    for shard in store.shard_paths():
        for line in shard.read_text(encoding="utf-8").splitlines():
            json.loads(line)  # raises if any append tore another
            total_lines += 1
    assert total_lines >= N_KEYS + len(store.shard_paths())


def test_atomic_append_many_writers(tmp_path):
    path = tmp_path / "appends.jsonl"
    _hammer(tmp_path, APPEND_WORKER, str(path))

    entries, corrupt = load_jsonl(path)
    assert corrupt == 0
    # The torn-tail check and the write happen under one lock, so no
    # writer mistakes another's in-flight append for a torn line and
    # prepends a needless newline: the file holds no blank line.
    lines = path.read_bytes().split(b"\n")
    assert lines[-1] == b""
    assert b"" not in lines[:-1]
    assert all(entry["pad"] == "p" * 8192 for entry in entries)
    # Every append of every writer is present, exactly once.
    assert sorted((e["worker"], e["i"]) for e in entries) == [
        (w, i) for w in range(N_PROCS) for i in range(N_KEYS)
    ]
