"""Tests for the crash-safe JSONL append primitive."""

from repro.util.jsonl import atomic_append_jsonl, load_jsonl


def test_atomic_append_writes_single_line(tmp_path):
    path = tmp_path / "store.jsonl"
    payload = {"key": ["a", "b"], "value": 1.0}
    payload["padding"] = "x" * 10_000  # longer than any stdio buffer
    written = atomic_append_jsonl(path, payload)
    assert written == path.stat().st_size
    assert len(path.read_text(encoding="utf-8").splitlines()) == 1


def test_append_after_torn_tail_survives(tmp_path):
    # Regression: a crash left a final line with no newline, and the
    # next append glued its record onto it, so the load lost both.
    path = tmp_path / "store.jsonl"
    atomic_append_jsonl(path, {"a": 1})
    with path.open("ab") as handle:
        handle.write(b'{"b": "a torn recor')
    atomic_append_jsonl(path, {"c": 3})
    assert load_jsonl(path) == ([{"a": 1}, {"c": 3}], 1)
