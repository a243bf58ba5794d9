"""Deterministic randomness helpers.

The reproduction must be bit-reproducible across runs: SURF's sampling, the
extremely-randomized-trees surrogate, and the simulator's measurement noise
all draw from seeded generators.  Two primitives cover every need:

``stable_hash(*parts)``
    A process-independent 64-bit hash of a heterogeneous key (Python's
    builtin ``hash`` is salted per process, so it cannot be used).  Used to
    derive per-configuration "systematic" noise in the performance model —
    the same configuration always lands on the same point of the modeled
    landscape.

``spawn_rng(seed, *parts)``
    A :class:`numpy.random.Generator` keyed off a base seed plus a
    structured key, for independent streams (e.g. one per SURF iteration).
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable
from typing import Any

import numpy as np

__all__ = ["stable_hash", "stable_uniform", "spawn_rng", "StableHashPrefix"]


def _encode(part: Any) -> bytes:
    """Encode one key part into bytes, recursively and unambiguously."""
    if isinstance(part, bytes):
        return b"b" + part
    if isinstance(part, str):
        return b"s" + part.encode("utf-8")
    if isinstance(part, bool):  # must precede int check
        return b"o" + (b"1" if part else b"0")
    if isinstance(part, int):
        return b"i" + str(part).encode("ascii")
    if isinstance(part, float):
        return b"f" + repr(part).encode("ascii")
    if part is None:
        return b"n"
    if isinstance(part, (tuple, list)):
        inner = b"|".join(_encode(p) for p in part)
        return b"t(" + inner + b")"
    if isinstance(part, frozenset):
        inner = b"|".join(sorted(_encode(p) for p in part))
        return b"z(" + inner + b")"
    if isinstance(part, dict):
        inner = b"|".join(
            sorted(_encode(k) + b"=" + _encode(v) for k, v in part.items())
        )
        return b"d(" + inner + b")"
    raise TypeError(f"stable_hash cannot encode {type(part).__name__}: {part!r}")


def stable_hash(*parts: Any) -> int:
    """Return a deterministic 64-bit unsigned hash of the key ``parts``.

    Stable across processes and Python versions (uses BLAKE2b, not the
    salted builtin ``hash``).
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(_encode(part))
        h.update(b"\x00")
    return int.from_bytes(h.digest(), "little")


def stable_uniform(*parts: Any) -> float:
    """Deterministic uniform float in ``[0, 1)`` keyed by ``parts``."""
    return stable_hash(*parts) / 2**64


class StableHashPrefix:
    """Reusable hash state over a constant key prefix.

    ``StableHashPrefix(*prefix).hash(*suffix)`` returns exactly
    ``stable_hash(*prefix, *suffix)`` (the BLAKE2b state after absorbing
    the prefix is copied per call), but encodes and absorbs the prefix
    only once.  Used by bulk paths — e.g. precomputing the performance
    model's per-configuration wobble for a whole kernel space — where the
    key differs only in its last part.
    """

    def __init__(self, *prefix: Any) -> None:
        h = hashlib.blake2b(digest_size=8)
        for part in prefix:
            h.update(_encode(part))
            h.update(b"\x00")
        self._state = h

    def hash(self, *suffix: Any) -> int:
        h = self._state.copy()
        for part in suffix:
            h.update(_encode(part))
            h.update(b"\x00")
        return int.from_bytes(h.digest(), "little")

    def uniform(self, *suffix: Any) -> float:
        return self.hash(*suffix) / 2**64

    def uniform_tails(self, head: str, tails: Iterable[str]) -> list[float]:
        """``[self.uniform(head + tail) for tail in tails]``, bit for bit.

        A string part is absorbed as its encoding and then the ``b"\\0"``
        separator, so the encoding of ``head`` is absorbed once and each
        tail only finishes a copy of that state.
        """
        h = self._state.copy()
        h.update(_encode(head))
        out = []
        for tail in tails:
            t = h.copy()
            t.update(tail.encode("utf-8") + b"\x00")
            out.append(int.from_bytes(t.digest(), "little") / 2**64)
        return out


def spawn_rng(seed: int, *parts: Any) -> np.random.Generator:
    """Create an independent, reproducible generator for a keyed substream."""
    return np.random.default_rng(stable_hash("spawn", seed, *parts))
