"""Exception hierarchy for the Barracuda reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch one type at an API boundary.  Subsystems raise more
specific subclasses to make test assertions and user diagnostics precise.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class DSLError(ReproError):
    """Problem with OCTOPI DSL input (lexing, parsing, semantic checks)."""


class DSLSyntaxError(DSLError):
    """Malformed DSL text.

    Carries the source line/column of the offending token when known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}" + (
                f", column {column})" if column is not None else ")"
            )
        super().__init__(message)


class DSLSemanticError(DSLError):
    """Well-formed but meaningless DSL input (e.g. inconsistent dims)."""


class ContractionError(ReproError):
    """Invalid contraction specification in the core IR."""


class TCRError(ReproError):
    """Problem constructing or transforming a TCR program."""


class CodegenError(ReproError):
    """Code generation could not produce a kernel for a configuration."""


class SearchSpaceError(ReproError):
    """The decision algorithm produced an inconsistent search space."""


class ConfigurationError(ReproError):
    """A point in the search space violates its constraints."""


class SimulationError(ReproError):
    """The GPU simulator was asked to do something unphysical."""


class ArchitectureError(SimulationError):
    """Unknown or malformed architecture description."""


class SearchError(ReproError):
    """SURF / baseline searchers got inconsistent inputs."""


class CheckpointError(ReproError):
    """A checkpoint directory is missing, corrupt, or incompatible.

    Raised on resume when the stored run fingerprint (seed, space, searcher
    parameters) does not match the current run — resuming would not be
    bitwise-safe, so the mismatch is refused instead of silently diverging.
    """


class StoreError(ReproError):
    """A result-store shard is structurally invalid (bad/alien header).

    Distinct from line-level corruption, which is tolerated, counted, and
    warned about: a shard whose *header* names a different format version
    (or no header at all on a nonempty file) cannot be merged safely, so
    the load refuses instead of guessing.
    """


class ServiceError(ReproError):
    """Bad request to, or invalid use of, the tuning service."""


class WorkloadError(ReproError):
    """Unknown benchmark name or malformed workload definition."""
