"""Search-space representation: kernel/program configurations.

The decision algorithm (:mod:`repro.tcr.decision`) produces, per TCR
operation (= per GPU kernel), candidate lists for the four decomposition
parameters — ThreadX, ThreadY, BlockX, BlockY — with the paper's PERMUTE
semantics (one value each, mutually distinct loop indices; ``"1"`` collapses
a Y dimension), plus serial-loop-order and unroll-factor parameters.  This
module turns those candidate lists into enumerable, sampleable spaces:

``KernelSpace``
    All legal :class:`KernelConfig` points for one kernel, held as a
    product: its :class:`KernelFamily` list (decomposition and serial
    order) times its unroll factors.  A configuration is built only when
    a position is read.
``ProgramSpace``
    The cross product across a variant's kernels, addressed by mixed-radix
    global index so points can be sampled without enumeration.
``TuningSpace``
    The union across OCTOPI variants — the object SURF searches.  For Lg3t
    this reaches the paper's "512,000 possible tensor-code variants" scale.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, SearchSpaceError
from repro.tcr.program import TCROperation, TCRProgram

__all__ = [
    "ONE",
    "KernelFamily",
    "KernelConfig",
    "TTGTConfig",
    "ProgramConfig",
    "KernelSpace",
    "TTGTKernelSpace",
    "ProgramSpace",
    "TuningSpace",
]

#: The PERMUTE value meaning "no loop mapped here" (1-D thread/block shape).
ONE = "1"


@dataclass(frozen=True)
class KernelFamily:
    """A loop-nest decomposition and serial order: the configurations of a
    kernel that differ only in their unroll factor.

    Attributes
    ----------
    tx, ty, bx, by:
        Loop indices mapped to threadIdx.x/.y and blockIdx.x/.y; ``ty``/``by``
        (and, for degenerate spaces, ``bx``) may be :data:`ONE`.
    serial_order:
        Execution order of the loops left inside each thread (unmapped
        parallel loops and all reduction loops), outermost first.
    """

    tx: str
    ty: str
    bx: str
    by: str
    serial_order: tuple[str, ...]

    @property
    def mapped(self) -> tuple[str, ...]:
        """Loop indices consumed by the thread/block decomposition."""
        return tuple(v for v in (self.tx, self.ty, self.bx, self.by) if v != ONE)

    @property
    def innermost_serial(self) -> str | None:
        return self.serial_order[-1] if self.serial_order else None

    def family_prefix(self) -> str:
        """:meth:`KernelConfig.describe` up to the unroll digits.

        It is the same for every configuration of the family, so the
        timing tables hash it once per family; ``describe()`` is this
        prefix followed by ``str(unroll)``.
        """
        so = ",".join(self.serial_order) if self.serial_order else "-"
        return (
            f"thread=({self.tx},{self.ty}) block=({self.bx},{self.by}) "
            f"serial=({so}) unroll="
        )

    def config(self, unroll: int) -> "KernelConfig":
        """The family's configuration with this unroll factor."""
        return KernelConfig(
            self.tx, self.ty, self.bx, self.by, self.serial_order, unroll
        )


@dataclass(frozen=True)
class KernelConfig(KernelFamily):
    """One point of a kernel's parameter space: a family and an unroll
    factor.

    Attributes
    ----------
    unroll:
        Unroll factor applied to the innermost reduction loop (1 = none).
    """

    unroll: int

    def describe(self) -> str:
        return f"{self.family_prefix()}{self.unroll}"


@dataclass(frozen=True)
class TTGTConfig:
    """One point of a kernel's TTGT (transpose-transpose-GEMM-transpose)
    parameter space — the alternative lowering to :class:`KernelConfig`.

    The contraction's indices are classified into the four GEMM groups
    (batch / M / N / K); a configuration fixes the linearization order
    *within* each group, how the batch group is realized, the GEMM
    operand layouts, and whether the GEMM computes C or Cᵀ.  Which
    transposes must be materialized follows deterministically (an operand
    whose source layout already matches the required packed layout needs
    none) and is recorded so the cost model, the store codec, and
    ``describe()`` agree without re-deriving it.

    Attributes
    ----------
    m_order, n_order, k_order, batch_order:
        Linearization order of each index group (row-major, last fastest).
    batch_mode:
        ``"strided"`` (shared batch indices become the GEMM batch),
        ``"flat"`` (no batch group; one plain GEMM), or ``"batch_m"`` /
        ``"batch_n"`` (peel the outermost M/N index into a broadcast
        batch — the operand lacking it is shared across batch members).
    op_a, op_b:
        Stored layout of the GEMM operands: ``"N"`` = A as [M,K] / B as
        [K,N] row-major, ``"T"`` = the transposed layout.
    swap_ab:
        Compute Cᵀ = [N,M] instead of C (swaps which group is tiled as
        rows vs columns).
    trans_a, trans_b, trans_out:
        Which permutations are materialized as transpose kernels.
    """

    m_order: tuple[str, ...]
    n_order: tuple[str, ...]
    k_order: tuple[str, ...]
    batch_order: tuple[str, ...]
    batch_mode: str
    op_a: str
    op_b: str
    swap_ab: bool
    trans_a: bool
    trans_b: bool
    trans_out: bool

    # ------------------------------------------------------------------
    # Duck-typed view of the KernelConfig feature surface.  The SURF
    # feature pipeline (ProgramConfig.features, KernelSpace.feature_tables,
    # surf.pool's columnar gather) reads exactly tx/ty/bx/by as categorical
    # strings, innermost_serial as a string-or-None, and unroll as an int.
    # Presenting the TTGT tuning axes through the same attributes lets
    # TTGT spaces flow through binarization, pools, and the forest
    # surrogate with zero changes there.

    @property
    def tx(self) -> str:
        return "m:" + (",".join(self.m_order) or "-")

    @property
    def ty(self) -> str:
        return "n:" + (",".join(self.n_order) or "-")

    @property
    def bx(self) -> str:
        return "k:" + (",".join(self.k_order) or "-")

    @property
    def by(self) -> str:
        order = ",".join(self.batch_order) or "-"
        return f"b:{self.batch_mode}:{order}"

    @property
    def innermost_serial(self) -> str:
        """GEMM shape selector as a categorical feature (never falsy)."""
        return f"{self.op_a}{self.op_b}{'x' if self.swap_ab else '-'}"

    @property
    def unroll(self) -> int:
        """Materialized-transpose count, offset to stay >= 1 (the feature
        pipeline treats unroll as an ordinal >= 1)."""
        return 1 + int(self.trans_a) + int(self.trans_b) + int(self.trans_out)

    @property
    def mapped(self) -> tuple[str, ...]:
        """All indices consumed by the GEMM decomposition."""
        return self.batch_order + self.m_order + self.n_order + self.k_order

    def describe(self) -> str:
        trans = "".join(
            name
            for name, on in (("A", self.trans_a), ("B", self.trans_b), ("C", self.trans_out))
            if on
        )
        return (
            f"ttgt m=({','.join(self.m_order)}) n=({','.join(self.n_order)}) "
            f"k=({','.join(self.k_order)}) batch={self.batch_mode}"
            f"({','.join(self.batch_order)}) gemm={self.op_a}{self.op_b}"
            f"{'x' if self.swap_ab else ''} trans=({trans or '-'})"
        )


@dataclass(frozen=True)
class ProgramConfig:
    """One point of a whole program's space: a variant + per-kernel configs."""

    variant_index: int
    kernels: tuple[KernelConfig, ...]
    global_id: int = -1  # position within the owning TuningSpace, if known

    def describe(self) -> str:
        parts = [f"variant={self.variant_index}"]
        for i, k in enumerate(self.kernels):
            parts.append(f"k{i}: {k.describe()}")
        return "; ".join(parts)

    def features(self) -> dict[str, object]:
        """Flat feature dict for the SURF surrogate (pre-binarization).

        Decomposition choices are categorical strings; unroll factors are
        ordinal integers (the paper binarizes the former and keeps the
        latter numeric).
        """
        feats: dict[str, object] = {"variant": str(self.variant_index)}
        for i, k in enumerate(self.kernels):
            feats[f"k{i}_tx"] = k.tx
            feats[f"k{i}_ty"] = k.ty
            feats[f"k{i}_bx"] = k.bx
            feats[f"k{i}_by"] = k.by
            feats[f"k{i}_inner"] = k.innermost_serial or "-"
            feats[f"k{i}_unroll"] = int(k.unroll)
        return feats


def _feature_tables(points, unroll: np.ndarray, repeat: int = 1) -> dict[str, object]:
    """Columnar surrogate features of a kernel space, which the feature
    pipeline gathers by kernel-space digit: ``(codes, vocab)`` per
    categorical attribute (``vocab[codes[i]]`` is position ``i``'s value;
    each point's code fills ``repeat`` positions) and the ``unroll`` values."""
    def table(values: list[str]) -> tuple[np.ndarray, tuple[str, ...]]:
        vocab = tuple(sorted(set(values)))
        index = {v: c for c, v in enumerate(vocab)}
        codes = np.array([index[v] for v in values], dtype=np.int64)
        return np.repeat(codes, repeat), vocab

    return {
        "tx": table([p.tx for p in points]),
        "ty": table([p.ty for p in points]),
        "bx": table([p.bx for p in points]),
        "by": table([p.by for p in points]),
        "inner": table([p.innermost_serial or "-" for p in points]),
        "unroll": unroll,
    }


class KernelSpace:
    """The legal configurations of one kernel: families × unroll factors.

    Parameters mirror the Orio annotation of Fig. 2(c): candidate lists for
    the four PERMUTE parameters, serial-order options, and unroll factors.
    The space is held as that product: ``families`` (one per legal
    decomposition and serial order, in nested-loop order) and
    ``unroll_factors``.  Unroll varies fastest, so position ``i`` is
    family ``i // U`` with unroll factor ``i % U`` (``U`` unroll factors),
    and its :class:`KernelConfig` is built when the position is read.
    """

    def __init__(
        self,
        operation: TCROperation,
        tx_candidates: Sequence[str],
        ty_candidates: Sequence[str],
        bx_candidates: Sequence[str],
        by_candidates: Sequence[str],
        serial_orders_for,
        unroll_factors: Sequence[int],
    ) -> None:
        """``serial_orders_for(mapped) -> list[tuple[str, ...]]`` supplies the
        legal serial-loop orders given the mapped indices (the decision
        module provides it, since it knows the dependence classification)."""
        self.operation = operation
        self.tx_candidates = tuple(tx_candidates)
        self.ty_candidates = tuple(ty_candidates)
        self.bx_candidates = tuple(bx_candidates)
        self.by_candidates = tuple(by_candidates)
        self.unroll_factors = tuple(unroll_factors)
        if not self.tx_candidates:
            raise SearchSpaceError(
                f"kernel for {operation} has no ThreadX candidates"
            )
        if not self.unroll_factors:
            raise SearchSpaceError("unroll factor list is empty")
        self.families = self._families(serial_orders_for)
        if not self.families:
            raise SearchSpaceError(
                f"kernel space for {operation} is empty after the distinctness "
                "constraint; candidate lists are inconsistent"
            )
        self._feature_tables: dict[str, object] | None = None

    def _families(self, serial_orders_for) -> tuple[KernelFamily, ...]:
        out: list[KernelFamily] = []
        for tx in self.tx_candidates:
            if tx == ONE:
                continue  # ThreadX always maps a real loop
            for ty in self.ty_candidates:
                for bx in self.bx_candidates:
                    for by in self.by_candidates:
                        chosen = [v for v in (tx, ty, bx, by) if v != ONE]
                        if len(set(chosen)) != len(chosen):
                            continue  # PERMUTE: loop values must be distinct
                        for order in serial_orders_for(tuple(chosen)):
                            out.append(KernelFamily(tx, ty, bx, by, tuple(order)))
        return tuple(out)

    def __len__(self) -> int:
        return len(self.families) * len(self.unroll_factors)

    def __iter__(self) -> Iterator[KernelConfig]:
        for family in self.families:
            for uf in self.unroll_factors:
                yield family.config(uf)

    def __getitem__(self, i: int) -> KernelConfig:
        f, u = divmod(i, len(self.unroll_factors))
        return self.families[f].config(self.unroll_factors[u])

    def index_of(self, config: KernelConfig) -> int:
        """Position of ``config``: its family's, then its unroll factor's."""
        if isinstance(config, KernelConfig):
            family = KernelFamily(
                config.tx, config.ty, config.bx, config.by, config.serial_order
            )
            if family in self.families and config.unroll in self.unroll_factors:
                u = len(self.unroll_factors)
                return self.families.index(family) * u + self.unroll_factors.index(
                    config.unroll
                )
        raise ConfigurationError(
            f"configuration {config.describe()} is not in this kernel space"
        )

    def feature_tables(self) -> dict[str, object]:
        """Columnar view of every position's surrogate features (cached):
        each family's codes repeated over the unroll factors."""
        if self._feature_tables is None:
            self._feature_tables = _feature_tables(
                self.families,
                np.tile(
                    np.array(self.unroll_factors, dtype=np.float64),
                    len(self.families),
                ),
                repeat=len(self.unroll_factors),
            )
        return self._feature_tables


class TTGTKernelSpace:
    """The legal TTGT lowerings of one kernel, fully materialized.

    Interchangeable with :class:`KernelSpace` everywhere the search stack
    touches a per-kernel space (``ProgramSpace``/``TuningSpace`` digits,
    the columnar feature gather, timing tables): same ``operation``
    attribute, same container protocol, same ``feature_tables()`` keys.
    The enumeration itself lives in :mod:`repro.tcr.ttgt` — this class
    only holds the points.
    """

    def __init__(
        self, operation: TCROperation, configs: Sequence[TTGTConfig]
    ) -> None:
        self.operation = operation
        self._configs = tuple(configs)
        if not self._configs:
            raise SearchSpaceError(
                f"TTGT space for {operation} is empty; the operation should "
                "have been ruled ineligible instead"
            )
        self._feature_tables: dict[str, object] | None = None

    def __len__(self) -> int:
        return len(self._configs)

    def __iter__(self) -> Iterator[TTGTConfig]:
        return iter(self._configs)

    def __getitem__(self, i: int) -> TTGTConfig:
        return self._configs[i]

    def index_of(self, config: TTGTConfig) -> int:
        try:
            return self._configs.index(config)
        except ValueError:
            raise ConfigurationError(
                f"configuration {config.describe()} is not in this kernel space"
            ) from None

    def feature_tables(self) -> dict[str, object]:
        """Columnar surrogate features — same schema as
        :meth:`KernelSpace.feature_tables`, one point per position."""
        if self._feature_tables is None:
            self._feature_tables = _feature_tables(
                self._configs,
                np.array([float(c.unroll) for c in self._configs]),
            )
        return self._feature_tables


@dataclass
class ProgramSpace:
    """Cross product of kernel spaces for one OCTOPI variant."""

    variant_index: int
    program: TCRProgram
    kernel_spaces: tuple[KernelSpace | TTGTKernelSpace, ...]
    #: Kernel timing tables the decision already built, by kernel position
    #: (None where it built none): ``backend="auto"`` prices both
    #: candidate spaces of a TTGT-eligible operation and keeps the chosen
    #: one's table here.  ``priced_by`` is the performance model that
    #: built them; ``ProgramTimingTable.build`` takes them only when given
    #: that model and this space's program, and builds every other table.
    tables: tuple = field(default=(), repr=False, compare=False)
    priced_by: object = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.kernel_spaces) != len(self.program.operations):
            raise SearchSpaceError(
                f"{len(self.kernel_spaces)} kernel spaces for "
                f"{len(self.program.operations)} operations"
            )

    def size(self) -> int:
        n = 1
        for ks in self.kernel_spaces:
            n *= len(ks)
        return n

    def config_at(self, index: int) -> ProgramConfig:
        """Mixed-radix decode of a local index into per-kernel configs."""
        if not 0 <= index < self.size():
            raise ConfigurationError(
                f"index {index} outside program space of size {self.size()}"
            )
        digits: list[KernelConfig] = []
        for ks in reversed(self.kernel_spaces):
            index, d = divmod(index, len(ks))
            digits.append(ks[d])
        return ProgramConfig(
            variant_index=self.variant_index, kernels=tuple(reversed(digits))
        )

    def index_of(self, config: ProgramConfig) -> int:
        shape = (config.variant_index, len(config.kernels))
        if shape != (self.variant_index, len(self.kernel_spaces)):
            raise ConfigurationError(
                f"configuration of variant {shape[0]} with {shape[1]} kernels "
                f"is not in the space of variant {self.variant_index}"
            )
        index = 0
        for ks, kc in zip(self.kernel_spaces, config.kernels):
            index = index * len(ks) + ks.index_of(kc)
        return index


class TuningSpace:
    """The union of all variants' program spaces — what SURF explores.

    Points have dense global ids ``0 .. size()-1`` ordered by variant; the
    space supports random sampling of distinct ids (for building SURF's
    configuration pool) without materializing anything.
    """

    def __init__(self, program_spaces: Sequence[ProgramSpace]) -> None:
        if not program_spaces:
            raise SearchSpaceError("tuning space needs at least one variant")
        self.program_spaces = tuple(program_spaces)
        self._offsets: list[int] = []
        total = 0
        for ps in self.program_spaces:
            self._offsets.append(total)
            total += ps.size()
        self._total = total

    def size(self) -> int:
        return self._total

    def config_at(self, global_id: int) -> ProgramConfig:
        if not 0 <= global_id < self._total:
            raise ConfigurationError(
                f"global id {global_id} outside tuning space of size {self._total}"
            )
        # Find the variant owning this id (offsets are sorted).
        lo, hi = 0, len(self.program_spaces) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self._offsets[mid] <= global_id:
                lo = mid
            else:
                hi = mid - 1
        ps = self.program_spaces[lo]
        local = global_id - self._offsets[lo]
        cfg = ps.config_at(local)
        return ProgramConfig(
            variant_index=cfg.variant_index,
            kernels=cfg.kernels,
            global_id=global_id,
        )

    def sample_ids(self, count: int, rng: np.random.Generator) -> list[int]:
        """Sample ``count`` distinct global ids uniformly (or all, if fewer)."""
        if count >= self._total:
            return list(range(self._total))
        if count > self._total // 2:
            return sorted(
                rng.choice(self._total, size=count, replace=False).tolist()
            )
        seen: set[int] = set()
        while len(seen) < count:
            need = count - len(seen)
            draw = rng.integers(0, self._total, size=max(need * 2, 8))
            for g in draw.tolist():
                if g not in seen:
                    seen.add(g)
                    if len(seen) == count:
                        break
        return sorted(seen)

    def sample_pool(self, count: int, rng: np.random.Generator) -> list[ProgramConfig]:
        return [self.config_at(g) for g in self.sample_ids(count, rng)]

    def decode_rows(
        self, ids: Sequence[int] | np.ndarray
    ) -> list[tuple[int, np.ndarray, list[np.ndarray]]]:
        """Vectorized mixed-radix decode of *sorted* global ids.

        Returns ``(variant_pos, rows, digits)`` per variant with any hits:
        ``rows`` are positions within ``ids`` and ``digits[k]`` indexes
        ``program_spaces[variant_pos].kernel_spaces[k]`` — the whole-pool
        equivalent of :meth:`config_at`'s binary search + divmod loop.
        """
        arr = np.asarray(ids, dtype=np.int64)
        out: list[tuple[int, np.ndarray, list[np.ndarray]]] = []
        for pos, ps in enumerate(self.program_spaces):
            lo = self._offsets[pos]
            s = int(np.searchsorted(arr, lo, side="left"))
            e = int(np.searchsorted(arr, lo + ps.size(), side="left"))
            if s == e:
                continue
            local = arr[s:e] - lo
            digits: list[np.ndarray] = []
            for ks in reversed(ps.kernel_spaces):
                local, d = np.divmod(local, len(ks))
                digits.append(d)
            out.append((pos, np.arange(s, e, dtype=np.int64), digits[::-1]))
        return out

    def global_id_for(self, variant_pos: int, local_index: int) -> int:
        """Global id of ``local_index`` within the ``variant_pos``-th space."""
        ps = self.program_spaces[variant_pos]
        if not 0 <= local_index < ps.size():
            raise ConfigurationError(
                f"local index {local_index} outside program space of size "
                f"{ps.size()}"
            )
        return self._offsets[variant_pos] + local_index

    def enumerate_all(self, limit: int | None = None) -> Iterator[ProgramConfig]:
        """Yield every point (optionally capped) — for brute-force baselines.

        Enumeration order matches ``config_at(0..size()-1)`` exactly, but the
        kernel tuple is advanced like an odometer (last kernel fastest), so
        each point costs one digit increment instead of a binary search plus
        a full mixed-radix decode.
        """
        stop = self._total if limit is None else min(limit, self._total)
        emitted = 0
        for pos, ps in enumerate(self.program_spaces):
            if emitted >= stop:
                return
            if ps.size() == 0:
                continue
            # The odometer re-reads the faster kernels' positions many
            # times: build each kernel's configurations once per walk.
            spaces = [tuple(ks) for ks in ps.kernel_spaces]
            digits = [0] * len(spaces)
            kernels = [ks[0] for ks in spaces]
            offset = self._offsets[pos]
            for local in range(ps.size()):
                yield ProgramConfig(
                    variant_index=ps.variant_index,
                    kernels=tuple(kernels),
                    global_id=offset + local,
                )
                emitted += 1
                if emitted >= stop:
                    return
                for k in range(len(spaces) - 1, -1, -1):
                    digits[k] += 1
                    if digits[k] < len(spaces[k]):
                        kernels[k] = spaces[k][digits[k]]
                        break
                    digits[k] = 0
                    kernels[k] = spaces[k][0]
