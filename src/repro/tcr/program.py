"""The TCR program: the paper's Fig. 2(b) intermediate representation.

A TCR program is a short straight-line sequence of *binary (or unary)
contraction operations* over declared, shaped variables:

.. code-block:: text

    ex
    access: linearize
    define:
    N = J = M = I = L = K = 10
    variables:
    temp3:(J,I,L)
    A:(L,K)
    ...
    operations:
    temp1:(i,l,m) += C:(n,i)*U:(l,m,n)
    temp3:(j,i,l) += B:(m,j)*temp1:(i,l,m)
    V:(i,j,k) += A:(l,k)*temp3:(j,i,l)

Each operation becomes one GPU kernel (the paper generates three kernels for
the example above, keeping data resident on the GPU between them).  This
module provides the IR, the textual round-trip, validation, numeric
evaluation (the ground truth used in tests), and cost queries.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.core.contraction import Contraction
from repro.core.indices import ordered_unique, iteration_space_size
from repro.core.tensor import TensorRef
from repro.errors import TCRError

__all__ = ["TCROperation", "TCRProgram"]


@dataclass(frozen=True)
class TCROperation:
    """One statement ``output:(...) += in0:(...) [* in1:(...)]``.

    Semantics: for every point of the union iteration space, multiply the
    inputs and accumulate into ``output``; indices on the RHS but not in
    ``output.indices`` are reduction indices.
    """

    output: TensorRef
    inputs: tuple[TensorRef, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.inputs, tuple):
            object.__setattr__(self, "inputs", tuple(self.inputs))
        if len(self.inputs) not in (1, 2):
            raise TCRError(
                f"TCR operations are unary or binary, got {len(self.inputs)} inputs"
            )
        rhs = set()
        for ref in self.inputs:
            rhs |= ref.index_set
        missing = set(self.output.indices) - rhs
        if missing:
            raise TCRError(
                f"operation writes {self.output} but indices {sorted(missing)} "
                "do not appear on its RHS"
            )

    @property
    def parallel_indices(self) -> tuple[str, ...]:
        """Loops free of dependences: the output (LHS) indices.

        This is the paper's domain-specific dependence rule (Section IV):
        dependences can be carried only by loops whose index is on the RHS
        but not the LHS.
        """
        return self.output.indices

    @property
    def reduction_indices(self) -> tuple[str, ...]:
        """Loops carrying a reduction dependence: RHS-only indices."""
        out = set(self.output.indices)
        return ordered_unique(
            i for ref in self.inputs for i in ref.indices if i not in out
        )

    @property
    def all_indices(self) -> tuple[str, ...]:
        return ordered_unique(
            tuple(self.output.indices)
            + tuple(i for ref in self.inputs for i in ref.indices)
        )

    def flops(self, dims: Mapping[str, int]) -> int:
        """Multiply-accumulate flops over the full iteration space."""
        space = iteration_space_size(self.all_indices, dims)
        per_point = 2 if len(self.inputs) == 2 else (2 if self.reduction_indices else 1)
        return space * per_point

    def to_contraction(self, dims: Mapping[str, int], name: str = "op") -> Contraction:
        """View this operation as a standalone :class:`Contraction`."""
        used = set(self.all_indices)
        return Contraction(
            output=self.output,
            terms=self.inputs,
            dims={k: v for k, v in dims.items() if k in used},
            name=name,
        )

    def __str__(self) -> str:
        rhs = "*".join(f"{r.name}:({','.join(r.indices)})" for r in self.inputs)
        return f"{self.output.name}:({','.join(self.output.indices)}) += {rhs}"

    @staticmethod
    def parse(text: str) -> "TCROperation":
        """Parse one operation line of the Fig. 2(b) format."""
        if "+=" not in text:
            raise TCRError(f"operation line missing '+=': {text!r}")
        lhs_text, _, rhs_text = text.partition("+=")
        output = _parse_shaped_ref(lhs_text)
        inputs = tuple(_parse_shaped_ref(p) for p in rhs_text.split("*"))
        return TCROperation(output, inputs)


def _parse_shaped_ref(text: str) -> TensorRef:
    text = text.strip()
    if ":" not in text or "(" not in text or not text.endswith(")"):
        raise TCRError(f"cannot parse shaped reference: {text!r}")
    name, _, shape = text.partition(":")
    body = shape.strip()[1:-1]
    indices = tuple(p.strip().lower() for p in body.split(",") if p.strip())
    return TensorRef(name.strip(), indices)


@dataclass
class TCRProgram:
    """A named sequence of TCR operations over declared variables.

    Attributes
    ----------
    name:
        Program label (first line of the text format).
    dims:
        Extent of every index.
    arrays:
        Memory layout of every variable: name -> ordered index tuple.  The
        layout is what the ``variables:`` section of the text format records
        (with index letters upper-cased as dimension symbols).
    operations:
        The statements, in execution order.
    """

    name: str
    dims: dict[str, int]
    arrays: dict[str, tuple[str, ...]]
    operations: list[TCROperation]
    access: str = "linearize"

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    @property
    def output_names(self) -> tuple[str, ...]:
        """Arrays written but never consumed afterwards: the program results.

        A program may have several (Nekbone's ``local_grad3`` produces
        ``ur``, ``us`` and ``ut``), and the same result may be accumulated
        by several operations (``local_grad3t`` sums three contributions
        into ``u``).
        """
        outputs: list[str] = []
        ops = self.operations
        for t, op in enumerate(ops):
            name = op.output.name
            read_later = any(
                ref.name == name for later in ops[t + 1 :] for ref in later.inputs
            )
            if not read_later and name not in outputs:
                outputs.append(name)
        return tuple(outputs)

    @property
    def output_name(self) -> str:
        """The single program result (raises for multi-output programs)."""
        outputs = self.output_names
        if len(outputs) != 1:
            raise TCRError(
                f"program {self.name!r} has outputs {outputs}; use "
                "output_names/evaluate_all for multi-output programs"
            )
        return outputs[0]

    @property
    def temporaries(self) -> tuple[str, ...]:
        """Arrays written and then consumed by a later operation."""
        outputs = set(self.output_names)
        return ordered_unique(
            op.output.name
            for op in self.operations
            if op.output.name not in outputs
        )

    @property
    def input_names(self) -> tuple[str, ...]:
        """Variables read but never written: the external inputs."""
        written = {op.output.name for op in self.operations}
        return ordered_unique(
            ref.name
            for op in self.operations
            for ref in op.inputs
            if ref.name not in written
        )

    def array_shape(self, name: str) -> tuple[int, ...]:
        return tuple(self.dims[i] for i in self.arrays[name])

    def array_elements(self, name: str) -> int:
        return iteration_space_size(self.arrays[name], self.dims)

    def flops(self) -> int:
        return sum(op.flops(self.dims) for op in self.operations)

    def temp_elements(self) -> int:
        return sum(self.array_elements(t) for t in self.temporaries)

    def transfer_elements(self) -> tuple[int, int]:
        """(host-to-device, device-to-host) element counts.

        Inputs go up once; only the program outputs come back —
        temporaries stay device-resident across kernels, as the paper
        describes.
        """
        h2d = sum(self.array_elements(n) for n in self.input_names)
        d2h = sum(self.array_elements(n) for n in self.output_names)
        return h2d, d2h

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        if not self.operations:
            raise TCRError(f"program {self.name!r} has no operations")
        for var, layout in self.arrays.items():
            for idx in layout:
                if idx not in self.dims:
                    raise TCRError(
                        f"variable {var!r} uses index {idx!r} with no declared dimension"
                    )
        defined = set(self.input_names)
        for op in self.operations:
            for ref in (op.output, *op.inputs):
                if ref.name not in self.arrays:
                    raise TCRError(
                        f"operation {op} references undeclared variable {ref.name!r}"
                    )
                layout = self.arrays[ref.name]
                if len(layout) != len(ref.indices):
                    raise TCRError(
                        f"{ref.name!r} declared rank {len(layout)} but accessed "
                        f"rank {len(ref.indices)} in {op}"
                    )
                # Each access position must match the declared extent.
                for pos, idx in enumerate(ref.indices):
                    if self.dims[idx] != self.dims[layout[pos]]:
                        raise TCRError(
                            f"{ref.name!r} axis {pos} has extent "
                            f"{self.dims[layout[pos]]} but is accessed with index "
                            f"{idx!r} of extent {self.dims[idx]} in {op}"
                        )
            for ref in op.inputs:
                if ref.name not in defined and ref.name != op.output.name:
                    raise TCRError(
                        f"operation {op} reads {ref.name!r} before it is written"
                    )
            defined.add(op.output.name)

    # ------------------------------------------------------------------
    # Evaluation (ground truth for tests)
    # ------------------------------------------------------------------
    def evaluate(self, inputs: Mapping[str, np.ndarray]) -> np.ndarray:
        """Execute with numpy and return the single program output.

        For multi-output programs use :meth:`evaluate_all`.
        """
        return self.evaluate_all(inputs)[self.output_name]

    def evaluate_all(
        self, inputs: Mapping[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        """Execute the program with numpy; returns every written array.

        Temporaries and outputs start at zero and every operation
        accumulates, matching the ``+=`` semantics of the IR.
        """
        env: dict[str, np.ndarray] = {}
        for name in self.input_names:
            if name not in inputs:
                raise TCRError(f"missing input {name!r}")
            arr = np.asarray(inputs[name], dtype=np.float64)
            want = self.array_shape(name)
            if arr.shape != want:
                raise TCRError(
                    f"input {name!r} has shape {arr.shape}, expected {want}"
                )
            env[name] = arr
        for op in self.operations:
            out_name = op.output.name
            if out_name not in env:
                env[out_name] = np.zeros(self.array_shape(out_name))
            # Access indices bind to array axes positionally (validated
            # against the declared layout), so the stored arrays feed the
            # per-op einsum directly, and the result comes out in the
            # output's axis order.
            contrib = op.to_contraction(self.dims).evaluate(
                {r.name: env[r.name] for r in op.inputs}
            )
            env[out_name] += contrib
        written = {op.output.name for op in self.operations}
        return {name: env[name] for name in written}

    def random_inputs(self, seed: int = 0) -> dict[str, np.ndarray]:
        rng = np.random.default_rng(seed)
        return {
            name: rng.standard_normal(self.array_shape(name))
            for name in self.input_names
        }

    # ------------------------------------------------------------------
    # Text format (Fig. 2b)
    # ------------------------------------------------------------------
    def to_text(self) -> str:
        lines = [self.name, f"access: {self.access}", "define:"]
        # Group dimension symbols by extent, as in the paper's
        # "N = J = M = I = L = K = 10" line.
        by_size: dict[int, list[str]] = {}
        for idx in sorted(self.dims):
            by_size.setdefault(self.dims[idx], []).append(idx.upper())
        for size in sorted(by_size):
            lines.append(" = ".join(by_size[size] + [str(size)]))
        lines.append("variables:")
        for var, layout in self.arrays.items():
            lines.append(f"{var}:({','.join(i.upper() for i in layout)})")
        lines.append("operations:")
        lines.extend(str(op) for op in self.operations)
        return "\n".join(lines)

    @staticmethod
    def from_text(text: str) -> "TCRProgram":
        lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
        if len(lines) < 4:
            raise TCRError("TCR text too short")
        name = lines[0]
        pos = 1
        access = "linearize"
        if lines[pos].startswith("access:"):
            access = lines[pos].partition(":")[2].strip()
            pos += 1
        if lines[pos] != "define:":
            raise TCRError(f"expected 'define:' at line {pos + 1}")
        pos += 1
        dims: dict[str, int] = {}
        while pos < len(lines) and lines[pos] != "variables:":
            parts = [p.strip() for p in lines[pos].split("=")]
            try:
                size = int(parts[-1])
            except ValueError:
                raise TCRError(f"define line does not end in a size: {lines[pos]!r}")
            for sym in parts[:-1]:
                dims[sym.lower()] = size
            pos += 1
        if pos >= len(lines):
            raise TCRError("missing 'variables:' section")
        pos += 1
        arrays: dict[str, tuple[str, ...]] = {}
        while pos < len(lines) and lines[pos] != "operations:":
            ref = _parse_shaped_ref(lines[pos])
            arrays[ref.name] = ref.indices
            pos += 1
        if pos >= len(lines):
            raise TCRError("missing 'operations:' section")
        pos += 1
        operations = [TCROperation.parse(ln) for ln in lines[pos:]]
        return TCRProgram(
            name=name, dims=dims, arrays=arrays, operations=operations, access=access
        )


