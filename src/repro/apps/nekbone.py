"""Nekbone: the spectral-element conjugate-gradient proxy application.

"Nekbone is a 3-dimensional spectral element proxy application derived
from Nek5000.  It performs a conjugate gradient loop that operates over a
sequence of tensor contractions recast as matrix multiplications, which
comprises 60% of the sequential execution time.  A problem size of
12x12x12 was used."  (Section VI)

This module provides both halves of that story:

* a **functional** mini-app — Gauss-Lobatto-Legendre differentiation
  matrices, a per-element SPD Helmholtz-like operator built from
  ``local_grad3`` / ``local_grad3t`` (exactly the Lg3/Lg3t TCR programs of
  :mod:`repro.workloads.spectral`), and an unpreconditioned CG solver that
  actually converges (tests assert it);
* a **performance** model — CG-iteration timing on the CPU (sequential and
  OpenMP, matmul-recast rates) and on a GPU with the tuned Lg3/Lg3t
  kernels, per-iteration PCIe transfers included ("our results include the
  time to transfer data back and forth"), plus the OpenACC variants for
  Table III.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError
from repro.gpusim.arch import GPUArch, HASWELL
from repro.gpusim.cpu import CPUPerformanceModel
from repro.gpusim.openacc import OpenACCModel
from repro.gpusim.perfmodel import GPUPerformanceModel
from repro.gpusim.transfer import transfer_time
from repro.tcr.space import ProgramConfig
from repro.workloads.spectral import lg3, lg3t

__all__ = [
    "gll_points_weights",
    "derivative_matrix",
    "NekboneProblem",
    "cg_solve",
    "NekbonePerformance",
]

_B = 8


# ----------------------------------------------------------------------
# Spectral-element machinery (functional substrate)
# ----------------------------------------------------------------------
def gll_points_weights(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Lobatto-Legendre nodes and quadrature weights on [-1, 1].

    The nodes are the roots of ``(1 - x^2) P'_{n-1}(x)``; weights are
    ``2 / (n (n-1) P_{n-1}(x)^2)``.
    """
    if n < 2:
        raise SimulationError("GLL rule needs at least 2 points")
    # Interior nodes: roots of P'_{n-1}.
    legendre = np.polynomial.legendre.Legendre.basis(n - 1)
    interior = legendre.deriv().roots()
    x = np.concatenate(([-1.0], np.sort(interior), [1.0]))
    p = legendre(x)
    w = 2.0 / (n * (n - 1) * p**2)
    return x, w


def derivative_matrix(n: int) -> np.ndarray:
    """The GLL differentiation matrix D with (D u)_i = u'(x_i).

    Standard barycentric formula over the GLL nodes (Deville, Fischer &
    Mund, eqn. 2.4.9-ish): exact for polynomials of degree < n.
    """
    x, _ = gll_points_weights(n)
    legendre = np.polynomial.legendre.Legendre.basis(n - 1)
    p = legendre(x)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                d[i, j] = p[i] / (p[j] * (x[i] - x[j]))
    d[0, 0] = -n * (n - 1) / 4.0
    d[-1, -1] = n * (n - 1) / 4.0
    return d


def local_grad3(d: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(ur, us, ut)`` per element — the Lg3 computation, via einsum."""
    ur = np.einsum("il,eljk->eijk", d, u)
    us = np.einsum("jl,eilk->eijk", d, u)
    ut = np.einsum("kl,eijl->eijk", d, u)
    return ur, us, ut


def local_grad3t(
    d: np.ndarray, ur: np.ndarray, us: np.ndarray, ut: np.ndarray
) -> np.ndarray:
    """The transpose-accumulate Lg3t computation, via einsum."""
    u = np.einsum("li,eljk->eijk", d, ur)
    u += np.einsum("lj,eilk->eijk", d, us)
    u += np.einsum("lk,eijl->eijk", d, ut)
    return u


@dataclass
class NekboneProblem:
    """One Nekbone-style problem: E disconnected spectral elements.

    The operator is the SPD Helmholtz-like form
    ``A u = lambda * B u + D^T G D u`` per element, with ``B`` the diagonal
    GLL mass matrix and ``G`` positive diagonal geometric factors — the
    same contraction pattern Nekbone's ``ax`` kernel evaluates.
    """

    elements: int = 64
    n: int = 12
    lam: float = 0.1
    seed: int = 0
    d: np.ndarray = field(init=False, repr=False)
    mass: np.ndarray = field(init=False, repr=False)
    g: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.elements < 1 or self.n < 2:
            raise SimulationError("need >= 1 element and polynomial order >= 1")
        self.d = derivative_matrix(self.n)
        _x, w = gll_points_weights(self.n)
        self.mass = np.einsum("i,j,k->ijk", w, w, w)
        rng = np.random.default_rng(self.seed)
        # Positive geometric factors keep the operator SPD.
        self.g = 0.5 + rng.random((self.elements, self.n, self.n, self.n))

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return (self.elements, self.n, self.n, self.n)

    def apply(self, u: np.ndarray) -> np.ndarray:
        """``A u`` — the CG matrix-vector product (the ``ax`` kernel)."""
        if u.shape != self.shape:
            raise SimulationError(f"field has shape {u.shape}, expected {self.shape}")
        ur, us, ut = local_grad3(self.d, u)
        w = local_grad3t(self.d, self.g * ur, self.g * us, self.g * ut)
        return self.lam * self.mass[None] * u + w

    def random_rhs(self, seed: int = 1) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return rng.standard_normal(self.shape)

    def diagonal(self) -> np.ndarray:
        """diag(A), for Jacobi preconditioning.

        ``(D^T G D)_{ii} = sum_l D[l,i]^2 g[..l..]`` in each direction,
        plus the mass term.
        """
        d2 = self.d**2  # d2[l, i] = D[l,i]^2
        diag = np.einsum("li,eljk->eijk", d2, self.g)
        diag += np.einsum("lj,eilk->eijk", d2, self.g)
        diag += np.einsum("lk,eijl->eijk", d2, self.g)
        return self.lam * self.mass[None] + diag

    # -- cost bookkeeping ------------------------------------------------
    def contraction_flops_per_iteration(self) -> int:
        """Lg3 + Lg3t flops per CG iteration (one operator application)."""
        per = 2 * self.elements * self.n**4
        return 6 * per  # three directions each way

    def vector_flops_per_iteration(self) -> int:
        """Diagonal scalings, axpys and dots of one CG iteration."""
        npts = self.elements * self.n**3
        # g*grad (3), mass term (3), two dots (4), three axpys (6)
        return 16 * npts


def cg_solve(
    problem: NekboneProblem,
    b: np.ndarray,
    tol: float = 1e-8,
    max_iterations: int = 200,
    jacobi: bool = False,
) -> tuple[np.ndarray, list[float]]:
    """(Optionally Jacobi-preconditioned) conjugate gradients.

    Returns ``(x, history)`` where history is the relative residual norm
    per iteration.  ``jacobi=True`` preconditions with ``diag(A)^-1``,
    which typically cuts the iteration count substantially on the
    randomly-weighted operator (Nekbone itself ships a diagonal
    preconditioner option).
    """
    inv_diag = 1.0 / problem.diagonal() if jacobi else None
    x = np.zeros_like(b)
    r = b.copy()
    z = r * inv_diag if jacobi else r
    p = z.copy()
    rz = float(np.vdot(r, z).real)
    norm_b = float(np.sqrt(np.vdot(b, b).real)) or 1.0
    history = [float(np.sqrt(np.vdot(r, r).real)) / norm_b]
    for _ in range(max_iterations):
        ap = problem.apply(p)
        alpha = rz / float(np.vdot(p, ap).real)
        x += alpha * p
        r -= alpha * ap
        history.append(float(np.sqrt(np.vdot(r, r).real)) / norm_b)
        if history[-1] < tol:
            break
        z = r * inv_diag if jacobi else r
        rz_new = float(np.vdot(r, z).real)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, history


# ----------------------------------------------------------------------
# Performance model (Tables III and IV)
# ----------------------------------------------------------------------
@dataclass
class NekbonePerformance:
    """CG-iteration timing for the strategies the paper compares."""

    problem: NekboneProblem
    cpu: CPUPerformanceModel = field(default_factory=lambda: CPUPerformanceModel(HASWELL))

    def _programs(self):
        return (
            lg3(self.problem.n, self.problem.elements).program,
            lg3t(self.problem.n, self.problem.elements).program,
        )

    def app_flops_per_iteration(self) -> int:
        return (
            self.problem.contraction_flops_per_iteration()
            + self.problem.vector_flops_per_iteration()
        )

    # -- CPU --------------------------------------------------------------
    def _cpu_iteration_seconds(self, openmp: bool) -> float:
        p3, p3t = self._programs()
        if openmp:
            contr = (
                self.cpu.openmp_timing(p3, matmul_recast=True).total_s
                + self.cpu.openmp_timing(p3t, matmul_recast=True).total_s
            )
            rate = (
                self.cpu.arch.clock_ghz
                * 1e9
                * self.cpu.cal.matmul_recast_eff
                * self.cpu.cal.omp_core_boost
                * self.cpu.arch.cores
                * self.cpu.cal.omp_efficiency
            )
        else:
            contr = (
                self.cpu.sequential_timing(p3, matmul_recast=True).total_s
                + self.cpu.sequential_timing(p3t, matmul_recast=True).total_s
            )
            rate = self.cpu.arch.clock_ghz * 1e9 * self.cpu.cal.matmul_recast_eff
        vector = self.problem.vector_flops_per_iteration() / rate
        return contr + vector

    def sequential_gflops(self) -> float:
        return self.app_flops_per_iteration() / self._cpu_iteration_seconds(False) / 1e9

    def openmp_gflops(self) -> float:
        return self.app_flops_per_iteration() / self._cpu_iteration_seconds(True) / 1e9

    # -- GPU --------------------------------------------------------------
    def _gpu_iteration_seconds(
        self, arch: GPUArch, kernel_seconds: float, solve_iterations: int = 100
    ) -> float:
        """Per-CG-iteration seconds: kernels + vector work + amortized PCIe.

        CG state lives on the device for the whole solve; the initial
        upload and final download amortize over ``solve_iterations``
        ("include the time to transfer data back and forth" — per solve,
        not per iteration).  Each iteration still returns two dot-product
        scalars to the host (latency only).
        """
        field = self.problem.elements * self.problem.n**3
        per_solve = transfer_time(arch, 3 * field, calls=3) + transfer_time(
            arch, field, calls=1
        )
        dots = 2 * arch.pcie_latency_us * 1e-6
        # Diagonal scaling + axpy/dot kernels: bandwidth-bound streaming over
        # ~8 field-sized arrays, plus a handful of small launches.
        vec_bytes = 8 * field * _B
        vec = vec_bytes / (arch.dram_bandwidth_gbs * arch.dram_efficiency * 1e9)
        vec += 6 * arch.kernel_launch_us * 1e-6
        return kernel_seconds + vec + dots + per_solve / solve_iterations

    def barracuda_gflops(self, arch: GPUArch, tuned_lg3, tuned_lg3t) -> float:
        """App rate with the autotuned Lg3/Lg3t kernels (TuneResults)."""
        kernels = tuned_lg3.timing.kernel_s + tuned_lg3t.timing.kernel_s
        total = self._gpu_iteration_seconds(arch, kernels)
        return self.app_flops_per_iteration() / total / 1e9

    def openacc_gflops(
        self,
        arch: GPUArch,
        strategy: str,
        tuned_lg3=None,
        tuned_lg3t=None,
    ) -> float:
        """App rate with OpenACC-generated contraction kernels.

        ``strategy`` is ``"naive"`` or ``"optimized"``; the optimized form
        needs the Barracuda-tuned configurations to borrow decompositions
        from (exactly how the paper built it).
        """
        model = OpenACCModel(GPUPerformanceModel(arch))
        p3, p3t = self._programs()
        if strategy == "naive":
            kernels = model.naive_timing(p3).kernel_s + model.naive_timing(p3t).kernel_s
        elif strategy == "optimized":
            if tuned_lg3 is None or tuned_lg3t is None:
                raise SimulationError("optimized OpenACC needs the tuned configs")
            kernels = (
                model.optimized_timing(p3, _config(tuned_lg3)).kernel_s
                + model.optimized_timing(p3t, _config(tuned_lg3t)).kernel_s
            )
        else:
            raise SimulationError(f"unknown OpenACC strategy {strategy!r}")
        total = self._gpu_iteration_seconds(arch, kernels)
        return self.app_flops_per_iteration() / total / 1e9


def _config(tuned) -> ProgramConfig:
    return tuned.best_config if hasattr(tuned, "best_config") else tuned
