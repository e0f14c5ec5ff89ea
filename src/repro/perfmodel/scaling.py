"""Per-iteration runtime prediction for DALIA and the R-INLA baseline.

The predictors combine the analytic kernel counts of
:mod:`repro.perfmodel.flops` with a :class:`MachineModel`.  They reproduce
the *structure* of the paper's evaluation:

- one BFGS iteration = ``ceil(nfeval / s1)`` waves of objective
  evaluations plus an allreduce (strategy S1);
- one evaluation = precision construction + mapping (``O(nnz)``,
  bandwidth-bound — dominant for small models, the paper's superlinear
  weak-scaling regime) + the ``Qp``/``Qc`` factorizations and the ``Qc``
  solve (concurrent under S2) on the sequential or distributed solver
  (S3 with boundary load balancing);
- the R-INLA baseline = the same wave structure on CPU threads with a
  general sparse solver whose fill-driven cost lacks the structured
  batching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.perfmodel import flops as F
from repro.perfmodel.machine import CPU_BASELINE_MACHINE, GH200_MACHINE, MachineModel
from repro.perfmodel.transfer import stencil_batch_profile
from repro.structured.partition import partition_counts


@dataclass(frozen=True)
class ModelShape:
    """Dimensions of one coregional ST model (enough to cost it)."""

    nv: int
    ns: int
    nt: int
    nr: int

    @property
    def dim_theta(self) -> int:
        return 4 * self.nv + self.nv * (self.nv - 1) // 2

    @property
    def nfeval(self) -> int:
        return 2 * self.dim_theta + 1

    @property
    def b(self) -> int:
        return self.nv * self.ns

    @property
    def a(self) -> int:
        return self.nv * self.nr

    @property
    def N(self) -> int:
        return self.nv * (self.ns * self.nt + self.nr)

    @property
    def nnz(self) -> int:
        """Rough nonzero count of ``Qc``: 3 temporal neighbors x ~37-entry
        3-hop spatial stencil x nv response coupling, per latent variable."""
        return int(self.N * 3 * 37 * self.nv)


@dataclass(frozen=True)
class ScalingPoint:
    """One point of a scaling curve."""

    nprocs: int
    time_s: float
    label: str = ""


def parallel_efficiency(points: list, *, weak: bool = False) -> list:
    """Efficiencies relative to the first point.

    Strong scaling: ``eta_p = t_1 / (p * t_p) * p_1``.  Weak scaling:
    ``eta_p = t_1 / t_p`` (constant work per process).
    """
    if not points:
        return []
    t1, p1 = points[0].time_s, points[0].nprocs
    out = []
    for pt in points:
        if weak:
            out.append(t1 / pt.time_s)
        else:
            out.append((t1 * p1) / (pt.time_s * pt.nprocs))
    return out


class DaliaPerfModel:
    """Runtime model of the DALIA pipeline on the modeled machine.

    ``eval_overhead_s`` is the per-evaluation framework constant (Python
    dispatch, CuPy kernel-graph setup, host-side sparse assembly).  It is
    what dominates the paper's *small* models — "the majority of the
    runtime is not spent in the solver but mainly in the precision matrix
    construction" (Sec. V-D) — and produces the superlinear weak-scaling
    onset; it becomes negligible once the solver work grows.
    """

    def __init__(self, machine: MachineModel | None = None, *, eval_overhead_s: float = 1.0):
        self.machine = machine or GH200_MACHINE
        self.eval_overhead_s = eval_overhead_s

    # -- solver-kernel times (used directly by the Fig. 5 microbenchmarks) --

    def factorization_time(self, shape: ModelShape, s3: int, *, lb: float = 1.0) -> float:
        n, b, a = shape.nt, shape.b, shape.a
        if s3 <= 1:
            return self.machine.kernel_time(F.bta_factorization_flops(n, b, a), b, n_launches=4 * n)
        counts = partition_counts(n, s3, lb=lb)
        t = self.machine.kernel_time(
            F.d_pobtaf_critical_flops(counts, b, a), b, n_launches=7 * max(counts)
        )
        t += self.machine.allreduce_time(F.d_pobtaf_comm_bytes(s3, b, a), s3)
        return t

    def solve_time(self, shape: ModelShape, s3: int, *, lb: float = 1.0) -> float:
        n, b, a = shape.nt, shape.b, shape.a
        if s3 <= 1:
            return self.machine.kernel_time(F.bta_solve_flops(n, b, a), b, n_launches=4 * n)
        counts = partition_counts(n, s3, lb=lb)
        t = self.machine.kernel_time(
            F.d_pobtas_critical_flops(counts, b, a), b, n_launches=6 * max(counts)
        )
        t += self.machine.allreduce_time(8.0 * (shape.a + 2 * b * s3), s3)
        return t

    def selected_inversion_time(self, shape: ModelShape, s3: int, *, lb: float = 1.0) -> float:
        n, b, a = shape.nt, shape.b, shape.a
        if s3 <= 1:
            return self.machine.kernel_time(
                F.bta_selected_inversion_flops(n, b, a), b, n_launches=6 * n
            )
        counts = partition_counts(n, s3, lb=lb)
        return self.machine.kernel_time(
            F.d_pobtasi_critical_flops(counts, b, a), b, n_launches=10 * max(counts)
        )

    # -- objective evaluation and BFGS iteration ------------------------------

    def construction_time(self, shape: ModelShape, s3: int) -> float:
        """Precision assembly + permutation + sparse-to-dense mapping.

        ``O(nnz)`` bandwidth-bound work with a fixed per-term overhead;
        this floor is what makes small models construction-dominated
        (paper Sec. V-D) — it does not shrink with the solver layers.
        """
        passes = 14.0  # Kronecker terms, alignment, permutation, mapping
        nbytes = passes * F.sparse_to_dense_bytes(shape.nnz) / max(s3, 1)
        return self.machine.stream_time(nbytes) + 60 * self.machine.launch_overhead_s

    def eval_time(self, shape: ModelShape, *, s2: int = 1, s3: int = 1, lb: float = 1.6) -> float:
        """One objective evaluation (Qp and Qc paths, S2-concurrent).

        This prices the paper's evaluation, which factorizes the joint
        ``Qp`` as it does ``Qc``; the code in this package instead pays
        ``nv`` univariate ``(nt, ns)`` factorizations for ``log|Qp|``
        (fewer still when memoized, see
        :meth:`repro.model.assembler.CoregionalSTModel.prior_logdets`).
        """
        t_qp = self.factorization_time(shape, s3, lb=lb)
        t_qc = self.factorization_time(shape, s3, lb=lb) + self.solve_time(shape, s3, lb=lb)
        t_solver = max(t_qp, t_qc) if s2 >= 2 else t_qp + t_qc
        return self.eval_overhead_s + self.construction_time(shape, s3) + t_solver

    def stencil_transfer_time(self, shape: ModelShape, *, t: int | None = None) -> float:
        """Link cost of one theta-batched stencil wave on this machine.

        ``t`` defaults to the full stencil width ``nfeval``.  The profile
        (one H2D RHS stack, three D2H result stacks) is the paper's
        pipeline, which the mock device backend measures with one
        log-determinant stack fewer; charging it makes the offload
        decision transfer-aware — for the paper's models it is microseconds
        against second-scale factorizations, which is why the pipeline
        keeps everything device-resident between crossings.
        """
        t = shape.nfeval if t is None else t
        return stencil_batch_profile(shape.N, t).time(self.machine)

    def iteration_time(
        self, shape: ModelShape, *, s1: int = 1, s2: int = 1, s3: int = 1, lb: float = 1.6
    ) -> float:
        """One BFGS iteration: gradient stencil waves + value aggregation."""
        waves = math.ceil(shape.nfeval / max(s1, 1))
        t = waves * self.eval_time(shape, s2=s2, s3=s3, lb=lb)
        t += self.machine.allreduce_time(8.0 * shape.nfeval, s1 * s2 * s3)
        return t

    def iteration_time_for_procs(self, shape: ModelShape, nprocs: int, *, min_s3: int = 1) -> float:
        """Paper Sec. V-D placement policy: S1 first, then S2, then S3."""
        from repro.comm.groups import plan_process_grid

        grid = plan_process_grid(
            nprocs, shape.nfeval, gaussian=True, min_s3=min_s3, max_s3=max(shape.nt // 2, 1)
        )
        return self.iteration_time(shape, s1=grid.s1, s2=grid.s2, s3=grid.s3)


class RInlaPerfModel:
    """Cost model of the R-INLA/PARDISO baseline (paper Table I row 1).

    The general sparse factorization of a time-major ST precision has a
    band profile of width ``~b``, giving ``O(n b^3)`` flops like the
    structured solver but (a) executed as scalar/supernodal CPU kernels at
    far lower throughput, (b) with fill-in overhead ``fill_factor``, and
    (c) with only nested shared-memory parallelism: ``s1`` groups of
    ``omp`` threads on one node.
    """

    def __init__(
        self,
        machine: MachineModel | None = None,
        *,
        fill_factor: float = 6.0,
        eval_overhead_s: float = 2.5,
    ):
        self.machine = machine or CPU_BASELINE_MACHINE
        self.fill_factor = fill_factor
        # Per-evaluation constant of the R stack (model assembly in R,
        # PARDISO analysis phase) — calibrated so the smallest WA1 point
        # reproduces the paper's ~1.5x single-GPU speedup.
        self.eval_overhead_s = eval_overhead_s

    def factorization_time(self, shape: ModelShape, omp: int = 8) -> float:
        n, b, a = shape.nt, shape.b, shape.a
        flops = self.fill_factor * F.bta_factorization_flops(n, b, a)
        peak = (
            self.machine.device.gemm_tflops * 1e12 * self.machine.peak_fraction * min(omp, 8) / 8.0
        )
        eff = self.machine.gemm_efficiency(b)
        return flops / (peak * eff)

    def eval_time(self, shape: ModelShape, omp: int = 8) -> float:
        n, b, a = shape.nt, shape.b, shape.a
        t_solver = 2.0 * self.factorization_time(shape, omp)
        t_solver += self.fill_factor * F.bta_solve_flops(n, b, a) / (
            self.machine.device.gemm_tflops * 1e12 * 0.05
        )
        t_build = self.machine.stream_time(10.0 * F.sparse_to_dense_bytes(shape.nnz))
        return self.eval_overhead_s + t_build + t_solver

    def iteration_time(self, shape: ModelShape, *, s1: int = 8, omp: int = 8) -> float:
        waves = math.ceil(shape.nfeval / max(s1, 1))
        return waves * self.eval_time(shape, omp)
