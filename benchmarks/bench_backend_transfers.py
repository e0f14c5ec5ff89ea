"""Host<->device crossing counts per workload, measured vs. modeled.

Every workload of the INLA pipeline is run under the mock device backend
— whose ``asarray``/``to_host`` count each boundary crossing with its
byte size — and the measured ``TransferStats`` are compared against the
analytic :class:`~repro.perfmodel.transfer.TransferProfile` the
performance model charges for that workload.  The report adds the
modeled link time on a GH200 (NVLink-C2C) and on a conservative
PCIe-class machine: the numbers that justify keeping everything
device-resident between the one H2D (RHS stack in) and three D2H (mean
+ log-determinant stacks out) crossings of a stencil sweep.

Gate.  Crossing-count ceilings, not wall time: the mock backend costs
the same as NumPy, so timing it is meaningless — what must not regress
is the *count*.  A refactor that sneaks in a hidden host round-trip
(e.g. a bare ``np.asarray`` on a device factor) raises the measured
crossings above the modeled profile and fails the gate on any machine,
deterministically.

Run directly::

    PYTHONPATH=src python benchmarks/bench_backend_transfers.py

or through pytest (writes ``benchmarks/results/backend_transfers.txt``)::

    PYTHONPATH=src python -m pytest benchmarks/bench_backend_transfers.py -s
"""

import os
from dataclasses import dataclass

import numpy as np

from repro.backend.mock import MOCK_DEVICE_BACKEND
from repro.perfmodel import (
    CPU_BASELINE_MACHINE,
    GH200_MACHINE,
    TransferProfile,
    factorize_host_matrix_profile,
    sample_profile,
    selected_inverse_profile,
    solve_stack_profile,
    stencil_batch_profile,
)
from repro.structured.bta import BTAMatrix, BTAShape
from repro.structured.factor import factorize

try:  # pytest-only import (the module is also runnable stand-alone)
    from benchmarks.conftest import write_report
except ImportError:  # pragma: no cover
    write_report = None

SHAPE = BTAShape(n=16, b=16, a=4)
K = 8  # RHS-stack width / posterior draws per round


@dataclass
class WorkloadResult:
    name: str
    measured: TransferProfile
    modeled: TransferProfile

    @property
    def matches(self) -> bool:
        return self.measured == self.modeled


def _measured() -> TransferProfile:
    return TransferProfile.from_stats(MOCK_DEVICE_BACKEND.transfers)


def _device_matrix(A: BTAMatrix) -> BTAMatrix:
    be = MOCK_DEVICE_BACKEND
    return BTAMatrix(
        be.asarray(A.diag), be.asarray(A.lower), be.asarray(A.arrow), be.asarray(A.tip)
    )


def run_workloads() -> list:
    be = MOCK_DEVICE_BACKEND
    rng = np.random.default_rng(0)
    A = BTAMatrix.random_spd(SHAPE, rng)
    out = []

    be.transfers.reset()
    dev = _device_matrix(A)
    out.append(WorkloadResult(
        "upload matrix", _measured(), factorize_host_matrix_profile(SHAPE.n, SHAPE.b, SHAPE.a)
    ))

    f = factorize(dev)
    be.transfers.reset()
    be.to_host(f.solve_stack(rng.standard_normal((K, f.N))))
    out.append(WorkloadResult("solve_stack", _measured(), solve_stack_profile(f.N, K)))

    be.transfers.reset()
    be.to_host(f.selected_inverse_diagonal())
    out.append(WorkloadResult("selected inverse", _measured(), selected_inverse_profile(f.N)))

    be.transfers.reset()
    be.to_host(f.sample(K, rng))
    out.append(WorkloadResult("sample", _measured(), sample_profile(f.N, K)))

    # The theta-batched objective sweep: assembly, factorization and the
    # triangular sweeps all device-resident; only the RHS stack crosses
    # in and the epilogue stacks cross out.
    from repro.inla.evaluator import FobjEvaluator
    from repro.model.datasets import make_dataset

    model, gt, _ = make_dataset(nv=1, ns=20, nt=5, nr=2, obs_per_step=25, seed=5)
    prev = os.environ.get("REPRO_BACKEND")
    os.environ["REPRO_BACKEND"] = "mock_device"
    try:
        ev = FobjEvaluator(model, batch_stencils=True, cache_size=0)
        be.transfers.reset()
        ev.value_and_gradient(gt.theta, h=1e-4)
    finally:
        if prev is None:
            os.environ.pop("REPRO_BACKEND", None)
        else:  # pragma: no cover - depends on caller environment
            os.environ["REPRO_BACKEND"] = prev
    t = 2 * model.layout.dim + 1
    profile = stencil_batch_profile(model.N, t, logdet_stacks=1)  # host-side prior logdets
    out.append(WorkloadResult("stencil sweep", _measured(), profile))

    be.transfers.reset()
    return out


def format_report(results) -> str:
    lines = [
        "host<->device crossings per workload: mock-measured vs. transfer model",
        f"(BTA n={SHAPE.n} b={SHAPE.b} a={SHAPE.a}, k={K}; stencil on the nv=1 test model)",
        f"{'workload':<18} {'h2d':>9} {'d2h':>9} {'bytes':>9} | "
        f"{'model':>9} | {'GH200':>9} {'PCIe':>9}",
    ]
    for r in results:
        m, p = r.measured, r.modeled
        lines.append(
            f"{r.name:<18} {f'{m.h2d_calls}x{m.h2d_bytes}':>9} "
            f"{f'{m.d2h_calls}x{m.d2h_bytes}':>9} {m.bytes_moved:>9} | "
            f"{'match' if r.matches else 'MISMATCH':>9} | "
            f"{p.time(GH200_MACHINE) * 1e6:>7.1f}us "
            f"{p.time(CPU_BASELINE_MACHINE) * 1e6:>7.1f}us"
        )
    lines.append(
        "gate: measured crossings == modeled profile per workload (count ceilings, "
        "not wall time — the mock backend has host speed)"
    )
    return "\n".join(lines)


def test_bench_backend_transfers(results_dir):
    """Crossing-count gate: the pipeline performs exactly the crossings
    the transfer model charges — no hidden host round-trips."""
    results = run_workloads()
    report = format_report(results)
    if write_report is not None:
        write_report(results_dir, "backend_transfers", report)
    for r in results:
        assert r.measured.h2d_calls <= r.modeled.h2d_calls, (r.name, r.measured, r.modeled)
        assert r.measured.d2h_calls <= r.modeled.d2h_calls, (r.name, r.measured, r.modeled)
        # And exactly the modeled bytes: a silent dtype widening or an
        # extra copy shows up here.
        assert r.matches, (r.name, r.measured, r.modeled)


def main():  # pragma: no cover
    print(format_report(run_workloads()))


if __name__ == "__main__":  # pragma: no cover
    main()
