"""Host<->device transfer accounting for the structured pipeline.

A backend that executes on a device (CuPy, or the host-resident
:class:`~repro.backend.mock.MockDeviceBackend` stand-in) pays for every
array that crosses the link: the RHS stacks fed into the sweeps, the
conditional means and log-determinants read back by the Eq. 8 epilogue,
posterior draws, Takahashi variances.  This module predicts those
crossings analytically, per workload, in the *same counters* the mock
backend measures (``TransferStats``: calls + bytes per direction) — so
the model is validated against observed counts, not guessed
(``tests/perfmodel/test_transfer.py``, ``benchmarks/bench_backend_transfers.py``).

Combined with :meth:`MachineModel.transfer_time` this closes the loop
for solver selection: device execution pays only when the kernel-time
win exceeds the link cost of moving the workload's inputs and outputs
(:func:`device_execution_pays`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backend.memory import bta_memory_bytes
from repro.perfmodel.machine import GH200_MACHINE, MachineModel

_F64 = 8

__all__ = [
    "TransferProfile",
    "stencil_batch_profile",
    "solve_stack_profile",
    "sample_profile",
    "selected_inverse_profile",
    "factorize_host_matrix_profile",
    "device_execution_pays",
]


@dataclass(frozen=True)
class TransferProfile:
    """Host<->device crossings of one workload, by direction.

    Mirrors the mock device backend's ``TransferStats`` counters so a
    predicted profile and a measured one compare field-for-field.
    """

    h2d_calls: int
    h2d_bytes: int
    d2h_calls: int
    d2h_bytes: int

    @property
    def crossings(self) -> int:
        return self.h2d_calls + self.d2h_calls

    @property
    def bytes_moved(self) -> int:
        return self.h2d_bytes + self.d2h_bytes

    def time(self, machine: MachineModel) -> float:
        """Link time of this profile on ``machine``."""
        return machine.transfer_time(self.bytes_moved, n_crossings=self.crossings)

    def __add__(self, other: "TransferProfile") -> "TransferProfile":
        return TransferProfile(
            self.h2d_calls + other.h2d_calls,
            self.h2d_bytes + other.h2d_bytes,
            self.d2h_calls + other.d2h_calls,
            self.d2h_bytes + other.d2h_bytes,
        )

    @classmethod
    def from_stats(cls, stats) -> "TransferProfile":
        """Snapshot a mock backend's measured ``TransferStats``."""
        return cls(stats.h2d_calls, stats.h2d_bytes, stats.d2h_calls, stats.d2h_bytes)


def stencil_batch_profile(N: int, t: int, *, logdet_stacks: int = 2) -> TransferProfile:
    """One theta-batched stencil sweep over ``t`` feasible points.

    With assembly, factorization, and sweeps all on the device, exactly
    one H2D crossing remains — the ``(t, N)`` conditional-mean RHS stack
    entering ``solve_each`` — and the D2H crossings of the Eq. 8
    epilogue: the ``(t, N)`` mean stack and ``logdet_stacks`` ``(t,)``
    log-determinant stacks.  Two is the paper's pipeline (``Qp`` and
    ``Qc`` both factorized on the device); this package's evaluator reads
    back one, since its prior log-determinants come from host-side
    univariate factorizations (``CoregionalSTModel.prior_logdets``).
    """
    return TransferProfile(
        h2d_calls=1,
        h2d_bytes=t * N * _F64,
        d2h_calls=1 + logdet_stacks,
        d2h_bytes=t * N * _F64 + logdet_stacks * t * _F64,
    )


def solve_stack_profile(N: int, k: int, *, to_host: bool = True) -> TransferProfile:
    """``BTAFactor.solve_stack`` on a host ``(k, N)`` RHS stack."""
    d2h = (1, k * N * _F64) if to_host else (0, 0)
    return TransferProfile(1, k * N * _F64, *d2h)


def sample_profile(N: int, k: int, *, with_mean: bool = False) -> TransferProfile:
    """``BTAFactor.sample(k)``: the host-RNG noise block crosses H2D
    (plus the mean vector when given), the draws cross back."""
    h2d_calls = 2 if with_mean else 1
    h2d_bytes = k * N * _F64 + (N * _F64 if with_mean else 0)
    return TransferProfile(h2d_calls, h2d_bytes, 1, k * N * _F64)


def selected_inverse_profile(N: int) -> TransferProfile:
    """Takahashi marginal variances: only the ``(N,)`` diagonal returns."""
    return TransferProfile(0, 0, 1, N * _F64)


def factorize_host_matrix_profile(n: int, b: int, a: int) -> TransferProfile:
    """Factorizing a host-assembled BTA matrix: its four block arrays
    (diag, lower, arrow, tip) cross H2D once.  Zero when assembly
    already runs on the device (the stencil pipeline's configuration)."""
    return TransferProfile(4, bta_memory_bytes(n, b, a, factors=1), 0, 0)


def device_execution_pays(
    kernel_time_host: float,
    kernel_time_device: float,
    profile: TransferProfile,
    *,
    device_machine: MachineModel | None = None,
) -> bool:
    """Does offloading win once the workload's link crossings are charged?

    ``kernel_time_host`` / ``kernel_time_device`` are the modeled compute
    times of the same workload on each machine (e.g. from
    :class:`~repro.perfmodel.scaling.DaliaPerfModel`); ``profile`` the
    host<->device crossings the device run incurs.  The host run pays no
    transfers by construction.
    """
    machine = device_machine or GH200_MACHINE
    return kernel_time_device + profile.time(machine) < kernel_time_host
