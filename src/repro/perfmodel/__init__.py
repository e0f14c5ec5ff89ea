"""Performance model for paper-scale extrapolation.

The paper's figures run on up to 496 GH200 superchips; this host runs a
handful of thread-ranks.  The reproduction therefore measures real kernel
times at feasible sizes, calibrates per-kernel efficiency, and combines
analytic flop/byte/message counts with the modeled machine to predict
paper-scale runtimes — preserving *scaling shapes* (speedups, crossover
points, parallel efficiencies), which is what the figure benchmarks write
to ``benchmarks/results/``.

- :mod:`repro.perfmodel.flops` — exact flop counts of every structured
  kernel, per partition role (first vs. middle — the source of the load
  imbalance the ``lb`` factor corrects);
- :mod:`repro.perfmodel.machine` — GH200 / CPU machine descriptions with
  block-size-dependent kernel efficiency;
- :mod:`repro.perfmodel.calibrate` — fits the efficiency constants from
  measured kernel runs on this host;
- :mod:`repro.perfmodel.scaling` — per-iteration time predictions for
  any (S1, S2, S3) process grid, plus the R-INLA baseline cost model;
- :mod:`repro.perfmodel.transfer` — host<->device crossing/byte counts
  per workload, validated against the mock device backend's measured
  ``TransferStats`` — the link-cost side of the offload decision.
"""

from repro.perfmodel.flops import (
    bta_factorization_flops,
    bta_selected_inversion_flops,
    bta_solve_flops,
    partition_factorization_flops,
)
from repro.perfmodel.calibrate import (
    calibrated_host_machine,
    fit_efficiency_law,
    measure_factorization,
)
from repro.perfmodel.machine import MachineModel, GH200_MACHINE, CPU_BASELINE_MACHINE
from repro.perfmodel.scaling import (
    DaliaPerfModel,
    RInlaPerfModel,
    ScalingPoint,
    parallel_efficiency,
)
from repro.perfmodel.transfer import (
    TransferProfile,
    device_execution_pays,
    factorize_host_matrix_profile,
    sample_profile,
    selected_inverse_profile,
    solve_stack_profile,
    stencil_batch_profile,
)

__all__ = [
    "bta_factorization_flops",
    "bta_solve_flops",
    "bta_selected_inversion_flops",
    "partition_factorization_flops",
    "MachineModel",
    "GH200_MACHINE",
    "CPU_BASELINE_MACHINE",
    "DaliaPerfModel",
    "RInlaPerfModel",
    "ScalingPoint",
    "parallel_efficiency",
    "calibrated_host_machine",
    "fit_efficiency_law",
    "measure_factorization",
    "TransferProfile",
    "stencil_batch_profile",
    "solve_stack_profile",
    "sample_profile",
    "selected_inverse_profile",
    "factorize_host_matrix_profile",
    "device_execution_pays",
]
