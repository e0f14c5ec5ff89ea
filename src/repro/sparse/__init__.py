"""Sparse-matrix utilities underlying the precision-matrix machinery.

Three pieces:

- :mod:`repro.sparse.align` — canonical CSR normalization and the
  scatter of sub-pattern matrices onto one fixed reference pattern, so
  re-assembled precisions always share the plans' sparsity;
- :mod:`repro.sparse.permutation` — precomputed symmetric permutations
  applied directly to CSR data arrays, so the coregional reordering
  (paper Sec. IV-B1) costs ``O(nnz)`` per objective evaluation with no
  index recomputation;
- :mod:`repro.sparse.mapping` — the sparse-to-structured-dense mapping
  that scatters CSR nonzeros into BTA block stacks in ``O(nnz)``, the
  NumPy equivalent of the paper's custom CUDA kernels (Sec. IV-F).
"""

from repro.sparse.mapping import BTAMapping
from repro.sparse.permutation import SymmetricPermutation, time_major_permutation

__all__ = [
    "BTAMapping",
    "SymmetricPermutation",
    "time_major_permutation",
]
