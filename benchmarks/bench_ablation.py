"""Ablation benchmarks for DALIA's design choices (DESIGN.md, "Ablated design choices").

The paper motivates three implementation decisions; each is ablated here
against its naive alternative on the same inputs:

1. **Precomputed permutation plan** (Sec. IV-B1) vs. recomputing the
   symbolic permutation at every evaluation;
2. **O(nnz) sparse-to-dense block mapping** (Sec. IV-F, the custom CUDA
   kernels) vs. the naive O(n b^2) dense scan via ``toarray`` slicing;
3. **Structured BTA factorization** (Sec. IV-C) vs. the general sparse
   solver on the identical matrix.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from benchmarks.conftest import write_report
from repro.baselines.sparse_solver import SparseCholesky
from repro.diagnostics import Timer, format_table
from repro.model.datasets import make_dataset
from repro.sparse.mapping import BTAMapping
from repro.structured.bta import BTAMatrix
from repro.structured.pobtaf import pobtaf


@pytest.fixture(scope="module")
def assembled():
    model, gt, _ = make_dataset(nv=3, ns=24, nt=10, nr=2, obs_per_step=25, seed=0)
    qp_var, qc_var, _, _ = model.assemble_sparse(gt.theta)
    return model, qc_var


def _naive_densify(Q: sp.csr_matrix, shape) -> BTAMatrix:
    """The O(n b^2) alternative: materialize and slice the dense matrix."""
    return BTAMatrix.from_dense(Q.toarray(), shape)


def test_ablation_permutation_plan(benchmark, assembled, results_dir):
    model, qc = assembled
    aligned = model._align_c.align(qc)

    with Timer() as t_naive:
        for _ in range(5):
            ref = model._perm_c.perm.apply_matrix(aligned)
    with Timer() as t_plan:
        for _ in range(5):
            out = model._perm_c.apply(aligned)
    assert np.allclose(out.toarray(), ref.toarray())
    speedup = t_naive.elapsed / t_plan.elapsed
    write_report(
        results_dir,
        "ablation_permutation",
        format_table(
            ["variant", "5-apply seconds", "speedup"],
            [
                ("recompute symbolic permutation", round(t_naive.elapsed, 4), 1.0),
                ("precomputed O(nnz) plan", round(t_plan.elapsed, 4), round(speedup, 1)),
            ],
            title="Ablation: permutation plan (paper Sec. IV-B1)",
        ),
    )
    assert speedup > 2.0  # the plan must clearly win
    benchmark(model._perm_c.apply, aligned)


def test_ablation_sparse_to_dense_mapping(benchmark, assembled, results_dir):
    model, qc = assembled
    shape = model.permutation.bta_shape
    qc_perm = model._perm_c.apply(model._align_c.align(qc))
    mapping = BTAMapping(qc_perm, shape)

    with Timer() as t_naive:
        for _ in range(3):
            ref = _naive_densify(qc_perm, shape)
    with Timer() as t_mapped:
        for _ in range(3):
            out = mapping.map(qc_perm)
    assert np.allclose(out.to_dense(), ref.to_dense())
    speedup = t_naive.elapsed / t_mapped.elapsed
    write_report(
        results_dir,
        "ablation_mapping",
        format_table(
            ["variant", "3-map seconds", "speedup"],
            [
                ("naive dense scan O(n b^2)", round(t_naive.elapsed, 4), 1.0),
                ("index-planned scatter O(nnz)", round(t_mapped.elapsed, 4), round(speedup, 1)),
            ],
            title="Ablation: sparse-to-structured-dense mapping (paper Sec. IV-F)",
        ),
    )
    assert speedup > 1.0
    benchmark(mapping.map, qc_perm)


def test_ablation_structured_vs_general_solver(benchmark, assembled, results_dir):
    model, qc = assembled
    shape = model.permutation.bta_shape
    qc_perm = model._perm_c.apply(model._align_c.align(qc))
    bta = BTAMapping(qc_perm, shape).map(qc_perm)

    with Timer() as t_sparse:
        ld_sparse = SparseCholesky(qc_perm).logdet()
    with Timer() as t_bta:
        ld_bta = pobtaf(bta.copy(), overwrite=True).logdet()
    assert np.isclose(ld_sparse, ld_bta, rtol=1e-9)
    write_report(
        results_dir,
        "ablation_solver",
        format_table(
            ["variant", "factorize seconds"],
            [
                ("general sparse (SuperLU/PARDISO-like)", round(t_sparse.elapsed, 4)),
                ("structured BTA (pobtaf)", round(t_bta.elapsed, 4)),
            ],
            title=(
                "Ablation: structured vs general sparse factorization on the "
                f"identical Qc (n={shape.n}, b={shape.b}, a={shape.a})"
            ),
        ),
    )
    benchmark(lambda: pobtaf(bta.copy(), overwrite=True).logdet())
