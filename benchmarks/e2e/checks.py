"""Output checks of one run, all outside the timed regions.

Each check is ``(name, error, tolerance, is_reference)`` and fails when
its error exceeds its tolerance.  Checks against an *independent*
reference — a general sparse LU (``baselines.sparse_solver``) of
``assemble_sparse(theta)``, which knows nothing of the BTA structure —
feed ``ref_err``; the others compare two execution modes of ``repro``
that must agree, bit for bit where the tolerance is 0.

Forward comparisons (solution against solution) are made at the model's
reference theta, where ``Qc`` has a condition number around 1e5.  At a
fitted mode it can reach 1e13 (measured on ``gauss3_fit``): there every
correct solver differs from every other by ~1e-6, so the mode's mean is
checked by its residual instead.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.sparse_solver import SparseCholesky
from repro.inla.nongaussian import evaluate_fobj_nongaussian, evaluate_fobj_nongaussian_batch
from repro.inla.sampling import LatentPosterior
from repro.serving.api import execute_batch

#: Tolerance of the independent-reference checks (relative).
REF_TOL = 1e-8
#: Tolerance between two execution modes of the same arithmetic, and of
#: relative residuals.
MODE_TOL = 1e-10
#: Latent variances / predictive sds verified per run (each is one
#: unit-vector solve against the sparse factor).
SUBSET = 32

_DECOMP = ("value", "log_likelihood", "logdet_qp", "logdet_qc", "quad_qp")


def rel_err(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))


def _same_bits(a, b) -> float:
    return 0.0 if np.array_equal(np.asarray(a), np.asarray(b)) else 1.0


def _unit_columns(n: int, idx) -> np.ndarray:
    E = np.zeros((n, len(idx)))
    E[idx, np.arange(len(idx))] = 1.0
    return E


def _results_equal(a, b) -> bool:
    fields = [f for f in ("samples", "mean", "sd", "probability") if hasattr(a, f)]
    return type(a) is type(b) and all(
        np.array_equal(getattr(a, f), getattr(b, f)) for f in fields
    )


def _residual(model, posterior) -> float:
    """Relative residual of the posterior mean in the sparse ``Qc``."""
    _, qc, rhs, _ = model.assemble_sparse(posterior.theta)
    return float(np.max(np.abs(qc @ posterior.mean() - rhs)) / np.max(np.abs(rhs)))


def run_checks(run) -> list:
    out = []
    inp, kept, model = run.inputs, run.kept, run.inputs.model
    rng = np.random.default_rng([run.seed, 8])
    mode = kept["mode"]

    def check(name, error, tolerance, is_reference=False):
        out.append((name, float(error), tolerance, is_reference))

    # -- determinism ----------------------------------------------------------
    fits = kept["fits"]
    check(
        "fits_bit_identical",
        max(
            max(_same_bits(r.theta_mode, fits[0].theta_mode),
                _same_bits(r.fobj_mode, fits[0].fobj_mode))
            for r in fits
        ),
        0.0,
    )
    theta, f0, grad = kept["stencils"][0]
    f0_again, grad_again, _ = inp.engine().evaluator.value_and_gradient(theta)
    check("stencil_bit_identical", max(_same_bits(f0, f0_again), _same_bits(grad, grad_again)), 0.0)

    # -- at the fitted mode -----------------------------------------------------
    check("served_mean_residual", _residual(model, kept["served_posterior"]), MODE_TOL, True)
    if inp.likelihood is None:
        check("fit_mean_residual", _residual(model, kept["posterior"]), MODE_TOL, True)
        (coords, time_idx, v), pred = kept["downscale"][0]
        A = kept["posterior"].predictive_design(coords, time_idx, v)
        check("downscale_mean_consistent", rel_err(pred["mean"], A @ kept["posterior"].mean()),
              MODE_TOL)
    else:
        # One lockstep stencil against the per-theta serial Newton loop.
        pts = inp.engine().evaluator.gradient_stencil(mode, 1e-4)
        batch = evaluate_fobj_nongaussian_batch(model, pts, inp.likelihood)
        err = 0.0
        for got, th in zip(batch, pts):
            want = evaluate_fobj_nongaussian(model, th, inp.likelihood)
            err = max(err, *(rel_err(getattr(got, a), getattr(want, a)) for a in _DECOMP))
        check("lockstep_vs_serial", err, MODE_TOL)
    if inp.elevation_truth is not None:
        # Sec. VI: elevation lowers particulates and raises ozone.
        marginals = kept["posterior"].marginals()
        wrong = [
            np.sign(marginals.fixed_effects(v)[1].mean) != np.sign(truth)
            for v, truth in enumerate(inp.elevation_truth)
        ]
        check("elevation_signs", float(any(wrong)), 0.0)

    # -- counts that must come out exactly ---------------------------------------
    c = run.counters
    # The evaluator batches stencils only in the dispatch-bound regime
    # (b <= 32 on the host backend); a fit must take the path built for it.
    batched = c.get("evaluator.n_batch_sweeps", 0) > 0
    check("stencil_path_matches_block_size",
          float(batched != (model.permutation.bta_shape.b <= 32)), 0.0)
    # Six thetas through a three-model budget: every block of a cycle refits.
    check("churn_misses_exact", abs(c["churn.misses"] - 6 * c["churn.cycles"]), 0.0)
    check("no_retries_shed_timeouts",
          sum(c.get("server." + k, 0) for k in ("retries", "shed", "timed_out", "failed")), 0.0)

    # -- serving: batch composition must not change response bits ---------------
    served = kept["served_posterior"]
    mismatches = sum(
        not _results_equal(got, execute_batch(served, [req])[0]) for req, got in kept["responses"]
    )
    check("served_bit_identical", mismatches + (len(kept["responses"]) == 0), 0.0)

    # -- at the reference theta: BTA against the sparse reference ----------------
    theta_ref, _, rhs_perm, _ = kept["solver_matrix"]
    seq, dist = kept["seq"], kept["dist"]
    check("solver_logdet_seq_vs_dist", rel_err(dist["logdet"], seq["logdet"]), MODE_TOL)
    check("solver_solve_seq_vs_dist", rel_err(dist["x"], seq["x"]), MODE_TOL)
    check("solver_selinv_seq_vs_dist", rel_err(dist["diag"], seq["diag"]), MODE_TOL)

    _, qc_ref, rhs_ref, _ = model.assemble_sparse(theta_ref)
    ref = SparseCholesky(qc_ref)
    perm = model.permutation
    idx = rng.choice(model.N, SUBSET, replace=False)
    ref_var = ref.solve(_unit_columns(model.N, idx))[idx, np.arange(SUBSET)]
    check("solver_logdet_vs_sparse", rel_err(seq["logdet"], ref.logdet()), REF_TOL, True)
    check(
        "solver_solve_vs_sparse",
        rel_err(perm.unpermute_vector(seq["x"]), ref.solve(perm.unpermute_vector(rhs_perm))),
        REF_TOL, True,
    )
    check("solver_selinv_vs_sparse", rel_err(perm.unpermute_vector(seq["diag"])[idx], ref_var),
          REF_TOL, True)

    posterior = LatentPosterior.at(model, theta_ref)
    check("latent_mean_vs_sparse", rel_err(posterior.mean(), ref.solve(rhs_ref)), REF_TOL, True)
    check("latent_var_vs_sparse", rel_err(posterior.marginals().sd[idx] ** 2, ref_var),
          REF_TOL, True)
    (coords, time_idx, v), _ = kept["downscale"][0]
    pick = rng.choice(len(coords), SUBSET, replace=False)
    pred = posterior.predict(coords[pick], time_idx[pick], v)
    A = posterior.predictive_design(coords[pick], time_idx[pick], v).toarray()
    check("predict_mean_vs_sparse", rel_err(pred["mean"], A @ ref.solve(rhs_ref)), REF_TOL, True)
    check("predict_sd_vs_sparse",
          rel_err(pred["sd"] ** 2, np.einsum("ij,ji->i", A, ref.solve(A.T))), REF_TOL, True)
    return out
