"""The INLA objective function (paper Eq. 8).

For a latent Gaussian model with Gaussian observations the objective is
available in closed form at the conditional mean ``mu``::

    fobj(theta) = log p(theta)                         (hyperprior)
                + log l(y | theta, mu)                 (likelihood)
                + 1/2 log|Qp| - 1/2 mu^T Qp mu         (GMRF prior at mu)
                - 1/2 log|Qc|                          (Gaussian approx at
                                                        its own mean)

(the ``n/2 log 2 pi`` constants of the two Gaussian densities cancel).
Each evaluation factorizes the conditional precision ``Qc`` exactly once
(a handle via ``solver.factorize``) — its ``logdet`` and the
conditional-mean solve share that one ``pobtaf`` — and never factorizes
the joint prior.  ``log|Qp|`` comes from the LMC identity
(:meth:`repro.model.assembler.CoregionalSTModel.prior_logdets`): ``nv``
univariate ``nt``-block factorizations in one batched sweep, of which a
memo (owned by the caller's evaluator) skips every process whose ranges
it has seen.  A cold evaluation therefore counts two ``FACTORIZATIONS``
sweeps, a memo hit one (asserted by the factorization-count tests in
``tests/inla/test_objective.py``).

Hyperparameter configurations for which a precision matrix is not
positive definite yield ``fobj = -inf`` so the optimizer backtracks.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.backend.protocol import backend_for
from repro.inla.solvers import SequentialSolver, StructuredSolver
from repro.model.assembler import (
    AssembledSystem,
    BatchAssembledSystem,
    CoregionalSTModel,
    PriorLogdetMemo,
)
from repro.structured.kernels import NotPositiveDefiniteError


@dataclass
class FobjResult:
    """One objective evaluation, with its decomposition (paper Eq. 8 terms)."""

    theta: np.ndarray
    value: float
    log_prior_theta: float = np.nan
    log_likelihood: float = np.nan
    logdet_qp: float = np.nan
    logdet_qc: float = np.nan
    quad_qp: float = np.nan
    mu_perm: np.ndarray | None = None
    #: The Qc factorization handle behind this evaluation, retained only
    #: when requested (``keep_factor=True``) — the evaluator's theta-keyed
    #: LRU keeps it on recent entries so revisits reuse the factor.
    qc_factor: object | None = field(default=None, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return np.isfinite(self.value)


def finish_fobj_result(
    model: CoregionalSTModel,
    theta: np.ndarray,
    sys: AssembledSystem,
    logdet_p: float,
    logdet_c: float,
    mu_perm: np.ndarray,
    *,
    keep_mu: bool = False,
    qc_factor=None,
) -> FobjResult:
    """Assemble Eq. 8 from the solver outputs of one stencil point.

    Shared by the per-theta path below and the theta-batched stencil
    sweep (:meth:`repro.inla.evaluator.FobjEvaluator.eval_batch`): given
    the two log-determinants and the conditional mean, the remaining
    terms — likelihood, prior, and the ``mu^T Qp mu`` quadrature via the
    sparse matvec — are cheap per-theta vector work.
    """
    eta = model.linear_predictor(mu_perm)
    log_lik = model.likelihood.logpdf(eta, sys.taus)
    quad = float(mu_perm @ (sys.qp_csr @ mu_perm))
    log_prior_theta = model.priors.logpdf(theta)
    value = log_prior_theta + log_lik + 0.5 * logdet_p - 0.5 * quad - 0.5 * logdet_c
    return FobjResult(
        theta=theta,
        value=float(value),
        log_prior_theta=log_prior_theta,
        log_likelihood=log_lik,
        logdet_qp=logdet_p,
        logdet_qc=logdet_c,
        quad_qp=quad,
        mu_perm=mu_perm if keep_mu else None,
        qc_factor=qc_factor,
    )


def finish_fobj_results_batch(
    model: CoregionalSTModel,
    thetas: list,
    batch: BatchAssembledSystem,
    logdets_p: np.ndarray,
    logdets_c: np.ndarray,
    mu_stack: np.ndarray,
) -> list:
    """Eq. 8 epilogue for a whole feasible stencil batch, vectorized.

    ``thetas`` are the live-row hyperparameter vectors, the log-determinant
    stacks and ``mu_stack`` the outputs of the two theta-batched sweeps.
    All per-theta vector work — linear predictors, likelihoods,
    ``mu^T Qp mu`` quadratures, hyperpriors — runs as one broadcasted pass
    each, so the batch sweep has no per-theta Python loop left.  On a
    device backend the conditional means and log-determinants cross D2H
    exactly once here (the crossings the transfer model charges per
    stencil batch); values agree with per-point
    :func:`finish_fobj_result` to rounding, not bit-for-bit.
    """
    be = backend_for(mu_stack, logdets_p, logdets_c)
    mu_host = be.to_host(mu_stack)
    ld_p = np.asarray(be.to_host(logdets_p), dtype=np.float64)
    ld_c = np.asarray(be.to_host(logdets_c), dtype=np.float64)

    etas = model.linear_predictor_stack(mu_host)
    log_liks = np.asarray(model.likelihood.logpdf_stack(etas, batch.taus))
    quads = np.asarray(batch.quad_stack(mu_host), dtype=np.float64)
    theta_stack = np.stack([np.asarray(t, dtype=np.float64) for t in thetas])
    log_priors = model.priors.logpdf_stack(theta_stack)
    values = log_priors + log_liks + 0.5 * ld_p - 0.5 * quads - 0.5 * ld_c
    return [
        FobjResult(
            theta=thetas[i],
            value=float(values[i]),
            log_prior_theta=float(log_priors[i]),
            log_likelihood=float(log_liks[i]),
            logdet_qp=float(ld_p[i]),
            logdet_qc=float(ld_c[i]),
            quad_qp=float(quads[i]),
        )
        for i in range(len(thetas))
    ]


def evaluate_fobj(
    model: CoregionalSTModel,
    theta: np.ndarray,
    *,
    solver: StructuredSolver | None = None,
    s2_parallel: bool = False,
    keep_mu: bool = False,
    keep_factor: bool = False,
    prior_memo: PriorLogdetMemo | None = None,
) -> FobjResult:
    """Evaluate ``fobj(theta)`` (one stencil point of strategy S1).

    ``s2_parallel=True`` computes ``log|Qp|`` and factorizes ``Qc``
    concurrently in two threads (paper strategy S2 — valid because the
    Gaussian likelihood makes the two matrices independent).
    ``keep_factor=True`` attaches the ``Qc`` factorization handle to the
    result so a caching caller (the evaluator's theta-keyed LRU) can
    serve later consumers at this theta without refactorizing.
    ``prior_memo`` carries per-process prior log-determinants across
    calls (see :meth:`CoregionalSTModel.prior_logdets`).
    """
    theta = np.asarray(theta, dtype=np.float64)
    solver = solver or SequentialSolver()
    try:
        sys = model.assemble(theta)
    except (ValueError, FloatingPointError, OverflowError):
        # Line-search probes can wander into exp-overflow territory; treat
        # such configurations as infeasible so BFGS backtracks.
        return FobjResult(theta=theta, value=-np.inf)

    # log|Qp| needs no factorization of Qp itself (LMC identity); the Qc
    # handle is shared by the logdet *and* the conditional-mean solve
    # (and stays reusable for any further consumer at this theta).
    # `overwrite=True` reuses the assembled block storage — Qc is
    # rebuilt every evaluation anyway.
    def prior_logdet():
        return float(model.prior_logdets(sys.theta, prior_memo)[0])

    def factor_qc():
        f = solver.factorize(sys.qc, overwrite=True)
        return f, f.logdet(), f.solve(sys.rhs)

    try:
        if s2_parallel:
            with ThreadPoolExecutor(max_workers=2) as pool:
                fut_p = pool.submit(prior_logdet)
                fut_c = pool.submit(factor_qc)
                logdet_p = fut_p.result()
                fc, logdet_c, mu_perm = fut_c.result()
        else:
            logdet_p = prior_logdet()
            fc, logdet_c, mu_perm = factor_qc()
    except NotPositiveDefiniteError:
        return FobjResult(theta=theta, value=-np.inf)
    if not np.isfinite(logdet_p):  # a process precision is not positive definite
        return FobjResult(theta=theta, value=-np.inf)

    return finish_fobj_result(
        model,
        theta,
        sys,
        logdet_p,
        logdet_c,
        mu_perm,
        keep_mu=keep_mu,
        qc_factor=fc if keep_factor else None,
    )
