"""DALIA front-end: end-to-end Bayesian inference for coregional ST models.

Ties the whole pipeline together (paper Fig. 3): BFGS over ``fobj`` with
S1-parallel gradients, optional S2 factorization concurrency, the
S3-distributed structured solver, FD Hessian at the mode, and posterior
marginals for hyperparameters and the latent field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.inla.bfgs import BFGSOptions, BFGSResult, bfgs_minimize
from repro.inla.evaluator import FobjEvaluator, NonGaussianFobjEvaluator
from repro.inla.hessian import fd_hessian, hyperparameter_precision
from repro.inla.marginals import HyperMarginals, LatentMarginals
from repro.inla.nongaussian import gaussian_approximation
from repro.inla.sampling import LatentPosterior
from repro.inla.solvers import StructuredSolver, select_solver
from repro.model.assembler import CoregionalSTModel


@dataclass
class INLAResult:
    """Complete inference output."""

    theta_mode: np.ndarray
    fobj_mode: float
    hyper: HyperMarginals
    latent: LatentMarginals
    optimization: BFGSResult
    n_fobj_evaluations: int
    #: cross-response correlations implied by the LMC at the mode (nv > 1)
    response_correlations: np.ndarray | None = None

    def describe_theta(self, model: CoregionalSTModel) -> dict:
        return model.layout.describe(self.theta_mode)


class DALIA:
    """The inference engine.

    Parameters
    ----------
    model:
        The assembled latent Gaussian model.
    solver:
        Structured solver for the bottleneck operations.  By default one
        is selected *per workload* via
        :func:`repro.inla.solvers.select_solver`: the objective's
        factorize-in-place logdet/solve sweeps dispatch with
        ``workload="objective"``, while the posterior marginals — whose
        selected inversion additionally keeps a full BTA workspace —
        dispatch with ``workload="marginals"`` (see
        :data:`repro.inla.solvers.WORKLOAD_FACTORS` for the peak-footprint
        multipliers), so the same model can run the mode search
        sequentially and only partition for the variance pass.  An
        explicit solver is used for every phase.
    s1_workers:
        Parallel width for objective-function batches (strategy S1;
        saturates at ``2 dim(theta) + 1``).  On the sequential host path
        the evaluator replaces the per-point thread pool with
        theta-batched ``pobtaf`` sweeps — one batched ``Qc``
        factorization for the whole stencil
        (:func:`repro.structured.multifactor.factorize_batch`); the pool
        remains the fallback for distributed solvers and infeasible
        batches.
    s2_parallel:
        Compute ``log|Qp|`` and factorize ``Qc`` concurrently (strategy
        S2; per-point path only).
    batch_stencils:
        Force (True) / disable (False) the theta-batched stencil sweep;
        None follows the solver type and ``REPRO_BATCHED``.
    cache_size:
        Theta-keyed LRU capacity on the evaluator: the line search and
        convergence checks revisit thetas, and hits skip assembly and
        factorization entirely (None auto-sizes to two gradient
        stencils; the mode's retained ``Qc`` handle additionally feeds
        the latent posterior).
    likelihood:
        Optional non-Gaussian observation likelihood (e.g.
        :class:`repro.inla.nongaussian.PoissonLikelihood`).  When set,
        ``fobj`` evaluations run the batched Laplace-approximation inner
        loop (:class:`repro.inla.evaluator.NonGaussianFobjEvaluator`)
        and the latent posterior is the Gaussian approximation at the
        Newton mode ``x*(theta)`` rather than the exact conditional.
        Only the sequential in-process solver path supports this;
        combining ``likelihood`` with an explicit distributed ``solver``
        raises.
    """

    def __init__(
        self,
        model: CoregionalSTModel,
        *,
        solver: StructuredSolver | None = None,
        s1_workers: int = 1,
        s2_parallel: bool = False,
        batch_stencils: bool | None = None,
        cache_size: int | None = None,
        likelihood=None,
    ):
        self.model = model
        shape = model.permutation.bta_shape
        self.likelihood = likelihood
        if likelihood is not None and solver is not None:
            raise ValueError(
                "non-Gaussian likelihoods run on the sequential in-process "
                "path; do not pass an explicit solver"
            )
        self.solver = solver or select_solver(shape, workload="objective")
        self.marginal_solver = solver or select_solver(shape, workload="marginals")
        #: Factorization handle of Qc at the mode (set by fit(); shared by
        #: the latent marginals and posterior sampling).
        self._mode_posterior: LatentPosterior | None = None
        if likelihood is not None:
            self.evaluator = NonGaussianFobjEvaluator(
                model,
                likelihood,
                s1_workers=min(s1_workers, model.layout.n_feval),
                s2_parallel=s2_parallel,
                batch_stencils=batch_stencils,
                cache_size=cache_size,
            )
        else:
            self.evaluator = FobjEvaluator(
                model,
                solver=self.solver,
                s1_workers=min(s1_workers, model.layout.n_feval),
                s2_parallel=s2_parallel,
                batch_stencils=batch_stencils,
                cache_size=cache_size,
            )

    def default_start(self) -> np.ndarray:
        """Starting point: moderate ranges/unit scales (reference theta)."""
        return self.model._reference_theta()

    def fit(
        self,
        theta0: np.ndarray | None = None,
        *,
        options: BFGSOptions | None = None,
        hessian_step: float = 1e-3,
        compute_latent: bool = True,
    ) -> INLAResult:
        """Run the full INLA pipeline and return posterior summaries."""
        theta0 = self.default_start() if theta0 is None else np.asarray(theta0, dtype=np.float64)
        opt = bfgs_minimize(self.evaluator, theta0, options)

        # The final accepted line-search evaluation retained its Qc handle
        # on the evaluator's LRU; grab it before the Hessian batch floods
        # the cache so the mode posterior can reuse the factorization.
        mode_factor = self.evaluator.cached_factor(opt.theta)

        H = fd_hessian(self.evaluator, opt.theta, h=hessian_step, f_center=opt.fobj)
        precision = hyperparameter_precision(H)
        cov = np.linalg.inv(precision)
        hyper = HyperMarginals(mode=opt.theta.copy(), covariance=cov)

        latent = None
        if compute_latent:
            # One factorization of Qc(theta*) serves the conditional-mean
            # solve, the Takahashi variances, and — via `posterior()` —
            # any later joint sampling: the handle is cached on the
            # engine, and when the optimizer's last line-search handle is
            # still on the LRU even that factorization is skipped.
            if self.likelihood is not None:
                self._mode_posterior = self._nongaussian_posterior(
                    opt.theta, factor=mode_factor
                )
            else:
                self._mode_posterior = LatentPosterior.at(
                    self.model, opt.theta, solver=self.marginal_solver, factor=mode_factor
                )
            latent = self._mode_posterior.marginals()

        corr = None
        if self.model.nv > 1:
            corr = self.model.coreg.response_correlations(
                self.model.layout.sigmas(opt.theta), self.model.layout.lambdas(opt.theta)
            )
        return INLAResult(
            theta_mode=opt.theta,
            fobj_mode=opt.fobj,
            hyper=hyper,
            latent=latent,
            optimization=opt,
            n_fobj_evaluations=self.evaluator.n_evaluations,
            response_correlations=corr,
        )

    def posterior(self, result: INLAResult | None = None) -> LatentPosterior:
        """The Gaussian approximation at the mode, ready to sample.

        Reuses the factorization handle built by :meth:`fit` (one
        ``pobtaf`` of ``Qc(theta*)`` shared by the marginals, joint
        draws, predictive sd and exceedance probabilities).  When ``fit``
        ran with ``compute_latent=False`` — or for a different mode — a
        handle is built on demand with the marginal-workload solver.
        """
        theta = None if result is None else result.theta_mode
        cached = self._mode_posterior
        if cached is not None and (theta is None or np.array_equal(cached.theta, theta)):
            return cached
        if theta is None:
            raise ValueError("no cached mode posterior; pass the INLAResult")
        if self.likelihood is not None:
            self._mode_posterior = self._nongaussian_posterior(theta)
        else:
            self._mode_posterior = LatentPosterior.at(
                self.model, theta, solver=self.marginal_solver
            )
        return self._mode_posterior

    def _nongaussian_posterior(self, theta, *, factor=None) -> LatentPosterior:
        """Gaussian approximation at the Newton mode ``x*(theta)``.

        ``LatentPosterior.at`` solves the *Gaussian* information vector
        ``Qc mu = rhs``, which is wrong under a non-Gaussian likelihood —
        the conditional mean is the inner-loop Newton mode.  Pair the
        evaluator's retained ``Qc(x*)`` handle with its warm-started mode
        when both survived the LRU; otherwise rerun the (warm-started)
        inner loop once.
        """
        theta = np.asarray(theta, dtype=np.float64)
        key = self.evaluator._key(theta)
        x0 = self.evaluator._warm_starts.get(key)
        if factor is None:
            factor = self.evaluator.cached_factor(theta)
        if factor is None or x0 is None:
            approx = gaussian_approximation(
                self.model,
                theta,
                self.likelihood,
                max_newton=self.evaluator.max_newton,
                x0_perm=x0,
            )
            factor = approx.qc_perm_bta
            mu_perm = self.model.permutation.permute_vector(approx.x_mode)
        else:
            mu_perm = np.array(x0, dtype=np.float64)
        return LatentPosterior(
            model=self.model, theta=theta, factor=factor, mu_perm=mu_perm
        )

    def predict_st(
        self,
        result: INLAResult,
        coords: np.ndarray,
        time_idx: np.ndarray,
        v: int,
    ) -> np.ndarray:
        """Posterior-mean prediction of response ``v``'s ST surface at new
        space-time points (the downscaling operation of paper Sec. VI)."""
        from repro.model.design import spacetime_design

        if result.latent is None:
            raise ValueError("fit() was run with compute_latent=False")
        A = spacetime_design(self.model.mesh, self.model.tmesh, coords, time_idx)
        mean_st, _ = result.latent.st_field(v)
        return np.asarray(A @ mean_st.ravel()).ravel()
