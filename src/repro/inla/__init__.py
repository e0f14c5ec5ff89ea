"""The INLA methodology (paper Sec. III) and the DALIA execution engine.

- :mod:`repro.inla.objective` — the log-posterior objective ``fobj``
  (Eq. 8), exact for Gaussian likelihoods;
- :mod:`repro.inla.solvers` — structured-solver dispatch: sequential BTA
  kernels or the distributed (S3) nested-dissection path;
- :mod:`repro.inla.evaluator` — parallel batched ``fobj`` evaluations
  (strategy S1), with the option of computing ``log|Qp|`` (per-process
  prior factorizations) concurrently with the ``Qc`` factorization (S2);
- :mod:`repro.inla.bfgs` — quasi-Newton optimization with
  central-difference gradients (Eq. 9/10);
- :mod:`repro.inla.hessian` — finite-difference Hessian at the mode;
- :mod:`repro.inla.marginals` — posterior marginals of hyperparameters
  and of the latent field (selected inversion);
- :mod:`repro.inla.nongaussian` — general likelihoods via the batched
  Laplace (inner Newton) approximation;
- :mod:`repro.inla.dalia` — the :class:`DALIA` front-end tying it all
  together.
"""

from repro.inla.objective import FobjResult, evaluate_fobj
from repro.inla.solvers import DistributedSolver, SequentialSolver, StructuredSolver, select_solver
from repro.inla.evaluator import FobjEvaluator, NonGaussianFobjEvaluator
from repro.inla.bfgs import BFGSOptions, BFGSResult, bfgs_minimize
from repro.inla.hessian import fd_hessian
from repro.inla.marginals import HyperMarginals, LatentMarginals
from repro.inla.dalia import DALIA, INLAResult
from repro.inla.nongaussian import (
    BinomialLikelihood,
    GaussianApproximation,
    GaussianObs,
    PoissonLikelihood,
    evaluate_fobj_nongaussian,
    evaluate_fobj_nongaussian_batch,
    gaussian_approximation,
    gaussian_approximation_batch,
)
from repro.inla.sampling import LatentPosterior
from repro.inla.smart_gradient import SmartGradient

__all__ = [
    "LatentPosterior",
    "SmartGradient",
    "FobjResult",
    "evaluate_fobj",
    "BinomialLikelihood",
    "GaussianApproximation",
    "GaussianObs",
    "PoissonLikelihood",
    "evaluate_fobj_nongaussian",
    "evaluate_fobj_nongaussian_batch",
    "gaussian_approximation",
    "gaussian_approximation_batch",
    "NonGaussianFobjEvaluator",
    "StructuredSolver",
    "SequentialSolver",
    "DistributedSolver",
    "select_solver",
    "FobjEvaluator",
    "BFGSOptions",
    "BFGSResult",
    "bfgs_minimize",
    "fd_hessian",
    "HyperMarginals",
    "LatentMarginals",
    "DALIA",
    "INLAResult",
]
