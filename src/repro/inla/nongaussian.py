"""Non-Gaussian likelihoods: the batched general Laplace approximation.

The paper evaluates Gaussian observation models, where the Gaussian
approximation ``pG`` of Eq. 3 is exact and the conditional mean is one
linear solve.  The INLA methodology itself (and R-INLA, Table I row 1)
covers general likelihoods: ``pG`` is then constructed by an *inner
Newton optimization* of ``log p(x | theta, y)``, re-linearizing the
likelihood at each iterate.

Two structural facts make the inner loops batch exactly like the
Gaussian stencil path:

- each Newton step's system ``Qc = Qp + A^T D(eta) A`` has a *fixed*
  pattern (``D`` is diagonal), so
  :class:`repro.model.assembler.CurvaturePlan` resolves the pattern and
  gathers once per model; per step only diagonal values flow through a
  composed scatter into the block stacks — zero scipy-sparse operations
  in the hot loop;
- every per-lane operation (gathers, row reductions, per-column SpMM,
  per-slice batched factorization kernels) is independent across stack
  rows, so the ``2d + 1`` stencil thetas' Newton loops run in *lockstep*
  — one ``factorize_batch`` sweep per iteration across all active
  thetas, a convergence mask freezing finished lanes — with each lane
  bit-identical to its own serial run under ``REPRO_BATCHED=1``.

The likelihood protocol is vectorized over ``(t, m)`` eta stacks
(``logpdf_stack`` / ``gradient_stack`` / ``neg_hessian_diag_stack``);
the historical scalar calls are the ``t = 1`` views.  The serial path
(:func:`gaussian_approximation`) is the ``t = 1`` lane of the same
engine; the Gaussian special case converges in one step and reproduces
:func:`repro.inla.objective.evaluate_fobj`, which is how the
implementation is tested.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, gammaln

from repro.backend.array_module import batched_enabled
from repro.backend.protocol import NUMPY_BACKEND, get_backend
from repro.inla.objective import FobjResult
from repro.model.assembler import AssemblyWorkspace, CoregionalSTModel, PriorLogdetMemo
from repro.structured.bta import BTAStack
from repro.structured.factor import factorize
from repro.structured.kernels import NotPositiveDefiniteError
from repro.structured.multifactor import factorize_batch


def _check_eta_stack(etas: np.ndarray, m: int) -> np.ndarray:
    etas = np.asarray(etas, dtype=np.float64)
    if etas.ndim != 2 or etas.shape[1] != m:
        raise ValueError(f"etas must be (t, {m}), got {etas.shape}")
    return etas


class _ScalarViews:
    """Scalar likelihood calls as the ``t = 1`` view of the stack protocol."""

    def logpdf(self, eta: np.ndarray) -> float:
        return float(self.logpdf_stack(np.asarray(eta, dtype=np.float64)[None, :])[0])

    def gradient(self, eta: np.ndarray) -> np.ndarray:
        """d loglik / d eta."""
        return self.gradient_stack(np.asarray(eta, dtype=np.float64)[None, :])[0]

    def neg_hessian_diag(self, eta: np.ndarray) -> np.ndarray:
        """-d^2 loglik / d eta^2 (the ``D`` of paper Eq. 4)."""
        return self.neg_hessian_diag_stack(np.asarray(eta, dtype=np.float64)[None, :])[0]


class PoissonLikelihood(_ScalarViews):
    """``y_i ~ Poisson(E_i exp(eta_i))`` with offsets ``E_i`` (exposure)."""

    def __init__(self, y: np.ndarray, exposure: np.ndarray | None = None):
        y = np.asarray(y, dtype=np.float64)
        if np.any(y < 0) or np.any(y != np.round(y)):
            raise ValueError("Poisson observations must be non-negative integers")
        self.y = y
        self.exposure = (
            np.ones_like(y) if exposure is None else np.asarray(exposure, dtype=np.float64)
        )
        if self.exposure.shape != y.shape or np.any(self.exposure <= 0):
            raise ValueError("exposure must be positive and match y")
        self._const = float(np.sum(y * np.log(self.exposure) - gammaln(y + 1.0)))

    @property
    def m(self) -> int:
        return self.y.size

    def logpdf_stack(self, etas: np.ndarray) -> np.ndarray:
        etas = _check_eta_stack(etas, self.m)
        mu = self.exposure * np.exp(etas)
        return np.sum(self.y * etas, axis=1) - np.sum(mu, axis=1) + self._const

    def gradient_stack(self, etas: np.ndarray) -> np.ndarray:
        etas = _check_eta_stack(etas, self.m)
        return self.y - self.exposure * np.exp(etas)

    def neg_hessian_diag_stack(self, etas: np.ndarray) -> np.ndarray:
        etas = _check_eta_stack(etas, self.m)
        return self.exposure * np.exp(etas)


class BinomialLikelihood(_ScalarViews):
    """``y_i ~ Binomial(n_i, sigmoid(eta_i))`` — logit link.

    ``trials`` defaults to all-ones (Bernoulli).  The curvature
    ``n p (1 - p)`` is non-negative everywhere, so the inner Newton loop
    is unconditionally well-posed: at extreme ``eta`` it underflows to
    zero and ``Qc`` degenerates toward ``Qp`` — still SPD.
    """

    def __init__(self, y: np.ndarray, trials: np.ndarray | None = None):
        y = np.asarray(y, dtype=np.float64)
        n = np.ones_like(y) if trials is None else np.asarray(trials, dtype=np.float64)
        if n.shape != y.shape:
            raise ValueError("trials must match y in shape")
        if np.any(n < 1) or np.any(n != np.round(n)):
            raise ValueError("trials must be positive integers")
        if np.any(y < 0) or np.any(y > n) or np.any(y != np.round(y)):
            raise ValueError("binomial observations must be integers in [0, trials]")
        self.y = y
        self.n = n
        self._const = float(
            np.sum(gammaln(n + 1.0) - gammaln(y + 1.0) - gammaln(n - y + 1.0))
        )

    @property
    def m(self) -> int:
        return self.y.size

    def logpdf_stack(self, etas: np.ndarray) -> np.ndarray:
        etas = _check_eta_stack(etas, self.m)
        # y eta - n log(1 + e^eta); logaddexp is stable at both tails.
        return (
            np.sum(self.y * etas, axis=1)
            - np.sum(self.n * np.logaddexp(0.0, etas), axis=1)
            + self._const
        )

    def gradient_stack(self, etas: np.ndarray) -> np.ndarray:
        etas = _check_eta_stack(etas, self.m)
        return self.y - self.n * expit(etas)

    def neg_hessian_diag_stack(self, etas: np.ndarray) -> np.ndarray:
        etas = _check_eta_stack(etas, self.m)
        p = expit(etas)
        return self.n * p * (1.0 - p)


class GaussianObs(_ScalarViews):
    """Gaussian likelihood in the generic interface (testing/reference)."""

    def __init__(self, y: np.ndarray, tau: float):
        self.y = np.asarray(y, dtype=np.float64)
        if tau <= 0:
            raise ValueError("tau must be positive")
        self.tau = float(tau)

    @property
    def m(self) -> int:
        return self.y.size

    def logpdf_stack(self, etas: np.ndarray) -> np.ndarray:
        etas = _check_eta_stack(etas, self.m)
        r = self.y - etas
        return 0.5 * self.m * (np.log(self.tau) - np.log(2 * np.pi)) - 0.5 * self.tau * np.sum(
            r**2, axis=1
        )

    def gradient_stack(self, etas: np.ndarray) -> np.ndarray:
        etas = _check_eta_stack(etas, self.m)
        return self.tau * (self.y - etas)

    def neg_hessian_diag_stack(self, etas: np.ndarray) -> np.ndarray:
        etas = _check_eta_stack(etas, self.m)
        return np.full(etas.shape, self.tau)


@dataclass
class GaussianApproximation:
    """Inner-loop result: the Laplace approximation at one ``theta``."""

    x_mode: np.ndarray  # variable-major conditional mode
    logdet_qc: float
    n_newton: int
    converged: bool
    qc_perm_bta: object  # factorization handle of Qc at the mode (BTAFactor)


def _theta_key(theta: np.ndarray) -> bytes:
    return np.asarray(theta, dtype=np.float64).tobytes()


class _NewtonKernel:
    """Stack-based step helpers shared by the serial and lockstep loops.

    Everything here operates on theta-first stacks whose per-row
    operations are independent (gathers, row reductions, per-column CSR
    SpMM, row-wise einsum), so one lane at ``t = 1`` is bit-identical to
    the same lane inside any batch — the contract the lockstep/serial
    equivalence tests assert.
    """

    def __init__(self, model: CoregionalSTModel, lik, *, backend=None):
        self.model = model
        self.lik = lik
        self.plan = model.plan
        self.curv = model.plan.curvature()
        self.be = backend if backend is not None else NUMPY_BACKEND

    def curvature_diag(self, eta: np.ndarray) -> tuple:
        """Per-lane diagonal curvature ``(k, m)`` + invalid-lane mask."""
        d = self.lik.neg_hessian_diag_stack(eta)
        bad = ~np.isfinite(d).all(axis=1) | (d < 0).any(axis=1)
        return d, bad

    def qc_values(self, qp_values: np.ndarray, d: np.ndarray) -> np.ndarray:
        return self.curv.conditional_values(qp_values, d)

    def scatter(self, qc_values: np.ndarray, stack: BTAStack) -> None:
        self.plan.scatter_c.scatter_stacks(
            qc_values, stack.diag, stack.lower, stack.arrow, stack.tip
        )

    def rhs(self, d: np.ndarray, eta: np.ndarray) -> np.ndarray:
        """Permuted Newton right-hand sides ``A^T (D eta + grad)``."""
        return self.curv.newton_rhs(d, eta, self.lik.gradient_stack(eta))

    def eta_of(self, x_perm: np.ndarray) -> np.ndarray:
        return self.model.linear_predictor_stack(x_perm)

    def objective(self, qp_values: np.ndarray, x_perm: np.ndarray, eta: np.ndarray):
        """Per-lane ``loglik(eta) - 1/2 x^T Qp x`` (the inner objective)."""
        return self.lik.logpdf_stack(eta) - 0.5 * self.plan.qp_quad_stack(qp_values, x_perm)


def _line_search(kern: _NewtonKernel, qp_values, x, eta, obj_old, x_new):
    """Vectorized damped Newton update (per-lane step halving).

    Mirrors the classic serial loop lane by lane: try the full step,
    halve on a non-finite or decreasing objective (1e-12 slack), and
    after 12 halvings keep the last trial regardless — each lane's
    sequence of trials is exactly what its own serial loop would run.
    """
    k = x.shape[0]
    step = np.ones(k)
    direction = x_new - x
    x_out = np.empty_like(x)
    eta_out = np.empty_like(eta)
    obj_out = np.empty(k)
    pending = np.arange(k)
    for _ in range(12):
        x_try = x[pending] + step[pending, None] * direction[pending]
        eta_try = kern.eta_of(x_try)
        obj_try = kern.objective(qp_values[pending], x_try, eta_try)
        x_out[pending] = x_try
        eta_out[pending] = eta_try
        obj_out[pending] = obj_try
        ok = np.isfinite(obj_try) & (obj_try >= obj_old[pending] - 1e-12)
        pending = pending[~ok]
        if pending.size == 0:
            break
        step[pending] *= 0.5
    return x_out, eta_out, obj_out


def _serial_newton(
    model: CoregionalSTModel,
    lik,
    qp_values: np.ndarray,
    *,
    max_newton: int = 40,
    tol: float = 1e-9,
    x0_perm: np.ndarray | None = None,
) -> tuple:
    """One lane's Newton loop on the plan path (permuted coordinates).

    Returns ``(x_perm, logdet_qc, n_newton, converged, factor)``.  Uses
    the env-following :func:`factorize` per iteration, so under
    ``REPRO_BATCHED=1`` each step is bit-identical to the same lane
    inside a lockstep batch (the ``factorize_batch`` t=1 contract).
    """
    kern = _NewtonKernel(model, lik)
    n = model.N
    if x0_perm is None:
        x = np.zeros((1, n))
    else:
        x = np.array(x0_perm, dtype=np.float64).reshape(1, n)
    eta = kern.eta_of(x)
    obj_old = np.full(1, -np.inf)
    converged = False
    it = 0
    for it in range(1, max_newton + 1):
        d, bad = kern.curvature_diag(eta)
        if bad[0]:
            raise NotPositiveDefiniteError("likelihood curvature invalid")
        qc_vals = kern.qc_values(qp_values, d)
        factor = factorize(model.plan.scatter_c.scatter(qc_vals[0]), overwrite=True)
        x_new = np.asarray(factor.solve(kern.rhs(d, eta)[0]))[None, :]
        x, eta, obj = _line_search(kern, qp_values, x, eta, obj_old, x_new)
        delta = abs(float(obj[0]) - float(obj_old[0]))
        obj_old = obj
        if delta < tol * (1.0 + abs(float(obj[0]))):
            converged = True
            break
    # Re-linearize at the accepted mode so Qc/logdet correspond to x.
    d, bad = kern.curvature_diag(eta)
    if bad[0]:
        raise NotPositiveDefiniteError("likelihood curvature invalid")
    qc_vals = kern.qc_values(qp_values, d)
    factor = factorize(model.plan.scatter_c.scatter(qc_vals[0]), overwrite=True)
    return x[0], float(factor.logdet()), it, converged, factor


def _prior_values_single(model: CoregionalSTModel, theta: np.ndarray) -> np.ndarray:
    """Validated ``(1, nnz_p)`` prior data row; ValueError when infeasible."""
    theta = model.layout.validate(theta)
    _, c, B, feasible = model.plan.coefficients(theta[None, :])
    if not feasible[0]:
        raise ValueError(f"hyperparameters out of range: theta={theta}")
    return model.plan.prior_values(c, B)


def gaussian_approximation(
    model: CoregionalSTModel,
    theta: np.ndarray,
    lik,
    *,
    max_newton: int = 40,
    tol: float = 1e-9,
    x0_perm: np.ndarray | None = None,
) -> GaussianApproximation:
    """Newton inner loop: maximize ``log p(x | theta, y)`` at one theta.

    Each iteration linearizes the likelihood at the current
    ``eta = A x`` — ``Qc = Qp + A^T D(eta) A`` through the curvature
    plan's composed scatter (no sparse arithmetic), one structured
    factorization, one damped Newton step.  ``x0_perm`` warm-starts from
    a previous mode in permuted coordinates (line-search revisits of the
    same theta then converge in a step or two).
    """
    qp_values = _prior_values_single(model, theta)
    x_perm, logdet, n_it, converged, factor = _serial_newton(
        model, lik, qp_values, max_newton=max_newton, tol=tol, x0_perm=x0_perm
    )
    return GaussianApproximation(
        x_mode=model.permutation.unpermute_vector(x_perm),
        logdet_qc=logdet,
        n_newton=n_it,
        converged=converged,
        qc_perm_bta=factor,
    )


def _lockstep_newton(
    model: CoregionalSTModel,
    lik,
    thetas: np.ndarray,
    qp_values: np.ndarray,
    *,
    max_newton: int = 40,
    tol: float = 1e-9,
    warm_starts: dict | None = None,
    workspace: AssemblyWorkspace | None = None,
) -> tuple:
    """All lanes' Newton loops in lockstep: one batched sweep per iteration.

    Returns ``(x_perm, logdet_qc, n_newton, converged, failed, factors)``
    over the ``t`` lanes.  ``failed`` marks lanes whose curvature went
    invalid or whose serial fallback hit a non-SPD system; ``factors``
    holds per-lane mode factorization handles (``None`` for failed
    lanes), backed by a fresh final stack so they outlive the call.
    ``warm_starts`` (theta-keyed, mutated in place) seeds and records the
    permuted modes.
    """
    be = workspace.backend if workspace is not None else get_backend()
    if workspace is None:
        workspace = AssemblyWorkspace(backend=be)
    kern = _NewtonKernel(model, lik, backend=be)
    t, n = qp_values.shape[0], model.N
    shape = model.permutation.bta_shape
    keys = [_theta_key(th) for th in thetas]
    x = np.zeros((t, n))
    if warm_starts:
        for j, key in enumerate(keys):
            x0 = warm_starts.get(key)
            if x0 is not None:
                x[j] = x0
    eta = kern.eta_of(x)
    obj = np.full(t, -np.inf)
    n_newton = np.zeros(t, dtype=np.int64)
    converged = np.zeros(t, dtype=bool)
    failed = np.zeros(t, dtype=bool)
    logdets = np.full(t, np.nan)
    factors: list = [None] * t
    active = np.arange(t)
    fallback = None  # lanes rerouted to the serial loop on a batched NPD
    for _ in range(max_newton):
        if active.size == 0:
            break
        d, bad = kern.curvature_diag(eta[active])
        if bad.any():
            failed[active[bad]] = True
            active, d = active[~bad], d[~bad]
            if active.size == 0:
                break
        n_newton[active] += 1
        qc_vals = kern.qc_values(qp_values[active], d)
        stack = workspace.qc_stack(shape, int(active.size))
        kern.scatter(qc_vals, stack)
        try:
            fb = factorize_batch(stack, overwrite=True)
        except NotPositiveDefiniteError:
            # A batched Cholesky cannot name the failing theta: every
            # still-active lane restarts on the serial path, which can.
            fallback = active
            active = np.array([], dtype=np.int64)
            break
        x_new = np.asarray(be.to_host(fb.solve_each(kern.rhs(d, eta[active]))))
        x_a, eta_a, obj_a = _line_search(
            kern, qp_values[active], x[active], eta[active], obj[active], x_new
        )
        delta = np.abs(obj_a - obj[active])
        x[active], eta[active], obj[active] = x_a, eta_a, obj_a
        done = delta < tol * (1.0 + np.abs(obj_a))
        converged[active[done]] = True
        active = active[~done]
    if fallback is not None:
        for j in fallback:
            x0 = warm_starts.get(keys[j]) if warm_starts else None
            try:
                x_j, ld_j, it_j, conv_j, f_j = _serial_newton(
                    model, lik, qp_values[j][None, :],
                    max_newton=max_newton, tol=tol, x0_perm=x0,
                )
            except NotPositiveDefiniteError:
                failed[j] = True
                continue
            x[j] = x_j
            logdets[j] = ld_j
            n_newton[j] = it_j
            converged[j] = conv_j
            factors[j] = f_j
    # Final re-linearization at the accepted modes: ONE batched assembly +
    # factorization yields every finished lane's logdet plus a zero-copy
    # per-lane factor handle.  Fresh storage (not the workspace): the
    # handles must survive the workspace's next overwrite.
    finish = np.flatnonzero(~failed & np.array([f is None for f in factors]))
    if finish.size:
        d, bad = kern.curvature_diag(eta[finish])
        failed[finish[bad]] = True
        finish, d = finish[~bad], d[~bad]
    if finish.size:
        qc_vals = kern.qc_values(qp_values[finish], d)
        final = BTAStack.zeros(shape, int(finish.size), backend=be)
        kern.scatter(qc_vals, final)
        try:
            fb = factorize_batch(final, overwrite=True)
        except NotPositiveDefiniteError:
            for j in finish:  # resolve lane by lane on the serial path
                d_j, bad_j = kern.curvature_diag(eta[j][None, :])
                try:
                    qc_j = kern.qc_values(qp_values[j][None, :], d_j)
                    f_j = factorize(model.plan.scatter_c.scatter(qc_j[0]), overwrite=True)
                except NotPositiveDefiniteError:
                    failed[j] = True
                    continue
                factors[j] = f_j
                logdets[j] = float(f_j.logdet())
        else:
            lds = np.asarray(be.to_host(fb.logdets()), dtype=np.float64)
            for i, j in enumerate(finish):
                logdets[j] = float(lds[i])
                factors[j] = fb.factor(i)
    if warm_starts is not None:
        for j in range(t):
            if not failed[j]:
                warm_starts[keys[j]] = x[j].copy()
    return x, logdets, n_newton, converged, failed, factors


def gaussian_approximation_batch(
    model: CoregionalSTModel,
    thetas: np.ndarray,
    lik,
    *,
    max_newton: int = 40,
    tol: float = 1e-9,
    warm_starts: dict | None = None,
    workspace: AssemblyWorkspace | None = None,
) -> list:
    """Lockstep Newton inner loops for a whole theta stack.

    One value pass + one ``factorize_batch`` sweep per Newton iteration
    across all *active* lanes; a convergence mask freezes finished lanes
    (lane compaction is bit-safe — every per-lane kernel is
    row-independent).  Returns one :class:`GaussianApproximation` per
    theta, or ``None`` for lanes whose likelihood curvature went invalid
    or whose system is not SPD.  Infeasible thetas raise ``ValueError``
    (batch callers screen with ``plan.coefficients`` first).
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.ndim == 1:
        thetas = thetas[None, :]
    _, c, B, feasible = model.plan.coefficients(thetas)
    if not feasible.all():
        raise ValueError("infeasible thetas in batch; screen with plan.coefficients")
    qp_values = model.plan.prior_values(c, B)
    x, logdets, n_newton, converged, failed, factors = _lockstep_newton(
        model, lik, thetas, qp_values,
        max_newton=max_newton, tol=tol, warm_starts=warm_starts, workspace=workspace,
    )
    out = []
    for j in range(thetas.shape[0]):
        if failed[j]:
            out.append(None)
            continue
        out.append(
            GaussianApproximation(
                x_mode=model.permutation.unpermute_vector(x[j]),
                logdet_qc=float(logdets[j]),
                n_newton=int(n_newton[j]),
                converged=bool(converged[j]),
                qc_perm_bta=factors[j],
            )
        )
    return out


def evaluate_fobj_nongaussian(
    model: CoregionalSTModel,
    theta: np.ndarray,
    lik,
    *,
    max_newton: int = 40,
    x0_perm: np.ndarray | None = None,
    prior_memo: PriorLogdetMemo | None = None,
) -> FobjResult:
    """``fobj(theta)`` for a general likelihood (paper Eq. 8, full Laplace).

    ``fobj = log p(theta) + loglik(y | x*) + 1/2 log|Qp| - 1/2 x*^T Qp x*
    - 1/2 log|Qc(x*)|`` with ``x*`` the conditional mode from the inner
    Newton loop and ``log|Qp|`` from
    :meth:`~repro.model.assembler.CoregionalSTModel.prior_logdets`
    (``prior_memo`` as there).

    Exception contract (mirrors
    :func:`repro.inla.objective.evaluate_fobj`): ``ValueError`` is caught
    only around the theta -> coefficients phase, where it means an
    infeasible configuration; a ``ValueError`` anywhere else (shape
    mismatches, bad likelihood construction) is a programming error and
    propagates.  The numeric phase maps only non-SPD systems and numeric
    overflow to ``fobj = -inf``.
    """
    theta = np.asarray(theta, dtype=np.float64)
    try:
        qp_values = _prior_values_single(model, theta)
    except (ValueError, FloatingPointError, OverflowError):
        return FobjResult(theta=theta, value=-np.inf)
    logdet_p = float(model.prior_logdets(theta, prior_memo)[0])
    if not np.isfinite(logdet_p):
        return FobjResult(theta=theta, value=-np.inf)
    try:
        x_perm, logdet_qc, _, _, factor = _serial_newton(
            model, lik, qp_values, max_newton=max_newton, x0_perm=x0_perm
        )
    except (NotPositiveDefiniteError, OverflowError, FloatingPointError):
        return FobjResult(theta=theta, value=-np.inf)
    x_stack = x_perm[None, :]
    eta = model.linear_predictor_stack(x_stack)
    log_lik = float(lik.logpdf_stack(eta)[0])
    quad = float(model.plan.qp_quad_stack(qp_values, x_stack)[0])
    log_prior_theta = float(model.priors.logpdf_stack(theta[None, :])[0])
    value = log_prior_theta + log_lik + 0.5 * logdet_p - 0.5 * quad - 0.5 * logdet_qc
    return FobjResult(
        theta=theta,
        value=float(value),
        log_prior_theta=log_prior_theta,
        log_likelihood=log_lik,
        logdet_qp=float(logdet_p),
        logdet_qc=float(logdet_qc),
        quad_qp=quad,
        mu_perm=x_perm,
        qc_factor=factor,
    )


def evaluate_fobj_nongaussian_batch(
    model: CoregionalSTModel,
    thetas: np.ndarray,
    lik,
    *,
    max_newton: int = 40,
    warm_starts: dict | None = None,
    workspace: AssemblyWorkspace | None = None,
    prior_memo: PriorLogdetMemo | None = None,
) -> list:
    """Theta-batched ``fobj`` for a general likelihood.

    Under ``REPRO_BATCHED=0`` on host-LAPACK backends every lane runs
    the serial wrapper (bitwise the legacy path); otherwise: the
    ``log|Qp|`` stack from
    :meth:`~repro.model.assembler.CoregionalSTModel.prior_logdets` (at
    most one univariate sweep; ``prior_memo`` as there), the lockstep
    Newton loops, and one vectorized epilogue over the finished lanes.
    Returns one :class:`FobjResult` per requested theta (``-inf`` for
    infeasible / invalid / non-SPD lanes).  ``warm_starts`` is a
    theta-keyed mutable mapping of permuted modes, updated in place.
    """
    thetas = np.asarray(thetas, dtype=np.float64)
    if thetas.ndim == 1:
        thetas = thetas[None, :]
    be = workspace.backend if workspace is not None else get_backend()
    if not batched_enabled(None, be):
        out = []
        for th in thetas:
            key = _theta_key(th)
            x0 = warm_starts.get(key) if warm_starts is not None else None
            r = evaluate_fobj_nongaussian(
                model, th, lik, max_newton=max_newton, x0_perm=x0, prior_memo=prior_memo
            )
            if warm_starts is not None and r.mu_perm is not None:
                warm_starts[key] = np.array(r.mu_perm)
            out.append(r)
        return out
    if workspace is None:
        workspace = AssemblyWorkspace(backend=be)
    results = [FobjResult(theta=th, value=-np.inf) for th in thetas]
    _, c, B, feasible = model.plan.coefficients(thetas)
    live = np.flatnonzero(feasible)
    if live.size == 0:
        return results
    qp_values = model.plan.prior_values(c[live], B[live])
    logdet_p = model.prior_logdets(thetas[live], prior_memo)  # nan -> -inf below
    x, logdet_qc, n_newton, converged, failed, factors = _lockstep_newton(
        model, lik, thetas[live], qp_values,
        max_newton=max_newton, warm_starts=warm_starts, workspace=workspace,
    )
    ok = np.flatnonzero(~failed & np.isfinite(logdet_p))
    if ok.size == 0:
        return results
    x_ok = x[ok]
    etas = model.linear_predictor_stack(x_ok)
    loglik = lik.logpdf_stack(etas)
    quad = model.plan.qp_quad_stack(qp_values[ok], x_ok)
    lpt = model.priors.logpdf_stack(thetas[live[ok]])
    values = lpt + loglik + 0.5 * logdet_p[ok] - 0.5 * quad - 0.5 * logdet_qc[ok]
    for i, jj in enumerate(ok):
        j = int(live[jj])
        results[j] = FobjResult(
            theta=thetas[j],
            value=float(values[i]),
            log_prior_theta=float(lpt[i]),
            log_likelihood=float(loglik[i]),
            logdet_qp=float(logdet_p[jj]),
            logdet_qc=float(logdet_qc[jj]),
            quad_qp=float(quad[i]),
            mu_perm=x[jj],
            qc_factor=factors[jj],
        )
    return results
