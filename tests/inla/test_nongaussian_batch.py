"""The batched non-Gaussian engine: lockstep Newton, warm starts, hot loop.

Acceptance coverage for the theta-lockstep inner loops
(:func:`repro.inla.nongaussian.evaluate_fobj_nongaussian_batch`), run
across the ``REPRO_BATCHED`` x ``REPRO_BACKEND`` grid:

- the batch path at ``t = 1`` is BIT-IDENTICAL to the serial path, and
  1e-10-close over a full ``2d + 1`` gradient stencil;
- the Gaussian special case still reproduces the closed-form
  :func:`repro.inla.objective.evaluate_fobj`;
- a warm gradient stencil performs ZERO scipy-sparse arithmetic
  (the symbolic curvature plan owns the ``A^T D A`` update);
- a batched NPD inside the Newton loop or in the final re-linearization
  reroutes every affected lane, and each still equals the serial path
  bit for bit;
- Binomial likelihood derivatives check out by finite differences, and
  invalid (negative) curvature is rejected, not silently factorized;
- the :class:`~repro.inla.dalia.DALIA` front-end fits and serves a
  posterior through the same engine when given ``likelihood=``.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.inla import evaluate_fobj, nongaussian
from repro.inla.evaluator import NonGaussianFobjEvaluator
from repro.inla.nongaussian import (
    BinomialLikelihood,
    GaussianObs,
    PoissonLikelihood,
    evaluate_fobj_nongaussian,
    evaluate_fobj_nongaussian_batch,
    gaussian_approximation,
    gaussian_approximation_batch,
)
from repro.structured.kernels import NotPositiveDefiniteError

DECOMP = ("value", "log_prior_theta", "log_likelihood", "logdet_qp", "logdet_qc", "quad_qp")

#: (backend, batched) cells of the execution grid (satellite: run the
#: non-Gaussian suite under every combination).
GRID = [
    ("numpy", "1"),
    ("numpy", "0"),
    ("mock_device", "1"),
    ("mock_device", "0"),
]


@pytest.fixture(params=GRID, ids=lambda p: f"{p[0]}-batched{p[1]}")
def env_cell(request, monkeypatch):
    backend, batched = request.param
    monkeypatch.setenv("REPRO_BACKEND", backend)
    monkeypatch.setenv("REPRO_BATCHED", batched)
    return backend, batched


@pytest.fixture(scope="module")
def poisson_case():
    from repro.model.datasets import make_dataset

    model, gt, latent = make_dataset(nv=1, ns=16, nt=4, nr=1, obs_per_step=20, seed=17)
    rng = np.random.default_rng(7)
    eta_true = np.clip(np.asarray(model.A @ latent).ravel() * 0.3, -3.0, 3.0)
    y = rng.poisson(np.exp(eta_true)).astype(float)
    return model, gt, PoissonLikelihood(y)


def _stencil(theta, h=1e-4):
    pts = [theta]
    for i in range(theta.size):
        for s in (+h, -h):
            p = theta.copy()
            p[i] += s
            pts.append(p)
    return np.stack(pts)


class TestLockstepMatchesSerial:
    def test_t1_bit_identical(self, poisson_case, env_cell):
        """On the host backend the lockstep lane at t = 1 runs the very
        same kernels as the serial wrapper — bit-identity.  Under the
        mock device the batch path factorizes on-device while the serial
        path stays on host LAPACK; those round differently by design
        (see tests/structured/test_backend_matrix.py), so the contract
        there is 1e-10 agreement."""
        backend, _ = env_cell
        model, gt, lik = poisson_case
        (rb,) = evaluate_fobj_nongaussian_batch(model, gt.theta[None, :], lik)
        rs = evaluate_fobj_nongaussian(model, gt.theta, lik)
        if backend == "numpy":
            assert rb.value == rs.value
            assert np.array_equal(rb.mu_perm, rs.mu_perm)
            for attr in DECOMP:
                assert getattr(rb, attr) == getattr(rs, attr), attr
        else:
            # log|Qp| is host-side on every backend: still bit-identical.
            assert rb.logdet_qp == rs.logdet_qp
            for attr in DECOMP:
                vb, vs = getattr(rb, attr), getattr(rs, attr)
                assert abs(vb - vs) <= 1e-10 * max(1.0, abs(vs)), attr
            np.testing.assert_allclose(rb.mu_perm, rs.mu_perm, atol=1e-10)

    def test_stencil_close_to_serial(self, poisson_case, env_cell):
        """Every term 1e-10-close; ``log|Qp|`` (one definition, per-lane
        bit-identical sweeps) exactly equal."""
        model, gt, lik = poisson_case
        pts = _stencil(gt.theta)
        batch = evaluate_fobj_nongaussian_batch(model, pts, lik)
        for rb, th in zip(batch, pts):
            rs = evaluate_fobj_nongaussian(model, th, lik)
            assert rb.logdet_qp == rs.logdet_qp
            for attr in DECOMP:
                vb, vs = getattr(rb, attr), getattr(rs, attr)
                assert abs(vb - vs) <= 1e-10 * max(1.0, abs(vs)), attr

    def test_approximation_batch_matches_serial(self, poisson_case, env_cell):
        model, gt, lik = poisson_case
        thetas = np.stack([gt.theta, gt.theta + 0.05])
        batch = gaussian_approximation_batch(model, thetas, lik)
        for ap, th in zip(batch, thetas):
            ref = gaussian_approximation(model, th, lik)
            assert ap.converged == ref.converged
            assert ap.n_newton == ref.n_newton
            np.testing.assert_allclose(ap.x_mode, ref.x_mode, atol=1e-10)
            assert abs(ap.logdet_qc - ref.logdet_qc) <= 1e-10 * abs(ref.logdet_qc)

    def test_infeasible_lane_reports_minus_inf(self, poisson_case):
        model, gt, lik = poisson_case
        bad = gt.theta.copy()
        bad[model.layout.range_slice(0)] = 1000.0  # out-of-range hyperparameters
        out = evaluate_fobj_nongaussian_batch(model, np.stack([gt.theta, bad]), lik)
        assert np.isfinite(out[0].value)
        assert out[1].value == -np.inf


class TestLockstepNpdFallbacks:
    """A batched Cholesky cannot name the failing lane, so a batched NPD
    reroutes lanes onto paths that can: a failure inside the Newton loop
    restarts every active lane on the serial loop, and one in the final
    re-linearization rebuilds each lane's factor on its own.  Rigging
    ``factorize_batch`` to raise on an SPD problem reaches both branches;
    every lane must still equal the serial path bit for bit."""

    @pytest.fixture(autouse=True)
    def _host_batched(self, monkeypatch):
        # Bit-identity is a same-backend contract (see test_t1_bit_identical).
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        monkeypatch.setenv("REPRO_BATCHED", "1")

    @staticmethod
    def _stencil_with_failure(poisson_case, monkeypatch, fail_on):
        model, gt, lik = poisson_case
        real = nongaussian.factorize_batch
        n_calls = 0

        def rigged(stack, **kwargs):
            nonlocal n_calls
            n_calls += 1
            if n_calls == fail_on:
                raise NotPositiveDefiniteError("rigged batched NPD")
            return real(stack, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(nongaussian, "factorize_batch", rigged)
            out = evaluate_fobj_nongaussian_batch(model, _stencil(gt.theta), lik)
        return out, n_calls

    def _assert_bit_identical_to_serial(self, poisson_case, out):
        model, gt, lik = poisson_case
        pts = _stencil(gt.theta)
        assert len(out) == len(pts)
        for rb, th in zip(out, pts):
            rs = evaluate_fobj_nongaussian(model, th, lik)
            assert np.isfinite(rs.value)
            for attr in DECOMP:
                assert getattr(rb, attr) == getattr(rs, attr), attr
            assert np.array_equal(rb.mu_perm, rs.mu_perm)
            assert rb.qc_factor is not None

    def test_npd_in_newton_loop_restarts_lanes_serially(self, poisson_case, monkeypatch):
        out, n_calls = self._stencil_with_failure(poisson_case, monkeypatch, fail_on=1)
        # Every lane finished on the serial loop, which also built its
        # factor, so no final batched re-linearization ran.
        assert n_calls == 1
        self._assert_bit_identical_to_serial(poisson_case, out)

    def test_npd_in_final_relinearization_rebuilds_lanes(self, poisson_case, monkeypatch):
        _, n_total = self._stencil_with_failure(poisson_case, monkeypatch, fail_on=None)
        out, n_calls = self._stencil_with_failure(poisson_case, monkeypatch, fail_on=n_total)
        assert n_calls == n_total > 1
        self._assert_bit_identical_to_serial(poisson_case, out)


class TestGaussianSpecialCase:
    def test_batch_reproduces_evaluate_fobj(self, poisson_case, env_cell):
        """With a Gaussian likelihood the lockstep loop is exact in one
        step; the stacked fobj must match the closed-form Gaussian path."""
        model, gt, _ = poisson_case
        tau = model.layout.taus(gt.theta)[0]
        lik = GaussianObs(model.likelihood.y, tau=tau)
        # Perturb only the process hyperparameters: GaussianObs freezes
        # tau, so the observation-precision component must stay at the
        # value the closed-form path derives it from.
        p1 = gt.theta.copy()
        p1[model.layout.range_slice(0)] += 0.02
        pts = np.stack([gt.theta, p1])
        batch = evaluate_fobj_nongaussian_batch(model, pts, lik)
        for rb, th in zip(batch, pts):
            exact = evaluate_fobj(model, th)
            assert np.isclose(rb.value, exact.value, atol=1e-6)


class TestWarmStarts:
    def test_warm_start_cuts_newton_iterations(self, poisson_case):
        model, gt, lik = poisson_case
        cold = gaussian_approximation(model, gt.theta, lik)
        x0 = model.permutation.permute_vector(cold.x_mode)
        warm = gaussian_approximation(model, gt.theta, lik, x0_perm=x0)
        assert warm.converged
        assert warm.n_newton < cold.n_newton

    def test_batch_updates_warm_start_mapping(self, poisson_case):
        model, gt, lik = poisson_case
        warm = {}
        evaluate_fobj_nongaussian_batch(model, gt.theta[None, :], lik, warm_starts=warm)
        assert len(warm) == 1
        (x0,) = warm.values()
        assert x0.shape == (model.N,) and np.isfinite(x0).all()


class TestNoSparseOpsInHotLoop:
    def test_newton_loops_run_no_kron_or_csr_add(self, poisson_case, monkeypatch):
        """After the curvature plan is built, serial and lockstep Newton
        loops must never touch scipy-sparse arithmetic — the symbolic
        ``A^T D A`` plan covers every per-iteration update."""
        model, gt, lik = poisson_case
        model.plan.curvature()  # warm the symbolic plan

        def boom(*a, **k):
            raise AssertionError("scipy sparse arithmetic in the Newton hot loop")

        monkeypatch.setattr(sp, "kron", boom)
        monkeypatch.setattr(sp, "diags", boom)
        monkeypatch.setattr(sp.csr_matrix, "__add__", boom)
        monkeypatch.setattr(sp.csr_matrix, "__sub__", boom)
        monkeypatch.setattr(sp.csr_matrix, "multiply", boom)
        ap = gaussian_approximation(model, gt.theta, lik)
        assert ap.converged
        out = evaluate_fobj_nongaussian_batch(model, _stencil(gt.theta), lik)
        assert all(np.isfinite(r.value) for r in out)


class TestBinomial:
    def test_logpdf_matches_scipy(self, rng):
        from scipy.stats import binom

        n = rng.integers(1, 20, size=15).astype(float)
        y = np.minimum(rng.poisson(3.0, size=15).astype(float), n)
        eta = rng.normal(0.0, 0.8, size=15)
        lik = BinomialLikelihood(y, trials=n)
        p = 1.0 / (1.0 + np.exp(-eta))
        ref = binom.logpmf(y, n, p).sum()
        assert np.isclose(lik.logpdf(eta), ref)

    def test_gradient_and_curvature_by_fd(self, rng):
        n = rng.integers(1, 12, size=10).astype(float)
        y = np.minimum(rng.poisson(2.0, size=10).astype(float), n)
        lik = BinomialLikelihood(y, trials=n)
        eta = rng.normal(0.0, 0.5, size=10)
        h, h2 = 1e-6, 1e-4
        for i in range(4):
            e = np.zeros(10)
            e[i] = h
            num = (lik.logpdf(eta + e) - lik.logpdf(eta - e)) / (2 * h)
            assert np.isclose(lik.gradient(eta)[i], num, atol=1e-4)
            e2 = np.zeros(10)
            e2[i] = h2
            num2 = (lik.logpdf(eta + e2) - 2 * lik.logpdf(eta) + lik.logpdf(eta - e2)) / h2**2
            assert np.isclose(-lik.neg_hessian_diag(eta)[i], num2, rtol=1e-3, atol=1e-3)

    def test_rejects_invalid_counts(self):
        with pytest.raises(ValueError):
            BinomialLikelihood(np.array([-1.0, 0.0]))
        with pytest.raises(ValueError):
            BinomialLikelihood(np.array([3.0, 1.0]), trials=np.array([2.0, 1.0]))

    def test_binomial_inference_runs(self, poisson_case):
        model, gt, _ = poisson_case
        rng = np.random.default_rng(3)
        m = model.likelihood.y.size
        lik = BinomialLikelihood(rng.integers(0, 2, size=m).astype(float))
        ap = gaussian_approximation(model, gt.theta, lik)
        assert ap.converged and np.isfinite(ap.logdet_qc)


class _NegativeCurvature:
    """A rigged likelihood whose curvature is invalid (negative)."""

    def __init__(self, m):
        self._m = m

    @property
    def m(self):
        return self._m

    def logpdf_stack(self, etas):
        return -0.5 * (etas**2).sum(axis=1)

    def gradient_stack(self, etas):
        return -etas

    def neg_hessian_diag_stack(self, etas):
        return np.full_like(etas, -1.0)


class TestCurvatureRejection:
    def test_npd_curvature_raises_in_newton(self, poisson_case):
        model, gt, _ = poisson_case
        lik = _NegativeCurvature(model.likelihood.y.size)
        with pytest.raises(NotPositiveDefiniteError):
            gaussian_approximation(model, gt.theta, lik)

    def test_npd_curvature_maps_to_minus_inf(self, poisson_case):
        model, gt, _ = poisson_case
        lik = _NegativeCurvature(model.likelihood.y.size)
        assert evaluate_fobj_nongaussian(model, gt.theta, lik).value == -np.inf
        (r,) = evaluate_fobj_nongaussian_batch(model, gt.theta[None, :], lik)
        assert r.value == -np.inf


class _RaisingLikelihood(_NegativeCurvature):
    def neg_hessian_diag_stack(self, etas):
        raise ValueError("bad likelihood internals")


class TestExceptionContract:
    def test_likelihood_value_error_propagates(self, poisson_case):
        """ValueError outside the theta -> coefficients phase is a
        programming error and must NOT be swallowed into -inf."""
        model, gt, _ = poisson_case
        lik = _RaisingLikelihood(model.likelihood.y.size)
        with pytest.raises(ValueError, match="bad likelihood internals"):
            evaluate_fobj_nongaussian(model, gt.theta, lik)

    def test_infeasible_theta_is_minus_inf(self, poisson_case):
        model, gt, lik = poisson_case
        bad = gt.theta.copy()
        bad[model.layout.range_slice(0)] = 1000.0
        assert evaluate_fobj_nongaussian(model, bad, lik).value == -np.inf


class TestNonGaussianEvaluator:
    def test_batch_matches_per_point(self, poisson_case):
        model, gt, lik = poisson_case
        ev_b = NonGaussianFobjEvaluator(model, lik, batch_stencils=True, cache_size=0)
        ev_p = NonGaussianFobjEvaluator(model, lik, batch_stencils=False, cache_size=0)
        pts = list(_stencil(gt.theta))
        res_b = ev_b.eval_batch(pts)
        res_p = ev_p.eval_batch(pts)
        assert ev_b.n_batch_sweeps >= 1 and ev_p.n_batch_sweeps == 0
        for rb, rp in zip(res_b, res_p):
            assert abs(rb.value - rp.value) <= 1e-9 * max(1.0, abs(rp.value))
            assert rb.qc_factor is None  # stencil batches never retain handles

    def test_value_and_gradient_finite(self, poisson_case):
        model, gt, lik = poisson_case
        ev = NonGaussianFobjEvaluator(model, lik, batch_stencils=True, cache_size=4)
        f0, grad, _ = ev.value_and_gradient(gt.theta)
        assert np.isfinite(f0) and np.all(np.isfinite(grad))
        assert ev.n_batch_sweeps >= 1

    def test_rejects_explicit_solver(self, poisson_case):
        from repro.inla.solvers import SequentialSolver

        model, _, lik = poisson_case
        with pytest.raises(ValueError):
            NonGaussianFobjEvaluator(model, lik, solver=SequentialSolver())


class TestDaliaIntegration:
    @pytest.fixture(scope="class")
    def fitted(self, poisson_case):
        from repro.inla.bfgs import BFGSOptions
        from repro.inla.dalia import DALIA

        model, gt, lik = poisson_case
        engine = DALIA(model, likelihood=lik)
        result = engine.fit(gt.theta, options=BFGSOptions(max_iter=3))
        return engine, result

    def test_fit_runs_on_batched_engine(self, fitted):
        from repro.backend.array_module import batched_enabled
        from repro.backend.protocol import get_backend

        engine, result = fitted
        assert np.isfinite(result.fobj_mode)
        if batched_enabled(None, get_backend()):
            assert engine.evaluator.n_batch_sweeps >= 1
        assert np.all(np.isfinite(result.latent.mean))

    def test_posterior_mode_reuse_and_cold_rebuild(self, fitted):
        engine, result = fitted
        warm = engine.posterior()
        cold = engine._nongaussian_posterior(result.theta_mode)
        np.testing.assert_allclose(warm.mu_perm, cold.mu_perm, atol=1e-8)

    def test_rejects_explicit_solver(self, poisson_case):
        from repro.inla.dalia import DALIA
        from repro.inla.solvers import SequentialSolver

        model, _, lik = poisson_case
        with pytest.raises(ValueError):
            DALIA(model, likelihood=lik, solver=SequentialSolver())
