"""Prior log-determinant from the LMC identity.

``CoregionalSTModel.prior_logdets`` computes ``log|Qp|`` as
``sum_k [log|Q_st,k| + nr log(eps) - (ns nt + nr) log(sigma_k^2)]`` from
univariate factorizations instead of factorizing the joint prior.
Contracts under test:

- it equals ``factorize(model.assemble(theta).qp).logdet()`` to 1e-10
  relative for nv = 1, 2, 3 over a conditioning sweep: the reference
  theta, seeded random thetas, very short ranges up to the coefficient
  screen, long ranges, near-collinear couplings, very small and very
  large sigmas,
- an infeasible theta or a non-positive-definite ``Q_st,k`` still gives
  ``fobj = -inf`` on the per-point and the batched path,
- a memo hit is bit-identical to a cold computation of any batch width,
  and a fresh evaluator starts with an empty, bounded memo.
"""

import sys

import numpy as np
import pytest

from repro.inla.evaluator import FobjEvaluator
from repro.inla.objective import evaluate_fobj
from repro.model.assembler import PriorLogdetMemo
from repro.model.datasets import make_dataset
from repro.structured.factor import factorize


@pytest.fixture(scope="module", params=[1, 2, 3], ids=["nv1", "nv2", "nv3"])
def model(request):
    model, _, _ = make_dataset(nv=request.param, ns=12, nt=4, nr=2, obs_per_step=15, seed=3)
    return model


def _shift_ranges(model, theta, delta):
    theta = theta.copy()
    for k in range(model.nv):
        theta[model.layout.range_slice(k)] += delta
    return theta


def _screen_boundary(model, sign):
    """Largest log-range shift (in direction ``sign``) the coefficient
    screen still accepts, by bisection."""
    ref = model._reference_theta()
    lo, hi = 0.0, 2000.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        feasible = model.plan.coefficients(_shift_ranges(model, ref, sign * mid)[None])[3][0]
        lo, hi = (mid, hi) if feasible else (lo, mid)
    return sign * lo


def _conditioning_sweep(model):
    lay = model.layout
    ref = model._reference_theta()
    rng = np.random.default_rng(2024)
    thetas = [ref]
    thetas += [ref + 0.5 * rng.standard_normal(lay.dim) for _ in range(4)]
    thetas.append(_shift_ranges(model, ref, -6.0))  # very short ranges
    thetas.append(_shift_ranges(model, ref, _screen_boundary(model, -1) + 0.5))
    thetas.append(_shift_ranges(model, ref, 2.0))  # long ranges
    for d in (-8.0, 8.0):  # very small / very large sigmas
        th = ref.copy()
        th[lay.sigma_slice()] += d
        thetas.append(th)
    if lay.n_lambda:
        th = ref.copy()
        th[lay.lambda_slice()] = 10.0  # near-collinear mixing rows
        thetas.append(th)
    return thetas


class TestIdentityAccuracy:
    def test_matches_joint_factorization(self, model):
        thetas = _conditioning_sweep(model)
        got = model.prior_logdets(np.stack(thetas), PriorLogdetMemo())
        for theta, value in zip(thetas, got):
            want = factorize(model.assemble(theta).qp).logdet()
            assert abs(value - want) <= 1e-10 * max(1.0, abs(want)), theta

    def test_objective_uses_identity(self, model):
        theta = model._reference_theta()
        res = evaluate_fobj(model, theta)
        assert res.logdet_qp == model.prior_logdets(theta)[0]


class TestFailuresStayMinusInf:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_npd_process_precision(self, model):
        """Just inside the long-range screen the univariate values
        overflow and the factorization fails — as the joint prior's did."""
        theta = _shift_ranges(model, model._reference_theta(), _screen_boundary(model, 1) - 0.5)
        assert np.isnan(model.prior_logdets(theta)[0])
        memo = PriorLogdetMemo()
        model.prior_logdets(theta, memo)
        assert len(memo) == 0  # failures are never memoized
        assert evaluate_fobj(model, theta).value == -np.inf
        ev = FobjEvaluator(model, batch_stencils=True, cache_size=0)
        ok, bad = ev.eval_batch([model._reference_theta(), theta])
        assert np.isfinite(ok.value) and bad.value == -np.inf

    def test_infeasible_theta(self, model):
        theta = _shift_ranges(model, model._reference_theta(), _screen_boundary(model, 1) + 1.0)
        assert np.isnan(model.prior_logdets(theta)[0])
        assert evaluate_fobj(model, theta).value == -np.inf
        nonfinite = model._reference_theta()
        nonfinite[0] = np.nan
        assert np.isnan(model.prior_logdets(nonfinite)[0])


class TestMemo:
    def test_hit_bit_identical_to_cold(self, model):
        ev = FobjEvaluator(model)
        stencil = ev.gradient_stencil(model._reference_theta() + 0.1, 1e-4)
        cold = model.prior_logdets(stencil)
        memo = PriorLogdetMemo()
        first = model.prior_logdets(stencil, memo)
        assert len(memo) == model.nv * 5  # center + two per range coordinate
        again = model.prior_logdets(stencil, memo)
        assert np.array_equal(first, cold) and np.array_equal(again, cold)
        for theta, value in zip(stencil, cold):
            assert model.prior_logdets(theta)[0] == value  # width-1 sweeps

    def test_fresh_evaluator_starts_empty(self, model):
        theta = model._reference_theta()
        ev = FobjEvaluator(model)
        assert len(ev._prior_memo) == 0
        ev(theta)
        assert len(ev._prior_memo) == model.nv
        assert len(FobjEvaluator(model)._prior_memo) == 0

    def test_bounded(self, model, monkeypatch):
        monkeypatch.setattr(PriorLogdetMemo, "capacity", 3)
        memo = PriorLogdetMemo()
        thetas = [_shift_ranges(model, model._reference_theta(), 0.01 * j) for j in range(4)]
        model.prior_logdets(np.stack(thetas), memo)
        assert len(memo) == 3

    def test_shared_across_pool_threads(self, model):
        """Per-point stencil evaluations on more threads than cores share
        one memo: every range lands exactly once and every ``log|Qp|`` is
        bit-identical to a single-threaded evaluator's."""
        theta = model._reference_theta() + 0.05
        serial = FobjEvaluator(model, batch_stencils=False, cache_size=0)
        pooled = FobjEvaluator(model, batch_stencils=False, cache_size=0, s1_workers=8)
        pts = list(serial.gradient_stencil(theta, 1e-4))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = pooled.eval_batch(pts)
        finally:
            sys.setswitchinterval(interval)
        want = serial.eval_batch(pts)
        assert [r.logdet_qp for r in got] == [r.logdet_qp for r in want]
        assert len(pooled._prior_memo) == len(serial._prior_memo) == model.nv * 5
