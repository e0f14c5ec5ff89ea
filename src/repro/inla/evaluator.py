"""Batched parallel objective evaluations (strategy S1).

One BFGS iteration needs ``nfeval = 2 dim(theta) + 1`` objective values
(the central-difference stencil plus the center, paper Eq. 10); they are
embarrassingly parallel.  :class:`FobjEvaluator` exploits that two ways:

- **theta-batched stencil sweeps** (the default on the sequential host
  path): all stencil points share the exact same BTA block structure and
  differ only in values, so the evaluator assembles the theta-stacked
  ``Qc`` matrices and drives
  :func:`repro.structured.multifactor.factorize_batch` — **one** batched
  ``pobtaf`` sweep for the whole batch instead of ``2 d + 1``, with all
  log-determinants and conditional-mean solves coming out of
  theta-batched passes.  This is the shape a device backend wants: one
  fat kernel launch per chain step instead of ``2 d + 1`` thin ones.
- **thread-pooled per-point evaluation** (the fallback): a pool of
  ``s1`` workers, mirroring the paper's MPI groups ``G_S1`` — NumPy's
  LAPACK releases the GIL, so the factorizations genuinely overlap.
  Used for distributed (S3) solvers, subclassed engines, pinned
  per-block kernels, and to resolve which theta of a batch went
  non-positive-definite.

Neither path factorizes the joint prior ``Qp``: its log-determinant
comes from the LMC identity
(:meth:`repro.model.assembler.CoregionalSTModel.prior_logdets`) — one
univariate batched sweep over the process ranges the evaluator's private
**prior memo** has not seen yet.  A gradient stencil moves each range
coordinate of one process at a time, so after the first evaluation a
stencil needs ``4 nv`` new univariate precisions, not ``2 d + 1`` joint
ones.

A **theta-keyed LRU cache** sits in front of both paths: the BFGS line
search evaluates a candidate, then — on acceptance — the gradient
stencil revisits the same point as its center; convergence checks revisit
the mode.  Cache hits skip assembly *and* factorization entirely
(asserted against :data:`repro.structured.pobtaf.FACTORIZATIONS`), and
the most recent entries additionally retain their ``Qc`` factorization
handle (:meth:`cached_factor`) for downstream consumers.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.backend.array_module import batched_enabled
from repro.backend.protocol import get_backend
from repro.inla.objective import (
    FobjResult,
    evaluate_fobj,
    finish_fobj_results_batch,
)
from repro.inla.nongaussian import (
    evaluate_fobj_nongaussian,
    evaluate_fobj_nongaussian_batch,
)
from repro.inla.solvers import SequentialSolver, StructuredSolver
from repro.model.assembler import AssemblyWorkspace, CoregionalSTModel, PriorLogdetMemo
from repro.structured.kernels import NotPositiveDefiniteError
from repro.structured.multifactor import factorize_batch


def central_difference_directions(values: np.ndarray, f0: float, h: float) -> np.ndarray:
    """Directional derivatives from an interleaved ``(+, -)`` value stack.

    ``values`` holds the ``2 d`` stencil values ordered
    ``[f(+e_0), f(-e_0), f(+e_1), ...]`` — the evaluation order of the
    stacked stencils built by :meth:`FobjEvaluator.gradient_stencil` and
    the smart-gradient frame.  Non-finite entries are replaced by the
    center value ``f0``, zeroing that direction's estimate (the optimizer
    then relies on its line search to stay feasible).  One vectorized pass
    replaces the historical per-direction Python loop.
    """
    v = np.asarray(values, dtype=np.float64)
    v = np.where(np.isfinite(v), v, f0)
    # A non-finite center (infeasible expansion point) makes the whole
    # estimate nan by design; suppress the elementwise inf-inf warning.
    with np.errstate(invalid="ignore"):
        return (v[0::2] - v[1::2]) / (2.0 * h)


# Upper bound on thetas per batched sweep: the stacks hold all t matrices
# at once (t x BTA bytes per precision matrix), so Hessian-sized batches
# (2 d^2 + 1 points) are swept in chunks — gradient stencils (2 d + 1)
# stay a single sweep for every realistic d.
_BATCH_SWEEP_CHUNK = 64

# Auto-mode block-size ceiling for the theta-batched sweep on the host:
# batching amortizes per-step kernel *dispatch*, which dominates for small
# blocks (measured 1.6-2.4x for b <= 16, parity at b = 32, and a loss at
# b = 64 where per-step LAPACK is compute-bound — see
# benchmarks/results/multitheta.txt).  Explicit ``batch_stencils=True``
# overrides; a device backend with genuinely batched kernels should too.
_BATCH_STENCIL_MAX_B = 32


def _batch_stencil_max_b() -> int:
    """Auto-mode ceiling (``REPRO_BATCH_STENCIL_MAX_B`` overrides)."""
    raw = os.environ.get("REPRO_BATCH_STENCIL_MAX_B", "").strip()
    return int(raw) if raw else _BATCH_STENCIL_MAX_B


class FobjEvaluator:
    """Callable objective with batched stencil sweeps, an LRU, and counters.

    Parameters
    ----------
    model:
        The assembled latent Gaussian model.
    solver:
        Structured solver for the per-point path (None = sequential).
        The theta-batched sweep runs only on the sequential batched-kernel
        path; a distributed solver (or ``batched=False`` pin) keeps the
        per-point evaluation.
    s1_workers:
        Thread-pool width of the per-point fallback path.
    s2_parallel:
        Compute ``log|Qp|`` and factorize ``Qc`` of one point concurrently
        (per-point path only).
    batch_stencils:
        Force (True) or disable (False) the theta-batched stencil sweep;
        None (default) enables it whenever the solver is sequential, the
        batched kernel path is active (``REPRO_BATCHED``), and the block
        size sits in the dispatch-bound regime where batching pays on
        the host (``b <= 32``, override via
        ``REPRO_BATCH_STENCIL_MAX_B`` — see
        ``benchmarks/results/multitheta.txt`` for the measured
        crossover).
    cache_size:
        Theta-keyed LRU capacity (0 disables caching).  Cache hits cost
        zero assemblies and zero factorization sweeps.  The default
        (None) auto-sizes to two gradient stencils
        (``2 (2 d + 1) + 3`` entries) so a stencil batch cannot evict
        its own center — the entry the line-search / gradient pattern
        revisits.  Entries without a retained handle are a few scalars
        each.
    cached_factors:
        How many of the most recent cache entries keep their ``Qc``
        factorization handle alive (bounds the extra block-stack
        memory).  Only single-point evaluations (``__call__`` — the
        line-search / convergence pattern) retain handles; stencil
        batches never do, on either path.

    Accounting: a per-point evaluation runs one ``Qc`` ``pobtaf`` sweep
    (shared by logdet + solve through the handle) plus one univariate
    prior sweep when the prior memo misses any of its processes; a batch
    of ``m`` uncached points runs one theta-batched ``Qc`` sweep plus at
    most one prior sweep; a cache hit runs none.  All asserted against
    :data:`repro.structured.pobtaf.FACTORIZATIONS` by the objective and
    evaluator tests.  ``n_batch_sweeps`` counts the ``Qc`` sweeps of the
    batch path.
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
        cached_factors: int = 2,
    ):
        if s1_workers < 1:
            raise ValueError(f"s1_workers must be >= 1, got {s1_workers}")
        if cache_size is None:
            cache_size = 2 * model.layout.n_feval + 3
        if cache_size < 0 or cached_factors < 0:
            raise ValueError("cache_size and cached_factors must be >= 0")
        self.model = model
        self.solver = solver
        self.s1_workers = s1_workers
        self.s2_parallel = s2_parallel
        self.batch_stencils = batch_stencils
        self.cache_size = cache_size
        self.cached_factors = cached_factors
        self.n_evaluations = 0
        self.n_batches = 0
        self.n_batch_sweeps = 0
        self.n_cache_hits = 0
        self._cache: OrderedDict = OrderedDict()
        self._cache_lock = threading.Lock()
        # Per-process log|Q_st,k| by range (floats only); a fresh
        # evaluator starts cold.
        self._prior_memo = PriorLogdetMemo()
        # Reusable theta-first assembly stacks for the batch sweep (grown
        # to the largest stencil width seen, overwritten every batch).
        self._assembly_ws: AssemblyWorkspace | None = None

    # -- path selection ----------------------------------------------------

    def _batch_capable(self) -> bool:
        """True when the theta-batched sweep may replace per-point evals.

        Subclassed engines (e.g. the sparse R-INLA baseline) override
        ``_eval_one``; batching around them would silently bypass their
        objective, so any override disables the sweep.  Distributed
        solvers keep the per-point path (S1 stencil points have distinct
        matrices per rank slice), as does an explicit ``batched=False``
        kernel pin.
        """
        if type(self)._eval_one is not FobjEvaluator._eval_one:
            return False
        if self.solver is None:
            return True
        return isinstance(self.solver, SequentialSolver) and self.solver.batched is not False

    def _use_batch(self, count: int) -> bool:
        if count < 2 or not self._batch_capable():
            return False
        if self.batch_stencils is not None:
            return self.batch_stencils
        if not batched_enabled(None):
            return False
        # A backend with genuinely batched POTRF (mock device, CuPy) has
        # no dispatch-bound crossover: one fat launch beats t thin ones at
        # any block size, so the host-measured ceiling does not apply.
        if get_backend().has_batched_potrf:
            return True
        # Auto mode stays per-point above the measured host crossover
        # (dispatch amortization pays for b <= _BATCH_STENCIL_MAX_B).
        return self.model.permutation.bta_shape.b <= _batch_stencil_max_b()

    # -- theta-keyed LRU ---------------------------------------------------

    @staticmethod
    def _key(theta: np.ndarray) -> bytes:
        return np.ascontiguousarray(theta, dtype=np.float64).tobytes()

    def _cache_get(self, key: bytes) -> FobjResult | None:
        if self.cache_size == 0:
            return None
        with self._cache_lock:
            res = self._cache.get(key)
            if res is not None:
                self._cache.move_to_end(key)
                self.n_cache_hits += 1
            return res

    def _cache_put(self, key: bytes, result: FobjResult) -> None:
        if self.cache_size == 0:
            return
        with self._cache_lock:
            self._cache[key] = result
            self._cache.move_to_end(key)
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
            # Bound handle retention: only the newest `cached_factors`
            # entries keep their Qc factor (the block stacks dominate an
            # entry's footprint; the scalar result stays cached).
            with_factor = [k for k, r in self._cache.items() if r.qc_factor is not None]
            drop = len(with_factor) - self.cached_factors
            for k in with_factor[:drop] if drop > 0 else ():
                self._cache[k].qc_factor = None

    def cached_factor(self, theta: np.ndarray):
        """The retained ``Qc`` factorization handle for ``theta``, or None.

        Only recent single-point evaluations retain handles (see
        ``cached_factors``); a hit lets a consumer reuse the line-search
        factorization at the same theta — :meth:`repro.inla.dalia.DALIA.fit`
        builds the mode posterior from it, skipping one assembly-and-
        factorization of ``Qc(theta*)``.
        """
        with self._cache_lock:
            res = self._cache.get(self._key(np.asarray(theta, dtype=np.float64)))
            return None if res is None else res.qc_factor

    def clear_cache(self) -> None:
        with self._cache_lock:
            self._cache.clear()

    # -- evaluation paths --------------------------------------------------

    def _eval_one(self, theta: np.ndarray) -> FobjResult:
        """Single objective evaluation (hook point for baseline engines)."""
        return evaluate_fobj(
            self.model,
            theta,
            solver=self.solver,
            s2_parallel=self.s2_parallel,
            prior_memo=self._prior_memo,
        )

    def __call__(self, theta: np.ndarray) -> FobjResult:
        self.n_evaluations += 1
        theta = np.asarray(theta, dtype=np.float64)
        key = self._key(theta)
        hit = self._cache_get(key)
        if hit is not None:
            return hit
        # Only the single-point path retains the Qc handle: these are the
        # line-search / convergence evaluations whose thetas get revisited
        # (and whose factor DALIA's mode posterior reuses).  Stencil
        # batches never retain — a pooled Hessian batch would otherwise
        # hold one full factorization per point until the LRU trimmed it.
        retain = (
            self.cache_size > 0
            and self.cached_factors > 0
            and type(self)._eval_one is FobjEvaluator._eval_one
        )
        if retain:
            res = evaluate_fobj(
                self.model,
                theta,
                solver=self.solver,
                s2_parallel=self.s2_parallel,
                keep_factor=True,
                prior_memo=self._prior_memo,
            )
        else:
            res = self._eval_one(theta)
        self._cache_put(key, res)
        return res

    def _eval_pooled(self, thetas: list) -> list:
        """The historical per-point path: thread pool of ``s1`` workers."""
        if self.s1_workers == 1 or len(thetas) == 1:
            return [self._eval_one(t) for t in thetas]
        with ThreadPoolExecutor(max_workers=min(self.s1_workers, len(thetas))) as pool:
            futures = [pool.submit(self._eval_one, t) for t in thetas]
            return [f.result() for f in futures]

    def _eval_batch_sweep(self, thetas: list) -> list | None:
        """All stencil points through one batched assembly + one Qc sweep.

        ``model.assemble_batch`` evaluates every point's scalar
        coefficients (screening infeasible thetas before any value work)
        and fills the theta-first ``Qc`` block stack in one numeric pass
        — zero scipy sparse arithmetic, zero per-theta ``BTAMatrix``
        copies.  The stack is factorized in place (``overwrite=True``; it
        lives in a reusable workspace rebuilt every batch), and all
        ``Qc`` log-determinants and conditional means come from
        theta-batched passes; ``log|Qp|`` comes from the memoized prior
        identity.  Infeasible thetas yield ``-inf`` rows.  Returns None
        when any stacked matrix is not positive definite — the batched
        Cholesky cannot tell *which* theta failed, so the caller resolves
        the batch on the per-point path instead.
        """
        model = self.model
        if self._assembly_ws is None:
            # The active backend (REPRO_BACKEND) pins where the whole
            # stencil pipeline lives: assembly value stacks, block
            # stacks, factors and sweeps all allocate through it.
            self._assembly_ws = AssemblyWorkspace(backend=get_backend())
        batch = model.assemble_batch(np.stack(thetas), workspace=self._assembly_ws)
        results = [FobjResult(theta=t, value=-np.inf) for t in thetas]
        if batch.t == 0:
            return results
        logdets_p = model.prior_logdets(batch.thetas[batch.feasible], self._prior_memo)
        if not np.isfinite(logdets_p).all():
            return None
        try:
            qc_batch = factorize_batch(batch.qc, overwrite=True)
        except NotPositiveDefiniteError:
            return None
        self.n_batch_sweeps += 1
        finished = finish_fobj_results_batch(
            model,
            [thetas[j] for j in batch.feasible],
            batch,
            logdets_p,
            qc_batch.logdets(),
            qc_batch.solve_each(batch.rhs),
        )
        for i, j in enumerate(batch.feasible):
            results[j] = finished[i]
        return results

    def eval_batch(self, thetas: list) -> list:
        """Evaluate many stencil points; order of results matches input.

        Cached points are served first; the remainder goes through the
        theta-batched sweep when eligible (one ``Qc`` ``pobtaf`` sweep for
        the whole batch) and through the thread pool otherwise.
        """
        self.n_batches += 1
        self.n_evaluations += len(thetas)
        thetas = [np.asarray(t, dtype=np.float64) for t in thetas]
        keys = [self._key(t) for t in thetas]
        results: list = [self._cache_get(k) for k in keys]
        missing = [j for j, r in enumerate(results) if r is None]
        if not missing:
            return results
        todo = [thetas[j] for j in missing]
        if self._use_batch(len(todo)):
            out = []
            # Chunking bounds the transient theta-stack memory (Hessian
            # batches) and localizes an NPD fallback to its chunk.
            for start in range(0, len(todo), _BATCH_SWEEP_CHUNK):
                chunk = todo[start : start + _BATCH_SWEEP_CHUNK]
                res = self._eval_batch_sweep(chunk)
                out.extend(res if res is not None else self._eval_pooled(chunk))
        else:
            out = self._eval_pooled(todo)
        for j, r in zip(missing, out):
            results[j] = r
            self._cache_put(keys[j], r)
        return results

    def gradient_stencil(self, theta: np.ndarray, h: float) -> np.ndarray:
        """The ``2 d + 1`` stencil points of paper Eq. 10 (center last).

        Returned as one stacked ``(2 d + 1, d)`` array — rows interleave
        ``theta + h e_i`` / ``theta - h e_i`` — built by broadcasting
        instead of a per-axis Python loop; ``eval_batch`` consumes the
        rows (as one theta-batched sweep on the host sequential path).
        """
        theta = np.asarray(theta, dtype=np.float64)
        d = theta.size
        pts = np.empty((2 * d + 1, d))
        steps = h * np.eye(d)
        pts[0 : 2 * d : 2] = theta + steps
        pts[1 : 2 * d : 2] = theta - steps
        pts[-1] = theta
        return pts

    def value_and_gradient(self, theta: np.ndarray, *, h: float = 1e-4) -> tuple:
        """Central-difference gradient; one parallel batch per call.

        Returns ``(f_center, grad, center_result)``.  Non-finite stencil
        values are replaced by the center value, zeroing that direction's
        derivative estimate (the optimizer then relies on its line search
        to stay in the feasible region).  When the center was just
        evaluated — the accepted point of a line search — the LRU serves
        it and only the ``2 d`` displaced points are swept.
        """
        pts = self.gradient_stencil(theta, h)
        results = self.eval_batch(pts)
        center = results[-1]
        f0 = center.value
        values = np.array([r.value for r in results[:-1]])
        grad = central_difference_directions(values, f0, h)
        return f0, grad, center


class NonGaussianFobjEvaluator(FobjEvaluator):
    """The evaluator over a general likelihood's Laplace objective.

    Same LRU / batching skeleton as :class:`FobjEvaluator`, with the two
    evaluation hooks swapped for the non-Gaussian engine
    (:mod:`repro.inla.nongaussian`):

    - the per-point path runs the serial Newton inner loop
      (:func:`~repro.inla.nongaussian.evaluate_fobj_nongaussian`),
    - the stencil path runs all points' Newton loops in **lockstep** —
      one ``factorize_batch`` sweep per Newton iteration across every
      active theta
      (:func:`~repro.inla.nongaussian.evaluate_fobj_nongaussian_batch`).

    A **warm-start cache** of permuted modes feeds both paths.  It is
    keyed by the exact bytes of theta, so only an exact revisit of a
    theta (the accepted line-search point re-entering as the next
    stencil centre) starts its Newton loop at the previous ``x*``; every
    other point, neighbouring stencil points included, starts from zero.
    Stencil batches never retain factorization handles (mirroring the
    Gaussian policy); the single-point path does, bounded by
    ``cached_factors``.
    """

    def __init__(
        self,
        model: CoregionalSTModel,
        lik,
        *,
        max_newton: int = 40,
        **kwargs,
    ):
        if kwargs.get("solver") is not None:
            raise ValueError(
                "NonGaussianFobjEvaluator supports the sequential path only"
            )
        super().__init__(model, **kwargs)
        self.lik = lik
        self.max_newton = max_newton
        # Permuted modes keyed by theta bytes, LRU-bounded alongside the
        # result cache (each entry is one N-vector).
        self._warm_starts: OrderedDict = OrderedDict()

    def _trim_warm_starts(self) -> None:
        cap = max(self.cache_size, 8)
        while len(self._warm_starts) > cap:
            self._warm_starts.popitem(last=False)

    def _batch_capable(self) -> bool:
        # The override of `_eval_one` is the engine itself here, not a
        # baseline to protect — the lockstep sweep is built for it.
        return self.solver is None

    def _eval_one(self, theta: np.ndarray) -> FobjResult:
        theta = np.asarray(theta, dtype=np.float64)
        key = self._key(theta)
        res = evaluate_fobj_nongaussian(
            self.model,
            theta,
            self.lik,
            max_newton=self.max_newton,
            x0_perm=self._warm_starts.get(key),
            prior_memo=self._prior_memo,
        )
        if res.mu_perm is not None:
            self._warm_starts[key] = np.array(res.mu_perm)
            self._trim_warm_starts()
        return res

    def _eval_batch_sweep(self, thetas: list) -> list:
        if self._assembly_ws is None:
            self._assembly_ws = AssemblyWorkspace(backend=get_backend())
        out = evaluate_fobj_nongaussian_batch(
            self.model,
            np.stack(thetas),
            self.lik,
            max_newton=self.max_newton,
            warm_starts=self._warm_starts,
            workspace=self._assembly_ws,
            prior_memo=self._prior_memo,
        )
        self._trim_warm_starts()
        self.n_batch_sweeps += 1
        # Mirror the Gaussian policy: stencil batches never retain
        # factorization handles (the lockstep's final stack would stay
        # pinned by any surviving per-lane view).
        for r in out:
            r.qc_factor = None
        return out
