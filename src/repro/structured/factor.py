"""Factorization handles — one ``pobtaf`` amortized over every consumer.

The DALIA pipeline computes *several* quantities from each factorized
precision matrix: the log-determinant for the objective, conditional-mean
solves, Takahashi selected inversion for the marginal variances, and
``L^{-T} z`` sampling sweeps.  The historical ``StructuredSolver`` API was
stateless — every call took a raw :class:`~repro.structured.bta.BTAMatrix`
and refactorized — so consumers either paid redundant ``O(n b^3)``
factorizations or reached for ad-hoc fused entry points
(``pobtasi_with_solve``).

This module makes the factorization a first-class object:

- :class:`BTAFactor` — the sequential handle returned by
  :func:`factorize` / ``SequentialSolver.factorize``.  It owns the
  Cholesky block stacks, the cached per-factor triangular inverses and
  flat arrow row (computed once, GEMMed against by every sweep), the
  cached log-determinant and selected-inverse diagonal, and preallocated
  ``(N, k)`` sweep workspaces — so ``logdet()``, ``solve()``,
  ``solve_stack()``, ``solve_lt_stack()``, ``selected_inverse_diagonal()``
  and ``sample()`` all reuse the one factorization with zero per-call
  block allocation.
- :class:`DistributedBTAFactor` — the rank-partitioned handle (strategy
  S3).  One ``d_pobtaf`` collective builds every rank's
  :class:`~repro.structured.d_pobtaf.DistributedFactors` (interior factor
  stacks, cached interior inverses, the shared reduced-system factor);
  each method then launches one SPMD epoch against the stored factors
  instead of re-running ``d_pobtaf``.  The ranks are threads of this
  process (:func:`d_factorize`, ``DistributedSolver.factorize``), whose
  factors the handle holds, or persistent worker processes
  (:func:`d_factorize_proc`), each holding its own factors resident in
  :func:`~repro.comm.launcher.worker_store`.  Both run the same
  module-level rank jobs, so the two are bit-identical.

Results are bit-identical to the legacy one-shot calls (which are now
thin ``factorize``-then-call wrappers).  Sequential handles are safe to
*read* concurrently: the mutable per-solve state is the sweep buffer,
which each stacked solve leases from a small acquire/release pool
(:class:`SweepWorkspacePool`) — a shared mode-factor can serve several
S1 sampler threads without racing (the scalar caches are idempotent).
"""

from __future__ import annotations

import threading
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.backend.protocol import NUMPY_BACKEND, Backend
from repro.comm.launcher import SpmdSession, worker_store

# Thread ranks always use the thread launcher, whatever ``REPRO_COMM``
# says: the handle holds their factors in this process.  Process ranks
# run through an SpmdSession instead (see d_factorize_proc).
from repro.comm.local import run_spmd
from repro.errors import NPDJitterWarning
from repro.structured.bta import BTAMatrix, BTAShape
from repro.structured.d_pobtaf import d_pobtaf, partition_matrix
from repro.structured.d_pobtas import d_pobtas_lanes
from repro.structured.d_pobtasi import d_pobtasi_diag
from repro.structured.kernels import NotPositiveDefiniteError
from repro.structured.multirhs import as_rhs_stack, pobtas_lt_stack, pobtas_stack
from repro.structured.pobtaf import BTACholesky, pobtaf
from repro.structured.pobtas import pobtas, pobtas_lt
from repro.structured.pobtasi import (
    pobtasi,
    selected_inverse_diagonal,
    solve_and_selected_inverse_diagonal,
)

__all__ = [
    "BTAFactor",
    "DistributedBTAFactor",
    "NPDJitterPolicy",
    "factorize",
    "d_factorize",
    "d_factorize_proc",
]

# Idle sweep workspaces cached per factor; buffers beyond this many are
# dropped on release instead of pooled (consumers use a handful of stack
# widths: sample counts, stencil widths, prediction batch sizes).
_MAX_WORKSPACES = 8


class SweepWorkspacePool:
    """Acquire/release pool of ``(N, k)`` sweep buffers for one factor.

    A shared mode-factor may serve several S1 sampler threads at once;
    the historical per-factor buffer dict handed every caller the *same*
    ``(N, k)`` array, so two concurrent ``solve_stack`` calls with equal
    ``k`` would race.  The pool leases a buffer per solve instead: free
    buffers are reused (the steady-state single-caller case stays
    allocation-free), a second concurrent lease of the same width simply
    allocates its own buffer, and at most ``max_idle`` buffers are kept
    idle.  Sweep results never alias the buffer (see
    :func:`repro.structured.multirhs._to_panels`), so returning it to
    the pool after the solve is safe.
    """

    def __init__(
        self,
        N: int,
        max_idle: int = _MAX_WORKSPACES,
        *,
        backend: Backend | None = None,
    ):
        self._N = int(N)
        self._max_idle = int(max_idle)
        self._backend = backend if backend is not None else NUMPY_BACKEND
        self._lock = threading.Lock()
        self._free: list = []  # [(k, buffer)] most-recently released last

    @contextmanager
    def lease(self, k: int):
        ws = None
        with self._lock:
            for i in range(len(self._free) - 1, -1, -1):
                if self._free[i][0] == k:
                    ws = self._free.pop(i)[1]
                    break
        if ws is None:
            # Buffers live where the factor lives: the owning backend's
            # allocator, never a bare np.empty.
            ws = self._backend.empty((self._N, k), order="C")
        try:
            yield ws
        finally:
            with self._lock:
                self._free.append((k, ws))
                while len(self._free) > self._max_idle:
                    self._free.pop(0)


def _run_spd(run, *args, **kwargs):
    """One SPMD epoch ``run(*args, **kwargs)`` that surfaces per-rank
    positive-definiteness failures.

    An infeasible hyperparameter configuration makes a rank's Cholesky
    fail; the objective layer must see ``NotPositiveDefiniteError`` (so
    the optimizer backtracks) rather than a generic SPMD error.
    """
    try:
        return run(*args, **kwargs)
    except RuntimeError as exc:
        cause = exc.__cause__
        while cause is not None:
            if isinstance(cause, NotPositiveDefiniteError):
                raise NotPositiveDefiniteError(str(cause)) from exc
            cause = cause.__cause__
        raise


@dataclass
class BTAFactor:
    """Sequential factorization handle over one :class:`BTACholesky`.

    Every method reuses the one factorization; scalar/diagonal results
    are cached on first computation.  Obtain via :func:`factorize` or
    ``StructuredSolver.factorize``.
    """

    chol: BTACholesky
    #: Execution-path pin (None follows ``REPRO_BATCHED``), matching the
    #: ``batched=`` argument of the solver that produced the handle.
    batched: bool | None = None
    #: Absolute diagonal jitter the NPD recovery chain added before this
    #: factorization succeeded (0.0 on the normal, unjittered path).  The
    #: handle then factors ``A + applied_jitter * I``, not ``A``.
    applied_jitter: float = 0.0
    _logdet: float | None = field(default=None, repr=False)
    _selinv_diag: np.ndarray | None = field(default=None, repr=False)
    _pool: SweepWorkspacePool | None = field(default=None, repr=False)

    def __post_init__(self):
        if self._pool is None:
            self._pool = SweepWorkspacePool(self.N, backend=self.backend)

    # -- structure ---------------------------------------------------------

    @property
    def shape3(self) -> BTAShape:
        return self.chol.factor.shape3

    @property
    def n(self) -> int:
        return self.chol.n

    @property
    def b(self) -> int:
        return self.chol.b

    @property
    def a(self) -> int:
        return self.chol.a

    @property
    def N(self) -> int:
        return self.chol.N

    @property
    def backend(self) -> Backend:
        """The :class:`Backend` the factor's block stacks live on."""
        return self.chol.get_backend()

    # -- the amortized operations ------------------------------------------

    def logdet(self) -> float:
        """``log det A`` from the factor diagonal (cached)."""
        if self._logdet is None:
            self._logdet = self.chol.logdet(batched=self.batched)
        return self._logdet

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs`` (vector ``(N,)`` or columns ``(N, k)``)."""
        return pobtas(self.chol, rhs, batched=self.batched)

    def solve_stack(self, rhs_stack: np.ndarray) -> np.ndarray:
        """Solve a row-major ``(k, N)`` RHS stack in one panel pass.

        Thread-safe: the sweep buffer is leased from the factor's
        workspace pool for the duration of the solve, so concurrent
        callers sharing one handle never share a buffer.
        """
        rhs_stack = self.backend.asarray(rhs_stack)
        k = 1 if rhs_stack.ndim == 1 else rhs_stack.shape[0]
        with self._pool.lease(k) as ws:
            return pobtas_stack(self.chol, rhs_stack, batched=self.batched, workspace=ws)

    def solve_lt(self, rhs: np.ndarray) -> np.ndarray:
        """Backward-only solve ``L^T x = rhs`` (the sampling primitive)."""
        return pobtas_lt(self.chol, rhs, batched=self.batched)

    def solve_lt_stack(self, rhs_stack: np.ndarray) -> np.ndarray:
        """Backward-only solve for a row-major ``(k, N)`` stack.

        Thread-safe via the same leased sweep buffer as
        :meth:`solve_stack` — the S1 sampling primitive a shared
        mode-factor serves to concurrent samplers.
        """
        rhs_stack = self.backend.asarray(rhs_stack)
        k = 1 if rhs_stack.ndim == 1 else rhs_stack.shape[0]
        with self._pool.lease(k) as ws:
            return pobtas_lt_stack(self.chol, rhs_stack, batched=self.batched, workspace=ws)

    def solve_stack_lanes(self, stacks: list) -> list:
        """Solve several independent ``(k_i, N)`` stacks, in lane order.

        The sequential handle has no collectives to batch, so lanes are
        simply looped — the method exists so sweep-group consumers can
        target one API on every factor type (the distributed handles
        collapse the per-lane collective rounds into one).
        """
        return [self.solve_stack(s) for s in stacks]

    def solve_lt_stack_lanes(self, stacks: list) -> list:
        """Backward-only lane solves (see :meth:`solve_stack_lanes`)."""
        return [self.solve_lt_stack(s) for s in stacks]

    def selected_inverse(self) -> BTAMatrix:
        """Selected entries of ``A^{-1}`` (full BTA block pattern)."""
        return pobtasi(self.chol, batched=self.batched)

    def selected_inverse_diagonal(self) -> np.ndarray:
        """Diagonal of ``A^{-1}`` — the marginal variances (cached).

        Runs the diagonal-only Takahashi recursion (no full-``X``
        materialization) on the batched path.
        """
        if self._selinv_diag is None:
            self._selinv_diag = selected_inverse_diagonal(self.chol, batched=self.batched)
        return self._selinv_diag.copy()

    def solve_and_selected_inverse_diagonal(self, rhs: np.ndarray) -> tuple:
        """``(x, var)`` from one fused backward recursion.

        The conditional-mean solve rides the diagonal-only
        selected-inversion backward pass
        (:func:`repro.structured.pobtasi.solve_and_selected_inverse_diagonal`)
        — the INLA marginals' hot pair.
        """
        x, var = solve_and_selected_inverse_diagonal(
            self.chol, rhs, batched=self.batched
        )
        if self._selinv_diag is None:
            self._selinv_diag = var.copy()
        return x, var

    def sample(self, k: int, rng: np.random.Generator, *, mean: np.ndarray | None = None):
        """``k`` exact draws from ``N(mean, A^{-1})``, row-major ``(k, N)``.

        One stacked backward sweep (``x = mean + L^{-T} z``); no dense
        covariance is ever formed.
        """
        if k < 1:
            raise ValueError(f"need k >= 1 samples, got {k}")
        # The normal draws are generated on the host (the RNG lives
        # there); moving them through the backend's asarray is the H2D
        # crossing a real device pays per sampling round.
        z = self.backend.asarray(rng.standard_normal((k, self.N)))
        x = self.solve_lt_stack(z)
        if mean is not None:
            x += self.backend.asarray(mean)[None, :]
        return x


# ---------------------------------------------------------------------------
# Distributed rank jobs
# ---------------------------------------------------------------------------
#
# ``job(comm, f, *args)`` runs on one rank, ``f`` being that rank's
# DistributedFactors.  The jobs are module-level so they pickle to worker
# processes under any start method.

_STORE_KEY = "dbta_factors"


def _factorize_job(comm, slices, batched):
    f = d_pobtaf(slices[comm.Get_rank()], comm, batched=batched)
    return f, f.logdet(comm, batched=batched)


def _resident_factorize_job(comm, slices, batched):
    f, logdet = _factorize_job(comm, slices, batched)
    worker_store()[_STORE_KEY] = f
    return logdet


def _resident(comm, job, *args):
    """Process-rank trampoline: run ``job`` on this worker's resident factors."""
    return job(comm, worker_store()[_STORE_KEY], *args)


def _logdet_job(comm, f, batched):
    return f.logdet(comm, batched=batched)


def _sweep_job(comm, f, stacks, lt, batched):
    """This rank's slice of every row-major ``(k_i, N)`` lane through one
    :func:`~repro.structured.d_pobtas.d_pobtas_lanes` round; returns
    row-major ``(x_local, x_tip)`` pairs in lane order."""
    lo, hi = f.part.start * f.b, f.part.stop * f.b
    locs = [s[:, lo:hi].T for s in stacks]
    tips = [s[:, s.shape[1] - f.a :].T for s in stacks]
    return [(x.T, t.T) for x, t in d_pobtas_lanes(f, locs, tips, comm, lt=lt, batched=batched)]


def _selinv_job(comm, f, batched):
    return d_pobtasi_diag(f, batched=batched)


def _solve_and_selinv_job(comm, f, stack, batched):
    (x,) = _sweep_job(comm, f, [stack], False, batched)
    return x + d_pobtasi_diag(f, batched=batched)


def _joined(pieces: list, tip) -> np.ndarray:
    """Per-rank row-major pieces plus the shared tip piece, in ``N`` order."""
    return np.concatenate(pieces + [tip], axis=-1)


@dataclass
class DistributedBTAFactor:
    """Rank-partitioned factorization handle (strategy S3).

    Holds the result of one ``d_pobtaf`` collective; each method launches
    a single SPMD epoch over the stored factors — the factorization
    itself (and its cached interior inverses and reduced-system factor)
    is never recomputed.  Thread ranks (:func:`d_factorize` /
    ``DistributedSolver.factorize``) keep every rank's
    :class:`~repro.structured.d_pobtaf.DistributedFactors` in ``factors``;
    process ranks (:func:`d_factorize_proc`) keep them resident in their
    worker processes, and ``factors`` is None.  Close the handle (or use
    it as a context manager) to release the worker processes; for thread
    ranks that is a no-op.
    """

    shape3: BTAShape
    factors: list | None
    batched: bool | None = None
    _logdet: float | None = field(default=None, repr=False)
    _selinv_diag: np.ndarray | None = field(default=None, repr=False)
    _session: SpmdSession | None = field(default=None, repr=False)

    @property
    def P(self) -> int:
        return len(self.factors) if self._session is None else self._session.nranks

    @property
    def n(self) -> int:
        return self.shape3.n

    @property
    def b(self) -> int:
        return self.shape3.b

    @property
    def a(self) -> int:
        return self.shape3.a

    @property
    def N(self) -> int:
        return self.shape3.N

    def _run(self, job, *args) -> list:
        """``job(comm, f, *args)`` on every rank; per-rank results in rank order."""
        if self._session is not None:
            return _run_spd(self._session.run, _resident, job, *args)
        factors = self.factors
        return _run_spd(run_spmd, self.P, lambda comm: job(comm, factors[comm.Get_rank()], *args))

    def _sweep(self, stacks: list, lt: bool) -> list:
        """Row-major ``(k_i, N)`` lanes through one epoch and one
        collective round; an empty lane list launches nothing."""
        if not stacks:
            return []
        stacks = [as_rhs_stack(s, self.N)[0] for s in stacks]
        out = self._run(_sweep_job, stacks, lt, self.batched)
        return [_joined([o[i][0] for o in out], out[0][i][1]) for i in range(len(stacks))]

    def logdet(self) -> float:
        """Global ``log det A`` (one Allreduce round; cached)."""
        if self._logdet is None:
            self._logdet = self._run(_logdet_job, self.batched)[0]
        return self._logdet

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``A x = rhs`` (vector ``(N,)`` or columns ``(N, k)``)."""
        rhs = np.asarray(rhs, dtype=np.float64)
        (x,) = self._sweep([rhs.T], lt=False)
        return x[0] if rhs.ndim == 1 else np.ascontiguousarray(x.T)

    def solve_stack(self, rhs_stack: np.ndarray) -> np.ndarray:
        """Row-major ``(k, N)`` stack: one collective round for the lot."""
        stack, squeeze = as_rhs_stack(rhs_stack, self.N)
        (x,) = self._sweep([stack], lt=False)
        return x[0] if squeeze else x

    def solve_lt_stack(self, rhs_stack: np.ndarray) -> np.ndarray:
        """Backward-only ``L^T`` solve for a ``(k, N)`` stack.

        ``L`` is the nested-dissection factor of the permuted matrix, so
        individual solutions differ from the sequential ``pobtas_lt`` —
        but ``x = L^{-T} z`` has covariance exactly ``A^{-1}``, which is
        the sampling contract (see
        :func:`repro.structured.d_pobtas.d_pobtas_lt`).  One Allgather
        round per stack.
        """
        stack, squeeze = as_rhs_stack(rhs_stack, self.N)
        (x,) = self._sweep([stack], lt=True)
        return x[0] if squeeze else x

    def solve_stack_lanes(self, stacks: list) -> list:
        """Solve several ``(k_i, N)`` stacks with ONE collective round.

        All lanes share a single Allreduce + Allgather
        (:func:`repro.structured.d_pobtas.d_pobtas_lanes`); each lane's
        sweeps run at its exact width, so the per-lane results are
        bit-identical to separate :meth:`solve_stack` calls.
        """
        return self._sweep(stacks, lt=False)

    def solve_lt_stack_lanes(self, stacks: list) -> list:
        """Backward-only lane solves, one Allgather round for the lot."""
        return self._sweep(stacks, lt=True)

    def selected_inverse_diagonal(self) -> np.ndarray:
        """Diagonal of ``A^{-1}`` (communication-free per rank; cached).

        Each rank runs the carry-based diagonal-only recursion
        (:func:`repro.structured.d_pobtasi.d_pobtasi_diag`) — bit-identical
        values to the full per-rank selected inversion without
        materializing any inverse block slice.
        """
        if self._selinv_diag is None:
            out = self._run(_selinv_job, self.batched)
            self._selinv_diag = _joined([o[0] for o in out], out[0][1])
        return self._selinv_diag.copy()

    def solve_and_selected_inverse_diagonal(self, rhs: np.ndarray) -> tuple:
        """``(x, var)`` from one SPMD epoch over the stored factors."""
        rhs = np.asarray(rhs, dtype=np.float64)
        stack, _ = as_rhs_stack(rhs.T, self.N)
        out = self._run(_solve_and_selinv_job, stack, self.batched)
        x = _joined([o[0] for o in out], out[0][1])
        var = _joined([o[2] for o in out], out[0][3])
        if self._selinv_diag is None:
            self._selinv_diag = var.copy()
        return (x[0] if rhs.ndim == 1 else np.ascontiguousarray(x.T)), var

    def sample(self, k: int, rng: np.random.Generator, *, mean: np.ndarray | None = None):
        """``k`` exact draws from ``N(mean, A^{-1})``, row-major ``(k, N)``."""
        if k < 1:
            raise ValueError(f"need k >= 1 samples, got {k}")
        z = rng.standard_normal((k, self.N))
        x = self.solve_lt_stack(z)
        if mean is not None:
            x += np.asarray(mean, dtype=np.float64)[None, :]
        return x

    def close(self) -> None:
        """Release the worker processes (idempotent; no-op for thread ranks)."""
        if self._session is not None:
            self._session.close()

    def __enter__(self) -> "DistributedBTAFactor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass(frozen=True)
class NPDJitterPolicy:
    """Opt-in escalating diagonal-jitter recovery for non-SPD matrices.

    When a factorization hits :class:`NotPositiveDefiniteError`, the
    recovery chain retries on a *fresh copy* of the pristine input with
    ``eps * scale`` added to every diagonal entry (``scale`` = mean
    absolute diagonal entry of the input), escalating ``eps`` from
    ``initial`` by ``growth`` per rung for at most ``max_tries`` rungs.
    A success reports the absolute jitter on the handle
    (``applied_jitter``) and warns (:class:`NPDJitterWarning`) — never
    silent.  Exhausting the rungs re-raises the final
    ``NotPositiveDefiniteError``.
    """

    initial: float = 1e-8
    growth: float = 100.0
    max_tries: int = 4

    def __post_init__(self) -> None:
        if self.initial <= 0:
            raise ValueError(f"initial jitter must be positive, got {self.initial}")
        if self.growth <= 1:
            raise ValueError(f"growth must be > 1, got {self.growth}")
        if self.max_tries < 1:
            raise ValueError(f"max_tries must be >= 1, got {self.max_tries}")

    def rungs(self):
        eps = self.initial
        for _ in range(self.max_tries):
            yield eps
            eps *= self.growth


def _resolve_jitter(jitter) -> NPDJitterPolicy | None:
    if jitter is None or jitter is False:
        return None
    if jitter is True:
        return NPDJitterPolicy()
    if not isinstance(jitter, NPDJitterPolicy):
        raise TypeError(f"jitter must be None, bool, or NPDJitterPolicy, got {jitter!r}")
    return jitter


def _diag_scale(A: BTAMatrix) -> float:
    """Mean absolute diagonal entry — the jitter's relative unit."""
    total = float(abs(A.diag.diagonal(axis1=1, axis2=2)).sum())
    count = A.n * A.b
    if A.a:
        total += float(abs(A.tip.diagonal()).sum())
        count += A.a
    scale = total / count
    return scale if scale > 0 else 1.0


def _with_diag_jitter(A: BTAMatrix, amount: float) -> BTAMatrix:
    """A fresh copy of ``A`` with ``amount`` added to every diagonal entry."""
    Aj = A.copy()
    ib = np.arange(A.b)
    Aj.diag[:, ib, ib] += amount
    if A.a:
        ia = np.arange(A.a)
        Aj.tip[ia, ia] += amount
    return Aj


def factorize(
    A: BTAMatrix,
    *,
    overwrite: bool = False,
    batched: bool | None = None,
    jitter: bool | NPDJitterPolicy | None = None,
) -> BTAFactor:
    """Factorize ``A = L L^T`` and return the sequential handle.

    ``overwrite=True`` reuses ``A``'s storage for the factor (the
    caller's matrix is destroyed) — the memory-lean mode of the INLA
    objective, where precision matrices are rebuilt every evaluation.

    ``jitter`` opts into the audited NPD recovery chain (``True`` for the
    default :class:`NPDJitterPolicy`, or a custom policy).  A matrix that
    factorizes cleanly is returned bit-identically to the ``jitter=None``
    path — recovery never changes the bits of a successful result — and a
    recovered factorization reports the added diagonal on the handle's
    ``applied_jitter`` and via :class:`NPDJitterWarning`.  With jitter
    active the first attempt never overwrites the caller's matrix (the
    pristine values seed every retry); ``overwrite=True`` then only
    grants permission to drop the input after the outcome is decided.
    """
    policy = _resolve_jitter(jitter)
    if policy is None:
        return BTAFactor(chol=pobtaf(A, overwrite=overwrite, batched=batched), batched=batched)
    try:
        # Never in place: a mid-factorization NPD abort would corrupt the
        # pristine values every recovery rung must start from.
        return BTAFactor(chol=pobtaf(A, overwrite=False, batched=batched), batched=batched)
    except NotPositiveDefiniteError:
        pass
    scale = _diag_scale(A)
    last_exc: NotPositiveDefiniteError | None = None
    for eps in policy.rungs():
        amount = eps * scale
        try:
            chol = pobtaf(_with_diag_jitter(A, amount), overwrite=True, batched=batched)
        except NotPositiveDefiniteError as exc:
            last_exc = exc
            continue
        warnings.warn(
            f"factorization succeeded only after adding {amount:.3e} "
            f"(= {eps:.1e} x mean |diag|) to the diagonal",
            NPDJitterWarning,
            stacklevel=2,
        )
        return BTAFactor(chol=chol, batched=batched, applied_jitter=amount)
    raise NotPositiveDefiniteError(
        f"matrix is not positive definite even after {policy.max_tries} "
        f"diagonal jitter attempts up to {eps * scale:.3e}"
    ) from last_exc


def d_factorize(
    A: BTAMatrix, P: int, *, lb: float = 1.6, batched: bool | None = None
) -> DistributedBTAFactor:
    """Distributed factorization over ``P`` SPMD thread ranks, returning the handle.

    One collective ``d_pobtaf`` epoch; the per-rank factors (and the
    shared reduced-system factor) persist on the handle for
    every later solve / selected-inversion / sampling round.  The global
    log-determinant is computed in the same epoch — it costs one scalar
    Allreduce against the already-synchronized ranks — and cached.
    """
    if P < 1:
        raise ValueError(f"P must be >= 1, got {P}")
    out = _run_spd(run_spmd, P, _factorize_job, partition_matrix(A, P, lb=lb), batched)
    return DistributedBTAFactor(
        shape3=A.shape3,
        factors=[o[0] for o in out],
        batched=batched,
        _logdet=out[0][1],
    )


def d_factorize_proc(
    A: BTAMatrix,
    P: int,
    *,
    lb: float = 1.6,
    batched: bool | None = None,
    start_method: str | None = None,
) -> DistributedBTAFactor:
    """Distributed factorization over ``P`` persistent worker *processes*.

    Same handle and results as :func:`d_factorize`, but each rank is an OS
    process holding its factor slices in its own address space, talking
    through a :class:`~repro.comm.shm.ShmComm` shared-memory segment, and
    only right-hand sides and results cross process boundaries.  Close
    the handle (or use it as a context manager) when done.
    """
    if P < 1:
        raise ValueError(f"P must be >= 1, got {P}")
    slices = partition_matrix(A, P, lb=lb)
    session = SpmdSession(P, start_method=start_method)
    try:
        # warmup=True: the session replays this epoch after a respawn,
        # rebuilding every rank's resident factor slices before any
        # retried solve epoch touches the worker_store.
        out = _run_spd(session.run, _resident_factorize_job, slices, batched, warmup=True)
    except BaseException:
        session.close()
        raise
    return DistributedBTAFactor(
        shape3=A.shape3, factors=None, batched=batched, _logdet=out[0], _session=session
    )
