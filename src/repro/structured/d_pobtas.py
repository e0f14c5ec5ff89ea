"""``d_pobtas`` — distributed triangular solve (the paper's P POBTAS).

Serinv ships distributed factorization and selected inversion but *not* a
distributed triangular solve; the paper contributes this routine
(Sec. IV-E) using the same nested-dissection scheme as ``d_pobtaf``:

1. every rank forward-eliminates its interior right-hand-side entries,
   accumulating updates onto its boundary entries and a tip delta;
2. tip deltas are summed with an ``Allreduce``, boundary entries are
   ``Allgather``-ed into the reduced right-hand side;
3. the reduced BTA system is solved redundantly with the sequential
   ``pobtas``;
4. every rank back-substitutes its interior using the boundary solutions.

The routine is roughly an order of magnitude cheaper than factorization
(``O(n b^2)`` vs ``O(n b^3)`` per right-hand side), which is why the paper
observes it reacts *worse* to load balancing tuned for the ``b^3`` kernels
(Fig. 5 discussion).

On the batched path the interior sweeps run as GEMMs against the cached
``L[j,j]^{-1}`` stack, and every update that targets a *fixed* entry (the
tip delta, the top-boundary fill accumulation, and the back-propagation of
the boundary/tip solutions) is hoisted out of the loop-carried chain into
one batched ``einsum``/GEMM over the whole interior stack.

Every distributed sweep runs through one body, :func:`d_pobtas_lanes`:
it carries any number of independent right-hand-side panels ("lanes")
through one collective round.  :func:`d_pobtas` and the backward-only
:func:`d_pobtas_lt` are its one-lane case; the factor handle's stacked
and multi-lane solves are its row-major clients.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from repro.backend.array_module import batched_enabled
from repro.comm.communicator import Communicator
from repro.structured import batched as bk
from repro.structured.d_pobtaf import DistributedFactors
from repro.structured.kernels import solve_lower, solve_lower_t
from repro.structured.pobtas import pobtas, pobtas_lt


def _forward_blocked(factors: DistributedFactors, rb, tip_delta, a: int, m: int) -> None:
    if factors.part.is_first:
        for i in range(m):
            rb[i] = solve_lower(factors.ldiag[i], rb[i])
            rb[i + 1] -= factors.lnext[i] @ rb[i]
            if a:
                tip_delta -= factors.larrow[i] @ rb[i]
    else:
        for i in range(m):
            j = i + 1  # local index of the interior block
            rb[j] = solve_lower(factors.ldiag[i], rb[j])
            rb[j + 1] -= factors.lnext[i] @ rb[j]
            rb[0] -= factors.lfill[i] @ rb[j]
            if a:
                tip_delta -= factors.larrow[i] @ rb[j]


def _forward_batched(factors: DistributedFactors, rb, tip_delta, a: int, m: int) -> None:
    inv = factors.ldiag_inverses()
    first = factors.part.is_first
    off = 0 if first else 1  # interiors live at rb[off : off + m]
    for i in range(m):
        j = i + off
        rb[j] = inv[i] @ rb[j]
        rb[j + 1] -= factors.lnext[i] @ rb[j]
    solved = rb[off : off + m]
    if not first and m:
        # Fill-column accumulation onto the (fixed) top boundary entry:
        # one batched contraction over the whole solved interior stack.
        rb[0] -= np.einsum("ibc,ick->bk", factors.lfill, solved)
    if a and m:
        tip_delta -= np.einsum("iab,ibk->ak", factors.larrow, solved)


def _backward_blocked(factors: DistributedFactors, x, x_tip, a: int, m: int) -> None:
    if factors.part.is_first:
        for i in range(m - 1, -1, -1):
            acc = x[i] - factors.lnext[i].T @ x[i + 1]
            if a:
                acc -= factors.larrow[i].T @ x_tip
            x[i] = solve_lower_t(factors.ldiag[i], acc)
    else:
        for i in range(m - 1, -1, -1):
            j = i + 1
            acc = x[j] - factors.lnext[i].T @ x[j + 1] - factors.lfill[i].T @ x[0]
            if a:
                acc -= factors.larrow[i].T @ x_tip
            x[j] = solve_lower_t(factors.ldiag[i], acc)


def _backward_batched(factors: DistributedFactors, x, x_tip, a: int, m: int) -> None:
    inv_t = factors.ldiag_inverses().transpose(0, 2, 1)
    first = factors.part.is_first
    off = 0 if first else 1
    if m == 0:
        return
    interior = x[off : off + m]
    # The boundary/tip solutions are fixed during the backward sweep, so
    # their propagation into the interior batches across the whole stack.
    if a:
        interior -= bk.batched_gemm(
            factors.larrow.transpose(0, 2, 1), x_tip[None, :, :]
        )
    if not first:
        interior -= bk.batched_gemm(
            factors.lfill.transpose(0, 2, 1), x[0][None, :, :]
        )
    for i in range(m - 1, -1, -1):
        j = i + off
        x[j] = inv_t[i] @ (x[j] - factors.lnext[i].T @ x[j + 1])


def d_pobtas(
    factors: DistributedFactors,
    rhs_local: np.ndarray,
    rhs_tip: np.ndarray,
    comm: Communicator,
    *,
    batched: bool | None = None,
) -> tuple:
    """Solve ``A x = rhs`` with distributed factors (collective over ``comm``).

    Parameters
    ----------
    factors:
        This rank's :class:`DistributedFactors` from ``d_pobtaf``.
    rhs_local:
        This rank's slice of the right-hand side, shape ``(nl * b,)`` or
        ``(nl * b, k)`` where ``nl`` is the partition's block count.
    rhs_tip:
        The arrow-tip right-hand side, replicated on every rank,
        shape ``(a,)`` or ``(a, k)``.
    batched:
        Force the batched (True) or per-block reference (False) path;
        None consults the ``REPRO_BATCHED`` environment switch.

    Returns
    -------
    (x_local, x_tip):
        This rank's solution slice (same shape as ``rhs_local``) and the
        tip solution (identical on every rank).
    """
    return _one_lane(factors, rhs_local, rhs_tip, comm, lt=False, batched=batched)


def d_pobtas_lt(
    factors: DistributedFactors,
    rhs_local: np.ndarray,
    rhs_tip: np.ndarray,
    comm: Communicator,
    *,
    batched: bool | None = None,
) -> tuple:
    """Backward-only distributed solve ``L^T x = rhs`` (collective).

    The distributed sampling primitive (paper's S3-scale analogue of
    :func:`repro.structured.pobtas.pobtas_lt`): with ``z ~ N(0, I)`` the
    solution ``x = L^{-T} z`` is an exact draw from ``N(0, A^{-1})``.
    Here ``L`` is the *nested-dissection* Cholesky factor of the
    symmetrically permuted matrix (interiors first, boundaries last), so
    the solution differs sample-by-sample from the sequential
    ``pobtas_lt`` — but its covariance is exactly ``A^{-1}``, which is the
    sampling contract (``x^T A x = z^T z`` holds identically; see
    ``tests/structured/test_distributed_lt.py``).

    The sweep needs a single ``Allgather`` (of the boundary right-hand
    sides) per call — one collective round for a whole ``(nl b, k)``
    stack: in the permuted ordering ``L^T`` is upper-triangular with the
    boundary block last, so the reduced system solves first
    (redundantly, via the sequential ``pobtas_lt``) and the interiors
    back-substitute without further communication.

    Parameters mirror :func:`d_pobtas`; returns ``(x_local, x_tip)``.
    """
    return _one_lane(factors, rhs_local, rhs_tip, comm, lt=True, batched=batched)


def _one_lane(factors, rhs_local, rhs_tip, comm, *, lt: bool, batched) -> tuple:
    """A vector or ``(nl b, k)`` panel through :func:`d_pobtas_lanes`."""
    rhs_local = np.asarray(rhs_local, dtype=np.float64)
    nl_b = factors.part.n_blocks * factors.b
    if rhs_local.shape[0] != nl_b:
        raise ValueError(f"rhs_local leading dim {rhs_local.shape[0]} != {nl_b}")
    ((x_local, x_tip),) = d_pobtas_lanes(
        factors, [rhs_local.reshape(nl_b, -1)], [rhs_tip], comm, lt=lt, batched=batched
    )
    if rhs_local.ndim == 1:
        return x_local[:, 0], x_tip[:, 0]
    return x_local, x_tip


def d_pobtas_lanes(
    factors: DistributedFactors,
    rhs_locals: list,
    rhs_tips: list,
    comm: Communicator,
    *,
    lt: bool = False,
    batched: bool | None = None,
) -> list:
    """Distributed solve of several independent panels ("lanes") at once.

    ``rhs_locals[i]`` is this rank's ``(nl b, k_i)`` slice of lane ``i``
    and ``rhs_tips[i]`` its replicated ``(a, k_i)`` tip block.  Every
    lane's interior sweeps and reduced-system solve run at the lane's own
    width, on a C-ordered copy of its panel — the GEMM shapes, and so the
    bits, of a lane never depend on its neighbours (the collectives are
    element-wise or concatenating).  The collectives fire ONCE for the
    whole lane set:

    1. (``A x = rhs`` only) every rank forward-eliminates its interiors,
       accumulating updates onto its boundary entries and a tip delta,
       and the tip deltas are summed with one ``Allreduce`` — made even
       when ``a = 0``, so every rank runs the same schedule;
    2. the boundary entries are ``Allgather``-ed into the reduced
       right-hand side;
    3. the reduced system is solved redundantly with the sequential
       ``pobtas`` — or ``pobtas_lt`` for ``lt=True``, the backward-only
       ``L^T x = rhs`` sweep of :func:`d_pobtas_lt`, which skips step 1;
    4. every rank back-substitutes its interiors.

    Returns ``[(x_local, x_tip), ...]`` in lane order, shapes
    ``(nl b, k_i)`` and ``(a, k_i)``.
    """
    part, b, a = factors.part, factors.b, factors.a
    nl = part.n_blocks
    m = factors.n_interior
    use_batched = batched_enabled(batched)
    if len(rhs_tips) != len(rhs_locals):
        raise ValueError("need one tip block per lane")

    rbs, rts = [], []
    for loc, tip in zip(rhs_locals, rhs_tips):
        loc = np.asarray(loc, dtype=np.float64)
        if loc.ndim != 2 or loc.shape[0] != nl * b:
            raise ValueError(f"lane panel must be ({nl * b}, k), got {loc.shape}")
        k = loc.shape[1]
        rbs.append(np.array(loc, order="C", copy=True).reshape(nl, b, k))
        rts.append(np.asarray(tip, dtype=np.float64).reshape(a, k) if a else np.zeros((0, k)))
    offs = list(accumulate((rb.shape[-1] for rb in rbs), initial=0))

    if not lt:
        forward = _forward_batched if use_batched else _forward_blocked
        deltas = []
        for rb in rbs:
            delta = np.zeros((a, rb.shape[-1]))
            forward(factors, rb, delta, a, m)
            deltas.append(delta)
        tip_sum = comm.Allreduce(np.concatenate(deltas, axis=1))
        rts = [rt + tip_sum[:, lo:hi] for rt, lo, hi in zip(rts, offs[:-1], offs[1:])]

    gathered = comm.Allgather(np.concatenate([_boundary_panels(factors, rb) for rb in rbs], axis=1))

    reduced_solve = pobtas_lt if lt else pobtas
    backward = _backward_batched if use_batched else _backward_blocked
    out = []
    for rb, rt, lo, hi in zip(rbs, rts, offs[:-1], offs[1:]):
        r_red = _reduced_from_gathered(factors, [g[:, lo:hi] for g in gathered], rt, hi - lo)
        x_red = reduced_solve(factors.reduced_chol, r_red, batched=use_batched)
        # Solve in place; the boundary slots receive the reduced solution.
        x_tip = _scatter_reduced_solution(factors, rb, x_red)
        backward(factors, rb, x_tip, a, m)
        out.append((rb.reshape(nl * b, -1), x_tip))
    return out


def _boundary_panels(factors: DistributedFactors, rb: np.ndarray) -> np.ndarray:
    """This rank's boundary rows of ``rb`` (the Allgather payload)."""
    pos_top, pos_bottom = factors.positions
    if pos_top is None or pos_top == pos_bottom:
        return rb[-1]
    return np.concatenate([rb[0], rb[-1]], axis=0)


def _reduced_from_gathered(
    factors: DistributedFactors, gathered: list, rt: np.ndarray, k: int
) -> np.ndarray:
    """Scatter gathered boundary pieces into the ``(mr b + a, k)`` reduced RHS."""
    b, a = factors.b, factors.a
    mr = factors.reduced.m
    r_red = np.zeros((mr * b + a, k))
    for p, piece in enumerate(gathered):
        top, bottom = factors.reduced.positions[p]
        if top is None or top == bottom:
            r_red[bottom * b : (bottom + 1) * b] = piece
        else:
            r_red[top * b : (top + 1) * b] = piece[:b]
            r_red[bottom * b : (bottom + 1) * b] = piece[b:]
    if a:
        r_red[mr * b :] = rt
    return r_red


def _scatter_reduced_solution(
    factors: DistributedFactors, x: np.ndarray, x_red: np.ndarray
) -> np.ndarray:
    """Place this rank's boundary slots from the reduced solution.

    Writes the top/bottom boundary panels of ``x`` in place and returns
    the ``(a, k)`` tip solution (identical on every rank).
    """
    b = factors.b
    pos_top, pos_bottom = factors.positions
    if pos_top is not None:
        x[0] = x_red[pos_top * b : (pos_top + 1) * b]
    x[-1] = x_red[pos_bottom * b : (pos_bottom + 1) * b]
    return x_red[factors.reduced.m * b :]
