"""Model assembly: from ``theta`` to the permuted BTA systems.

:class:`CoregionalSTModel` owns everything that is *fixed* across
objective evaluations — meshes, FEM matrices, design matrices, sparsity
patterns, the BT/BTA-recovering permutation plan, and the sparse-to-dense
block mappings — and exposes :meth:`assemble`, which performs only the
``O(nnz)`` per-``theta`` work (paper Sec. IV-B1/IV-F):

1. univariate SPDE precisions ``Q_k(theta)`` (fixed effects appended),
2. LMC joint precision ``Q_nv`` via Eq. 11,
3. conditional precision ``Q_c = Q_nv + A^T D A``,
4. permutation to time-major order,
5. scatter into densified BTA block stacks.

Assembly is split **symbolic-once / numeric-per-theta**, mirroring the
structure-reuse argument the paper makes for the BTA solver itself: every
precision matrix is a fixed-pattern linear combination of
hyperparameter-independent sparse bases (the ``M_i (x) {C, G, H2, H3}``
Kronecker terms of each SPDE, the fixed-effect prior diagonal, and the
per-response observation Grams), mixed by per-theta *scalars* (the SPDE
term coefficients and the LMC block coefficients of Eq. 11).
:class:`SymbolicAssembly` resolves, at model construction, every basis
entry to its slot in the union pattern and fuses the
align -> permute -> BTA-densify index chain into one composed gather —
so the per-theta numeric phase is a handful of vectorized
multiply-accumulate passes plus one fancy-indexed scatter per block
stack, with **zero scipy sparse arithmetic**.  :meth:`assemble` is the
``t = 1`` case of the theta-batched :meth:`assemble_batch`, which fills
whole gradient-stencil stacks at once (the feed of
:func:`repro.structured.multifactor.factorize_batch`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

from repro.backend.protocol import NUMPY_BACKEND, Backend
from repro.coreg.lmc import CoregionalizationModel
from repro.coreg.permute import CoregionalPermutation
from repro.meshes.mesh2d import Mesh2D
from repro.meshes.temporal import TemporalMesh
from repro.model.design import joint_design, process_design
from repro.model.layout import ThetaLayout
from repro.model.likelihood import GaussianLikelihood
from repro.sparse.align import PatternAligner, canonical_csr
from repro.sparse.mapping import BTAMapping, BTAScatter
from repro.spde.matern import spatial_operator_bases
from repro.spde.priors import PriorCollection
from repro.spde.spatiotemporal import SpatioTemporalSPDE
from repro.structured.bta import BTAMatrix, BTAShape, BTAStack
from repro.structured.kernels import NotPositiveDefiniteError
from repro.structured.multifactor import factorize_batch


@dataclass(frozen=True)
class ResponseData:
    """Observations of one response variable."""

    coords: np.ndarray  # (m_v, 2) station locations
    time_idx: np.ndarray  # (m_v,) time-knot indices
    covariates: np.ndarray  # (m_v, nr) fixed-effect covariates
    y: np.ndarray  # (m_v,) measurements

    def __post_init__(self):
        m = self.coords.shape[0]
        if self.time_idx.shape != (m,) or self.y.shape != (m,):
            raise ValueError("coords, time_idx and y must agree in length")
        if self.covariates.ndim != 2 or self.covariates.shape[0] != m:
            raise ValueError("covariates must be (m, nr)")

    @property
    def m(self) -> int:
        return self.coords.shape[0]

    @property
    def nr(self) -> int:
        return self.covariates.shape[1]


@dataclass
class AssembledSystem:
    """Per-``theta`` output of :meth:`CoregionalSTModel.assemble`.

    The prior's BTA blocks (:attr:`qp`) are scattered on first access:
    the objective reads only ``qp_csr`` (the quadratic form) and takes
    ``log|Qp|`` from :meth:`CoregionalSTModel.prior_logdets`, so an
    evaluation never pays the scatter.
    """

    theta: np.ndarray
    qc: BTAMatrix | None  # conditional precision, time-major BTA blocks
    qp_csr: sp.csr_matrix  # permuted sparse prior (kept for cheap matvecs)
    rhs: np.ndarray  # permuted information vector A^T D y
    taus: np.ndarray  # observation noise precisions
    _qp: BTAMatrix | Callable[[], BTAMatrix] | None = field(default=None, repr=False)

    @property
    def qp(self) -> BTAMatrix | None:
        """Prior precision, time-major BTA blocks (scattered on first access)."""
        if callable(self._qp):
            self._qp = self._qp()
        return self._qp


class SymbolicAssembly:
    """Symbolic phase of assembly, computed once per model.

    Owns, for the union prior/conditional patterns fixed at construction:

    - per-basis **slot matrices**: for each of the ``9 nv`` SPDE
      Kronecker bases plus the fixed-effect diagonal, the aligned-pattern
      slots of its entries in *every* LMC block ``(v, w)`` (one 2-D
      fancy index covers all blocks of a basis at once),
    - the **prior -> conditional slot map** and the per-response
      observation-Gram slots (``Qc = Qp + sum_v tau_v Gram_v`` becomes
      one gather plus ``nv`` axpys),
    - the **fused scatters**: the ``PatternAligner`` slots, the
      permutation plan's data order and the ``BTAMapping`` destinations
      composed into one gather per block stack
      (:meth:`repro.sparse.mapping.BTAMapping.composed`),
    - the fixed right-hand-side basis ``g_v = A^T 1_v y`` so the
      information vector is ``sum_v tau_v g_v``.

    The numeric phase (:meth:`coefficients` + :meth:`values`) is pure
    elementwise array arithmetic — identical operations for ``t = 1``
    and any batch size, which is what makes the looped and batched
    assembly paths bit-identical.
    """

    def __init__(self, model: "CoregionalSTModel"):
        nv, stride, N = model.nv, model.dim_process, model.N
        self.nv = nv
        self.nr = model.nr
        self.N = N
        self.eps_fixed = model.eps_fixed
        align_p, align_c = model._align_p, model._align_c
        self.nnz_p = align_p.nnz
        self.nnz_c = align_c.nnz

        # -- prior terms: factored Kronecker evaluation ----------------------
        # Two structural facts collapse the per-theta term work.  First,
        # Eq. 11: every process shares the same bases, so per-process
        # precision *values* ``P_k`` are built once per theta and the
        # joint blocks are scalar mixes ``Q[v, w] = sum_k B_vwk P_k``
        # written straight into their aligned slots — one assignment pass
        # over the joint data array.  Second, the Kronecker structure:
        # ``P_k = sum_i M_i (x) s_i(theta_k)`` with tiny spatial
        # combinations ``s_i = sum_j c_ij S_j`` (dense on the spatial
        # union pattern), so the per-process values are a broadcasted
        # temporal-by-spatial outer product instead of per-term scatters
        # over the full ``nt``-fold pattern.
        spde = model.spde
        spatial = spatial_operator_bases((spde.C, spde.G))  # C, G, H2, H3
        temporal = (spde.M0, spde.M1, spde.M2)
        s_union = _union_pattern(spatial)
        t_union = _union_pattern(temporal)
        s_aligner = PatternAligner(s_union)
        t_aligner = PatternAligner(t_union)
        self.nnz_s = s_union.nnz
        self._ntt = t_union.nnz
        self._spatial_dense = np.zeros((len(spatial), self.nnz_s))
        for row, S in zip(self._spatial_dense, spatial):
            S = canonical_csr(S)
            row[s_aligner.slots_for(S)] = S.data
        self._temporal_dense = np.zeros((len(temporal), self._ntt))
        for row, T in zip(self._temporal_dense, temporal):
            T = canonical_csr(T)
            row[t_aligner.slots_for(T)] = T.data
        self.n_basis = 10  # 9 Kronecker terms + fixed-effect diagonal
        # The 9 coefficients of `term_coefficient_stack` arranged as a
        # (temporal group, spatial basis) incidence: row 0 = M2 over
        # (C, G), row 1 = M1 over (C, G, H2), row 2 = M0 over all four.
        self._coeff_map = np.array([0, 1, 4, 5, 6, 8, 9, 10, 11])
        # Temporal mix columns in group order (M2, M1, M0) so
        # ``P_st = T_mix @ (cmat @ spatial_dense)`` per process/theta.
        m0d, m1d, m2d = self._temporal_dense
        self._temporal_mix = np.ascontiguousarray(np.stack([m2d, m1d, m0d], axis=1))

        # Block slot layout: the spatio-temporal entries in
        # (temporal entry, spatial entry) order, the fixed-effect
        # diagonal separately.  ``nnz_u`` entries per process block.
        self.nnz_u = self._ntt * self.nnz_s + model.nr
        t_rows = np.repeat(np.arange(t_union.shape[0]), np.diff(t_union.indptr))
        t_cols = t_union.indices
        s_rows = np.repeat(np.arange(s_union.shape[0]), np.diff(s_union.indptr))
        s_cols = s_union.indices
        ns = model.ns
        st_rows = (t_rows[:, None] * ns + s_rows[None, :]).ravel()
        st_cols = (t_cols[:, None] * ns + s_cols[None, :]).ravel()
        # Kept for the univariate prior scatter (built lazily on first use).
        self._ns, self._nt = ns, model.nt
        self._t_entries = (t_rows, t_cols)
        self._s_entries = (s_rows, s_cols)
        self._uni_scatter: BTAScatter | None = None
        fixed = np.arange(model.nr) + spde.dim
        self._eps_ones = np.ones(model.nr)
        self._block_slots_st = []
        self._block_slots_eps = []
        for v in range(nv):
            for w in range(nv):
                self._block_slots_st.append(
                    align_p.slots_of(v * stride + st_rows, w * stride + st_cols)
                )
                self._block_slots_eps.append(
                    align_p.slots_of(v * stride + fixed, w * stride + fixed)
                )
        # Every joint block of the reference pattern carries the full
        # union pattern, so the block writes cover every aligned slot
        # exactly once and `prior_values` can assign into uninitialized
        # storage; fall back to zero-initialization if a future pattern
        # change ever breaks the cover.
        self._full_cover = nv * nv * self.nnz_u == self.nnz_p

        # -- conditional composition ----------------------------------------
        self._p2c = align_c.slots_for(align_p.pattern)
        self._gram_slots = [align_c.slots_for(g) for g in model._grams]
        self._gram_vals = [g.data.copy() for g in model._grams]

        # -- fused align -> permute -> densify scatters ---------------------
        order_p, indptr_p, indices_p = model._perm_p.perm.plan_arrays()
        order_c, _, _ = model._perm_c.perm.plan_arrays()
        self.scatter_p = model._map_p.composed(order_p)
        self.scatter_c = model._map_c.composed(order_c)
        self._order_p = order_p
        self._qp_csr_pattern = (indptr_p, indices_p, (N, N))
        self._quad_rows: np.ndarray | None = None  # COO rows, built lazily

        # -- right-hand side -------------------------------------------------
        y, resp = model.likelihood.y, model.likelihood.response_of
        self._rhs_basis = np.stack(
            [np.asarray(model.A.T @ np.where(resp == v, y, 0.0)).ravel() for v in range(nv)]
        )
        self._vec_perm = model.permutation.perm.perm

        # -- non-Gaussian curvature plan (built lazily on first use) ---------
        self._A_csr = sp.csr_matrix(model.A)
        self._align_c_obj = align_c
        self._curvature: CurvaturePlan | None = None

        # -- theta -> scalar coefficients ------------------------------------
        self._layout = model.layout
        self._spde = model.spde
        self._coreg = model.coreg
        self._range_cols = np.array(
            [[model.layout.range_slice(v).start + i for i in (0, 1)] for v in range(nv)]
        )

    # -- accounting ---------------------------------------------------------

    @property
    def gram_nnz(self) -> int:
        """Total observation-Gram entries added per theta for ``Qc``."""
        return int(sum(v.size for v in self._gram_vals))

    @property
    def ntt(self) -> int:
        """Entries of the temporal union pattern (``<= 3 nt - 2``)."""
        return self._ntt

    def flops(self, n_theta: int = 1) -> float:
        """Modeled numeric-phase flops for an ``n_theta`` batch."""
        from repro.perfmodel.flops import bta_assembly_flops

        return bta_assembly_flops(
            self.nv, self._ntt, self.nnz_s, self.nnz_u, self.gram_nnz, self.N, n_theta
        )

    def bytes_moved(self, n_theta: int = 1) -> float:
        """Modeled scatter traffic for an ``n_theta`` batch."""
        from repro.perfmodel.flops import bta_assembly_bytes

        return bta_assembly_bytes(self.nnz_p, self.nnz_c, n_theta)

    # -- numeric phase -------------------------------------------------------

    def coefficients(
        self, thetas: np.ndarray, *, backend: Backend | None = None
    ) -> tuple:
        """Per-theta scalar coefficients ``(taus, c, B, feasible)``.

        ``thetas`` is a ``(t, dim)`` stack.  ``c[i, k, j]`` is the
        coefficient of basis ``j`` in process ``k``'s precision and
        ``B[i, v, w, k]`` the Eq. 11 mixing scalar of process ``k`` in
        joint block ``(v, w)`` at stencil point ``i``.  Infeasible points
        (any configuration for which the sparse reference assembly
        raises) are flagged in ``feasible`` — the cheap screen the
        stencil batch applies before any value work.  All arithmetic is
        elementwise over the stack; scratch comes from ``backend``'s
        allocator hooks (host by default).
        """
        be = backend if backend is not None else NUMPY_BACKEND
        lay = self._layout
        thetas = np.asarray(thetas, dtype=np.float64)
        if thetas.ndim != 2 or thetas.shape[1] != lay.dim:
            raise ValueError(f"thetas must be (t, {lay.dim}), got {thetas.shape}")
        t, nv = thetas.shape[0], self.nv
        feasible = np.isfinite(thetas).all(axis=1)
        with np.errstate(all="ignore"):
            taus = np.exp(thetas[:, lay.tau_slice()])
            sigmas = np.exp(thetas[:, lay.sigma_slice()])
            ranges = np.exp(thetas[:, self._range_cols])  # (t, nv, 2)
        lambdas = thetas[:, lay.lambda_slice()]

        # One elementwise evaluation covers all processes of all thetas.
        c = be.empty((t, nv, self.n_basis))
        c_st, ok = self._spde.term_coefficient_stack(ranges[:, :, 0], ranges[:, :, 1])
        c[:, :, :9] = c_st
        feasible &= ok.all(axis=1)
        c[:, :, 9] = self.eps_fixed
        B, ok_mix = self._coreg.block_coefficient_stack(
            np.where(feasible[:, None], sigmas, 1.0),
            np.where(feasible[:, None], lambdas, 0.0),
            backend=be,
        )
        feasible &= ok_mix
        return taus, c, B, feasible

    def process_values(self, c: np.ndarray, *, backend: Backend | None = None) -> np.ndarray:
        """Unit-variance per-process SPDE values ``(t, p, ntt * nnz_s)``.

        ``c`` is a ``(t, p, >= 9)`` coefficient stack (the Kronecker term
        coefficients first).  Spatial combinations ``s_i = sum_j c_ij S_j``
        then the temporal outer product ``P_st = sum_i M_i (x) s_i`` — two
        stacked matmuls whose per-slice shape is independent of ``t`` and
        ``p`` (the same GEMM runs for every theta/process slice, so a
        length-1 stack stays bit-identical to any batch).  Entries are in
        (temporal entry, spatial entry) order.
        """
        be = backend if backend is not None else NUMPY_BACKEND
        t, p = c.shape[:2]
        cmat = be.zeros((t, p, 12))
        cmat[:, :, self._coeff_map] = c[:, :, :9]
        s = cmat.reshape(t, p, 3, 4) @ self._spatial_dense  # (t, p, 3, nnz_s)
        pst = self._temporal_mix @ s  # (t, p, ntt, nnz_s)
        return pst.reshape(t, p, -1)

    def univariate_stack(self, c_st: np.ndarray) -> BTAStack:
        """Process precisions ``Q_st`` as a BT stack ``(n=nt, b=ns, a=0)``.

        ``c_st`` is an ``(m, 9)`` stack of SPDE term coefficients.  Each
        ``Q_st`` is block-tridiagonal in time in its natural (time-major)
        order, so its values land in BTA blocks by index arithmetic on the
        temporal and spatial union patterns alone; the scatter is built on
        first use, so models that never ask pay nothing.
        """
        if self._uni_scatter is None:
            self._uni_scatter = self._build_univariate_scatter()
        pst = self.process_values(c_st[:, None, :])[:, 0]
        stack = BTAStack.zeros(self._uni_scatter.shape3, c_st.shape[0])
        self._uni_scatter.scatter_stacks(pst, stack.diag, stack.lower, None, None)
        return stack

    def _build_univariate_scatter(self) -> BTAScatter:
        ns, nnz_s = self._ns, self.nnz_s
        t_rows, t_cols = self._t_entries
        s_rows, s_cols = self._s_entries
        in_block = s_rows * ns + s_cols  # flat offset inside a (ns, ns) block

        def pairs(entries, block):
            src = (entries[:, None] * nnz_s + np.arange(nnz_s)).ravel()
            dst = (block[entries, None] * ns * ns + in_block).ravel()
            return dst, src

        # Diagonal blocks keep both triangles; sub-diagonal blocks are
        # (t+1, t); the mirrored super-diagonal entries are dropped.
        diag = pairs(np.flatnonzero(t_rows == t_cols), t_rows)
        lower = pairs(np.flatnonzero(t_rows == t_cols + 1), t_cols)
        none = (np.zeros(0, dtype=np.int64),) * 2
        return BTAScatter(BTAShape(n=self._nt, b=ns, a=0), diag, lower, none, none)

    def prior_values(
        self, c: np.ndarray, B: np.ndarray, *, backend: Backend | None = None
    ) -> np.ndarray:
        """Aligned prior data stack ``(t, nnz_p)`` from coefficient stacks.

        Fixed accumulation order throughout (bit-identical at any ``t``):
        tiny per-temporal-factor spatial combinations, one broadcasted
        temporal-by-spatial outer product per process, then per-block
        Eq. 11 mixes ``sum_k B[v, w, k] P[k]`` assigned straight into
        the aligned slots — the joint data array is written exactly once.
        """
        be = backend if backend is not None else NUMPY_BACKEND
        t, nv = c.shape[0], self.nv
        pst = self.process_values(c, backend=be)
        peps = c[:, :, 9, None] * self._eps_ones if self.nr else None

        out = (
            be.empty((t, self.nnz_p)) if self._full_cover else be.zeros((t, self.nnz_p))
        )
        for i in range(nv * nv):
            v, w = divmod(i, nv)
            acc = B[:, v, w, 0, None] * pst[:, 0]
            for k in range(1, nv):
                acc += B[:, v, w, k, None] * pst[:, k]
            out[:, self._block_slots_st[i]] = acc
            if self.nr:
                acc = B[:, v, w, 0, None] * peps[:, 0]
                for k in range(1, nv):
                    acc += B[:, v, w, k, None] * peps[:, k]
                out[:, self._block_slots_eps[i]] = acc
        return out

    def conditional_values(
        self, qp_values: np.ndarray, taus: np.ndarray, *, backend: Backend | None = None
    ) -> np.ndarray:
        """Aligned conditional data stack: ``Qc = Qp + sum_v tau_v Gram_v``."""
        be = backend if backend is not None else NUMPY_BACKEND
        qc = be.zeros((qp_values.shape[0], self.nnz_c))
        qc[:, self._p2c] = qp_values
        for v in range(self.nv):
            qc[:, self._gram_slots[v]] += taus[:, v, None] * self._gram_vals[v]
        return qc

    def rhs_values(self, taus: np.ndarray) -> np.ndarray:
        """Variable-major information vectors ``(t, N)``: ``sum_v tau_v g_v``."""
        rhs = taus[:, 0, None] * self._rhs_basis[0]
        for v in range(1, self.nv):
            rhs += taus[:, v, None] * self._rhs_basis[v]
        return rhs

    def values(
        self,
        c: np.ndarray,
        B: np.ndarray,
        taus: np.ndarray,
        *,
        backend: Backend | None = None,
    ) -> tuple:
        """The shared value-evaluation core: ``(qp, qc, rhs_var)`` stacks.

        ``qp``/``qc`` are aligned-pattern data stacks, ``rhs_var`` the
        un-permuted information vectors — consumed by the BTA paths
        (:meth:`CoregionalSTModel.assemble` / ``assemble_batch``) after
        the fused permute+scatter, and by the general-sparse baseline
        (:meth:`CoregionalSTModel.assemble_sparse`) as CSR data arrays.
        """
        qp = self.prior_values(c, B, backend=backend)
        return (
            qp,
            self.conditional_values(qp, taus, backend=backend),
            self.rhs_values(taus),
        )

    def permute_rhs(self, rhs_var: np.ndarray) -> np.ndarray:
        """Variable-major -> time-major gather on the last axis."""
        return rhs_var[..., self._vec_perm]

    def qp_quad_stack(self, qp_values: np.ndarray, mu_stack: np.ndarray) -> np.ndarray:
        """``mu_j^T Qp_j mu_j`` for a whole batch, one broadcasted pass.

        The stencil epilogue's quadrature: every theta shares the permuted
        sparse pattern and differs only in data, so the quadratic form is
        one elementwise triple product summed over entries — no per-theta
        CSR construction, no per-theta matvec loop.  Agrees with the
        per-point ``mu @ (qp_csr @ mu)`` to rounding (accumulation order).
        """
        indptr, indices, shape = self._qp_csr_pattern
        if self._quad_rows is None:
            self._quad_rows = np.repeat(np.arange(shape[0]), np.diff(indptr))
        data = qp_values[:, self._order_p]
        return np.einsum(
            "te,te,te->t", data, mu_stack[:, self._quad_rows], mu_stack[:, indices]
        )

    def qp_csr(self, qp_values_row: np.ndarray) -> sp.csr_matrix:
        """Permuted sparse prior from one aligned data row (cheap matvec form)."""
        return self.qp_csr_from_permuted(qp_values_row[self._order_p])

    def qp_csr_from_permuted(self, data_row: np.ndarray) -> sp.csr_matrix:
        """Permuted sparse prior from an already-permuted data row."""
        indptr, indices, shape = self._qp_csr_pattern
        return sp.csr_matrix((data_row, indices, indptr), shape=shape)

    def curvature(self) -> "CurvaturePlan":
        """The symbolic ``A^T D A`` plan for non-Gaussian Newton loops.

        Built on first use (Gaussian-only models never pay for it) and
        cached — the pattern work is per-model, the Newton hot loop only
        runs the plan's value passes.
        """
        if self._curvature is None:
            self._curvature = CurvaturePlan(self)
        return self._curvature


class CurvaturePlan:
    """Symbolic plan for the non-Gaussian curvature term ``A^T D A``.

    The inner Newton loop of the Laplace approximation re-linearizes the
    likelihood at every iterate: ``Qc(eta) = Qp + A^T D(eta) A`` with
    ``D`` the *diagonal* negative log-likelihood Hessian.  The pattern of
    ``A^T D A`` never depends on ``D`` — every stored pair
    ``(A[i, r], A[i, c])`` of one observation row contributes
    ``A[i, r] A[i, c] d_i`` to entry ``(r, c)`` — so everything
    index-shaped is resolved once here at plan construction:

    - the pair coefficients ``A[i, r] A[i, c]``, their observation
      gathers, and the slot-sorted ``reduceat`` segment bounds over the
      exact pair-union pattern,
    - that pattern's slots mapped into the aligned conditional pattern
      (composing with the prior -> conditional map ``_p2c``),
    - ``A^T`` in CSR form for the Newton right-hand side, fused with the
      time-major vector permutation.

    Per Newton step only diagonal values flow: one gather, one multiply,
    one segmented sum, one fancy-indexed scatter per theta row — zero
    scipy-sparse operations, and every operation is row-independent, so
    a ``t = 1`` lane is bit-identical to the same lane inside any batch.
    """

    def __init__(self, plan: SymbolicAssembly):
        A = canonical_csr(plan._A_csr)
        self._AT = A.T.tocsr()
        self._vec_perm = plan._vec_perm
        self._p2c = plan._p2c
        self.nnz_c = plan.nnz_c
        indptr, indices, data = A.indptr, A.indices, A.data
        rows_l, cols_l, coef_l, obs_l = [], [], [], []
        for i in range(A.shape[0]):
            lo, hi = indptr[i], indptr[i + 1]
            if hi == lo:
                continue
            c = indices[lo:hi]
            v = data[lo:hi]
            q = hi - lo
            rows_l.append(np.repeat(c, q))
            cols_l.append(np.tile(c, q))
            coef_l.append((v[:, None] * v[None, :]).ravel())
            obs_l.append(np.full(q * q, i, dtype=np.int64))
        rows = np.concatenate(rows_l)
        cols = np.concatenate(cols_l)
        coef = np.concatenate(coef_l)
        obs = np.concatenate(obs_l)
        # The pair union *is* the curvature pattern (built from the pairs
        # themselves, so structural cancellation in any derived product
        # can never shrink it under us).
        N = A.shape[1]
        union = _pattern_of(
            sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(N, N))
        )
        slots = PatternAligner(union).slots_of(rows, cols)
        order = np.argsort(slots, kind="stable")
        slots = slots[order]
        self._coef = np.ascontiguousarray(coef[order])
        self._obs = np.ascontiguousarray(obs[order])
        self._starts = np.flatnonzero(np.r_[True, slots[1:] != slots[:-1]])
        union_to_c = plan._align_c_obj.slots_for(union)
        self._seg_slots_c = np.ascontiguousarray(union_to_c[slots[self._starts]])
        self.n_pairs = int(rows.size)

    def conditional_values(
        self, qp_values: np.ndarray, d_stack: np.ndarray, *, backend: Backend | None = None
    ) -> np.ndarray:
        """Aligned conditional data stack ``Qc = Qp + A^T D A``.

        ``qp_values`` is a ``(t, nnz_p)`` aligned prior stack, ``d_stack``
        the ``(t, m)`` diagonal curvature rows.  One gather + segmented
        sum per row; the segment scatter targets are disjoint, so the
        fancy ``+=`` is exact.
        """
        be = backend if backend is not None else NUMPY_BACKEND
        qc = be.zeros((qp_values.shape[0], self.nnz_c))
        qc[:, self._p2c] = qp_values
        contrib = self._coef * d_stack[:, self._obs]
        qc[:, self._seg_slots_c] += np.add.reduceat(contrib, self._starts, axis=1)
        return qc

    def newton_rhs(
        self, d_stack: np.ndarray, eta_stack: np.ndarray, grad_stack: np.ndarray
    ) -> np.ndarray:
        """Permuted Newton right-hand sides ``A^T (D eta + grad)``, ``(t, N)``.

        One fixed-pattern SpMM (per-column CSR matvecs — lane-independent)
        plus the fused time-major gather.
        """
        w = d_stack * eta_stack + grad_stack
        rhs_var = np.ascontiguousarray((self._AT @ w.T).T)
        return rhs_var[..., self._vec_perm]


class AssemblyWorkspace:
    """Reusable theta-first output stacks for :meth:`assemble_batch`.

    Grows to the largest stencil width seen and hands out zero-copy
    head-views, so steady-state batch assembly allocates nothing for the
    block stacks.  The stacks are overwritten by every ``assemble_batch``
    call that uses the workspace (and factorized in place by the
    evaluator's ``overwrite=True`` sweeps) — callers must not hold on to
    the previous batch's stacks across calls.  The ``Qp`` and ``Qc``
    stacks are allocated independently, on first request: the objective
    paths only ever ask for ``Qc``.

    ``backend`` pins where the stacks (and the plan's value scratch of
    any ``assemble_batch`` call using this workspace) live — the single
    switch that moves the whole stencil pipeline onto a device backend.
    """

    def __init__(self, *, backend: Backend | None = None):
        self.backend = backend if backend is not None else NUMPY_BACKEND
        self._stacks: dict = {}

    def _stack(self, which: str, shape3: BTAShape, t: int) -> BTAStack:
        stack = self._stacks.get(which)
        if stack is None or stack.t < t or stack.shape3 != shape3:
            stack = self._stacks[which] = BTAStack.zeros(shape3, t, backend=self.backend)
        return stack.head(t)

    def qp_stack(self, shape3: BTAShape, t: int) -> BTAStack:
        """Head view of the reusable prior stack (``t`` rows)."""
        return self._stack("qp", shape3, t)

    def qc_stack(self, shape3: BTAShape, t: int) -> BTAStack:
        """Head view of the reusable conditional stack (``t`` rows)."""
        return self._stack("qc", shape3, t)


class PriorLogdetMemo:
    """Bounded, thread-safe memo of per-process prior log-determinants.

    Keys are ``(k, range_k)`` — process ``k`` and the bytes of its two
    log-range coordinates, the only hyperparameters its unit-variance
    precision ``Q_st,k`` depends on; values are plain floats (never
    factors).  Least-recently-used entries are dropped past
    :attr:`capacity`.  Only finite log-determinants are stored, so a
    failed factorization is retried rather than remembered.
    """

    capacity = 1024

    def __init__(self):
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key) -> float | None:
        with self._lock:
            value = self._data.get(key)
            if value is not None:
                self._data.move_to_end(key)
            return value

    def put(self, key, value: float) -> None:
        with self._lock:
            self._data[key] = float(value)
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)


@dataclass
class BatchAssembledSystem:
    """Theta-batched output of :meth:`CoregionalSTModel.assemble_batch`.

    Only the ``feasible`` subset of the requested thetas is assembled;
    all per-theta arrays are indexed by *live* position ``i`` (theta
    ``thetas[feasible[i]]``).  The ``Qc`` block stack feeds
    :func:`repro.structured.multifactor.factorize_batch` directly
    (``overwrite=True`` — it is rebuilt every batch); the ``Qp`` stack
    (:attr:`qp`) is scattered on first access, and per-theta sparse views
    for the cheap matvec work are materialized lazily by :meth:`system`.
    """

    thetas: np.ndarray  # (t_request, dim) as requested
    feasible: np.ndarray  # indices of assembled rows into `thetas`
    qc: BTAStack | None  # conditional stacks, live rows only
    rhs: np.ndarray | None  # (t_live, N) permuted information vectors
    taus: np.ndarray | None  # (t_live, nv)
    qp_values: np.ndarray | None  # (t_live, nnz_p) aligned prior data rows
    _plan: SymbolicAssembly | None = field(default=None, repr=False)
    _qp: BTAStack | Callable[[], BTAStack] | None = field(default=None, repr=False)

    @property
    def t(self) -> int:
        """Number of assembled (feasible) thetas."""
        return int(self.feasible.size)

    @property
    def qp(self) -> BTAStack | None:
        """Prior stacks, live rows only (scattered on first access)."""
        if callable(self._qp):
            self._qp = self._qp()
        return self._qp

    def quad_stack(self, mu_stack: np.ndarray) -> np.ndarray:
        """``mu_j^T Qp_j mu_j`` over the live rows (see
        :meth:`SymbolicAssembly.qp_quad_stack`)."""
        return self._plan.qp_quad_stack(self.qp_values, mu_stack)

    def system(self, i: int) -> AssembledSystem:
        """Per-theta :class:`AssembledSystem` view of live row ``i``.

        The block stacks stay with the batch (``qp``/``qc`` are None —
        the batch path factorizes the stacks wholesale); the sparse
        prior for the cheap matvec work is built lazily on the shared
        permuted pattern without copying the index arrays, so a batch
        that gets discarded (non-positive-definite fallback) never pays
        for it.
        """
        j = int(self.feasible[i])
        return AssembledSystem(
            theta=self.thetas[j],
            qc=None,
            qp_csr=self._plan.qp_csr(self.qp_values[i]),
            rhs=self.rhs[i],
            taus=self.taus[i],
        )


class CoregionalSTModel:
    """A multivariate spatio-temporal latent Gaussian model (LMC + SPDE)."""

    def __init__(
        self,
        mesh: Mesh2D,
        tmesh: TemporalMesh,
        responses: list,
        *,
        fixed_effect_precision: float = 1e-3,
        priors: PriorCollection | None = None,
    ):
        if not responses:
            raise ValueError("need at least one response")
        nrs = {r.nr for r in responses}
        if len(nrs) != 1:
            raise ValueError(f"all responses must share nr, got {nrs}")
        self.mesh = mesh
        self.tmesh = tmesh
        self.responses = list(responses)
        self.nv = len(responses)
        self.nr = responses[0].nr
        self.eps_fixed = float(fixed_effect_precision)
        if self.eps_fixed <= 0:
            raise ValueError("fixed-effect prior precision must be positive")

        self.spde = SpatioTemporalSPDE(mesh, tmesh)
        self.layout = ThetaLayout(self.nv)
        self.coreg = CoregionalizationModel(self.nv)
        self.priors = priors or PriorCollection.default(self.layout.dim)
        if self.priors.dim != self.layout.dim:
            raise ValueError(
                f"prior dimension {self.priors.dim} != theta dimension {self.layout.dim}"
            )

        # -- designs and likelihood (fixed) ---------------------------------
        self._A_per_process = [
            process_design(mesh, tmesh, r.coords, r.time_idx, r.covariates)
            for r in self.responses
        ]
        self.A = joint_design(self._A_per_process)
        y = np.concatenate([r.y for r in self.responses])
        response_of = np.concatenate(
            [np.full(r.m, v, dtype=np.int64) for v, r in enumerate(self.responses)]
        )
        self.likelihood = GaussianLikelihood(y=y, response_of=response_of)

        # -- per-response observation Gram matrices (fixed patterns) ---------
        # Qc = Q_nv + sum_v tau_v * Gram_v with Gram_v = blockdiag-embedded A_v^T A_v.
        self._grams = []
        stride = self.dim_process
        for v, A_v in enumerate(self._A_per_process):
            gram = (A_v.T @ A_v).tocsr()
            full = sp.lil_matrix((self.N, self.N))
            full[v * stride : (v + 1) * stride, v * stride : (v + 1) * stride] = gram
            self._grams.append(sp.csr_matrix(full))

        # -- fixed sparsity patterns, permutation plans, BTA mappings --------
        self.permutation = CoregionalPermutation(self.nv, self.ns, self.nt, self.nr)
        theta_ref = self._reference_theta()
        qp_ref = self._joint_prior(theta_ref)
        self._align_p = PatternAligner(_pattern_of(qp_ref))
        qc_ref = qp_ref + sum(self._grams)
        self._align_c = PatternAligner(_pattern_of(qc_ref))

        self._perm_p = CoregionalPermutation(self.nv, self.ns, self.nt, self.nr)
        self._perm_p.plan_for(self._align_p.pattern)
        self._perm_c = CoregionalPermutation(self.nv, self.ns, self.nt, self.nr)
        self._perm_c.plan_for(self._align_c.pattern)

        shape = self.permutation.bta_shape
        self._map_p = BTAMapping(self._perm_p.apply(self._align_p.align(qp_ref)), shape)
        self._map_c = BTAMapping(self._perm_c.apply(self._align_c.align(qc_ref)), shape)

        # -- symbolic assembly plan (terms, slots, fused scatters) -----------
        self.plan = SymbolicAssembly(self)

    # -- dimensions ----------------------------------------------------------

    @property
    def ns(self) -> int:
        return self.mesh.n_nodes

    @property
    def nt(self) -> int:
        return self.tmesh.nt

    @property
    def dim_process(self) -> int:
        """Latent dimension of one univariate process (ST effects + fixed)."""
        return self.ns * self.nt + self.nr

    @property
    def N(self) -> int:
        """Total latent dimension ``nv (ns nt + nr)`` (paper Sec. IV-B)."""
        return self.nv * self.dim_process

    @property
    def m(self) -> int:
        return self.likelihood.m

    # -- assembly ---------------------------------------------------------------

    def _reference_theta(self) -> np.ndarray:
        """A theta whose assembled pattern is the full (maximal) pattern."""
        (x0, x1), (y0, y1) = self.mesh.bbox()
        rs = 0.3 * max(x1 - x0, y1 - y0)
        rt = 0.3 * self.tmesh.nt * self.tmesh.dt
        return self.layout.pack(
            taus=np.ones(self.nv),
            ranges=np.tile([rs, rt], (self.nv, 1)),
            sigmas=np.ones(self.nv),
            lambdas=np.full(self.layout.n_lambda, 0.5),
        )

    def _joint_prior(self, theta: np.ndarray) -> sp.csr_matrix:
        """Variable-major joint prior precision ``Q_nv`` (Eq. 11)."""
        precisions = []
        eye_fixed = sp.identity(self.nr, format="csr") * self.eps_fixed
        for v in range(self.nv):
            q_st = self.spde.precision(self.layout.process_params(theta, v))
            precisions.append(sp.block_diag([q_st, eye_fixed], format="csr"))
        return self.coreg.joint_precision(
            precisions, self.layout.sigmas(theta), self.layout.lambdas(theta)
        )

    def _plan_values(self, theta: np.ndarray) -> tuple:
        """Shared single-theta numeric phase: ``(taus, qp, qc, rhs_var)``.

        Runs the plan at ``t = 1`` (the exact operations of a batch row)
        and raises ``ValueError`` for infeasible configurations — the
        contract the objective layer's backtracking relies on.
        """
        theta = self.layout.validate(theta)
        taus, c, B, feasible = self.plan.coefficients(theta[None, :])
        if not feasible[0]:
            raise ValueError(f"hyperparameters out of range: theta={theta}")
        qp, qc, rhs_var = self.plan.values(c, B, taus)
        return theta, taus[0], qp, qc, rhs_var

    def assemble(self, theta: np.ndarray) -> AssembledSystem:
        """Build the permuted BTA pair ``(Qp, Qc)`` and information vector.

        The ``t = 1`` case of :meth:`assemble_batch` — same numeric core,
        bit-identical values — with fresh block stacks each call: callers
        factorize with ``overwrite=True``, so a shared buffer would alias
        the factors.
        """
        theta, taus, qp, qc, rhs_var = self._plan_values(theta)
        scatter_p, qp_row = self.plan.scatter_p, qp[0]
        return AssembledSystem(
            theta=theta,
            qc=self.plan.scatter_c.scatter(qc[0]),
            qp_csr=self.plan.qp_csr(qp_row),
            rhs=self.plan.permute_rhs(rhs_var[0]),
            taus=taus,
            _qp=lambda: scatter_p.scatter(qp_row),
        )

    def assemble_batch(
        self,
        thetas: np.ndarray,
        *,
        workspace: AssemblyWorkspace | None = None,
        backend: Backend | None = None,
    ) -> BatchAssembledSystem:
        """Assemble a whole stencil batch into theta-first block stacks.

        One numeric pass evaluates every feasible theta's scalar
        coefficients, accumulates the stacked ``(t, nnz)`` value arrays
        term by term, and scatters them straight into the ``(t, n, b, b)``
        stacks that :func:`repro.structured.multifactor.factorize_batch`
        consumes — no scipy sparse arithmetic and no intermediate
        per-theta :class:`~repro.structured.bta.BTAMatrix` copies.
        Infeasible thetas (screened by the cheap coefficient check before
        any value work) are excluded from the stacks and reported via
        ``feasible``.  ``workspace`` reuses preallocated output stacks
        across batches (see :class:`AssemblyWorkspace`); ``backend``
        (defaulting to the workspace's backend) routes every value-stack
        and block-stack allocation through the owning backend's hooks.
        """
        be = backend
        if be is None:
            be = workspace.backend if workspace is not None else NUMPY_BACKEND
        thetas = np.asarray(thetas, dtype=np.float64)
        if thetas.ndim == 1:
            thetas = thetas[None, :]
        taus, c, B, feasible = self.plan.coefficients(thetas, backend=be)
        live = np.flatnonzero(feasible)
        if live.size == 0:
            return BatchAssembledSystem(
                thetas=thetas,
                feasible=live,
                qc=None,
                rhs=None,
                taus=None,
                qp_values=None,
                _plan=self.plan,
            )
        qp, qc, rhs_var = self.plan.values(c[live], B[live], taus[live], backend=be)
        shape, t = self.permutation.bta_shape, int(live.size)
        if workspace is None:
            qc_stack = BTAStack.zeros(shape, t, backend=be)
        else:
            qc_stack = workspace.qc_stack(shape, t)

        def scatter_qp() -> BTAStack:
            if workspace is None:
                qp_stack = BTAStack.zeros(shape, t, backend=be)
            else:
                qp_stack = workspace.qp_stack(shape, t)
            self.plan.scatter_p.scatter_stacks(
                qp, qp_stack.diag, qp_stack.lower, qp_stack.arrow, qp_stack.tip
            )
            return qp_stack

        self.plan.scatter_c.scatter_stacks(
            qc, qc_stack.diag, qc_stack.lower, qc_stack.arrow, qc_stack.tip
        )
        return BatchAssembledSystem(
            thetas=thetas,
            feasible=live,
            qc=qc_stack,
            rhs=self.plan.permute_rhs(rhs_var),
            taus=taus[live],
            qp_values=qp,
            _plan=self.plan,
            _qp=scatter_qp,
        )

    def prior_logdets(self, thetas: np.ndarray, memo: PriorLogdetMemo | None = None) -> np.ndarray:
        """``log|Qp|`` for a ``(t, dim)`` theta stack, from the LMC identity.

        ``Qp = (M (x) I)^T blkdiag(Q_k / sigma_k^2) (M (x) I)`` with ``M``
        unit lower-triangular (:mod:`repro.coreg.lmc`), so ``det M = 1``
        and::

            log|Qp| = sum_k [ log|Q_st,k| + nr log(eps)
                              - (ns nt + nr) log(sigma_k^2) ]

        ``Q_st,k`` is process ``k``'s unit-variance SPDE precision — a BT
        matrix (``n = nt``, ``b = ns``, ``a = 0``) depending only on its
        two range coordinates.  The distinct ``(k, range_k)`` keys not in
        ``memo`` are factorized in ONE ``factorize_batch`` sweep (one
        :data:`~repro.structured.pobtaf.FACTORIZATIONS` count; none when
        every key is memoized) and stored in it; the couplings and noise
        precisions never enter.  Each process term is bit-identical
        whether it came from the memo or a cold sweep of any width (the
        ``factorize_batch`` per-lane contract), and the per-process sum
        runs in the fixed order ``k = 0 .. nv - 1``.  Rows with a
        non-finite theta, an infeasible range or a non-positive-definite
        ``Q_st,k`` are ``nan``.
        """
        thetas = np.asarray(thetas, dtype=np.float64)
        if thetas.ndim == 1:
            thetas = thetas[None, :]
        t, nv = thetas.shape[0], self.nv
        log_ranges = thetas[:, self.plan._range_cols]  # (t, nv, 2)
        live = np.flatnonzero(np.isfinite(thetas).all(axis=1))
        keys = [[(k, log_ranges[i, k].tobytes()) for k in range(nv)] for i in live]
        found: dict = {}
        missing: dict = {}  # key -> log ranges, in first-seen order
        for row, i in zip(keys, live):
            for k, key in enumerate(row):
                if key in found or key in missing:
                    continue
                value = memo.get(key) if memo is not None else None
                if value is None:
                    missing[key] = log_ranges[i, k]
                else:
                    found[key] = value
        if missing:
            found.update(zip(missing, self._process_logdets(np.stack(list(missing.values())))))
            if memo is not None:
                for key in missing:
                    if np.isfinite(found[key]):
                        memo.put(key, found[key])

        out = np.full(t, np.nan)
        if live.size:
            per_process = np.array([[found[key] for key in row] for row in keys])
            log_sigma2 = 2.0 * thetas[live][:, self.layout.sigma_slice()]
            fixed = self.nr * np.log(self.eps_fixed)
            n_k = self.ns * self.nt + self.nr
            total = np.zeros(live.size)
            for k in range(nv):
                total += per_process[:, k] + fixed - n_k * log_sigma2[:, k]
            out[live] = total
        return out

    def _process_logdets(self, log_ranges: np.ndarray) -> np.ndarray:
        """``log|Q_st|`` for an ``(m, 2)`` stack of log ranges (``nan`` where
        infeasible or not positive definite): one batched sweep, resolved
        lane by lane only if the sweep fails."""
        with np.errstate(all="ignore"):
            ranges = np.exp(log_ranges)
        c_st, ok = self.spde.term_coefficient_stack(ranges[:, 0], ranges[:, 1])
        out = np.full(log_ranges.shape[0], np.nan)
        lanes = np.flatnonzero(ok)
        if lanes.size == 0:
            return out
        try:
            stack = self.plan.univariate_stack(c_st[lanes])
            out[lanes] = factorize_batch(stack, overwrite=True).logdets()
        except NotPositiveDefiniteError:
            if lanes.size == 1:
                return out
            for j in lanes:
                out[j] = self._process_logdets(log_ranges[j : j + 1])[0]
        return out

    def assemble_sparse(self, theta: np.ndarray) -> tuple:
        """Variable-major sparse assembly ``(Qp, Qc, rhs, taus)``.

        The general-sparse baselines (R-INLA stand-in) consume the
        matrices without permutation or densification; the CSR data
        arrays come from the same plan value core as :meth:`assemble`.
        """
        theta, taus, qp, qc, rhs_var = self._plan_values(theta)
        pat_p, pat_c = self._align_p.pattern, self._align_c.pattern
        qp_csr = sp.csr_matrix((qp[0], pat_p.indices, pat_p.indptr), shape=pat_p.shape)
        qc_csr = sp.csr_matrix((qc[0], pat_c.indices, pat_c.indptr), shape=pat_c.shape)
        return qp_csr, qc_csr, rhs_var[0], taus

    def assemble_reference(self, theta: np.ndarray) -> AssembledSystem:
        """The historical scipy-sparse assembly path (reference only).

        Re-derives the joint prior through ``sp.kron`` products, the
        sparse LMC block-mix, CSR adds, two alignment passes, the CSR
        permutation and a fresh :meth:`BTAMapping.map <repro.sparse.mapping.BTAMapping.map>`
        scatter — the per-theta cost profile the symbolic plan removes.
        Kept as the independent cross-check for the plan's values (and
        as the baseline of ``benchmarks/bench_assembly.py``); agrees with
        :meth:`assemble` to rounding (1e-10), not bit-for-bit.
        """
        theta = self.layout.validate(theta)
        taus = self.layout.taus(theta)

        qp = self._align_p.align(self._joint_prior(theta))
        qc_var = qp + sum(tau * g for tau, g in zip(taus, self._grams))
        qc = self._align_c.align(qc_var)

        qp_perm = self._perm_p.apply(qp)
        qc_perm = self._perm_c.apply(qc)
        qp_bta = self._map_p.map(qp_perm)
        qc_bta = self._map_c.map(qc_perm)

        rhs = self.permutation.permute_vector(
            self.likelihood.information_vector(self.A, taus)
        )
        return AssembledSystem(
            theta=theta,
            qc=qc_bta,
            qp_csr=qp_perm,
            rhs=rhs,
            taus=taus,
            _qp=qp_bta,
        )

    # -- posterior helpers ---------------------------------------------------

    def linear_predictor(self, mu_perm: np.ndarray) -> np.ndarray:
        """``eta = A mu`` from a permuted latent mean."""
        mu = self.permutation.unpermute_vector(mu_perm)
        return np.asarray(self.A @ mu).ravel()

    def linear_predictor_stack(self, mu_perm_stack: np.ndarray) -> np.ndarray:
        """``eta_j = A mu_j`` for a row-major ``(t, N)`` stack of permuted
        latent means — one unpermute gather plus one SpMM instead of ``t``
        matvecs (the theta-batched epilogue)."""
        mu_var = self.permutation.perm.undo_stack(mu_perm_stack)
        return np.ascontiguousarray((self.A @ mu_var.T).T)

    def split_latent(self, x_perm: np.ndarray) -> list:
        """Split a permuted latent vector into per-response
        ``(st_field (nt, ns), fixed_effects (nr,))`` pairs."""
        x = self.permutation.unpermute_vector(x_perm)
        out = []
        stride = self.dim_process
        for v in range(self.nv):
            seg = x[v * stride : (v + 1) * stride]
            out.append(
                (seg[: self.ns * self.nt].reshape(self.nt, self.ns), seg[self.ns * self.nt :])
            )
        return out


def _pattern_of(Q: sp.spmatrix) -> sp.csr_matrix:
    P = sp.csr_matrix(Q).copy()
    P.sum_duplicates()
    P.sort_indices()
    P.data = np.ones_like(P.data)
    return P


def _union_pattern(mats) -> sp.csr_matrix:
    acc = None
    for M in mats:
        pat = _pattern_of(M)
        acc = pat if acc is None else acc + pat
    return _pattern_of(acc)
