"""Non-separable spatio-temporal SPDE precision (DEMF(1,2,1)).

The diffusion-based model of paper ref. [25] treats the field as the
solution of ``(gamma_t d/dt + gamma_s^2 - Delta)(tau u) = dE_t`` with
spatially colored noise.  Discretizing time with linear elements and space
with P1 elements (lumped mass) yields the precision

    Q_st = gamma_e^2 [ gamma_t^2 (M2 (x) q1)
                       + 2 gamma_t (M1 (x) q2)
                       +            M0 (x) q3 ]

with temporal matrices ``M0, M1, M2`` (mass, boundary, stiffness; all at
most tridiagonal) and spatial operator powers ``q_k`` of
``K = gamma_s^2 C + G`` (see :mod:`repro.spde.matern`).  In time-major
ordering the three Kronecker terms are all block-tridiagonal with
``ns x ns`` blocks — the BT pattern of paper Fig. 2a.

Only ``(gamma_s, gamma_t, gamma_e)`` change between objective
evaluations.  The spatial operators ``q_k`` depend on ``gamma_s``, so
they are re-formed each time; what is reused is the FEM matrices and the
union sparsity pattern (identical for every ``gamma_s > 0``), which
keeps re-assembly ``O(nnz)``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.meshes.fem import fem_matrices
from repro.meshes.mesh2d import Mesh2D
from repro.meshes.temporal import TemporalMesh, temporal_fem_matrices
from repro.spde.matern import spatial_operator_bases, spatial_operators
from repro.spde.params import (
    SpatioTemporalParams,
    gammas_from_interpretable,
    gammas_from_interpretable_stack,
)

#: Number of fixed Kronecker terms in the symbolic decomposition of
#: ``Q_st`` (see :meth:`SpatioTemporalSPDE.term_bases`).
N_TERMS = 9


class SpatioTemporalSPDE:
    """Precision-matrix factory for one univariate spatio-temporal process.

    Parameters
    ----------
    mesh:
        Spatial triangulation (``ns`` nodes).
    tmesh:
        Temporal mesh (``nt`` knots).

    The factory caches the FEM matrices; :meth:`precision` assembles
    ``Q_st(theta)`` for any hyperparameter configuration.
    """

    def __init__(self, mesh: Mesh2D, tmesh: TemporalMesh):
        self.mesh = mesh
        self.tmesh = tmesh
        self.C, self.G = fem_matrices(mesh)
        self.M0, self.M1, self.M2 = temporal_fem_matrices(tmesh)

    @property
    def ns(self) -> int:
        return self.mesh.n_nodes

    @property
    def nt(self) -> int:
        return self.tmesh.nt

    @property
    def dim(self) -> int:
        """Latent dimension ``ns * nt`` (time-major ordering)."""
        return self.ns * self.nt

    def precision(self, params: SpatioTemporalParams) -> sp.csr_matrix:
        """Assemble ``Q_st`` (time-major, CSR, canonical form)."""
        gamma_s, gamma_t, gamma_e = gammas_from_interpretable(params)
        q1, q2, q3 = spatial_operators((self.C, self.G), gamma_s)
        ge2 = gamma_e**2
        Q = (
            (ge2 * gamma_t**2) * sp.kron(self.M2, q1, format="csr")
            + (2.0 * ge2 * gamma_t) * sp.kron(self.M1, q2, format="csr")
            + ge2 * sp.kron(self.M0, q3, format="csr")
        )
        Q = sp.csr_matrix(Q)
        Q.sum_duplicates()
        Q.sort_indices()
        return Q

    # -- symbolic/numeric split ----------------------------------------------

    def term_bases(self) -> list:
        """The nine fixed ``(temporal, spatial)`` Kronecker factor pairs.

        Substituting the polynomial expansion of the operator powers
        (:func:`repro.spde.matern.spatial_operator_bases`) into the
        DEMF(1,2,1) precision gives

        .. code-block:: text

            Q_st = sum_j  c_j(theta) * (T_j (x) S_j)

        over hyperparameter-*independent* factors ``T_j in {M0, M1, M2}``
        and ``S_j in {C, G, H2, H3}`` — the symbolic phase of assembly.
        Order matches :meth:`term_coefficient_stack` row-for-row.
        """
        C, G, H2, H3 = spatial_operator_bases((self.C, self.G))
        return [
            (self.M2, C),
            (self.M2, G),
            (self.M1, C),
            (self.M1, G),
            (self.M1, H2),
            (self.M0, C),
            (self.M0, G),
            (self.M0, H2),
            (self.M0, H3),
        ]

    def term_coefficient_stack(
        self, range_s: np.ndarray, range_t: np.ndarray, sigma: np.ndarray | None = None
    ) -> tuple:
        """Scalar term coefficients for a stack of hyperparameter points.

        The numeric phase of the split: for interpretable parameter
        arrays (one entry per theta) return ``(coeffs, feasible)`` with
        ``coeffs[i, j]`` the coefficient of term ``j`` of
        :meth:`term_bases` at point ``i`` — all elementwise arithmetic,
        so a length-1 stack is bit-identical to any batch.  Infeasible
        points (where :meth:`precision` would raise) carry
        ``feasible[i] = False`` instead of raising.
        """
        gamma_s, gamma_t, gamma_e, feasible = gammas_from_interpretable_stack(
            range_s, range_t, sigma
        )
        with np.errstate(all="ignore"):
            ge2 = gamma_e * gamma_e
            w1 = ge2 * gamma_t * gamma_t  # weight of M2 (x) q1
            w2 = 2.0 * ge2 * gamma_t  # weight of M1 (x) q2
            w3 = ge2  # weight of M0 (x) q3
            k2 = gamma_s * gamma_s
            k4 = k2 * k2
            coeffs = np.stack(
                [
                    w1 * k2,  # M2 (x) C
                    w1,  # M2 (x) G
                    w2 * k4,  # M1 (x) C
                    w2 * (2.0 * k2),  # M1 (x) G
                    w2,  # M1 (x) H2
                    w3 * (k4 * k2),  # M0 (x) C
                    w3 * (3.0 * k4),  # M0 (x) G
                    w3 * (3.0 * k2),  # M0 (x) H2
                    w3,  # M0 (x) H3
                ],
                axis=-1,
            )
        feasible = feasible & np.isfinite(coeffs).all(axis=-1)
        return coeffs, feasible

    def term_coefficients(self, params: SpatioTemporalParams) -> np.ndarray:
        """Term coefficients of one point (raises where :meth:`precision` would)."""
        coeffs, feasible = self.term_coefficient_stack(
            np.array([params.range_s]), np.array([params.range_t]), np.array([params.sigma])
        )
        if not feasible[0]:
            raise ValueError(f"hyperparameters out of range: {params}")
        return coeffs[0]

    def precision_from_theta(self, theta: np.ndarray) -> sp.csr_matrix:
        """Assemble from unconstrained coordinates ``(log r_s, log r_t, log sigma)``."""
        return self.precision(SpatioTemporalParams.from_theta(theta))

    def pattern(self) -> sp.csr_matrix:
        """Sparsity pattern of ``Q_st`` (same for all hyperparameters)."""
        Q = self.precision(SpatioTemporalParams(range_s=1.0, range_t=1.0, sigma=1.0))
        P = Q.copy()
        P.data = np.ones_like(P.data)
        return P

    def block_bandwidth_check(self) -> bool:
        """True if the pattern is block-tridiagonal in time-major order."""
        Q = self.pattern().tocoo()
        t_row = Q.row // self.ns
        t_col = Q.col // self.ns
        return bool(np.all(np.abs(t_row - t_col) <= 1))
