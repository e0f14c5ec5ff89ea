"""Stacked multi-RHS sweeps: edge cases and path agreement.

The contracts under test (see :mod:`repro.structured.multirhs`):

- a stacked solve with ``k = 1`` is bit-for-bit identical to the
  per-RHS entry points (they share the panel-sweep kernels);
- for any ``k`` the stacked batched path agrees with the looped
  per-RHS reference (``REPRO_BATCHED=0`` semantics) to 1e-10;
- degenerate shapes (``a = 0``, ``n = 1``, ``k = 0``) and
  non-contiguous / strided stacks are handled;
- the caller's stack is never mutated;
- the distributed handle's stacked solve matches the sequential one;
- the fused selected-inversion + solve matches the separate passes;
- the solver-level stacked/fused methods agree with their unfused
  building blocks for both Sequential and Distributed dispatch.
"""

import numpy as np
import pytest

from repro.inla.solvers import DistributedSolver, SequentialSolver
from repro.structured.bta import BTAMatrix, BTAShape
from repro.structured.factor import d_factorize
from repro.structured.multirhs import (
    as_rhs_stack,
    pobtas_lt_stack,
    pobtas_stack,
)
from repro.structured.pobtaf import pobtaf
from repro.structured.pobtas import pobtas, pobtas_lt
from repro.structured.pobtasi import pobtasi, pobtasi_with_solve


def _case(n, b, a, seed=0):
    rng = np.random.default_rng(seed)
    A = BTAMatrix.random_spd(BTAShape(n=n, b=b, a=a), rng)
    return A, pobtaf(A), rng


SHAPES = [(12, 6, 3), (5, 3, 0), (1, 4, 2), (1, 1, 0), (8, 2, 5)]


class TestStackNormalization:
    def test_vector_promotes_to_k1(self):
        stack, squeeze = as_rhs_stack(np.zeros(7), 7)
        assert stack.shape == (1, 7) and squeeze

    def test_matrix_passthrough(self):
        stack, squeeze = as_rhs_stack(np.zeros((3, 7)), 7)
        assert stack.shape == (3, 7) and not squeeze

    def test_wrong_width_raises(self):
        with pytest.raises(ValueError, match="rhs stack"):
            as_rhs_stack(np.zeros((3, 6)), 7)
        with pytest.raises(ValueError, match="rhs stack"):
            as_rhs_stack(np.zeros((2, 3, 7)), 7)


class TestStackedEqualsUnstacked:
    """k = 1 must be bit-for-bit the per-RHS path — both kernel paths."""

    @pytest.mark.parametrize("n,b,a", SHAPES)
    @pytest.mark.parametrize("batched", [True, False])
    def test_solve_bitwise(self, n, b, a, batched):
        _, chol, rng = _case(n, b, a)
        r = rng.standard_normal(chol.N)
        assert np.array_equal(
            pobtas_stack(chol, r, batched=batched), pobtas(chol, r, batched=batched)
        )
        assert np.array_equal(
            pobtas_stack(chol, r[None], batched=batched)[0],
            pobtas(chol, r, batched=batched),
        )

    @pytest.mark.parametrize("n,b,a", SHAPES)
    @pytest.mark.parametrize("batched", [True, False])
    def test_lt_bitwise(self, n, b, a, batched):
        _, chol, rng = _case(n, b, a)
        r = rng.standard_normal(chol.N)
        assert np.array_equal(
            pobtas_lt_stack(chol, r, batched=batched), pobtas_lt(chol, r, batched=batched)
        )


class TestStackedAgreesWithLooped:
    @pytest.mark.parametrize("n,b,a", SHAPES)
    @pytest.mark.parametrize("k", [2, 5, 64])
    def test_solve(self, n, b, a, k):
        _, chol, rng = _case(n, b, a)
        S = rng.standard_normal((k, chol.N))
        looped = np.stack([pobtas(chol, S[j], batched=False) for j in range(k)])
        assert np.max(np.abs(pobtas_stack(chol, S, batched=True) - looped)) < 1e-10
        assert np.max(np.abs(pobtas_stack(chol, S, batched=False) - looped)) < 1e-10

    @pytest.mark.parametrize("n,b,a", SHAPES)
    @pytest.mark.parametrize("k", [2, 64])
    def test_lt(self, n, b, a, k):
        _, chol, rng = _case(n, b, a)
        S = rng.standard_normal((k, chol.N))
        looped = np.stack([pobtas_lt(chol, S[j], batched=False) for j in range(k)])
        assert np.max(np.abs(pobtas_lt_stack(chol, S, batched=True) - looped)) < 1e-10
        assert np.max(np.abs(pobtas_lt_stack(chol, S, batched=False) - looped)) < 1e-10

    def test_solves_the_system(self):
        A, chol, rng = _case(10, 4, 2)
        S = rng.standard_normal((6, A.N))
        X = pobtas_stack(chol, S)
        assert np.max(np.abs(A.matvec(X.T) - S.T)) < 1e-8

    @pytest.mark.parametrize("batched", [True, False])
    def test_env_default_matches_override(self, batched, monkeypatch):
        _, chol, rng = _case(6, 3, 1)
        S = rng.standard_normal((4, chol.N))
        monkeypatch.setenv("REPRO_BATCHED", "1" if batched else "0")
        assert np.array_equal(pobtas_stack(chol, S), pobtas_stack(chol, S, batched=batched))


class TestEdgeCases:
    @pytest.mark.parametrize("batched", [True, False])
    def test_empty_stack(self, batched):
        _, chol, _ = _case(4, 3, 2)
        out = pobtas_stack(chol, np.empty((0, chol.N)), batched=batched)
        assert out.shape == (0, chol.N)
        out = pobtas_lt_stack(chol, np.empty((0, chol.N)), batched=batched)
        assert out.shape == (0, chol.N)

    def test_input_not_mutated(self):
        _, chol, rng = _case(6, 3, 2)
        r = rng.standard_normal(chol.N)
        S = rng.standard_normal((3, chol.N))
        r0, S0 = r.copy(), S.copy()
        pobtas_stack(chol, r)
        pobtas_stack(chol, S)
        pobtas_lt_stack(chol, r)
        assert np.array_equal(r, r0) and np.array_equal(S, S0)

    def test_noncontiguous_stacks(self):
        _, chol, rng = _case(7, 3, 2)
        big = rng.standard_normal((10, chol.N))
        strided = big[::2]  # row-strided view
        assert not strided.flags.c_contiguous
        expect = np.stack([pobtas(chol, big[2 * j]) for j in range(5)])
        assert np.max(np.abs(pobtas_stack(chol, strided) - expect)) < 1e-12
        transposed = np.asfortranarray(rng.standard_normal((4, chol.N)))
        expect = np.stack([pobtas(chol, transposed[j]) for j in range(4)])
        assert np.max(np.abs(pobtas_stack(chol, transposed) - expect)) < 1e-12

    def test_integer_stack_promotes(self):
        _, chol, _ = _case(4, 2, 1)
        S = np.arange(2 * chol.N).reshape(2, chol.N)
        out = pobtas_stack(chol, S)
        assert out.dtype == np.float64


class TestFusedSelectedInversionSolve:
    @pytest.mark.parametrize("n,b,a", SHAPES)
    @pytest.mark.parametrize("batched", [True, False])
    def test_matches_separate_passes(self, n, b, a, batched):
        _, chol, rng = _case(n, b, a)
        rhs = rng.standard_normal((chol.N, 3))
        X, x = pobtasi_with_solve(chol, rhs, batched=batched)
        X0 = pobtasi(chol, batched=False)
        x0 = pobtas(chol, rhs, batched=False)
        for blk in ("diag", "lower", "arrow", "tip"):
            got, ref = getattr(X, blk), getattr(X0, blk)
            assert got.shape == ref.shape
            if got.size:
                assert np.max(np.abs(got - ref)) < 1e-10, blk
        assert np.max(np.abs(x - x0)) < 1e-10

    def test_vector_rhs_squeezes(self):
        _, chol, rng = _case(6, 4, 2)
        r = rng.standard_normal(chol.N)
        _, x = pobtasi_with_solve(chol, r)
        assert x.shape == (chol.N,)
        assert np.max(np.abs(x - pobtas(chol, r))) < 1e-12


class TestDistributedStack:
    """The distributed handle's row-major stacked solve (one collective
    round for the whole stack) against the sequential stacked solve."""

    @pytest.mark.parametrize("P", [2, 3])
    @pytest.mark.parametrize("n,b,a", [(10, 3, 2), (9, 4, 0)])
    def test_matches_sequential(self, P, n, b, a):
        A, chol, rng = _case(n, b, a)
        k = 5
        S = rng.standard_normal((k, A.N))
        expect = pobtas_stack(chol, S)
        got = d_factorize(A, P).solve_stack(S)
        assert got.shape == (k, A.N)
        assert np.max(np.abs(got - expect)) < 1e-10

    def test_vector_rhs_squeezes(self):
        A, chol, rng = _case(8, 3, 2)
        r = rng.standard_normal(A.N)
        got = d_factorize(A, 2).solve_stack(r)
        assert got.shape == (A.N,)
        assert np.max(np.abs(got - pobtas(chol, r))) < 1e-10

    def test_wrong_stack_width_raises(self):
        A, _, _ = _case(8, 3, 2)
        f = d_factorize(A, 2)
        with pytest.raises(ValueError, match="rhs stack must be"):
            f.solve_stack(np.zeros((3, A.N - A.a)))
        with pytest.raises(ValueError, match="rhs stack must be"):
            f.solve_lt_stack_lanes([np.zeros((3, A.N)), np.zeros((2, A.N + 1))])


@pytest.mark.filterwarnings("always::repro.inla.solvers.OneShotDeprecationWarning")
class TestSolverLevelStack:
    """Wrapper-own tests of the deprecated one-shot stack surface: they
    keep the legacy results pinned bit-exact, so they opt back out of the
    repo-wide warning-as-error escalation."""

    @pytest.mark.parametrize("solver", [SequentialSolver(), DistributedSolver(3)])
    def test_solve_stack(self, solver):
        A, chol, rng = _case(12, 3, 2)
        S = rng.standard_normal((4, A.N))
        ld, X = solver.solve_stack(A.copy(), S)
        assert np.isclose(ld, chol.logdet())
        assert X.shape == (4, A.N)
        assert np.max(np.abs(X - pobtas_stack(chol, S))) < 1e-10

    @pytest.mark.parametrize("solver", [SequentialSolver(), DistributedSolver(3)])
    def test_solve_stack_vector_rhs(self, solver):
        """1-D rhs is a k=1 stack for every solver (same squeeze contract)."""
        A, chol, rng = _case(12, 3, 2)
        r = rng.standard_normal(A.N)
        ld, x = solver.solve_stack(A.copy(), r)
        assert np.isclose(ld, chol.logdet())
        assert x.shape == (A.N,)
        assert np.max(np.abs(x - pobtas(chol, r))) < 1e-10

    @pytest.mark.parametrize("solver", [SequentialSolver(), DistributedSolver(3)])
    def test_fused_solve_and_variances(self, solver):
        A, chol, rng = _case(12, 3, 2)
        r = rng.standard_normal(A.N)
        ld, x, var = solver.solve_and_selected_inverse_diagonal(A.copy(), r)
        assert np.isclose(ld, chol.logdet())
        assert np.max(np.abs(x - pobtas(chol, r))) < 1e-10
        assert np.max(np.abs(var - pobtasi(chol).diagonal())) < 1e-10

    def test_base_class_fallback(self):
        """The generic (two-factorization) fallback stays correct."""
        A, chol, rng = _case(8, 3, 1)
        r = rng.standard_normal(A.N)
        ld, x, var = StructuredSolverFallback().solve_and_selected_inverse_diagonal(
            A.copy(), r
        )
        assert np.isclose(ld, chol.logdet())
        assert np.max(np.abs(x - pobtas(chol, r))) < 1e-10
        assert np.max(np.abs(var - pobtasi(chol).diagonal())) < 1e-10


class StructuredSolverFallback(SequentialSolver):
    """Subclass that deliberately does NOT override the fused method."""

    def solve_and_selected_inverse_diagonal(self, A, rhs):
        from repro.inla.solvers import StructuredSolver

        return StructuredSolver.solve_and_selected_inverse_diagonal(self, A, rhs)
