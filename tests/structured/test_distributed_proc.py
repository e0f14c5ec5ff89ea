"""d_pobtaf / d_pobtas / d_pobtasi under real worker processes.

Acceptance coverage for the process backend: the full distributed sweep
family running over :class:`~repro.comm.shm.ShmComm` must be BIT-IDENTICAL
to the thread backend (same reductions in the same rank order) and agree
with the sequential solver to 1e-10.  Also exercises the persistent
process-rank :class:`~repro.structured.factor.DistributedBTAFactor`
handle, whose workers keep their factor slices resident across epochs.

Rank functions are module-level so they stay picklable under any start
method.
"""

import numpy as np
import pytest

from repro.comm import run_spmd
from repro.structured.bta import BTAMatrix, BTAShape
from repro.structured.d_pobtaf import d_pobtaf, partition_matrix
from repro.structured.d_pobtas import d_pobtas
from repro.structured.d_pobtasi import d_pobtasi_diag
from repro.structured.factor import (
    DistributedBTAFactor,
    d_factorize,
    d_factorize_proc,
)
from repro.structured.kernels import NotPositiveDefiniteError
from repro.structured.pobtaf import pobtaf
from repro.structured.pobtas import pobtas
from repro.structured.pobtasi import selected_inverse_diagonal


def _case(n=11, b=3, a=2, seed=0):
    rng = np.random.default_rng(seed)
    return BTAMatrix.random_spd(BTAShape(n=n, b=b, a=a), rng)


def _epoch(comm, slices, rhs, batched):
    """One full distributed epoch: factorize, logdet, solve, selinv diag."""
    sl = slices[comm.Get_rank()]
    b, start, stop = sl.diag.shape[1], sl.part.start, sl.part.stop
    f = d_pobtaf(sl, comm, batched=batched)
    ld = f.logdet(comm, batched=batched)
    n_total = rhs.shape[0]  # n*b + a; tip lives past the block section
    tip_at = n_total - f.a
    xl, xt = d_pobtas(f, rhs[start * b : stop * b], rhs[tip_at:], comm, batched=batched)
    var_local, var_tip = d_pobtasi_diag(f, batched=batched)
    return ld, xl, xt, var_local, var_tip


def _npd_epoch(comm, slices):
    return d_pobtaf(slices[comm.Get_rank()], comm)


def _assemble(out, tip_index):
    x = np.concatenate([o[1] for o in out] + [out[0][2]])
    var = np.concatenate([o[3] for o in out] + [out[0][4]])
    return out[0][0], x, var


class TestProcMatchesThreadsAndSequential:
    @pytest.mark.parametrize("P", [2, 4])
    @pytest.mark.parametrize("batched", [False, True])
    def test_epoch_bitwise_and_vs_sequential(self, P, batched):
        A = _case()
        rng = np.random.default_rng(1)
        rhs = rng.standard_normal(A.n * A.b + A.a)
        slices = partition_matrix(A, P, lb=1.6)

        proc = run_spmd(P, _epoch, slices, rhs, batched, backend="proc")
        thr = run_spmd(P, _epoch, slices, rhs, batched, backend="threads")

        # Bit-identity between backends: same ordered reductions.
        for po, to in zip(proc, thr):
            assert po[0] == to[0]  # logdet
            for pa, ta in zip(po[1:], to[1:]):
                assert np.array_equal(pa, ta)

        # 1e-10 agreement with the sequential solver.
        chol = pobtaf(A, batched=batched)
        ld, x, var = _assemble(proc, A.n * A.b)
        assert np.isclose(ld, chol.logdet(batched=batched), atol=1e-10)
        assert np.allclose(x, pobtas(chol, rhs, batched=batched), atol=1e-10)
        assert np.allclose(var, selected_inverse_diagonal(chol, batched=batched), atol=1e-10)

    def test_not_positive_definite_propagates(self):
        A = _case()
        A.diag[2] -= 50.0 * np.eye(A.b)  # make a partition interior indefinite
        slices = partition_matrix(A, 2, lb=1.6)
        with pytest.raises(RuntimeError) as info:
            run_spmd(2, _npd_epoch, slices, backend="proc")
        cause = info.value.__cause__
        assert isinstance(cause, NotPositiveDefiniteError)


class TestProcFactorHandle:
    @pytest.mark.parametrize("batched", [False, True])
    def test_epoch_reuse_matches_thread_handle(self, batched):
        A = _case(seed=3)
        rng = np.random.default_rng(4)
        rhs = rng.standard_normal(A.N)
        stack = rng.standard_normal((3, A.N))

        ref: DistributedBTAFactor = d_factorize(A, 4, batched=batched)
        with d_factorize_proc(A, 4, batched=batched) as h:
            assert isinstance(h, DistributedBTAFactor)
            assert (h.P, h.n, h.b, h.a, h.N) == (ref.P, ref.n, ref.b, ref.a, ref.N)
            # One factorization epoch, many solve epochs against resident
            # factors — every result bit-identical to the thread handle.
            assert h.logdet() == ref.logdet()
            assert np.array_equal(h.solve(rhs), ref.solve(rhs))
            assert np.array_equal(h.solve_stack(stack), ref.solve_stack(stack))
            assert np.array_equal(h.solve_lt_stack(stack), ref.solve_lt_stack(stack))
            assert np.array_equal(
                h.selected_inverse_diagonal(), ref.selected_inverse_diagonal()
            )
            x, var = h.solve_and_selected_inverse_diagonal(rhs)
            x_ref, var_ref = ref.solve_and_selected_inverse_diagonal(rhs)
            assert np.array_equal(x, x_ref)
            assert np.array_equal(var, var_ref)
            # Second solve epoch on the same resident factors.
            assert np.array_equal(h.solve(rhs), x_ref)

    def test_sample_covariance_shape_and_determinism(self):
        A = _case(seed=5)
        with d_factorize_proc(A, 2) as h:
            s1 = h.sample(4, np.random.default_rng(9))
            s2 = h.sample(4, np.random.default_rng(9))
        assert s1.shape == (4, A.N)
        assert np.array_equal(s1, s2)

    def test_solve_matches_sequential(self):
        A = _case(seed=6)
        rhs = np.random.default_rng(7).standard_normal(A.N)
        x_ref = pobtas(pobtaf(A), rhs)
        with d_factorize_proc(A, 4) as h:
            assert np.allclose(h.solve(rhs), x_ref, atol=1e-10)

    def test_close_releases_workers(self):
        A = _case(seed=8)
        h = d_factorize_proc(A, 2)
        ld = h.logdet()
        h.close()
        h.close()  # idempotent
        assert np.isfinite(ld)
        with pytest.raises(RuntimeError, match="closed"):
            h.solve(np.zeros(A.N))

    def test_not_positive_definite_raises_and_cleans_up(self):
        A = _case(seed=9)
        A.diag[1] -= 50.0 * np.eye(A.b)
        with pytest.raises(NotPositiveDefiniteError):
            d_factorize_proc(A, 2)

    def test_p1_runs_inline(self):
        A = _case(seed=10)
        with d_factorize_proc(A, 1) as h:
            assert np.isclose(h.logdet(), pobtaf(A).logdet(), atol=1e-10)
