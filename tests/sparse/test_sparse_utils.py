"""Sparse utilities: permutations, BTA mapping, alignment."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.sparse.align import PatternAligner
from repro.sparse.mapping import BTAMapping
from repro.sparse.permutation import SymmetricPermutation, time_major_permutation
from repro.structured.bta import BTAShape


def _rand_sparse(rng, n, density=0.3):
    M = sp.random(n, n, density=density, random_state=np.random.RandomState(rng.integers(2**31)))
    return sp.csr_matrix(M + sp.identity(n))


class TestSymmetricPermutation:
    def test_identity(self, rng):
        p = SymmetricPermutation(np.arange(5))
        A = _rand_sparse(rng, 5)
        assert np.allclose(p.apply_matrix(A).toarray(), A.toarray())

    def test_apply_matrix_matches_dense(self, rng):
        perm = rng.permutation(6)
        p = SymmetricPermutation(perm)
        A = _rand_sparse(rng, 6)
        ref = A.toarray()[np.ix_(perm, perm)]
        assert np.allclose(p.apply_matrix(A).toarray(), ref)

    def test_vector_roundtrip(self, rng):
        p = SymmetricPermutation(rng.permutation(8))
        x = rng.standard_normal(8)
        assert np.allclose(p.undo_vector(p.apply_vector(x)), x)

    def test_not_a_permutation_rejected(self):
        with pytest.raises(ValueError):
            SymmetricPermutation(np.array([0, 0, 1]))

    def test_planned_apply_matches_generic(self, rng):
        perm = rng.permutation(7)
        p = SymmetricPermutation(perm)
        A = _rand_sparse(rng, 7)
        p.build_plan(A)
        ref = p.apply_matrix(A).toarray()
        # New values on the same pattern.
        B = A.copy()
        B.data = rng.standard_normal(B.nnz)
        assert np.allclose(p.apply_data(B).toarray(), p.apply_matrix(B).toarray())
        assert np.allclose(p.apply_data(A).toarray(), ref)

    def test_planned_apply_rejects_different_pattern(self, rng):
        p = SymmetricPermutation(rng.permutation(5))
        A = _rand_sparse(rng, 5, density=0.4)
        p.build_plan(A)
        B = _rand_sparse(rng, 5, density=0.9)
        if B.nnz != A.nnz or not np.array_equal(B.indices, A.indices):
            with pytest.raises(ValueError):
                p.apply_data(B)

    def test_apply_data_before_plan_rejected(self, rng):
        p = SymmetricPermutation(rng.permutation(4))
        with pytest.raises(RuntimeError):
            p.apply_data(_rand_sparse(rng, 4))

    def test_thread_safety_fresh_outputs(self, rng):
        """apply_data must return independent matrices (S1 concurrency)."""
        p = SymmetricPermutation(rng.permutation(5))
        A = _rand_sparse(rng, 5)
        p.build_plan(A)
        out1 = p.apply_data(A)
        B = A.copy()
        B.data = B.data * 2.0
        out2 = p.apply_data(B)
        assert not np.shares_memory(out1.data, out2.data)
        assert np.allclose(out2.toarray(), 2 * out1.toarray())


class TestTimeMajorPermutation:
    @settings(max_examples=20, deadline=None)
    @given(
        nv=st.integers(1, 3),
        ns=st.integers(1, 4),
        nt=st.integers(1, 4),
        nr=st.integers(0, 3),
    )
    def test_is_valid_permutation(self, nv, ns, nt, nr):
        p = time_major_permutation(nv, ns, nt, nr)
        assert sorted(p.perm.tolist()) == list(range(nv * (ns * nt + nr)))

    def test_layout_nv2(self):
        # nv=2, ns=2, nt=2, nr=1; old: [v0: t0(2), t1(2), f0 | v1: ...]
        p = time_major_permutation(2, 2, 2, 1)
        expected = [0, 1, 5, 6, 2, 3, 7, 8, 4, 9]
        assert p.perm.tolist() == expected

    def test_univariate_identity(self):
        p = time_major_permutation(1, 3, 2, 2)
        assert p.perm.tolist() == list(range(8))


class TestBTAMapping:
    def _bta_pattern_matrix(self, rng, shape):
        from repro.structured.bta import BTAMatrix

        A = BTAMatrix.random_spd(shape, rng)
        dense = A.to_dense()
        # Sparsify: zero a few entries inside the pattern.
        Q = sp.csr_matrix(dense)
        return A, Q

    def test_roundtrip(self, rng):
        shape = BTAShape(n=4, b=3, a=2)
        A, Q = self._bta_pattern_matrix(rng, shape)
        mapping = BTAMapping(Q, shape)
        out = mapping.map(Q)
        assert np.allclose(out.to_dense(), A.to_dense())

    def test_bt_case(self, rng):
        shape = BTAShape(n=5, b=2, a=0)
        A, Q = self._bta_pattern_matrix(rng, shape)
        out = BTAMapping(Q, shape).map(Q)
        assert np.allclose(out.to_dense(), A.to_dense())

    def test_out_reuse(self, rng):
        shape = BTAShape(n=3, b=2, a=1)
        A, Q = self._bta_pattern_matrix(rng, shape)
        mapping = BTAMapping(Q, shape)
        buf = mapping.map(Q)
        Q2 = Q.copy()
        Q2.data = Q2.data * 3.0
        out = mapping.map(Q2, out=buf)
        assert out is buf
        assert np.allclose(out.to_dense(), 3.0 * A.to_dense())

    def test_entry_outside_pattern_rejected(self, rng):
        shape = BTAShape(n=4, b=2, a=0)
        bad = sp.lil_matrix((shape.N, shape.N))
        bad[0, 7] = 1.0  # two blocks away from the diagonal
        bad[7, 0] = 1.0
        with pytest.raises(ValueError):
            BTAMapping(bad.tocsr(), shape)

    def test_changed_pattern_rejected(self, rng):
        shape = BTAShape(n=3, b=2, a=1)
        A, Q = self._bta_pattern_matrix(rng, shape)
        mapping = BTAMapping(Q, shape)
        sub = sp.csr_matrix(sp.triu(Q))
        with pytest.raises(ValueError):
            mapping.map(sub)


class TestPatternAligner:
    def test_alignment_preserves_values(self, rng):
        full = _rand_sparse(rng, 6, density=0.6)
        aligner = PatternAligner(full)
        # A strict sub-pattern of `full`.
        sub = full.copy()
        sub.data = sub.data.copy()
        sub.data[::2] = 0.0
        sub.eliminate_zeros()
        out = aligner.align(sub)
        assert out.nnz == aligner.nnz
        assert np.allclose(out.toarray(), sub.toarray())

    def test_entry_outside_pattern_rejected(self, rng):
        base = sp.identity(5, format="csr")
        aligner = PatternAligner(base)
        extra = sp.lil_matrix((5, 5))
        extra[0, 3] = 2.0
        with pytest.raises(ValueError):
            aligner.align(sp.csr_matrix(extra))

    def test_cache_and_fresh_output(self, rng):
        full = _rand_sparse(rng, 5, density=0.8)
        aligner = PatternAligner(full)
        out1 = aligner.align(full)
        out2 = aligner.align(full)
        assert not np.shares_memory(out1.data, out2.data)
        assert np.allclose(out1.toarray(), out2.toarray())
