"""The collective schedule of the distributed sweeps, pinned per call.

The benchmark ledger's ``comm.collectives`` / ``comm.messages`` /
``comm.bytes`` rows count exactly these calls, so the schedule is a
contract, not an implementation detail:

- ``d_pobtas`` makes one ``Allreduce`` (the tip deltas, ``a k`` doubles;
  still made when ``a = 0`` so every rank runs the same schedule) and one
  ``Allgather`` (the boundary panels: ``b k`` doubles on the first
  partition, ``2 b k`` on the others, times ``P`` on the wire);
- ``d_pobtas_lt`` makes the ``Allgather`` only;
- the factor handle's stacked and multi-lane solves make one round for
  the whole call, whatever the number of lanes, with the byte counts of
  the lanes' total width.

Every rank's communicator is wrapped in :class:`TraceComm`; counts are
per rank.
"""

import numpy as np
import pytest

from repro.comm import CommStats, TraceComm
from repro.comm.local import run_spmd
from repro.structured import factor as factor_mod
from repro.structured.bta import BTAMatrix, BTAShape
from repro.structured.d_pobtaf import d_pobtaf, partition_matrix
from repro.structured.d_pobtas import d_pobtas, d_pobtas_lt
from repro.structured.factor import d_factorize

N_BLOCKS, B = 10, 3
P = 2
WIDTHS = (1, 5, 3)


def _case(a, seed=0):
    rng = np.random.default_rng(seed)
    A = BTAMatrix.random_spd(BTAShape(n=N_BLOCKS, b=B, a=a), rng)
    return A, rng


def _sweep_stats(A, rhs, sweep):
    """Per-rank ``CommStats`` of one ``sweep`` call (factorization untraced)."""
    slices = partition_matrix(A, P, lb=1.6)

    def rank_fn(comm):
        sl = slices[comm.Get_rank()]
        f = d_pobtaf(sl, comm)
        stats = CommStats()
        local = rhs[sl.part.start * B : sl.part.stop * B]
        sweep(f, local, rhs[A.n * B :], TraceComm(comm, stats))
        return stats

    return run_spmd(P, rank_fn)


def _expected(a, k, *, lt):
    """Per-rank ``(counts, bytes)`` for one round carrying ``k`` columns."""
    out = []
    for rows in (B, 2 * B):  # boundary rows: first partition, then the rest
        counts = {"allgather": 1}
        nbytes = {"allgather": rows * k * 8 * P}
        if not lt:
            counts["allreduce"] = 1
            nbytes["allreduce"] = a * k * 8
        out.append((counts, nbytes))
    return out


@pytest.mark.parametrize("a", [2, 0])
@pytest.mark.parametrize("k", [None, 4])
def test_d_pobtas_one_allreduce_one_allgather(a, k):
    A, rng = _case(a)
    rhs = rng.standard_normal(A.N if k is None else (A.N, k))
    stats = _sweep_stats(A, rhs, d_pobtas)
    expected = _expected(a, k or 1, lt=False)
    assert [(s.counts, s.bytes) for s in stats] == expected


@pytest.mark.parametrize("a", [2, 0])
def test_d_pobtas_lt_one_allgather(a):
    A, rng = _case(a)
    rhs = rng.standard_normal((A.N, 4))
    stats = _sweep_stats(A, rhs, d_pobtas_lt)
    assert [(s.counts, s.bytes) for s in stats] == _expected(a, 4, lt=True)


@pytest.fixture
def traced_handle_epochs(monkeypatch):
    """Wrap the rank communicators of every thread-rank handle epoch."""
    epochs = []
    real = factor_mod.run_spmd

    def traced(nranks, fn, *args, **kwargs):
        stats = [CommStats() for _ in range(nranks)]

        def rank_fn(comm, *a, **kw):
            return fn(TraceComm(comm, stats[comm.Get_rank()]), *a, **kw)

        out = real(nranks, rank_fn, *args, **kwargs)
        epochs.append(stats)
        return out

    monkeypatch.setattr(factor_mod, "run_spmd", traced)
    return epochs


@pytest.mark.parametrize("a", [2, 0])
@pytest.mark.parametrize("lt", [False, True])
def test_handle_lanes_share_one_round(traced_handle_epochs, a, lt):
    A, rng = _case(a)
    f = d_factorize(A, P)
    stacks = [rng.standard_normal((w, A.N)) for w in WIDTHS]
    traced_handle_epochs.clear()
    if lt:
        f.solve_lt_stack_lanes(stacks)
        f.solve_lt_stack(stacks[1])
    else:
        f.solve_stack_lanes(stacks)
        f.solve_stack(stacks[1])
    lanes, stack = traced_handle_epochs
    assert [(s.counts, s.bytes) for s in lanes] == _expected(a, sum(WIDTHS), lt=lt)
    assert [(s.counts, s.bytes) for s in stack] == _expected(a, WIDTHS[1], lt=lt)
