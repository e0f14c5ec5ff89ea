"""Process-level SPMD launcher.

Plays the role of ``mpiexec -n P`` with real OS processes: creates ONE
shared-memory segment sized for the world, forks ``P`` workers that attach
a :class:`~repro.comm.shm.ShmComm` each, runs the SPMD function on every
rank, and tears the segment down on every exit path.

Two entry points:

- :func:`run_spmd` — backend dispatcher.  ``backend="threads"`` (default,
  or ``REPRO_COMM``) delegates to the thread launcher; ``"proc"`` does a
  one-shot process launch where the SPMD function is baked into the child
  at fork time — so closures work under the default ``fork`` start method
  exactly as they do with threads (under ``spawn`` the function must be
  module-level picklable); ``"mpi"`` uses the mpi4py adapter when the
  package exists.
- :class:`SpmdSession` — persistent workers for epoch reuse: the segment
  and the ``P`` processes stay up across many :meth:`SpmdSession.run`
  calls, and per-worker state survives between calls via
  :func:`worker_store` (this is how a process-rank
  ``DistributedBTAFactor`` from ``d_factorize_proc`` keeps each rank's
  factor slices resident between factorize/solve epochs).
  Session jobs travel over pipes, so their functions must be module-level
  picklable regardless of start method.

Failure semantics: a worker that raises aborts the segment (peers
unblock with :class:`CommAbortError`) and ships its traceback to the
parent; a worker that *dies* (killed, segfault) is detected by the
parent's liveness poll, which aborts the segment on its behalf and
raises a :class:`CommAbortError` naming the dead rank and exit code —
never a hang.  The creator unlinks the segment in a ``finally``.

Self-healing (ISSUE 10): a :class:`SpmdSession` run that fails at the
*communication* level — a killed worker, an aborted collective, a comm
timeout, an injected transient fault — no longer poisons the session
permanently.  The session tears the segment down, respawns all workers,
replays every warm-up epoch recorded via ``run(..., warmup=True)`` (so
``worker_store`` state is rebuilt), and retries the failed epoch, up to
``REPRO_SPMD_RETRIES`` times.  Only when the budget is exhausted does it
raise — a :class:`~repro.errors.SpmdRetryExhaustedError` carrying the
full per-attempt failure ``history``.  *Application* errors (a genuine
exception from the SPMD function, e.g. a non-SPD matrix) propagate
immediately without retry; they still mark the session for respawn so
the next ``run`` starts from a clean segment.

Deterministic chaos hooks (see :mod:`repro.faults`): each worker checks
``spmd.worker.bootstrap.r<rank>`` at startup (indexed by spawn
generation) and ``spmd.worker.kill.r<rank>`` before each job (indexed by
dispatch sequence), dying via ``os._exit`` when the plan fires — the
indices are parent-side counters, so schedules hold across respawns.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import secrets
import time
import traceback
from multiprocessing import shared_memory
from typing import Callable

import numpy as np

from repro import faults
from repro.comm.errors import (
    CommAbortError,
    CommError,
    SpmdRetryExhaustedError,
    comm_timeout,
)
from repro.comm.shm import ShmComm, segment_bytes
from repro.errors import is_transient

#: Module-level per-worker state, preserved across SpmdSession.run calls.
_WORKER_STORE: dict = {}

_SENTINEL = None  # job value that tells a session worker to exit

#: Exit codes of chaos-killed workers (recognizable in CommAbortError text).
_EXIT_FAULT_KILL = 77
_EXIT_FAULT_BOOTSTRAP = 78

#: Failures pickling an exception payload for the parent.  Anything else
#: escaping ``pickle.dumps`` is a real bug we want to see, not swallow.
_PICKLE_ERRORS = (pickle.PicklingError, TypeError, AttributeError, RecursionError, ValueError)


def worker_store() -> dict:
    """Mutable per-process dict for cross-epoch worker state.

    Inside an SPMD function running under a :class:`SpmdSession`, values
    stored here survive until the session closes (each worker process has
    its own store).  Under threads or one-shot proc runs it is ephemeral.
    Respawned workers start with an empty store; the session rebuilds it
    by replaying warm-up epochs.
    """
    return _WORKER_STORE


def default_start_method() -> str:
    """``REPRO_SPMD_START`` if set, else ``fork`` when available (closures
    and test fixtures keep working), else ``spawn``."""
    env = os.environ.get("REPRO_SPMD_START", "")
    if env:
        return env
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def spmd_retries() -> int:
    """Per-epoch comm-failure retry budget (``REPRO_SPMD_RETRIES``, >= 0)."""
    raw = os.environ.get("REPRO_SPMD_RETRIES", "")
    retries = int(raw) if raw else 2
    if retries < 0:
        raise ValueError(f"REPRO_SPMD_RETRIES must be >= 0, got {retries}")
    return retries


def _is_comm_failure(exc: BaseException) -> bool:
    """Retryable? — a comm-layer failure or a transient (injected) fault.

    Worker exceptions arrive wrapped (``RuntimeError from cause``), so the
    ``__cause__`` chain is walked.  Application errors — the SPMD function
    genuinely raising — are NOT retryable: re-running the same epoch on
    the same inputs would fail the same way.
    """
    e: BaseException | None = exc
    while e is not None:
        # Pipe-level failures (a dead worker resets its job pipe) are comm
        # failures too — dispatch hit the corpse before _collect could.
        if isinstance(e, (CommError, ConnectionError, EOFError)):
            return True
        e = e.__cause__
    return is_transient(exc)


class _Segment:
    """Parent-side handle on the world segment (creator: owns unlink)."""

    def __init__(self, world_size: int):
        self.world_size = world_size
        for _ in range(8):
            name = f"repro-spmd-{os.getpid()}-{secrets.token_hex(4)}"
            try:
                self.shm = shared_memory.SharedMemory(
                    name=name, create=True, size=segment_bytes(world_size)
                )
                break
            except FileExistsError:  # pragma: no cover - astronomically unlikely
                continue
        else:  # pragma: no cover
            raise RuntimeError("could not allocate a shared-memory segment name")
        self._flag = np.ndarray((1,), np.dtype("<i8"), buffer=self.shm.buf, offset=0)
        self._rank = np.ndarray((1,), np.dtype("<i8"), buffer=self.shm.buf, offset=8)

    @property
    def name(self) -> str:
        return self.shm.name

    def abort(self, failed_rank: int | None = None) -> None:
        if failed_rank is not None and int(self._rank[0]) == 0:
            self._rank[0] = failed_rank + 1
        self._flag[0] = 1

    def aborted(self) -> bool:
        return int(self._flag[0]) != 0

    def destroy(self) -> None:
        self._flag = self._rank = None
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover
            pass
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover
            pass


def _run_job(
    comm: ShmComm, conn, fn: Callable, args: tuple, kwargs: dict, epoch: int | None = None
) -> None:
    """Execute one SPMD job and report the outcome over the pipe."""
    rank = comm.Get_rank()
    if epoch is not None:
        # Chaos schedules inside collectives index by dispatch sequence so
        # they survive respawns (a fresh process restarts its own counter).
        comm.fault_index = epoch
    if faults.should_fire(f"spmd.worker.kill.r{rank}", index=epoch):
        os._exit(_EXIT_FAULT_KILL)  # simulate SIGKILL/OOM: no reply, no cleanup
    try:
        result = fn(comm, *args, **kwargs)
    except BaseException as exc:  # noqa: BLE001 - must abort peers, not hang them
        comm.abort(rank)
        tb = traceback.format_exc()
        payload: BaseException = exc
        try:  # ship the real exception when it pickles, else a faithful stand-in
            pickle.dumps(payload)
        except _PICKLE_ERRORS as perr:
            payload = RuntimeError(
                f"rank {rank} raised unpicklable {type(exc).__name__}: {exc}"
            )
            payload.__cause__ = perr  # why the original could not travel
            try:
                pickle.dumps(payload)
            except _PICKLE_ERRORS:  # the pickling error itself does not pickle
                payload.__cause__ = None
        conn.send(("err", rank, tb, payload))
    else:
        conn.send(("ok", result))


def _oneshot_main(name: str, size: int, rank: int, conn, fn, args, kwargs) -> None:
    comm = ShmComm.attach(name, size, rank)
    try:
        _run_job(comm, conn, fn, args, kwargs)
    finally:
        comm.close()
        conn.close()


def _session_main(name: str, size: int, rank: int, conn, generation: int = 0) -> None:
    if faults.should_fire(f"spmd.worker.bootstrap.r{rank}", index=generation):
        os._exit(_EXIT_FAULT_BOOTSTRAP)  # simulate a worker lost at startup
    comm = ShmComm.attach(name, size, rank)
    try:
        while True:
            job = conn.recv()
            if job is _SENTINEL:
                break
            epoch, fn, args, kwargs = job
            _run_job(comm, conn, fn, args, kwargs, epoch)
    except (EOFError, KeyboardInterrupt):  # pragma: no cover - parent vanished
        pass
    finally:
        _WORKER_STORE.clear()
        comm.close()
        conn.close()


def _collect(segment: _Segment, procs: list, conns: list) -> list:
    """Gather one reply per rank; diagnose crashes; never hang.

    Returns the list of raw replies.  Raises :class:`CommAbortError` for a
    dead worker and ``RuntimeError from cause`` for a raised exception,
    preferring primary errors over secondary abort fallout.
    """
    size = len(procs)
    replies: list = [None] * size
    pending = set(range(size))
    crashed: list = []
    drain_deadline: float | None = None
    while pending:
        for r in sorted(pending):
            if conns[r].poll(0.02):
                try:
                    replies[r] = conns[r].recv()
                    pending.discard(r)
                except EOFError:
                    segment.abort(r)
                    crashed.append((r, procs[r].exitcode))
                    pending.discard(r)
        for r in sorted(pending):
            if not procs[r].is_alive() and not conns[r].poll(0):
                # Died without a reply (the poll(0) guards against the race
                # where the reply is in flight while the worker exits): abort
                # the group on its behalf so the survivors unblock, then give
                # them one timeout to drain.
                segment.abort(r)
                crashed.append((r, procs[r].exitcode))
                pending.discard(r)
        if crashed and drain_deadline is None:
            drain_deadline = time.monotonic() + comm_timeout() + 5.0
        if drain_deadline is not None and time.monotonic() > drain_deadline:
            break  # caller terminates stragglers
    if crashed:
        rank, code = crashed[0]
        raise CommAbortError(
            f"SPMD worker rank {rank} died without replying (exitcode {code})",
            failed_rank=rank,
        )
    errors = [
        (r, tb, exc)
        for r, reply in enumerate(replies)
        if reply is not None and reply[0] == "err"
        for (_, _, tb, exc) in [reply]
    ]
    if errors:
        primaries = [e for e in errors if not isinstance(e[2], CommAbortError)]
        rank, tb, exc = (primaries or errors)[0]
        if exc is None:
            exc = RuntimeError(f"rank {rank} raised an unpicklable exception")
        raise RuntimeError(
            f"SPMD rank {rank} failed\n--- remote traceback (rank {rank}) ---\n{tb}"
        ) from exc
    return [reply[1] for reply in replies]


class SpmdSession:
    """Persistent ``P``-process SPMD group over one shared segment.

    Use as a context manager; :meth:`run` executes a module-level picklable
    function ``fn(comm, *args, **kwargs)`` on every rank and returns the
    per-rank results ordered by rank.

    The session self-heals: a run that fails at the communication level
    (dead worker, aborted/timed-out collective, injected transient fault)
    respawns the worker group — fresh segment, fresh processes, warm-up
    epochs replayed — and retries, up to :func:`spmd_retries` times,
    raising :class:`SpmdRetryExhaustedError` with the full failure
    history only when the budget is spent.  Epochs the session must
    replay after a respawn (state-building factorize epochs) are marked
    ``run(..., warmup=True)``.  Application errors propagate immediately
    but leave the session healable: the next :meth:`run` respawns first.
    """

    def __init__(self, nranks: int, *, start_method: str | None = None):
        if nranks < 1:
            raise ValueError("nranks must be >= 1")
        self.nranks = nranks
        self._needs_respawn = False
        self._closed = False
        self._ctx = mp.get_context(start_method or default_start_method())
        self._generation = 0  # spawn generation (bumped on every respawn)
        self._epoch = 0  # dispatch sequence (bumped on every dispatch, retries too)
        self._warmups: list = []  # (fn, args, kwargs) to replay after respawn
        self.respawns = 0  # observability: how often the session healed
        self._procs: list = []
        self._conns: list = []
        self._segment = _Segment(nranks)
        try:
            self._spawn()
        except BaseException:
            self.close()
            raise

    # -- worker lifecycle --------------------------------------------------

    def _spawn(self) -> None:
        for r in range(self.nranks):
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            p = self._ctx.Process(
                target=_session_main,
                args=(self._segment.name, self.nranks, r, child_conn, self._generation),
                daemon=True,
                name=f"repro-spmd-{r}",
            )
            p.start()
            child_conn.close()
            self._procs.append(p)
            self._conns.append(parent_conn)

    def _teardown(self) -> None:
        """Stop workers and release the segment (session stays usable)."""
        for conn in self._conns:
            try:
                conn.send(_SENTINEL)
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + 5.0
        for p in self._procs:
            p.join(timeout=max(0.1, deadline - time.monotonic()))
        for p in self._procs:
            if p.is_alive():
                self._segment.abort()
                p.terminate()
                p.join(timeout=2.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        self._procs, self._conns = [], []
        self._segment.destroy()

    def _respawn(self) -> None:
        """Heal: fresh segment + workers, then rebuild worker_store state.

        Warm-up replay failures propagate to the caller's retry loop —
        they count against the same budget as the epoch being retried.
        """
        self._teardown()
        self._segment = _Segment(self.nranks)
        self._generation += 1
        self.respawns += 1
        self._spawn()
        self._needs_respawn = False
        for fn, args, kwargs in self._warmups:
            self._dispatch(fn, args, kwargs)

    def _dead_rank(self) -> int | None:
        for r, p in enumerate(self._procs):
            if not p.is_alive():
                return r
        return None

    def _dispatch(self, fn: Callable, args: tuple, kwargs: dict) -> list:
        """One epoch, one attempt: send to every rank, collect every reply."""
        epoch = self._epoch
        self._epoch += 1
        for conn in self._conns:
            conn.send((epoch, fn, args, kwargs))
        return _collect(self._segment, self._procs, self._conns)

    # -- the public epoch API ---------------------------------------------

    def run(self, fn: Callable, *args, warmup: bool = False, **kwargs) -> list:
        """Run one SPMD epoch with comm-failure recovery.

        ``warmup=True`` records this epoch for replay after any future
        respawn (use for epochs that build ``worker_store`` state).
        """
        if self._closed:
            raise RuntimeError("SpmdSession is closed")
        history: list = []
        attempts = spmd_retries() + 1
        for attempt in range(attempts):
            try:
                if self._needs_respawn or self._dead_rank() is not None:
                    self._respawn()
                results = self._dispatch(fn, args, kwargs)
            except BaseException as exc:  # noqa: BLE001 - classified below
                self._needs_respawn = True
                if not _is_comm_failure(exc):
                    raise  # application error: retrying cannot help
                history.append(exc)
                if attempt + 1 >= attempts:
                    failed = getattr(exc, "failed_rank", None)
                    raise SpmdRetryExhaustedError(
                        f"SPMD epoch failed {len(history)} time(s), retry budget "
                        f"({attempts - 1}) exhausted; last failure: {exc}",
                        failed_rank=failed,
                        history=history,
                    ) from exc
            else:
                if warmup:
                    self._warmups.append((fn, args, kwargs))
                return results
        raise AssertionError("unreachable")  # pragma: no cover

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._warmups.clear()
        self._teardown()

    def __enter__(self) -> "SpmdSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _run_spmd_proc(
    nranks: int, fn: Callable, args: tuple, kwargs: dict, start_method: str | None
) -> list:
    """One-shot process launch: fn is baked into each child at fork time."""
    ctx = mp.get_context(start_method or default_start_method())
    segment = _Segment(nranks)
    procs: list = []
    conns: list = []
    try:
        for r in range(nranks):
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            p = ctx.Process(
                target=_oneshot_main,
                args=(segment.name, nranks, r, child_conn, fn, args, kwargs),
                daemon=True,
                name=f"repro-spmd-{r}",
            )
            p.start()
            child_conn.close()
            procs.append(p)
            conns.append(parent_conn)
        return _collect(segment, procs, conns)
    finally:
        for p in procs:
            if p.is_alive():
                segment.abort()
                p.join(timeout=2.0)
            if p.is_alive():  # pragma: no cover - terminate stragglers
                p.terminate()
                p.join(timeout=2.0)
        for conn in conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        segment.destroy()


def comm_backend() -> str:
    """The SPMD backend selected by ``REPRO_COMM`` (default ``threads``)."""
    return os.environ.get("REPRO_COMM", "") or "threads"


def run_spmd(
    nranks: int,
    fn: Callable,
    *args,
    backend: str | None = None,
    start_method: str | None = None,
    **kwargs,
) -> list:
    """Run ``fn(comm, *args, **kwargs)`` on ``nranks`` SPMD ranks.

    ``backend`` is one of ``"threads"`` (rank = thread, :class:`ThreadComm`),
    ``"proc"`` (rank = process, :class:`ShmComm` over shared memory), or
    ``"mpi"`` (mpi4py, when installed); ``None`` consults ``REPRO_COMM``.
    Returns per-rank results ordered by rank.  ``nranks == 1`` always runs
    inline on a :class:`SerialComm` — no threads or processes involved.
    """
    chosen = backend or comm_backend()
    if nranks < 1:
        raise ValueError("nranks must be >= 1")
    if nranks == 1:
        from repro.comm.serial import SerialComm

        return [fn(SerialComm(), *args, **kwargs)]
    if chosen in ("threads", "thread", "local"):
        from repro.comm.local import run_spmd as run_threads

        return run_threads(nranks, fn, *args, **kwargs)
    if chosen == "proc":
        return _run_spmd_proc(nranks, fn, args, kwargs, start_method)
    if chosen == "mpi":
        from repro.comm.mpi import run_spmd_mpi

        return run_spmd_mpi(nranks, fn, *args, **kwargs)
    raise ValueError(f"unknown SPMD backend {chosen!r} (threads|proc|mpi)")
