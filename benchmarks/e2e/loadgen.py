"""Load generation and sample statistics for the benchmark phases.

Three small pieces, each with an injectable clock so ``test_harness.py``
can drive them without waiting:

- :func:`repeat` — run an operation for a time budget (or a fixed count)
  and return the per-call wall times;
- :func:`open_loop` — submit on a fixed schedule regardless of
  completions, sleeping (never spinning) until each request is due, and
  timing each request from its *due* time;
- :func:`summarize` / :func:`tail_percentile` — median, quartiles and
  the highest percentile the sample supports.
"""

from __future__ import annotations

import statistics
import time
from concurrent.futures import CancelledError
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass

import numpy as np

#: Percentile ladder for tail reporting: (percentile, one sample in ... lies beyond it).
LADDER = ((50.0, 2), (90.0, 10), (95.0, 20), (99.0, 100), (99.9, 1000))


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ten samples beyond it."""
    best = None
    for p, one_in in LADDER:
        if n >= 10 * one_in:
            best = p
    return best


def summarize(samples) -> dict:
    """Median, quartiles and count of a timing sample."""
    xs = [float(x) for x in samples]
    if len(xs) >= 2:
        q1, med, q3 = statistics.quantiles(xs, n=4)
    else:
        q1 = med = q3 = xs[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(xs)}


def repeat(
    op, *, seconds=None, count=None, prepare=None, first=0, clock=time.perf_counter
) -> list:
    """Call ``op`` repeatedly; return each call's wall time.

    ``op`` receives ``prepare(i)`` — built outside the timed region — or
    the repeat index ``i`` when there is no ``prepare``; ``i`` counts from
    ``first`` so a phase resumed in a later slice moves on.  With ``count``
    the loop is exact (the traced pass, whose call counts must repeat).
    With ``seconds`` it runs at least once and stops as soon as one more
    call at the median pace would overrun the budget, so a phase whose
    single operation nearly fills its budget runs the same number of
    times on every run.
    """
    if (seconds is None) == (count is None):
        raise ValueError("give exactly one of seconds and count")
    times = []
    deadline = None if seconds is None else clock() + seconds
    while True:
        i = first + len(times)
        arg = i if prepare is None else prepare(i)
        t0 = clock()
        op(arg)
        t1 = clock()
        times.append(t1 - t0)
        if count is not None:
            if len(times) >= count:
                return times
        elif t1 + statistics.median(times) > deadline:
            return times


@dataclass
class OpenLoopResult:
    """Per-request times of one open-loop phase, all relative to phase start."""

    due: np.ndarray  # scheduled submit times
    sent: np.ndarray  # when submit() was actually entered
    done: np.ndarray  # when the future resolved (nan: never, or failed)
    ok: np.ndarray  # resolved without error

    @property
    def latency(self) -> np.ndarray:
        """Completion minus *due* time: a late generator or a stalled
        server both count against the request."""
        return self.done - self.due

    @property
    def lateness(self) -> np.ndarray:
        """How late the generator entered submit()."""
        return self.sent - self.due

    def within(self, limit_s: float) -> float:
        """Share of scheduled requests that resolved OK within ``limit_s``
        of their due time; failed, refused and unresolved ones are misses."""
        good = self.ok & np.isfinite(self.done) & (self.latency <= limit_s)
        return float(np.count_nonzero(good)) / len(self.due)


def schedule(rate: float, seconds: float) -> np.ndarray:
    """Evenly spaced due times: ``round(rate * seconds)`` requests."""
    n = max(1, int(round(rate * seconds)))
    return np.arange(n) / rate


def open_loop(
    submit,
    due: np.ndarray,
    *,
    clock=time.perf_counter,
    sleep=time.sleep,
    drain_timeout: float = 30.0,
) -> OpenLoopResult:
    """Drive ``submit(i) -> Future`` on the ``due`` schedule.

    The generator sleeps until each request is due; when it falls behind
    it submits immediately and the lag shows up as lateness, not as a
    lower offered rate.  A submit that raises (admission refused) is a
    failed request.  Completion times are stamped by a done-callback on
    the resolving thread.
    """
    n = len(due)
    sent = np.full(n, np.nan)
    done = np.full(n, np.nan)
    ok = np.zeros(n, dtype=bool)
    futures = []
    t0 = clock()

    def stamp(i):
        def on_done(fut):
            done[i] = clock() - t0
            ok[i] = fut.exception() is None

        return on_done

    for i in range(n):
        wait = t0 + due[i] - clock()
        if wait > 0:
            sleep(wait)
        sent[i] = clock() - t0
        try:
            fut = submit(i)
        except Exception:  # refused at admission: counted, not raised
            continue
        fut.add_done_callback(stamp(i))
        futures.append(fut)
    give_up = clock() + drain_timeout
    for fut in futures:
        try:
            fut.exception(timeout=max(0.0, give_up - clock()))
        except (FutureTimeout, CancelledError):  # unresolved at the timeout: a miss
            pass
    return OpenLoopResult(due=np.asarray(due, dtype=float), sent=sent, done=done, ok=ok)
