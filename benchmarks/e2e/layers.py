"""Per-layer metrics of one traced run, from its spans and counters.

``flops`` and ``bytes`` are *computed*: the closed forms of
``repro.perfmodel.flops`` evaluated at the sizes each span recorded, not
hardware counters.  ``gflops`` is computed flops over measured busy time,
to be read against ``host.gemm_gflops`` from the same run.
"""

from __future__ import annotations

import time
from collections import defaultdict, deque

import numpy as np

import spec
import tracing
from repro.comm import CommStats, TraceComm, run_spmd
from repro.perfmodel import flops as F
from repro.structured.d_pobtaf import d_pobtaf, partition_matrix
from repro.structured.d_pobtas import d_pobtas
from repro.structured.d_pobtasi import d_pobtasi

#: Phases whose ``execute_batch`` spans belong to the serving tier (the
#: direct ``LatentPosterior.predict`` adapter also calls it, batch of one).
SERVING_PHASES = ("serve_warm", "drain", "open_lo", "open_hi", "churn")

_COLLECTIVES = ("barrier", "allreduce", "bcast", "allgather", "bcast_obj", "allgather_obj")


def host_peaks() -> dict:
    """Same-run reference rates: DGEMM Gflop/s and copy bandwidth GB/s.

    The copy streams two 128 MiB arrays — far above four times any
    last-level cache this class of host has — so it reads DRAM.
    """
    n = 768
    a = np.random.default_rng(0).standard_normal((n, n))
    a @ a
    best = min(_timed(lambda: a @ a) for _ in range(5))
    gemm = F.gemm_flops(n, n, n) / best / 1e9
    src = np.ones(16 * 2**20)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    best = min(_timed(lambda: np.copyto(dst, src)) for _ in range(5))
    return {"host.gemm_gflops": gemm, "host.stream_gbs": 2 * src.nbytes / best / 1e9}


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def comm_epoch(A, rhs) -> dict:
    """One benchmark-owned P=2 epoch with every rank's communicator
    wrapped in ``TraceComm``: exact collective / message / byte counts and
    the busy-time skew between the ranks."""
    P, b, a = 2, A.b, A.a
    slices = partition_matrix(A, P, lb=1.6)

    def rank_fn(comm):
        stats = CommStats()
        traced = TraceComm(comm, stats)
        sl = slices[comm.Get_rank()]
        t0 = time.perf_counter()
        f = d_pobtaf(sl, traced)
        f.logdet(traced)
        d_pobtas(f, rhs[sl.part.start * b : sl.part.stop * b], rhs[rhs.shape[0] - a :], traced)
        d_pobtasi(f)
        return stats, time.perf_counter() - t0

    out = run_spmd(P, rank_fn, backend="threads")
    total = CommStats()
    for stats, _ in out:
        total = total.merge(stats)
    busy = [seconds for _, seconds in out]
    rank0 = out[0][0]
    return {
        "comm.collectives": sum(rank0.counts.get(k, 0) for k in _COLLECTIVES),
        "comm.messages": total.total_messages(),
        "comm.bytes": total.total_bytes(),
        "comm.rank_skew": max(busy) / min(busy),
    }


def _span_flops(span) -> float:
    at = span.attrs
    if not at:  # the call raised (e.g. a non-SPD line-search probe): no sizes
        return 0.0
    name = span.name
    if name == "structured.factorize":
        return F.bta_factorization_flops(at["n"], at["b"], at["a"])
    if name == "structured.factorize_batch":
        return F.bta_batch_factorization_flops(at["t"], at["n"], at["b"], at["a"])
    if name in ("structured.solve", "structured.solve_stack"):
        return F.bta_solve_flops(at["n"], at["b"], at["a"], at["k"])
    if name == "structured.selinv_diag":
        # A handle that already holds its diagonal answers from the cache.
        return 0.0 if at["cached"] else F.bta_selected_inversion_flops(at["n"], at["b"], at["a"])
    if name == "structured.d_factorize":
        return F.d_pobtaf_critical_flops(at["counts"], at["b"], at["a"])
    if name in ("model.assemble", "model.assemble_batch"):
        return at["flops"]
    return 0.0


def _percentile(xs, p: float) -> float:
    return float(np.percentile(xs, p)) if len(xs) else 0.0


def queue_waits(spans, phases=("open_lo", "open_hi")) -> list:
    """Seconds from each ``Server.submit`` returning to the start of the
    ``execute_batch`` that served it, over the open-loop phases (in a
    drain the wait is just the position in the backlog).  The two spans
    sit on different threads and are linked by ``id(request)``."""
    waiting = defaultdict(deque)
    events = [
        s
        for s in spans
        if s.name in ("serving.submit", "serving.execute_batch") and s.phase in phases
    ]
    waits = []
    for s in sorted(events, key=lambda s: s.end if s.name == "serving.submit" else s.start):
        if s.attrs is None:
            continue
        if s.name == "serving.submit":
            waiting[s.attrs["request"]].append(s.end)
        else:
            for rid in s.attrs["requests"]:
                if waiting[rid]:
                    waits.append(max(0.0, s.start - waiting[rid].popleft()))
    return waits


def phase_profile(spans, phase: str) -> list:
    """Where one phase spends its time: per span name, calls, self time,
    share of the phase's traced time, computed flops and achieved Gflop/s,
    ranked by self time."""
    selected = [s for s in spans if s.phase == phase]
    selfs = tracing.self_times(selected)
    rows = {}
    for s in selected:
        row = rows.setdefault(s.name, {"name": s.name, "calls": 0, "self_s": 0.0, "flops": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[s]
        row["flops"] += _span_flops(s)
    total = sum(r["self_s"] for r in rows.values()) or 1.0
    for r in rows.values():
        r["share"] = r["self_s"] / total
        r["gflops"] = r["flops"] / r["self_s"] / 1e9 if r["flops"] and r["self_s"] > 0 else 0.0
    return sorted(rows.values(), key=lambda r: -r["self_s"])


def per_layer(run, spans, extras: dict) -> dict:
    """``{metric name: value}`` for every name in ``spec.PER_LAYER``."""
    groups = tracing.by_name(spans)
    selfs = tracing.self_times(spans)
    m: dict = dict(extras)

    def busy(name, keep=lambda s: True):
        return sum(s.duration for s in groups.get(name, ()) if keep(s))

    def calls(name, keep=lambda s: True):
        return sum(1 for s in groups.get(name, ()) if keep(s))

    def self_s(name):
        return sum(selfs[s] for s in groups.get(name, ()))

    def attr_sum(name, key):
        return sum((s.attrs or {}).get(key, 0) for s in groups.get(name, ()))

    def flops(name):
        return sum(_span_flops(s) for s in groups.get(name, ()))

    def standard(name, stats):
        for stat in stats:
            if stat == "calls":
                m[f"{name}.calls"] = calls(name)
            elif stat == "busy_s":
                m[f"{name}.busy_s"] = busy(name)
            elif stat == "self_s":
                m[f"{name}.self_s"] = self_s(name)
            elif stat == "flops":
                m[f"{name}.flops"] = flops(name)
            elif stat == "gflops":
                b = busy(name)
                m[f"{name}.gflops"] = flops(name) / b / 1e9 if b > 0 else 0.0

    m["model.build.busy_s"] = busy("model.build")
    m["model.symbolic.busy_s"] = busy("model.symbolic")
    standard("model.assemble", ("calls", "busy_s", "flops"))
    m["model.assemble.bytes"] = attr_sum("model.assemble", "bytes")
    standard("model.assemble_batch", ("calls", "busy_s", "flops"))
    m["model.assemble_batch.thetas"] = attr_sum("model.assemble_batch", "t")
    m["model.assemble_batch.bytes"] = attr_sum("model.assemble_batch", "bytes")
    standard("model.curvature", ("calls", "busy_s"))
    standard("model.qp_quad", ("calls", "busy_s"))

    standard("structured.factorize", ("calls", "busy_s", "flops", "gflops"))
    standard("structured.factorize_batch", ("calls", "busy_s", "flops", "gflops"))
    m["structured.factorize_batch.lanes"] = attr_sum("structured.factorize_batch", "t")
    standard("structured.solve_each", ("calls", "busy_s"))
    standard("structured.logdet", ("calls", "busy_s"))
    standard("structured.solve", ("calls", "busy_s", "flops"))
    standard("structured.solve_stack", ("calls", "busy_s", "flops"))
    m["structured.solve_stack.rows"] = attr_sum("structured.solve_stack", "k")
    standard("structured.solve_lt_stack", ("calls", "busy_s"))
    m["structured.solve_lt_stack.rows"] = attr_sum("structured.solve_lt_stack", "k")
    standard("structured.sample", ("calls", "busy_s"))
    standard("structured.selinv_diag", ("calls", "busy_s", "flops"))
    standard("structured.d_factorize", ("calls", "busy_s"))
    m["structured.d_factorize.critical_flops"] = flops("structured.d_factorize")
    for name in ("d_solve", "d_solve_stack", "d_selinv_diag", "d_sample"):
        standard("structured." + name, ("calls", "busy_s"))

    standard("inla.bfgs", ("busy_s", "self_s"))
    m["inla.bfgs.iterations"] = attr_sum("inla.bfgs", "iterations")
    m["inla.bfgs.line_search_evals"] = calls(
        "inla.eval_one", lambda s: s.parent is not None and s.parent.name == "inla.bfgs"
    )
    m["inla.hessian.busy_s"] = busy("inla.hessian")
    m["inla.hessian.evals"] = sum(
        (s.attrs or {}).get("points", 0)
        for s in groups.get("inla.eval_batch", ())
        if s.parent is not None and s.parent.name == "inla.hessian"
    )
    c = run.counters
    evals, hits = c.get("evaluator.n_evaluations", 0), c.get("evaluator.n_cache_hits", 0)
    m["inla.evaluator.evals"] = evals
    m["inla.evaluator.batches"] = c.get("evaluator.n_batches", 0)
    m["inla.evaluator.batch_sweeps"] = c.get("evaluator.n_batch_sweeps", 0)
    m["inla.evaluator.cache_hits"] = hits
    m["inla.evaluator.hit_ratio"] = hits / evals if evals else 0.0
    standard("inla.objective", ("calls", "self_s"))
    standard("inla.newton", ("calls", "busy_s", "self_s"))
    m["inla.newton.sweeps"] = calls(
        "structured.factorize_batch", lambda s: tracing.has_ancestor(s, "inla.newton")
    )
    m["inla.posterior_at.busy_s"] = busy("inla.posterior_at")
    m["inla.marginals.busy_s"] = busy("inla.marginals")

    standard("serving.submit", ("calls", "busy_s"))

    def batches(phases):
        sizes = [
            len(s.attrs["requests"])
            for s in groups.get("serving.execute_batch", ())
            if s.phase in phases
        ]
        return len(sizes), sum(sizes)

    n_batches, n_requests = batches(SERVING_PHASES)
    m["serving.execute_batch.calls"] = n_batches
    m["serving.execute_batch.busy_s"] = busy(
        "serving.execute_batch", lambda s: s.phase in SERVING_PHASES
    )
    m["serving.execute_batch.requests"] = n_requests
    m["serving.execute_batch.mean_batch"] = n_requests / n_batches if n_batches else 0.0
    for suffix, phase in (("drain", "drain"), ("lo", "open_lo"), ("hi", "open_hi")):
        nb, nr = batches((phase,))
        m[f"serving.execute_batch.mean_batch_{suffix}"] = nr / nb if nb else 0.0
    m["serving.tick.count"] = c.get("server.ticks", 0)
    m["serving.tick.max_batch"] = c.get("server.max_batch", 0)
    waits_ms = [w * 1e3 for w in queue_waits(spans)]
    m["serving.queue_wait_ms.p50"] = _percentile(waits_ms, 50)
    m["serving.queue_wait_ms.p95"] = _percentile(waits_ms, 95)
    def pooled(phase, field):
        xs = np.concatenate([getattr(res, field) for res in run.kept[phase]]) * 1e3
        return xs[np.isfinite(xs)]

    lat_lo, lat_hi = pooled("open_lo", "latency"), pooled("open_hi", "latency")
    m["serving.latency_lo.p50_ms"] = _percentile(lat_lo, 50)
    m["serving.latency_lo.p95_ms"] = _percentile(lat_lo, 95)
    m["serving.latency_lo.p99_ms"] = _percentile(lat_lo, 99)
    m["serving.latency_hi.p50_ms"] = _percentile(lat_hi, 50)
    m["serving.latency_hi.p95_ms"] = _percentile(lat_hi, 95)
    m["serving.latency_hi.p99_ms"] = _percentile(lat_hi, 99)
    m["serving.gen_late_ms.p99"] = _percentile(
        np.concatenate([pooled("open_lo", "lateness"), pooled("open_hi", "lateness")]), 99
    )
    m["serving.registry.hits"] = c.get("registry.hits", 0)
    m["serving.registry.misses"] = c.get("registry.misses", 0)
    m["serving.registry.evictions"] = c.get("registry.evictions", 0)
    m["serving.registry.refit_s"] = busy(
        "inla.posterior_at", lambda s: s.parent is not None and s.parent.name == "serving.registry"
    )
    m["serving.outcomes.retries"] = c.get("server.retries", 0)
    m["serving.outcomes.shed"] = c.get("server.shed", 0)
    m["serving.outcomes.timeouts"] = c.get("server.timed_out", 0)
    m["serving.outcomes.failed"] = c.get("server.failed", 0)
    m["trace.spans"] = len(spans)

    missing = [x.name for x in spec.PER_LAYER if x.name not in m]
    if missing:
        raise KeyError(f"per-layer metrics not produced: {missing}")
    return {x.name: float(m[x.name]) for x in spec.PER_LAYER}
