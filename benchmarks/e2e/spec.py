"""What the benchmark measures: workloads, metric names, units, bounds.

This file is the single source of the names.  ``BENCHMARK.json`` at the
repo root is :func:`manifest` written out (``run.py --write-manifest``),
and ``test_harness.py`` asserts the two agree.

Every workload runs the same pipeline — build, fit, posterior, downscale,
serve, solver epochs — on its own model, so every end-to-end metric is
measured on every workload.  What differs is the model (which layer
dominates) and how the run's seconds are split over the phases.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

#: ``--seconds`` the phase budgets below are written for.
RUN_SECONDS = 24

#: Phase order of the pipeline.
PHASES = ("fit", "stencil", "downscale", "drain", "open_lo", "open_hi", "churn", "seq", "dist")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Seed of the dataset.  It is fixed: how many BFGS and Newton
    #: iterations a fit needs depends on the data (3.4 s against 23 s for
    #: two Poisson datasets of the same shape), so a dataset drawn from
    #: ``--seed`` would make ``fit_s`` measure the draw.  ``--seed`` drives
    #: the query side instead: stencil thetas, prediction points, the
    #: request stream, churn thetas, solver right-hand sides and noise.
    data_seed: int
    #: seconds per phase at ``RUN_SECONDS`` (scaled with ``--seconds``).
    budget: dict
    #: repeats per phase in the traced pass (fixed, so counts repeat
    #: exactly); the open-loop phases run their budget in both passes.
    traced_reps: dict
    #: requests per drain / open-loop rates in req/s.
    drain_requests: int
    rate_lo: float
    rate_hi: float
    #: fit() must report convergence (False where max_iter caps it).
    expect_converged: bool
    #: Fits every untraced run makes even when they overrun the fit budget.
    #: With the budget alone, one fit slowed by a neighbour (6.6 s for a
    #: 3.5 s fit) left no room for a second, and became the run's value.
    fit_repeats: int = 1


def _budget(fit, stencil, downscale, drain, open_lo, open_hi, churn, seq, dist) -> dict:
    out = dict(zip(PHASES, (fit, stencil, downscale, drain, open_lo, open_hi, churn, seq, dist)))
    if abs(sum(out.values()) - RUN_SECONDS) > 1e-9:
        raise ValueError(f"phase budgets sum to {sum(out.values())}, not {RUN_SECONDS}")
    return out


def _reps(fit, stencil, downscale, drain, churn, seq, dist) -> dict:
    return {"fit": fit, "stencil": stencil, "downscale": downscale, "drain": drain,
            "churn": churn, "seq": seq, "dist": dist}


# Open-loop rates sit either side of each model's closed-loop capacity at
# batch size 1 (gauss3 660, poisson2 1760, serve 1475, solver 355 req/s on
# the builder's host): the low rate leaves ticks at one request, the high
# rate only holds if ticks coalesce, and both stay clear of the drain
# capacity (1700 / 2850 / 2750 / 1000 req/s) where ok_ratio falls off a cliff.
WORKLOADS = (
    Workload(
        name="gauss3_fit",
        why=(
            "Paper's trivariate pollution model (n=12, b=144, a=6, d=15): LAPACK-bound "
            "blocks on the per-theta path; factorize and assemble dominate, batching idle"
        ),
        data_seed=2022,
        budget=_budget(11.0, 3.0, 0.8, 2.2, 1.5, 1.5, 2.0, 1.0, 1.0),
        traced_reps=_reps(1, 2, 3, 1, 1, 20, 20),
        drain_requests=1000,
        rate_lo=300.0,
        rate_hi=600.0,
        expect_converged=False,
    ),
    Workload(
        name="poisson2_fit",
        why=(
            "Bivariate Poisson model (n=24, b=24, a=2, d=9): dispatch-bound small blocks "
            "under the theta-lockstep Newton; a LAPACK-size kernel gain must show nothing"
        ),
        data_seed=17,
        budget=_budget(11.0, 1.5, 0.8, 2.2, 2.0, 2.0, 1.5, 1.0, 2.0),
        traced_reps=_reps(1, 3, 3, 1, 1, 50, 50),
        drain_requests=2000,
        rate_lo=600.0,
        rate_hi=1200.0,
        expect_converged=True,
        fit_repeats=3,
    ),
    Workload(
        name="serve_pipeline",
        why=(
            "Univariate Gaussian model (n=24, b=30, a=2, d=4) weighted to serving: many "
            "sweeps read one resident factor; drain, two open-loop rates, registry churn"
        ),
        data_seed=2022,
        budget=_budget(3.0, 1.0, 1.0, 5.0, 4.0, 4.0, 3.0, 1.0, 2.0),
        traced_reps=_reps(2, 3, 3, 1, 1, 50, 50),
        drain_requests=2000,
        rate_lo=600.0,
        rate_hi=1200.0,
        expect_converged=True,
    ),
    Workload(
        name="solver_ops",
        why=(
            "48-step time-long shape of the paper's Fig. 5 (n=48, b=102, a=2, d=4): the one "
            "model whose P=2 epochs are arithmetic, not hand-offs; reduced system and comm work"
        ),
        data_seed=2022,
        budget=_budget(13.0, 1.8, 1.2, 1.8, 1.2, 1.2, 1.6, 1.0, 1.2),
        traced_reps=_reps(1, 2, 3, 1, 1, 30, 30),
        drain_requests=500,
        rate_lo=150.0,
        rate_hi=300.0,
        expect_converged=True,
        fit_repeats=2,
    ),
)


def workload(name: str) -> Workload:
    for w in WORKLOADS:
        if w.name == name:
            return w
    raise KeyError(f"unknown workload {name!r}; choose from {[w.name for w in WORKLOADS]}")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end only
    doc: str = ""
    #: How a run's repeats become its value: "best" (fastest repeat) or
    #: "median".  On this class of host — 2 shared vCPUs — a neighbour slows
    #: a single thread by 10-40% for seconds at a time; between ten runs of
    #: the same code the best repeat spread 20% on average where the median
    #: spread 27% (8% against 26% for the 2 ms sequential epoch).  Only the
    #: P=2 epoch is steadier as a median: its best repeat is a scheduling
    #: fluke in which both rank threads found a free vCPU throughout.
    stat: str = "best"

    def of(self, samples) -> float:
        """The run's value of this metric from its repeats."""
        if self.stat == "median":
            return float(statistics.median(samples))
        return float(min(samples) if self.better == "lower" else max(samples))


# Bounds are 25% for every timing: ten runs of identical code on the
# builder's host spread 7-30% (README, "How steady it is"), so a tighter
# gate would reject unchanged code.  ``serve_ok_ratio`` and ``peak_rss_mb``
# are not timings and held 3% and 6%.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25,
           "imports plus the median of three cold builds: dataset, model, symbolic plan, "
           "first evaluation", stat="median"),
    Metric("fit_s", "s", "lower", 0.25,
           "wall time of fit() plus posterior() on a fresh engine (cold caches)"),
    Metric("stencil_ms", "ms", "lower", 0.25,
           "cold value_and_gradient over 2d+1 points at a seeded theta"),
    Metric("downscale_ms", "ms", "lower", 0.25,
           "posterior.predict (mean + exact sd) at 1024 new space-time points"),
    Metric("serve_drain_qps", "req/s", "higher", 0.25,
           "drained requests / (first submit until last future resolved)"),
    Metric("serve_ok_ratio", "ratio", "higher", 0.10,
           "share of one window's requests, scheduled at the high rate, that resolved OK "
           "within 25 ms of their due time; failed or refused requests are misses"),
    Metric("serve_churn_qps", "req/s", "higher", 0.25,
           "requests/s of 6 x 64-request blocks cycling 6 thetas through a 3-model "
           "registry budget, refits included"),
    Metric("seq_epoch_ms", "ms", "lower", 0.25,
           "solver epoch on the sequential handle"),
    Metric("dist_epoch_ms", "ms", "lower", 0.25,
           "solver epoch on the P=2 distributed handle (thread ranks)", stat="median"),
    Metric("peak_rss_mb", "MB", "lower", 0.15,
           "ru_maxrss once every kind of operation has run (end of the first round)"),
)

#: Deadline behind ``serve_ok_ratio``.
OK_DEADLINE_S = 0.025


def _layer(prefix: str, stats: str, units: dict | None = None) -> list:
    units = units or {}
    default = {"calls": "count", "busy_s": "s", "self_s": "s", "flops": "flop",
               "bytes": "B", "gflops": "Gflop/s"}
    out = []
    for stat in stats.split(","):
        unit = units.get(stat, default.get(stat, "count"))
        higher = stat in ("gflops", "hit_ratio", "hits") or stat.startswith("mean_batch")
        better = "higher" if higher else "lower"
        out.append(Metric(f"{prefix}.{stat}", unit, better))
    return out


PER_LAYER = tuple(
    [
        Metric("host.gemm_gflops", "Gflop/s", "higher"),
        Metric("host.stream_gbs", "GB/s", "higher"),
        Metric("model.build.busy_s", "s", "lower"),
        Metric("model.symbolic.busy_s", "s", "lower"),
    ]
    + _layer("model.assemble", "calls,busy_s,flops,bytes")
    + _layer("model.assemble_batch", "calls,busy_s,thetas,flops,bytes")
    + _layer("model.curvature", "calls,busy_s")
    + _layer("model.qp_quad", "calls,busy_s")
    + _layer("structured.factorize", "calls,busy_s,flops,gflops")
    + _layer("structured.factorize_batch", "calls,busy_s,lanes,flops,gflops")
    + _layer("structured.solve_each", "calls,busy_s")
    + _layer("structured.logdet", "calls,busy_s")
    + _layer("structured.solve", "calls,busy_s,flops")
    + _layer("structured.solve_stack", "calls,busy_s,rows,flops")
    + _layer("structured.solve_lt_stack", "calls,busy_s,rows")
    + _layer("structured.sample", "calls,busy_s")
    + _layer("structured.selinv_diag", "calls,busy_s,flops")
    + _layer("structured.d_factorize", "calls,busy_s,critical_flops",
             {"critical_flops": "flop"})
    + _layer("structured.d_solve", "calls,busy_s")
    + _layer("structured.d_solve_stack", "calls,busy_s")
    + _layer("structured.d_selinv_diag", "calls,busy_s")
    + _layer("structured.d_sample", "calls,busy_s")
    + [
        Metric("comm.collectives", "count", "lower"),
        Metric("comm.messages", "count", "lower"),
        Metric("comm.bytes", "B", "lower"),
        Metric("comm.rank_skew", "ratio", "lower"),
    ]
    + _layer("inla.bfgs", "busy_s,self_s,iterations,line_search_evals")
    + _layer("inla.hessian", "busy_s,evals")
    + _layer("inla.evaluator", "evals,batches,batch_sweeps,cache_hits,hit_ratio",
             {"hit_ratio": "ratio"})
    + _layer("inla.objective", "calls,self_s")
    + _layer("inla.newton", "calls,busy_s,self_s,sweeps")
    + [
        Metric("inla.posterior_at.busy_s", "s", "lower"),
        Metric("inla.marginals.busy_s", "s", "lower"),
    ]
    + _layer("serving.submit", "calls,busy_s")
    + _layer("serving.execute_batch",
             "calls,busy_s,requests,mean_batch,mean_batch_drain,mean_batch_lo,mean_batch_hi",
             {k: "req" for k in
              ("mean_batch", "mean_batch_drain", "mean_batch_lo", "mean_batch_hi")})
    + _layer("serving.tick", "count,max_batch", {"max_batch": "req"})
    + _layer("serving.queue_wait_ms", "p50,p95", {"p50": "ms", "p95": "ms"})
    + _layer("serving.latency_lo", "p50_ms,p95_ms,p99_ms",
             {"p50_ms": "ms", "p95_ms": "ms", "p99_ms": "ms"})
    + _layer("serving.latency_hi", "p50_ms,p95_ms,p99_ms",
             {"p50_ms": "ms", "p95_ms": "ms", "p99_ms": "ms"})
    + [Metric("serving.gen_late_ms.p99", "ms", "lower")]
    + _layer("serving.registry", "hits,misses,evictions,refit_s", {"refit_s": "s"})
    + _layer("serving.outcomes", "retries,shed,timeouts,failed")
    + [
        Metric("trace.overhead_ratio", "ratio", "lower"),
        Metric("trace.spans", "count", "lower"),
        Metric("check.failed_ratio", "ratio", "lower"),
        Metric("check.ref_err", "relative", "lower"),
    ]
)

COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]


def manifest() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
