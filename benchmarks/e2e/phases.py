"""The pipeline every workload runs: fit -> posterior -> serve -> solver.

Each phase times one kind of operation.  The untraced pass gives every
phase a share of the run's seconds and spends it in ``ROUNDS`` interleaved
slices, so each metric's repeats are spread over the whole run: on a
shared host the speed of a single thread drifts by +-20% over seconds
(a fixed 1.5 s GEMM loop took 1.30-1.98 s), and a metric measured in one
contiguous second inherits that second's luck.  The traced pass runs one
round of fixed repeat counts, so its call counts are the same on every run.

Timed regions contain only calls into ``repro``; inputs are built and
outputs kept for ``checks.py`` outside them.
"""

from __future__ import annotations

import contextlib
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import loadgen
import spec
import workloads
from repro.inla.solvers import DistributedSolver, SequentialSolver
from repro.serving import ModelRegistry, Server
from repro.serving.registry import model_bytes

#: Interleaved slices per phase in the untraced pass.
ROUNDS = 6
#: Repeats every phase but the fit makes even when they overrun its budget,
#: so that "best of the run" always has a choice (the fit has
#: ``Workload.fit_repeats``).
MIN_REPEATS = 3
#: Shape of one solver epoch (paper Fig. 5 operations on one handle).
EPOCH_STACK_ROWS = 32
EPOCH_SAMPLES = 8
#: Churn phase: blocks per cycle, requests per block, resident models.
CHURN_THETAS = 6
CHURN_BLOCK = 64
CHURN_RESIDENT = 3
#: Requests of the first drain kept for the bit-identity check.
KEPT_RESPONSES = 64


@dataclass
class Run:
    """State of one workload run: inputs, samples, kept outputs, op counts."""

    workload: spec.Workload
    inputs: workloads.Inputs
    seed: int
    seconds: float
    tracer: object | None = None
    #: per-phase wall time of every timed operation, and seconds spent.
    times: dict = field(default_factory=dict)
    spent: dict = field(default_factory=dict)
    #: end-to-end metric name -> samples (their median is the metric).
    samples: dict = field(default_factory=dict)
    kept: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    counters: dict = field(default_factory=dict)

    @property
    def traced(self) -> bool:
        return self.tracer is not None

    @property
    def rounds(self) -> int:
        return 1 if self.traced else ROUNDS

    def scaled(self, phase: str) -> float:
        return self.workload.budget[phase] * self.seconds / spec.RUN_SECONDS

    def mark(self, phase: str, op: int | None = None) -> None:
        """Label the spans that follow (phase, and the operation's trace id)."""
        if self.tracer is not None:
            self.tracer.phase = phase
            self.tracer.trace_id = phase if op is None else f"{phase}-{op}"

    def slice(self, phase: str, op, prepare=None, at_least: int = MIN_REPEATS) -> list:
        """One round's share of ``phase``: time ``op(prepare(i))`` for a
        ``1/ROUNDS`` slice of the phase's budget (the traced count in the
        traced pass).  Once it has ``at_least`` repeats, a phase that
        cannot fit one more operation in what is left of its budget sits
        the round out, so an operation that fills the budget alone runs
        the same number of times on every run."""
        times = self.times.setdefault(phase, [])

        def marked(i):
            self.mark(phase, i)
            return i if prepare is None else prepare(i)

        if self.traced:
            new = loadgen.repeat(op, count=self.workload.traced_reps[phase], prepare=marked)
        else:
            budget = self.scaled(phase)
            left = budget - self.spent.get(phase, 0.0)
            if len(times) >= at_least and left < statistics.median(times):
                return []
            t0 = time.perf_counter()
            new = loadgen.repeat(
                op, seconds=min(budget / ROUNDS, left), prepare=marked, first=len(times)
            )
            self.spent[phase] = self.spent.get(phase, 0.0) + time.perf_counter() - t0
        times.extend(new)
        return new

    def window(self, phase: str) -> float:
        """Seconds of one open-loop window of ``phase``."""
        return self.scaled(phase) / self.rounds

    def count(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def bump(self, key: str, value) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def bump_evaluator(self, evaluator) -> None:
        """Add a spent evaluator's public counters to the run's."""
        for key in ("n_evaluations", "n_batches", "n_batch_sweeps", "n_cache_hits"):
            self.bump("evaluator." + key, getattr(evaluator, key))


# -- fit -> posterior ---------------------------------------------------------


class Fit:
    """``fit()`` plus ``posterior()`` on a fresh engine: evaluator caches
    and warm starts are cold, as a user pays for them."""

    def __init__(self, run: Run):
        self.run = run
        self.results = run.kept["fits"] = []

    def _op(self, _):
        run = self.run
        engine = run.inputs.engine()
        result = engine.fit(options=run.inputs.fit_options)
        posterior = engine.posterior()
        run.bump_evaluator(engine.evaluator)
        self.results.append(result)
        # Later phases query the first fit's mode and posterior.
        run.kept.setdefault("mode", result.theta_mode)
        run.kept.setdefault("posterior", posterior)

    def step(self) -> None:
        self.run.slice("fit", self._op, at_least=self.run.workload.fit_repeats)

    def finish(self) -> None:
        run = self.run
        run.samples["fit_s"] = run.times["fit"]
        for result in self.results:
            ok = bool(np.isfinite(result.fobj_mode) and np.all(np.isfinite(result.theta_mode)))
            if run.workload.expect_converged:
                ok = ok and result.optimization.converged
            run.count(1, 0 if ok else 1)


class Stencil:
    """Cold gradient stencils at seeded thetas: the paper's per-iteration
    cost, independent of the path the optimizer took."""

    def __init__(self, run: Run):
        self.run = run
        self.thetas = workloads.stencil_thetas(run.kept["mode"], run.seed)
        self.out = run.kept["stencils"] = []

    def _prepare(self, i):
        return self.run.inputs.engine(), self.thetas[i % len(self.thetas)]

    def _op(self, arg):
        engine, theta = arg
        f0, grad, _ = engine.evaluator.value_and_gradient(theta)
        self.out.append((theta, f0, grad))
        self.run.bump_evaluator(engine.evaluator)

    def step(self) -> None:
        self.run.slice("stencil", self._op, self._prepare)

    def finish(self) -> None:
        run = self.run
        run.samples["stencil_ms"] = [t * 1e3 for t in run.times["stencil"]]
        for _, f0, grad in self.out:
            run.count(1, 0 if np.isfinite(f0) and np.all(np.isfinite(grad)) else 1)
        del self.out[1:]


class Downscale:
    """``posterior.predict`` — mean and exact sd — at 1024 fine-grid points."""

    def __init__(self, run: Run):
        self.run = run
        self.posterior = run.kept["posterior"]
        self.queries = workloads.downscale_queries(run.inputs.model, run.seed)
        self.out = run.kept["downscale"] = []
        run.mark("downscale_warm")
        self._op(self.queries[-1])  # the first 1024-row sweep sizes the factor's workspace
        self.out.clear()

    def _op(self, query):
        coords, time_idx, v = query
        self.out.append((query, self.posterior.predict(coords, time_idx, v)))

    def step(self) -> None:
        self.run.slice("downscale", self._op, lambda i: self.queries[i % len(self.queries)])

    def finish(self) -> None:
        run = self.run
        run.samples["downscale_ms"] = [t * 1e3 for t in run.times["downscale"]]
        for _, pred in self.out:
            ok = np.all(np.isfinite(pred["mean"])) and np.all(np.isfinite(pred["sd"]))
            run.count(1, 0 if ok else 1)
        del self.out[1:]


# -- serving ------------------------------------------------------------------


def _drain(server, model, theta_of, requests):
    """Submit everything at once; seconds from first submit to last result."""
    t0 = time.perf_counter()
    futures = [server.submit(model, theta_of(i), r) for i, r in enumerate(requests)]
    bad = sum(f.exception() is not None for f in futures)
    return time.perf_counter() - t0, futures, bad


class Serving:
    """The mixed request stream against the fitted mode through
    ``Server(ModelRegistry())``: (a) drain, everything submitted at once;
    (b), (c) open loop at the workload's low and high rate; (d) churn, a
    drain of 6 x 64-request blocks cycling 6 thetas through a registry
    that holds 3, so every block refits."""

    def __init__(self, run: Run, stack: contextlib.ExitStack):
        self.run = run
        w, model = run.workload, run.inputs.model
        self.model, self.theta = model, run.kept["mode"]
        n_stream = max(
            w.drain_requests,
            len(loadgen.schedule(w.rate_lo, run.window("open_lo"))),
            len(loadgen.schedule(w.rate_hi, run.window("open_hi"))),
            CHURN_THETAS * CHURN_BLOCK,
        )
        self.stream = workloads.request_stream(model, run.seed, n_stream)
        self.churn_thetas = workloads.churn_thetas(self.theta, run.seed, CHURN_THETAS)
        self.windows = {"open_lo": [], "open_hi": []}
        self.kept = run.kept["responses"] = []

        self.server = stack.enter_context(Server(ModelRegistry()))
        self.churn_server = stack.enter_context(
            Server(ModelRegistry(budget_bytes=CHURN_RESIDENT * model_bytes(model)))
        )
        run.mark("serve_warm")
        self.server.query(model, self.theta, self.stream[0])  # fit the registry entry once
        run.kept["served_posterior"] = self.server.registry.posterior(model, self.theta)

    def _drain_op(self, _):
        run, batch = self.run, self.stream[: self.run.workload.drain_requests]
        _, futures, bad = _drain(self.server, self.model, lambda _: self.theta, batch)
        run.count(len(batch), bad)
        if not self.kept:
            pick = np.random.default_rng([run.seed, 6]).choice(
                len(batch), KEPT_RESPONSES, replace=False
            )
            self.kept.extend(
                (batch[j], futures[j].result()) for j in pick if not futures[j].exception()
            )

    def _churn_op(self, _):
        blocks = self.stream[: CHURN_THETAS * CHURN_BLOCK]
        _, _, bad = _drain(
            self.churn_server, self.model, lambda j: self.churn_thetas[j // CHURN_BLOCK], blocks
        )
        self.run.count(len(blocks), bad)

    def _open_loop(self, phase: str, rate: float) -> None:
        run = self.run
        run.mark(phase, len(self.windows[phase]))
        due = loadgen.schedule(rate, run.window(phase))
        res = loadgen.open_loop(
            lambda i: self.server.submit(self.model, self.theta, self.stream[i]), due
        )
        self.windows[phase].append(res)
        run.count(len(due), int(len(due) - np.count_nonzero(res.ok)))

    def step(self) -> None:
        w = self.run.workload
        self.run.slice("drain", self._drain_op)
        self._open_loop("open_lo", w.rate_lo)
        self._open_loop("open_hi", w.rate_hi)
        self.run.slice("churn", self._churn_op)

    def finish(self) -> None:
        run, w = self.run, self.run.workload
        run.samples["serve_drain_qps"] = [w.drain_requests / t for t in run.times["drain"]]
        run.samples["serve_churn_qps"] = [
            CHURN_THETAS * CHURN_BLOCK / t for t in run.times["churn"]
        ]
        # One ratio per open-loop window at the high rate.  The low-rate
        # latencies are reported, not gated: their median moved 2x between
        # runs of the same code whenever a neighbour held the second vCPU.
        run.samples["serve_ok_ratio"] = [
            res.within(spec.OK_DEADLINE_S) for res in self.windows["open_hi"]
        ]
        run.kept["open_lo"], run.kept["open_hi"] = self.windows["open_lo"], self.windows["open_hi"]
        for server in (self.server, self.churn_server):
            stats = server.stats.snapshot()
            for key in ("ticks", "retries", "shed", "timed_out", "failed"):
                run.bump("server." + key, stats[key])
            run.counters["server.max_batch"] = max(
                run.counters.get("server.max_batch", 0), stats["max_batch"]
            )
            for key, value in server.registry.stats.snapshot().items():
                run.bump("registry." + key, value)
        run.bump("churn.cycles", len(run.times["churn"]))
        run.bump("churn.misses", self.churn_server.registry.stats.misses)


# -- solver epochs ------------------------------------------------------------


def _epoch(solver, A, rhs, stack, rng):
    f = solver.factorize(A)
    logdet = f.logdet()
    x = f.solve(rhs)
    xs = f.solve_stack(stack)
    diag = f.selected_inverse_diagonal()
    draws = f.sample(EPOCH_SAMPLES, rng)
    return {"logdet": logdet, "x": x, "xs": xs, "diag": diag, "draws": draws}


class Solver:
    """Factorize + logdet + solve + 32-row stack + selinv diagonal + 8 draws
    on Qc at the reference theta: the plain sequential handle, then P=2."""

    HANDLES = (("seq", "seq_epoch_ms", SequentialSolver()),
               ("dist", "dist_epoch_ms", DistributedSolver(2)))

    def __init__(self, run: Run):
        self.run = run
        model = run.inputs.model
        run.mark("solver_setup")
        theta = run.inputs.engine().default_start()
        self.A = model.assemble(theta).qc
        self.rng = np.random.default_rng([run.seed, 7])
        self.rhs = self.rng.standard_normal(self.A.N)
        self.stack = self.rng.standard_normal((EPOCH_STACK_ROWS, self.A.N))
        run.kept["solver_matrix"] = (theta, self.A, self.rhs, self.stack)

    def step(self) -> None:
        for phase, _, solver in self.HANDLES:

            def op(_, phase=phase, solver=solver):
                # Only the last epoch's outputs are kept, for the checks.
                self.run.kept[phase] = _epoch(solver, self.A, self.rhs, self.stack, self.rng)

            self.run.slice(phase, op)

    def finish(self) -> None:
        run = self.run
        for phase, metric, _ in self.HANDLES:
            times = run.times[phase]
            run.samples[metric] = [t * 1e3 for t in times]
            run.count(len(times), 0 if np.isfinite(run.kept[phase]["logdet"]) else len(times))


def measure(run: Run) -> None:
    """The measured section: the first fit gives the mode and posterior the
    other phases query; then every phase takes its slice, round by round."""
    with contextlib.ExitStack() as stack:
        fit = Fit(run)
        fit.step()
        rest = [Stencil(run), Downscale(run), Serving(run, stack), Solver(run)]
        for r in range(run.rounds):
            if r:
                fit.step()
            for phase in rest:
                phase.step()
            if r == 0:
                # Every kind of operation has now run.  Later rounds repeat
                # them and add only allocator fragmentation, which differs
                # from run to run (+-10% on solver_ops), so the peak is read here.
                run.samples["peak_rss_mb"] = [
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                ]
        for phase in [fit, *rest]:
            phase.finish()


# -- tracing overhead ---------------------------------------------------------

#: Spans recorded while measuring the overhead are left out of the layer sums.
OVERHEAD_PHASE = "overhead"
OVERHEAD_DRAIN = 512
OVERHEAD_EPOCHS = 5


def tracing_overhead(run: Run, patches, pairs: int = 3) -> float:
    """Traced over untraced wall time of one fixed section — a cold
    stencil, a 512-request drain, five sequential epochs — run ``pairs``
    times each way, alternating, inside the traced pass itself."""
    inp, model, theta = run.inputs, run.inputs.model, run.kept["mode"]
    point = workloads.stencil_thetas(theta, run.seed)[0]
    stream = workloads.request_stream(model, run.seed, OVERHEAD_DRAIN)
    _, A, rhs, stack = run.kept["solver_matrix"]
    rng = np.random.default_rng([run.seed, 9])
    run.mark(OVERHEAD_PHASE)
    walls = {False: [], True: []}
    with Server(ModelRegistry()) as server:
        server.query(model, theta, stream[0])

        def section():
            t0 = time.perf_counter()
            inp.engine().evaluator.value_and_gradient(point)
            _drain(server, model, lambda _: theta, stream)
            for _ in range(OVERHEAD_EPOCHS):
                _epoch(SequentialSolver(), A, rhs, stack, rng)
            return time.perf_counter() - t0

        try:
            for _ in range(pairs):
                for traced in (False, True):
                    (patches.install if traced else patches.uninstall)()
                    walls[traced].append(section())
        finally:
            patches.install()
    return float(np.median(walls[True]) / np.median(walls[False]))
