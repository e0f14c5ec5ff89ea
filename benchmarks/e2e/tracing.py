"""Span tracing applied from outside ``src/repro``.

The traced pass of the benchmark wraps the public entry points of each
``repro`` package (the table in :func:`install_default`) without editing
the package: class methods are rebound on their class, module functions
on every loaded ``repro.*`` module that holds the original under any
name (``from x import f`` copies the binding, so patching only the
defining module would miss most call sites).  :meth:`Patches.uninstall`
puts back the identical objects.

A span is ``(name, start, end, parent, trace id)`` plus the thread it
ran on, the benchmark phase, and a small ``attrs`` dict of sizes
(``n, b, a, k`` ...) read from the call's arguments or result — the
numbers the flop closed forms in ``repro.perfmodel.flops`` need.  Spans
nest per thread; a span's self time is its duration minus the part of
that interval its children cover.  Wrappers pass arguments and results
through untouched.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "trace_id", "tid", "phase", "attrs")

    def __init__(self, name, start, parent, trace_id, tid, phase):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.trace_id = trace_id
        self.tid = tid
        self.phase = phase
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with one open-span stack per thread.

    ``phase`` and ``trace_id`` are set by the benchmark's main thread
    around each operation (a fit, an epoch, a serving phase); spans
    opened on other threads (SPMD thread-ranks, the serving batcher)
    inherit the values current when they start.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.phase = ""
        self.trace_id = ""
        self._local = threading.local()

    def begin(self, name: str) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = Span(
            name,
            self.clock(),
            stack[-1] if stack else None,
            self.trace_id,
            threading.get_ident(),
            self.phase,
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        self._local.stack.pop()
        self.spans.append(span)  # list.append is atomic under the GIL

    def wrap(self, name: str, fn, sizes=None, outcome=None):
        """``fn`` with a span around each call.

        ``sizes(args, kwargs)`` reads the span's attrs before the span
        opens (so a call that raises still has them); ``outcome(args,
        kwargs, result)`` adds what only the result knows, after it closed.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = None if sizes is None else sizes(args, kwargs)
            span = self.begin(name)
            span.attrs = attrs
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if outcome is not None:
                span.attrs = {**(attrs or {}), **outcome(args, kwargs, result)}
            return result

        return traced


# -- aggregation -------------------------------------------------------------


def self_times(spans) -> dict:
    """``{span: self time}``: duration minus the union of child intervals.

    Children of one parent run on the parent's thread and so never
    overlap each other; the union is still taken (clipped to the parent)
    so a malformed tree cannot produce a negative self time.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s] = s.duration - covered
    return out


def by_name(spans) -> dict:
    groups = defaultdict(list)
    for s in spans:
        groups[s.name].append(s)
    return groups


def has_ancestor(span: Span, name: str) -> bool:
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


def write_chrome_trace(spans, path) -> None:
    """Chrome-trace ("Trace Event") JSON; open in chrome://tracing or Perfetto."""
    events = [
        {
            "name": s.name,
            "ph": "X",
            "ts": s.start * 1e6,
            "dur": s.duration * 1e6,
            "pid": 1,
            "tid": s.tid,
            "args": {"trace_id": s.trace_id, "phase": s.phase, **(s.attrs or {})},
        }
        for s in spans
    ]
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


# -- patching ----------------------------------------------------------------


class Patches:
    """The set of rebindings one traced pass makes, and their undo log."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        #: (owner, attribute name, original, replacement) in install order.
        self.applied: list = []

    def _set(self, owner, name: str, original, replacement) -> None:
        setattr(owner, name, replacement)
        self.applied.append((owner, name, original, replacement))

    def method(self, cls, name: str, span_name: str, sizes=None, outcome=None) -> None:
        """Rebind ``cls.name`` (plain, class or static method) in place."""
        raw = cls.__dict__[name]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self.tracer.wrap(span_name, raw.__func__, sizes, outcome))
        else:
            wrapped = self.tracer.wrap(span_name, raw, sizes, outcome)
        self._set(cls, name, raw, wrapped)

    def function(self, fn, span_name: str, sizes=None, outcome=None) -> None:
        """Rebind every ``repro.*`` module attribute that *is* ``fn``."""
        wrapped = self.tracer.wrap(span_name, fn, sizes, outcome)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, fn, wrapped)

    def install(self) -> None:
        """Re-apply every rebinding (after an :meth:`uninstall`)."""
        for owner, name, _, replacement in self.applied:
            setattr(owner, name, replacement)

    def uninstall(self) -> None:
        for owner, name, original, _ in reversed(self.applied):
            setattr(owner, name, original)

    def still_patched(self) -> list:
        """``(owner, name)`` of every rebinding that is not the original now."""
        return [
            (owner, name)
            for owner, name, original, _ in self.applied
            if vars(owner)[name] is not original
        ]

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# -- attrs readers (sizes only; never touch values) ---------------------------


def _dims(h) -> dict:
    return {"n": h.n, "b": h.b, "a": h.a}


def _rows(x) -> int:
    """Right-hand sides in a row-major ``(k, N)`` stack (a vector is one)."""
    return 1 if getattr(x, "ndim", 1) == 1 else int(x.shape[0])


def _columns(x) -> int:
    """Right-hand sides in a column-major ``(N,)`` / ``(N, k)`` argument."""
    return 1 if getattr(x, "ndim", 1) == 1 else int(x.shape[1])


def _handle(args, kwargs):
    return _dims(args[0])


def _handle_rows(args, kwargs):
    return {**_dims(args[0]), "k": _rows(args[1])}


def _handle_columns(args, kwargs):
    return {**_dims(args[0]), "k": _columns(args[1])}


def _handle_lanes(args, kwargs):
    return {**_dims(args[0]), "k": sum(_rows(s) for s in args[1])}


def _handle_sample(args, kwargs):
    return {**_dims(args[0]), "k": int(args[1])}


def _handle_cached(field: str):
    """Sizes plus whether the handle already holds the answer: a cached
    ``logdet`` / ``selected_inverse_diagonal`` does no arithmetic, so its
    computed flops are zero."""

    def sizes(args, kwargs):
        return {**_dims(args[0]), "cached": getattr(args[0], field, None) is not None}

    return sizes


#: ``sizes`` reader per public factor-handle method (default: dims only).
_FACTOR_SIZES = {
    "logdet": _handle_cached("_logdet"),
    "selected_inverse_diagonal": _handle_cached("_selinv_diag"),
    "solve": _handle_columns,
    "solve_lt": _handle_columns,
    "solve_and_selected_inverse_diagonal": _handle_columns,
    "solve_stack": _handle_rows,
    "solve_lt_stack": _handle_rows,
    "solve_each": _handle_rows,
    "solve_stack_lanes": _handle_lanes,
    "solve_lt_stack_lanes": _handle_lanes,
    "sample": _handle_sample,
}

_FACTOR_RENAMES = {"selected_inverse_diagonal": "selinv_diag"}


def _public_methods(cls) -> list:
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and callable(value) and not isinstance(value, type)
    ]


def _factorize_batch_outcome(args, kwargs, result):
    return {"n": result.n, "b": result.b, "a": result.a, "t": result.t}


def _d_factorize_outcome(args, kwargs, result):
    return {"P": result.P, "counts": [f.part.n_blocks for f in result.factors]}


def _assemble_sizes(args, kwargs):
    plan = args[0].plan
    return {"flops": plan.flops(1), "bytes": plan.bytes_moved(1)}


def _assemble_batch_outcome(args, kwargs, result):
    plan, t = args[0].plan, result.t
    return {"t": t, "flops": plan.flops(t), "bytes": plan.bytes_moved(t)}


def _eval_batch_sizes(args, kwargs):
    return {"points": len(args[1])}


def _bfgs_outcome(args, kwargs, result):
    return {"iterations": result.n_iterations, "converged": result.converged}


def _submit_sizes(args, kwargs):
    return {"request": id(args[3])}


def _execute_batch_sizes(args, kwargs):
    return {"requests": [id(r) for r in args[1]]}


def install_default(tracer: Tracer) -> Patches:
    """Wrap the entry points the per-layer metrics are defined on.

    Every ``repro`` module involved is imported first, so the module
    scan in :meth:`Patches.function` sees all bindings.
    """
    import repro.inla.bfgs
    import repro.inla.dalia
    import repro.inla.evaluator
    import repro.inla.hessian
    import repro.inla.nongaussian
    import repro.inla.objective
    import repro.inla.sampling
    import repro.inla.solvers
    import repro.serving.api
    import repro.serving.registry
    import repro.serving.server
    import repro.structured.factor
    import repro.structured.multifactor
    from repro.inla.evaluator import FobjEvaluator
    from repro.inla.sampling import LatentPosterior
    from repro.model.assembler import CoregionalSTModel, CurvaturePlan, SymbolicAssembly
    from repro.serving.registry import ModelRegistry
    from repro.serving.server import Server
    from repro.structured.factor import BTAFactor, DistributedBTAFactor
    from repro.structured.multifactor import BTAFactorBatch

    p = Patches(tracer)
    try:
        # model
        p.method(CoregionalSTModel, "__init__", "model.build")
        p.method(SymbolicAssembly, "__init__", "model.symbolic")
        p.method(CoregionalSTModel, "assemble", "model.assemble", _assemble_sizes)
        p.method(
            CoregionalSTModel, "assemble_batch", "model.assemble_batch",
            outcome=_assemble_batch_outcome,
        )
        p.method(SymbolicAssembly, "qp_quad_stack", "model.qp_quad")
        p.method(CurvaturePlan, "conditional_values", "model.curvature")
        p.method(CurvaturePlan, "newton_rhs", "model.curvature")
        # structured
        p.function(repro.structured.factor.factorize, "structured.factorize", _handle)
        p.function(
            repro.structured.multifactor.factorize_batch,
            "structured.factorize_batch",
            outcome=_factorize_batch_outcome,
        )
        p.function(
            repro.structured.factor.d_factorize, "structured.d_factorize",
            _handle, _d_factorize_outcome,
        )
        for cls, prefix in (
            (BTAFactor, "structured."),
            (DistributedBTAFactor, "structured.d_"),
            (BTAFactorBatch, "structured."),
        ):
            for name in _public_methods(cls):
                p.method(
                    cls,
                    name,
                    prefix + _FACTOR_RENAMES.get(name, name),
                    _FACTOR_SIZES.get(name, _handle),
                )
        # inla
        p.function(repro.inla.bfgs.bfgs_minimize, "inla.bfgs", outcome=_bfgs_outcome)
        p.function(repro.inla.hessian.fd_hessian, "inla.hessian")
        p.method(FobjEvaluator, "eval_batch", "inla.eval_batch", _eval_batch_sizes)
        p.method(FobjEvaluator, "__call__", "inla.eval_one")
        p.function(repro.inla.objective.evaluate_fobj, "inla.objective")
        p.function(repro.inla.objective.finish_fobj_results_batch, "inla.objective")
        p.function(repro.inla.nongaussian.evaluate_fobj_nongaussian, "inla.newton")
        p.function(repro.inla.nongaussian.evaluate_fobj_nongaussian_batch, "inla.newton")
        p.method(LatentPosterior, "at", "inla.posterior_at")
        p.method(LatentPosterior, "marginals", "inla.marginals")
        # serving
        p.method(Server, "submit", "serving.submit", _submit_sizes)
        p.function(repro.serving.api.execute_batch, "serving.execute_batch", _execute_batch_sizes)
        p.method(ModelRegistry, "posterior", "serving.registry")
    except BaseException:
        p.uninstall()
        raise
    return p
