"""Tier-1 checks of the benchmark harness itself (no timing assertions).

Run with the rest of the suite (``PYTHONPATH=src python -m pytest -q``);
the workloads themselves are exercised by ``run.py``, not here.
"""

import json
import re
import sys
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import loadgen  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        assert seconds > 0
        self.now += seconds


# -- spans --------------------------------------------------------------------


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    root = tracer.begin("root")  # 0 .. 10
    clock.now = 1.0
    a = tracer.begin("a")  # 1 .. 4
    clock.now = 2.0
    a1 = tracer.begin("a1")  # 2 .. 3
    clock.now = 3.0
    tracer.end(a1)
    clock.now = 4.0
    tracer.end(a)
    clock.now = 6.0
    b = tracer.begin("b")  # 6 .. 9
    clock.now = 9.0
    tracer.end(b)
    clock.now = 10.0
    tracer.end(root)

    selfs = tracing.self_times(tracer.spans)
    assert selfs[root] == pytest.approx(10 - 3 - 3)
    assert selfs[a] == pytest.approx(3 - 1)
    assert selfs[a1] == pytest.approx(1)
    assert selfs[b] == pytest.approx(3)
    assert sum(selfs.values()) == pytest.approx(root.duration)
    assert a1.parent is a and a.parent is root and root.parent is None
    assert tracing.has_ancestor(a1, "root") and not tracing.has_ancestor(b, "a")


def test_wrapper_is_transparent_and_closes_span_on_error():
    tracer = tracing.Tracer()
    calls = []

    def f(x, *, k=1):
        calls.append((x, k))
        if x < 0:
            raise ValueError("negative")
        return [x, k]

    wrapped = tracer.wrap("f", f, sizes=lambda args, kwargs: {"x": args[0]},
                          outcome=lambda args, kwargs, result: {"len": len(result)})
    out = wrapped(3, k=2)
    assert out == [3, 2] and calls == [(3, 2)]
    assert tracer.spans[0].attrs == {"x": 3, "len": 2}
    with pytest.raises(ValueError):
        wrapped(-1)
    assert [s.name for s in tracer.spans] == ["f", "f"]
    assert tracer.spans[1].attrs == {"x": -1}  # sizes survive a call that raised
    assert tracer.begin("next").parent is None  # the failed span left the stack


def test_install_and_uninstall_restore_identical_objects():
    import repro.inla.sampling
    import repro.structured.factor
    from repro.inla.sampling import LatentPosterior
    from repro.structured.factor import BTAFactor

    before = {
        "factorize_in_sampling": repro.inla.sampling.factorize,
        "factorize": repro.structured.factor.factorize,
        "solve_stack": BTAFactor.__dict__["solve_stack"],
        "at": LatentPosterior.__dict__["at"],
    }
    patches = tracing.install_default(tracing.Tracer())
    try:
        assert len(patches.applied) > 40
        assert repro.inla.sampling.factorize is not before["factorize_in_sampling"]
        assert isinstance(LatentPosterior.__dict__["at"], classmethod)
        assert patches.still_patched()
    finally:
        patches.uninstall()
    assert patches.still_patched() == []
    assert repro.inla.sampling.factorize is before["factorize_in_sampling"]
    assert repro.structured.factor.factorize is before["factorize"]
    assert BTAFactor.__dict__["solve_stack"] is before["solve_stack"]
    assert LatentPosterior.__dict__["at"] is before["at"]

    with pytest.raises(RuntimeError):
        with tracing.install_default(tracing.Tracer()) as patches:
            assert patches.still_patched()
            raise RuntimeError("benchmark died mid-pass")
    assert patches.still_patched() == []
    assert repro.structured.factor.factorize is before["factorize"]


# -- statistics ---------------------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert loadgen.tail_percentile(19) is None
    assert loadgen.tail_percentile(20) == 50.0
    assert loadgen.tail_percentile(100) == 90.0
    assert loadgen.tail_percentile(199) == 90.0
    assert loadgen.tail_percentile(200) == 95.0
    assert loadgen.tail_percentile(1000) == 99.0
    assert loadgen.tail_percentile(9999) == 99.0
    assert loadgen.tail_percentile(10000) == 99.9


def test_summarize_reports_median_quartiles_and_count():
    s = loadgen.summarize([4.0, 1.0, 3.0, 2.0, 5.0])
    assert s["median"] == 3.0 and s["n"] == 5 and s["q1"] < 3.0 < s["q3"]
    assert loadgen.summarize([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1}


def test_repeat_stops_before_overrunning_its_budget():
    clock = FakeClock()

    def op(_):
        clock.now += 4.0

    assert len(loadgen.repeat(op, seconds=10.0, clock=clock)) == 2  # a third would end at 12
    clock.now = 0.0
    assert len(loadgen.repeat(op, seconds=3.0, clock=clock)) == 1  # always at least once
    assert len(loadgen.repeat(op, count=5, clock=clock)) == 5
    seen = []
    loadgen.repeat(seen.append, count=3, prepare=lambda i: i * 10, clock=clock)
    assert seen == [0, 10, 20]
    with pytest.raises(ValueError):
        loadgen.repeat(op, clock=clock)


# -- open loop ----------------------------------------------------------------


def test_open_loop_times_from_due_and_accounts_lateness():
    clock = FakeClock()
    due = loadgen.schedule(rate=10.0, seconds=0.5)  # 0.0, 0.1, ... 0.4
    assert len(due) == 5 and due[1] == pytest.approx(0.1)
    pending = []

    def submit(i):
        if i == 1:
            clock.now += 0.25  # a slow submit: requests 2 and 3 are sent late
        if i == 4:
            raise RuntimeError("shed at admission")
        fut = Future()
        pending.append((i, fut))
        if i == 3:
            fut.set_exception(ValueError("failed request"))
        else:
            clock.now += 0.01  # service time, on the generator's clock here
            fut.set_result(i)
        return fut

    res = loadgen.open_loop(submit, due, clock=clock, sleep=clock.sleep)
    # sent: 0.00, 0.10, then 0.36 (late: due 0.2), 0.37 (late: due 0.3), 0.40
    assert res.sent == pytest.approx([0.0, 0.10, 0.36, 0.37, 0.40])
    assert res.lateness == pytest.approx([0.0, 0.0, 0.16, 0.07, 0.0])
    # latency counts from the due time, so the generator's lag is in it
    assert res.latency[2] == pytest.approx(0.37 - 0.2)
    assert list(res.ok) == [True, True, True, False, False]
    assert np.isnan(res.done[4])  # never admitted
    assert res.within(0.05) == pytest.approx(1 / 5)  # only request 0 made 50 ms
    assert res.within(1.0) == pytest.approx(3 / 5)  # failed and shed stay misses


# -- manifest -----------------------------------------------------------------

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def test_benchmark_json_matches_spec_and_contract():
    manifest = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert manifest == spec.manifest()
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                             "per_layer"}
    assert manifest["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert isinstance(manifest["run_seconds"], int) and 1 <= manifest["run_seconds"] <= 60
    names = []
    for w in manifest["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in manifest["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["better"] in ("lower", "higher") and 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in manifest["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and m["better"] in ("lower", "higher")
        names.append(m["name"])
    assert all(NAME.match(n) for n in names) and len(set(names)) == len(names)
    assert all(UNIT.match(m["unit"]) for m in manifest["end_to_end"] + manifest["per_layer"])
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
    assert max(m["bound"] for m in manifest["end_to_end"]) == setup[0]["bound"]


def test_every_workload_budgets_the_whole_run():
    for w in spec.WORKLOADS:
        assert set(w.budget) == set(spec.PHASES)
        assert sum(w.budget.values()) == pytest.approx(spec.RUN_SECONDS)
        assert set(w.traced_reps) == set(spec.PHASES) - {"open_lo", "open_hi"}


# -- compare ------------------------------------------------------------------


def test_compare_verdicts():
    v = compare.verdict
    assert v(10.0, 10.5, "lower", 0.10, None) == "unchanged"
    assert v(10.0, 11.5, "lower", 0.10, None) == "regressed"
    assert v(10.0, 8.5, "lower", 0.10, None) == "improved"
    assert v(100.0, 85.0, "higher", 0.10, None) == "regressed"
    assert v(100.0, 104.0, "higher", 0.10, 0.02) == "improved"  # beyond the A/A spread
    assert v(100.0, 104.0, "higher", 0.10, 0.05) == "unchanged"
    assert v(10.0, 20.0, "lower", 0.10, 0.30) == "unresolved"  # noise wider than the bound
