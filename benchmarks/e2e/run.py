"""End-to-end benchmark: fit -> posterior -> serve -> solver, four workloads.

Two ways to run it, from the repository root:

``python3 benchmarks/e2e/run.py``
    Everything: each workload in a fresh child interpreter, untraced
    (end-to-end metrics) then traced (per-layer metrics); prints every
    metric by name and unit and writes ``benchmarks/e2e/out/ledger.json``.
    ``--workload W`` restricts it to one workload, ``--seed S`` changes
    the inputs, ``--aa N`` repeats the untraced set N times and fails if
    any metric's spread exceeds its bound.

``python3 benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1``
    One run in this process (what the children and the PR driver call).
    The last line of standard output is one JSON object with the keys
    ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec  # a sibling of this script; stdlib only, safe before the BLAS pins

_T0 = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_BUILDS = 3


def prepare_environment() -> dict:
    """Pin BLAS to one thread and clear ``REPRO_*`` switches, before NumPy
    or ``repro`` is imported; returns the environment that was resolved.

    With OpenBLAS's default two threads on a 2-vCPU host the same fit
    varied 22% between processes; pinned it varies 5% and is not slower.
    """
    if os.environ.get("REPRO_FAULTS"):
        sys.exit("refusing to benchmark with REPRO_FAULTS set (fault injection is on)")
    cleared = sorted(k for k in os.environ if k.startswith("REPRO_"))
    for key in cleared:
        print(f"warning: unsetting {key} for the benchmark", file=sys.stderr)
        del os.environ[key]
    for key in BLAS_PINS:
        os.environ[key] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    return {"blas_threads": 1, "cleared": cleared, "cpus": os.cpu_count(),
            "python": sys.version.split()[0]}


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src`` — never another copy."""
    import repro

    origin = Path(repro.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        sys.exit(f"repro was imported from {origin}, not from {ROOT / 'src'}")


# -- one run -------------------------------------------------------------------


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    env = prepare_environment()
    import_program()
    import numpy as np

    import checks
    import layers
    import loadgen
    import phases
    import tracing
    import workloads

    env["numpy"] = np.__version__
    w = spec.workload(name)
    import_s = time.perf_counter() - _T0

    tracer = patches = None
    extras = {}
    if trace:
        extras.update(layers.host_peaks())
        tracer = tracing.Tracer()
        patches = tracing.install_default(tracer)
        tracer.phase = tracer.trace_id = "setup"
    try:
        builds = []
        for _ in range(1 if trace else SETUP_BUILDS):
            t0 = time.perf_counter()
            inputs = workloads.build(name, w.data_seed)
            builds.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(builds)

        run = phases.Run(workload=w, inputs=inputs, seed=seed, seconds=seconds, tracer=tracer)
        t_measure = time.perf_counter()
        phases.measure(run)
        measured_s = time.perf_counter() - t_measure
        if trace:
            extras["trace.overhead_ratio"] = phases.tracing_overhead(run, patches)
            _, A, rhs, _ = run.kept["solver_matrix"]
            extras.update(layers.comm_epoch(A, rhs))
    finally:
        if patches is not None:
            patches.uninstall()
            if patches.still_patched():
                sys.exit(f"repro attributes left patched: {patches.still_patched()}")

    results = checks.run_checks(run)
    bad = [c for c in results if not c[1] <= c[2]]
    run.count(len(results), len(bad))
    ref_err = max((err for _, err, _, is_ref in results if is_ref), default=0.0)

    detail = {}
    if trace:
        extras["check.failed_ratio"] = run.failed / run.attempted
        extras["check.ref_err"] = ref_err
        spans = [s for s in tracer.spans if s.phase != phases.OVERHEAD_PHASE]
        values = layers.per_layer(run, spans, extras)
        for m in spec.PER_LAYER:
            detail[m.name] = {"value": values[m.name], "unit": m.unit}
    else:
        run.samples["setup_s"] = [setup_s]
        for m in spec.END_TO_END:
            # The value is the metric's statistic of the run's repeats (the
            # best one, for most); median and quartiles are kept beside it.
            xs = run.samples[m.name]
            detail[m.name] = {"value": m.of(xs), "unit": m.unit, "stat": m.stat,
                              **loadgen.summarize(xs)}
        detail["setup_s"].update(import_s=import_s, builds=builds)

    correct = not bad and run.failed == 0
    print(f"# {name} seed={seed} seconds={seconds:g} trace={int(trace)} "
          f"(measured {measured_s:.1f} s, set-up {setup_s:.2f} s)")
    for key, d in detail.items():
        extra = ""
        if d.get("n", 1) > 1:
            extra = (f"  {d['stat']} of n={d['n']} [median {d['median']:.6g}, "
                     f"q1 {d['q1']:.6g}, q3 {d['q3']:.6g}]")
        print(f"{name:16s} {key:40s} {d['value']:.6g} {d['unit']}{extra}")
    if not trace:
        for phase in ("open_lo", "open_hi"):
            lat = np.concatenate([res.latency for res in run.kept[phase]]) * 1e3
            late = np.concatenate([res.lateness for res in run.kept[phase]]) * 1e3
            lat = lat[np.isfinite(lat)]
            p = loadgen.tail_percentile(len(lat))
            print(f"{name:16s} {phase + ' latency':40s} p50 {np.percentile(lat, 50):.3f} ms, "
                  f"p{p:g} {np.percentile(lat, p):.3f} ms, n={len(lat)}, "
                  f"generator late p99 {np.percentile(late, 99):.3f} ms")
    else:
        gemm = extras["host.gemm_gflops"]
        print(f"# {name}: where the fit phase spends its time (self time per span; "
              f"flops computed; host DGEMM {gemm:.1f} Gflop/s)")
        for r in layers.phase_profile(spans, "fit"):
            rate = f"{r['gflops']:7.2f} Gflop/s ({r['gflops'] / gemm:4.0%} of DGEMM)" \
                if r["flops"] else ""
            print(f"{name:16s} fit {r['name']:28s} {r['share']:6.1%} {r['self_s']:8.3f} s "
                  f"{r['calls']:6d} calls {r['flops']:10.3g} flop {rate}")
    for cname, err, tol, _ in results:
        print(f"{name:16s} check {cname:34s} {'ok  ' if err <= tol else 'FAIL'} "
              f"err {err:.3g} (tol {tol:g})")
    print(f"{name:16s} operations attempted {run.attempted}, failed {run.failed}; "
          f"ref_err {ref_err:.3g}")

    OUT.mkdir(exist_ok=True)
    stem = f"{name}-s{seed}-t{int(trace)}"
    if trace:
        tracing.write_chrome_trace(tracer.spans, OUT / f"{stem}.trace.json")
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env, "correct": correct, "attempted": run.attempted,
        "failed": run.failed, "ref_err": ref_err, "measured_s": measured_s,
        "metrics": detail,
        "checks": [{"name": c, "error": e, "tolerance": t} for c, e, t, _ in results],
        "counters": run.counters,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=float))

    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(d["value"]), "unit": d["unit"]} for k, d in detail.items()},
    }))
    return 0


# -- all workloads, in child interpreters ----------------------------------------


def _child(name: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    print("\n".join(lines[:-1]), flush=True)
    if proc.returncode != 0:
        sys.exit(f"{name} (trace={trace}) exited with code {proc.returncode}")
    json.loads(lines[-1])  # the contract's result line must parse
    return json.loads((OUT / f"{name}-s{seed}-t{trace}.json").read_text())


def run_all(names: list, seed: int, seconds: float, aa: int) -> int:
    ledger = {
        "paths": spec.PATHS, "seed": seed, "seconds": seconds,
        "workloads": {w.name: {"why": w.why} for w in spec.WORKLOADS if w.name in names},
        "end_to_end": {m.name: {"unit": m.unit, "better": m.better, "bound": m.bound}
                       for m in spec.END_TO_END},
    }
    ok = True
    sets = []
    for _ in range(max(1, aa)):
        sets.append({name: _child(name, seed, seconds, 0) for name in names})
    for name in names:
        first = sets[0][name]
        entry = ledger["workloads"][name]
        entry["end_to_end"] = first["metrics"]
        entry["environment"] = first["environment"]
        ok &= all(s[name]["correct"] for s in sets)
        if not aa:
            traced = _child(name, seed, seconds, 1)
            entry["per_layer"] = traced["metrics"]
            ok &= traced["correct"]
    if aa:
        print(f"\n# A/A: {aa} untraced sets of the same code, seed {seed}")
        for name in names:
            spreads = ledger["workloads"][name]["aa_spread"] = {}
            for m in spec.END_TO_END:
                vals = [s[name]["metrics"][m.name]["value"] for s in sets]
                spread = (max(vals) - min(vals)) / statistics.median(vals)
                spreads[m.name] = spread
                verdict = "ok" if spread <= m.bound else "EXCEEDS BOUND"
                ok &= spread <= m.bound
                shown = ", ".join(f"{v:.5g}" for v in vals)
                print(f"{name:16s} {m.name:18s} [{shown}] {m.unit}  "
                      f"spread {spread:.1%}  bound {m.bound:.0%}  {verdict}")
    OUT.mkdir(exist_ok=True)
    (OUT / "ledger.json").write_text(json.dumps(ledger, indent=1))
    print(f"\nledger written to {OUT / 'ledger.json'}; {'all runs correct' if ok else 'FAILED'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=[w.name for w in spec.WORKLOADS])
    p.add_argument("--seed", type=int, default=2022)
    p.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    p.add_argument("--trace", type=int, choices=(0, 1),
                   help="run one workload in this process, untraced (0) or traced (1)")
    p.add_argument("--aa", type=int, default=0, metavar="N",
                   help="run the untraced set N times and compare the spread with the bounds")
    p.add_argument("--write-manifest", action="store_true",
                   help="write BENCHMARK.json at the repository root from spec.py")
    args = p.parse_args(argv)
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.manifest(), indent=2) + "\n")
        return 0
    if args.trace is not None:
        if args.workload is None:
            p.error("--trace needs --workload")
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    names = [args.workload] if args.workload else [w.name for w in spec.WORKLOADS]
    return run_all(names, args.seed, args.seconds, args.aa)


if __name__ == "__main__":
    sys.exit(main())
