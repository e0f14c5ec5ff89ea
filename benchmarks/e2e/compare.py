"""Compare two ledgers written by ``run.py``: ``compare.py A.json B.json``.

One row per (workload, end-to-end metric) with both medians, the ratio
B/A with its base, and a verdict:

- ``regressed``  — B is worse than A by more than the metric's bound;
- ``improved``   — B is better than A by more than the noise floor (the
  larger A/A spread the two ledgers recorded, or the bound when neither
  ran ``--aa``);
- ``unchanged``  — neither;
- ``unresolved`` — an A/A spread recorded in either ledger exceeds the
  bound, so the runs cannot tell a change of that size from noise.

Exit code 1 when any row regressed.  This is the out-of-tree first form
of ROADMAP's ``bench-diff``.
"""

from __future__ import annotations

import json
import sys


def worsening(a: float, b: float, better: str) -> float:
    """Relative change from A to B, signed so that positive is worse."""
    change = (b - a) / a
    return change if better == "lower" else -change


def verdict(a: float, b: float, better: str, bound: float, spread: float | None) -> str:
    if spread is not None and spread > bound:
        return "unresolved"
    w = worsening(a, b, better)
    if w > bound:
        return "regressed"
    if -w > (bound if spread is None else spread):
        return "improved"
    return "unchanged"


def compare(A: dict, B: dict) -> list:
    rows = []
    for name, wa in A["workloads"].items():
        wb = B["workloads"].get(name)
        if wb is None:
            continue
        for metric, spec in A["end_to_end"].items():
            a = wa["end_to_end"][metric]["value"]
            b = wb["end_to_end"][metric]["value"]
            spreads = [w["aa_spread"][metric] for w in (wa, wb) if "aa_spread" in w]
            spread = max(spreads) if spreads else None
            rows.append({
                "workload": name, "metric": metric, "unit": spec["unit"], "a": a, "b": b,
                "ratio": b / a, "bound": spec["bound"], "spread": spread,
                "verdict": verdict(a, b, spec["better"], spec["bound"], spread),
            })
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[0]) as fa, open(argv[1]) as fb:
        rows = compare(json.load(fa), json.load(fb))
    print(f"{'workload':16s} {'metric':18s} {'A':>11s} {'B':>11s} {'B/A':>7s}  base A          "
          f"{'bound':>5s} {'A/A':>6s}  verdict")
    for r in rows:
        spread = "-" if r["spread"] is None else f"{r['spread']:.1%}"
        print(f"{r['workload']:16s} {r['metric']:18s} {r['a']:11.5g} {r['b']:11.5g} "
              f"{r['ratio']:7.3f}  of {r['a']:.4g} {r['unit']:6s} {r['bound']:5.0%} {spread:>6s}  "
              f"{r['verdict']}")
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
