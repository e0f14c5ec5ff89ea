"""Fig. 8 / Sec. VI: the air-pollution application.

Runs the full trivariate coregional pipeline on the synthetic CAMS-like
dataset (DESIGN.md, "Paper substitutions") and checks the
paper's reported posterior structure:

- elevation effects: negative for PM2.5 and PM10, positive for O3
  (paper: -0.45 / -0.55 / +1.27 ug/m^3 per km), truth inside the 95%
  intervals;
- inter-pollutant correlations: strong positive PM2.5-PM10, moderate
  negative with O3 (paper: +0.97 / -0.61 / -0.63);
- spatial downscaling to a 5x finer grid (25-fold more detail) produces a
  time-resolved surface that the time-averaged field cannot represent.
"""

import numpy as np
import pytest

from benchmarks.conftest import write_report
from repro.diagnostics import format_table
from repro.inla import DALIA
from repro.inla.bfgs import BFGSOptions
from repro.model.pollution import (
    ELEVATION_EFFECTS,
    POLLUTANTS,
    downscaling_grid,
    make_pollution_dataset,
)


@pytest.fixture(scope="module")
def fitted():
    ds = make_pollution_dataset(ns=110, n_days=6, obs_cells=100, seed=2022)
    engine = DALIA(ds.model, s1_workers=8, s2_parallel=True)
    result = engine.fit(options=BFGSOptions(max_iter=40, grad_tol=3e-2))
    return ds, engine, result


def test_fig8_application(benchmark, fitted, results_dir):
    ds, engine, result = fitted
    model = ds.model

    # --- elevation effects (paper Sec. VI, paragraph 2) ------------------
    rows = []
    for v, name in enumerate(POLLUTANTS):
        fe = result.latent.fixed_effects(v)[1]
        rows.append(
            (name, round(fe.mean, 3), round(fe.q025, 3), round(fe.q975, 3),
             ELEVATION_EFFECTS[v])
        )
        # Sign recovery and truth inside a generous interval.
        assert np.sign(fe.mean) == np.sign(ELEVATION_EFFECTS[v]), name
        assert fe.q025 - 0.5 < ELEVATION_EFFECTS[v] < fe.q975 + 0.5, name

    # --- correlations ------------------------------------------------------
    corr = result.response_correlations
    corr_rows = [
        ("PM2.5-PM10", round(corr[0, 1], 3), +0.97),
        ("PM2.5-O3", round(corr[0, 2], 3), -0.61),
        ("PM10-O3", round(corr[1, 2], 3), -0.63),
    ]
    assert corr[0, 1] > 0.5  # strong positive
    assert corr[0, 2] < 0.0  # negative
    assert corr[1, 2] < 0.0  # negative

    # --- downscaling (Fig. 8) -----------------------------------------------
    fine = downscaling_grid(factor=5)
    (x0, x1), (y0, y1) = model.mesh.bbox()
    fine = fine[
        (fine[:, 0] > x0) & (fine[:, 0] < x1) & (fine[:, 1] > y0) & (fine[:, 1] < y1)
    ]
    day0 = engine.predict_st(result, fine, np.zeros(len(fine), dtype=np.int64), v=2)
    day_mid = engine.predict_st(
        result, fine, np.full(len(fine), model.nt // 2, dtype=np.int64), v=2
    )
    time_avg = np.mean(
        [engine.predict_st(result, fine, np.full(len(fine), t, dtype=np.int64), v=2)
         for t in range(model.nt)],
        axis=0,
    )
    # Time-resolved surfaces must genuinely differ from the average (the
    # paper's argument for spatio-temporal over spatial-only modeling).
    dev0 = np.abs(day0 - time_avg).mean()
    assert dev0 > 0.05 * (np.abs(time_avg).mean() + 1e-9)
    assert len(fine) > 10 * len(ds.obs_coords)  # ~25-fold more detail

    write_report(
        results_dir,
        "fig8_application",
        format_table(
            ["pollutant", "elev. effect", "q025", "q975", "paper value"],
            rows,
            title="Sec. VI: posterior elevation effects (ug/m^3 per km)",
        )
        + "\n\n"
        + format_table(
            ["pair", "estimated corr", "paper value"],
            corr_rows,
            title="Sec. VI: inter-pollutant correlations",
        )
        + "\n\n"
        + format_table(
            ["surface", "mean |O3 anomaly|"],
            [
                ("day 1", round(float(np.abs(day0).mean()), 3)),
                (f"day {model.nt // 2 + 1}", round(float(np.abs(day_mid).mean()), 3)),
                ("time average", round(float(np.abs(time_avg).mean()), 3)),
                ("|day1 - avg| (must be > 0)", round(float(dev0), 3)),
            ],
            title=f"Fig. 8: downscaling {len(ds.obs_coords)} cells -> {len(fine)} points",
        ),
    )

    # Timed artifact: one downscaling prediction pass.
    benchmark.pedantic(
        engine.predict_st,
        args=(result, fine, np.zeros(len(fine), dtype=np.int64), 2),
        rounds=3,
        iterations=1,
    )
