"""Seeded inputs of the four workloads.

``build(name, data_seed)`` is the cold set-up a user pays: synthesize the
dataset, construct the model (which builds the symbolic assembly plan),
and run one evaluation so lazily built plans exist.  The dataset seed is
fixed per workload (see ``spec.Workload.data_seed``); the run's ``--seed``
draws everything on the query side.  ``repro`` receives only the
generated inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.inla import DALIA
from repro.inla.bfgs import BFGSOptions
from repro.inla.nongaussian import PoissonLikelihood
from repro.model.datasets import make_dataset
from repro.model.pollution import ELEVATION_EFFECTS, downscaling_grid, make_pollution_dataset
from repro.serving import ExceedanceRequest, PredictRequest, SampleRequest

#: Points per downscaling prediction (paper Sec. VI: 0.1 deg -> 0.02 deg).
DOWNSCALE_POINTS = 1024
#: Request mix of the serving phases.
MIX = (("sample", 0.6), ("predict", 0.3), ("exceedance", 0.1))


@dataclass
class Inputs:
    model: object
    likelihood: object | None = None
    fit_options: BFGSOptions | None = None
    #: true elevation coefficients per response (pollution data only).
    elevation_truth: np.ndarray | None = None
    engine_kwargs: dict = field(default_factory=dict)

    def engine(self) -> DALIA:
        """A fresh engine: evaluator caches and warm starts are cold."""
        return DALIA(self.model, likelihood=self.likelihood, **self.engine_kwargs)


def _gauss3(seed: int) -> Inputs:
    ds = make_pollution_dataset(ns=50, n_days=12, obs_cells=60, seed=seed)
    return Inputs(
        model=ds.model,
        fit_options=BFGSOptions(max_iter=6),
        elevation_truth=ELEVATION_EFFECTS,
        engine_kwargs={"s1_workers": 1},
    )


def _poisson2(seed: int) -> Inputs:
    model, _, latent = make_dataset(nv=2, ns=12, nt=24, nr=1, obs_per_step=20, seed=seed)
    # Counts as in benchmarks/bench_nongaussian.py: damped, clipped log-rates.
    rng = np.random.default_rng([seed, 1])
    eta = np.clip(np.asarray(model.A @ latent).ravel() * 0.3, -3.0, 3.0)
    return Inputs(model=model, likelihood=PoissonLikelihood(rng.poisson(np.exp(eta)).astype(float)))


def _serve(seed: int) -> Inputs:
    model, _, _ = make_dataset(nv=1, ns=30, nt=24, nr=2, obs_per_step=30, seed=seed)
    return Inputs(model=model)


def _solver(seed: int) -> Inputs:
    model, _, _ = make_dataset(nv=1, ns=100, nt=48, nr=2, obs_per_step=40, seed=seed)
    return Inputs(model=model)


_BUILDERS = {
    "gauss3_fit": _gauss3,
    "poisson2_fit": _poisson2,
    "serve_pipeline": _serve,
    "solver_ops": _solver,
}


def build(name: str, data_seed: int) -> Inputs:
    inputs = _BUILDERS[name](data_seed)
    engine = inputs.engine()
    engine.evaluator(engine.default_start())  # first evaluation builds the lazy plans
    return inputs


def stencil_thetas(mode: np.ndarray, seed: int, count: int = 64) -> np.ndarray:
    """Seeded thetas around the fitted mode for the cold-stencil phase."""
    rng = np.random.default_rng([seed, 2])
    return mode + 0.05 * rng.standard_normal((count, mode.size))


def downscale_queries(model, seed: int, count: int = 16) -> list:
    """``(coords, time_idx, v)`` draws of 1024 fine-grid points inside the mesh."""
    rng = np.random.default_rng([seed, 3])
    fine = downscaling_grid(factor=5)
    (x0, x1), (y0, y1) = model.mesh.bbox()
    fine = fine[(fine[:, 0] > x0) & (fine[:, 0] < x1) & (fine[:, 1] > y0) & (fine[:, 1] < y1)]
    return [
        (
            fine[rng.choice(len(fine), DOWNSCALE_POINTS, replace=False)],
            rng.integers(0, model.nt, DOWNSCALE_POINTS),
            model.nv - 1,
        )
        for _ in range(count)
    ]


def request_stream(model, seed: int, count: int) -> list:
    """The mixed request stream: 60% two-draw samples, 30% eight-point
    predictions, 10% exceedance maps — built before any timing.

    Every block of ten holds exactly 6 + 3 + 1 in seeded order, so the
    work in any prefix does not depend on the seed's luck with the mix.
    """
    rng = np.random.default_rng([seed, 4])
    (x0, x1), (y0, y1) = model.mesh.bbox()
    mx, my = 0.05 * (x1 - x0), 0.05 * (y1 - y0)
    block = np.repeat(np.arange(len(MIX)), [round(10 * share) for _, share in MIX])
    kinds = np.concatenate([rng.permutation(block) for _ in range(-(-count // 10))])[:count]
    out = []
    for i, kind in enumerate(kinds):
        if kind == 0:
            out.append(SampleRequest(n_samples=2, seed=int(seed) * 1_000_003 + i))
        elif kind == 1:
            coords = np.column_stack(
                [rng.uniform(x0 + mx, x1 - mx, 8), rng.uniform(y0 + my, y1 - my, 8)]
            )
            out.append(
                PredictRequest(
                    coords=coords,
                    time_idx=rng.integers(0, model.nt, 8),
                    v=int(rng.integers(0, model.nv)),
                )
            )
        else:
            out.append(ExceedanceRequest(threshold=float(rng.normal(0.0, 0.5))))
    return out


def churn_thetas(mode: np.ndarray, seed: int, count: int = 6) -> np.ndarray:
    rng = np.random.default_rng([seed, 5])
    return mode + 0.02 * rng.standard_normal((count, mode.size))
