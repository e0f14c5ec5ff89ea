"""Shared benchmark helpers.

Every benchmark regenerates one table or figure of the paper.  Measured
numbers come from real runs on this host; paper-scale series come from
the calibrated performance model (see DESIGN.md, "Paper substitutions").
Each benchmark writes its series to ``benchmarks/results/<name>.txt``,
where the paper-shape comparison is read.
"""

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def comm_mode(request):
    """SPMD backend for the distributed benchmark legs (``--comm``)."""
    return request.config.getoption("--comm")


def write_report(results_dir, name: str, text: str) -> None:
    path = results_dir / f"{name}.txt"
    path.write_text(text + "\n")
    # Also echo to stdout (visible with pytest -s and in failure output).
    print(f"\n{text}\n[written to {path}]")
