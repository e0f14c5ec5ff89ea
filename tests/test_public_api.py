"""The curated top-level surface: ``import repro`` is enough.

Guards the api-redesign contract: every name in ``repro.__all__``
resolves, the serving tier is reachable without deep module paths, and
``__all__`` is the single source of truth (no missing or stale entries).
Every ``repro.<subpackage>.__all__`` is held to the same rule, so a
deleted module cannot leave a dangling export behind.
"""

import importlib
import pkgutil

import pytest

import repro

SUBPACKAGES = sorted(m.name for m in pkgutil.iter_modules(repro.__path__) if m.ispkg)


class TestPublicSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_all_is_sorted_into_documented_groups(self):
        """Spot-check the load-bearing names users reach for first."""
        for name in (
            "DALIA",
            "make_dataset",
            "LatentPosterior",
            "factorize",
            "BTAFactor",
            "select_solver",
            "Server",
            "ModelRegistry",
            "PredictRequest",
            "SampleRequest",
            "ExceedanceRequest",
        ):
            assert name in repro.__all__, name

    def test_serving_module_exported(self):
        assert repro.serving.Server is repro.Server
        assert repro.serving.ModelRegistry is repro.ModelRegistry

    def test_identity_with_deep_paths(self):
        """Top-level names are the same objects as their home modules' —
        no wrapper indirection that could drift."""
        from repro.inla.dalia import DALIA
        from repro.inla.sampling import LatentPosterior
        from repro.serving.server import Server
        from repro.structured.factor import factorize

        assert repro.DALIA is DALIA
        assert repro.LatentPosterior is LatentPosterior
        assert repro.Server is Server
        assert repro.factorize is factorize

    def test_star_import_is_curated(self):
        ns: dict = {}
        exec("from repro import *", ns)
        exported = {k for k in ns if not k.startswith("__")}
        assert exported == set(repro.__all__) - {"__version__"}

    def test_version(self):
        assert isinstance(repro.__version__, str) and repro.__version__


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_all_resolves(name):
    pkg = importlib.import_module(f"repro.{name}")
    exports = pkg.__all__
    assert len(set(exports)) == len(exports), "duplicate names in __all__"
    for export in exports:
        assert hasattr(pkg, export), f"repro.{name}.{export}"
    ns: dict = {}
    exec(f"from repro.{name} import *", ns)
    assert {k for k in ns if not k.startswith("__")} == set(exports)
