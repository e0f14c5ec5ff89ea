"""The transfer model predicts exactly what the mock backend measures.

Each workload profile in :mod:`repro.perfmodel.transfer` is an analytic
claim about how many host<->device crossings (and how many bytes) the
pipeline performs.  These tests run the real code under
:class:`MockDeviceBackend` — whose ``asarray``/``to_host`` count every
crossing — and require the measured ``TransferStats`` to match the
predicted :class:`TransferProfile` field for field.  A refactor that
adds a hidden round-trip (or drops a device-residency optimization)
shows up here as a count mismatch before it ever costs wall time on a
GPU.
"""

import pytest

from repro.backend.mock import MOCK_DEVICE_BACKEND
from repro.perfmodel import (
    CPU_BASELINE_MACHINE,
    GH200_MACHINE,
    DaliaPerfModel,
    TransferProfile,
    device_execution_pays,
    factorize_host_matrix_profile,
    sample_profile,
    selected_inverse_profile,
    solve_stack_profile,
    stencil_batch_profile,
)
from repro.perfmodel.scaling import ModelShape
from repro.structured.bta import BTAMatrix, BTAShape
from repro.structured.factor import factorize

SHAPE = BTAShape(n=5, b=4, a=3)


@pytest.fixture
def be():
    MOCK_DEVICE_BACKEND.transfers.reset()
    yield MOCK_DEVICE_BACKEND
    MOCK_DEVICE_BACKEND.transfers.reset()


def _measured(be) -> TransferProfile:
    return TransferProfile.from_stats(be.transfers)


def _device_factor(be, rng):
    A = BTAMatrix.random_spd(SHAPE, rng)
    f = factorize(
        BTAMatrix(be.asarray(A.diag), be.asarray(A.lower), be.asarray(A.arrow), be.asarray(A.tip))
    )
    be.transfers.reset()
    return f


class TestProfilesMatchMeasurement:
    def test_factorize_host_matrix(self, be, rng):
        A = BTAMatrix.random_spd(SHAPE, rng)
        dev = BTAMatrix(
            be.asarray(A.diag), be.asarray(A.lower), be.asarray(A.arrow), be.asarray(A.tip)
        )
        assert _measured(be) == factorize_host_matrix_profile(SHAPE.n, SHAPE.b, SHAPE.a)
        # Factorizing device-resident data crosses nothing further.
        factorize(dev)
        assert _measured(be).crossings == 4

    def test_solve_stack(self, be, rng):
        f = _device_factor(be, rng)
        x = f.solve_stack(rng.standard_normal((3, f.N)))
        be.to_host(x)
        assert _measured(be) == solve_stack_profile(f.N, 3)

    def test_sample(self, be, rng):
        f = _device_factor(be, rng)
        be.to_host(f.sample(4, rng))
        assert _measured(be) == sample_profile(f.N, 4)

    def test_sample_with_mean(self, be, rng):
        f = _device_factor(be, rng)
        mean = rng.standard_normal(f.N)
        be.to_host(f.sample(4, rng, mean=mean))
        assert _measured(be) == sample_profile(f.N, 4, with_mean=True)

    def test_selected_inverse(self, be, rng):
        f = _device_factor(be, rng)
        be.to_host(f.selected_inverse_diagonal())
        assert _measured(be) == selected_inverse_profile(f.N)

    def test_stencil_batch(self, be, monkeypatch, tiny_uni_model):
        """The full theta-batched objective sweep: one H2D (the RHS
        stack) + two D2H (mean stack, Qc logdet stack; the prior
        log-determinants are host-side) — everything else stays
        device-resident between assembly and epilogue."""
        from repro.inla.evaluator import FobjEvaluator

        model, gt, _ = tiny_uni_model
        monkeypatch.setenv("REPRO_BACKEND", "mock_device")
        ev = FobjEvaluator(model, batch_stencils=True, cache_size=0)
        be.transfers.reset()
        ev.value_and_gradient(gt.theta, h=1e-4)
        t = 2 * model.layout.dim + 1  # full central-difference stencil
        assert _measured(be) == stencil_batch_profile(model.N, t, logdet_stacks=1)


class TestMachineTransferTime:
    def test_latency_plus_volume(self):
        m = GH200_MACHINE
        assert m.transfer_time(0, n_crossings=0) == 0.0
        assert m.transfer_time(0, n_crossings=2) == pytest.approx(2 * m.h2d_latency_s)
        assert m.transfer_time(1e9, n_crossings=1) == pytest.approx(
            m.h2d_latency_s + 1e9 / m.h2d_bandwidth
        )
        with pytest.raises(ValueError):
            m.transfer_time(-1.0)

    def test_gh200_link_beats_pcie_default(self):
        # NVLink-C2C vs. the conservative PCIe-class default.
        assert GH200_MACHINE.h2d_bandwidth > CPU_BASELINE_MACHINE.h2d_bandwidth

    def test_profile_time_additive(self):
        p = stencil_batch_profile(1000, 9) + sample_profile(1000, 4)
        assert p.crossings == 4 + 2
        assert p.time(GH200_MACHINE) == pytest.approx(
            GH200_MACHINE.transfer_time(p.bytes_moved, n_crossings=p.crossings)
        )


class TestOffloadDecision:
    def test_stencil_transfer_negligible_at_paper_scale(self):
        """The design point the pipeline is built around: per stencil
        wave the link cost is microseconds against second-scale
        factorizations, so device execution always pays once the solver
        itself does."""
        shape = ModelShape(nv=3, ns=1675, nt=192, nr=1)
        m = DaliaPerfModel()
        assert m.stencil_transfer_time(shape) < 1e-2 * m.factorization_time(shape, 1)

    def test_device_execution_pays(self):
        p = stencil_batch_profile(1000, 9)
        assert device_execution_pays(1.0, 0.1, p)
        # A huge transfer bill flips the decision.
        slow = TransferProfile(1, int(1e15), 0, 0)
        assert not device_execution_pays(1.0, 0.1, slow)
