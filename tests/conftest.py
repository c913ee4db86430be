"""Shared fixtures and helpers for the test suite."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.grid import make_grid, bell_mountain
from repro.core.reference import make_reference_state
from repro.core.state import state_from_reference
from repro.perf.report import PAPER
from repro.workloads.sounding import constant_stability_sounding


@pytest.fixture
def small_grid():
    """Flat periodic grid, big enough for every stencil."""
    return make_grid(nx=12, ny=10, nz=8, dx=1000.0, dy=1000.0, ztop=8000.0)


@pytest.fixture
def terrain_grid():
    """Periodic grid with a gentle bell mountain."""
    terr = bell_mountain(height=400.0, half_width=3000.0, x0=6000.0)
    return make_grid(nx=12, ny=10, nz=8, dx=1000.0, dy=1000.0, ztop=8000.0,
                     terrain=terr)


@pytest.fixture
def small_state(small_grid):
    ref = make_reference_state(small_grid, constant_stability_sounding())
    return state_from_reference(small_grid, ref, u0=10.0)


@pytest.fixture(scope="session")
def paper():
    """``paper(key, scale=1.0, **tol)``: ``pytest.approx`` of the paper's
    number ``PAPER[key]`` (times ``scale`` for another unit) at the
    table's relative tolerance, or at ``tol`` when given."""
    def approx(key: str, scale: float = 1.0, **tol):
        anchor = PAPER[key]
        return pytest.approx(anchor.value * scale,
                             **(tol or {"rel": anchor.rel_tol}))
    return approx


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


def stream_pair_timeline(ordered: bool):
    """Two streams touching one buffer — the canonical racecheck fixture.

    A d2h on stream 1 writes ``buf``; an mpi op on stream 2 reads it.
    With ``ordered=True`` the consumer waits on a recorded event (the
    correct CUDA idiom); with ``ordered=False`` the edge is missing, and
    only engine serialization hides the hazard.  Returns the device.
    """
    from repro.gpu.device import Access, GPUDevice
    from repro.gpu.spec import TESLA_S1070

    dev = GPUDevice(TESLA_S1070)
    s1, s2 = dev.create_stream(), dev.create_stream()
    dev.schedule("produce", "d2h", s1, 1.0, accesses=(Access("buf", "w"),))
    if ordered:
        s2.wait_event(s1.record_event())
    dev.schedule("consume", "mpi", s2, 1.0, accesses=(Access("buf", "r"),))
    return dev


@pytest.fixture
def race_timeline():
    """The :func:`stream_pair_timeline` builder, as a fixture."""
    return stream_pair_timeline
