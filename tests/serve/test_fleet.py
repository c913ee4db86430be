"""GpuFleet: atomic gang allocation and busy-time accounting."""
import pytest

from repro.gpu.spec import FERMI_M2050, TESLA_S1070
from repro.serve import GpuFleet


def test_acquire_is_atomic_all_or_nothing():
    fleet = GpuFleet(4)
    assert fleet.acquire(0, 3) == (0, 1, 2)
    # only one GPU free: a 2-GPU gang gets nothing, not a partial grant
    assert fleet.acquire(1, 2) is None
    assert fleet.holding(1) == ()
    assert fleet.free_gpus == 1
    # ... but a 1-GPU job still fits
    assert fleet.acquire(2, 1) == (3,)
    assert fleet.in_use == 4


def test_release_charges_busy_seconds_per_gpu():
    fleet = GpuFleet(4)
    fleet.acquire(7, 2)
    assert fleet.release(7, busy_seconds=1.5) == (0, 1)
    assert fleet.busy_s == [1.5, 1.5, 0.0, 0.0]
    assert fleet.total_busy_s == 3.0
    # utilization over a 3s makespan: 3 busy GPU-s of 12 capacity
    assert fleet.utilization(3.0) == pytest.approx(0.25)
    assert fleet.utilization(0.0) == 0.0


def test_lowest_free_first_placement_is_deterministic():
    fleet = GpuFleet(4)
    fleet.acquire(0, 2)
    fleet.acquire(1, 1)
    fleet.release(0)
    # the freed low indices are handed out again first
    assert fleet.acquire(2, 2) == (0, 1)


def test_double_acquire_and_empty_release_are_errors():
    fleet = GpuFleet(2)
    fleet.acquire(0, 1)
    with pytest.raises(RuntimeError):
        fleet.acquire(0, 1)
    with pytest.raises(RuntimeError):
        fleet.release(99)
    with pytest.raises(ValueError):
        fleet.acquire(1, 0)
    with pytest.raises(ValueError):
        GpuFleet(0)


def test_peak_in_use_tracks_high_water_mark():
    fleet = GpuFleet(4)
    fleet.acquire(0, 3)
    fleet.release(0)
    fleet.acquire(1, 1)
    assert fleet.peak_in_use == 3
    assert fleet.in_use == 1


def test_named_machines_and_device_spec_strings():
    assert GpuFleet.tsubame12().n_gpus == 528
    assert GpuFleet.tsubame12().spec is TESLA_S1070
    assert GpuFleet(2, "m2050").spec is FERMI_M2050
    assert "4x" in GpuFleet(4).name
