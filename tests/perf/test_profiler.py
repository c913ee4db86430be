"""Tests of the phase profiler."""
import time

import pytest

from repro.profiling import PhaseTimer, profile_phase, use_timer
from repro.workloads.warm_bubble import make_warm_bubble_case


def test_noop_without_active_timer():
    with profile_phase("anything"):
        x = 1 + 1
    assert x == 2  # nothing recorded anywhere, nothing raised


def test_basic_accumulation():
    t = PhaseTimer()
    with use_timer(t):
        with profile_phase("a"):
            time.sleep(0.01)
        with profile_phase("a"):
            pass
        with profile_phase("b"):
            pass
    assert t.calls["a"] == 2 and t.calls["b"] == 1
    assert t.seconds["a"] >= 0.01
    assert t.total() == pytest.approx(sum(t.seconds.values()))
    assert 0.0 <= t.fraction("b") <= 1.0


def test_nesting_lifo():
    outer, inner = PhaseTimer(), PhaseTimer()
    with use_timer(outer):
        with profile_phase("x"):
            pass
        with use_timer(inner):
            with profile_phase("y"):
                pass
        with profile_phase("z"):
            pass
    assert "y" in inner.seconds and "y" not in outer.seconds
    assert "x" in outer.seconds and "z" in outer.seconds


def test_report_and_reset():
    t = PhaseTimer()
    with use_timer(t):
        with profile_phase("phase_one"):
            pass
    rep = t.report()
    assert "phase_one" in rep and "total" in rep
    t.reset()
    assert t.total() == 0.0


def test_model_phases_recorded():
    """A real model step populates the instrumented phases, and the
    warm-rain share is small — the paper's '1.0% GPU time' observation
    holds for the NumPy implementation too."""
    from repro.stencil import native

    def phases(lib):
        case = make_warm_bubble_case(nx=12, ny=12, nz=12, dt=4.0)
        t = PhaseTimer()
        with use_timer(t), native.using(lib):
            case.run(3)
        for phase in ("advect_momentum", "advect_theta", "advect_moisture",
                      "acoustic_substep", "helmholtz_solve",
                      "physics_warm_rain"):
            assert t.calls[phase] > 0, phase
        return t

    # the shipped bodies (compiled where a library loads): the still-NumPy
    # kessler_step is a larger share of a faster step, ~11 % at this size
    assert phases(native.library()).fraction("physics_warm_rain") < 0.25
    # the NumPy implementation, as the paper's observation is stated
    assert phases(None).fraction("physics_warm_rain") < 0.1


def test_exception_still_charges():
    t = PhaseTimer()
    with use_timer(t):
        with pytest.raises(ValueError):
            with profile_phase("boom"):
                raise ValueError("x")
    assert t.calls["boom"] == 1


def test_use_timer_reentrant_same_timer():
    """Nesting use_timer with the *same* timer charges each phase exactly
    once — the innermost activation wins, not both stack entries."""
    t = PhaseTimer()
    with use_timer(t):
        with use_timer(t):
            with profile_phase("inner"):
                pass
        with profile_phase("outer"):
            pass
    assert t.calls["inner"] == 1
    assert t.calls["outer"] == 1


def test_use_timer_restores_outer_after_inner_exits():
    """Three-deep nesting: after the innermost block exits, charges go
    back to the next timer on the stack (LIFO restore)."""
    a, b, c = PhaseTimer(), PhaseTimer(), PhaseTimer()
    with use_timer(a):
        with use_timer(b):
            with use_timer(c):
                with profile_phase("deep"):
                    pass
            with profile_phase("mid"):
                pass
        with profile_phase("top"):
            pass
    assert c.calls["deep"] == 1 and "deep" not in b.calls and "deep" not in a.calls
    assert b.calls["mid"] == 1 and "mid" not in a.calls and "mid" not in c.calls
    assert a.calls["top"] == 1 and "top" not in b.calls
