"""Tests of the host phase profile: the ``cat == "phase"`` spans of a
session, aggregated by the one span table (``run --profile``)."""
import time

import pytest

from repro.obs import TraceSession, span, span_table, span_totals, use_session
from repro.workloads.warm_bubble import make_warm_bubble_case


def _phases(session):
    return [rec for rec in session.spans if rec.cat == "phase"]


def test_noop_without_active_timer():
    with span("anything", cat="phase"):
        x = 1 + 1
    assert x == 2  # nothing recorded anywhere, nothing raised


def test_basic_accumulation():
    s = TraceSession("t")
    with use_session(s):
        with span("a", cat="phase"):
            time.sleep(0.01)
        with span("a", cat="phase"):
            pass
        with span("b", cat="phase"):
            pass
        with span("not a phase"):
            pass
    totals = span_totals(_phases(s))
    assert list(totals) == ["a", "b"]            # largest total first
    assert totals["a"][0] == 2 and totals["b"][0] == 1
    assert totals["a"][1] >= 0.01
    assert totals["a"][1] == pytest.approx(sum(r.dur for r in s.spans
                                               if r.name == "a"))


def test_report_and_reset():
    s = TraceSession("t")
    with use_session(s):
        with span("phase_one", cat="phase"):
            pass
    rep = span_table(_phases(s), "phase")
    assert rep.splitlines()[0].split() == ["phase", "calls", "seconds",
                                           "share"]
    assert "phase_one" in rep and "100.0%" in rep
    assert rep.splitlines()[-1].startswith("total")
    # no spans: a header and a zero total, no division by zero
    assert span_table([], "phase").splitlines()[-1].split() == ["total",
                                                                "0.0000"]


def test_model_phases_recorded():
    """A real model step populates the instrumented phases, and the
    warm-rain share is small — the paper's '1.0% GPU time' observation
    holds for the NumPy implementation too."""
    from repro.stencil import native

    def warm_rain_share(lib):
        case = make_warm_bubble_case(nx=12, ny=12, nz=12, dt=4.0)
        s = TraceSession("t")
        with use_session(s), native.using(lib):
            case.run(3)
        totals = span_totals(_phases(s))
        # a compiled substep and a compiled stage are one C call each with
        # no inner span; the NumPy text's phases nest in theirs
        numpy_bodies = lib is None or lib.f64 is None
        inner = ("helmholtz_solve", "advect_momentum", "advect_theta",
                 "advect_moisture")
        for phase in ("slow_tendencies", "acoustic_substep",
                      "physics_warm_rain", *inner * numpy_bodies):
            assert totals[phase][0] > 0, phase
        for phase in inner:
            assert (phase in totals) == numpy_bodies, phase
        assert totals["slow_tendencies"][0] == 3 * 3
        # the long-step container is a span, but not a phase
        assert "dynamics_rk3" not in totals
        calls, step_s = span_totals(s.spans)["dynamics_rk3"]
        assert calls == 3
        rain_s = totals["physics_warm_rain"][1]
        return rain_s / sum(sec for _, sec in totals.values()), rain_s / step_s

    # the shipped bodies (compiled where a library loads): the still-NumPy
    # kessler_step is a larger share of a faster step, ~10 % of the step at
    # this size.  Of the step, not of the phases: a replayed step's phases
    # are its compiled rows only, and under a tracing hook (tools/reach.py)
    # the Python warm rain outgrows them
    assert warm_rain_share(native.library())[1] < 0.13
    # the NumPy implementation, as the paper's observation is stated
    assert warm_rain_share(None)[0] < 0.1


def test_exception_still_charges():
    s = TraceSession("t")
    with use_session(s):
        with pytest.raises(ValueError):
            with span("boom", cat="phase"):
                raise ValueError("x")
    assert span_totals(s.spans)["boom"][0] == 1
