"""Tests of the tracing core: sessions, spans, and the zero-cost
guarantee when no session is active."""
import time

from repro.obs import TraceSession, active_session, span, use_session


def test_span_noop_without_session():
    with span("anything"):
        x = 1 + 1
    assert x == 2
    assert active_session() is None


def test_span_records_with_session():
    s = TraceSession("t")
    with use_session(s):
        assert active_session() is s
        with span("outer", cat="phase", grid="16x16"):
            with span("inner"):
                pass
    assert [r.name for r in s.spans] == ["inner", "outer"]
    outer = s.spans[1]
    inner = s.spans[0]
    assert outer.args == {"grid": "16x16"}
    # nesting: the inner span is contained in the outer one
    assert outer.ts <= inner.ts
    assert inner.ts + inner.dur <= outer.ts + outer.dur + 1e-6


def test_sessions_nest_lifo():
    a, b = TraceSession("a"), TraceSession("b")
    with use_session(a):
        with span("x"):
            pass
        with use_session(b):
            with span("y"):
                pass
        with span("z"):
            pass
    assert [r.name for r in a.spans] == ["x", "z"]
    assert [r.name for r in b.spans] == ["y"]


def test_instant_and_rebase():
    s = TraceSession("t")
    rec = s.record_instant("marker")
    assert rec.ts >= 0
    assert s.rebase(s.epoch - 5.0) == 0.0  # pre-session stamps clamp to 0
    assert s.rebase(s.epoch + 1.0) == 1.0


def test_zero_cost_when_inactive():
    """With no session, span must stay a one-list-check no-op: 40k
    traversals in well under half a second."""
    t0 = time.perf_counter()
    for _ in range(40_000):
        with span("hot", cat="phase"):
            pass
    assert time.perf_counter() - t0 < 0.5
