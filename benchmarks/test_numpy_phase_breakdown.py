"""The reproduction's own Fig.-9 analogue: wall-clock phase breakdown of
the NumPy implementation on this machine.

The paper profiles its CUDA kernels per variable; here the instrumented
integrator reports real seconds per phase.  Structural expectations
asserted: advection dominates the long step (it is the widest-stencil,
most-invoked kernel family in the paper too); the warm-rain share is
small, mirroring the paper's "1.0% GPU time" note.
"""
from repro.obs import TraceSession, span_table, span_totals, use_session
from repro.stencil import native
from repro.workloads.warm_bubble import make_warm_bubble_case


def _profile():
    case = make_warm_bubble_case(nx=24, ny=24, nz=16, dx=1000.0, dt=4.0)
    session = TraceSession("phase-breakdown")
    # the NumPy bodies, as the title says: the compiled ones (and their
    # first-use self-check, which takes substeps of its own) stay out
    with use_session(session), native.using(None):
        case.run(5)
    # a stage's slow_tendencies span holds the NumPy phases listed here
    return [rec for rec in session.spans
            if rec.cat == "phase" and rec.name != "slow_tendencies"]


def test_phase_breakdown(benchmark, emit):
    phases = benchmark.pedantic(_profile, rounds=1, iterations=1)
    emit("NumPy implementation phase breakdown (5 long steps, 24x24x16):\n"
         + span_table(phases, "phase"))

    calls = {name: n for name, (n, _) in span_totals(phases).items()}
    seconds = {name: sec for name, (_, sec) in span_totals(phases).items()}
    total = sum(seconds.values())
    adv = (seconds["advect_momentum"] + seconds["advect_theta"]
           + seconds["advect_moisture"])
    assert adv > 0.3 * total                     # advection dominates
    assert seconds["physics_warm_rain"] < 0.1 * total
    assert seconds["helmholtz_solve"] < 0.4 * total
    # every instrumented phase fired the expected number of times:
    # 3 RK stages x 5 steps = 15 slow-tendency evaluations
    assert calls["advect_momentum"] == 15
    # substeps: (1 + ns/2 + ns) x 5 steps with ns=6 -> 10 x 5
    assert calls["acoustic_substep"] == 50
    assert calls["helmholtz_solve"] == 50
