"""The default backend equals the oracle, at system level.

After three steps on four workloads and three execution backends the
default (``auto``) backend gives the bytes of ``reference``, and two runs
stepped side by side on two threads give their serial bytes.  The kernel
by kernel identity of each compiled body with its oracle is
tests/stencil/test_native.py's.
"""
import sys
import threading

import numpy as np
import pytest

from repro.api import Experiment, RunSpec

_CASES = {
    "warm-bubble": {},
    "real-case": {},            # terrain branch of the acoustic substep
    "vortex": {},
    "shear-layer": {"ice": True},
}


def _run(workload, stencil_backend, **kw):
    spec = RunSpec(workload=workload, steps=3, nx=16, ny=16, nz=8,
                   stencil_backend=stencil_backend, **_CASES[workload], **kw)
    return Experiment(spec).prepare().run().state


def _fields(state, interior=False):
    g = state.grid
    sl = (slice(g.halo, g.halo + g.nx), slice(g.halo, g.halo + g.ny))
    return {n: np.ascontiguousarray(state.get(n)[sl] if interior
                                    else state.get(n)).tobytes()
            for n in state.prognostic_names()}


@pytest.mark.parametrize("workload", sorted(_CASES))
def test_auto_equals_reference_on_every_backend(workload):
    ref = _run(workload, "reference")
    for backend in ("cpu", "gpu"):
        assert _fields(_run(workload, "auto", backend=backend)) == \
            _fields(ref), (workload, backend)
    # a gathered state's halos are refilled, not computed
    decomposed = _run(workload, "auto", backend="multigpu", ranks=(2, 2))
    assert _fields(decomposed, interior=True) == _fields(ref, interior=True)


def test_two_threads_equal_their_serial_runs():
    """Each rank computes in its integrator's scratch: two runs
    advanced side by side do not compute in each other's temporaries
    (they did: a non-finite ``rho``, or finite garbage)."""
    specs = [RunSpec("vortex", nx=24, ny=24, nz=12, steps=5, seed=s)
             for s in (1, 2)]
    serial = [_fields(Experiment(spec).prepare().run().state)
              for spec in specs]
    threaded: list = [None, None]

    def work(i):
        try:
            threaded[i] = _fields(Experiment(specs[i]).prepare().run().state)
        except BaseException as exc:     # reported by the assertion below
            threaded[i] = exc

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert threaded == serial
