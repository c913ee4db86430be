"""The cold start, as a budget that cannot rot.

Every workload's set-up and every CLI call pays ``import repro.api`` first;
it was 1.07 s when nobody looked (``inspect.stack()`` in each ``@stencil``
declaration, SciPy for one test-only cross-check) and is ≈ 0.3 s now.  A
wall-clock assertion would be flaky, so the budget is stated as what must
*not* be loaded by the three entry-point packages, in a fresh interpreter.
"""
import subprocess
import sys
import textwrap

#: heavyweight or offline-only modules no run path needs at import
FORBIDDEN = ("scipy", "unittest", "numpy.testing", "numpy.f2py",
             "repro.analysis", "repro.obs.doctor.roofline",
             # `repro.gpu` and `repro.obs` resolve their names lazily: the
             # service needs gpu.spec and the span recorder, not these
             "repro.gpu.runtime", "repro.obs.exporters")


def test_entry_points_import_nothing_heavy():
    probe = textwrap.dedent(f"""
        import inspect, sys

        def stack(*args, **kwargs):
            raise AssertionError("inspect.stack() during import: it reads "
                                 "source lines for every importlib frame")

        inspect.stack = stack
        import repro.api, repro.serve, repro.ensemble
        loaded = [m for m in {FORBIDDEN!r} if m in sys.modules]
        assert not loaded, f"imported at start-up: {{loaded}}"
    """)
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
