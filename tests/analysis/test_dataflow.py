"""Tests of the dataflow pass (LINT04, LINT06..LINT08): each planted bug
fires exactly once at the pinned file:line, suppression comments and the
baseline file gate findings, and the real repo is clean.

The LINT04/LINT06 fixtures are RK stages planted over
``repro.core.rk3.slow_tendencies`` for one run of the real single-domain
driver (:mod:`repro.analysis.poison`); the source is not edited."""
import inspect
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analysis import poison
from repro.analysis.dataflow import (
    apply_baseline,
    fusion_findings,
    load_baseline,
    precision_findings,
)
from repro.analysis.findings import origin_suppressed
from repro.analysis.poison import Config, _Run, dead_findings, stale_findings
from repro.core import rk3
from repro.core.advection import advect_scalar
from repro.core.boundary import fill_halos_state
from repro.core.rk3 import slow_tendencies
from repro.stencil import native
from repro.stencil.spec import StencilSpec

from .fixtures import backend_bugs as bb

CFG = Config()


def touched(state):
    """A copy of the stage state whose theta interior has been written."""
    work = state.copy()
    work.rhotheta[state.grid.isl] += 1.0
    return work


def stale_halo_step(state, cfg, limiter, *args):
    forcing, q_tend = slow_tendencies(state, cfg, limiter, *args)
    work = touched(state)
    forcing.r_theta += 1e-3 * advect_scalar(work.rhotheta, work.rhou, work.rhov, work.rhow, work.grid, limiter)  # BUG: stale halo
    return forcing, q_tend


def expression_stale_halo_step(state, cfg, limiter, *args):
    forcing, q_tend = slow_tendencies(state, cfg, limiter, *args)
    work = touched(state)
    forcing.r_theta += 1e-3 * advect_scalar(work.rhotheta / work.rho, work.rhou, work.rhov, work.rhow, work.grid, limiter)  # BUG: stale halo
    return forcing, q_tend


def fresh_halo_step(state, cfg, limiter, *args):
    forcing, q_tend = slow_tendencies(state, cfg, limiter, *args)
    work = touched(state)
    fill_halos_state(work, ["rhotheta"])
    forcing.r_theta += 1e-3 * advect_scalar(work.rhotheta, work.rhou, work.rhov, work.rhow, work.grid, limiter)
    return forcing, q_tend


def suppressed_stale_halo_step(state, cfg, limiter, *args):
    forcing, q_tend = slow_tendencies(state, cfg, limiter, *args)
    work = touched(state)
    forcing.r_theta += 1e-3 * advect_scalar(work.rhotheta, work.rhou, work.rhov, work.rhow, work.grid, limiter)  # sanitizer: allow[LINT04] width-0 probe run
    return forcing, q_tend


def dead_store_step(state, cfg, limiter, *args):
    forcing, q_tend = slow_tendencies(state, cfg, limiter, *args)
    advect_scalar(state.rho, state.rhou, state.rhov, state.rhow, state.grid, limiter)  # BUG: discarded
    return forcing, q_tend


def live_store_step(state, cfg, limiter, *args):
    forcing, q_tend = slow_tendencies(state, cfg, limiter, *args)
    extra = advect_scalar(state.rho, state.rhou, state.rhov, state.rhow,
                          state.grid, limiter)
    forcing.r_theta += 1e-3 * extra
    return forcing, q_tend


def suppressed_dead_store_step(state, cfg, limiter, *args):
    forcing, q_tend = slow_tendencies(state, cfg, limiter, *args)
    advect_scalar(state.rho, state.rhou, state.rhov, state.rhow, state.grid, limiter)  # sanitizer: allow[LINT06] kept for timing parity
    return forcing, q_tend


def line_of(stage, marker="BUG"):
    lines, first = inspect.getsourcelines(stage)
    return first + next(i for i, text in enumerate(lines) if marker in text)


def run_flow(monkeypatch, stage, check=stale_findings):
    """One check over the single-domain driver with ``stage`` as its RK
    stage, split by inline suppression exactly as dataflow_pass does."""
    monkeypatch.setattr(rk3, "slow_tendencies", stage)
    found = check(CFG)
    live = [f for f in found
            if not origin_suppressed(f.file, f.line, f.code)]
    return live, [f for f in found if f not in live]


@pytest.fixture(scope="module")
def stale_live():
    with pytest.MonkeyPatch.context() as mp:
        return run_flow(mp, stale_halo_step)[0]


def backend_specs():
    spec = StencilSpec(name="blend", reads=("phi",), writes=("out",),
                       halo=1)
    return {"blend": SimpleNamespace(spec=spec, reference=bb.blend_ref)}


# ----------------------------------------------------------- LINT04 stale
def test_lint04_stale_halo_fires_exactly_once_at_the_read(stale_live):
    assert [(f.code, f.file, f.line) for f in stale_live] == [
        ("LINT04", __file__, line_of(stale_halo_step))]
    assert "'advect_scalar'" in stale_live[0].message
    assert "on the x/y axis" in stale_live[0].message


@pytest.mark.parametrize("loaded", [True, False], ids=["library", "oracles"])
def test_lint04_stale_halo_read_through_an_expression(monkeypatch, loaded):
    # the division copies the halo before the dispatch: the copy is made
    # by a plain function the stage generator calls, whose lines the pass
    # observes too
    with native.using(native.library() if loaded else None):
        live, _ = run_flow(monkeypatch, expression_stale_halo_step)
    assert [(f.code, f.file, f.line) for f in live] == [
        ("LINT04", __file__, line_of(expression_stale_halo_step))]
    assert "'advect_scalar'" in live[0].message


def test_lint04_exchange_after_write_is_clean(monkeypatch):
    live, supp = run_flow(monkeypatch, fresh_halo_step)
    assert live == [] and supp == []


# ------------------------------------------------------ LINT06 dead dispatch
def test_lint06_dead_store_fires_exactly_once(monkeypatch):
    live, _ = run_flow(monkeypatch, dead_store_step, dead_findings)
    assert [(f.code, f.file, f.line) for f in live] == [
        ("LINT06", __file__, line_of(dead_store_step))]
    assert "'advect_scalar'" in live[0].message


def test_lint06_intervening_read_keeps_the_store_alive(monkeypatch):
    live, supp = run_flow(monkeypatch, live_store_step, dead_findings)
    assert live == [] and supp == []


def test_lint06_in_place_kernels_are_not_sites():
    """The warm rain updates the state in place (the body discards the
    precipitation it returns) and a refresh returns nothing: neither is
    a dispatch site (on the oracles, as :func:`dead_findings` runs)."""
    run = _Run(0, axes=())
    with native.using(None):
        run.drive(CFG)
    names = {name for name, _, _ in run.sites}
    assert "advect_scalar" in names
    assert not names & {"kessler_step", "fill_halos_state"}


# -------------------------------------------------- LINT07 fusion drift
def test_lint07_signature_drift_fires_exactly_once():
    found = fusion_findings(
        specs=backend_specs(),
        fused={"blend": bb.blend_fused_bad_signature})
    assert [(f.code, f.line) for f in found] == [
        ("LINT07", bb.LINE_BAD_SIGNATURE)]
    assert found[0].file.endswith("backend_bugs.py")
    assert "grid" in found[0].message or "signature" in found[0].message


def test_lint07_matching_impls_are_clean():
    assert fusion_findings(
        specs=backend_specs(),
        fused={"blend": bb.blend_fused_ok}) == []


def test_lint07_unknown_name_is_flagged():
    found = fusion_findings(specs=backend_specs(),
                            fused={"ghost": bb.blend_fused_ok})
    assert [f.code for f in found] == ["LINT07"]
    assert "no @stencil declaration" in found[0].message


# ---------------------------------------------- LINT08 precision flow
def test_lint08_upcast_fires_exactly_once():
    found = precision_findings(
        specs=backend_specs(),
        fused={"blend": bb.blend_fused_upcast})
    assert [(f.code, f.line) for f in found] == [
        ("LINT08", bb.LINE_UPCAST)]
    assert "float64" in found[0].message


def test_lint08_dtype_preserving_impls_are_clean():
    assert precision_findings(
        specs=backend_specs(),
        fused={"blend": bb.blend_fused_ok}) == []


def test_lint08_widen_policy_exempts_the_kernel():
    spec = StencilSpec(name="blend", reads=("phi",), writes=("out",),
                       halo=1, dtype_policy="widen")
    specs = {"blend": SimpleNamespace(spec=spec, reference=bb.blend_ref)}
    assert precision_findings(
        specs=specs, fused={"blend": bb.blend_fused_upcast}) == []


# ------------------------------------------------ inline suppressions
@pytest.mark.parametrize("fn,code", [
    ("suppressed_stale_halo_step", "LINT04"),
    ("suppressed_dead_store_step", "LINT06"),
])
def test_allow_comment_suppresses_graph_finding(monkeypatch, fn, code):
    check = stale_findings if code == "LINT04" else dead_findings
    live, supp = run_flow(monkeypatch, globals()[fn], check)
    assert live == []
    assert [f.code for f in supp] == [code]


def test_allow_comment_suppresses_lint07():
    found = fusion_findings(
        specs=backend_specs(),
        fused={"blend": bb.blend_fused_suppressed})
    assert all(origin_suppressed(f.file, f.line, f.code) for f in found)
    assert found  # the finding itself still exists pre-filter


def test_allow_comment_suppresses_lint08():
    found = precision_findings(
        specs=backend_specs(),
        fused={"blend": bb.blend_fused_upcast_suppressed})
    assert all(origin_suppressed(f.file, f.line, f.code) for f in found)
    assert found


# ------------------------------------------------------------ baseline
def _baseline(tmp_path, entries):
    p = tmp_path / "baseline.json"
    p.write_text(json.dumps({"version": 1, "suppressions": entries}))
    return p


def test_baseline_suppresses_a_matching_finding(tmp_path, stale_live):
    p = _baseline(tmp_path, [{
        "code": "LINT04", "file": "test_dataflow.py",
        "reason": "fixture"}])
    kept, suppressed, stale = apply_baseline(stale_live, load_baseline(p),
                                             baseline_path=p)
    assert kept == [] and stale == []
    assert [f.code for f in suppressed] == ["LINT04"]
    # provenance tag for the SARIF export
    assert getattr(suppressed[0], "_suppressed_via") == "baseline"


def test_baseline_contains_filter_must_match(tmp_path, stale_live):
    p = _baseline(tmp_path, [{
        "code": "LINT04", "file": "test_dataflow.py",
        "contains": "no-such-substring", "reason": "fixture"}])
    kept, suppressed, stale = apply_baseline(stale_live, load_baseline(p),
                                             baseline_path=p)
    assert [f.code for f in kept] == ["LINT04"]
    assert suppressed == []
    assert [f.code for f in stale] == ["SUPP01"]


def test_stale_baseline_entry_warns_supp01(tmp_path):
    p = _baseline(tmp_path, [{
        "code": "LINT06", "file": "never_existed.py",
        "reason": "gone"}])
    kept, suppressed, stale = apply_baseline([], load_baseline(p),
                                             baseline_path=p)
    assert kept == [] and suppressed == []
    assert [f.code for f in stale] == ["SUPP01"]
    assert stale[0].severity == "warning"
    assert stale[0].file == str(p)


def test_baseline_version_is_validated(tmp_path):
    p = tmp_path / "b.json"
    p.write_text(json.dumps({"version": 99, "suppressions": []}))
    with pytest.raises(ValueError):
        load_baseline(p)


# ------------------------------------------------------ the real repo
def test_clean_repo_has_zero_dataflow_findings(clean_dataflow):
    rc, doc, _ = clean_dataflow
    assert rc == 0
    assert doc["findings"] == [], doc["findings"]
    assert doc["suppressed"] == []


def test_checked_in_baseline_is_empty_and_loads():
    from repro.analysis.dataflow import DEFAULT_BASELINE

    assert Path(DEFAULT_BASELINE).exists()
    assert load_baseline(DEFAULT_BASELINE) == []


# --------------------------------------------- stale inline suppressions
def test_stale_allow_comment_warns_supp01_via_run_all(tmp_path, monkeypatch):
    from repro.analysis import run_all

    monkeypatch.setattr(poison, "MATRIX", ())  # the comments are the subject

    src = tmp_path / "mod.py"
    src.write_text(
        "def helper(x):\n"
        "    return x  # sanitizer: allow[LINT04] nothing fires here\n")
    report = run_all(src_root=tmp_path, lint=True, dataflow=True,
                     racecheck=False, smoke=False, baseline="none")
    supp01 = [f for f in report.findings if f.code == "SUPP01"]
    assert [(f.file, f.line) for f in supp01] == [(str(src), 2)]
    assert supp01[0].severity == "warning"
    # warnings do not gate: the report is still ok / exit 0
    assert report.ok and report.exit_status() == 0


def test_docstring_mention_of_allow_syntax_is_not_a_suppression(tmp_path):
    from repro.analysis.findings import scan_suppressions

    src = tmp_path / "mod.py"
    src.write_text(
        '"""Docs: write ``# sanitizer: allow[LINT04]`` to suppress."""\n'
        "X = 1  # sanitizer: allow[LINT06] a real comment\n")
    assert scan_suppressions(src) == [(2, "LINT06")]
