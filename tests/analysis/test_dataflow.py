"""Tests of the dataflow analyzer (LINT04..LINT08): each seeded-bug
fixture fires exactly once at the pinned file:line, suppression comments
and the baseline file gate findings, and the real repo is clean."""
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analysis.dataflow import (
    apply_baseline,
    dataflow_pass,
    fusion_findings,
    graph_findings,
    load_baseline,
    precision_findings,
)
from repro.analysis.findings import origin_suppressed
from repro.analysis.stepgraph import build_graph_for_function
from repro.stencil.spec import StencilSpec

from .fixtures import backend_bugs as bb
from .fixtures import flow_bugs as fb
from .test_stepgraph import FIXTURES, fixture_registry

FLOW = FIXTURES / "flow_bugs.py"


def run_flow(fn):
    """graph_findings over one fixture step, split by inline suppression
    exactly as dataflow_pass does."""
    g = build_graph_for_function(FLOW, fn, registry=fixture_registry())
    found = graph_findings(g)
    live = [f for f in found
            if not origin_suppressed(f.file, f.line, f.code)]
    supp = [f for f in found if origin_suppressed(f.file, f.line, f.code)]
    return live, supp


def backend_specs():
    spec = StencilSpec(name="blend", reads=("phi",), writes=("out",),
                       halo=1)
    return {"blend": SimpleNamespace(spec=spec, reference=bb.blend_ref)}


# ----------------------------------------------------------- LINT04 stale
def test_lint04_stale_halo_fires_exactly_once_at_the_read():
    live, _ = run_flow("stale_halo_step")
    assert [(f.code, f.line) for f in live] == [
        ("LINT04", fb.LINE_STALE_HALO)]
    assert live[0].file.endswith("flow_bugs.py")
    assert "rhou" in live[0].message and "smooth_u" in live[0].message


def test_lint04_exchange_after_write_is_clean():
    live, supp = run_flow("fresh_halo_step")
    assert live == [] and supp == []


def test_lint04_partial_axis_exchange_flags_the_missing_axis():
    live, _ = run_flow("axis_partial_step")
    assert [(f.code, f.line) for f in live] == [
        ("LINT04", fb.LINE_AXIS_PARTIAL)]
    assert "y-axis" in live[0].message
    assert "x/y" not in live[0].message  # x was exchanged: only y is stale


# ------------------------------------------------------- LINT05 liveness
def test_lint05_read_before_write_fires_exactly_once():
    live, _ = run_flow("read_before_write_step")
    assert [(f.code, f.line) for f in live] == [
        ("LINT05", fb.LINE_READ_BEFORE_WRITE)]
    assert "acc" in live[0].message


# ----------------------------------------------------- LINT06 dead store
def test_lint06_dead_store_fires_exactly_once():
    live, _ = run_flow("dead_store_step")
    assert [(f.code, f.line) for f in live] == [
        ("LINT06", fb.LINE_DEAD_STORE)]
    assert "tmp" in live[0].message


def test_lint06_intervening_read_keeps_the_store_alive():
    live, supp = run_flow("live_store_step")
    assert live == [] and supp == []


def test_lint06_calling_a_local_binding_reads_it():
    live, supp = run_flow("called_store_step")
    assert live == [] and supp == []


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
    ("suppressed_read_before_write_step", "LINT05"),
    ("suppressed_dead_store_step", "LINT06"),
])
def test_allow_comment_suppresses_graph_finding(fn, code):
    live, supp = run_flow(fn)
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


def test_baseline_suppresses_a_matching_finding(tmp_path):
    live, _ = run_flow("stale_halo_step")
    p = _baseline(tmp_path, [{
        "code": "LINT04", "file": "flow_bugs.py",
        "reason": "fixture"}])
    kept, suppressed, stale = apply_baseline(live, load_baseline(p),
                                             baseline_path=p)
    assert kept == [] and stale == []
    assert [f.code for f in suppressed] == ["LINT04"]
    # provenance tag for the SARIF export
    assert getattr(suppressed[0], "_suppressed_via") == "baseline"


def test_baseline_contains_filter_must_match(tmp_path):
    live, _ = run_flow("stale_halo_step")
    p = _baseline(tmp_path, [{
        "code": "LINT04", "file": "flow_bugs.py",
        "contains": "no-such-substring", "reason": "fixture"}])
    kept, suppressed, stale = apply_baseline(live, load_baseline(p),
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
def test_clean_repo_has_zero_dataflow_findings():
    findings, suppressed, notes = dataflow_pass(baseline="none")
    assert findings == [], "\n".join(f.text() for f in findings)
    assert suppressed == []
    # conservative-assumption notes only for genuinely opaque calls
    for n in notes:
        assert "opaque" in n or "cannot resolve" in n


def test_checked_in_baseline_is_empty_and_loads():
    from repro.analysis.dataflow import DEFAULT_BASELINE

    assert Path(DEFAULT_BASELINE).exists()
    assert load_baseline(DEFAULT_BASELINE) == []


# --------------------------------------------- stale inline suppressions
def test_stale_allow_comment_warns_supp01_via_run_all(tmp_path):
    from repro.analysis import run_all

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
