"""Bench regression gate: drift detection, tolerance overrides, and the
schema_version refusal contract."""
import importlib
import json
import pathlib
import re
import sys

import pytest

from repro.obs.doctor import (
    BENCH_SCHEMA_VERSION,
    SchemaMismatch,
    compare_bench,
    regression_gate,
)

PAYLOAD = {
    "fifo": {"wait_s": {"p50": 0.08, "p95": 0.21}, "makespan_s": 1.375},
    "scaling": [{"gpus": 4, "tflops": 0.11}, {"gpus": 16, "tflops": 0.44}],
    "label": "seed0",
}


def _write(tmp_path, name, payload, version=BENCH_SCHEMA_VERSION):
    doc = dict(payload)
    if version is not None:
        doc["schema_version"] = version
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_identical_artifacts_pass(tmp_path):
    a = _write(tmp_path, "a.json", PAYLOAD)
    b = _write(tmp_path, "b.json", PAYLOAD)
    report = regression_gate(a, b)
    assert report.ok and report.exit_status() == 0
    assert report.compared == 7          # numeric leaves, version excluded
    assert "OK" in report.text()


def test_injected_10pct_slowdown_fails(tmp_path):
    current = json.loads(json.dumps(PAYLOAD))
    current["fifo"]["makespan_s"] *= 1.10
    a = _write(tmp_path, "base.json", PAYLOAD)
    b = _write(tmp_path, "cur.json", current)
    report = regression_gate(a, b, rel_tol=0.05)
    assert not report.ok and report.exit_status() == 1
    (drift,) = report.drifts
    assert drift.path == "fifo.makespan_s" and drift.kind == "drift"
    assert drift.rel_change == pytest.approx(0.10)
    assert "DRIFT fifo.makespan_s" in report.text()


def test_schema_version_refusals(tmp_path):
    versioned = _write(tmp_path, "v.json", PAYLOAD)
    unversioned = _write(tmp_path, "u.json", PAYLOAD, version=None)
    other = _write(tmp_path, "o.json", PAYLOAD, version=BENCH_SCHEMA_VERSION + 1)
    with pytest.raises(SchemaMismatch, match="no schema_version"):
        regression_gate(versioned, unversioned)
    with pytest.raises(SchemaMismatch, match="mismatch"):
        regression_gate(versioned, other)


def test_tolerance_globs_override_and_ignore():
    baseline = {"a": {"slow": 1.0, "fast": 1.0}, "noise": 1.0}
    current = {"a": {"slow": 1.2, "fast": 1.2}, "noise": 5.0}
    drifts = compare_bench(baseline, current, rel_tol=0.05,
                           tolerances={"a.slow": 0.5, "noise": None})
    # a.slow within its widened tolerance, noise ignored, a.fast drifts
    assert [d.path for d in drifts] == ["a.fast"]
    # most-specific pattern wins over a broad wildcard
    drifts = compare_bench(baseline, current, rel_tol=0.05,
                           tolerances={"a.*": 0.01, "a.slow": 0.5,
                                       "noise": None})
    assert [d.path for d in drifts] == ["a.fast"]


def test_wall_clock_keys_are_ignored_by_default(tmp_path):
    baseline = {"modeled": {"makespan_s": 1.0},
                "wall": {"run_wall_s": 0.5, "handlers": {"pop": 0.1}}}
    current = {"modeled": {"makespan_s": 1.0},
               "wall": {"run_wall_s": 9.5, "handlers": {"pop": 7.0}}}
    a = _write(tmp_path, "a.json", baseline)
    b = _write(tmp_path, "b.json", current)
    assert regression_gate(a, b).ok              # wall drift invisible
    # strict mode (doctor --strict-wall) gates the wall keys again
    report = regression_gate(a, b, ignore_wall=False)
    assert not report.ok
    assert {d.path for d in report.drifts} == \
        {"wall.run_wall_s", "wall.handlers.pop"}
    # ...and deterministic drift still fails even in the default mode
    current["modeled"]["makespan_s"] = 2.0
    c = _write(tmp_path, "c.json", current)
    report = regression_gate(a, c)
    assert [d.path for d in report.drifts] == ["modeled.makespan_s"]


def test_explicit_wall_tolerance_overrides_the_default(tmp_path):
    a = _write(tmp_path, "a.json", {"wall": {"t": 1.0}})
    b = _write(tmp_path, "b.json", {"wall": {"t": 1.5}})
    # a user-supplied *wall* pattern replaces the implicit ignore
    report = regression_gate(a, b, tolerances={"*wall*": 0.1})
    assert not report.ok and report.drifts[0].path == "wall.t"


def test_structural_changes_are_flagged():
    drifts = compare_bench({"x": 1.0, "gone": 2.0, "s": "v", "l": [1, 2]},
                           {"x": 1.0, "new": 3.0, "s": "w", "l": [1]})
    kinds = {d.path: d.kind for d in drifts}
    assert kinds["gone"] == "missing"
    assert kinds["new"] == "added"
    assert kinds["s"] == "changed"
    assert kinds["l"] == "shape"


def test_write_bench_json_stamps_schema(tmp_path):
    bench_dir = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"
    sys.path.insert(0, str(bench_dir))
    try:
        bench_json = importlib.import_module("bench_json")
    finally:
        sys.path.remove(str(bench_dir))
    path = bench_json.write_bench_json("schema_probe", {"a": 1.0},
                                       report_dir=tmp_path)
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == BENCH_SCHEMA_VERSION
    # stamped artifacts immediately satisfy the gate against themselves
    assert regression_gate(path, path).ok


def test_checked_in_artifacts_are_versioned():
    reports = (pathlib.Path(__file__).resolve().parents[2]
               / "benchmarks" / "reports")
    artifacts = sorted(reports.glob("BENCH_*.json"))
    assert artifacts, "no checked-in bench artifacts found"
    for path in artifacts:
        doc = json.loads(path.read_text())
        assert doc.get("schema_version") == BENCH_SCHEMA_VERSION, path


def test_ci_gates_every_checked_in_bench_artifact_exactly_once():
    """The ``regress`` rows of tools/products.sh (the product list CI's
    ``products`` job runs) are the only place a BENCH_*.json is gated,
    and they name every one on disk: its producing benchmark (which must
    write that artifact) and a tolerance."""
    root = pathlib.Path(__file__).parents[2]
    text = (root / "tools" / "products.sh").read_text()
    rows = re.search(r"^regress=\(\n(.*?)^\)", text, re.M | re.S)[1]
    entries = [dict(zip(("name", "test", "rel_tol"), line.strip('" ').split()))
               for line in rows.splitlines()]
    on_disk = sorted(p.name for p in
                     (root / "benchmarks" / "reports").glob("BENCH_*.json"))
    assert sorted(f"BENCH_{e['name']}.json" for e in entries) == on_disk
    for entry in entries:
        producer = (root / "benchmarks" / entry["test"]).read_text()
        assert f'write_bench_json("{entry["name"]}"' in producer, entry
        assert 0.0 < float(entry["rel_tol"]) <= 0.1, entry
    assert text.count("doctor --regress") == 1   # no gate outside the rows
    assert "doctor --regress" not in (
        root / ".github" / "workflows" / "ci.yml").read_text()
