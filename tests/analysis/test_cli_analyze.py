"""End-to-end tests of ``repro analyze`` (exit statuses, output modes,
trace integration)."""
import json
from pathlib import Path

import pytest

from repro.cli import main

REPO_SRC = str(Path(__file__).parents[2] / "src" / "repro")


def test_lint_only_clean_repo_exits_zero(capsys):
    assert main(["analyze", "--lint", REPO_SRC]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out
    assert "asuca-lint" in out


def test_racecheck_only_clean_exits_zero(capsys):
    assert main(["analyze", "--racecheck"]) == 0
    assert "racecheck" in capsys.readouterr().out


def test_full_default_run_is_clean(capsys):
    assert main(["analyze", "--lint", REPO_SRC, "--racecheck", "--smoke",
                 "--steps", "1"]) == 0
    out = capsys.readouterr().out
    for passname in ("asuca-lint", "racecheck", "memcheck",
                     "multigpu-smoke"):
        assert passname in out


def test_seeded_hazard_fails_with_race01(capsys):
    status = main(["analyze", "--racecheck",
                   "--seed-hazard", "missing-event"])
    assert status == 1
    out = capsys.readouterr().out
    assert "RACE01" in out
    assert "mpi_y" in out and "mpi_x" in out


def test_seeded_uaf_fails_with_mem01(capsys):
    status = main(["analyze", "--smoke", "--steps", "1",
                   "--seed-hazard", "uaf"])
    assert status == 1
    assert "MEM01" in capsys.readouterr().out


def test_json_output_is_machine_readable(capsys):
    status = main(["analyze", "--racecheck", "--json",
                   "--seed-hazard", "missing-event"])
    assert status == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False
    assert doc["passes"] == ["racecheck"]
    codes = {f["code"] for f in doc["findings"]}
    assert codes == {"RACE01"}
    f = doc["findings"][0]
    assert f["occurrences"] > 1
    assert "location" in f and "stream" in f


def test_trace_files_findings_on_device_tracks(tmp_path, capsys):
    out_json = tmp_path / "analyze_trace.json"
    status = main(["analyze", "--smoke", "--steps", "1",
                   "--seed-hazard", "uaf", "--trace", str(out_json)])
    assert status == 1
    doc = json.loads(out_json.read_text())
    events = doc["traceEvents"] if isinstance(doc, dict) else doc
    finding_events = [e for e in events
                      if str(e.get("name", "")).startswith("finding:")]
    assert len(finding_events) == 1
    ev = finding_events[0]
    assert ev["name"] == "finding:MEM01"
    # CTF uses integer pids with process_name metadata: resolve the label
    names = {e["pid"]: e["args"]["name"] for e in events
             if e.get("ph") == "M" and e.get("name") == "process_name"}
    assert names[ev["pid"]] == "gpu0"   # filed on the offending device
    assert ev["args"]["code"] == "MEM01"


def test_bad_seed_value_rejected():
    with pytest.raises(SystemExit):
        main(["analyze", "--seed-hazard", "bogus"])


# ------------------------------------------------------- dataflow + SARIF
def test_list_codes_prints_the_registry(capsys):
    assert main(["analyze", "--list-codes"]) == 0
    out = capsys.readouterr().out
    for code in ("LINT04", "LINT06", "LINT07", "LINT08",
                 "SUPP01", "RACE01", "MEM01"):
        assert code in out
    assert "LINT05" not in out
    assert "dataflow" in out


def test_dataflow_only_clean_repo_exits_zero(clean_dataflow):
    rc, doc, _ = clean_dataflow
    assert rc == 0
    assert doc["ok"] is True and doc["findings"] == []


def test_dataflow_json_reports_passes(clean_dataflow):
    _, doc, _ = clean_dataflow
    assert doc["passes"] == ["dataflow", "suppressions"]
    assert set(doc) == {"passes", "findings", "suppressed", "ok"}


def test_dataflow_sarif_export_is_valid(clean_dataflow):
    _, _, doc = clean_dataflow
    assert doc["version"] == "2.1.0"
    rules = {r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]}
    assert {"LINT04", "LINT06", "LINT07", "LINT08"} <= rules
    assert "LINT05" not in rules
    assert doc["runs"][0]["results"] == []  # clean repo


def test_dataflow_disabled_baseline_still_clean(monkeypatch):
    from repro.analysis import poison

    # the baseline is the subject, not the runs: the clean_dataflow
    # fixture runs the matrix
    monkeypatch.setattr(poison, "MATRIX", ())
    assert main(["analyze", "--dataflow", "--baseline", "none"]) == 0


def test_missing_baseline_file_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "nonexistent.json"
    assert main(["analyze", "--dataflow", "--baseline", str(missing)]) == 2
    assert str(missing) in capsys.readouterr().err
