"""SARIF 2.1.0 export: structural schema smoke-test (no jsonschema
dependency), location mapping for static and dynamic findings, and
suppression provenance."""
import json

from repro.analysis.findings import CODES, Finding, Report
from repro.analysis.sarif import (
    SARIF_SCHEMA,
    SARIF_VERSION,
    to_sarif,
    write_sarif,
)


def make_report():
    r = Report()
    r.extend([
        Finding(code="LINT04", message="stale halo read of 'rhou'",
                file="/repo/src/repro/core/rk3.py", line=42),
        Finding(code="RACE01", message="conflicting accesses",
                severity="error", device="gpu0", stream=2,
                op="advect_u", op_other="exchange", occurrences=3),
        Finding(code="SUPP01", message="stale suppression",
                severity="warning", file="/repo/src/x.py", line=7),
    ], passname="dataflow")
    inline = Finding(code="LINT06", message="dead store",
                     file="/repo/src/y.py", line=3)
    external = Finding(code="LINT07", message="fused impl drift",
                       file="/repo/src/z.py", line=9)
    external._suppressed_via = "baseline"
    r.suppressed += [inline, external]
    return r


def test_document_shape_matches_sarif_2_1_0():
    doc = to_sarif(make_report())
    assert doc["version"] == SARIF_VERSION == "2.1.0"
    assert doc["$schema"] == SARIF_SCHEMA
    assert isinstance(doc["runs"], list) and len(doc["runs"]) == 1
    run = doc["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-sanitizer"
    # every registry code becomes a rule, fired or not
    assert {r["id"] for r in driver["rules"]} == set(CODES)
    for rule in driver["rules"]:
        assert rule["shortDescription"]["text"]
        assert rule["properties"]["passname"]
    for res in run["results"]:
        assert res["ruleId"] in CODES
        assert res["level"] in ("error", "warning", "note")
        assert isinstance(res["message"]["text"], str)
        assert isinstance(res["locations"], list) and res["locations"]


def test_static_findings_carry_physical_locations():
    doc = to_sarif(make_report(), root="/repo")
    results = doc["runs"][0]["results"]
    lint04 = next(r for r in results if r["ruleId"] == "LINT04")
    phys = lint04["locations"][0]["physicalLocation"]
    assert phys["artifactLocation"]["uri"] == "src/repro/core/rk3.py"
    assert phys["region"]["startLine"] == 42
    supp01 = next(r for r in results if r["ruleId"] == "SUPP01")
    assert supp01["level"] == "warning"


def test_dynamic_findings_carry_logical_locations():
    doc = to_sarif(make_report())
    race = next(r for r in doc["runs"][0]["results"]
                if r["ruleId"] == "RACE01")
    loc = race["locations"][0]["logicalLocations"][0]
    assert "gpu0" in loc["fullyQualifiedName"]
    assert race["properties"]["occurrences"] == 3


def test_suppressed_findings_are_marked_not_dropped():
    doc = to_sarif(make_report())
    results = doc["runs"][0]["results"]
    lint06 = next(r for r in results if r["ruleId"] == "LINT06")
    assert lint06["suppressions"][0]["kind"] == "inSource"
    lint07 = next(r for r in results if r["ruleId"] == "LINT07")
    assert lint07["suppressions"][0]["kind"] == "external"
    live = [r for r in results if "suppressions" not in r]
    assert {r["ruleId"] for r in live} == {"LINT04", "RACE01", "SUPP01"}


def test_write_sarif_round_trips(tmp_path):
    out = write_sarif(make_report(), tmp_path / "out.sarif")
    doc = json.loads(out.read_text())
    assert doc["version"] == "2.1.0"
    assert doc["runs"][0]["properties"]["passes"] == ["dataflow"]


def test_empty_report_is_valid_sarif():
    doc = to_sarif(Report())
    assert doc["runs"][0]["results"] == []
    assert {r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]} \
        == set(CODES)


# -------------------------------------------------- code registry hygiene
def test_unknown_code_suggests_the_nearest_registered_one():
    import pytest

    with pytest.raises(ValueError, match="did you mean 'LINT04'"):
        Finding(code="LINT4", message="typo")


def test_codes_table_lists_every_code():
    from repro.analysis.findings import codes_table

    table = codes_table()
    for code in CODES:
        assert code in table
