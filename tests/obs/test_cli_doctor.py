"""The ``repro doctor`` subcommand and the serve ``--slo`` flag: the
shared exit-code convention (0 clean, 1 findings/alerts, 2 usage
errors) across all three doctor modes."""
import json

import pytest

from repro.cli import main

FAST_SERVE = ["serve", "--jobs", "10", "--gpus", "4", "--no-execute"]

JSONL_TRACE = "\n".join([
    '{"type": "session", "name": "toy"}',
    '{"type": "device_op", "pid": "rank0", "tid": "stream0",'
    ' "name": "A", "kind": "kernel", "ts": 0.0, "dur": 0.001}',
    '{"type": "device_op", "pid": "rank0", "tid": "stream1",'
    ' "name": "H", "kind": "h2d", "ts": 0.0, "dur": 0.0004}',
    '{"type": "counter", "pid": "service", "name": "queue.depth",'
    ' "ts": 0.0, "value": 3.0}',
]) + "\n"


def test_doctor_model_mode_clean(capsys):
    assert main(["doctor"]) == 0
    out = capsys.readouterr().out
    assert "perf doctor — model analysis" in out
    assert "verdict" in out and "hidden" in out


def test_doctor_json_reports_paper_overlap(capsys):
    assert main(["doctor", "--ranks", "24x22", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["hidden_fraction"] == pytest.approx(0.548, abs=0.01)
    assert doc["verdict"]["method_totals_s"]


def test_doctor_min_hidden_gate(capsys):
    assert main(["doctor", "--ranks", "2x2", "--min-hidden", "0.05"]) == 0
    capsys.readouterr()
    assert main(["doctor", "--ranks", "2x2", "--min-hidden", "0.99"]) == 1
    assert "FINDING" in capsys.readouterr().out


def test_doctor_usage_errors(tmp_path, capsys):
    assert main(["doctor", "--ranks", "notagrid"]) == 2
    assert main(["doctor", "--trace", str(tmp_path / "missing.json")]) == 2
    assert main(["doctor", "--regress", str(tmp_path / "x.json")]) == 2
    err = capsys.readouterr().err
    assert "doctor:" in err and "--baseline" in err


def test_doctor_trace_mode(tmp_path, capsys):
    trace = tmp_path / "toy.jsonl"
    trace.write_text(JSONL_TRACE)
    assert main(["doctor", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "trace analysis" in out and "rank0" in out
    assert "queue.depth" in out


def test_doctor_regress_gate(tmp_path, capsys):
    base = {"makespan_s": 1.0, "schema_version": 1}
    (tmp_path / "base.json").write_text(json.dumps(base))
    (tmp_path / "same.json").write_text(json.dumps(base))
    slow = dict(base, makespan_s=1.1)
    (tmp_path / "slow.json").write_text(json.dumps(slow))
    unversioned = {"makespan_s": 1.0}
    (tmp_path / "unversioned.json").write_text(json.dumps(unversioned))

    common = ["doctor", "--baseline", str(tmp_path / "base.json")]
    assert main([*common, "--regress", str(tmp_path / "same.json")]) == 0
    assert main([*common, "--regress", str(tmp_path / "slow.json")]) == 1
    assert "DRIFT makespan_s" in capsys.readouterr().out
    assert main([*common, "--regress",
                 str(tmp_path / "unversioned.json")]) == 2
    assert "schema_version" in capsys.readouterr().err
    # a widened per-metric tolerance lets the same drift pass
    assert main([*common, "--regress", str(tmp_path / "slow.json"),
                 "--tolerance", "makespan_s=0.5"]) == 0
    # malformed tolerance is a usage error
    assert main([*common, "--regress", str(tmp_path / "slow.json"),
                 "--tolerance", "nonsense"]) == 2


def test_doctor_regress_json(tmp_path, capsys):
    """``--json`` carries the same verdict as the text report: every
    drift with its path, kind, both values and the tolerance it broke."""
    base = {"makespan_s": 1.0, "jobs": 3, "schema_version": 1}
    (tmp_path / "base.json").write_text(json.dumps(base))
    (tmp_path / "slow.json").write_text(json.dumps(
        dict(base, makespan_s=1.1, jobs=4)))
    args = ["doctor", "--baseline", str(tmp_path / "base.json"),
            "--regress", str(tmp_path / "slow.json"), "--json"]
    assert main([*args, "--tolerance", "jobs=ignore"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False and doc["schema_version"] == 1
    assert doc["rel_tol"] == 0.05 and doc["compared"] == 1
    [drift] = doc["drifts"]
    assert drift["path"] == "makespan_s" and drift["kind"] == "drift"
    assert (drift["baseline"], drift["current"]) == (1.0, 1.1)
    assert drift["rel_change"] == pytest.approx(0.1)
    assert drift["tolerance"] == 0.05
    assert main([*args[:-1], "--tolerance", "*=0.5", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True and doc["drifts"] == [] and doc["compared"] == 2


ROOFLINE_FAST = ["doctor", "--roofline", "--steps", "1"]


def test_doctor_roofline_clean(capsys):
    assert main(ROOFLINE_FAST) == 0
    out = capsys.readouterr().out
    assert "live roofline" in out and "ridge" in out
    assert "warm_rain" in out and "coord_transform" in out
    assert "0 drift error(s)" in out


def test_doctor_roofline_json_ranking(capsys):
    assert main([*ROOFLINE_FAST, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is True
    assert doc["measured_ops"] == doc["total_ops"] > 0
    by_name = {k["name"]: k for k in doc["kernels"]}
    # kernels come sorted by achieved GFlops; the paper's extremes hold
    # among the five Fig. 5 kernels
    five = ["coord_transform", "pgf_x", "advection", "helmholtz",
            "warm_rain"]
    achieved = {n: by_name[n]["achieved_gflops"] for n in five}
    assert achieved["coord_transform"] == min(achieved.values())
    assert achieved["warm_rain"] == max(achieved.values())
    assert by_name["warm_rain"]["intensity"] > doc["ridge"]


def test_doctor_roofline_seed_drift_gates(capsys):
    """The hidden drift injector proves the ROOF01 gate has teeth."""
    assert main([*ROOFLINE_FAST, "--seed-drift", "advection:25"]) == 1
    assert "ROOF01" in capsys.readouterr().out
    assert main([*ROOFLINE_FAST, "--seed-drift", "nonsense"]) == 2
    assert main([*ROOFLINE_FAST, "--seed-drift", "no_such_kernel:2"]) == 2


def test_doctor_roofline_counted_trace_roundtrip(tmp_path, capsys):
    trace = tmp_path / "counted.jsonl"
    assert main(["run", "shear-layer", "--nx", "16", "--ny", "16",
                 "--nz", "12", "--steps", "1", "--counters",
                 "--trace-jsonl", str(trace)]) == 0
    assert "counters:" in capsys.readouterr().out
    assert main(["doctor", "--roofline", "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "live roofline" in out and "0 drift error(s)" in out


def test_doctor_roofline_uncounted_trace_is_usage_error(tmp_path, capsys):
    trace = tmp_path / "uncounted.jsonl"
    trace.write_text(JSONL_TRACE)
    assert main(["doctor", "--roofline", "--trace", str(trace)]) == 2
    assert "--counters" in capsys.readouterr().err


def test_serve_slo_exit_codes(capsys):
    assert main([*FAST_SERVE, "--slo", "p95_wait_s<1e9"]) == 0
    assert "all objectives met" in capsys.readouterr().out
    assert main([*FAST_SERVE, "--slo", "queue_depth<1"]) == 1
    assert "ALERT [slo]" in capsys.readouterr().out
    assert main([*FAST_SERVE, "--slo", "queue_depth!!1"]) == 2
    assert "serve:" in capsys.readouterr().err


def test_exit_codes_documented_in_help(capsys):
    for cmd in ("trace", "analyze", "doctor", "serve"):
        with pytest.raises(SystemExit):
            main([cmd, "--help"])
        assert "exit codes: 0 = clean" in capsys.readouterr().out
