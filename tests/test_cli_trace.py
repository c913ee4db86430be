"""CLI tests for the observability surface: ``run --profile``,
``run --trace/--metrics``, and the ``trace`` subcommand."""
import json

from repro.cli import main

SMALL = ["--nx", "16", "--ny", "16", "--nz", "8", "--steps", "1"]


def test_run_profile_prints_phase_report(capsys):
    assert main(["run", "warm-bubble", *SMALL, "--profile"]) == 0
    out = capsys.readouterr().out
    assert "slow_tendencies" in out and "acoustic_substep" in out
    assert "phase" in out and "seconds" in out


def test_run_trace_single_domain(tmp_path, capsys):
    trace = tmp_path / "single.json"
    assert main(["run", "mountain-wave", *SMALL, "--nz", "10",
                 "--trace", str(trace), "--metrics"]) == 0
    out = capsys.readouterr().out
    assert "kernel.launches" in out and "gflops.sustained" in out
    doc = json.load(open(trace))
    cats = {ev.get("cat") for ev in doc["traceEvents"] if ev["ph"] == "X"}
    assert "kernel" in cats and "h2d" in cats


def test_trace_subcommand_decomposed(tmp_path, capsys):
    trace = tmp_path / "out.json"
    jsonl = tmp_path / "out.jsonl"
    assert main(["trace", "warm-bubble", *SMALL, "--ranks", "2x2",
                 "-o", str(trace), "--jsonl", str(jsonl)]) == 0
    out = capsys.readouterr().out
    assert "trace session: warm-bubble" in out
    assert "halo traffic by rank pair" in out

    doc = json.load(open(trace))
    names = {ev["args"]["name"] for ev in doc["traceEvents"]
             if ev["ph"] == "M" and ev["name"] == "process_name"}
    assert {"rank0", "rank1", "rank2", "rank3"} <= names
    lines = [json.loads(line) for line in open(jsonl)]
    assert lines[-1]["type"] == "metrics"
