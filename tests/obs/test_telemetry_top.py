"""The fleet view behind ``repro top`` / ``doctor --fleet``: exact
agreement with the ServiceReport on a >=100-job Poisson workload, the
CLI surfaces, and the sparkline renderer."""
import json

import pytest

from repro.cli import main
from repro.obs import (
    TraceSession,
    fleet_view,
    render_fleet_view,
    render_frames,
    sparkline,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.doctor.load import load_trace
from repro.serve import ForecastService, GpuFleet, poisson_workload


def _run_service(n_jobs=120, *, slo=None):
    session = TraceSession("serve")
    svc = ForecastService(GpuFleet(4), policy="sjf", session=session,
                          slo=slo, execute=False)
    rep = svc.run(poisson_workload(n_jobs, seed=11, rate=60.0))
    session.finalize()
    return session, rep


# ------------------------------------------------- report == fleet view
@pytest.mark.parametrize("fmt", ["chrome", "jsonl"])
def test_replayed_view_equals_the_service_report_exactly(tmp_path, fmt):
    session, rep = _run_service()
    assert rep.n_submitted >= 100
    path = str(tmp_path / f"t.{'json' if fmt == 'chrome' else 'jsonl'}")
    (write_chrome_trace if fmt == "chrome" else write_jsonl)(session, path)
    view = fleet_view(load_trace(path))
    # bitwise equality, not approx: the trace carries one exact sample
    # per completed job and the same percentile_summary folds both
    assert view.wait_s == rep.wait_s
    assert view.turnaround_s == rep.turnaround_s
    assert view.utilization == rep.utilization
    assert view.cache_hit_rate == rep.cache_hit_rate
    assert view.makespan_s == rep.makespan_s
    assert view.throughput_jobs_per_s == rep.throughput_jobs_per_s
    assert view.n_gpus == rep.n_gpus
    assert view.jobs["submitted"] == rep.n_submitted
    assert view.jobs["done"] == rep.n_done
    assert view.jobs["cached"] == rep.n_cached
    assert view.gpus_in_use["max"] <= rep.n_gpus


def test_session_view_equals_trace_view(tmp_path):
    session, rep = _run_service()
    live = fleet_view(session)
    for path in (write_jsonl(session, str(tmp_path / "t.jsonl")),
                 write_chrome_trace(session, str(tmp_path / "t.json"))):
        assert fleet_view(load_trace(path)).as_dict() == live.as_dict()
    assert live.wait_s == rep.wait_s


def test_alerts_flow_into_the_view():
    session, rep = _run_service(slo="p95_wait_s<0.001")
    assert rep.alerts
    view = fleet_view(session)
    assert len(view.alerts) == len(rep.alerts)
    assert view.alerts[0]["metric"] == rep.alerts[0]["metric"]
    assert view.alerts[0]["t"] == rep.alerts[0]["t"]


def test_render_fleet_view_and_frames():
    session, _ = _run_service()
    view = fleet_view(session)
    text = render_fleet_view(view)
    assert "fleet view" in text and "queue depth" in text
    assert "p99" in text and "cache hit rate" in text
    frames = render_frames(view, frames=6)
    assert len(frames.splitlines()) <= 7       # header + <= 6 rows


# ------------------------------------------------------------------- CLI
def test_cli_top_replay_matches_serve_report(tmp_path, capsys):
    trace = tmp_path / "serve.jsonl"
    args = ["--jobs", "110", "--gpus", "4", "--seed", "5",
            "--no-execute"]
    assert main(["serve", *args, "--trace-jsonl", str(trace),
                 "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert main(["top", "--replay", str(trace), "--json"]) == 0
    view = json.loads(capsys.readouterr().out)
    assert view["wait_s"] == rep["wait_s"]
    assert view["turnaround_s"] == rep["turnaround_s"]
    assert view["utilization"] == rep["utilization"]
    assert view["jobs"]["submitted"] == rep["n_submitted"] >= 100


def test_cli_top_live_mode(capsys):
    assert main(["top", "--jobs", "40", "--gpus", "4", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "fleet view" in out and "t [s]" in out


def test_cli_top_replay_bad_file_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "nope.jsonl"
    assert main(["top", "--replay", str(missing)]) == 2


def test_cli_doctor_fleet(tmp_path, capsys):
    trace = tmp_path / "serve.json"
    assert main(["serve", "--jobs", "30", "--gpus", "4", "--no-execute",
                 "--trace", str(trace)]) == 0
    capsys.readouterr()
    assert main(["doctor", "--fleet", "--trace", str(trace)]) == 0
    assert "fleet view" in capsys.readouterr().out
    # --fleet without --trace is a usage error
    assert main(["doctor", "--fleet"]) == 2


def test_cli_doctor_fleet_exit_1_on_alerts(tmp_path, capsys):
    trace = tmp_path / "serve.json"
    assert main(["serve", "--jobs", "40", "--gpus", "2", "--no-execute",
                 "--slo", "p95_wait_s<0.0001", "--trace",
                 str(trace)]) == 1
    capsys.readouterr()
    assert main(["doctor", "--fleet", "--trace", str(trace)]) == 1
    assert "ALERT" in capsys.readouterr().out


# ------------------------------------------------------------- sparkline
def test_sparkline_is_deterministic_and_bounded():
    values = [float(i % 7) for i in range(200)]
    line = sparkline(values, width=24)
    assert len(line) == 24
    assert line == sparkline(values, width=24)
    assert sparkline([]) == ""
    assert sparkline([3.0, 3.0, 3.0]) == "▁▁▁"
    ramp = sparkline([0.0, 1.0, 2.0, 3.0])
    assert ramp[0] == "▁" and ramp[-1] == "█"
