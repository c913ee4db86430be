"""Smoke test of the benchmark itself: ``python -m pytest bench/tests -q``.

Runs ``bench/run.py --quick`` (one round of at most two ops per
workload) untraced and traced, and checks what it prints against
``BENCHMARK.json``.
"""
import json
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_bench(*args):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--quick", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.splitlines()


def printed_metrics(lines):
    """workload -> [(name, unit), ...] in print order."""
    out = {}
    for line in lines:
        if line.startswith("metric "):
            _, workload, name, value, unit = line.split()
            float(value)
            out.setdefault(workload, []).append((name, unit))
    return out


@pytest.mark.parametrize("flags, section", [((), "end_to_end"),
                                            (("--layers",), "per_layer")])
def test_every_named_metric_once_with_its_unit(flags, section):
    lines = run_bench(*flags)
    expected = sorted((m["name"], m["unit"]) for m in SPEC[section])
    printed = printed_metrics(lines)
    assert sorted(printed) == sorted(WORKLOADS)
    for workload, metrics in printed.items():
        # exactly once each, each with its unit, and nothing unnamed
        assert sorted(metrics) == expected, workload
        assert all(NAME.fullmatch(name) for name, _ in metrics)
    verdicts = [line for line in lines if line.startswith("verify ")]
    assert len(verdicts) == len(WORKLOADS)
    assert all(" PASS:" in line for line in verdicts)
    last = json.loads(lines[-1])
    for workload in WORKLOADS:
        assert set(last[workload]) == {"correct", "attempted", "failed",
                                       "metrics"}
        assert last[workload]["correct"] and last[workload]["failed"] == 0


def test_catalogue_matches_benchmark_json():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import layers
    finally:
        sys.path.pop(0)
    assert [(m["name"], m["unit"], m["better"])
            for m in SPEC["per_layer"]] == layers.PER_LAYER


def test_corrupted_verify_check_fails_every_op():
    lines = run_bench("--workload", "dycore_cpu", "--seed", "3",
                      "--inject-verify-failure")
    last = json.loads(lines[-1])
    assert last["correct"] is False
    assert last["failed"] == last["attempted"] >= 1
    assert any("fail_frac 1)" in line for line in lines)
