"""ForecastService end to end: determinism, cache identity, crash
recovery, policy comparison, and the exported Chrome trace."""
import numpy as np
import pytest

from repro.api import Experiment, RunSpec
from repro.obs import TraceSession
from repro.obs.exporters import chrome_trace
from repro.resilience.retry import RetryPolicy
from repro.serve import (
    ForecastService,
    GpuFleet,
    JobState,
    Submission,
    poisson_workload,
)

SMALL = dict(workload="warm-bubble", nx=16, ny=16, nz=8, steps=2)


def serve(workload, *, gpus=4, session=None, execute=True, **kw):
    svc = ForecastService(GpuFleet(gpus), session=session,
                          execute=execute, **kw)
    return svc, svc.run(workload)


# -------------------------------------------------------- determinism
def test_replaying_the_same_workload_is_deterministic():
    workload = poisson_workload(50, seed=0)
    _, rep_a = serve(workload, gpus=4, execute=False)
    _, rep_b = serve(poisson_workload(50, seed=0), gpus=4, execute=False)
    assert rep_a.as_dict() == rep_b.as_dict()
    # a different seed is a different workload (sanity of the generator)
    _, rep_c = serve(poisson_workload(50, seed=1), gpus=4, execute=False)
    assert rep_c.as_dict() != rep_a.as_dict()


def test_service_instance_runs_once():
    svc, _ = serve(poisson_workload(3, seed=0), execute=False)
    with pytest.raises(RuntimeError):
        svc.run(poisson_workload(3, seed=0))


# ----------------------------------------------------------- caching
def test_cache_hit_is_bit_identical_to_a_fresh_run():
    spec = RunSpec(**SMALL)
    # the duplicate arrives long after the original finished, so it is
    # answered from the cache rather than run again
    workload = [Submission(t=0.0, spec=spec),
                Submission(t=100.0, spec=spec)]
    svc, rep = serve(workload)
    first, dup = svc.jobs
    assert first.state is JobState.DONE
    assert dup.state is JobState.CACHED
    assert rep.n_cached == 1 and rep.cache_hits == 1
    assert dup.wait == 0.0

    fresh = Experiment(spec).prepare().run()
    for name in ("rho", "rhou", "rhov", "rhow", "rhotheta"):
        assert np.array_equal(getattr(dup.result.state, name),
                              getattr(fresh.state, name))


def test_duplicate_arriving_before_completion_runs_fresh():
    spec = RunSpec(**SMALL)
    workload = [Submission(t=0.0, spec=spec),
                Submission(t=1e-6, spec=spec)]   # original still running
    svc, rep = serve(workload)
    assert rep.n_done == 2 and rep.n_cached == 0


def test_cache_capacity_zero_disables_hits():
    spec = RunSpec(**SMALL)
    workload = [Submission(t=0.0, spec=spec),
                Submission(t=100.0, spec=spec)]
    _, rep = serve(workload, cache_capacity=0, execute=False)
    assert rep.n_cached == 0 and rep.n_done == 2


# --------------------------------------------------------- resilience
def test_crash_then_retry_then_done():
    workload = [Submission(t=0.0, spec=RunSpec(**SMALL))]
    svc, rep = serve(workload, faults="crash@0",
                     retry=RetryPolicy(max_retries=2, backoff_base=0.01))
    job = svc.jobs[0]
    assert job.state is JobState.DONE
    assert job.attempts == 2 and job.crashes == 1
    assert rep.crashes == 1 and rep.retries == 1 and rep.n_evicted == 0
    # the crash costs real modeled time: half an attempt + backoff
    assert job.turnaround > job.est_seconds


def test_repeated_crashes_evict_after_max_attempts():
    workload = [Submission(t=0.0, spec=RunSpec(**SMALL))]
    svc, rep = serve(workload, faults="crash@0:x9",
                     retry=RetryPolicy(max_retries=2, backoff_base=0.01),
                     execute=False)
    job = svc.jobs[0]
    assert job.state is JobState.EVICTED
    assert job.attempts == 3 and job.crashes == 3       # 1 try + 2 retries
    assert rep.n_evicted == 1 and rep.n_done == 0
    assert "evicted" in job.error


def test_checkpointing_job_resumes_retry_from_last_checkpoint(tmp_path):
    spec = RunSpec(**SMALL, checkpoint_every=1,
                   checkpoint_dir=str(tmp_path))
    workload = [Submission(t=0.0, spec=spec)]
    svc, _ = serve(workload, faults="crash@0",
                   retry=RetryPolicy(max_retries=2, backoff_base=0.0),
                   execute=False)
    job = svc.jobs[0]
    assert job.state is JobState.DONE
    assert job.progress == pytest.approx(0.5)
    # without the checkpoint, the retry would restart from scratch and
    # pay 0.5 est (crashed half) + est (full redo); resuming from the
    # mid-run checkpoint pays 0.5 + 0.5 with zero backoff
    assert job.turnaround == pytest.approx(1.0 * job.est_seconds)


def test_oversized_gang_is_rejected_by_admission_control():
    spec = RunSpec(**SMALL, backend="multigpu", ranks=(2, 2))
    svc, rep = serve([Submission(t=0.0, spec=spec)], gpus=2, execute=False)
    assert rep.n_failed == 1 and rep.n_done == 0
    assert rep.jobs[0]["state"] == "failed"
    assert "needs 4 GPUs" in svc.jobs[0].error


def test_a_blown_up_run_fails_frees_its_gpus_and_is_never_cached(monkeypatch):
    """A served run that raises (here: a NaN planted in the first case
    built, so the first long step's check raises NumericalBlowup) ends
    FAILED with the error, releases its GPUs, never enters the result
    cache, and the same spec submitted again is computed afresh."""
    import repro.api
    from repro.core.state import NumericalBlowup

    make_case, planted = repro.api.make_case, []

    def make_case_once_with_nan(*args, **kwargs):
        case = make_case(*args, **kwargs)
        if not planted:
            planted.append(case)
            case.grid.interior(case.state.rhotheta)[0, 0, 0] = np.nan
        return case

    monkeypatch.setattr(repro.api, "make_case", make_case_once_with_nan)
    spec = RunSpec(**SMALL)
    svc = ForecastService(GpuFleet(4))
    done = []
    svc.on_job_done = lambda job: done.append(
        (job.state, job.spec_hash in svc.cache, svc.fleet.in_use))
    rep = svc.run([Submission(t=0.0, spec=spec),
                   Submission(t=100.0, spec=spec)])
    failed, again = svc.jobs
    assert failed.state is JobState.FAILED and failed.result is None
    assert failed.error.startswith(NumericalBlowup.__name__)
    assert "non-finite values" in failed.error and "long step 1" in failed.error
    assert rep.n_failed == 1 and rep.jobs[0]["state"] == "failed"
    # at its end the failed job holds no GPU and no cache entry
    assert done[0] == (JobState.FAILED, False, 0)
    # so the resubmission is no cache hit: it runs, and succeeds
    assert again.state is JobState.DONE and again.attempts == 1
    assert rep.cache_hits == 0 and len(planted) == 1
    assert again.result.state.rhotheta.tobytes() == (
        Experiment(spec).prepare().run().state.rhotheta.tobytes())


# ------------------------------------------------------------ policy
def test_sjf_p95_wait_not_worse_than_fifo_on_mixed_sizes():
    workload = poisson_workload(50, seed=0)
    _, fifo = serve(workload, gpus=8, policy="fifo", execute=False)
    _, sjf = serve(workload, gpus=8, policy="sjf", execute=False)
    assert sjf.wait_s["p95"] <= fifo.wait_s["p95"] + 1e-12
    assert fifo.n_done + fifo.n_cached == 50
    assert sjf.n_done + sjf.n_cached == 50


def test_priority_jobs_wait_less_than_background_under_load():
    rng_jobs = poisson_workload(40, seed=3, duplicate_fraction=0.0,
                                priorities=(0, 2))
    _, rep = serve(rng_jobs, gpus=4, policy="priority", execute=False)
    waits = {0: [], 2: []}
    for j in rep.jobs:
        if j["wait"] is not None:
            waits[j["priority"]].append(j["wait"])
    assert waits[0] and waits[2]
    assert np.mean(waits[2]) <= np.mean(waits[0])


# ------------------------------------------------------------- trace
def test_service_exports_one_chrome_trace_with_spans_and_counters():
    session = TraceSession(name="serve-test")
    workload = poisson_workload(12, seed=0)
    _, rep = serve(workload, gpus=4, session=session, execute=False)
    session.finalize()
    doc = chrome_trace(session)
    events = doc["traceEvents"]

    spans = [ev for ev in events if ev["ph"] == "X"
             and ev.get("cat") == "job"]
    assert len(spans) >= rep.n_done        # one span per GPU per attempt
    # spans live on per-GPU fleet tracks, in modeled microseconds
    names = {ev["args"]["name"] for ev in events
             if ev["ph"] == "M" and ev["name"] == "thread_name"}
    assert any(n.startswith("gpu") for n in names)

    counters = {ev["name"] for ev in events if ev["ph"] == "C"}
    assert {"queue.depth", "fleet.gpus_in_use", "jobs.running"} <= counters

    # the report's headline numbers also land in the metrics registry
    snap = session.metrics.as_dict()
    flat = str(snap)
    assert "serve.jobs.submitted" in flat
    assert "serve.utilization" in flat
