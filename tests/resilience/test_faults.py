"""Fault plans, the injector, and fault-injected halo exchanges."""
import dataclasses
import hashlib
import json
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.grid import make_grid
from repro.core.model import ModelConfig
from repro.core.reference import make_reference_state
from repro.core.state import state_from_reference
from repro.dist.multigpu import MultiGpuAsuca
from repro.resilience.faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    RankCrash,
)
from repro.resilience.retry import (
    MessageLostError,
    RetryExhaustedError,
    RetryPolicy,
)
from repro.workloads.sounding import constant_stability_sounding


# ------------------------------------------------------------------- plans
class TestFaultPlan:
    def test_seeded_plan_is_deterministic(self):
        a = FaultPlan.random(seed=42, n_steps=30, n_ranks=4)
        b = FaultPlan.random(seed=42, n_steps=30, n_ranks=4)
        assert a.events == b.events
        c = FaultPlan.random(seed=43, n_steps=30, n_ranks=4)
        assert a.events != c.events

    def test_parse_named_plans(self):
        assert len(FaultPlan.parse(None)) == 0
        assert len(FaultPlan.parse("none")) == 0
        demo = FaultPlan.parse("demo")
        assert {ev.kind for ev in demo.events} == set(FaultKind)
        rnd = FaultPlan.parse("random:7")
        assert rnd.events == FaultPlan.random(seed=7, n_steps=50,
                                              n_ranks=4).events

    def test_parse_compact_items(self):
        plan = FaultPlan.parse("drop@1,corrupt@2:0>1,crash@3:r2,"
                               "delay@4:m0.01,drop@5:x3")
        kinds = [ev.kind for ev in plan.events]
        assert kinds == [FaultKind.DROP, FaultKind.CORRUPT, FaultKind.CRASH,
                         FaultKind.DELAY, FaultKind.DROP]
        assert plan.events[1].src == 0 and plan.events[1].dst == 1
        assert plan.events[2].rank == 2
        assert plan.events[3].magnitude == pytest.approx(0.01)
        assert plan.events[4].count == 3

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("drop@1:z9")
        with pytest.raises(ValueError):
            FaultPlan.parse("explode@1")

    def test_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(FaultKind.DROP, step=-1)
        with pytest.raises(ValueError):
            FaultEvent(FaultKind.DROP, step=0, count=0)


# ---------------------------------------------------------------- injector
class TestFaultInjector:
    def test_count_consumption(self):
        inj = FaultInjector(FaultPlan(
            events=[FaultEvent(FaultKind.DROP, step=0, count=2)]))
        inj.begin_step(0)
        assert inj.on_message(0, 1) is not None
        assert inj.on_message(0, 1) is not None
        assert inj.on_message(0, 1) is None       # count exhausted
        assert inj.pending() == 0
        assert inj.counts == {"drop": 2}

    def test_step_and_pair_filters(self):
        inj = FaultInjector(FaultPlan(events=[
            FaultEvent(FaultKind.DROP, step=2, src=0, dst=1)]))
        inj.begin_step(1)
        assert inj.on_message(0, 1) is None       # wrong step
        inj.begin_step(2)
        assert inj.on_message(1, 0) is None       # wrong pair
        assert inj.on_message(0, 1) is not None

    def test_crash_consumed_on_replay(self):
        inj = FaultInjector(FaultPlan(events=[
            FaultEvent(FaultKind.CRASH, step=3, rank=1)]))
        assert inj.crash_rank(3) == 1
        assert inj.crash_rank(3) is None          # a resumed run passes

    def test_pcie_matches_device_label(self):
        inj = FaultInjector(FaultPlan(events=[
            FaultEvent(FaultKind.PCIE, step=0, rank=3)]))
        inj.begin_step(0)
        assert not inj.on_pcie("rank0")
        assert inj.on_pcie("rank3")


# ------------------------------------------- fault-injected halo exchange
def _machine_and_state(plan=None, retry=None, px=2, py=2, seed=0,
                       amplitude=1.0):
    """A 2-D-decomposed machine plus a perturbed global state.

    ``amplitude=1.0`` gives arbitrary random fields (fine for exchange
    tests); stepping tests pass a small amplitude so the state stays
    inside the integrator's validity range."""
    g = make_grid(nx=12, ny=9, nz=4, dx=500.0, dy=500.0, ztop=4000.0)
    ref = make_reference_state(g, constant_stability_sounding())
    injector = FaultInjector(plan) if plan is not None else None
    machine = MultiGpuAsuca(g, ref, px, py, ModelConfig(),
                            fault_injector=injector, retry=retry)
    gstate = state_from_reference(g, ref)
    r = np.random.default_rng(seed)
    for name in gstate.prognostic_names():
        arr = gstate.get(name)
        arr += amplitude * r.normal(size=arr.shape)
    return machine, gstate


class TestFaultyExchange:
    @pytest.mark.parametrize("spec", ["drop@0", "corrupt@0", "delay@0",
                                      "drop@0:x2,corrupt@0,delay@0:m0.5"])
    def test_exchange_converges_to_fault_free_answer(self, spec):
        """Halos exchanged over a faulty transport, recovered under the
        retry policy, are bit-identical to the fault-free exchange."""
        clean, gstate = _machine_and_state()
        faulty, _ = _machine_and_state(plan=FaultPlan.parse(spec))
        faulty.faults.begin_step(0)

        ref_states = clean.scatter_state(gstate)
        clean.exchange_all(ref_states, None)
        states = faulty.scatter_state(gstate)
        faulty.exchange_all(states, None)

        for a, b in zip(ref_states, states):
            for name in a.prognostic_names():
                np.testing.assert_array_equal(a.get(name), b.get(name),
                                              err_msg=name)
        assert len(faulty.faults.fired) >= 1
        assert faulty.exchanger.stats.recovery_s > 0.0

    def test_short_delay_is_waited_out_not_retried(self):
        machine, gstate = _machine_and_state(
            plan=FaultPlan.parse("delay@0:m0.001"),
            retry=RetryPolicy(timeout=0.02))
        machine.faults.begin_step(0)
        states = machine.scatter_state(gstate)
        machine.exchange_all(states, None)
        s = machine.exchanger.stats
        assert s.waits == 1 and s.timeouts == 0 and s.retransmits == 0
        assert s.wait_s == pytest.approx(0.001)

    def test_long_delay_times_out_and_retries(self):
        machine, gstate = _machine_and_state(
            plan=FaultPlan.parse("delay@0:m0.5"),
            retry=RetryPolicy(timeout=0.02))
        machine.faults.begin_step(0)
        states = machine.scatter_state(gstate)
        machine.exchange_all(states, None)
        s = machine.exchanger.stats
        assert s.timeouts == 1 and s.retries >= 1

    def test_retry_exhaustion(self):
        """More drops of one message than the policy allows is fatal, and
        is known before the exchange point moves a byte: every rank's
        arrays are what they were, halos included."""
        machine, gstate = _machine_and_state(
            plan=FaultPlan(events=[
                FaultEvent(FaultKind.DROP, step=0, src=0, dst=1, count=50)]),
            retry=RetryPolicy(max_retries=2))
        machine.faults.begin_step(0)
        states = machine.scatter_state(gstate)
        before = [[st.get(n).tobytes() for n in st.prognostic_names()]
                  for st in states]
        with pytest.raises(RetryExhaustedError) as exc:
            machine.exchange_all(states, None)
        assert exc.value.attempts == 3
        assert isinstance(exc.value.last_error, MessageLostError)
        assert [[st.get(n).tobytes() for n in st.prognostic_names()]
                for st in states] == before

    def test_crash_raises_rank_crash(self):
        """The one crash check, at the top of every backend's step."""
        from repro.api import Experiment, RunSpec

        exp = Experiment(RunSpec("warm-bubble", nx=12, ny=12, nz=4,
                                 ranks=(2, 2), faults="crash@1:r2")).prepare()
        exp.advance(1)
        with pytest.raises(RankCrash) as exc:
            exp._step_once()
        assert exc.value.rank == 2 and exc.value.step == 1
        assert exp.step_index == 1

    def test_stepped_run_with_faults_matches_clean_run(self):
        """Two model steps over a faulty-but-recovered transport equal the
        fault-free run bit for bit."""
        clean, gstate = _machine_and_state(amplitude=1e-3)
        faulty, _ = _machine_and_state(
            plan=FaultPlan.parse("drop@0,corrupt@1,delay@1"),
            amplitude=1e-3)

        da, db = clean.driver(), faulty.driver()
        a, b = da.scatter(gstate), db.scatter(gstate)
        for i in range(2):
            faulty.faults.begin_step(i)
            a, b = da.step(a, i), db.step(b, i)
        ga, gb = clean.gather_state(a), faulty.gather_state(b)
        for name in ga.prognostic_names():
            np.testing.assert_array_equal(ga.get(name), gb.get(name),
                                          err_msg=name)
        assert len(faulty.faults.fired) == 3


def _fault_run(workload, ranks, plan):
    """Every observable a fault changes, of one traced run: the gathered
    fields' sha256, ``RetryStats``, the fault log, the resilience instants
    and the message log's shape (one record per transmission: sequence
    number, ranks, tag, bytes and whether it was delivered)."""
    from repro.api import Experiment, RunSpec

    exp = Experiment(RunSpec(workload, nx=16, ny=16, nz=8, steps=3,
                             ranks=ranks, faults=plan, metrics=True)).prepare()
    res = exp.run()
    fields = hashlib.sha256()
    for name in res.state.prognostic_names():
        fields.update(np.ascontiguousarray(res.state.get(name)).tobytes())
    instants = [(i.name, i.args) for i in res.session.instants
                if i.cat == "resilience"]
    log = [(r.seq, r.src, r.dst, str(r.tag), r.nbytes, r.t_collect is not None)
           for r in exp.machine.comm.message_log]
    return SimpleNamespace(
        fields=fields.hexdigest(), stats=dataclasses.asdict(res.retry_stats),
        traffic=(res.halo_messages, res.halo_bytes),
        fault_log=[(s, k.value, d) for s, k, d in res.fault_log],
        n_instants=len(instants),
        instants=hashlib.sha256(json.dumps(instants, sort_keys=True)
                                .encode()).hexdigest(),
        n_log=len(log), undelivered=sum(not r[-1] for r in log),
        log=hashlib.sha256(json.dumps(log).encode()).hexdigest())


def test_seeded_fault_run_is_pinned():
    """Every observable of a run over a busy seeded drop/corrupt/delay
    plan, recorded at the commit before the exchange became a compiled
    schedule: post order decides which message a fault hits, collect
    order decides the order the floats of ``RetryStats`` are summed in and
    the order of the ``halo_retry``/``halo_wait`` instants."""
    plan = FaultPlan.random(seed=11, n_steps=3, n_ranks=4, p_drop=1.0,
                            p_corrupt=1.0, p_delay=1.0, p_pcie=1.0)
    plan = FaultPlan(events=plan.events + [
        FaultEvent(FaultKind.DROP, 1, count=5),
        FaultEvent(FaultKind.CORRUPT, 2, src=1, dst=3, count=4),
        FaultEvent(FaultKind.DELAY, 0, magnitude=0.5, count=2),
        FaultEvent(FaultKind.DELAY, 2, dst=0, magnitude=0.001, count=3),
    ], name="pinned", seed=11)
    run = _fault_run("warm-bubble", (2, 2), plan)
    assert run.fields == (
        "e4df6aba3da943a64b8c6ea7b9c3864b831587cb3f193ae0833e5c797f9a6b16")
    assert run.stats == {
        "retries": 17, "retransmits": 15, "timeouts": 2, "waits": 6,
        "backoff_s": 0.054000000000000006, "wait_s": 0.013700646221735977,
        "by_kind": {"MessageLostError": 8, "timeout": 2,
                    "MessageCorruptError": 7, "delay": 6},
    }
    assert run.traffic == (4431, 12197760)
    assert run.fault_log == [
        (0, "delay", "0->2"), (0, "delay", "0->2"), (0, "corrupt", "1->3"),
        (0, "delay", "1->3"), (0, "drop", "3->1"), (0, "pcie", "rank0"),
        (1, "delay", "0->2"), (1, "drop", "0->2"), (1, "drop", "1->3"),
        (1, "drop", "1->3"), (1, "drop", "2->0"), (1, "drop", "2->0"),
        (1, "drop", "3->1"), (1, "corrupt", "3->1"), (1, "pcie", "rank2"),
        (2, "drop", "1->3"), (2, "corrupt", "1->3"), (2, "delay", "2->0"),
        (2, "delay", "2->0"), (2, "corrupt", "3->1"), (2, "delay", "3->1"),
        (2, "corrupt", "1->3"), (2, "corrupt", "1->3"), (2, "corrupt", "1->3"),
        (2, "delay", "2->0"), (2, "pcie", "rank3"),
    ]
    assert run.n_instants == 23
    assert run.instants == (
        "d5228fe0c48a01b8c0bb2e2b8e531a417d8da4ee143abbf6e112e02c7a29de49")
    assert (run.n_log, run.undelivered) == (4431, 15)
    assert run.log == (
        "e05d60216aa215640cdbac158ca93d8d3e4bf348cba34d986b3dcd7c33cba597")


@pytest.mark.parametrize("workload,ranks,seed,pins", [
    # open edges: zero-gradient fills beside the messages
    ("real-case", (2, 2), 5, dict(
        fields="48c51a45d7cc51227e66cf9f9edbfc270ba90d5c5334f465a2bd85d2b963b532",
        stats={"retries": 6, "retransmits": 6, "timeouts": 0, "waits": 3,
               "backoff_s": 0.004, "wait_s": 0.004395595729843582,
               "by_kind": {"MessageLostError": 3, "MessageCorruptError": 3,
                           "delay": 3}},
        traffic=(2214, 6094848),
        fault_log=[(0, "drop", "0->2"), (0, "corrupt", "3->1"),
                   (0, "delay", "3->1"), (0, "pcie", "rank0"),
                   (1, "drop", "0->2"), (1, "delay", "3->1"),
                   (1, "corrupt", "0->2"), (1, "pcie", "rank0"),
                   (2, "delay", "2->0"), (2, "drop", "3->1"),
                   (2, "corrupt", "3->1"), (2, "pcie", "rank2")],
        n_instants=9,
        instants="11606f620142c62bd834ac4aaab472234184bb7afcb5465117bd7d4325cde964",
        n_log=2214, undelivered=6,
        log="2ddeff62bc03b004413e05b4ebad4d90d961eedf900b396387d2817389f17457")),
    # periodic, three ranks along x: every rank is its own y-neighbour
    ("warm-bubble", (3, 1), 23, dict(
        fields="e4df6aba3da943a64b8c6ea7b9c3864b831587cb3f193ae0833e5c797f9a6b16",
        stats={"retries": 6, "retransmits": 6, "timeouts": 0, "waits": 3,
               "backoff_s": 0.003, "wait_s": 0.008300076564987123,
               "by_kind": {"MessageLostError": 3, "MessageCorruptError": 3,
                           "delay": 3}},
        traffic=(3318, 10865280),
        fault_log=[(0, "delay", "0->1"), (0, "drop", "1->2"),
                   (0, "corrupt", "1->0"), (0, "pcie", "rank1"),
                   (1, "drop", "0->1"), (1, "corrupt", "2->0"),
                   (1, "delay", "2->1"), (1, "pcie", "rank1"),
                   (2, "drop", "0->1"), (2, "delay", "0->2"),
                   (2, "corrupt", "1->2"), (2, "pcie", "rank1")],
        n_instants=9,
        instants="4a6b1cdc2d51bd1f1fe59733c1b97f0bf147fae0d2e9e2793ee1d0f3f8d7ccb2",
        n_log=3318, undelivered=6,
        log="bed4b91081cd88a8d2589d3c59a092ee525bfe75ae0c316403fa7251d1b74a38")),
])
def test_seeded_fault_paths_are_pinned(workload, ranks, seed, pins):
    """The same observables on an open-boundary run and on a run whose
    ranks are their own periodic neighbours, recorded before the exchange
    became one strip table."""
    plan = FaultPlan.random(seed=seed, n_steps=3, n_ranks=ranks[0] * ranks[1],
                            p_drop=1.0, p_corrupt=1.0, p_delay=1.0,
                            p_pcie=1.0)
    assert vars(_fault_run(workload, ranks, plan)) == pins
