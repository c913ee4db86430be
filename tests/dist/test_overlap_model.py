"""Tests of the overlap performance model (Figs. 8, 9, 10, 11)."""
import dataclasses
import hashlib
import itertools

import pytest

from repro.analysis import racecheck_device
from repro.dist.network import PCIE_GEN1_X8, TSUBAME_1_2, TSUBAME_2_0
from repro.dist.overlap import (
    Leg,
    OverlapConfig,
    OverlapModel,
    method_timelines,
    schedule_for,
)
from repro.optimeline import METHOD_NAMES, Overlap
from repro.perf.costmodel import asuca_step_cost
from repro.perf.scaling import weak_scaling_efficiency, weak_scaling_sweep



#: every subset of the three optimisations, and every per-axis link count
#: the model is reached with (perf/scaling.py, figures, the doctor)
ALL_METHODS = [Overlap(bits) for bits in range(8)]
ALL_LINKS = list(itertools.product((0, 1, 2), repeat=2))


@pytest.fixture(scope="module")
def model():
    return OverlapModel()


@pytest.fixture(scope="module")
def tl_overlap(model):
    return model.step_timeline()


@pytest.fixture(scope="module")
def tl_serial(model):
    return model.step_timeline(Overlap.SERIAL)


def test_fig11_anchor_totals(tl_overlap, paper):
    """Fig. 11 (overlap): total 988 ms, compute 763, MPI 336, GPU-CPU 145."""
    assert tl_overlap.makespan == paper("total_ms", 1e-3)
    assert tl_overlap.compute == paper("compute_ms", 1e-3)
    assert tl_overlap.mpi == paper("mpi_ms", 1e-3)
    assert tl_overlap.gpu_cpu == paper("gpu_cpu_ms", 1e-3)


def test_fig11_hidden_fraction(tl_overlap, paper):
    """~53% of the communication hides under computation."""
    assert tl_overlap.hidden_fraction == paper("hidden_pct", 1e-2, abs=0.08)


def test_overlap_beats_serial(tl_overlap, tl_serial):
    """Overlap wins ~11% total time (paper Sec. V-B)."""
    gain = 1.0 - tl_overlap.makespan / tl_serial.makespan
    assert 0.08 < gain < 0.18


def test_divided_kernels_cost_more_compute(tl_overlap, tl_serial):
    """The paper's Fig. 9/11 observation: dividing kernels *increases*
    compute time, yet the total still drops."""
    assert tl_overlap.compute > tl_serial.compute
    assert tl_overlap.makespan < tl_serial.makespan


def test_fifteen_tflops_at_528(tl_overlap, paper):
    tflops = asuca_step_cost(320, 256, 48).cluster_tflops(
        528, tl_overlap.makespan)
    assert tflops == paper("tflops_528")


def test_fig9_breakdown_shape(model):
    """Fig. 9 relations: inner < whole; boundary kernels are a sizable
    minority; density's compute cannot hide its own communication (the
    motivation for method 3)."""
    rows = {vb.name: vb for vb in model.breakdown_rows()}
    for vb in rows.values():
        assert vb.inner < vb.whole
        assert 0.05 * vb.inner < vb.boundary_x < vb.inner
        assert 0.05 * vb.inner < vb.boundary_y < vb.inner
        assert vb.divided_compute > vb.whole  # reduced parallelism costs
    density = rows["Density"]
    assert density.communication > density.inner


def test_method_ablation():
    """Disabling each optimization hurts (or at least never helps)."""
    model = OverlapModel()
    full = model.step_timeline().makespan
    no1 = model.step_timeline(Overlap.ALL & ~Overlap.PIPELINE).makespan
    no2 = model.step_timeline(Overlap.ALL & ~Overlap.DIVIDE).makespan
    no3 = model.step_timeline(Overlap.ALL & ~Overlap.FUSE).makespan
    assert no1 >= full - 1e-12
    assert no2 > full          # method 2 is the big one
    assert no3 >= full - 1e-12


def test_tsubame2_hides_communication():
    """Sec. VII: with >= 4x bandwidth the communication hides (almost)
    completely."""
    m1 = OverlapModel(TSUBAME_1_2)
    m2 = OverlapModel(TSUBAME_2_0)
    t1 = m1.step_timeline()
    t2 = m2.step_timeline()
    assert t2.hidden_fraction_comm_only > 0.9
    assert t2.hidden_fraction_comm_only > t1.hidden_fraction_comm_only


def test_weak_scaling_efficiency_band(paper):
    pts = weak_scaling_sweep()
    eff = weak_scaling_efficiency(pts)
    assert 0.90 < eff <= 1.0      # paper: >= 93%
    assert pts[-1].tflops_overlap == paper("tflops_528")
    # monotone TFlops growth along Table I
    tf = [p.tflops_overlap for p in pts]
    assert all(b > a for a, b in zip(tf, tf[1:]))
    # GPU crushes the CPU line everywhere (the figure's point)
    assert all(p.tflops_overlap > 20 * p.tflops_cpu for p in pts)


def test_fewer_links_less_communication():
    interior = OverlapModel(links_x=2, links_y=2).step_timeline()
    corner = OverlapModel(links_x=1, links_y=1).step_timeline()
    assert corner.mpi < interior.mpi
    assert corner.makespan <= interior.makespan


def test_projection_sec7(paper):
    from repro.perf.projection import model_projection, paper_formula_projection

    pp = paper_formula_projection()
    assert pp.tflops == paper("tsubame2_tflops")
    mp_cons = model_projection(fermi_throughput=False)
    mp_real = model_projection(fermi_throughput=True)
    # "the actual overall performance ... will likely be higher"
    assert mp_real.tflops > mp_cons.tflops
    assert mp_real.tflops > 100.0


def test_pcie_node_sharing_penalty():
    """Two GPUs contending for the host link (TSUBAME 1.2 attaches two
    S1070 GPUs per PCIe complex) is a cluster whose host link is that much
    slower: every staging copy slows down, the 13 tracer legs included,
    and so does the total step (the reason TSUBAME 2.0 moved to wider
    PCIe).  The measured effective link rates already include in-situ
    contention, so this is a what-if, not the calibrated model."""
    shared_link = dataclasses.replace(
        PCIE_GEN1_X8,
        bandwidth=PCIE_GEN1_X8.bandwidth / TSUBAME_1_2.gpus_per_node)
    model = OverlapModel()
    base = model.step_timeline()
    shared = OverlapModel(
        dataclasses.replace(TSUBAME_1_2, pcie=shared_link)).step_timeline()
    copies = 0
    for a, b in zip(base.device.timeline, shared.device.timeline,
                    strict=True):
        assert a.name == b.name
        if a.kind in ("d2h", "h2d"):
            assert b.duration > a.duration, a.name
            copies += 1
        else:
            assert b.duration == pytest.approx(a.duration, rel=1e-9), a.name
    tracer_copies = [op for op in shared.device.timeline
                     if op.name.startswith("q") and op.kind in ("d2h", "h2d")]
    assert len(tracer_copies) == 2 * model.shape.tracers
    assert copies > len(tracer_copies)
    assert shared.gpu_cpu > 1.5 * base.gpu_cpu
    assert shared.makespan >= base.makespan


#: sha256 over every op of each named method's scheduled long step at the
#: paper configuration, computed on the commit before the exchange chain
#: was written once (PR 14).  A schedule refactor, or a new entry in
#: ``METHOD_NAMES``, must leave these four untouched.
PINNED_TIMELINE_SHA256 = {
    "serial":
        "03c1679d1a1f9aebc2a357638a6bc0689c5be732c0d9ad4a9d20663a72a5abac",
    "method1":
        "4ea0459e9bf253be4033fd56ec310567a95ed35a602b31155733fe8b23c217fb",
    "method1+2":
        "1d94516b980370d7d09d255a48fb3823fbaab6e872028af9f6f02b861abbdae2",
    "method1+2+3":
        "a7001a4841b18523dbbd814e20be6edd5214df39c2e4062ca1ab90a45a21266e",
}


def _timeline_sha256(ops) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(repr((
            op.name, op.kind, op.stream, op.start.hex(), op.end.hex(),
            op.tag, op.deps,
            tuple((a.buffer, a.mode, a.lo, a.hi) for a in op.accesses),
        )).encode())
    return h.hexdigest()


def test_method_timelines_are_op_for_op_pinned():
    assert set(PINNED_TIMELINE_SHA256) == set(METHOD_NAMES)
    digests = {name: _timeline_sha256(tl.device.timeline)
               for name, tl in method_timelines().items()}
    assert digests == PINNED_TIMELINE_SHA256


#: what the model actually serves, per :class:`Overlap` value (by its
#: ``.value``; 4 and 5 are FUSE without DIVIDE): one sha256 folded over
#: links_x, links_y in {0, 1, 2} (interior rank, ``doctor --ranks 2x2``'s
#: corner rank, the 1-/2-GPU and slab rows of perf/scaling.py whose axis
#: has no neighbour yet still issues zero-point strips and latency-only
#: legs) on both clusters, computed on the commit before the scheduling
#: routines became one interpreter (PR 24).  Two pricing rules are pinned
#: here on purpose and neither may be "unified" into the other: a tracer
#: leg stages both axes in one copy, ``transfer_time(bytes_x + bytes_y)``,
#: while a short-step variable pays ``transfer_time(bytes_x) +
#: transfer_time(bytes_y)``.
PINNED_GRID_SHA256 = {
    0: "e61875d2a89fd229a9c1f837bed0b267b20bac9974d8e7068be9f6f02bf8f6ce",
    1: "00f6d28dce0b0a2633e8dc62bbf4c30f53626e1fcf6ba39da1ed0da98614dd18",
    2: "dde6acf9f7d94473d11ad5e7d9fdc625b8d462ef95212b462541361b414e9942",
    3: "9b8bf579ff19520e9b31a6f0fb10a599806cb60aa4caf67f4da1d4634c14b3bb",
    4: "e61875d2a89fd229a9c1f837bed0b267b20bac9974d8e7068be9f6f02bf8f6ce",
    5: "00f6d28dce0b0a2633e8dc62bbf4c30f53626e1fcf6ba39da1ed0da98614dd18",
    6: "ca1090ac809f37d9dbb587a57d157f760a672939dedb8ad3dd4972e27c31b8c8",
    7: "fc2209ab43ccf4d5ecb683b5eef80f273468554eb67b5d6405e22e754cd7f9cb",
}


def _grid_sha256(method: Overlap) -> str:
    h = hashlib.sha256()
    for links_x, links_y in ALL_LINKS:
        for cluster in (TSUBAME_1_2, TSUBAME_2_0):
            tl = OverlapModel(cluster, links_x=links_x,
                              links_y=links_y).step_timeline(method)
            h.update(_timeline_sha256(tl.device.timeline).encode())
    return h.hexdigest()


def test_every_served_timeline_is_op_for_op_pinned():
    digests = {method.value: _grid_sha256(method) for method in ALL_METHODS}
    assert digests == PINNED_GRID_SHA256


def test_a_method_is_a_closed_immutable_value():
    """The four names cover four distinct subsets; what is settable is a
    subset of the three optimizations and nothing else."""
    assert len(set(METHOD_NAMES.values())) == 4
    assert METHOD_NAMES["serial"] is Overlap.SERIAL
    assert METHOD_NAMES["method1+2+3"] is Overlap.ALL
    with pytest.raises(ValueError):
        Overlap(8)
    with pytest.raises(AttributeError):
        Overlap.ALL.value = 0
    assert {f.name for f in dataclasses.fields(OverlapConfig)} == {
        "exchange_width", "extra_exchange_fields", "boundary_factor",
        "sync_skew"}


# ------------------------------------- every schedule x every link count
@pytest.mark.parametrize("links", ALL_LINKS, ids=lambda l: f"{l[0]}x{l[1]}")
@pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: f"m{m.value}")
def test_every_schedule_is_race_free_and_conserves_time(method, links):
    """(a) racecheck is clean beyond the four named methods; (b) every
    piece and leg the schedule value names is placed exactly once per
    group per substep, every tracer leg once per long step and every
    tracer kernel once per stage: the busy time per op kind is the sum
    predicted from the data and the Fig. 9 rows alone."""
    model = OverlapModel(links_x=links[0], links_y=links[1])
    schedule = schedule_for(method)
    timeline = model.run(schedule)
    assert racecheck_device(timeline.device) == []

    def predicted(steps, rows, kernel_calls, leg_calls):
        """{kind: seconds, 'ops': count} of one group's steps over its
        members' rows."""
        want = dict.fromkeys(("kernel", "d2h", "mpi", "h2d", "ops"), 0.0)
        for step in steps:
            if isinstance(step, Leg):
                for row in rows:
                    want["d2h"] += leg_calls * step.share * row.gpu_to_host
                    want["mpi"] += leg_calls * step.share * row.mpi
                    want["h2d"] += leg_calls * step.share * row.host_to_gpu
                    want["ops"] += 3 * leg_calls
            else:
                covered = rows[:1] if step.per == "first" else rows
                want["kernel"] += kernel_calls * sum(
                    step.factor * getattr(row, step.time) for row in covered)
                want["ops"] += kernel_calls * (
                    len(rows) if step.per == "each" else 1)
        return want

    rows = {vb.name: vb for vb in model.breakdown_rows()}
    assert sorted(n for g in schedule.groups for n in g.names) == sorted(rows)
    parts = [predicted(g.steps, [rows[n] for n in g.names],
                       model.nsub, model.nsub) for g in schedule.groups]
    shape = model.shape
    tracer = model.variable_breakdown("q", ["advection"], alone=True)
    parts.append(predicted(schedule.tracer, [tracer],
                           shape.stages * shape.tracers, shape.tracers))
    want = {key: sum(p[key] for p in parts) for key in parts[0]}
    want["kernel"] += model._other_compute_time()
    want["mpi"] += schedule.skew_barrier * model.nsub * model.config.sync_skew
    # + the skew barriers and the one long_step_other kernel
    assert timeline.op_count == (want.pop("ops")
                                 + schedule.skew_barrier * model.nsub + 1)
    for kind, seconds in want.items():
        assert timeline.busy_by_kind[kind] == pytest.approx(seconds, rel=1e-12)


def test_fuse_without_divide_is_the_same_schedule():
    """Fusion acts inside the division, so four of the eight values are
    aliases — as value equality, not as a silently ignored flag."""
    for rest in (Overlap.SERIAL, Overlap.PIPELINE):
        assert schedule_for(rest | Overlap.FUSE) == schedule_for(rest)
    assert len({schedule_for(m) for m in ALL_METHODS}) == 6
    assert (schedule_for(Overlap.DIVIDE | Overlap.FUSE)
            != schedule_for(Overlap.DIVIDE))
