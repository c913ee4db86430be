"""Tests of the overlap performance model (Figs. 8, 9, 10, 11)."""
import dataclasses
import hashlib

import pytest

from repro.dist.network import TSUBAME_1_2, TSUBAME_2_0
from repro.dist.overlap import OverlapConfig, OverlapModel, method_timelines
from repro.optimeline import METHOD_NAMES, Overlap
from repro.perf.costmodel import asuca_step_cost
from repro.perf.scaling import weak_scaling_efficiency, weak_scaling_sweep



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
    """Modeling two GPUs contending for the host link slows the staging
    and the total step (the reason TSUBAME 2.0 moved to wider PCIe)."""
    base = OverlapModel(config=OverlapConfig()).step_timeline()
    shared = OverlapModel(
        config=OverlapConfig(pcie_sharing=True)
    ).step_timeline()
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
        "sync_skew", "pcie_sharing", "seed_hazard"}
