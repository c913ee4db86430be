"""Error paths and telemetry of the simulated transport: a communicator
needs ranks and an exchanger needs one subdomain per rank, plus the typed
per-pair stats and the session-gated message log of an exchange."""
import pytest

from repro.core.grid import make_grid
from repro.core.reference import make_reference_state
from repro.core.state import state_from_reference
from repro.dist.decomposition import Topology, decompose
from repro.dist.halo import HaloExchanger
from repro.dist.mpi_sim import SimComm
from repro.dist.multigpu import MultiGpuAsuca
from repro.obs import TraceSession, use_session
from repro.workloads.sounding import constant_stability_sounding


def _machine(px, py, periodic):
    g = make_grid(nx=12, ny=9, nz=4, dx=500.0, dy=500.0, ztop=4000.0,
                  periodic_x=periodic, periodic_y=periodic)
    ref = make_reference_state(g, constant_stability_sounding())
    machine = MultiGpuAsuca(g, ref, px, py)
    return g, machine, machine.scatter_state(state_from_reference(g, ref))


def test_needs_at_least_one_rank():
    with pytest.raises(ValueError, match="at least one rank"):
        SimComm(0)


def test_out_of_range_ranks_raise():
    subs = decompose(12, 9, 2, 2)
    topo = Topology(2, 2, True, True)
    for n_ranks in (2, 5):
        with pytest.raises(ValueError, match="out of range"):
            HaloExchanger(SimComm(n_ranks), subs, topo)


def test_by_pair_typed_and_per_pair_report():
    """3 x 1 open ranks: x strips between neighbours only, no y strips."""
    g, machine, states = _machine(3, 1, periodic=False)
    machine.exchange_all(states, ["rho"])
    stats = machine.comm.stats
    assert all(isinstance(k, tuple) and len(k) == 2
               and all(isinstance(r, int) for r in k)
               for k in stats.by_pair)
    strip = g.halo * (g.ny + 2 * g.halo) * g.nz * 8
    assert stats.by_pair == {(0, 1): strip, (1, 0): strip, (1, 2): strip,
                             (2, 1): strip}
    rep = stats.per_pair_report()
    assert f"0 -> 1: {strip:,} B" in rep
    assert f"2 -> 1: {strip:,} B" in rep
    assert SimComm(2).stats.per_pair_report() == "(no traffic)"


def test_message_log_gated_on_active_session():
    _, machine, states = _machine(3, 1, periodic=False)
    comm = machine.comm
    machine.exchange_all(states, ["rho"])
    assert comm.message_log == []  # zero-cost when not tracing

    with use_session(TraceSession("t")):
        machine.exchange_all(states, ["rho"])
    log = comm.message_log
    # posted by sender, toward +x first; one exchange point, one stamp pair
    assert [(r.seq, r.src, r.dst, r.tag) for r in log] == [
        (0, 0, 1, ("rho", 0, "+")), (1, 1, 2, ("rho", 0, "+")),
        (2, 1, 0, ("rho", 0, "-")), (3, 2, 1, ("rho", 0, "-"))]
    assert {r.nbytes for r in log} == {comm.stats.bytes_total // 8}
    assert len({(r.t_post, r.t_collect) for r in log}) == 1
    assert log[0].t_collect is not None and log[0].t_collect >= log[0].t_post
