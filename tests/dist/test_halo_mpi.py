"""Tests of the communicator's accounting and the halo exchange."""
import numpy as np
import pytest

from repro.core.boundary import fill_halos_state
from repro.core.grid import make_grid
from repro.core.reference import make_reference_state
from repro.core.state import state_from_reference
from repro.dist.decomposition import decompose
from repro.dist.halo import HaloExchanger
from repro.dist.mpi_sim import SimComm
from repro.dist.multigpu import MultiGpuAsuca
from repro.core.model import ModelConfig
from repro.workloads.sounding import constant_stability_sounding


# ------------------------------------------------------------ traffic
class TestSimComm:
    def test_traffic_stats(self):
        """One message per neighbour strip: the count, bytes and bytes per
        rank pair of one exchange of ``rho`` on 2 x 1 periodic ranks."""
        g, machine, gstate = _random_states_and_machinery(2, 1)
        machine.exchange_all(machine.scatter_state(gstate), ["rho"])
        h, nz = g.halo, g.nz
        x_strip = h * (g.ny + 2 * h) * nz * 8           # 0 <-> 1, both ways
        y_strip = (g.nx // 2 + 2 * h) * h * nz * 8      # each rank to itself
        stats = machine.comm.stats
        assert stats.messages == 8
        assert stats.by_pair == {(0, 1): 2 * x_strip, (1, 0): 2 * x_strip,
                                 (0, 0): 2 * y_strip, (1, 1): 2 * y_strip}
        assert stats.bytes_total == sum(stats.by_pair.values())

    def test_rank_validation(self):
        g, machine, _ = _random_states_and_machinery(2, 2)
        with pytest.raises(ValueError, match="rank order"):
            HaloExchanger(SimComm(4), machine.subs[::-1], machine.topology)


# ------------------------------------------------------- halo vs periodic
def _random_states_and_machinery(px, py, seed=0):
    """A global periodic grid + its decomposition with random fields."""
    g = make_grid(nx=12, ny=9, nz=4, dx=500.0, dy=500.0, ztop=4000.0)
    ref = make_reference_state(g, constant_stability_sounding())
    machine = MultiGpuAsuca(g, ref, px, py, ModelConfig())
    gstate = state_from_reference(g, ref)
    r = np.random.default_rng(seed)
    for name in gstate.prognostic_names():
        arr = gstate.get(name)
        arr += r.normal(size=arr.shape)
    # real computations keep the periodic seam faces identical (both are
    # computed interior faces); random data must be made consistent or the
    # single-domain fill (which forces the seam) will not be comparable
    h = g.halo
    gstate.rhou[h + g.nx] = gstate.rhou[h]
    gstate.rhov[:, h + g.ny] = gstate.rhov[:, h]
    return g, machine, gstate


@pytest.mark.parametrize("px,py", [(2, 2), (1, 3), (4, 1), (3, 3)])
def test_exchange_matches_periodic_fill(px, py):
    """After scattering a random global state and exchanging halos, every
    rank's full local array equals the corresponding slice of the
    periodically-filled global array — bit for bit, corners included."""
    g, machine, gstate = _random_states_and_machinery(px, py)
    states = machine.scatter_state(gstate)
    machine.exchange_all(states, None)

    fill_halos_state(gstate)  # single-domain reference behaviour
    h = g.halo
    for sub, st in zip(machine.subs, states):
        for name in st.prognostic_names():
            loc = st.get(name)
            if name == "rhou":
                glob = gstate.rhou[sub.x0 : sub.x0 + sub.nx + 2 * h + 1,
                                   sub.y0 : sub.y0 + sub.ny + 2 * h]
            elif name == "rhov":
                glob = gstate.rhov[sub.x0 : sub.x0 + sub.nx + 2 * h,
                                   sub.y0 : sub.y0 + sub.ny + 2 * h + 1]
            else:
                glob = gstate.get(name)[sub.x0 : sub.x0 + sub.nx + 2 * h,
                                        sub.y0 : sub.y0 + sub.ny + 2 * h]
            np.testing.assert_array_equal(loc, glob, err_msg=name)


def test_scatter_gather_roundtrip():
    g, machine, gstate = _random_states_and_machinery(2, 3)
    states = machine.scatter_state(gstate)
    back = machine.gather_state(states)
    for name in gstate.prognostic_names():
        np.testing.assert_array_equal(
            g.interior(back.get(name))
            if name not in ("rhou", "rhov")
            else back.get(name)[g.isl_u if name == "rhou" else g.isl_v],
            g.interior(gstate.get(name))
            if name not in ("rhou", "rhov")
            else gstate.get(name)[g.isl_u if name == "rhou" else g.isl_v],
            err_msg=name,
        )


def test_open_boundary_zero_gradient():
    """Edge ranks of a non-periodic domain extrapolate instead of wrap."""
    g = make_grid(nx=12, ny=9, nz=4, dx=500.0, dy=500.0, ztop=4000.0,
                  periodic_x=False, periodic_y=False)
    ref = make_reference_state(g, constant_stability_sounding())
    machine = MultiGpuAsuca(g, ref, 2, 2, ModelConfig())
    gstate = state_from_reference(g, ref)
    r = np.random.default_rng(1)
    gstate.rho += r.normal(size=gstate.rho.shape)
    states = machine.scatter_state(gstate)
    machine.exchange_all(states, ["rho"])
    st = states[0]
    h = g.halo
    for k in range(h):
        np.testing.assert_array_equal(st.rho[k], st.rho[h])
