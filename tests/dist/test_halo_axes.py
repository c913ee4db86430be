"""The per-axis exchange contract of HaloExchanger.exchange(axes=...):
an axis-0-only exchange must leave y halos untouched, and staging the
axes across two calls must equal one combined exchange (x before y is
what transports the corner values)."""
import numpy as np

from repro.core.boundary import fill_halos_state
from repro.core.grid import make_grid
from repro.core.model import ModelConfig
from repro.core.reference import make_reference_state
from repro.core.state import state_from_reference
from repro.dist.multigpu import MultiGpuAsuca
from repro.workloads.sounding import constant_stability_sounding

SENTINEL = -1.2345e30


def make_machine(nx=12, ny=12, px=2, py=2):
    g = make_grid(nx=nx, ny=ny, nz=3, dx=500.0, dy=500.0, ztop=3000.0)
    ref = make_reference_state(g, constant_stability_sounding())
    machine = MultiGpuAsuca(g, ref, px, py, ModelConfig())
    gstate = state_from_reference(g, ref)
    r = np.random.default_rng(7)
    for name in gstate.prognostic_names():
        gstate.get(name)[...] += r.normal(size=gstate.get(name).shape)
    h = g.halo
    gstate.rhou[h + g.nx] = gstate.rhou[h]
    gstate.rhov[:, h + g.ny] = gstate.rhov[:, h]
    return machine, gstate


def poison_y_halos(machine, states, name="rho"):
    h = states[0].grid.halo
    for sub, stt in zip(machine.subs, states):
        arr = stt.get(name)
        ny_loc = sub.ny
        arr[:, :h] = SENTINEL
        arr[:, h + ny_loc:] = SENTINEL


def test_axis0_exchange_leaves_y_halos_untouched():
    machine, gstate = make_machine()
    states = machine.scatter_state(gstate)
    poison_y_halos(machine, states)
    machine.exchange_all(states, ["rho"], axes=(0,))
    h = states[0].grid.halo
    for sub, stt in zip(machine.subs, states):
        arr = stt.get("rho")
        ny_loc = sub.ny
        # the y strips were never exchanged: the sentinel survives on
        # the interior-x columns (x halos got neighbor data, which may
        # itself carry the neighbor's poisoned y rows)
        nx_loc = sub.nx
        interior_x = slice(h, h + nx_loc)
        assert np.all(arr[interior_x, :h] == SENTINEL)
        assert np.all(arr[interior_x, h + ny_loc:] == SENTINEL)
        # and the x halos on interior-y rows are real data, not sentinel
        interior_y = slice(h, h + ny_loc)
        assert np.all(arr[:h, interior_y] != SENTINEL)
        assert np.all(arr[h + nx_loc:, interior_y] != SENTINEL)


def test_staged_axes_match_one_combined_exchange():
    machine_a, gstate_a = make_machine()
    machine_b, gstate_b = make_machine()
    states_a = machine_a.scatter_state(gstate_a)
    states_b = machine_b.scatter_state(gstate_b)

    machine_a.exchange_all(states_a, None)                 # (0, 1) at once
    machine_b.exchange_all(states_b, None, axes=(0,))      # staged x...
    machine_b.exchange_all(states_b, None, axes=(1,))      # ...then y

    for sa, sb in zip(states_a, states_b):
        for name in sa.prognostic_names():
            np.testing.assert_array_equal(sa.get(name), sb.get(name))


def test_full_exchange_matches_periodic_fill_including_corners():
    machine, gstate = make_machine()
    states = machine.scatter_state(gstate)
    machine.exchange_all(states, None)
    fill_halos_state(gstate)
    for sub, stt in zip(machine.subs, states):
        for name in stt.prognostic_names():
            ex = 1 if name == "rhou" else 0
            ey = 1 if name == "rhov" else 0
            h = gstate.grid.halo
            x0, y0 = sub.x0, sub.y0
            nxh = sub.nx + 2 * h + ex
            nyh = sub.ny + 2 * h + ey
            glob = gstate.get(name)[x0:x0 + nxh, y0:y0 + nyh]
            np.testing.assert_array_equal(stt.get(name), glob)
