"""Differential halo poisoning over the real drivers: four stale-halo bugs
planted as patched drivers (nothing in the source is edited) each give
exactly one LINT04 at the right kernel and axis, the poisoned cells are
the refresh's own strip-table destinations, every configuration runs the
compiled stages and replays a program, and generated configurations of
the clean tree give no finding."""
import contextlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.poison import (
    MATRIX, Config, _Run, poison_findings, stale_findings)
from repro.core.acoustic import AcousticStepper
from repro.dist.multigpu import MultiGpuAsuca
from repro.stencil import native

FINISH = AcousticStepper.finish
SUBSTEP = AcousticStepper.substep
EXCHANGE_ALL = MultiGpuAsuca.exchange_all


def drop_species(self, q_tendencies=None):
    return [n for n in FINISH(self, q_tendencies) if n != "qv"]


def refresh_nothing(self, q_tendencies=None):
    FINISH(self, q_tendencies)
    return []


def drop_rhov(self):
    return [n for n in SUBSTEP(self) if n != "rhov"]


def x_only(self, states, names=None, axes=(0, 1)):
    EXCHANGE_ALL(self, states, names, axes=(0,))


@pytest.mark.parametrize("cls,attr,bug,cfg,kernel,axis", [
    (AcousticStepper, "finish", drop_species, Config(), "advect_scalar",
     "x/y"),
    (AcousticStepper, "finish", refresh_nothing, Config(), "advect_scalar",
     "x/y"),
    (AcousticStepper, "substep", drop_rhov, Config(), "advect_u", "x/y"),
    (MultiGpuAsuca, "exchange_all", x_only, Config((2, 1)), "advect_u", "y"),
], ids=["finish-drops-qv", "finish-refreshes-nothing", "substep-drops-rhov",
        "exchange_all-x-only"])
def test_planted_stale_halo_bug_gives_one_lint04(monkeypatch, cls, attr, bug,
                                                 cfg, kernel, axis):
    monkeypatch.setattr(cls, attr, bug)
    found = stale_findings(cfg)
    assert [f.code for f in found] == ["LINT04"], found
    assert found[0].file.endswith("rk3.py")
    assert f"kernel '{kernel}'" in found[0].message
    assert f"on the {axis} axis" in found[0].message


def test_poisoned_cells_are_the_strip_table_destinations():
    """A staggered x field on one rank: the open edge poisons the h halo
    faces on each side; a periodic axis that wraps onto the rank itself
    also poisons the seam face h + n, which its refresh writes."""
    for periodic, box_x in ((False, slice(2, 7)), (True, slice(2, 6))):
        run = _Run(0)
        run.h, run.extents = 2, [(4, 3)]
        run.neighbours = [((0, 0) if periodic else (None, None),) * 2]
        masks, box = run.geometry(np.zeros((9, 7, 2)))
        x_faces = np.flatnonzero(masks[0].any(axis=1))
        assert list(x_faces) == ([0, 1, 6, 7, 8] if periodic else [0, 1, 7, 8])
        assert box == (box_x, slice(2, 5))


@pytest.mark.skipif(native.library().state != "loaded",
                    reason="needs the compiled bodies")
@pytest.mark.parametrize("cfg", MATRIX, ids=str)
def test_every_matrix_configuration_runs_the_compiled_path(cfg):
    """The pass drives what the products run: no RK stage and no window of
    a configuration declines the compiled body, and a captured program
    replays."""
    unbound, replayed = Counter(native.UNBOUND), native.PROGRAMS["replayed"]
    _Run(1).drive(cfg)
    assert not [key for key in Counter(native.UNBOUND) - unbound
                if key[0] in ("slow stages", "programs")]
    assert native.PROGRAMS["replayed"] > replayed


@settings(max_examples=4, deadline=None)
@given(ranks=st.sampled_from([(1, 1), (2, 2), (3, 1), (1, 3)]),
       periodic=st.tuples(st.booleans(), st.booleans()),
       halo=st.sampled_from([2, 3]), ice=st.booleans(),
       compiled=st.booleans())
def test_generated_configurations_of_the_clean_tree_have_no_findings(
        ranks, periodic, halo, ice, compiled):
    with contextlib.nullcontext() if compiled else native.using(None):
        found = poison_findings([Config(ranks, periodic, halo, ice)])
    assert found == [], "\n".join(f.text() for f in found)
