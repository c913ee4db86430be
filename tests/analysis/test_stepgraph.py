"""Tests of the whole-program step-graph builder: the real model graphs
(both drivers, one body), the fixture harness, and the exchange-axis introspection."""
import inspect
from pathlib import Path

import pytest

from repro.analysis.dataflow import graph_findings
from repro.analysis.stepgraph import (
    build_graph_for_function,
    build_step_graph,
    exchange_default_axes,
)
from repro.stencil.spec import StencilSpec

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_registry():
    return {
        "advect_u": StencilSpec(name="advect_u", reads=("rhou",),
                                writes=("rhou",), halo=0),
        "relax_u": StencilSpec(name="relax_u", reads=("rhou",),
                               writes=("rhou",), halo=0),
        "smooth_u": StencilSpec(name="smooth_u", reads=("rhou",),
                                writes=("rhou",), halo=1),
        "combine": StencilSpec(name="combine", reads=("rhou",),
                               writes=("precip",), halo=0),
    }


# ------------------------------------------------------- the real graphs
def test_single_entry_graph_covers_the_dycore():
    g = build_step_graph("single")
    kernels = {n.name for n in g.kernels()}
    # the RK3 long step must show the paper's kernel chain
    for name in ("advect_u", "advect_v", "advect_w", "advect_scalar",
                 "kessler_step"):
        assert name in kernels, f"{name} missing from {sorted(kernels)}"
    assert len(g.exchanges()) >= 5
    # a resolvable graph: every local read has a prior definition
    assert g.use_before_def == []


def test_multigpu_entry_graph_builds_and_is_resolved():
    g = build_step_graph("multigpu")
    assert len(g.kernels()) >= 10
    assert len(g.exchanges()) >= 3
    assert g.use_before_def == []


def test_both_drivers_resolve_the_one_long_step_body():
    """The drivers differ by what they add around the body — the
    single-domain fill after relaxation — never by a kernel or by an
    exchange point inside it."""
    def sites(nodes):
        return [(n.name, Path(n.file).name, n.line, n.exch_fields)
                for n in nodes]

    single, multi = build_step_graph("single"), build_step_graph("multigpu")
    assert sites(single.kernels()) == sites(multi.kernels())
    *body, trailing = single.exchanges()
    assert sites(body) == sites(multi.exchanges())
    assert {Path(n.file).name for n in body} == {"rk3.py", "model.py"}
    assert trailing.name == "_exchange" and trailing.exch_fields is None
    # the post-physics list is the decomposed (pinned) one, ice included
    assert ("rhotheta", "qv", "qc", "qr", "rho", "qi", "qs") in [
        n.exch_fields for n in body]
    # which is why the dataflow pass may run on the decomposed graph only
    assert graph_findings(single) == graph_findings(multi) == []


def test_graph_notes_name_only_known_opaque_calls():
    for entry in ("single", "multigpu"):
        g = build_step_graph(entry)
        for note in g.notes:
            assert ("opaque state call" in note
                    or "cannot resolve" in note), note
        # the drive loop is not walked: its refreshes are the body's yields
        assert not any("multigpu.py" in n and "exchange" in n
                       for n in g.notes)
        assert not any("apply_sliced" in n for n in g.notes)


# -------------------------------------------------------- fixture harness
def test_fixture_graph_nodes_and_kinds():
    g = build_graph_for_function(FIXTURES / "flow_bugs.py",
                                 "stale_halo_step",
                                 registry=fixture_registry())
    kinds = [n.kind for n in g.nodes]
    assert kinds.count("exchange") == 1
    assert kinds.count("kernel") == 2
    ex = g.exchanges()[0]
    assert ex.exch_fields == ("rhou",)
    smooth = [n for n in g.kernels() if n.name == "smooth_u"][0]
    assert smooth.halo == 1 and "rhou" in smooth.fields


def test_fixture_graph_partial_axes_are_recorded():
    g = build_graph_for_function(FIXTURES / "flow_bugs.py",
                                 "axis_partial_step",
                                 registry=fixture_registry())
    assert g.exchanges()[0].axes == (0,)


def test_unknown_function_raises():
    with pytest.raises(KeyError):
        build_graph_for_function(FIXTURES / "flow_bugs.py", "nope")


def test_unknown_entry_raises():
    with pytest.raises(ValueError):
        build_step_graph("triple")


# -------------------------------------------------- exchanger introspection
def test_exchange_default_axes_track_the_exchanger_signature():
    from repro.dist.halo import HaloExchanger

    sig_default = inspect.signature(
        HaloExchanger.exchange).parameters["axes"].default
    assert exchange_default_axes() == tuple(sorted(sig_default))
