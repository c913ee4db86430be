"""Step-loop fixtures with planted dataflow bugs (LINT04/05/06).

The functions are analyzed statically through
:func:`repro.analysis.stepgraph.build_graph_for_function` with the
fixture registry in tests/analysis/test_dataflow.py — they are never
executed, so the undefined kernel names (``advect_u`` etc.) are fine.

Keep the line numbers stable: the tests assert exact locations via the
``LINE_*`` constants at the bottom.  Fixture kernels: ``advect_u`` and
``relax_u`` are halo-0 writers of rhou, ``smooth_u`` is a halo-1
reader/writer of rhou, ``combine`` is a halo-0 reader.
"""


def stale_halo_step(state, exchanger):
    exchanger.exchange([state], ["rhou"])
    advect_u(state.rhou, state.grid)   # writes rhou interior...
    smooth_u(state.rhou, state.grid)   # BUG: halo read of the stale rhou


def fresh_halo_step(state, exchanger):
    advect_u(state.rhou, state.grid)
    exchanger.exchange([state], ["rhou"])
    smooth_u(state.rhou, state.grid)   # fine: exchanged after the write


def axis_partial_step(state, exchanger):
    advect_u(state.rhou, state.grid)
    exchanger.exchange([state], ["rhou"], axes=(0,))
    smooth_u(state.rhou, state.grid)   # BUG: y halo never refreshed


def read_before_write_step(state, grid):
    out = combine(acc, state.rhou)     # BUG: acc assigned only below
    acc = advect_u(state.rhou, grid)
    return out, acc


def dead_store_step(state, grid):
    tmp = advect_u(state.rhou, grid)   # BUG: overwritten before any read
    tmp = relax_u(state.rhou, grid)
    return tmp


def live_store_step(state, grid):
    tmp = advect_u(state.rhou, grid)
    out = combine(tmp, state.rhou)
    tmp = relax_u(state.rhou, grid)
    return combine(out, tmp)


def called_store_step(state, grid):
    op = make_op(grid)                 # a callable: calling it reads it
    out = op(state.rhou)
    op = make_op(grid)
    return combine(out, op(state.rhou))


def suppressed_stale_halo_step(state, exchanger):
    exchanger.exchange([state], ["rhou"])
    advect_u(state.rhou, state.grid)
    smooth_u(state.rhou, state.grid)  # sanitizer: allow[LINT04] width-0 probe run

def suppressed_read_before_write_step(state, grid):
    out = combine(acc, state.rhou)  # sanitizer: allow[LINT05] bound by the test driver
    acc = advect_u(state.rhou, grid)
    return out, acc


def suppressed_dead_store_step(state, grid):
    tmp = advect_u(state.rhou, grid)  # sanitizer: allow[LINT06] kept for timing parity
    tmp = relax_u(state.rhou, grid)
    return tmp


#: the planted-bug lines the tests pin (1-based)
LINE_STALE_HALO = 18
LINE_AXIS_PARTIAL = 30
LINE_READ_BEFORE_WRITE = 34
LINE_DEAD_STORE = 40
