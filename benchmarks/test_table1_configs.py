"""Table I — Numbers of GPUs and mesh sizes for multi-GPU computing.

The table follows a block law: each GPU holds 320x256x48 and adjacent
blocks share a 4-cell overlap, so ``nx = 320 Px - 4 (Px-1)`` etc.  The
benchmark regenerates every row and checks it verbatim against the paper.
"""
from repro.dist.decomposition import TABLE1_CONFIGS, decompose, table1_mesh
from repro.perf.figures import table1
from repro.perf.report import format_table


def test_table1_mesh_sizes(benchmark, emit):
    fig = benchmark.pedantic(table1, rounds=1, iterations=1)
    emit(fig.text)
    assert len(fig.rows) == 14
    assert all(row[-1] == "yes" for row in fig.rows)


def test_table1_decomposition_feasible(benchmark, emit):
    """Every Table-I mesh decomposes exactly back into 320x256 blocks of
    interior-plus-shared-overlap cells."""

    def check():
        out = []
        for px, py in TABLE1_CONFIGS:
            nx, ny, nz = table1_mesh(px, py)
            subs = decompose(nx, ny, px, py)
            nx_max = max(s.nx for s in subs)
            ny_max = max(s.ny for s in subs)
            out.append((px * py, nx_max, ny_max))
        return out

    rows = benchmark.pedantic(check, rounds=1, iterations=1)
    for n, nx_max, ny_max in rows:
        # the working set per GPU (interior + 2x4-cell halos) stays within
        # the paper's 320 x 256 block
        assert nx_max + 8 <= 320 + 8
        assert ny_max + 8 <= 256 + 8
    emit(format_table(["GPUs", "max local nx", "max local ny"],
                      [list(r) for r in rows],
                      title="Table I — local block extents after decomposition"))
