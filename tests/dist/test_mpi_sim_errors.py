"""Error paths and telemetry of the simulated communicator — previously
unexercised (duplicate post, collect of a never-posted message,
out-of-range ranks), plus the typed per-pair stats and the
session-gated message log."""
import numpy as np
import pytest

from repro.dist.mpi_sim import SimComm
from repro.obs import TraceSession, use_session


def test_needs_at_least_one_rank():
    with pytest.raises(ValueError, match="at least one rank"):
        SimComm(0)


def test_duplicate_post_raises():
    comm = SimComm(2)
    buf = np.zeros(4)
    comm.post(0, 1, "halo", buf)
    with pytest.raises(RuntimeError, match="duplicate message"):
        comm.post(0, 1, "halo", buf)


def test_collect_never_posted_raises():
    comm = SimComm(2)
    with pytest.raises(RuntimeError, match="nothing was posted"):
        comm.collect(0, 1, "missing")


def test_out_of_range_ranks_raise():
    comm = SimComm(2)
    buf = np.zeros(4)
    with pytest.raises(ValueError, match="out of range"):
        comm.post(2, 0, "t", buf)
    with pytest.raises(ValueError, match="out of range"):
        comm.post(0, -1, "t", buf)


def test_by_pair_typed_and_per_pair_report():
    comm = SimComm(3)
    comm.post(0, 1, "a", np.zeros(4))
    comm.post(1, 2, "b", np.zeros(8))
    comm.collect(0, 1, "a")
    comm.collect(1, 2, "b")
    stats = comm.stats
    assert all(isinstance(k, tuple) and len(k) == 2
               and all(isinstance(r, int) for r in k)
               for k in stats.by_pair)
    assert stats.by_pair[(0, 1)] == 32
    assert stats.by_pair[(1, 2)] == 64
    rep = stats.per_pair_report()
    assert "0 -> 1: 32 B" in rep
    assert "1 -> 2: 64 B" in rep
    assert SimComm(2).stats.per_pair_report() == "(no traffic)"


def test_message_log_gated_on_active_session():
    comm = SimComm(2)
    comm.post(0, 1, "quiet", np.zeros(4))
    comm.collect(0, 1, "quiet")
    assert comm.message_log == []  # zero-cost when not tracing

    with use_session(TraceSession("t")):
        comm.post(0, 1, "loud", np.zeros(4))
        comm.collect(0, 1, "loud")
    assert len(comm.message_log) == 1
    rec = comm.message_log[0]
    assert (rec.src, rec.dst, rec.tag, rec.nbytes) == (0, 1, "loud", 32)
    assert rec.t_collect is not None and rec.t_collect >= rec.t_post
