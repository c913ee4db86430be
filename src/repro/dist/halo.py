"""Halo exchange between subdomains (paper Figs. 6 and 8).

An exchange point (one refresh of some fields along some axes on every
rank) is one :class:`~repro.core.boundary.Strips` table over the ranks'
state blocks, built once per (names, axes, layouts) from the
:class:`~repro.dist.decomposition.Topology` and run in one call
(:func:`repro.stencil.dycore.run_strips`) that binds one base address a
rank: the single-domain
fill's own geometry, corners carried in two hops (Fig. 8), so a decomposed
run reproduces the single-domain arithmetic bit for bit.

Each neighbour strip is one message of the modeled transport.  A
retransmission re-reads the sender's interior, which no strip of the same
exchange point writes, so faults (a
:class:`~repro.resilience.faults.FaultInjector` on the
:class:`~repro.dist.mpi_sim.SimComm`) change only the accounting, computed
under the :class:`~repro.resilience.retry.RetryPolicy` before any byte
moves and in a message-passing run's order (per axis and field: every
message posted, by sender, then received, by receiver): a lost or corrupt
frame is retransmitted after a backoff, a late one waited out or timed out.
A fault that outlasts the policy raises
:class:`~repro.resilience.retry.RetryExhaustedError` before the copy.
"""
from __future__ import annotations

import time

from ..core.boundary import strip_table
from ..core.state import State
from ..obs.trace import active_session
from ..resilience.faults import FaultKind
from ..resilience.retry import (
    HaloMessageError,
    MessageCorruptError,
    MessageDelayedError,
    MessageLostError,
    RetryExhaustedError,
    RetryPolicy,
    RetryStats,
)
from ..stencil.dycore import run_strips
from .decomposition import Subdomain, Topology
from .mpi_sim import SimComm

__all__ = ["HaloExchanger"]


class _Point:
    """One exchange point: its strip table over the rank blocks, the rank
    layouts it was built for, its messages per (axis, field) in post and
    receive order, and what a clean run of it sends."""

    __slots__ = ("strips", "layouts", "groups", "sent", "pairs")

    def __init__(self, strips, layouts: tuple):
        self.strips, self.layouts = strips, layouts
        groups: dict = {}
        for msg in strips.messages:                 # receive order
            groups.setdefault(msg[2][:2], []).append(msg)
        # post order: by sender, toward +axis first
        self.groups = [(sorted(recvs, key=lambda m: (m[0], m[2][2] != "+")),
                        recvs) for recvs in groups.values()]
        self.sent = [(*msg, True) for posts, _ in self.groups for msg in posts]
        pairs: dict = {}
        for src, dst, _, nbytes, _ in self.sent:
            n, total = pairs.get((src, dst), (0, 0))
            pairs[src, dst] = (n + 1, total + nbytes)
        self.pairs = [(pair, n, total) for pair, (n, total) in pairs.items()]


class HaloExchanger:
    """Performs field exchanges for every rank of a lockstep ensemble.

    Parameters
    ----------
    comm, subdomains
        the transport and the ranks it connects.
    topology
        the per-axis boundary treatment; build it with
        :meth:`Topology.from_grid`.
    retry
        :class:`~repro.resilience.retry.RetryPolicy` governing recovery
        from transport faults; defaults to a fresh policy, so a
        fault-injected exchange self-heals out of the box.
    """

    def __init__(
        self,
        comm: SimComm,
        subdomains: list[Subdomain],
        topology: Topology,
        *,
        retry: RetryPolicy | None = None,
    ):
        self.comm = comm
        self.subs = subdomains
        self.topology = topology
        self.retry = retry or RetryPolicy()
        self.stats = RetryStats()
        if [sub.rank for sub in subdomains] != list(range(len(subdomains))):
            raise ValueError("subdomains must be listed in rank order")
        if len(subdomains) != comm.n_ranks:
            raise ValueError(f"{len(subdomains)} subdomains on a "
                             f"{comm.n_ranks}-rank transport: rank out of "
                             "range")
        #: (names, axes) -> the exchange point
        self._points: dict[tuple, _Point] = {}

    # ------------------------------------------------------------ public
    def exchange(self, states: list[State], names: list[str] | None,
                 axes: tuple[int, ...] = (0, 1)) -> None:
        """Refresh halos of the named fields on every rank.

        ``axes`` selects which topology axes to exchange (default both).
        The x axis runs before the y axis — the y-strips then carry
        freshly-filled x halos, which is what transports corner values
        to diagonal neighbors in two hops.
        """
        if names is None:
            names = states[0].prognostic_names()
        layouts = tuple([st.layout for st in states])
        key = (tuple(names), tuple(axes))
        point = self._points.get(key)
        if point is None or point.layouts != layouts:
            fields = [(st.get(name).shape, st.dtype.itemsize)
                      for name in names for st in states]
            point = self._points[key] = _Point(
                strip_table([(sub.nx, sub.ny) for sub in self.subs],
                            [self.topology.neighbours(sub)
                             for sub in self.subs],
                            key[0], fields, axes, states[0].grid.halo
                            ).in_blocks(key[0], layouts), layouts)
        sent: list = []
        t_start = time.perf_counter()
        try:
            if self.comm.faults is None:
                self.comm.stats.add(point.pairs)
                sent = point.sent
            else:
                self._account(point, sent)
            run_strips(point.strips, [st.block for st in states],
                       [st.address for st in states])
        finally:
            self.comm.log(sent, t_start, time.perf_counter())

    # ------------------------------------------------- faulty transport
    def _account(self, point: _Point, sent: list) -> None:
        """What the transport faults of one exchange point cost, in a
        message-passing run's order; every transmission is appended to
        ``sent`` as ``[src, dst, tag, nbytes, delivered]``."""
        for posts, receives in point.groups:
            frames = {msg: self._send(msg, sent) for msg in posts}
            for msg in receives:
                self._receive(msg, frames, sent)

    def _send(self, msg: tuple, sent: list) -> tuple:
        """One transmission of ``msg``: its traffic, its record, and the
        fault that hits it (None: none does)."""
        src, dst, tag, nbytes = msg
        self.comm.stats.record(src, dst, nbytes)
        entry = [src, dst, tag, nbytes, False]
        sent.append(entry)
        return entry, self.comm.faults.on_message(src, dst)

    def _receive(self, msg: tuple, frames: dict, sent: list) -> None:
        """Receive one message, recovering from its faults under the retry
        policy (a lost or corrupt frame is sent again from the sender's
        interior); raises
        :class:`~repro.resilience.retry.RetryExhaustedError` when the
        fault outlasts the policy."""
        policy = self.retry
        attempt = 0
        while True:
            entry, fault = frames[msg]
            if fault is None:
                entry[4] = True
                return
            err = _error(fault, *msg[:3])
            if isinstance(err, MessageDelayedError):
                frames[msg] = entry, None       # late, not lost: it arrives
                if err.delay <= policy.timeout:
                    # late but within the timeout: wait it out
                    self.stats.waits += 1
                    self.stats.wait_s += err.delay
                    self.stats.count("delay")
                    self._note(err, retried=False)
                    continue
                # too late: the receiver times out and charges a retry
                self.stats.timeouts += 1
                backoff = policy.timeout + policy.backoff(attempt)
                attempt = self._charge_retry(err, attempt, backoff, "timeout")
            else:
                # lost or corrupt: the sender must retransmit
                backoff = policy.backoff(attempt)
                attempt = self._charge_retry(err, attempt, backoff,
                                             type(err).__name__)
                frames[msg] = self._send(msg, sent)
                self.stats.retransmits += 1

    def _charge_retry(self, err: HaloMessageError, attempt: int,
                      backoff: float, kind: str) -> int:
        if attempt >= self.retry.max_retries:
            raise RetryExhaustedError(
                f"halo message {err.tag!r} from rank {err.src} to rank "
                f"{err.dst} failed {attempt + 1} times; giving up",
                attempts=attempt + 1, last_error=err) from err
        self.stats.retries += 1
        self.stats.backoff_s += backoff
        self.stats.count(kind)
        self._note(err, retried=True, backoff=backoff)
        return attempt + 1

    @staticmethod
    def _note(err: HaloMessageError, *, retried: bool,
              backoff: float = 0.0) -> None:
        sess = active_session()
        if sess is None:
            return
        m = sess.metrics
        if retried:
            m.counter("resilience.halo_retries").inc()
            m.counter("resilience.backoff_s").inc(backoff)
        else:
            m.counter("resilience.halo_waits").inc()
        sess.record_instant(
            f"halo_{'retry' if retried else 'wait'}", cat="resilience",
            args={"src": err.src, "dst": err.dst, "tag": str(err.tag)})


def _error(fault, src: int, dst: int, tag: object) -> HaloMessageError:
    """The typed error a receiver meets for a frame hit by ``fault``."""
    where = f"message {tag!r} from rank {src} to rank {dst}"
    if fault.kind is FaultKind.DROP:
        return MessageLostError(f"{where} was lost in flight",
                                src=src, dst=dst, tag=tag)
    if fault.kind is FaultKind.CORRUPT:
        return MessageCorruptError(
            f"{where} failed its checksum; frame discarded",
            src=src, dst=dst, tag=tag)
    delay = fault.magnitude or 1e-3
    return MessageDelayedError(f"{where} is {delay * 1e3:.2f} ms late",
                               src=src, dst=dst, tag=tag, delay=delay)
