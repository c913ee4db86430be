"""Halo exchange between subdomains (paper Figs. 6 and 8).

Two lockstep phases per exchange:

1. **x phase** — east/west strips of width ``halo``, spanning the full y
   extent of the local array;
2. **y phase** — north/south strips spanning the full x extent
   *including the x halos just filled*, which transports the corner
   values exactly as the paper's "copy corner values on CPU" trick does
   (Fig. 8): after both phases every diagonal halo corner holds the
   diagonal neighbor's data.

The strip geometry mirrors :mod:`repro.core.boundary`'s periodic fills
(including the staggered-face offsets), so a decomposed run reproduces the
single-domain arithmetic bit for bit — asserted by
tests/dist/test_multigpu_equivalence.py.  Whether an edge rank wraps or
applies the open (zero-gradient) fill is decided per axis by the
:class:`~repro.dist.decomposition.Topology` built from the global grid's
periodicity flags — the single place that choice lives.

Every directed message goes through :meth:`HaloExchanger._collect`, which
recovers from the imperfect transport of a fault-injected
:class:`~repro.dist.mpi_sim.SimComm` under a
:class:`~repro.resilience.retry.RetryPolicy`: lost and corrupted frames
are retransmitted by the sender after an exponential backoff, delayed
frames are waited out (or charged a timeout when too late), and the
modeled recovery time is accumulated in :class:`RetryStats` so the
distributed timeline reflects it.
"""
from __future__ import annotations

import numpy as np

from ..core.state import State
from ..obs.trace import active_session
from ..resilience.retry import (
    HaloMessageError,
    MessageDelayedError,
    RetryExhaustedError,
    RetryPolicy,
    RetryStats,
)
from .decomposition import Subdomain, Topology
from .mpi_sim import SimComm

__all__ = ["HaloExchanger", "STAGGER"]

#: (staggered_x, staggered_y) per prognostic field
STAGGER: dict[str, tuple[bool, bool]] = {
    "rho": (False, False),
    "rhou": (True, False),
    "rhov": (False, True),
    "rhow": (False, False),
    "rhotheta": (False, False),
}


def _stagger_of(name: str) -> tuple[bool, bool]:
    return STAGGER.get(name, (False, False))


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
        #: (axis, staggered, halo) -> the compiled exchange
        self._schedules: dict[tuple[int, bool, int], tuple] = {}

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
        h = states[0].grid.halo
        for axis in sorted(axes):
            for name in names:
                key = (axis, _stagger_of(name)[axis], h)
                schedule = self._schedules.get(key)
                if schedule is None:
                    schedule = self._schedules[key] = self._compile(*key)
                self._run(schedule, [st.get(name) for st in states],
                          name, axis)

    # ---------------------------------------------------------- schedule
    def _compile(self, axis: int, stag: bool, h: int) -> tuple:
        """Everything about one exchange that the fields do not decide:
        ``(posts, recvs, fills)``.  ``posts`` holds one ``(src, dst,
        direction, send index, recv index)`` per directed message in post
        order (by sender, ``+`` first) and ``recvs`` the same tuples in
        collect order (by receiver, from the low side first); ``fills``
        holds ``(rank, target index, edge index)`` per open edge."""
        def along(lo: int, hi: int) -> tuple:
            return (slice(None),) * axis + (slice(lo, hi),)

        e = int(stag)       # a staggered axis has one more face than cells
        nb = {(sub.rank, d): self.topology.axis_neighbor(sub, axis, d)
              for sub in self.subs for d in (-1, +1)}
        n = {sub.rank: sub.nx if axis == 0 else sub.ny for sub in self.subs}
        posts, recvs, fills = [], [], []
        for sub in self.subs:
            r = sub.rank
            if nb[r, +1] is not None:
                # data travelling toward +axis fills the neighbor's low
                # halo: the last h interior cells/faces (indices [n, n+h))
                posts.append((r, nb[r, +1], "+", along(n[r], n[r] + h),
                              along(0, h)))
            if nb[r, -1] is not None:
                # toward -axis fills the neighbor's high halo: the first h
                # interior cells (staggered: faces [h+1, 2h+1))
                dst = nb[r, -1]
                posts.append((r, dst, "-", along(h + e, 2 * h + e),
                              along(h + n[dst] + e, None)))
        by_key = {msg[:3]: msg for msg in posts}
        for sub in self.subs:
            r = sub.rank
            if nb[r, -1] is not None:
                recvs.append(by_key[nb[r, -1], r, "+"])
            else:
                fills.append((r, along(0, h), along(h, h + 1)))
            if nb[r, +1] is not None:
                recvs.append(by_key[nb[r, +1], r, "-"])
            else:
                # zero-gradient from the last interior cell (staggered:
                # from the boundary face itself)
                fills.append((r, along(h + n[r] + e, None),
                              along(h + n[r] + e - 1, h + n[r] + e)))
        return posts, recvs, fills

    def _run(self, schedule: tuple, arrs: list[np.ndarray], name: str,
             axis: int) -> None:
        posts, recvs, fills = schedule
        tags = {"+": (name, axis, "+"), "-": (name, axis, "-")}
        post = self.comm.post
        for src, dst, sign, send, _ in posts:
            post(src, dst, tags[sign], arrs[src][send])
        for src, dst, sign, send, recv in recvs:
            arrs[dst][recv] = self._collect(src, dst, tags[sign],
                                            arrs[src], send)
        for rank, target, edge in fills:
            arrs[rank][target] = arrs[rank][edge]

    # ------------------------------------------------- faulty transport
    def _collect(self, src: int, dst: int, tag: object, arr: np.ndarray,
                 send: tuple) -> np.ndarray:
        """Receive one message, recovering from transport faults under
        the retry policy (a lost or corrupted frame is posted again from
        the sender's ``arr[send]``); raises
        :class:`~repro.resilience.retry.RetryExhaustedError` when the
        fault outlasts the policy."""
        policy = self.retry
        attempt = 0
        while True:
            try:
                return self.comm.collect(src, dst, tag)
            except MessageDelayedError as err:
                if err.delay <= policy.timeout:
                    # late but within the timeout: wait it out (the data
                    # is in the mailbox; the next collect returns it)
                    self.stats.waits += 1
                    self.stats.wait_s += err.delay
                    self.stats.count("delay")
                    self._note(err, retried=False)
                    continue
                # too late: the receiver times out and charges a retry
                self.stats.timeouts += 1
                backoff = policy.timeout + policy.backoff(attempt)
                attempt = self._charge_retry(err, attempt, backoff, "timeout")
            except HaloMessageError as err:
                # lost or corrupt: the sender must retransmit
                backoff = policy.backoff(attempt)
                attempt = self._charge_retry(err, attempt, backoff,
                                             type(err).__name__)
                self.comm.post(src, dst, tag, arr[send])
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
