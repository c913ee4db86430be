"""In-process SPMD communication: the MPI substitute's accounting.

All ranks live in one Python process and exchange halos in lockstep, so
nothing is ever in flight: :class:`~repro.dist.halo.HaloExchanger` copies
every strip of an exchange point in one call over its strip table.  What
the communicator keeps is what a real transport would report: traffic
statistics (message count and bytes per rank pair), which the performance
model and the Fig. 9/11 benchmarks consume, and, while a
:class:`repro.obs.trace.TraceSession` is active, one :class:`MessageRecord`
per transmission, stamped with its exchange point's start and end (the log
keeps one entry per exchange point and makes the records when it is read);
the comm collector turns the log into flow arrows between rank tracks.
With no session active nothing is logged (tracing stays zero-cost).

A :class:`~repro.resilience.faults.FaultInjector` attached as ``faults``
makes the modeled transport imperfect (drop / corrupt / delay); the
exchanger computes what each fault costs (retries, retransmissions, waits,
their traffic and their records) before any byte moves.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from ..obs.trace import _SESSIONS

__all__ = ["SimComm", "TrafficStats", "MessageRecord"]


@dataclass
class TrafficStats:
    """Aggregate message statistics."""

    messages: int = 0
    bytes_total: int = 0
    by_pair: dict[tuple[int, int], int] = field(
        default_factory=lambda: defaultdict(int))

    def record(self, src: int, dst: int, nbytes: int) -> None:
        self.messages += 1
        self.bytes_total += nbytes
        self.by_pair[(src, dst)] += nbytes

    def add(self, pairs) -> None:
        """Record many messages at once: ``((src, dst), messages, bytes)``
        per rank pair, in the order the pairs first occur."""
        for pair, messages, nbytes in pairs:
            self.messages += messages
            self.bytes_total += nbytes
            self.by_pair[pair] += nbytes

    def per_pair_report(self) -> str:
        """Sorted text table of bytes per (src, dst) rank pair — consumed
        by the comm collector and the trace summary exporter."""
        if not self.by_pair:
            return "(no traffic)"
        lines = [
            f"  {src} -> {dst}: {nbytes:,} B"
            for (src, dst), nbytes in sorted(self.by_pair.items())
        ]
        return "\n".join(lines)

    def reset(self) -> None:
        self.messages = 0
        self.bytes_total = 0
        self.by_pair.clear()


@dataclass(slots=True)
class MessageRecord:
    """One transmission, for telemetry (only logged while a trace session
    is active): stamped with its exchange point's start and, when it was
    delivered, its end."""

    seq: int
    src: int
    dst: int
    tag: object
    nbytes: int
    t_post: float                 #: absolute ``perf_counter`` stamp
    t_collect: float | None = None


class SimComm:
    """The transport of ``n_ranks`` in-process ranks, as accounting.

    ``fault_injector`` (a :class:`~repro.resilience.faults.FaultInjector`
    or None) makes the modeled transport imperfect — see the module
    docstring.
    """

    def __init__(self, n_ranks: int, *, fault_injector=None):
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        self.n_ranks = n_ranks
        self.faults = fault_injector
        self.stats = TrafficStats()
        self._log: list[MessageRecord] = []
        #: exchange points logged but not yet expanded into records
        self._points: list[tuple] = []

    def log(self, sent, t_start: float, t_end: float) -> None:
        """Log one exchange point's transmissions, ``(src, dst, tag,
        nbytes, delivered)`` each, while a trace session is active: posted
        at ``t_start``, collected at ``t_end`` where delivered."""
        if _SESSIONS:
            self._points.append((sent, t_start, t_end))

    @property
    def message_log(self) -> list[MessageRecord]:
        """Every logged transmission as a :class:`MessageRecord`, in
        order; an exchange point's records are made when first read."""
        log = self._log
        for sent, t_start, t_end in self._points:
            log += [MessageRecord(seq, src, dst, tag, nbytes, t_start,
                                  t_end if delivered else None)
                    for seq, (src, dst, tag, nbytes, delivered)
                    in enumerate(sent, len(log))]
        self._points.clear()
        return log
