"""In-process SPMD message passing — the MPI substitute.

All ranks live in one Python process and execute phases in lockstep, so
"MPI" reduces to a deterministic mailbox: each rank posts typed messages
(`post`), and after every rank has posted, each rank collects what was
addressed to it (`collect`).  Buffers are copied on post, mirroring real
MPI semantics (the sender may immediately reuse its buffer).

The communicator also keeps traffic statistics (message count and bytes
per rank pair) that the performance model and the Fig. 9/11 benchmarks
consume — the functional path and the timing path see the exact same
messages.  While a :class:`repro.obs.trace.TraceSession` is active, each
post/collect pair is additionally logged as a :class:`MessageRecord`
with wall-clock stamps; the comm collector turns the log into flow
arrows between rank tracks.  With no session active, nothing is logged
(tracing stays zero-cost).

With a :class:`~repro.resilience.faults.FaultInjector` attached, the
transport becomes imperfect: a posted message can be dropped (collect
raises :class:`~repro.resilience.retry.MessageLostError`), corrupted
(bytes are flipped in flight; the receiver detects the CRC mismatch and
raises :class:`~repro.resilience.retry.MessageCorruptError`, discarding
the frame), or delayed (the first collect raises
:class:`~repro.resilience.retry.MessageDelayedError`; the data stays in
the mailbox).  :class:`~repro.dist.halo.HaloExchanger` recovers from all
three under its :class:`~repro.resilience.retry.RetryPolicy`.  With no
injector, the transport is perfect and behaves exactly as before.
"""
from __future__ import annotations

import time
import zlib
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from ..obs.trace import _SESSIONS
from ..resilience.faults import FaultKind
from ..resilience.retry import (
    MessageCorruptError,
    MessageDelayedError,
    MessageLostError,
)

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


@dataclass
class MessageRecord:
    """One posted message, for telemetry (only logged while a trace
    session is active)."""

    seq: int
    src: int
    dst: int
    tag: object
    nbytes: int
    t_post: float                 #: absolute ``perf_counter`` stamp
    t_collect: float | None = None


class SimComm:
    """Mailbox communicator for ``n_ranks`` in-process ranks.

    ``fault_injector`` (a :class:`~repro.resilience.faults.FaultInjector`
    or None) makes the transport imperfect — see the module docstring.
    """

    def __init__(self, n_ranks: int, *, fault_injector=None):
        if n_ranks < 1:
            raise ValueError("need at least one rank")
        self.n_ranks = n_ranks
        self.faults = fault_injector
        self._mail: dict[tuple[int, int, object], np.ndarray] = {}
        #: key -> CRC32 of the payload as sent (kept only under injection)
        self._crc: dict[tuple[int, int, object], int] = {}
        #: key -> lateness [s] of a delayed message, not yet waited out
        self._late: dict[tuple[int, int, object], float] = {}
        #: keys whose payload was dropped in flight
        self._lost: set[tuple[int, int, object]] = set()
        self.stats = TrafficStats()
        self.message_log: list[MessageRecord] = []
        self._inflight: dict[tuple[int, int, object], MessageRecord] = {}
        self._seq = 0

    # ------------------------------------------------------------- p2p
    def post(self, src: int, dst: int, tag: object, buf: np.ndarray) -> None:
        """Non-blocking send analogue; the buffer is copied immediately."""
        n = self.n_ranks
        if not (0 <= src < n and 0 <= dst < n):
            raise ValueError(f"rank {dst if 0 <= src < n else src} out of "
                             f"range [0, {n})")
        key = (src, dst, tag)
        if key in self._mail:
            raise RuntimeError(f"duplicate message {key} — missing collect?")
        data = np.array(buf, copy=True)
        self.stats.record(src, dst, buf.nbytes)
        if _SESSIONS:
            rec = MessageRecord(self._seq, src, dst, tag, buf.nbytes,
                                time.perf_counter())
            self._seq += 1
            self.message_log.append(rec)
            self._inflight[key] = rec
        if self.faults is not None:
            ev = self.faults.on_message(src, dst)
            if ev is not None:
                if ev.kind is FaultKind.DROP:
                    self._lost.add(key)
                    return                      # nothing reaches the mailbox
                if ev.kind is FaultKind.CORRUPT:
                    self._crc[key] = zlib.crc32(data.tobytes())
                    _flip_bytes(data)
                elif ev.kind is FaultKind.DELAY:
                    self._late[key] = ev.magnitude or 1e-3
        self._mail[key] = data

    def collect(self, src: int, dst: int, tag: object) -> np.ndarray:
        """Matching receive; raises if the message was never posted.

        Under fault injection the receive can fail with a typed,
        recoverable :class:`~repro.resilience.retry.HaloMessageError`
        (lost / corrupt / delayed) — see the module docstring.
        """
        key = (src, dst, tag)
        if key in self._lost:
            self._lost.discard(key)
            raise MessageLostError(
                f"message {tag!r} from rank {src} to rank {dst} was lost "
                "in flight", src=src, dst=dst, tag=tag)
        if key in self._late:
            delay = self._late.pop(key)
            raise MessageDelayedError(
                f"message {tag!r} from rank {src} to rank {dst} is "
                f"{delay * 1e3:.2f} ms late", src=src, dst=dst, tag=tag,
                delay=delay)
        try:
            data = self._mail.pop(key)
        except KeyError:
            raise RuntimeError(
                f"rank {dst} expected message {tag!r} from rank {src}, "
                "but nothing was posted — lockstep ordering bug"
            ) from None
        crc = self._crc.pop(key, None)
        if crc is not None and zlib.crc32(data.tobytes()) != crc:
            raise MessageCorruptError(
                f"message {tag!r} from rank {src} to rank {dst} failed "
                "its checksum; frame discarded", src=src, dst=dst, tag=tag)
        rec = self._inflight.pop(key, None)
        if rec is not None:
            rec.t_collect = time.perf_counter()
        return data

    def pending(self) -> int:
        """Number of posted-but-uncollected messages (0 after a clean
        exchange — asserted by the tests)."""
        return len(self._mail)

    # ------------------------------------------------------ collectives
    def allreduce_sum(self, values: list[float]) -> float:
        """Sum across ranks (every rank contributed one value)."""
        if len(values) != self.n_ranks:
            raise ValueError("allreduce needs one value per rank")
        return float(np.sum(values))

    def allreduce_max(self, values: list[float]) -> float:
        if len(values) != self.n_ranks:
            raise ValueError("allreduce needs one value per rank")
        return float(np.max(values))


def _flip_bytes(data: np.ndarray) -> None:
    """Deterministically corrupt a payload in place (first byte and a
    mid-buffer byte XORed) so the CRC check is guaranteed to trip."""
    raw = data.view(np.uint8).reshape(-1)
    raw[0] ^= 0xFF
    raw[raw.size // 2] ^= 0xFF
