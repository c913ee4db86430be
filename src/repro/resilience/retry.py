"""Retry policy and typed transport errors for halo exchanges.

A real MPI stack retransmits lost frames below the application; our
modeled transport names each failure with a typed error instead, and
:class:`~repro.dist.halo.HaloExchanger` accounts for the recovery under a
:class:`RetryPolicy` — bounded retries with exponential backoff, plus a
delay timeout deciding when a late message counts as lost — before it
copies any byte of the exchange point.

All backoff/wait durations are *modeled* seconds: they are accumulated in
:class:`RetryStats` and charged to the virtual device timelines by
:meth:`repro.dist.multigpu.MultiGpuAsuca._charge_devices`, so overlap and
weak-scaling numbers reflect the recovery cost rather than the (tiny)
wall-clock cost of an in-process retry loop.

Stdlib-only: :mod:`repro.dist.halo` imports the error types from here,
so this module must not import anything from ``repro.dist``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "RetryPolicy",
    "RetryStats",
    "HaloMessageError",
    "MessageLostError",
    "MessageCorruptError",
    "MessageDelayedError",
    "RetryExhaustedError",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff.

    Attributes
    ----------
    max_retries
        attempts *after* the first before :class:`RetryExhaustedError`.
    backoff_base, backoff_factor, backoff_max
        retry ``k`` (0-based) backs off ``min(base * factor**k, max)``
        modeled seconds before the retransmission.
    timeout
        a message delayed by more than this counts as a timeout (one
        retry is charged); shorter delays are simply waited out.
    """

    max_retries: int = 4
    backoff_base: float = 5e-4
    backoff_factor: float = 2.0
    backoff_max: float = 0.05
    timeout: float = 0.02

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base < 0 or self.backoff_max < 0 or self.timeout < 0:
            raise ValueError("backoff/timeout durations must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")

    def allows(self, failures: int) -> bool:
        """May the work be retried after ``failures`` failed attempts?"""
        return failures <= self.max_retries

    def backoff(self, attempt: int) -> float:
        """Modeled backoff before retry ``attempt`` (0-based)."""
        return min(self.backoff_base * self.backoff_factor ** attempt,
                   self.backoff_max)


@dataclass
class RetryStats:
    """What recovery cost a run: accumulated by the halo exchanger."""

    retries: int = 0          #: failed attempts that were retried
    retransmits: int = 0      #: messages re-posted by the sender
    timeouts: int = 0         #: delayed messages that exceeded the timeout
    waits: int = 0            #: delayed messages waited out (no retry)
    backoff_s: float = 0.0    #: modeled backoff + timeout seconds charged
    wait_s: float = 0.0       #: modeled in-timeout wait seconds charged
    by_kind: dict[str, int] = field(default_factory=dict)

    def count(self, kind: str) -> None:
        self.by_kind[kind] = self.by_kind.get(kind, 0) + 1

    @property
    def recovery_s(self) -> float:
        """Total modeled recovery time charged to the timeline."""
        return self.backoff_s + self.wait_s

    def report(self) -> str:
        kinds = ", ".join(f"{k}={n}" for k, n in sorted(self.by_kind.items()))
        return (f"{self.retries} retries ({self.retransmits} retransmits, "
                f"{self.timeouts} timeouts, {self.waits} waits), "
                f"{self.recovery_s * 1e3:.2f} ms modeled recovery"
                + (f" [{kinds}]" if kinds else ""))


class HaloMessageError(RuntimeError):
    """Base of all recoverable transport failures of one halo message."""

    def __init__(self, msg: str, *, src: int, dst: int, tag: object):
        super().__init__(msg)
        self.src = src
        self.dst = dst
        self.tag = tag


class MessageLostError(HaloMessageError):
    """The message was dropped in flight; the sender must retransmit."""


class MessageCorruptError(HaloMessageError):
    """The frame failed its (modeled) checksum and was discarded on
    receipt; the sender must retransmit."""


class MessageDelayedError(HaloMessageError):
    """The message is late by ``delay`` modeled seconds; it arrives, so
    waiting (or a timeout) is all it costs."""

    def __init__(self, msg: str, *, src: int, dst: int, tag: object,
                 delay: float):
        super().__init__(msg, src=src, dst=dst, tag=tag)
        self.delay = delay


class RetryExhaustedError(RuntimeError):
    """A halo message could not be delivered within ``max_retries``."""

    def __init__(self, msg: str, *, attempts: int,
                 last_error: HaloMessageError | None = None):
        super().__init__(msg)
        self.attempts = attempts
        self.last_error = last_error
