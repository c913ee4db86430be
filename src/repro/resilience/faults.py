"""Fault plans and the runtime injector.

A :class:`FaultPlan` is a *schedule*: a list of :class:`FaultEvent`
entries saying what breaks, at which long step, where, and how many
times.  Plans are data — buildable by hand, parseable from a compact CLI
spec (``drop@1,corrupt@2:0>1,crash@3:r2``), or drawn from a seeded RNG
(:meth:`FaultPlan.random`), which makes every chaos run reproducible
(asserted by tests/resilience/test_faults.py).

A :class:`FaultInjector` consumes a plan at runtime.  It is plugged into

* :class:`~repro.dist.mpi_sim.SimComm` — message faults (drop / corrupt
  / delay) fire as :class:`~repro.dist.halo.HaloExchanger` accounts for
  each transmission of an exchange point, before it copies a byte;
* :class:`~repro.gpu.device.GPUDevice` — transient PCIe copy failures
  fire on H2D/D2H :meth:`~repro.gpu.device.GPUDevice.schedule`;
* :class:`~repro.dist.multigpu.MultiGpuAsuca` / the
  :class:`~repro.api.Experiment` step loop — rank crashes raise
  :class:`RankCrash`, recovered by checkpoint-restart.

Each event carries a ``count``; every firing consumes one, so a retried
message eventually gets through (unless the plan outlasts the
:class:`~repro.resilience.retry.RetryPolicy`, which is exactly how the
retry-exhaustion path is tested).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = ["FaultKind", "FaultEvent", "FaultPlan", "FaultInjector",
           "RankCrash"]


class FaultKind(str, enum.Enum):
    """What breaks."""

    DROP = "drop"          #: halo message lost in flight
    CORRUPT = "corrupt"    #: halo message delivered with flipped bytes
    DELAY = "delay"        #: halo message arrives ``magnitude`` s late
    PCIE = "pcie"          #: transient PCIe copy failure (H2D/D2H redone)
    CRASH = "crash"        #: rank dies at the top of the step


#: message-transport kinds (fire at a message's post, in HaloExchanger)
_MESSAGE_KINDS = (FaultKind.DROP, FaultKind.CORRUPT, FaultKind.DELAY)

#: default lateness of a DELAY event when magnitude is not given [s]
_DEFAULT_DELAY = 5e-3


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``step`` is the 0-based long-step index at which the event arms.
    ``src``/``dst`` filter message faults by rank pair (None = any);
    ``rank`` selects the victim of PCIE and CRASH events (None = rank 0
    for CRASH, any device for PCIE).  ``count`` is how many firings the
    event is good for; ``magnitude`` is the DELAY lateness in seconds.
    """

    kind: FaultKind
    step: int
    src: int | None = None
    dst: int | None = None
    rank: int | None = None
    count: int = 1
    magnitude: float = 0.0

    def __post_init__(self):
        if self.step < 0:
            raise ValueError("fault step must be >= 0")
        if self.count < 1:
            raise ValueError("fault count must be >= 1")


@dataclass
class FaultPlan:
    """A deterministic schedule of faults."""

    events: list[FaultEvent] = field(default_factory=list)
    name: str = "custom"
    seed: int | None = None

    # ------------------------------------------------------- constructors
    @classmethod
    def none(cls) -> "FaultPlan":
        return cls(events=[], name="none")

    @classmethod
    def demo(cls) -> "FaultPlan":
        """Small fixed schedule exercising every fault kind except CRASH
        within the first five steps (the CI smoke test); the crash rides
        at step 3 so checkpoint/restart (or restart-from-initial) runs."""
        return cls(
            events=[
                FaultEvent(FaultKind.DROP, step=1),
                FaultEvent(FaultKind.CORRUPT, step=2),
                FaultEvent(FaultKind.DELAY, step=2, magnitude=_DEFAULT_DELAY),
                FaultEvent(FaultKind.PCIE, step=2),
                FaultEvent(FaultKind.CRASH, step=3, rank=0),
            ],
            name="demo",
        )

    @classmethod
    def random(
        cls,
        *,
        seed: int,
        n_steps: int,
        n_ranks: int = 1,
        p_drop: float = 0.05,
        p_corrupt: float = 0.02,
        p_delay: float = 0.05,
        p_pcie: float = 0.02,
        crash_steps: tuple[int, ...] = (),
    ) -> "FaultPlan":
        """Seeded random schedule: per step, each message-fault kind
        fires with its probability against a random rank pair.  The same
        seed always yields the same plan (tested)."""
        rng = np.random.default_rng(seed)
        events: list[FaultEvent] = []
        kinds = ((FaultKind.DROP, p_drop), (FaultKind.CORRUPT, p_corrupt),
                 (FaultKind.DELAY, p_delay), (FaultKind.PCIE, p_pcie))
        for step in range(n_steps):
            for kind, p in kinds:
                if rng.random() >= p:
                    continue
                if kind is FaultKind.PCIE:
                    events.append(FaultEvent(
                        kind, step, rank=int(rng.integers(n_ranks))))
                else:
                    src = int(rng.integers(n_ranks))
                    events.append(FaultEvent(
                        kind, step, src=src,
                        magnitude=(_DEFAULT_DELAY * float(rng.random())
                                   if kind is FaultKind.DELAY else 0.0)))
        for step in crash_steps:
            events.append(FaultEvent(FaultKind.CRASH, step,
                                     rank=int(rng.integers(n_ranks))))
        return cls(events=events, name=f"random:{seed}", seed=seed)

    @classmethod
    def parse(cls, spec: "str | FaultPlan | None") -> "FaultPlan":
        """Parse a CLI fault spec.

        ``None``/"none" -> empty plan; "demo" -> :meth:`demo`;
        "random:SEED" -> :meth:`random` (50 steps, 4 ranks); otherwise a
        comma list of ``kind@step`` items with optional qualifiers:
        ``drop@1`` ``corrupt@2:0>1`` (src 0 -> dst 1) ``crash@3:r2``
        (rank 2) ``delay@4:m0.01`` (10 ms late) ``drop@5:x3`` (count 3).
        """
        if spec is None:
            return cls.none()
        if isinstance(spec, FaultPlan):
            return spec
        spec = spec.strip()
        if spec in ("", "none"):
            return cls.none()
        if spec == "demo":
            return cls.demo()
        if spec.startswith("random:"):
            return cls.random(seed=int(spec.split(":", 1)[1]),
                              n_steps=50, n_ranks=4)
        events = []
        for item in spec.split(","):
            head, *quals = item.strip().split(":")
            kind_s, _, step_s = head.partition("@")
            ev = FaultEvent(FaultKind(kind_s), int(step_s))
            for q in quals:
                if q.startswith("r"):
                    ev = replace(ev, rank=int(q[1:]))
                elif q.startswith("m"):
                    ev = replace(ev, magnitude=float(q[1:]))
                elif q.startswith("x"):
                    ev = replace(ev, count=int(q[1:]))
                elif ">" in q:
                    s, d = q.split(">")
                    ev = replace(ev, src=int(s) if s else None,
                                 dst=int(d) if d else None)
                else:
                    raise ValueError(f"bad fault qualifier {q!r} in {item!r}")
            events.append(ev)
        return cls(events=events, name=spec)

    # ------------------------------------------------------------ queries
    def __len__(self) -> int:
        return len(self.events)


class RankCrash(RuntimeError):
    """Raised when the fault plan kills a rank; recovered (if at all) by
    checkpoint-restart in :class:`repro.api.Experiment`."""

    def __init__(self, *, rank: int, step: int):
        super().__init__(f"rank {rank} crashed at step {step}")
        self.rank = rank
        self.step = step


class FaultInjector:
    """Runtime consumer of a :class:`FaultPlan`.

    The owner of the step loop calls :meth:`begin_step` once per long
    step; the instrumented layers then ask :meth:`on_message`,
    :meth:`on_pcie` and :meth:`crash_rank` whether a scheduled event
    matches.  Every match consumes one ``count`` of its event, and is
    appended to :attr:`fired` (a ``(step, kind, detail)`` log)."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        #: live [event, remaining-count] pairs, in plan order
        self._live: list[list] = [[ev, ev.count] for ev in plan.events]
        self.step = -1                  #: current long step (-1 = setup)
        self.fired: list[tuple[int, FaultKind, str]] = []
        self.counts: dict[str, int] = {}

    # ---------------------------------------------------------- stepping
    def begin_step(self, step: int) -> None:
        self.step = step

    # ---------------------------------------------------------- matching
    def _take(self, match) -> FaultEvent | None:
        for entry in self._live:
            ev, remaining = entry
            if remaining <= 0 or not match(ev):
                continue
            entry[1] -= 1
            return ev
        return None

    def _record(self, ev: FaultEvent, detail: str) -> None:
        self.fired.append((self.step, ev.kind, detail))
        self.counts[ev.kind.value] = self.counts.get(ev.kind.value, 0) + 1

    def on_message(self, src: int, dst: int) -> FaultEvent | None:
        """Message fault matching the current step and rank pair, if any
        (consumed); asked once per transmission by ``HaloExchanger``."""
        ev = self._take(lambda e: e.kind in _MESSAGE_KINDS
                        and e.step == self.step
                        and (e.src is None or e.src == src)
                        and (e.dst is None or e.dst == dst))
        if ev is not None:
            self._record(ev, f"{src}->{dst}")
        return ev

    def on_pcie(self, label: str) -> bool:
        """Transient PCIe copy failure for the device called ``label``
        (e.g. ``rank3`` / ``gpu0``) at the current step?"""
        rank = _label_rank(label)
        ev = self._take(lambda e: e.kind is FaultKind.PCIE
                        and e.step == self.step
                        and (e.rank is None or e.rank == rank))
        if ev is not None:
            self._record(ev, label)
        return ev is not None

    def crash_rank(self, step: int) -> int | None:
        """Rank scheduled to die at ``step``, or None (consumed: the
        resumed run passes the same step cleanly)."""
        ev = self._take(lambda e: e.kind is FaultKind.CRASH
                        and e.step == step)
        if ev is None:
            return None
        rank = ev.rank if ev.rank is not None else 0
        self._record(ev, f"rank{rank}")
        return rank

    # --------------------------------------------------------- reporting
    def pending(self) -> int:
        """Scheduled firings not yet consumed."""
        return sum(max(0, remaining) for _, remaining in self._live)


def _label_rank(label: str) -> int:
    """Best-effort rank of a device label ('rank3' -> 3, 'gpu0' -> 0)."""
    digits = "".join(ch for ch in label if ch.isdigit())
    return int(digits) if digits else 0
