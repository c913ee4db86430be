"""Content-addressed result cache: duplicate forecasts are free.

The operational insight behind serving ASUCA as a fleet (and behind the
Hybrid Fortran line of work) is that production workloads resubmit the
*same* configurations constantly — the 9-hour mesoscale forecast on the
standard mesh, the regression grid of Table-I shapes.  Keying completed
:class:`~repro.api.RunResult`\\ s by :meth:`~repro.api.RunSpec.spec_hash`
(the canonical content hash of the normalized spec) lets the service
answer a duplicate submission instantly without consuming fleet time —
and because the run facade is deterministic, the cached result is
bit-identical to what a fresh run would have produced (tested in
tests/serve/test_service.py).

Plain LRU with a capacity bound and hit/miss/eviction counters; nothing
here knows about the scheduler.
"""
from __future__ import annotations

from collections import OrderedDict
from typing import Any

from ..api import RunResult

__all__ = ["ResultCache"]


class ResultCache:
    """Bounded LRU of ``spec_hash -> RunResult`` (the service also
    stores a sentinel for modeled-only runs; values are opaque here)."""

    def __init__(self, capacity: int = 64):
        if capacity < 0:
            raise ValueError("capacity must be >= 0 (0 disables caching)")
        self.capacity = capacity
        self._store: "OrderedDict[str, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------ access
    def get(self, key: str) -> "RunResult | Any | None":
        """The cached result for ``key`` (refreshing its recency), or
        None; every call counts as a hit or a miss."""
        try:
            result = self._store[key]
        except KeyError:
            self.misses += 1
            return None
        self._store.move_to_end(key)
        self.hits += 1
        return result

    def put(self, key: str, result: "RunResult | Any") -> None:
        """Insert/refresh ``key``, evicting the least recently used
        entry beyond ``capacity``."""
        if self.capacity == 0:
            return
        self._store[key] = result
        self._store.move_to_end(key)
        while len(self._store) > self.capacity:
            self._store.popitem(last=False)
            self.evictions += 1

    # ----------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: str) -> bool:
        # membership tests do not disturb recency or the counters
        return key in self._store

    def keys(self) -> list[str]:
        """Keys from least to most recently used."""
        return list(self._store)

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0
