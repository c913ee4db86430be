"""Per-shape scratch arenas of the compiled bodies, one set per thread.

A :class:`Plan` is the scratch one compiled advection takes for fields of
one ``(cell shape, dtype)``: ``csrc/advect.c``'s five carried rows of the
widest staggered row.  :data:`PLANS` builds it once per
thread (``Experiment.prepare()`` warms it, so the cost lands in set-up)
and keeps only the last few shapes.  Plans are shared by everything that
runs on one thread: a compiled call runs to completion there, so no
scratch is live between two calls, and nothing in Python takes a view of
it.  Two threads never share one (:class:`Recent` keeps its items per
thread): ctypes releases the GIL around a call, and two runs stepped side
by side would compute in each other's temporaries.
"""
from __future__ import annotations

import threading

import numpy as np

__all__ = ["Plan", "PlanCache", "PLANS", "Recent"]


class Plan:
    """The compiled advection's scratch for fields of one cell shape."""

    def __init__(self, shape: tuple, dtype: np.dtype):
        # widest staggered row (v has ny + 1 columns, w has nz + 1 levels)
        self.arena = np.zeros(5 * (shape[1] + 1) * (shape[2] + 1), dtype)


class Recent:
    """``cache(*key)`` -> ``build(*key)``, built on first use *by the
    calling thread*: what is cached is scratch memory, which two threads
    must not share.  Only the ``maxsize`` keys a thread built most
    recently are kept, so what is cached never grows with the number of
    shapes a process has seen."""

    def __init__(self, build, maxsize: int = 8):
        self.build = build
        self.maxsize = maxsize
        self._local = threading.local()
        self._lock = threading.Lock()
        #: items ever built (a deterministic fact the benchmarks gate)
        self.built = 0

    @property
    def items(self) -> dict:
        """The calling thread's items, oldest first."""
        try:
            return self._local.items
        except AttributeError:
            items = self._local.items = {}
            return items

    def __call__(self, *key):
        items = self.items
        item = items.get(key)
        if item is None:
            if len(items) >= self.maxsize:
                del items[next(iter(items))]
            item = items[key] = self.build(*key)
            with self._lock:
                self.built += 1
        return item


class PlanCache(Recent):
    """``cache(shape, dtype)`` -> the :class:`Plan`."""

    def __init__(self, maxsize: int = 8):
        super().__init__(Plan, maxsize)

    def nbytes(self) -> int:
        """Bytes of every arena currently held."""
        return sum(p.arena.nbytes for p in self.items.values())


#: the cache every executor hands to the compiled entries
PLANS = PlanCache()
