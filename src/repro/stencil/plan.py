"""Per-shape execution plans: one small scratch arena, bound once.

The paper keeps kernel temporaries in registers and shared memory and
marches through the field (Sec. IV-A); the host analogue is to run every
planned kernel over *slabs* of a few x-rows whose temporaries all live in
one L2-resident arena.  A :class:`Plan` is that arena plus its typed
views for one ``(cell shape, dtype)``; :data:`PLANS` builds it once per
thread (``Experiment.prepare()`` warms it, so the cost lands in set-up)
and keeps only the last few shapes.

The arena is bounded by construction: ``NBUF`` buffers of one slab each,
and a slab is ``BLOCK_BYTES`` rounded to whole rows (the whole field when
that is smaller) — a function of the row, never growing with the field.
Nothing handed out by :meth:`Plan.scratch` may escape a kernel (LINT07
and the identity tests check it).  Plans are shared by everything that
runs on one thread: a kernel runs to completion there, so no scratch is
live between two kernels.  Two threads never share one (:class:`Recent`
keeps its items per thread), or two runs stepped side by side would
compute in each other's temporaries.
"""
from __future__ import annotations

import threading

import numpy as np

__all__ = ["BLOCK_BYTES", "NBUF", "Plan", "PlanCache", "PLANS", "Recent"]

#: bytes of one scratch buffer's slab (12 k float64 / 24 k float32
#: elements: past the ufunc call overhead, well inside L2 with NBUF live)
BLOCK_BYTES = 96 * 1024
#: live temporaries of the widest planned kernel (the Koren face sweep)
NBUF = 7


class Plan:
    """Slab geometry and scratch views for fields of one cell shape."""

    def __init__(self, shape: tuple, dtype: np.dtype):
        # widest staggered row (v has ny + 1 columns, w has nz + 1 levels)
        row = (shape[1] + 1) * (shape[2] + 1)
        #: x-rows per slab (a field smaller than a block is one slab)
        self.rows = max(1, min(BLOCK_BYTES // dtype.itemsize // row,
                               shape[0] + 1))
        #: elements per buffer; the extra row is an x sweep's upstream face
        self.cap = (self.rows + 1) * row
        self.arena = np.zeros(NBUF * self.cap, dtype)
        self._f = [self.arena[k * self.cap:(k + 1) * self.cap]
                   for k in range(NBUF)]
        #: the same-width integer type, for bit blends
        self.bits = np.dtype(f"i{dtype.itemsize}")
        self._i = [v.view(self.bits) for v in self._f]
        self._sweep: dict = {}

    def sweep_views(self, n: int) -> tuple:
        """Buffers 0-4 cut to ``n`` elements, as bits then as floats (the
        face sweep's ten views, bound once per length)."""
        views = self._sweep.get(n)
        if views is None:
            views = self._sweep[n] = tuple(
                b[:n] for b in self._i[:5] + self._f[:5])
        return views

    def scratch(self, k: int, n: int) -> np.ndarray:
        """The first ``n`` elements of buffer ``k``."""
        return self._f[k][:n]

    @staticmethod
    def arena_bound(shape: tuple, dtype) -> int:
        """Upper bound of ``arena.nbytes`` for any plan of this shape."""
        row_bytes = (shape[1] + 1) * (shape[2] + 1) * np.dtype(dtype).itemsize
        return NBUF * (BLOCK_BYTES + 2 * row_bytes)


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


#: the cache every executor hands to the planned kernels
PLANS = PlanCache()
