"""FLOP/byte counting via instrumented arrays — the PAPI substitute.

The paper measured the floating-point operation counts of ASUCA with PAPI
hardware counters on a CPU and used them to convert GPU times into GFlops
(Sec. IV-B).  We do the equivalent in pure Python: a ``CountingArray``
ndarray subclass intercepts every ufunc call via ``__array_ufunc__`` and
tallies flops (one per element per arithmetic ufunc, with transcendental
functions weighted higher) and element traffic.

Usage::

    counter = FlopCounter()
    a = counter.wrap(np.ones(1000))
    b = np.sqrt(a) + 2.0 * a
    counter.flops   # 3 * 1000 (sqrt counts its weight)

The per-kernel analytic cost models in :mod:`repro.gpu.asuca_kernels` are
validated against these measured counts on small grids.
"""
from __future__ import annotations

import warnings

import numpy as np

__all__ = ["CountingArray", "FlopCounter", "UFUNC_FLOP_WEIGHTS"]

#: flops charged per output element for each ufunc family.  Transcendental
#: weights follow common PAPI-era conventions (an exp/log is ~8-20 FP ops
#: of polynomial evaluation in hardware/libm).  ``matmul`` is special: its
#: per-output-element cost depends on the contracted extent k, so the
#: entry is the flops per multiply-add *pair* and :meth:`FlopCounter.charge`
#: multiplies by k.
UFUNC_FLOP_WEIGHTS: dict[str, float] = {
    "add": 1, "subtract": 1, "multiply": 1, "true_divide": 4, "divide": 4,
    "matmul": 2,
    "negative": 1, "positive": 0, "absolute": 1, "sign": 1,
    "maximum": 1, "minimum": 1, "fmax": 1, "fmin": 1, "clip": 2,
    "sqrt": 4, "cbrt": 6, "reciprocal": 4,
    "exp": 8, "expm1": 8, "log": 8, "log1p": 8, "log2": 8, "log10": 8,
    "power": 16, "float_power": 16,
    "sin": 8, "cos": 8, "tan": 10, "arctan": 10, "arctan2": 12,
    "arcsin": 10, "arccos": 10, "sinh": 10, "cosh": 10, "tanh": 10,
    "hypot": 6, "square": 1, "floor": 1, "ceil": 1, "rint": 1, "trunc": 1,
    "fmod": 4, "mod": 4, "remainder": 4, "floor_divide": 4,
    # comparisons/selection move data but do no FP arithmetic
    "greater": 0, "greater_equal": 0, "less": 0, "less_equal": 0,
    "equal": 0, "not_equal": 0, "logical_and": 0, "logical_or": 0,
    "logical_not": 0, "isfinite": 0, "isnan": 0, "isinf": 0, "signbit": 0,
    "copysign": 1, "nextafter": 1, "spacing": 1, "heaviside": 1,
    "deg2rad": 1, "rad2deg": 1, "conjugate": 0,
}

#: ufunc names already warned about this session (warn once, not per call
#: or per counter — a hot loop hitting an unweighted ufunc would otherwise
#: flood stderr)
_WARNED_UFUNCS: set[str] = set()


class FlopCounter:
    """Accumulates flops and element traffic of wrapped-array operations."""

    def __init__(self) -> None:
        self.flops = 0.0
        self.elements_read = 0.0
        self.elements_written = 0.0
        self.unknown_ufuncs: set[str] = set()

    def reset(self) -> None:
        self.flops = 0.0
        self.elements_read = 0.0
        self.elements_written = 0.0
        self.unknown_ufuncs.clear()

    def wrap(self, arr: np.ndarray) -> "CountingArray":
        out = np.asarray(arr).view(CountingArray)
        out._counter = self
        return out

    def charge(self, ufunc: np.ufunc, inputs, output_size: int) -> None:
        name = ufunc.__name__
        weight = UFUNC_FLOP_WEIGHTS.get(name)
        if weight is None:
            weight = 1.0
            self.unknown_ufuncs.add(name)
            if name not in _WARNED_UFUNCS:
                _WARNED_UFUNCS.add(name)
                warnings.warn(
                    f"FlopCounter: ufunc {name!r} has no entry in "
                    f"UFUNC_FLOP_WEIGHTS; counting it at 1 flop per "
                    f"element (add a weight to make the count exact)",
                    RuntimeWarning, stacklevel=4)
        if name == "matmul":
            # (..., n, k) @ (..., k, m): 2k flops (k multiply-add pairs)
            # per output element; k is the last axis of the first operand
            k = 1
            for x in inputs:
                if isinstance(x, np.ndarray) and x.ndim >= 1:
                    k = x.shape[-1]
                    break
            weight = weight * k
        self.flops += weight * output_size
        for x in inputs:
            if isinstance(x, np.ndarray):
                self.elements_read += min(x.size, output_size)
        self.elements_written += output_size


class CountingArray(np.ndarray):
    """ndarray that reports its ufunc activity to a :class:`FlopCounter`.

    The counter propagates through results, so whole kernel functions can
    be measured by wrapping only their inputs.
    """

    _counter: FlopCounter | None = None

    def __array_finalize__(self, obj):
        if obj is not None and self._counter is None:
            self._counter = getattr(obj, "_counter", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        counter = self._counter
        for x in inputs:
            if counter is None and isinstance(x, CountingArray):
                counter = x._counter

        raw_inputs = tuple(
            x.view(np.ndarray) if isinstance(x, CountingArray) else x for x in inputs
        )
        out = kwargs.get("out")
        if out is not None:
            kwargs["out"] = tuple(
                o.view(np.ndarray) if isinstance(o, CountingArray) else o for o in out
            )
        result = getattr(ufunc, method)(*raw_inputs, **kwargs)

        if counter is not None and method in ("__call__", "reduce",
                                              "accumulate", "outer"):
            if isinstance(result, tuple):
                size = max(np.size(r) for r in result)
            else:
                size = np.size(result)
            if method == "reduce":
                # a reduction does ~input-size operations
                size = max(np.size(x) for x in raw_inputs if isinstance(x, np.ndarray))
            counter.charge(ufunc, raw_inputs, size)

        def rewrap(r):
            if isinstance(r, np.ndarray):
                v = r.view(CountingArray)
                v._counter = counter
                return v
            return r

        if isinstance(result, tuple):
            return tuple(rewrap(r) for r in result)
        return rewrap(result)
