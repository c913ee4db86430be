"""Terminal field rendering (no matplotlib in the offline environment).

The examples render cross-sections and maps as ASCII art; this module is
their shared implementation, usable on any 2-D array:

* :func:`render_field` — signed fields, density ramp, UPPERCASE for
  positive values (the mountain-wave examples);
* :func:`render_map` — non-negative fields (precipitation maps).
"""
from __future__ import annotations

import numpy as np

__all__ = ["render_field", "render_map"]

_RAMP = " .:-=+*#%@"


def render_field(
    field: np.ndarray,
    *,
    ramp: str = _RAMP,
    transpose: bool = False,
    flip_y: bool = True,
) -> str:
    """Render a signed 2-D field: character density encodes |value| scaled
    to the field max; positive values print UPPERCASE (where letters
    exist) so sign structure is visible.

    ``field[i, j]`` is drawn with i across and j up (column-major rows),
    matching an (x, z) cross-section; pass ``flip_y=False`` for (x, y)
    maps indexed from the top.
    """
    f = np.asarray(field, dtype=np.float64)
    if f.ndim != 2:
        raise ValueError("render_field expects a 2-D array")
    if transpose:
        f = f.T
    vmax = np.abs(f).max()
    if vmax == 0.0:
        vmax = 1.0
    idx = np.minimum((np.abs(f) / vmax * (len(ramp) - 1)).astype(int),
                     len(ramp) - 1)
    rows = []
    j_range = range(f.shape[1] - 1, -1, -1) if flip_y else range(f.shape[1])
    for j in j_range:
        chars = []
        for i in range(f.shape[0]):
            ch = ramp[idx[i, j]]
            chars.append(ch.upper() if f[i, j] > 0 else ch)
        rows.append("".join(chars))
    return "\n".join(rows)


def render_map(field: np.ndarray, *, ramp: str = _RAMP) -> str:
    """Render a non-negative 2-D map (e.g. accumulated precipitation),
    rows top-to-bottom in decreasing j."""
    f = np.asarray(field, dtype=np.float64)
    if f.ndim != 2:
        raise ValueError("render_map expects a 2-D array")
    if np.any(f < 0):
        raise ValueError("render_map expects non-negative values")
    vmax = f.max() or 1.0
    idx = np.minimum((f / vmax * (len(ramp) - 1)).astype(int), len(ramp) - 1)
    return "\n".join(
        "".join(ramp[idx[i, j]] for i in range(f.shape[0]))
        for j in range(f.shape[1] - 1, -1, -1)
    )
