"""Forecast history I/O: save model snapshots to ``.npz`` archives and
read them back — the "Output" box of the paper's Fig. 1, minus NetCDF
(which the offline environment lacks).

A history file stores, per snapshot: time, the interior prognostic fields
(halo stripped — halos are reconstructable), accumulated precipitation,
and grid metadata sufficient to rebuild coordinates for plotting.
"""
from __future__ import annotations

import pathlib
from dataclasses import dataclass

import numpy as np

from .core.grid import Grid
from .core.state import State
from .resilience.checkpoint import read_states, write_states

__all__ = ["HistoryWriter", "HistorySnapshot", "read_history",
           "save_checkpoint", "load_checkpoint"]

_FORMAT_VERSION = 1


@dataclass
class HistorySnapshot:
    """One stored time level."""

    time: float
    fields: dict[str, np.ndarray]     #: interior arrays, (nx[, +1], ny[, +1], nz)
    precip_accum: np.ndarray | None


class HistoryWriter:
    """Accumulates snapshots and writes one compressed ``.npz``.

    Usage::

        hist = HistoryWriter(grid, path)
        model.run(state, 100, callback=lambda i, st: hist.maybe_save(st))
        hist.close()
    """

    def __init__(
        self,
        grid: Grid,
        path: str | pathlib.Path,
        *,
        every_seconds: float = 0.0,
        fields: list[str] | None = None,
    ):
        self.grid = grid
        self.path = pathlib.Path(path)
        self.every_seconds = every_seconds
        self.fields = fields
        self._snaps: list[HistorySnapshot] = []
        self._last_saved = -np.inf
        self._closed = False

    # ------------------------------------------------------------------
    def save(self, state: State) -> None:
        """Unconditionally record one snapshot."""
        if self._closed:
            raise RuntimeError("history already closed")
        g = self.grid
        h = g.halo
        names = self.fields or state.prognostic_names()
        out: dict[str, np.ndarray] = {}
        for name in names:
            arr = state.get(name)
            ex = 1 if arr.shape[0] == g.nxh + 1 else 0
            ey = 1 if arr.shape[1] == g.nyh + 1 else 0
            out[name] = arr[h : h + g.nx + ex, h : h + g.ny + ey].copy()
        self._snaps.append(
            HistorySnapshot(
                time=state.time,
                fields=out,
                precip_accum=None if state.precip_accum is None
                else state.precip_accum.copy(),
            )
        )
        self._last_saved = state.time

    def maybe_save(self, state: State) -> bool:
        """Record if at least ``every_seconds`` has elapsed since the last
        snapshot; returns whether a snapshot was taken."""
        if state.time - self._last_saved >= self.every_seconds - 1e-9:
            self.save(state)
            return True
        return False

    def close(self) -> pathlib.Path:
        """Write the archive; further saves are rejected."""
        g = self.grid
        payload: dict[str, np.ndarray] = {
            "format_version": np.array(_FORMAT_VERSION),
            "n_snapshots": np.array(len(self._snaps)),
            "times": np.array([s.time for s in self._snaps]),
            "grid_nx": np.array(g.nx),
            "grid_ny": np.array(g.ny),
            "grid_nz": np.array(g.nz),
            "grid_dx": np.array(g.dx),
            "grid_dy": np.array(g.dy),
            "grid_ztop": np.array(g.ztop),
            "grid_z_f": g.z_f,
            "grid_zs": g.interior(g.zs[:, :, None])[:, :, 0],
        }
        for i, snap in enumerate(self._snaps):
            for name, arr in snap.fields.items():
                payload[f"snap{i}/{name}"] = arr
            if snap.precip_accum is not None:
                payload[f"snap{i}/precip_accum"] = snap.precip_accum
        self.path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(self.path, **payload)
        self._closed = True
        return self.path

    @property
    def n_snapshots(self) -> int:
        return len(self._snaps)


def read_history(path: str | pathlib.Path) -> tuple[dict, list[HistorySnapshot]]:
    """Load a history archive: ``(grid_meta, snapshots)``."""
    with np.load(path) as z:
        version = int(z["format_version"])
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported history format {version}")
        meta = {
            "nx": int(z["grid_nx"]), "ny": int(z["grid_ny"]),
            "nz": int(z["grid_nz"]),
            "dx": float(z["grid_dx"]), "dy": float(z["grid_dy"]),
            "ztop": float(z["grid_ztop"]),
            "z_f": z["grid_z_f"].copy(),
            "zs": z["grid_zs"].copy(),
        }
        times = z["times"]
        n = int(z["n_snapshots"])
        snaps = []
        for i in range(n):
            prefix = f"snap{i}/"
            fields = {
                k[len(prefix):]: z[k].copy()
                for k in z.files
                if k.startswith(prefix) and not k.endswith("precip_accum")
            }
            key = f"{prefix}precip_accum"
            precip = z[key].copy() if key in z.files else None
            snaps.append(HistorySnapshot(time=float(times[i]), fields=fields,
                                         precip_accum=precip))
    return meta, snaps


# ---------------------------------------------------------------------------
# checkpoint / restart
# ---------------------------------------------------------------------------

def save_checkpoint(state: State, path: str | pathlib.Path) -> pathlib.Path:
    """Serialize a full model state (halos included) so a run can restart
    *bit-identically*: a one-rank :mod:`repro.resilience.checkpoint` archive."""
    write_states(path, [state])
    return pathlib.Path(path)


def load_checkpoint(path: str | pathlib.Path, grid: Grid) -> State:
    """Restore a checkpoint onto a grid of matching shape."""
    return read_states(path, [grid]).states[0]
