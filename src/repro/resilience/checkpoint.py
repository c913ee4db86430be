"""Checkpoint/restart: atomic on-disk snapshots of full run state.

:func:`write_states` and :func:`read_states` are the one State codec
(:class:`CheckpointManager` and ``repro.history.save_checkpoint`` /
``load_checkpoint`` both call them).  A checkpoint stores, per rank,
every prognostic array *including halos* (so the continuation is
bit-identical by construction), plus the step counter, model time,
species list, accumulated precipitation, and an optional NumPy RNG
state; a single-domain run is the one-rank special case.

Format 2 is an uncompressed ``.npz``: a checkpoint is rewritten every few
steps and must cost a copy, not a deflate.  The zip container still keeps
and verifies a CRC-32 per member.  An array whose bytes are all zero
(:func:`~repro.core.state.zero_bits`: a lone ``-0.0`` keeps the array) is
not stored; the manifest lists it under ``zeros`` as ``[key, shape,
dtype]``.  Format 1 (deflated, no ``zeros``) reads through the same code.
The species are stored sorted by name and read back in the model's order
(:data:`~repro.constants.WATER_SPECIES`, then any other by name), so a
restored state has the layout of a state the model made: the run goes
on with its stage state and its captured step (:mod:`repro.core.program`).

A manager writes the ``identity`` of its run's initial-value problem into
the manifest (:meth:`repro.api.RunSpec.problem_hash`) and refuses, with
the error it raises for a damaged archive, one that carries another: jobs
and ensemble members that share a directory share archive names, and
shapes alone do not tell their snapshots apart.

Writes are atomic: the archive is written to a ``*.tmp`` sibling, fsynced
and ``os.replace``d into place, and only then is the ``latest`` marker
(itself replaced atomically) updated — a kill at any instant leaves
either the previous consistent checkpoint set or the new one, never a
torn file (tests/resilience/test_checkpoint.py).

Checkpoints are taken at long-step boundaries only, where the RK3/HE-VI
integrator holds no transient phase state; the manifest records this as
``phase = "long_step_boundary"``.
"""
from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass, field

import numpy as np

from ..constants import WATER_SPECIES
from ..core.grid import Grid
from ..core.state import State, zero_bits
from ..obs.trace import active_session, span

__all__ = ["Checkpoint", "CheckpointError", "CheckpointManager",
           "read_states", "write_states"]

_FORMAT_VERSION = 2
#: the dynamic fields of a State and the Grid attribute holding their shape
_FIELD_SHAPES = {"rho": "shape_c", "rhou": "shape_u", "rhov": "shape_v",
                 "rhow": "shape_w", "rhotheta": "shape_c"}


class CheckpointError(ValueError):
    """The archive at ``path`` (step ``step``, None outside a manager's
    directory) cannot be decoded: truncated, failing a CRC, not an archive,
    or of a format this reader does not know."""

    def __init__(self, path, step: int | None, cause: BaseException):
        super().__init__(f"unreadable checkpoint {path}: "
                         f"{type(cause).__name__}: {cause}")
        self.path = pathlib.Path(path)
        self.step = step


@dataclass
class Checkpoint:
    """One restored checkpoint: per-rank states plus its bookkeeping."""

    step: int
    time: float
    states: list[State]
    path: pathlib.Path
    meta: dict = field(default_factory=dict)
    rng_state: dict | None = None


def write_states(path: "str | os.PathLike", states: list[State], *,
                 step: int = 0, rng: np.random.Generator | None = None,
                 meta: dict | None = None) -> tuple[int, int]:
    """Atomically write ``states`` (one per rank) to ``path``; returns
    ``(bytes written, arrays elided as all-zero)``."""
    path = pathlib.Path(path)
    arrays: dict[str, np.ndarray] = {}
    for r, st in enumerate(states):
        for name in st.prognostic_names():
            arrays[f"r{r}/{name}"] = st.get(name)
        if st.precip_accum is not None:
            arrays[f"r{r}/precip_accum"] = st.precip_accum
    zeros = [[key, list(a.shape), a.dtype.str]
             for key, a in arrays.items() if zero_bits(a)]
    for key, _, _ in zeros:
        del arrays[key]
    manifest = {
        "format_version": _FORMAT_VERSION,
        "step": step,
        "time": states[0].time,
        "n_ranks": len(states),
        "phase": "long_step_boundary",
        "zeros": zeros,
        "stored_bytes": sum(a.nbytes for a in arrays.values()),
        **(meta or {}),
    }
    if rng is not None:
        manifest["rng_state"] = rng.bit_generator.state
    arrays["manifest"] = np.frombuffer(
        json.dumps(manifest).encode(), dtype=np.uint8)
    arrays["species"] = np.array(sorted(states[0].q), dtype="U8")

    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            np.savez(f, **arrays)
            f.flush()
            os.fsync(f.fileno())
            nbytes = f.tell()
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)     # only there if the write raised
    return nbytes, len(zeros)


def read_states(path: "str | os.PathLike", grids: list[Grid], *,
                step: int | None = None,
                identity: str | None = None) -> Checkpoint:
    """Restore the archive at ``path`` onto the per-rank ``grids``.  One
    this reader cannot decode, or one whose manifest names an ``identity``
    other than the given one (an archive without the key belongs to
    anybody), raises :class:`CheckpointError` (tagged with ``step``); a
    sound one that does not fit ``grids``, :class:`ValueError`."""
    path = pathlib.Path(path)
    with open(path, "rb") as f:         # a missing file is not a damaged one
        try:
            with np.load(f) as z:
                manifest = json.loads(bytes(z["manifest"]).decode())
                if manifest["format_version"] not in (1, _FORMAT_VERSION):
                    raise ValueError("unsupported checkpoint format "
                                     f"{manifest['format_version']}")
                if manifest.get("identity", identity) != identity:
                    raise ValueError("written by another run (identity "
                                     f"{manifest['identity']})")
                arrays = {key: z[key] for key in z.files if key != "manifest"}
            for key, shape, dtype in manifest.get("zeros", ()):
                arrays[key] = np.zeros(shape, dtype)
            species = sorted(map(str, arrays["species"]), key=lambda n: (
                WATER_SPECIES.index(n) if n in WATER_SPECIES
                else len(WATER_SPECIES), n))
            ranks = [{name: arrays[f"r{r}/{name}"]
                      for name in (*_FIELD_SHAPES, *species)}
                     for r in range(int(manifest["n_ranks"]))]
            ckpt = Checkpoint(
                step=int(manifest["step"]), time=float(manifest["time"]),
                states=[], path=path, meta=manifest,
                rng_state=manifest.get("rng_state"))
        except Exception as exc:
            raise CheckpointError(path, step, exc) from exc
    if len(ranks) != len(grids):
        raise ValueError(f"checkpoint holds {len(ranks)} ranks, caller "
                         f"supplied {len(grids)} grids")
    for r, (grid, members) in enumerate(zip(grids, ranks)):
        for name, attr in _FIELD_SHAPES.items():
            if members[name].shape != getattr(grid, attr):
                raise ValueError(
                    f"rank {r} field {name} has shape "
                    f"{members[name].shape}, grid expects "
                    f"{getattr(grid, attr)}")
        q = {name: members.pop(name) for name in species}
        ckpt.states.append(State(
            grid=grid, q=q, time=ckpt.time,
            precip_accum=arrays.get(f"r{r}/precip_accum"), **members))
    return ckpt


class CheckpointManager:
    """Writes and restores run checkpoints under one directory.

    Parameters
    ----------
    directory
        where ``ckpt-STEP.npz`` archives and the ``latest`` marker live.
    every
        checkpoint cadence in long steps (0 disables :meth:`due`).
    keep
        how many archives to retain; older ones are pruned after each
        successful write (the marker is updated first, so pruning can
        never remove the newest consistent checkpoint).
    identity
        what tells this run's archives from another run's in the same
        directory (None: every archive is taken for this run's).
    """

    def __init__(self, directory: str | os.PathLike, *, every: int = 0,
                 keep: int = 2, identity: str | None = None):
        if every < 0:
            raise ValueError("checkpoint cadence must be >= 0")
        if keep < 1:
            raise ValueError("must keep at least one checkpoint")
        self.directory = pathlib.Path(directory)
        self.every = every
        self.keep = keep
        self.identity = identity
        self.writes = 0
        self.restores = 0

    # -------------------------------------------------------------- paths
    def path_for(self, step: int) -> pathlib.Path:
        return self.directory / f"ckpt-{step:08d}.npz"

    @property
    def _marker(self) -> pathlib.Path:
        return self.directory / "latest"

    def due(self, step: int) -> bool:
        """Is a checkpoint owed after completing long step ``step``?"""
        return self.every > 0 and step > 0 and step % self.every == 0

    # -------------------------------------------------------------- write
    def save(self, step: int, states: "State | list[State]", *,
             rng: np.random.Generator | None = None,
             meta: dict | None = None) -> pathlib.Path:
        """Atomically write one checkpoint; returns its path."""
        if isinstance(states, State):
            states = [states]
        if not states:
            raise ValueError("nothing to checkpoint")
        path = self.path_for(step)
        if self.identity is not None:
            meta = {"identity": self.identity, **(meta or {})}
        with span("checkpoint_write", cat="resilience", step=step):
            nbytes, n_zeros = write_states(path, states, step=step, rng=rng,
                                           meta=meta)
            mtmp = self._marker.with_suffix(".tmp")
            mtmp.write_text(f"{step}\n")
            os.replace(mtmp, self._marker)
        self.writes += 1
        sess = active_session()
        if sess is not None:
            sess.metrics.counter("checkpoint.writes").inc()
            sess.metrics.counter("checkpoint.bytes").inc(nbytes)
            sess.metrics.counter("checkpoint.zero_arrays").inc(n_zeros)
        self._prune()
        return path

    def _steps(self) -> list[int]:
        """Steps of the archives on disk, newest first."""
        return sorted((int(p.stem.split("-")[1])
                       for p in self.directory.glob("ckpt-*.npz")),
                      reverse=True)

    def _prune(self) -> None:
        for step in self._steps()[self.keep:]:
            self.path_for(step).unlink(missing_ok=True)

    # --------------------------------------------------------------- read
    def latest_step(self) -> int | None:
        """Newest consistent checkpoint step, or None if there is none."""
        try:
            step = int(self._marker.read_text().strip())
            if self.path_for(step).exists():
                return step
        except (OSError, ValueError):
            pass
        # marker missing/stale: fall back to scanning the archives
        return next(iter(self._steps()), None)

    def load(self, grids: "Grid | list[Grid]",
             step: int | None = None) -> Checkpoint:
        """Restore the checkpoint at ``step`` onto the given per-rank grids
        (a single grid restores a one-rank run).  With no ``step``: the
        latest one, or the newest older one that is neither damaged nor
        another run's; the last :class:`CheckpointError` is raised when
        none reads."""
        if isinstance(grids, Grid):
            grids = [grids]
        if step is not None:
            return self._load(grids, step)
        latest = self.latest_step()
        if latest is None:
            raise FileNotFoundError(
                f"no checkpoint found under {self.directory}")
        steps = [s for s in self._steps() if s <= latest]
        for step in steps:
            try:
                return self._load(grids, step)
            except CheckpointError:
                if step == steps[-1]:
                    raise

    def _load(self, grids: list[Grid], step: int) -> Checkpoint:
        with span("checkpoint_restore", cat="resilience", step=step):
            ckpt = read_states(self.path_for(step), grids, step=step,
                               identity=self.identity)
        self.restores += 1
        sess = active_session()
        if sess is not None:
            sess.metrics.counter("checkpoint.restores").inc()
        return ckpt
