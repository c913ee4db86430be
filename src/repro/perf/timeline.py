"""Per-name timeline views of a :class:`~repro.gpu.device.GPUDevice`:
Fig. 9's per-name aggregates and a text Gantt chart for eyeballing the
overlap structure.  The busy/overlap aggregates (Fig. 11) are
:class:`repro.optimeline.OpStats`.
"""
from __future__ import annotations

from collections import defaultdict

from ..gpu.device import GPUDevice

__all__ = ["gantt_text", "busy_by_name"]


def busy_by_name(device: GPUDevice, prefix: str | None = None) -> dict[str, float]:
    """Total time per op name (optionally filtered by name prefix)."""
    out: dict[str, float] = defaultdict(float)
    for op in device.timeline:
        if prefix is None or op.name.startswith(prefix):
            out[op.name] += op.duration
    return dict(out)


def gantt_text(device: GPUDevice, *, width: int = 80, max_ops: int = 60) -> str:
    """ASCII Gantt chart of the first ``max_ops`` ops, one row per op,
    grouped by stream — a poor man's Fig. 8."""
    ops = device.timeline[:max_ops]
    if not ops:
        return "(empty timeline)"
    t1 = max(op.end for op in ops)
    scale = (width - 1) / t1 if t1 > 0 else 0.0
    lines = [f"timeline 0 .. {t1 * 1e3:.2f} ms ({len(ops)} ops shown)"]
    for op in ops:
        a = int(op.start * scale)
        b = max(a + 1, int(op.end * scale))
        bar = " " * a + "#" * (b - a)
        lines.append(f"s{op.stream} {op.kind:6s} |{bar:<{width}}| {op.name}")
    return "\n".join(lines)
