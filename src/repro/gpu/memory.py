"""Device memory: allocation accounting, layouts, and host<->device
transfers.

Allocation is tracked against the device's capacity so the paper's
memory-limit observations are reproducible (Sec. IV-B: "The amount of
memory on Tesla S1070 (4 GByte) limits a grid size to no more than
320 x 256 x 48 in single precision" — and half that extent in double).
Transfers really move the data (``np.copyto``) and charge PCIe time on the
device timeline.

Every array has a stable ``buffer`` identity and notifies the device's
optional ``memcheck`` hook (see
:class:`repro.analysis.memcheck.MemcheckTracker`) on alloc, free and each
transfer — the instrumentation points behind the sanitizer's
use-after-free / double-free / leak / uninitialized-read checks.  The
hooks are plain attribute calls, so this module stays free of analysis
imports and costs one ``None`` check when no tracker is attached.
"""
from __future__ import annotations

import numpy as np

from .coalescing import ArrayOrder
from .device import Access, Event, GPUDevice, Stream

__all__ = ["DeviceArray", "DeviceAllocator", "max_grid_fits"]

#: Effective number of resident 3-D fields of the full-GPU ASUCA: 5
#: dynamical prognostics + 7 water substances, each with long-step base
#: copies, RK-stage values, slow tendencies, acoustic work arrays,
#: pressure/EOS diagnostics and halo-packing buffers.  Calibrated so that
#: 320 x 256 x 48 in single precision is the largest (ny multiple of 32)
#: mesh fitting a 4 GiB Tesla S1070 and 320 x 128 x 48 the largest in
#: double precision — exactly the paper's Sec. IV-B statements.
ASUCA_RESIDENT_FIELDS = 256


class DeviceArray:
    """An array resident in (virtual) device memory."""

    def __init__(self, device: GPUDevice, shape: tuple[int, ...], dtype,
                 order: ArrayOrder = ArrayOrder.XZY, *, name: str = ""):
        self.device = device
        self.order = order
        self.data = np.zeros(shape, dtype=dtype)
        #: stable identity for access declarations and lifecycle findings
        self.buffer = f"{name or 'arr'}@{device.label}#{device._alloc_seq}"
        device._alloc_seq += 1
        device_mem = self.data.nbytes
        if device.allocated_bytes + device_mem > device.spec.mem_capacity:
            raise MemoryError(
                f"device OOM: {device.allocated_bytes + device_mem} B needed, "
                f"{device.spec.mem_capacity} B capacity ({device.spec.name})"
            )
        device.allocated_bytes += device_mem
        self._freed = False
        #: set by the first H2D copy or device-side write; a D2H copy of a
        #: never-written array is the sanitizer's uninitialized-read case
        self._initialized = False
        if device.memcheck is not None:
            device.memcheck.on_alloc(self)

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    def free(self) -> None:
        """Release the modeled allocation.  Idempotent — a second call
        never double-decrements the device accounting, but it is reported
        as a double-free when a memcheck tracker is attached."""
        if self.device.memcheck is not None:
            self.device.memcheck.on_free(self, redundant=self._freed)
        if not self._freed:
            self.device.allocated_bytes -= self.data.nbytes
            self._freed = True

    # ------------------------------------------------------- transfers
    def copy_from_host(self, host: np.ndarray, stream: Stream | None = None,
                       *, tag: str = "") -> Event:
        """cudaMemcpyAsync(H2D) analogue: move data now, charge PCIe time
        on the stream.  Returns an event marking completion."""
        if self.device.memcheck is not None:
            self.device.memcheck.on_transfer(self, "h2d")
        np.copyto(self.data, host)
        self._initialized = True
        return self._charge("h2d", host.nbytes, stream, tag, mode="w")

    def copy_to_host(self, host: np.ndarray, stream: Stream | None = None,
                     *, tag: str = "") -> Event:
        if self.device.memcheck is not None:
            self.device.memcheck.on_transfer(self, "d2h")
        np.copyto(host, self.data)
        return self._charge("d2h", host.nbytes, stream, tag, mode="r")

    def fill_from(self, src: np.ndarray) -> None:
        """Overwrite the device copy in place with no PCIe accounting —
        a device-side (kernel) write, e.g. the step loop keeping resident
        fields current, or checkpoint restore re-seeding staged arrays."""
        if self.device.memcheck is not None:
            self.device.memcheck.on_device_write(self)
        np.copyto(self.data, src)
        self._initialized = True

    def _charge(self, kind: str, nbytes: int, stream: Stream | None, tag: str,
                *, mode: str) -> Event:
        dev = self.device
        stream = stream or dev.default_stream
        duration = nbytes / dev.spec.pcie_bandwidth
        op = dev.schedule(f"{kind}:{nbytes}B", kind, stream, duration,
                          bytes_moved=nbytes, tag=tag,
                          accesses=(Access(self.buffer, mode),))
        return Event(op.end, op=op)


class DeviceAllocator:
    """Helper answering 'does this grid fit?' for capacity planning."""

    def __init__(self, device: GPUDevice, n_fields: int = ASUCA_RESIDENT_FIELDS):
        self.device = device
        self.n_fields = n_fields

    def grid_bytes(self, nx: int, ny: int, nz: int, itemsize: int) -> int:
        return nx * ny * nz * itemsize * self.n_fields

    def fits(self, nx: int, ny: int, nz: int, itemsize: int) -> bool:
        return self.grid_bytes(nx, ny, nz, itemsize) <= self.device.spec.mem_capacity


def max_grid_fits(
    capacity: int, nx: int, nz: int, itemsize: int,
    n_fields: int = ASUCA_RESIDENT_FIELDS,
) -> int:
    """Largest ny such that (nx, ny, nz) fits — regenerates the paper's
    320 x 256 x 48 (SP) / 320 x 128 x 48 (DP) observations."""
    per_y = nx * nz * itemsize * n_fields
    return capacity // per_y
