"""Run the real NumPy model "on" the virtual GPU — the paper's Fig. 1
execution flow.

``GpuAsucaRunner`` wires an :class:`~repro.core.model.AsucaModel` to a
:class:`~repro.gpu.device.GPUDevice`:

* ``upload()`` stages the initial state into device arrays (charging PCIe
  time once, like the paper's "Initial data" arrow);
* its :meth:`~GpuAsucaRunner.driver` steps the *actual* numerics
  (bit-identical to running the model directly — the analogue of the
  paper's "agree within machine round-off" check is exact equality here)
  and charges the modeled kernel times of every long step to the device
  timeline;
* ``download()`` fetches only the output fields (the paper: "minimum
  necessary data are transferred from the GPU").

Afterwards the device reports the modeled sustained GFlops, which is how
the single-GPU benchmark numbers connect to real executions of the
reproduction.
"""
from __future__ import annotations

from dataclasses import replace

from ..core.model import AsucaModel, Driver
from ..core.state import State
from .asuca_kernels import DEFAULT_NS, step_schedule
from .coalescing import ArrayOrder
from .device import GPUDevice, LaunchTable
from .kernel import Kernel
from .memory import DeviceArray
from .spec import DeviceSpec, Precision, TESLA_S1070

__all__ = ["GpuAsucaRunner", "charge_step", "price_step"]


def price_step(schedule: list[tuple[Kernel, int]], n_points: float,
               spec: DeviceSpec, *, precision: Precision,
               order: ArrayOrder) -> LaunchTable:
    """Price one long step's launches once: a
    :class:`~repro.gpu.device.LaunchTable` of ``(name, tag, launches per
    step, n_points, duration, flops, bytes moved)`` per kernel of
    ``schedule`` (:func:`~repro.gpu.asuca_kernels.step_schedule`) on a
    device of ``spec``.  None of it depends on the data, so a driver
    calls this when it attaches its devices, not every step; a priced
    duration that is negative or not finite raises ValueError naming its
    kernel."""
    return LaunchTable((kernel.name, kernel.tag, count, n_points,
                        *kernel.price(n_points, spec, precision, order))
                       for kernel, count in schedule)


def charge_step(device: GPUDevice, table: LaunchTable, *, hook=None,
                step_index: int = 0, state: State | None = None) -> None:
    """Place one long step's modeled kernel launches (:func:`price_step`,
    priced for ``device.spec``) on ``device``'s default stream as one
    run (:meth:`~repro.gpu.device.GPUDevice.place_run`).
    A :class:`~repro.gpu.counters.CountingHook` as ``hook`` measures the
    kernels against ``state`` on the steps it samples, and those steps'
    launches carry the measured counts."""
    measured = None
    if hook is not None and hook.begin_step(step_index, state):
        measured = []
        for name, _, count, n_points, *_ in table.rows:
            measured += [hook.annotate(name, n_points, count)] * count
    device.place_run(device.default_stream, table, measured=measured)


class GpuAsucaRunner:
    """Executes model steps with device-time accounting.

    The charged schedule follows the model's ``ice_enabled``; ``ns``
    defaults to :data:`~repro.gpu.asuca_kernels.DEFAULT_NS`, not the
    model's own substep count, because the runner prices the paper's
    production schedule (``BENCH_roofline.json``'s ``time_share`` values
    depend on it)."""

    def __init__(
        self,
        model: AsucaModel,
        device: GPUDevice | None = None,
        *,
        precision: Precision = Precision.SINGLE,
        order: ArrayOrder = ArrayOrder.XZY,
        ns: int | None = None,
        counters: bool = False,
        counter_every: int = 1,
    ):
        self.model = model
        self.device = device or GPUDevice(TESLA_S1070)
        self.precision = precision
        self.order = order
        g = model.grid
        self.n_points = g.nx * g.ny * g.nz
        self._launches = price_step(
            step_schedule(ns or DEFAULT_NS,
                          include_ice=model.config.ice_enabled),
            self.n_points, self.device.spec, precision=precision, order=order)
        self._device_arrays: dict[str, DeviceArray] = {}
        self.steps_taken = 0
        #: optional :class:`~repro.gpu.counters.CountingHook` measuring
        #: per-launch FLOP/byte counts (``counters=True``); sampling every
        #: Nth step bounds the measurement overhead
        self.counting = None
        if counters:
            from .counters import CountingHook

            self.counting = CountingHook(
                model.grid, model.ref,
                precision=precision, sample_every=counter_every,
            )

    # ------------------------------------------------------------- staging
    def upload(self, state: State) -> None:
        """Stage the prognostic fields into device memory (Fig. 1 input
        transfer).  Capacity accounting raises MemoryError exactly like
        the paper's 4 GB limit.  Re-uploading frees and replaces any
        previously staged arrays, so repeated uploads never leak modeled
        device memory."""
        for name in state.prognostic_names():
            stale = self._device_arrays.pop(name, None)
            if stale is not None:
                stale.free()
            arr = state.get(name)
            d = DeviceArray(self.device, arr.shape, arr.dtype, self.order,
                            name=name)
            d.copy_from_host(arr, tag="init")
            self._device_arrays[name] = d

    def teardown(self) -> None:
        """Free every staged device array (end-of-run cleanup; the
        sanitizer's leak-at-teardown check keys on this having happened)."""
        for d in self._device_arrays.values():
            d.free()
        self._device_arrays.clear()

    def sync_device(self, state: State) -> None:
        """Overwrite the staged device copies with ``state`` without
        charging PCIe time (a restored checkpoint: the restore cost is
        the checkpoint layer's); with nothing staged yet, upload it."""
        if not self._device_arrays:
            self.upload(state)
            return
        for name, d in self._device_arrays.items():
            d.fill_from(state.get(name))

    def download(self, state: State, names: list[str] | None = None) -> None:
        """Fetch output fields to the host (Fig. 1 output transfer),
        writing the device data into the caller's state arrays."""
        for name in names or ["rhou", "rhov", "rhow", "rhotheta"]:
            d = self._device_arrays.get(name)
            if d is not None:
                d.copy_to_host(state.get(name), tag="output")

    # ---------------------------------------------------------------- step
    def driver(self) -> Driver:
        """The model's one-domain driver on this device: its scatter
        stages the state (:meth:`sync_device`), and every step charges
        the modeled kernel launches to the device."""
        one = self.model.driver()

        def charge(stepped: list[State], new: list[State], index: int):
            if one.charge is not None:      # a relaxing model's refill
                one.charge(stepped, new, index)
            charge_step(self.device, self._launches, hook=self.counting,
                        step_index=self.steps_taken, state=stepped[0])
            # keep the staged device copies current (no PCIe traffic:
            # device-resident data, the whole point of the full-GPU port)
            for name, d in self._device_arrays.items():
                d.fill_from(new[0].get(name))
            self.steps_taken += 1

        def stage(state: State) -> list[State]:
            self.sync_device(state)
            return [state]

        return replace(one, scatter=stage, charge=charge, runner=self)

    # ---------------------------------------------------------- reporting
    def sustained_gflops(self) -> float:
        return self.device.sustained_flops() / 1e9

    def modeled_step_time(self) -> float:
        """Average modeled device time per long step taken so far."""
        if self.steps_taken == 0:
            return 0.0
        return self.device.busy_time("kernel") / self.steps_taken
