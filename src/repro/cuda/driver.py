"""Miniature CUDA driver API over the simulated device.

This layer exists because NVBit's whole mechanism is interception of
*driver API events*: every ``cuLaunchKernel``, module load and memcpy fires
callbacks into attached instrumentation tools (the ``LD_PRELOAD``
analogue), and the launch path asks the NVBit runtime whether to run the
original kernel or its instrumented clone.

Failure model (paper §IV-A): a GPU-side fault terminates the current kernel
early and records a *sticky last error* plus an entry in the per-context
error log, but the process — and subsequent kernels — keep running unless
the host explicitly checks.  A host that never calls
:meth:`CudaDriver.cuGetLastError` / :meth:`cuCtxSynchronize` sails on with
possibly corrupt data (the "potential DUE" outcome).

Module images are assembled (or decoded) once per process: every later
load of the same image hands out the same :class:`~repro.sass.program.Kernel`
objects, so the blocks a campaign's golden run binds serve its injection
runs.  Each load still gets its own :class:`CudaModule` and
:class:`CudaFunction` handles, which compare by identity, so NVBit keeps
separate instrumentation state per load.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field
from typing import Any

from repro.cuda.errorcodes import CudaError
from repro.errors import (
    AllocationError,
    DeviceException,
    DeviceTrap,
    LaunchError,
    MemoryViolation,
    WatchdogTimeout,
)
from repro.gpusim.device import Device
from repro.sass.encoding import decode_module
from repro.sass.assembler import assemble
from repro.sass.program import Kernel, SassModule


class CudaEvent(enum.Enum):
    """Driver API callback ids (cbids) observable by NVBit tools."""

    CTX_CREATE = "cuCtxCreate"
    CTX_DESTROY = "cuCtxDestroy"
    MODULE_LOAD = "cuModuleLoadData"
    MEM_ALLOC = "cuMemAlloc"
    MEM_FREE = "cuMemFree"
    MEMCPY_HTOD = "cuMemcpyHtoD"
    MEMCPY_DTOH = "cuMemcpyDtoH"
    LAUNCH_KERNEL = "cuLaunchKernel"
    CTX_SYNCHRONIZE = "cuCtxSynchronize"


@dataclass(eq=False)
class CudaFunction:
    """A loaded kernel handle, equal only to itself: two loads of one
    image share a kernel but not their handles."""

    kernel: Kernel
    module: "CudaModule"

    @property
    def name(self) -> str:
        return self.kernel.name


@dataclass
class CudaModule:
    """A loaded module (possibly a dynamically loaded library)."""

    sass: SassModule
    name: str
    is_library: bool = False
    functions: dict[str, CudaFunction] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for kernel in self.sass:
            self.functions[kernel.name] = CudaFunction(kernel, self)


@dataclass
class LaunchParams:
    """The cbid payload for LAUNCH_KERNEL events (mutable by tools)."""

    func: CudaFunction
    grid: tuple[int, int, int] | int
    block: tuple[int, int, int] | int
    args: list[int]
    shared_bytes: int = 0
    error: CudaError = CudaError.SUCCESS


# Assembled or decoded modules by (image, name), oldest first; the bound
# keeps a long-lived process from growing without limit.
_IMAGE_CACHE_SIZE = 16
_images: dict[tuple[str | bytes, str], SassModule] = {}
_images_lock = threading.Lock()


def _load_image(image: str | bytes, name: str) -> SassModule:
    """The module of ``image``, built on its first load in this process."""
    key = (image, name)
    with _images_lock:
        sass = _images.get(key)
    if sass is None:
        if isinstance(image, bytes):
            sass = decode_module(image, name=name)
        else:
            sass = assemble(image, module_name=name)
        with _images_lock:
            sass = _images.setdefault(key, sass)
            while len(_images) > _IMAGE_CACHE_SIZE:
                del _images[next(iter(_images))]
    return sass


class CudaDriver:
    """One driver instance == one CUDA context on one device."""

    def __init__(
        self, device: Device, interceptor: Any = None, replay: Any = None
    ) -> None:
        self.device = device
        self.interceptor = interceptor  # the NVBit runtime, if attached
        # Golden-replay fast-forward (repro.gpusim.replay.ReplayCursor):
        # while memory equals golden, launches that need not simulate apply
        # the recorded golden delta instead; with tail fast-forward the
        # cursor also tracks divergence after a simulated launch (the device
        # calls its begin/end launch hooks) and replays again once state
        # re-converges.
        self.replay = replay
        if replay is not None:
            device.replay_tracker = replay
        self.last_error = CudaError.SUCCESS
        self.error_log: list[tuple[CudaError, str]] = []
        self.modules: list[CudaModule] = []
        self._dispatch(CudaEvent.CTX_CREATE, None, is_exit=False)
        self._dispatch(CudaEvent.CTX_CREATE, None, is_exit=True)

    # -- module management ---------------------------------------------------

    def cuModuleLoadData(
        self, image: str | bytes, name: str = "<module>", is_library: bool = False
    ) -> CudaModule:
        """Load a module from SASS text or a binary cubin blob."""
        sass = _load_image(image, name)
        module = CudaModule(sass=sass, name=name, is_library=is_library)
        self.modules.append(module)
        self._dispatch(CudaEvent.MODULE_LOAD, module, is_exit=False)
        self._dispatch(CudaEvent.MODULE_LOAD, module, is_exit=True)
        return module

    def cuModuleGetFunction(self, module: CudaModule, name: str) -> CudaFunction:
        try:
            return module.functions[name]
        except KeyError:
            raise KeyError(
                f"no kernel {name!r} in module {module.name!r}; "
                f"available: {sorted(module.functions)}"
            ) from None

    # -- memory ------------------------------------------------------------------

    def cuMemAlloc(self, nbytes: int) -> int:
        self._dispatch(CudaEvent.MEM_ALLOC, nbytes, is_exit=False)
        try:
            address = self.device.malloc(nbytes)
        except AllocationError:
            self._record(CudaError.ERROR_OUT_OF_MEMORY, f"cuMemAlloc({nbytes})")
            raise
        self._dispatch(CudaEvent.MEM_ALLOC, address, is_exit=True)
        return address

    def cuMemFree(self, address: int) -> None:
        self._dispatch(CudaEvent.MEM_FREE, address, is_exit=False)
        self.device.free(address)
        self._dispatch(CudaEvent.MEM_FREE, address, is_exit=True)

    def cuMemcpyHtoD(self, address: int, payload: bytes) -> CudaError:
        self._dispatch(CudaEvent.MEMCPY_HTOD, (address, len(payload)), is_exit=False)
        try:
            self.device.global_mem.write_bytes(address, payload)
            if self.replay is not None:
                # Tail tracking: the payload is golden-identical (host state
                # cannot have diverged while the DtoH/error guards hold), so
                # it is mirrored into the golden shadow.
                self.replay.note_host_write(address, bytes(payload))
            result = CudaError.SUCCESS
        except MemoryViolation as exc:
            result = self._record(CudaError.ERROR_ILLEGAL_ADDRESS, str(exc))
        self._dispatch(CudaEvent.MEMCPY_HTOD, (address, len(payload)), is_exit=True)
        return result

    def cuMemcpyDtoH(self, address: int, nbytes: int) -> bytes:
        self._dispatch(CudaEvent.MEMCPY_DTOH, (address, nbytes), is_exit=False)
        data = self.device.global_mem.read_bytes(address, nbytes)
        if self.replay is not None:
            # Tail tracking: reading a divergent page makes the divergence
            # host-visible, which turns the cursor off.
            self.replay.note_host_read(address, nbytes)
        self._dispatch(CudaEvent.MEMCPY_DTOH, (address, nbytes), is_exit=True)
        return data

    # -- launch ----------------------------------------------------------------

    def cuLaunchKernel(
        self,
        func: CudaFunction,
        grid,
        block,
        args: list[int] | None = None,
        shared_bytes: int = 0,
    ) -> CudaError:
        """Launch a kernel; GPU faults become sticky errors, not exceptions."""
        params = LaunchParams(func, grid, block, list(args or []), shared_bytes)
        self._dispatch(CudaEvent.LAUNCH_KERNEL, params, is_exit=False)
        hooks = None
        if self.interceptor is not None:
            compiles_before = getattr(self.interceptor, "jit_compile_count", 0)
            hooks = self.interceptor.active_hooks(func)
            compiles_after = getattr(self.interceptor, "jit_compile_count", 0)
            for _ in range(compiles_after - compiles_before):
                self.device.charge_jit_compile()
        try:
            replayed = None
            if self.replay is not None:
                from repro.gpusim.device import _as_dim3

                replayed = self.replay.consult(
                    self.device,
                    func.name,
                    _as_dim3(grid),
                    _as_dim3(block),
                    params.args,
                    shared_bytes,
                    instrumented=hooks is not None,
                )
            if replayed is not None:
                # Fast-forward: this launch is bit-identical to the golden
                # run, so restore its recorded write delta and counters
                # instead of simulating it.
                self.replay.apply(self.device, replayed)
            else:
                if self.device.launch_counter is not None:
                    # Counts are kept per function handle: two loads of
                    # one image share a kernel, not their handles.
                    self.device.launch_counter.note_function(func)
                self.device.launch(
                    func.kernel, grid, block, params.args, shared_bytes, hooks=hooks
                )
            result = CudaError.SUCCESS
        except LaunchError as exc:
            result = self._record(CudaError.ERROR_INVALID_CONFIGURATION, str(exc))
        except MemoryViolation as exc:
            code = (
                CudaError.ERROR_MISALIGNED_ADDRESS
                if exc.reason == "misaligned"
                else CudaError.ERROR_ILLEGAL_ADDRESS
            )
            result = self._record(code, str(exc))
        except WatchdogTimeout:
            # A hang: the sandbox monitor, not the driver, handles this.
            params.error = CudaError.ERROR_LAUNCH_TIMEOUT
            self._dispatch(CudaEvent.LAUNCH_KERNEL, params, is_exit=True)
            raise
        except DeviceTrap as exc:
            result = self._record(CudaError.ERROR_ILLEGAL_INSTRUCTION, str(exc))
        except DeviceException as exc:  # pragma: no cover - safety net
            result = self._record(CudaError.ERROR_LAUNCH_FAILED, str(exc))
        params.error = result
        self._dispatch(CudaEvent.LAUNCH_KERNEL, params, is_exit=True)
        return result

    # -- synchronisation / errors ---------------------------------------------

    def cuCtxSynchronize(self) -> CudaError:
        """Returns (without clearing) the sticky error, like cudaDeviceSynchronize."""
        self._dispatch(CudaEvent.CTX_SYNCHRONIZE, None, is_exit=False)
        self._dispatch(CudaEvent.CTX_SYNCHRONIZE, None, is_exit=True)
        return self.last_error

    def cuGetLastError(self) -> CudaError:
        """Returns and clears the sticky error, like cudaGetLastError."""
        error, self.last_error = self.last_error, CudaError.SUCCESS
        return error

    def shutdown(self) -> None:
        self._dispatch(CudaEvent.CTX_DESTROY, None, is_exit=False)
        self._dispatch(CudaEvent.CTX_DESTROY, None, is_exit=True)

    # -- internals -----------------------------------------------------------------

    def _record(self, code: CudaError, detail: str) -> CudaError:
        self.last_error = code
        self.error_log.append((code, detail))
        if self.replay is not None:
            # The golden run recorded no errors (a faulted golden launch
            # aborts recording), so any sticky error is an anomaly the host
            # may branch on: the tape may no longer describe the run.
            self.replay.note_cuda_error()
        return code

    def _dispatch(self, event: CudaEvent, payload: Any, is_exit: bool) -> None:
        if self.interceptor is not None:
            self.interceptor.dispatch_event(self, event, payload, is_exit)
