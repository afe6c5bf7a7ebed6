"""Driver API tests: modules, memory, launches, the sticky-error model."""

import numpy as np
import pytest

from repro.cuda.driver import CudaDriver, CudaEvent
from repro.cuda.errorcodes import CudaError
from repro.gpusim.device import (
    INSTRUMENTATION_FIXED_CYCLES,
    INSTRUMENTATION_PER_THREAD_CYCLES,
    JIT_COMPILE_CYCLES,
)
from repro.nvbit import IPoint, NVBitRuntime
from repro.sass import assemble, encode_module

_VADD = """
.kernel vadd
.params 3
    S2R R1, SR_TID.X ;
    MOV R2, c[0x0][0x0] ;
    ISCADD R3, R1, R2, 2 ;
    LDG.32 R4, [R3] ;
    MOV R5, c[0x0][0x4] ;
    ISCADD R6, R1, R5, 2 ;
    LDG.32 R7, [R6] ;
    IADD R8, R4, R7 ;
    MOV R9, c[0x0][0x8] ;
    ISCADD R10, R1, R9, 2 ;
    STG.32 [R10], R8 ;
    EXIT ;
"""

_BAD_LOAD = """
.kernel bad
    MOV32I R1, 0x2 ;
    LDG.32 R0, [R1] ;
    EXIT ;
"""


@pytest.fixture
def driver(device):
    return CudaDriver(device)


class TestModules:
    def test_load_from_text(self, driver):
        module = driver.cuModuleLoadData(_VADD, name="m")
        assert "vadd" in module.functions

    def test_load_from_binary(self, driver):
        blob = encode_module(assemble(_VADD))
        module = driver.cuModuleLoadData(blob, name="bin")
        assert driver.cuModuleGetFunction(module, "vadd").name == "vadd"

    def test_get_function_missing(self, driver):
        module = driver.cuModuleLoadData(_VADD)
        with pytest.raises(KeyError, match="available"):
            driver.cuModuleGetFunction(module, "nope")


class TestMemoryAndLaunch:
    def test_end_to_end(self, driver):
        module = driver.cuModuleLoadData(_VADD)
        func = driver.cuModuleGetFunction(module, "vadd")
        a = driver.cuMemAlloc(4 * 32)
        b = driver.cuMemAlloc(4 * 32)
        c = driver.cuMemAlloc(4 * 32)
        driver.cuMemcpyHtoD(a, np.full(32, 2, np.uint32).tobytes())
        driver.cuMemcpyHtoD(b, np.full(32, 3, np.uint32).tobytes())
        result = driver.cuLaunchKernel(func, 1, 32, [a, b, c])
        assert result is CudaError.SUCCESS
        out = np.frombuffer(driver.cuMemcpyDtoH(c, 4 * 32), np.uint32)
        assert (out == 5).all()

    def test_mem_free(self, driver):
        address = driver.cuMemAlloc(256)
        driver.cuMemFree(address)  # no error

    def test_invalid_config_is_error_code(self, driver):
        module = driver.cuModuleLoadData(_VADD)
        func = driver.cuModuleGetFunction(module, "vadd")
        result = driver.cuLaunchKernel(func, 1, 4096, [0, 0, 0])
        assert result is CudaError.ERROR_INVALID_CONFIGURATION


class TestStickyErrors:
    def test_misaligned_access(self, driver):
        module = driver.cuModuleLoadData(_BAD_LOAD)
        func = driver.cuModuleGetFunction(module, "bad")
        result = driver.cuLaunchKernel(func, 1, 1, [])
        assert result is CudaError.ERROR_MISALIGNED_ADDRESS
        assert driver.cuCtxSynchronize() is CudaError.ERROR_MISALIGNED_ADDRESS

    def test_get_last_error_clears(self, driver):
        module = driver.cuModuleLoadData(_BAD_LOAD)
        func = driver.cuModuleGetFunction(module, "bad")
        driver.cuLaunchKernel(func, 1, 1, [])
        assert driver.cuGetLastError() is CudaError.ERROR_MISALIGNED_ADDRESS
        assert driver.cuGetLastError() is CudaError.SUCCESS

    def test_process_survives_kernel_fault(self, driver):
        """Paper §IV-A: a GPU fault kills the kernel, not the process."""
        bad_module = driver.cuModuleLoadData(_BAD_LOAD)
        good_module = driver.cuModuleLoadData(_VADD)
        bad = driver.cuModuleGetFunction(bad_module, "bad")
        good = driver.cuModuleGetFunction(good_module, "vadd")
        driver.cuLaunchKernel(bad, 1, 1, [])
        a = driver.cuMemAlloc(128)
        b = driver.cuMemAlloc(128)
        c = driver.cuMemAlloc(128)
        driver.cuMemcpyHtoD(a, b"\x01" * 128)
        driver.cuMemcpyHtoD(b, b"\x01" * 128)
        assert driver.cuLaunchKernel(good, 1, 32, [a, b, c]) is CudaError.SUCCESS

    def test_error_log_accumulates(self, driver):
        module = driver.cuModuleLoadData(_BAD_LOAD)
        func = driver.cuModuleGetFunction(module, "bad")
        driver.cuLaunchKernel(func, 1, 1, [])
        driver.cuLaunchKernel(func, 1, 1, [])
        assert len(driver.error_log) == 2

    def test_dmesg_xid_recorded(self, driver, device):
        module = driver.cuModuleLoadData(_BAD_LOAD)
        func = driver.cuModuleGetFunction(module, "bad")
        driver.cuLaunchKernel(func, 1, 1, [])
        assert any("Xid" in line for line in device.dmesg)


class TestEventDispatch:
    def test_events_fire_in_order(self, device):
        events = []

        class Spy:
            def dispatch_event(self, driver, event, payload, is_exit):
                events.append((event, is_exit))

            def active_hooks(self, func):
                return None

        driver = CudaDriver(device, interceptor=Spy())
        module = driver.cuModuleLoadData(_VADD)
        func = driver.cuModuleGetFunction(module, "vadd")
        a = driver.cuMemAlloc(128)
        driver.cuLaunchKernel(func, 1, 32, [a, a, a])
        kinds = [e for e, _ in events]
        assert kinds[0] is CudaEvent.CTX_CREATE
        assert CudaEvent.MODULE_LOAD in kinds
        launch_events = [x for x in events if x[0] is CudaEvent.LAUNCH_KERNEL]
        assert launch_events == [
            (CudaEvent.LAUNCH_KERNEL, False),
            (CudaEvent.LAUNCH_KERNEL, True),
        ]


class TestModuleImageCache:
    """Every load of one image shares its kernels (assembled once per
    process) but gets its own handles and NVBit state."""

    _NOPS = ".kernel k\n    NOP ;\n    NOP ;\n    EXIT ;"

    def test_reload_shares_kernels_not_handles(self, driver):
        first = driver.cuModuleLoadData(_VADD, name="m")
        second = driver.cuModuleLoadData(_VADD, name="m")
        a = driver.cuModuleGetFunction(first, "vadd")
        b = driver.cuModuleGetFunction(second, "vadd")
        assert first is not second
        assert a is not b and a != b and len({a, b}) == 2
        assert a.kernel is b.kernel

    def test_module_name_is_part_of_the_key(self, driver):
        a = driver.cuModuleLoadData(_VADD, name="one").sass
        b = driver.cuModuleLoadData(_VADD, name="two").sass
        assert a is not b and (a.name, b.name) == ("one", "two")

    def test_instrumentation_state_per_handle(self, device):
        runtime = NVBitRuntime()
        driver = CudaDriver(device, interceptor=runtime)
        a, b = (
            driver.cuModuleGetFunction(driver.cuModuleLoadData(self._NOPS), "k")
            for _ in range(2)
        )
        for func in (a, b):
            for instr in runtime.get_instrs(func):
                instr.insert_call(lambda site: None, IPoint.AFTER)
        runtime.enable_instrumented(a, True)
        assert not runtime.is_instrumented_enabled(b)

        def launch_cycles(func):
            before = device.cycles
            assert driver.cuLaunchKernel(func, 1, 32, []) is CudaError.SUCCESS
            return device.cycles - before

        assert launch_cycles(b) == 3  # b runs the original kernel
        per_hook = INSTRUMENTATION_FIXED_CYCLES + 32 * INSTRUMENTATION_PER_THREAD_CYCLES
        assert launch_cycles(a) == 3 + 3 * per_hook + JIT_COMPILE_CYCLES
        runtime.enable_instrumented(b, True)
        # b pays its own JIT even though a's clone of the same kernel exists.
        assert launch_cycles(b) == 3 + 3 * per_hook + JIT_COMPILE_CYCLES
        assert launch_cycles(a) == 3 + 3 * per_hook
