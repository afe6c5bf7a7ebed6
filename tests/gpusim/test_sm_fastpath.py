"""The SM's slice loop and pre-resolved handler tables.

Every launch dispatches through ``_run_slice_fast``: each instruction's
handler resolved once per kernel instead of ``HANDLERS.get(opcode)`` per
dynamic instruction, compiled blocks where the tier is on, and hooked pcs
stepped with their callbacks.  These tests pin the invariant that all of
it is an *optimisation only* — counts, state and trap behaviour are
identical with instrumentation on or off and with block compilation on
or off.
"""

import pytest

from repro.core.profiler import ProfilerTool, ProfilingMode
from repro.cuda.driver import CudaEvent
from repro.errors import DeviceTrap
from repro.gpusim.device import Device
from repro.gpusim.sm import _CONTROL, _handler_table
from repro.nvbit.instr import IPoint
from repro.nvbit.tool import NVBitTool
from repro.runner.app import AppContext, Application
from repro.runner.sandbox import run_app
from repro.sass import assemble
from repro.sass.operands import Reg
from repro.workloads import get_workload
from tests.gpusim.helpers import run_tool_both_ways

_KERNEL = """
.kernel mixed
.params 1
    MOV R1, RZ ;
    MOV R2, c[0x0][0x0] ;
    PBK DONE ;
LOOP:
    ISETP.GE P0, R1, R2 ;
@P0 BRK ;
    IADD R1, R1, 1 ;
    BRA LOOP ;
DONE:
    EXIT ;
"""


class MixedApp(Application):
    name = "sm_fastpath_app"

    def run(self, ctx: AppContext) -> None:
        module = ctx.cuda.load_module(_KERNEL)
        func = ctx.cuda.get_function(module, "mixed")
        for count in (3, 7):
            ctx.cuda.launch(func, 2, 48, count)


class _NoopTool(NVBitTool):
    """Instruments every instruction with a do-nothing callback, forcing
    every launch down the hooked (slow) dispatch path."""

    name = "noop"

    def nvbit_at_cuda_event(self, driver, event, payload, is_exit) -> None:
        if event is CudaEvent.LAUNCH_KERNEL and not is_exit:
            for instr in self.nvbit.get_instrs(payload.func):
                instr.insert_call(lambda site: None, IPoint.AFTER)
            self.nvbit.enable_instrumented(payload.func, True)


class TestFastPathParity:
    def test_dynamic_counts_match_hooked_path(self):
        """The fast path must retire exactly the instructions the hooked
        path retires (instrumentation charges cycles, never instructions)."""
        fast = run_app(MixedApp())
        hooked = run_app(MixedApp(), preload=[_NoopTool()])
        assert fast.instructions_executed == hooked.instructions_executed
        assert fast.warps_launched == hooked.warps_launched
        assert (
            fast.divergence_depth_high_water
            == hooked.divergence_depth_high_water
        )

    def test_profiled_counts_unchanged(self):
        """The profiler (hooked path) still sees every executed lane; its
        total equals the uninstrumented run's retirement count scaled by
        active lanes — pinned here via two identical profiling runs."""
        profiler_a = ProfilerTool(ProfilingMode.EXACT)
        profiler_b = ProfilerTool(ProfilingMode.EXACT)
        run_app(MixedApp(), preload=[profiler_a])
        run_app(MixedApp(), preload=[profiler_b])
        assert profiler_a.profile.to_text() == profiler_b.profile.to_text()
        assert profiler_a.profile.total_count() > 0


class _SourceRewriteTool(NVBitTool):
    """Before every FADD, flips the low bit of lane 5's first source
    register: the instruction must consume the rewritten value whether
    or not the code around it runs compiled."""

    name = "source_rewrite"

    def __init__(self) -> None:
        super().__init__()
        self.rewrites = 0
        self._instrumented = set()

    def nvbit_at_cuda_event(self, driver, event, payload, is_exit) -> None:
        if event is not CudaEvent.LAUNCH_KERNEL or is_exit:
            return
        func = payload.func
        if func not in self._instrumented:
            for instr in self.nvbit.get_instrs(func):
                if instr.get_opcode_short() == "FADD":
                    instr.insert_call(self._rewrite, IPoint.BEFORE)
            self._instrumented.add(func)
        self.nvbit.enable_instrumented(func, True)

    def _rewrite(self, site) -> None:
        source = site.instr.sources[0]
        if isinstance(source, Reg) and not source.is_rz and site.exec_mask[5]:
            site.write_reg(5, source.index, site.read_reg(5, source.index) ^ 1)
            self.rewrites += 1


class TestBlockCompileUnderTools:
    """Instrumented launches run compiled blocks between hooked pcs; what
    the tools see and what the program computes is unchanged."""

    def test_profiler(self):
        runs = run_tool_both_ways(
            "354.cg", lambda: ProfilerTool(ProfilingMode.EXACT)
        )
        step_profile = runs[False][1].profile
        assert step_profile.total_count() > 0
        assert step_profile.to_text() == runs[True][1].profile.to_text()

    def test_before_callback_rewriting_a_source(self):
        program = "303.ostencil"
        runs = run_tool_both_ways(program, _SourceRewriteTool)
        assert runs[False][1].rewrites > 0
        assert runs[False][1].rewrites == runs[True][1].rewrites
        assert runs[True][0].blockc_block_hits > 0
        golden = run_app(get_workload(program))
        assert runs[True][0].files != golden.files  # the rewrites took effect


class TestHandlerTable:
    def test_table_cached_on_kernel(self):
        kernel = assemble(_KERNEL).get("mixed")
        table = _handler_table(kernel)
        assert _handler_table(kernel) is table
        assert len(table) == len(kernel.instructions)

    def test_table_rebuilt_when_instructions_change(self):
        kernel = assemble(_KERNEL).get("mixed")
        table = _handler_table(kernel)
        kernel.instructions = kernel.instructions[:-1]
        rebuilt = _handler_table(kernel)
        assert rebuilt is not table
        assert len(rebuilt) == len(kernel.instructions)

    def test_table_rebuilt_on_same_length_rewrite(self):
        """Regression: the cache historically keyed on length alone, so an
        in-place rewrite of equal length kept serving stale dispatch.  The
        identity check must catch a single swapped instruction."""
        kernel = assemble(_KERNEL).get("mixed")
        donor = assemble(_KERNEL.replace("IADD R1, R1, 1", "MOV R1, R2")).get(
            "mixed"
        )
        table = _handler_table(kernel)
        index = next(
            i for i, instr in enumerate(kernel.instructions)
            if instr.opcode == "IADD"
        )
        kernel.instructions[index] = donor.instructions[index]
        rebuilt = _handler_table(kernel)
        assert rebuilt is not table
        assert rebuilt[index] is not table[index]

    def test_control_opcodes_marked(self):
        kernel = assemble(_KERNEL).get("mixed")
        table = _handler_table(kernel)
        opcodes = [instr.opcode for instr in kernel.instructions]
        for opcode, entry in zip(opcodes, table):
            if opcode in ("PBK", "BRK", "BRA", "EXIT"):
                assert entry is _CONTROL
            else:
                assert callable(entry) and entry is not _CONTROL

    def test_unknown_opcode_traps_only_when_executed(self, device=None):
        """Pre-resolution must not turn load-time resolution failures into
        launch-time errors: an unexecuted unknown opcode stays harmless."""
        device = Device(num_sms=1, global_mem_bytes=1 << 20)
        benign = assemble(
            ".kernel k\n    BRA END ;\n    HADD2 R0, R1, R2 ;\nEND:\n    EXIT ;"
        ).get("k")
        device.launch(benign, 1, 32, [])  # jumps over the unknown opcode

        trapping = assemble(
            ".kernel k\n    HADD2 R0, R1, R2 ;\n    EXIT ;"
        ).get("k")
        with pytest.raises(DeviceTrap, match="no execution semantics"):
            device.launch(trapping, 1, 32, [])
