"""Block-compiled interpreter (:mod:`repro.gpusim.blockc`) parity tests.

The block-compiled tier is an execution *strategy*, not a semantics
change: every test here runs the same program per-step and
block-compiled and asserts the observable state — memory, counters,
stdout, output files, trap identity, dmesg — is identical.  Coverage
follows the fallback matrix in ``docs/performance.md``: straight-line
blocks, guarded instructions inside blocks, mid-block memory traps,
watchdog exhaustion at a block-interior instruction, clock readers,
and campaign-level results.csv parity across serial/batch
executors (a fault injected at a block-interior dynamic instruction
rides the instrumented step path while every other launch runs
compiled blocks).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch_injector import BatchExecutor
from repro.core.campaign import CampaignConfig
from repro.core.engine import CampaignEngine
from repro.core.injector import TransientInjectorTool
from repro.core.pf_injector import PermanentInjectorTool
from repro.core.store import CampaignStore
from repro.cuda.driver import CudaFunction
from repro.errors import MemoryViolation, WatchdogTimeout
from repro.gpusim import blockc
from repro.gpusim.device import Device
from repro.nvbit.api import NVBitRuntime
from repro.runner.sandbox import SandboxConfig, run_app
from repro.sass import assemble
from repro.sass.isa import opcode_by_id
from repro.workloads import WORKLOAD_CLASSES, get_workload
from tests.conftest import read_u32
from tests.gpusim.helpers import run_tool_both_ways

WORKLOAD_NAMES = [cls.name for cls in WORKLOAD_CLASSES]

# Fig 3's permanent-fault programs (the benchmark's perm-suite).
PERM_PROGRAMS = ("370.bt", "303.ostencil", "354.cg", "359.miniGhost")


def _device(block_compile: bool, **kwargs) -> Device:
    return Device(
        num_sms=2, global_mem_bytes=1 << 20, block_compile=block_compile,
        **kwargs,
    )


def _differential(text: str, name: str, grid, block, out_words: int,
                  params=None, **device_kwargs):
    """Run one kernel per-step and block-compiled; assert identical state.

    Returns ``(step_device, blockc_device, step_out, blockc_out)`` so
    callers can add mode-specific assertions (e.g. that blocks engaged).
    """
    results = {}
    for block_compile in (False, True):
        device = _device(block_compile, **device_kwargs)
        out = device.malloc(4 * out_words)
        kernel = assemble(text).get(name)
        device.launch(kernel, grid, block, [out] + list(params or []))
        results[block_compile] = (device, read_u32(device, out, out_words))
    step_dev, step_out = results[False]
    bc_dev, bc_out = results[True]
    assert (step_out == bc_out).all()
    assert step_dev.instructions_executed == bc_dev.instructions_executed
    assert step_dev.cycles == bc_dev.cycles
    assert step_dev.dmesg == bc_dev.dmesg
    assert step_dev.blockc_block_hits == 0
    assert bc_dev.blockc_block_hits > 0
    return step_dev, bc_dev, step_out, bc_out


class TestWorkloadDifferential:
    """Every workload, golden run, step vs block-compiled: artifacts equal."""

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_golden_run_parity(self, name):
        step = run_app(
            get_workload(name), config=SandboxConfig(block_compile=False)
        )
        compiled = run_app(
            get_workload(name), config=SandboxConfig(block_compile=True)
        )
        assert step.instructions_executed == compiled.instructions_executed
        assert step.cycles == compiled.cycles
        assert step.stdout == compiled.stdout
        assert step.files == compiled.files
        assert step.exit_status == compiled.exit_status
        assert step.dmesg == compiled.dmesg
        assert step.blockc_block_hits == 0
        assert compiled.blockc_blocks_compiled > 0
        assert compiled.blockc_block_hits > 0


class TestStraightLineParity:
    def test_guarded_instructions_inside_block(self):
        """Guards are the one mask that stays per-instruction inside a
        block (predicates mutate mid-block); both polarities, plus a
        predicate written *between* the guarded consumers."""
        text = """
.kernel guarded
.params 1
    S2R R1, SR_TID.X ;
    MOV R9, c[0x0][0x0] ;
    ISCADD R10, R1, R9, 2 ;
    LOP.AND R2, R1, 1 ;
    ISETP.NE P0, R2, RZ ;
    MOV R3, 100 ;
@P0 IADD R3, R3, 23 ;
@!P0 IADD R3, R3, 7 ;
    ISETP.GE P0, R1, 16 ;
@P0 IADD R3, R3, 1000 ;
    STG.32 [R10], R3 ;
    EXIT ;
"""
        _, _, step_out, _ = _differential(text, "guarded", 1, 32, 32)
        lanes = np.arange(32)
        expected = np.where(lanes % 2 == 1, 123, 107) + np.where(
            lanes >= 16, 1000, 0
        )
        assert (step_out == expected).all()

    def test_read_modify_write_in_block(self):
        """Register sources are read as views in specialized blocks; an
        instruction whose destination is also a source must still see the
        pre-write value (the handler's defensive-copy semantics)."""
        text = """
.kernel rmw
.params 1
    S2R R1, SR_TID.X ;
    MOV R9, c[0x0][0x0] ;
    ISCADD R10, R1, R9, 2 ;
    IADD R1, R1, R1 ;
    IADD R1, R1, 5 ;
    IMAD R1, R1, R1, R1 ;
    LOP.XOR R1, R1, R1 ;
    IADD R1, R1, 3 ;
    STG.32 [R10], R1 ;
    EXIT ;
"""
        _, _, step_out, _ = _differential(text, "rmw", 1, 32, 32)
        assert (step_out == 3).all()

    def test_clock_reader_splits_block(self):
        """``SR_CLOCK`` observes the tick counter mid-block; the reader
        must be stepped individually so the observed value matches the
        per-instruction schedule exactly."""
        text = """
.kernel clocked
.params 1
    S2R R1, SR_TID.X ;
    MOV R9, c[0x0][0x0] ;
    ISCADD R10, R1, R9, 2 ;
    IADD R2, R1, 7 ;
    IMAD R3, R2, R2, R1 ;
    CS2R R4, SR_CLOCK ;
    IADD R5, R4, R3 ;
    STG.32 [R10], R4 ;
    EXIT ;
"""
        _differential(text, "clocked", 2, 64, 128)


class TestMidBlockTraps:
    def test_memory_violation_at_block_interior(self):
        """A store that faults mid-block must roll back the bulk tick
        charge: trap identity, counters and dmesg all match stepping."""
        text = """
.kernel trapper
.params 1
    MOV R1, c[0x0][0x0] ;
    IADD R2, R1, 4 ;
    MOV R3, 7 ;
    MOV R4, 0x7f000000 ;
    STG.32 [R4], R3 ;
    IADD R5, R3, 1 ;
    STG.32 [R1], R5 ;
    EXIT ;
"""
        outcomes = {}
        for block_compile in (False, True):
            device = _device(block_compile)
            out = device.malloc(64)
            kernel = assemble(text).get("trapper")
            with pytest.raises(MemoryViolation) as exc_info:
                device.launch(kernel, 1, 32, [out])
            outcomes[block_compile] = (
                str(exc_info.value),
                device.instructions_executed,
                device.cycles,
                device.dmesg,
                bytes(read_u32(device, out, 16)),
            )
        assert outcomes[False] == outcomes[True]

    def test_watchdog_exhaustion_at_block_interior(self):
        """The scheduler only runs a block whole when the watchdog budget
        has headroom for all of it — exhaustion must trap at the exact
        same dynamic instruction as stepping."""
        text = """
.kernel spinner
    MOV R1, RZ ;
LOOP:
    IADD R2, R1, 3 ;
    IMAD R3, R2, R2, R1 ;
    LOP.XOR R4, R3, R2 ;
    IADD R1, R1, 1 ;
    BRA LOOP ;
"""
        outcomes = {}
        for block_compile in (False, True):
            device = _device(block_compile, instruction_budget=500)
            kernel = assemble(text).get("spinner")
            with pytest.raises(WatchdogTimeout) as exc_info:
                device.launch(kernel, 1, 32, [])
            outcomes[block_compile] = (
                exc_info.value.args,
                device.instructions_executed,
                device.cycles,
                device.dmesg,
            )
        assert outcomes[False] == outcomes[True]
        assert outcomes[True][1] == 501  # trapped at the crossing tick


class TestTickN:
    """``tick_n(n)`` must be exactly equivalent to ``n`` ``tick()`` calls."""

    def test_bulk_equals_stepped(self):
        bulk, stepped = Device(num_sms=1), Device(num_sms=1)
        bulk.tick_n(37)
        for _ in range(37):
            stepped.tick()
        assert bulk.instructions_executed == stepped.instructions_executed
        assert bulk.cycles == stepped.cycles

    def test_cycle_override(self):
        device = Device(num_sms=1)
        device.tick_n(10, cycles=250)
        assert device.instructions_executed == 10
        assert device.cycles == 250

    def test_budget_crossing_raises(self):
        device = Device(num_sms=1, instruction_budget=5)
        device.tick_n(5)
        with pytest.raises(WatchdogTimeout):
            device.tick_n(3)
        assert device.dmesg  # Xid logged, exactly as tick() does

    def test_untick_rolls_back(self):
        device = Device(num_sms=1)
        device.tick_n(10)
        device.untick(4)
        assert device.instructions_executed == 6
        assert device.cycles == 6


class TestCompilationCache:
    _SRC = """
.kernel cached
.params 1
    MOV R1, c[0x0][0x0] ;
    IADD R2, R1, 1 ;
    IMAD R3, R2, R2, R1 ;
    STG.32 [R1], R3 ;
    EXIT ;
"""

    def test_layout_shared_across_instances(self):
        """Two kernel objects assembled from the same source share one
        compiled layout (the process-global content-keyed cache) while
        binding their own instruction objects."""
        a = assemble(self._SRC).get("cached")
        b = assemble(self._SRC).get("cached")
        ca = blockc.compiled_for(a)
        cb = blockc.compiled_for(b)
        assert ca.fingerprint == cb.fingerprint
        assert blockc._CODE_CACHE[ca.fingerprint] is (
            blockc._CODE_CACHE[cb.fingerprint]
        )
        assert ca is not cb

    def test_cached_on_kernel_instance(self):
        kernel = assemble(self._SRC).get("cached")
        assert blockc.compiled_for(kernel) is blockc.compiled_for(kernel)

    def test_invalidate_forces_rebuild(self):
        kernel = assemble(self._SRC).get("cached")
        compiled = blockc.compiled_for(kernel)
        blockc.invalidate(kernel)
        rebuilt = blockc.compiled_for(kernel)
        assert rebuilt is not compiled
        assert rebuilt.fingerprint == compiled.fingerprint

    def test_want_blocks_upgrades_table_only_entry(self):
        kernel = assemble(self._SRC).get("cached")
        table_only = blockc.compiled_for(kernel, want_blocks=False)
        assert table_only.blocks is None
        upgraded = blockc.compiled_for(kernel, want_blocks=True)
        assert upgraded.blocks is not None
        assert upgraded.num_blocks > 0
        # The upgrade sticks; a later table-only request sees the blocks.
        assert blockc.compiled_for(kernel, want_blocks=False) is upgraded

    def test_same_length_rewrite_rebuilds(self):
        """The historical staleness bug: an in-place rewrite of equal
        length must rebuild the compiled tables, not serve stale dispatch."""
        kernel = assemble(self._SRC).get("cached")
        donor = assemble(self._SRC.replace("IADD R2, R1, 1", "MOV R2, R1")).get(
            "cached"
        )
        compiled = blockc.compiled_for(kernel)
        kernel.instructions[1] = donor.instructions[1]
        rebuilt = blockc.compiled_for(kernel)
        assert rebuilt is not compiled
        assert rebuilt.fingerprint != compiled.fingerprint

    def test_fingerprint_covers_branch_targets(self):
        """Identical instruction text, different label placement: the
        fingerprints must differ (a jump lands on a different pc)."""
        before = """
.kernel k
    MOV R1, RZ ;
    BRA SKIP ;
    IADD R1, R1, 1 ;
SKIP:
    IADD R1, R1, 2 ;
    EXIT ;
"""
        after = """
.kernel k
    MOV R1, RZ ;
    BRA SKIP ;
    IADD R1, R1, 1 ;
    IADD R1, R1, 2 ;
SKIP:
    EXIT ;
"""
        fp_a = blockc.content_fingerprint(assemble(before).get("k").instructions)
        fp_b = blockc.content_fingerprint(assemble(after).get("k").instructions)
        assert fp_a != fp_b


class TestCampaignParity:
    """A full injection campaign — faults land at block-interior dynamic
    instructions; the instrumented target launch steps while every other
    launch runs compiled blocks — must produce byte-identical results.csv
    with the tier on or off, across the serial and batch executors."""

    _WORKLOAD = "314.omriq"
    _FAULTS = 6
    _SEED = 13

    def _run(self, tmp_path, label, block_compile, executor=None):
        store_dir = tmp_path / label
        engine = CampaignEngine(
            self._WORKLOAD,
            CampaignConfig(
                workload=self._WORKLOAD,
                num_transient=self._FAULTS,
                seed=self._SEED,
                sandbox=SandboxConfig(block_compile=block_compile),
            ),
            store=CampaignStore(store_dir),
            executor=executor,
        )
        engine.run_transient()
        return (store_dir / "results.csv").read_bytes()

    def test_results_csv_byte_identical_across_executors(self, tmp_path):
        baseline = self._run(tmp_path, "step-serial", block_compile=False)
        assert self._run(tmp_path, "bc-serial", True) == baseline
        assert self._run(
            tmp_path, "bc-batch", True, executor=BatchExecutor()
        ) == baseline


class TestHookedLaunchParity:
    """Instrumented launches run compiled blocks between their hooked pcs.

    Hooked pcs always step, so callbacks fire at the same dynamic
    instructions with the same counters, and every observable result is
    identical with the tier on or off.
    """

    @pytest.mark.parametrize("program", PERM_PROGRAMS)
    def test_permanent_injector(self, program):
        engine = CampaignEngine(program, CampaignConfig(workload=program))
        engine.run_profile()
        sites = [
            site for site in engine.select_permanent()
            if opcode_by_id(site.opcode_id).name in ("FFMA", "ISETP", "LDG")
        ]
        assert len(sites) == 3
        for site in sites:
            runs = run_tool_both_ways(
                program, lambda: PermanentInjectorTool(site)
            )
            step_tool, compiled_tool = runs[False][1], runs[True][1]
            assert step_tool.activations > 0
            assert step_tool.activations == compiled_tool.activations
            assert step_tool.opportunities == compiled_tool.opportunities
            assert runs[True][0].blockc_block_hits > 0

    def test_transient_injector(self):
        program = "303.ostencil"
        engine = CampaignEngine(
            program, CampaignConfig(workload=program, seed=5)
        )
        for params in engine.select_sites(4):
            runs = run_tool_both_ways(
                program, lambda: TransientInjectorTool(params)
            )
            step_record = runs[False][1].record
            assert step_record.injected
            assert step_record.to_text() == runs[True][1].record.to_text()


# pc 1 and pc 7 are hooked below: the block [2, 7) holds the faulting
# store and ends next to a hooked pc.
_TRAP_NEXT_TO_HOOK = """
.kernel trapper
.params 1
    MOV R1, c[0x0][0x0] ;
    IADD R2, R1, 4 ;
    MOV R3, 7 ;
    MOV R4, 0x7f000000 ;
    STG.32 [R1], R3 ;
    STG.32 [R4], R3 ;
    IADD R5, R3, 1 ;
    FADD R6, R3, R3 ;
    STG.32 [R2], R5 ;
    EXIT ;
"""

# pc 4 is hooked below: the loop body's block [1, 4) ends next to it.
_SPIN_NEXT_TO_HOOK = """
.kernel spinner
    MOV R1, RZ ;
LOOP:
    IADD R2, R1, 3 ;
    IMAD R3, R2, R2, R1 ;
    LOP.XOR R4, R3, R2 ;
    IADD R1, R1, 1 ;
    BRA LOOP ;
"""


def _hooked_launch(text, name, hooked_pcs, block_compile, block=32,
                   out_words=0, **device_kwargs):
    """Launch with a before and an after callback at each hooked pc.

    Returns ``(device, raised, log, out)``: the exception (or ``None``),
    one ``(point, pc, instructions_executed, cycles)`` entry per callback
    and the first ``out_words`` words of the output buffer.
    """
    device = _device(block_compile, **device_kwargs)
    log = []

    def callback(point):
        def record(site):
            log.append((
                point, site.instr.pc, device.instructions_executed,
                device.cycles,
            ))
        return record

    hooks = {
        pc: ([callback("before")], [callback("after")]) for pc in hooked_pcs
    }
    out = device.malloc(4 * max(out_words, 1))
    raised = None
    try:
        device.launch(assemble(text).get(name), 1, block, [out], hooks=hooks)
    except (MemoryViolation, WatchdogTimeout) as exc:
        raised = exc
    return device, raised, log, bytes(read_u32(device, out, out_words))


def _hooked_both_ways(*args, **kwargs):
    """``_hooked_launch`` stepped and block-compiled: assert that the
    outcome, counters, dmesg, callback log and output all match, and
    return the block-compiled run."""
    step = _hooked_launch(*args, block_compile=False, **kwargs)
    compiled = _hooked_launch(*args, block_compile=True, **kwargs)
    (s_dev, s_exc, s_log, s_out), (c_dev, c_exc, c_log, c_out) = step, compiled
    assert type(s_exc) is type(c_exc) and str(s_exc) == str(c_exc)
    assert s_dev.instructions_executed == c_dev.instructions_executed
    assert s_dev.cycles == c_dev.cycles
    assert s_dev.dmesg == c_dev.dmesg
    assert s_log == c_log and s_log
    assert s_out == c_out
    assert s_dev.blockc_block_hits == 0
    return compiled


class TestHookedLaunchEdges:
    def test_memory_violation_in_block_next_to_hooked_pc(self):
        device, raised, _, _ = _hooked_both_ways(
            _TRAP_NEXT_TO_HOOK, "trapper", {1, 7}, block=64, out_words=2,
        )
        assert isinstance(raised, MemoryViolation)
        assert device.blockc_block_hits > 0

    def test_watchdog_in_block_next_to_hooked_pc(self):
        # 1 + 5k instructions precede each loop iteration; a budget of
        # 5k + 2 crosses at the iteration's IMAD, inside the block [1, 4).
        device, raised, log, _ = _hooked_both_ways(
            _SPIN_NEXT_TO_HOOK, "spinner", {4}, instruction_budget=502,
        )
        assert isinstance(raised, WatchdogTimeout)
        assert device.instructions_executed == 503
        assert device.blockc_block_hits > 0
        assert len(log) == 2 * 100  # 100 full iterations reached pc 4

    def test_sparse_hooks_run_blocks(self):
        """A launch hooked at one pc runs the rest of the kernel compiled,
        with callbacks seeing the counters stepping would show."""
        text = """
.kernel sparse
.params 1
    S2R R1, SR_TID.X ;
    MOV R9, c[0x0][0x0] ;
    ISCADD R10, R1, R9, 2 ;
    IADD R2, R1, 7 ;
    IMAD R3, R2, R2, R1 ;
    FADD R4, R3, R3 ;
    IADD R5, R3, R2 ;
    LOP.XOR R6, R5, R1 ;
    STG.32 [R10], R6 ;
    EXIT ;
"""
        device, raised, log, _ = _hooked_both_ways(
            text, "sparse", {5}, block=96, out_words=96,
        )
        assert raised is None
        assert len(log) == 2 * 3  # before and after, once per warp
        assert device.blockc_block_hits == 2 * 3  # [0, 5) and [6, 9) per warp


class TestHookedLayouts:
    _SRC = """
.kernel two
.params 1
    MOV R1, c[0x0][0x0] ;
    IADD R2, R1, 1 ;
    BRA NEXT ;
NEXT:
    IMAD R3, R2, R2, R1 ;
    IADD R4, R3, 1 ;
    STG.32 [R1], R4 ;
    EXIT ;
"""

    def test_hooked_pcs_split_blocks(self):
        kernel = assemble(self._SRC).get("two")
        compiled = blockc.compiled_for(kernel, breaks=frozenset({4}))
        hooked = compiled.layouts[frozenset({4})]
        spans = [(b.start, b.end) for b in hooked if b is not None]
        assert spans == [(0, 2), (3, 4), (5, 6)]

    def test_unsplit_blocks_shared(self):
        """A span no hooked pc splits is bound once per kernel instance and
        compiled once per process."""
        kernel = assemble(self._SRC).get("two")
        plain = blockc.compiled_for(kernel).blocks
        compiled = blockc.compiled_for(kernel, breaks=frozenset({4}))
        hooked = compiled.layouts[frozenset({4})]
        assert hooked[0] is plain[0]
        assert hooked[3] is not plain[3]
        code = blockc._CODE_CACHE[compiled.fingerprint]
        cached = dict(code)
        other = assemble(self._SRC).get("two")
        device = _device(True)
        blockc.compiled_for(other, device, breaks=frozenset({4}))
        assert dict(code) == cached  # nothing recompiled
        assert device.blockc_blocks_compiled == 3  # but bound afresh

    def test_invalidate_instrumented_drops_hooked_layouts(self):
        kernel = assemble(self._SRC).get("two")
        compiled = blockc.compiled_for(kernel, breaks=frozenset({4}))
        runtime = NVBitRuntime()
        runtime.invalidate_instrumented(CudaFunction(kernel, module=None))
        rebuilt = blockc.compiled_for(kernel, want_blocks=False)
        assert rebuilt is not compiled
        assert rebuilt.layouts == {}
