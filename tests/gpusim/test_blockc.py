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

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch_injector import BatchExecutor
from repro.core.campaign import CampaignConfig
from repro.core.engine import CampaignEngine
from repro.core.injector import TransientInjectorTool
from repro.core.pf_injector import PermanentInjectorTool
from repro.core.store import CampaignStore
from repro.cuda import driver as driver_module
from repro.cuda.driver import CudaFunction
from repro.errors import DeviceTrap, MemoryViolation, WatchdogTimeout
from repro.gpusim import blockc, exec_units
from repro.gpusim import sm as sm_module
from repro.gpusim.device import Device
from repro.gpusim.replay import ReplayRecorder
from repro.nvbit.api import NVBitRuntime
from repro.runner.sandbox import SandboxConfig, run_app
from repro.sass import assemble
from repro.sass.isa import SPECIAL_REGISTERS, opcode_by_id
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

    @pytest.fixture
    def cold_process(self, monkeypatch):
        """No module image loaded yet, as in a fresh process: the
        compiled run binds the program's blocks itself (later loads of
        an image share its kernels and their bound blocks)."""
        monkeypatch.setattr(driver_module, "_images", {})

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_golden_run_parity(self, name, cold_process):
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
        """Register sources are read as views in inlined block code; an
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


# Operand shapes of a value source (``{r}`` is its register) and of a
# predicate source, and the guards every shape runs under.
_SHAPES = (
    "{r}", "-{r}", "|{r}|", "-|{r}|", "RZ", "-RZ", "{imm0}", "{imm1}",
    "c[0x0][0x8]",
)
_PRED_SHAPES = ("P1", "!P1", "PT", "!PT")
_GUARDS = ("", "@P0 ", "@!P0 ", "@!PT ")
_IMMS = {"int": ("7", "-3"), "f32": ("2.5f", "-0.75f"), "f64": ("2.5f", "-0.75f")}

_CMPS = ("LT", "LE", "GT", "GE", "EQ", "NE")
# mnemonic -> (value sources, operand type, takes a predicate source);
# setp variants write P2, every other variant R20.
_VARIANTS = {
    **{op: (1, "int", False) for op in ("MOV", "MOV32I", "LOP.NOT")},
    **{op: (2, "int", False) for op in (
        "IADD", "IMUL", "IMUL.HI", "SHL", "SHR", "SHR.U32", "SHR.S32",
        "LOP.AND", "LOP.OR", "LOP.XOR",
    )},
    **{op: (3, "int", False) for op in ("IADD3", "IMAD", "ISCADD")},
    "SEL": (2, "int", True),
    **{op: (2, "f32", False) for op in ("FADD", "FMUL", "FMNMX", "FMNMX.MAX")},
    "FFMA": (3, "f32", False),
    "FSEL": (2, "f32", True),
    **{f"ISETP.{cmp}.AND": (2, "int", True) for cmp in _CMPS},
    **{f"ISETP.{cmp}.U32.AND": (2, "int", True) for cmp in _CMPS},
    **{f"FSETP.{cmp}.AND": (2, "f32", True) for cmp in _CMPS},
    **{f"DSETP.{cmp}.AND": (2, "f64", True) for cmp in _CMPS},
    **{f"{op}.LT.{combine}": (2, kind, True)
       for op, kind in (("ISETP", "int"), ("FSETP", "f32"), ("DSETP", "f64"))
       for combine in ("OR", "XOR")},
    **{f"SHFL.{mode}": (2, "int", False) for mode in ("IDX", "UP", "DOWN", "BFLY")},
    **{f"F2F{mods}": (1, "f32", False)
       for mods in ("", ".F32.F32", ".TRUNC", ".FLOOR", ".CEIL", ".F64.F32")},
    "F2F.F32.F64": (1, "f64", False),
    **{op: (2, "f64", False) for op in ("DADD", "DMUL", "DMNMX", "DMNMX.MAX")},
    "DFMA": (3, "f64", False),
}

# Variants whose destination is a register pair (R20:R21).
_PAIR_DESTS = frozenset({"DADD", "DMUL", "DFMA", "DMNMX", "DMNMX.MAX", "F2F.F64.F32"})

_SPECIAL_INTS = [
    0, 1, 2, 3, 31, 32, 33, 63, 64, 100, 255, 256, 0x7FFFFFFF, 0x80000000,
    0xFFFFFFFF, 0xFFFFFFFD, 0xFFFFFF9C,
]
_SPECIAL_F32 = [
    0x00000000, 0x80000000, 0x3F800000, 0xBF800000, 0x40200000, 0xBF400000,
    0x7F800000, 0xFF800000, 0x7FC00001, 0xFFC00000, 0x00000001, 0x7F7FFFFF,
    0x80800000,
]


def _shape_kernel(mnemonic: str) -> tuple[str, int]:
    """One kernel running ``mnemonic`` with every source shape under
    every guard; each result (or ``P2R`` of the predicates) is stored in
    its own 32-lane slot.  Returns ``(text, slots)``."""
    count, kind, takes_pred = _VARIANTS[mnemonic]
    setp = "SETP" in mnemonic
    pair = mnemonic in _PAIR_DESTS
    regs = [f"R{10 + 2 * i}" for i in range(count)]  # even: FP64 pairs
    imm0, imm1 = _IMMS[kind]
    # An FP64 read of c[..] traps (TestMalformedShapes covers it).
    shapes = [s for s in _SHAPES if kind != "f64" or not s.startswith("c[")]
    operand_lists = []
    # Each position takes every shape, the others registers, then the
    # others immediates (which is what makes a shift count immediate).
    for others in (regs, [imm0] * count):
        for pos in range(count):
            for shape in shapes:
                ops = list(others)
                ops[pos] = shape.format(r=regs[pos], imm0=imm0, imm1=imm1)
                operand_lists.append(ops + (["P1"] if takes_pred else []))
    if takes_pred:
        operand_lists.extend(list(regs) + [pred] for pred in _PRED_SHAPES)
    if setp:
        operand_lists.append(list(regs))  # no predicate source
    lines = [
        ".kernel shapes",
        ".params 3",
        "    S2R R50, SR_TID.X ;",
        "    MOV R51, c[0x0][0x0] ;",
        "    ISCADD R52, R50, R51, 2 ;",
        "    MOV R53, c[0x0][0x4] ;",
        "    ISCADD R53, R50, R53, 2 ;",
        *(f"    LDG.32 R{10 + i}, [R53+0x{128 * i:x}] ;" for i in range(6)),
        "    LDG.32 R4, [R53+0x300] ;",  # predicate bits
        "    LDG.32 R9, [R53+0x380] ;",  # destination sentinel
        "    R2P PT, R4 ;",
    ]
    slot = 0
    for ops in operand_lists:
        for guard in _GUARDS:
            if setp:
                lines.append("    R2P PT, R4 ;")
                lines.append(f"{guard}{mnemonic} P2, {', '.join(ops)} ;")
                lines.append("    P2R R20 ;")
            else:
                lines.append("    MOV R20, R9 ;")
                if pair:
                    lines.append("    MOV R21, R4 ;")
                lines.append(f"{guard}{mnemonic} R20, {', '.join(ops)} ;")
            lines.append(f"    STG.32 [R52+0x{128 * slot:x}], R20 ;")
            slot += 1
            if pair:
                lines.append(f"    STG.32 [R52+0x{128 * slot:x}], R21 ;")
                slot += 1
    lines.append("    EXIT ;")
    return "\n".join(lines), slot


def _shape_inputs(kind: str) -> tuple[np.ndarray, int]:
    """Eight 32-lane input rows (six source registers, predicate bits, a
    destination sentinel) and the ``c[0x0][0x8]`` value."""
    rng = np.random.default_rng(7)
    special = _SPECIAL_F32 if kind != "int" else _SPECIAL_INTS
    rows = []
    for _ in range(6):
        row = np.concatenate([
            special, rng.integers(0, 1 << 32, 32 - len(special), dtype=np.uint64),
        ]).astype(np.uint32)
        rows.append(rng.permutation(row))
    rows.append(rng.integers(0, 128, 32).astype(np.uint32))
    rows.append(rng.integers(0, 1 << 32, 32, dtype=np.uint64).astype(np.uint32))
    return np.concatenate(rows), 0xFFFFFFF5 if kind == "int" else 0xBFC00000


class TestTemplateShapes:
    """Every templated opcode and modifier variant, every operand shape,
    under every guard: the stepping handler and the block-inlined code
    generated from the opcode's template store the same bits."""

    @pytest.mark.parametrize("mnemonic", list(_VARIANTS))
    def test_stepped_matches_compiled(self, mnemonic):
        text, slots = _shape_kernel(mnemonic)
        inputs, const = _shape_inputs(_VARIANTS[mnemonic][1])
        results = {}
        for block_compile in (False, True):
            device = _device(block_compile)
            out = device.malloc(128 * slots)
            src = device.malloc(inputs.nbytes)
            device.global_mem.write_bytes(src, inputs.tobytes())
            device.launch(assemble(text).get("shapes"), 1, 32, [out, src, const])
            results[block_compile] = (
                bytes(read_u32(device, out, 32 * slots)),
                device.instructions_executed,
                device.cycles,
                device.blockc_block_hits,
            )
        assert results[False][:3] == results[True][:3]
        assert results[False][3] == 0 and results[True][3] > 0

    def test_special_registers(self):
        """S2R of every special register but SR_CLOCK (whose readers step),
        under every guard, in four 3-D CTAs of two warps each."""
        names = [name for name in SPECIAL_REGISTERS if name != "SR_CLOCK"]
        lines = [
            ".kernel sregs",
            ".params 1",
            "    S2R R1, SR_TID.X ;",
            "    S2R R2, SR_TID.Y ;",
            "    S2R R3, SR_TID.Z ;",
            "    S2R R4, SR_CTAID.X ;",
            "    S2R R5, SR_CTAID.Y ;",
            "    ISCADD R6, R2, R1, 4 ;",     # tid.x + 16 tid.y
            "    ISCADD R6, R3, R6, 5 ;",     # + 32 tid.z
            "    ISCADD R7, R5, R4, 1 ;",     # ctaid.x + 2 ctaid.y
            "    ISCADD R6, R7, R6, 6 ;",     # + 64 CTA index
            "    MOV R9, c[0x0][0x0] ;",
            "    ISCADD R10, R6, R9, 2 ;",
            "    LOP.AND R8, R6, 5 ;",
            "    ISETP.NE.AND P0, R8, RZ, PT ;",
        ]
        slot = 0
        for name in names:
            for guard in _GUARDS:
                lines.append("    MOV R20, 0x5a5a ;")
                lines.append(f"{guard}S2R R20, {name} ;")
                lines.append(f"    STG.32 [R10+0x{1024 * slot:x}], R20 ;")
                slot += 1
        lines.append("    CS2R R20, SRZ ;")
        lines.append(f"    STG.32 [R10+0x{1024 * slot:x}], R20 ;")
        lines.append("    EXIT ;")
        text = "\n".join(lines)
        results = {}
        for block_compile in (False, True):
            device = _device(block_compile)
            out = device.malloc(1024 * (slot + 1))
            device.launch(assemble(text).get("sregs"), (2, 2, 1), (16, 2, 2), [out])
            results[block_compile] = (
                read_u32(device, out, 256 * (slot + 1)),
                device.instructions_executed, device.cycles,
                device.blockc_block_hits,
            )
        (step, *step_counts), (compiled, *compiled_counts) = results[False], results[True]
        assert (step == compiled).all()
        assert step_counts[:2] == compiled_counts[:2]
        assert step_counts[2] == 0 and compiled_counts[2] > 0
        # Spot checks: lane ids, warp ids and CTA ids land where expected.
        rows = step.reshape(slot + 1, 4, 64)
        per_guard = len(_GUARDS)
        lane = rows[names.index("SR_LANEID") * per_guard]
        assert (lane == np.arange(64) % 32).all()
        warp = rows[names.index("SR_WARPID") * per_guard]
        assert (warp == np.arange(64) // 32).all()
        ctaid_y = rows[names.index("SR_CTAID.Y") * per_guard]
        assert (ctaid_y == np.array([0, 0, 1, 1])[:, None]).all()

    @pytest.mark.parametrize("combine", ["AND", "OR", "XOR"])
    def test_psetp(self, combine):
        """PSETP under every guard, every predicate shape in each source."""
        lines = [
            ".kernel psetp",
            ".params 2",
            "    S2R R50, SR_TID.X ;",
            "    MOV R51, c[0x0][0x0] ;",
            "    ISCADD R52, R50, R51, 2 ;",
            "    MOV R53, c[0x0][0x4] ;",
            "    ISCADD R53, R50, R53, 2 ;",
            "    LDG.32 R4, [R53] ;",
        ]
        shapes = ("P1", "!P1", "P3", "!P3", "PT", "!PT")
        slot = 0
        for a in shapes:
            for b in shapes:
                for guard in _GUARDS:
                    lines.append("    R2P PT, R4 ;")
                    lines.append(f"{guard}PSETP.{combine} P2, {a}, {b} ;")
                    lines.append("    P2R R20 ;")
                    lines.append(f"    STG.32 [R52+0x{128 * slot:x}], R20 ;")
                    slot += 1
        lines.append("    EXIT ;")
        text = "\n".join(lines)
        bits = np.random.default_rng(3).integers(0, 128, 32).astype(np.uint32)
        results = {}
        for block_compile in (False, True):
            device = _device(block_compile)
            out = device.malloc(128 * slot)
            src = device.malloc(bits.nbytes)
            device.global_mem.write_bytes(src, bits.tobytes())
            device.launch(assemble(text).get("psetp"), 1, 32, [out, src])
            results[block_compile] = (
                bytes(read_u32(device, out, 32 * slot)),
                device.instructions_executed, device.cycles,
                device.blockc_block_hits,
            )
        assert results[False][:3] == results[True][:3]
        assert results[False][3] == 0 and results[True][3] > 0

    def test_every_templated_opcode_has_a_shape_case(self):
        covered = {mnemonic.split(".")[0] for mnemonic in _VARIANTS}
        covered |= {"S2R", "CS2R", "PSETP"}  # their own tests above
        assert set(exec_units.LANE_OPS) <= covered

    def test_register_and_immediate_shapes_are_inlined(self):
        """The compiled tier inlines a template's statements; only shapes
        its reads cannot inline call the stepping handler: here an FP64
        read of ``c[..]``, which traps."""
        text = """
.kernel k
.params 1
    IADD R1, -|R2|, 7 ;
    FSEL R3, -R4, RZ, !PT ;
@!P0 ISETP.LT.U32.XOR P1, R1, RZ, !P2 ;
    IADD R5, R1, c[0x0][0x0] ;
    DSETP.LT.AND P1, R6, -R8, PT ;
    DADD R10, c[0x0][0x8], R8 ;
    S2R R12, SR_CTAID.X ;
    SHFL.DOWN R13, R5, c[0x0][0x4] ;
    PSETP.OR P3, !P1, PT ;
    F2F.F64.F32 R14, -R5 ;
    EXIT ;
"""
        instructions = assemble(text).get("k").instructions
        source = blockc._gen_block_source(instructions, 0, 10, blockc._ConstPool())
        calls = [line.strip() for line in source.splitlines() if "(warp, _i" in line]
        assert calls == ["_h5(warp, _i5, _a)"]


class TestBenchmarkKernelsInline:
    """Every instruction of the benchmark programs' kernels that can sit
    in a block runs inlined there: only ``RED``, a serial per-lane
    atomic, calls its handler."""

    @pytest.mark.parametrize("program", PERM_PROGRAMS)
    def test_no_block_calls_a_handler_but_red(self, program, monkeypatch):
        monkeypatch.setattr(driver_module, "_images", {})
        run_app(get_workload(program), config=SandboxConfig(block_compile=False))
        kernels = [
            kernel for sass in driver_module._images.values()
            for kernel in sass.kernels.values()
        ]
        assert kernels
        called = set()
        for kernel in kernels:
            instructions = kernel.instructions
            for start, end in blockc._block_spans(instructions, frozenset()):
                source = blockc._gen_block_source(
                    instructions, start, end, blockc._ConstPool()
                )
                called.update(
                    instructions[start + int(idx)].opcode
                    for idx in re.findall(r"_h(\d+)\(warp, _i", source)
                )
        assert called <= {"RED"}


_U32_EDGES = st.sampled_from([0, 1, 2, 31, 32, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF])
_U32 = st.one_of(_U32_EDGES, st.integers(0, 0xFFFFFFFF))
_IMM = st.one_of(_U32, st.integers(-64, -1).map(lambda v: v & 0xFFFFFFFF))


def _signed(value: int) -> int:
    return value - (1 << 32) if value & 0x80000000 else value


def _eval(op, rows) -> np.ndarray:
    """A template's expression over whole-warp source rows (uint32 bits),
    each read as its kind reads an immediate."""
    args = [
        None if kind is None else f"_v{i}" for i, kind in enumerate(op.reads)
    ]
    names = dict(exec_units.EXPR_NAMES)
    for i, kind in enumerate(op.reads):
        if kind is not None:
            names[f"_v{i}"] = exec_units._IMM_FORMS[kind](
                np.array(rows[i], dtype=np.uint32)
            )
    value = eval(op.expr.format(*args, mask="_mask"), names)
    return np.asarray(value).astype(np.int64).astype(np.uint32)


class TestNativeWidth:
    """The uint32 / int32 forms of the integer templates store the low 32
    bits of the exact Python-int result, as the int64 forms do."""

    @staticmethod
    def _lanes(values):
        return [[v] * 32 for v in values]

    @settings(max_examples=150, deadline=None)
    @given(a=_U32, b=_U32, c=_IMM, shift=st.integers(0, 40))
    def test_against_python_ints(self, a, b, c, shift):
        sa, sb, sc = _signed(a), _signed(b), _signed(c)
        cases = {
            "IADD R0, R1, R2": ((a, b), sa + sb),
            f"IADD R0, R1, {_signed(c)}": ((a, c), sa + sc),
            "IADD3 R0, R1, R2, R3": ((a, b, c), sa + sb + sc),
            "IMAD R0, R1, R2, R3": ((a, b, c), sa * sb + sc),
            "IMUL R0, R1, R2": ((a, b), sa * sb),
            f"ISCADD R0, R1, R2, {shift & 31}": ((a, b, 0), (sa << (shift & 31)) + sb),
            f"SHL R0, R1, {shift}": ((a, 0), a << shift if shift < 32 else 0),
            f"SHR.U32 R0, R1, {shift}": ((a, 0), a >> shift if shift < 32 else 0),
            f"SHR.S32 R0, R1, {shift}": ((a, 0), sa >> min(shift, 31)),
        }
        for text, (inputs, expected) in cases.items():
            instr = assemble(f".kernel k\n    {text} ;\n    EXIT ;").get("k").instructions[0]
            op = exec_units.LANE_OPS[instr.opcode](instr)
            if text.startswith(("IADD ", "IADD3", "IMAD", "IMUL", "ISCADD")) or shift < 32:
                assert op.writer == "u32", text  # the native form
            got = _eval(op, self._lanes(inputs))
            assert (got == (expected & 0xFFFFFFFF)).all(), text

    @settings(max_examples=150, deadline=None)
    @given(a=_U32, b=_IMM)
    def test_compares_against_python_ints(self, a, b):
        for cmp, fn in (("LT", "__lt__"), ("GE", "__ge__"), ("EQ", "__eq__"), ("NE", "__ne__")):
            for unsigned in (False, True):
                mods = f"{cmp}.U32" if unsigned else cmp
                instr = assemble(
                    f".kernel k\n    ISETP.{mods}.AND P0, R1, R2 ;\n    EXIT ;"
                ).get("k").instructions[0]
                op = exec_units.LANE_OPS["ISETP"](instr)
                assert op.reads == (("u32",) * 2 if unsigned else ("i32",) * 2)
                x, y = (a, b) if unsigned else (_signed(a), _signed(b))
                got = _eval(op, self._lanes((a, b)))
                assert (got == int(getattr(x, fn)(y))).all(), mods

    def test_modified_sources_keep_the_int64_forms(self):
        for text in (
            "IADD R0, -R1, R2", "IADD3 R0, R1, |R2|, R3", "IMAD R0, R1, R2, -|R3|",
            "IMUL R0, -R1, R2", "ISCADD R0, R1, -R2, 3", "IMUL.HI R0, R1, R2",
            "ISCADD R0, R1, R2, R3", "SHL R0, R1, 32", "SHR.U32 R0, R1, R2",
        ):
            instr = assemble(f".kernel k\n    {text} ;\n    EXIT ;").get("k").instructions[0]
            assert exec_units.LANE_OPS[instr.opcode](instr).writer == "int", text
        instr = assemble(
            ".kernel k\n    ISETP.LT.AND P0, -R1, R2 ;\n    EXIT ;"
        ).get("k").instructions[0]
        assert exec_units.LANE_OPS["ISETP"](instr).reads == ("i64", "i64")


class TestMalformedShapes:
    """A malformed templated instruction traps with the same message in
    both tiers, and only when it executes."""

    @pytest.mark.parametrize("instr, message", [
        ("ISETP P0, R1, R2", "ISETP at pc 2 lacks a comparison modifier"),
        ("LOP R0, R1, R2", "LOP requires .AND/.OR/.XOR/.NOT"),
        ("IADD R0, R1, [R2]", "cannot be read as a value"),
        ("SEL R0, R1, R2, R3", "expected predicate source"),
        ("IADD3 R0, R1, R2", "IADD3 at pc 2 takes 3 source operands"),
        ("DADD R0, c[0x0][0x0], R2", "cannot be read as FP64"),
        ("SHFL R0, R1, 1", "SHFL requires .IDX/.UP/.DOWN/.BFLY"),
        ("S2R R0, R1", "S2R requires a special-register source"),
        ("MOV R0, c[0x0][0x1000]", "out-of-bounds"),
    ])
    def test_same_trap_only_when_executed(self, instr, message):
        for guard in ("@!PT ", "@P0 ", ""):
            text = (
                ".kernel bad\n    MOV R1, 3 ;\n    ISETP.GT.AND P0, R1, 5, PT ;\n"
                f"{guard}{instr} ;\n    IADD R3, R1, 1 ;\n    EXIT ;"
            )
            outcomes = []
            for block_compile in (False, True):
                device = _device(block_compile)
                kernel = assemble(text).get("bad")
                try:
                    device.launch(kernel, 1, 32, [])
                    raised = None
                except (DeviceTrap, MemoryViolation) as exc:
                    raised = str(exc)
                outcomes.append((raised, device.instructions_executed))
            assert outcomes[0] == outcomes[1], guard
            if guard:  # @!PT and @P0 (P0 false in every lane) never execute
                assert outcomes[0][0] is None
            else:
                assert message in outcomes[0][0]


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

    def test_layout_shared_across_instances(self, monkeypatch):
        """Module loads of one image share its kernel objects, and so one
        set of compiled tables; a kernel assembled on its own binds its
        own."""
        monkeypatch.setattr(driver_module, "_images", {})
        device = _device(True)
        driver = driver_module.CudaDriver(device)
        a, b = (
            driver.cuModuleGetFunction(
                driver.cuModuleLoadData(self._SRC), "cached"
            ).kernel
            for _ in range(2)
        )
        assert blockc.compiled_for(a, device) is blockc.compiled_for(b, device)
        assert device.blockc_blocks_compiled == 1
        other = assemble(self._SRC).get("cached")
        assert blockc.compiled_for(other) is not blockc.compiled_for(a)

    def test_cached_on_kernel_instance(self):
        kernel = assemble(self._SRC).get("cached")
        assert blockc.compiled_for(kernel) is blockc.compiled_for(kernel)

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
        assert rebuilt.instructions[1] is donor.instructions[1]


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
        # The BRA and the EXIT close their blocks; pc 4 steps.
        assert spans == [(0, 3), (3, 4), (5, 7)]

    def test_unsplit_blocks_shared(self):
        """A span no hooked pc splits is bound once per kernel instance."""
        kernel = assemble(self._SRC).get("two")
        device = _device(True)
        plain = blockc.compiled_for(kernel, device).blocks
        compiled = blockc.compiled_for(kernel, device, breaks=frozenset({4}))
        hooked = compiled.layouts[frozenset({4})]
        assert hooked[0] is plain[0]
        assert hooked[3] is not plain[3]
        # (0, 3) and (3, 7) unhooked, then only (3, 4) and (5, 7) hooked.
        assert device.blockc_blocks_compiled == 4

    def test_invalidate_instrumented_keeps_compiled_tables(self):
        """Re-arming a function re-charges its JIT but keeps its blocks:
        its instructions are the same objects, so no code is stale."""
        kernel = assemble(self._SRC).get("two")
        compiled = blockc.compiled_for(kernel, breaks=frozenset({4}))
        runtime = NVBitRuntime()
        func = CudaFunction(kernel, module=None)
        runtime.invalidate_instrumented(func)
        assert runtime._record(func).dirty
        assert blockc.compiled_for(kernel, want_blocks=False) is compiled
        assert frozenset({4}) in compiled.layouts


class TestSteppingDeviceSteps:
    def test_stepping_device_ignores_layout_bound_elsewhere(self):
        """Kernels are shared per process, so one kernel object may carry
        blocks a block-compiled device bound: a stepping device must
        still step every instruction of it."""
        kernel = assemble(TestCompilationCache._SRC).get("cached")
        compiled = _device(True)
        compiled.launch(kernel, 1, 32, [compiled.malloc(4)])
        assert compiled.blockc_block_hits > 0
        stepping = _device(False)
        stepping.launch(kernel, 1, 32, [stepping.malloc(4)])
        assert stepping.blockc_block_hits == 0
        assert stepping.instructions_executed == compiled.instructions_executed


# ---------------------------------------------------------------------------
# Control flow and global memory inside blocks
# ---------------------------------------------------------------------------

_BUILD_WARPS = sm_module._build_warps


def _warp_state(warp) -> tuple:
    return (
        warp.pc, warp.done, warp.at_barrier, warp.active.tobytes(),
        warp.exited.tobytes(), warp.regs.tobytes(), warp.preds.tobytes(),
        [(e.kind, e.target_pc, e.mask.tobytes(), e.gather.tobytes())
         for e in warp.stack],
    )


def _tier_run(monkeypatch, text, name, block_compile, grid=1, block=32,
              params=(), recorder=None, **device_kwargs):
    """Launch ``name`` with ``[out] + params``; return everything either
    tier could change: the raised exception, every warp's final state,
    the device counters and dmesg, all of global memory and the dirty
    pages a replay recorder saw.  Also counts the stepped ticks."""
    device = _device(block_compile, **device_kwargs)
    out = device.malloc(1 << 14)
    warps = []

    def capture(*args):
        built = _BUILD_WARPS(*args)
        warps.extend(built)
        return built

    monkeypatch.setattr(sm_module, "_build_warps", capture)
    stepped = 0
    tick = device.tick

    def counting_tick():
        nonlocal stepped
        stepped += 1
        tick()

    device.tick = counting_tick
    if recorder is not None:
        device.replay_recorder = recorder
    raised = None
    try:
        device.launch(
            assemble(text).get(name), grid, block, [out] + list(params)
        )
    except (DeviceTrap, MemoryViolation, WatchdogTimeout) as exc:
        raised = (type(exc), str(exc))
    state = {
        "raised": raised,
        "warps": [_warp_state(warp) for warp in warps],
        "counters": (
            device.instructions_executed, device.cycles,
            device.divergence_depth_high_water, device.warps_launched,
        ),
        "dmesg": list(device.dmesg),
        "memory": device.global_mem.data.tobytes(),
        "pages": (
            None if recorder is None or not recorder.launches
            else recorder.launches[0].pages.tolist()
        ),
    }
    return state, device, stepped, read_u32(device, out, 128)


def _both_tiers(monkeypatch, text, name, **kwargs):
    """Run stepped and block-compiled; assert every observable matches.
    Returns ``(out, compiled_device, ticks_stepped_when_compiled,
    state)``, ``state`` being what both tiers left (see ``_tier_run``)."""
    recorders = {}
    if kwargs.pop("record", False):
        recorders = {False: ReplayRecorder(), True: ReplayRecorder()}
    step, step_dev, _, out = _tier_run(
        monkeypatch, text, name, False, recorder=recorders.get(False), **kwargs
    )
    compiled, comp_dev, stepped, _ = _tier_run(
        monkeypatch, text, name, True, recorder=recorders.get(True), **kwargs
    )
    assert step == compiled
    assert step_dev.blockc_block_hits == 0
    # A block that traps is not counted as a hit.
    assert comp_dev.blockc_block_hits > 0 or compiled["raised"]
    return out, comp_dev, stepped, step


_PROLOGUE = """
.kernel {name}
.params 1
    S2R R1, SR_TID.X ;
    MOV R9, c[0x0][0x0] ;
    ISCADD R10, R1, R9, 2 ;
    MOV R3, RZ ;
"""


def _kernel(name: str, body: str) -> str:
    return _PROLOGUE.format(name=name) + body


class TestControlFlowInBlocks:
    def test_uniform_divergent_and_unguarded_branches(self, monkeypatch):
        text = _kernel("branches", """
    ISETP.GE.AND P0, R1, RZ, PT ;
    SSY J1 ;
@P0 BRA T1 ;
    IADD R3, R3, 1000 ;
    SYNC ;
T1:
    IADD R3, R3, 1 ;
    SYNC ;
J1:
    LOP.AND R2, R1, 1 ;
    ISETP.NE.AND P1, R2, RZ, PT ;
    SSY J2 ;
@P1 BRA ODD ;
    IADD R3, R3, 10 ;
    SYNC ;
ODD:
    IADD R3, R3, 20 ;
    SYNC ;
J2:
    BRA SKIP ;
    IADD R3, R3, 5000 ;
SKIP:
@!P0 BRA SKIP2 ;
    IADD R3, R3, 100 ;
SKIP2:
    STG.32 [R10], R3 ;
    EXIT ;
""")
        out, device, stepped, _ = _both_tiers(
            monkeypatch, text, "branches", block=32
        )
        lanes = np.arange(32)
        assert (out[:32] == 101 + np.where(lanes % 2, 20, 10)).all()
        assert device.divergence_depth_high_water == 2
        assert stepped == 0  # every pc, branches included, ran in a block

    def test_nested_ssy_sync(self, monkeypatch):
        text = _kernel("nested", """
    LOP.AND R2, R1, 1 ;
    ISETP.NE.AND P0, R2, RZ, PT ;
    LOP.AND R4, R1, 2 ;
    ISETP.NE.AND P1, R4, RZ, PT ;
    SSY OUTER ;
@P0 BRA A ;
    IADD R3, R3, 1 ;
    SYNC ;
A:
    SSY INNER ;
@P1 BRA B ;
    IADD R3, R3, 10 ;
    SYNC ;
B:
    IADD R3, R3, 100 ;
    SYNC ;
INNER:
    IADD R3, R3, 1000 ;
    SYNC ;
OUTER:
    STG.32 [R10], R3 ;
    EXIT ;
""")
        out, device, _, _ = _both_tiers(monkeypatch, text, "nested", block=64)
        lanes = np.arange(64)
        expected = np.where(
            lanes % 2 == 0, 1, np.where(lanes & 2, 1100, 1010)
        )
        assert (out[:64] == expected).all()
        assert device.divergence_depth_high_water == 4

    def test_pbk_brk_loop_lanes_leave_on_different_iterations(self, monkeypatch):
        text = _kernel("loop", """
    LOP.AND R2, R1, 7 ;
    PBK DONE ;
LOOP:
    ISETP.GE.AND P0, R3, R2, PT ;
@P0 BRK ;
    IADD R3, R3, 1 ;
    BRA LOOP ;
DONE:
    STG.32 [R10], R3 ;
    EXIT ;
""")
        out, _, _, _ = _both_tiers(monkeypatch, text, "loop", grid=2, block=48)
        assert (out[:48] == np.arange(48) % 8).all()

    def test_partial_and_full_exit(self, monkeypatch):
        text = _kernel("exits", """
    MOV R3, 7 ;
    STG.32 [R10], R3 ;
    ISETP.GE.AND P0, R1, 20, PT ;
@P0 EXIT ;
    IADD R3, R3, 1 ;
    STG.32 [R10], R3 ;
    EXIT ;
""")
        out, _, _, step = _both_tiers(monkeypatch, text, "exits", grid=2, block=64)
        assert (out[:64] == np.where(np.arange(64) >= 20, 7, 8)).all()
        assert all(warp[1] for warp in step["warps"])  # every warp done

    def test_barrier_in_two_warp_cta(self, monkeypatch):
        text = """
.kernel bar
.params 1
.shared 256
    S2R R1, SR_TID.X ;
    SHL R2, R1, 2 ;
    IADD R4, R1, 100 ;
    STS.32 [R2], R4 ;
    BAR.SYNC ;
    MOV R3, 63 ;
    IADD R4, R3, -R1 ;
    SHL R5, R4, 2 ;
    LDS.32 R6, [R5] ;
    MOV R7, c[0x0][0x0] ;
    ISCADD R8, R1, R7, 2 ;
    STG.32 [R8], R6 ;
    EXIT ;
"""
        out, _, _, _ = _both_tiers(monkeypatch, text, "bar", grid=2, block=64)
        assert (out[:64] == 100 + np.arange(63, -1, -1)).all()

    def test_never_true_guard_on_each_control_op(self, monkeypatch):
        """``@!PT`` executes no lane: BRA, BRK and EXIT fall through, and
        SSY, PBK, SYNC and BAR act on the warp as they always do."""
        text = _kernel("never", """
    MOV R3, 1 ;
@!PT PBK DONE ;
@!PT SSY JOIN ;
@!PT BRA SKIP ;
    IADD R3, R3, 10 ;
SKIP:
@!PT BRK ;
@!PT EXIT ;
    IADD R3, R3, 100 ;
@!PT BAR.SYNC ;
    IADD R3, R3, 1000 ;
@!PT SYNC ;
    IADD R3, R3, 5000 ;
JOIN:
    STG.32 [R10], R3 ;
    EXIT ;
DONE:
    EXIT ;
""")
        out, _, stepped, _ = _both_tiers(monkeypatch, text, "never", block=64)
        assert (out[:64] == 1111).all()
        assert stepped == 0

    def test_one_warp_loop_longer_than_the_quantum(self, monkeypatch):
        """A lone warp runs unsliced, so a loop body longer than the
        64-instruction quantum never steps; two warps do step at quantum
        edges, with the same results."""
        body = "\n".join(
            f"    IADD R{4 + i % 4}, R{4 + (i + 1) % 4}, {i} ;" for i in range(70)
        )
        text = _kernel("long", f"""
    MOV R2, 3 ;
LOOP:
{body}
    IADD R3, R3, 1 ;
    ISETP.LT.AND P0, R3, R2, PT ;
@P0 BRA LOOP ;
    STG.32 [R10], R4 ;
    EXIT ;
""")
        _, _, stepped, _ = _both_tiers(monkeypatch, text, "long", block=32)
        assert stepped == 0
        _, _, stepped, _ = _both_tiers(monkeypatch, text, "long", block=64)
        assert stepped > 0


class TestControlFlowTraps:
    @pytest.mark.parametrize("body, message", [
        ("    SYNC ;", "no SSY entry on SIMT stack at pc 8"),
        ("    BRK ;", "no PBK entry on SIMT stack at pc 8"),
        ("    SSY END ;\n    PBK END ;\n    SYNC ;",
         "SYNC at pc 10: unexpected PBK on top of stack"),
    ])
    def test_mid_block_trap_from_control_op(self, monkeypatch, body, message):
        """The trap leaves pc, counters, memory, stack and dmesg exactly
        as stepping does, with the stores before it done."""
        text = _kernel("trap", f"""
    MOV R3, 5 ;
    STG.32 [R10], R3 ;
    IADD R3, R3, 1 ;
    STG.32 [R10], R3 ;
{body}
END:
    EXIT ;
""")
        out, _, stepped, step = _both_tiers(monkeypatch, text, "trap", block=64)
        assert step["raised"] == (DeviceTrap, message)
        assert (out[:32] == 6).all()
        assert stepped == 0  # the trap came from inside a block

    @pytest.mark.parametrize("budget, crossing", [
        (3 + 5 * 40, "the closing BRA"),
        (3 + 5 * 40 + 2, "inside the block"),
    ])
    @pytest.mark.parametrize("block", [32, 64])
    def test_watchdog_in_block_ending_in_control_op(
        self, monkeypatch, budget, crossing, block
    ):
        text = """
.kernel spin
.params 1
    MOV R1, RZ ;
    MOV R2, RZ ;
    MOV R5, RZ ;
LOOP:
    IADD R2, R1, 3 ;
    IMAD R3, R2, R2, R1 ;
    LOP.XOR R4, R3, R2 ;
    IADD R1, R1, 1 ;
    BRA LOOP ;
"""
        _, device, _, step = _both_tiers(
            monkeypatch, text, "spin", block=block,
            instruction_budget=budget * (block // 32),
        )
        assert step["raised"][0] is WatchdogTimeout, crossing
        assert device.instructions_executed == budget * (block // 32) + 1


class TestGlobalMemoryInBlocks:
    # Lane i accesses out + c[0x4] + i * c[0x8] through R11.
    _TEXT = """
.kernel mem
.params 3
    S2R R1, SR_TID.X ;
    MOV R9, c[0x0][0x0] ;
    MOV R8, c[0x0][0x4] ;
    IADD R8, R8, R9 ;
    MOV R7, c[0x0][0x8] ;
    ISCADD R10, R1, R9, 2 ;
    IMAD R11, R1, R7, R8 ;
    MOV R3, 9 ;
    STG.32 [R10], R3 ;
    ISETP.LT.AND P0, R1, 5, PT ;
{access}
    IADD R3, R3, 1 ;
    STG.32 [R10+0x80], R3 ;
    EXIT ;
"""

    @pytest.mark.parametrize("guard", ["", "@P0 "])
    @pytest.mark.parametrize("access", [
        "LDG.32 R3, [R11+0x4] ;", "STG.32 [R11-0x4], R3 ;",
        "STG [R11], 0x2a ;", "LDG R3, [R11] ;", "STG.32 [R11], RZ ;",
    ])
    @pytest.mark.parametrize("offset, stride, full, partial", [
        (2, 4, "misaligned", "misaligned"),
        (0x80000, 4, "unmapped", "unmapped"),
        (8, 0x800, "unmapped", None),  # lanes past the buffer
        (8, 4, None, None),
    ])
    def test_same_memory_and_trap(self, monkeypatch, guard, access, offset,
                                  stride, full, partial):
        """Inlined 32-bit global accesses validate, gather and scatter
        through ``GlobalMemory``: the same trap (or none) with the same
        counters, memory and warp state as stepping, under a full and a
        partial mask."""
        text = self._TEXT.format(access=guard + access)
        _, _, stepped, step = _both_tiers(
            monkeypatch, text, "mem", block=32, params=[offset, stride]
        )
        assert stepped == 0  # the access ran inside a block
        fault = partial if guard else full
        if fault is None:
            assert step["raised"] is None
        else:
            assert step["raised"][0] is MemoryViolation
            assert fault in step["raised"][1]

    def test_partial_mask_ignores_wild_inactive_lanes(self, monkeypatch):
        text = """
.kernel wild
.params 1
    S2R R1, SR_TID.X ;
    MOV R9, c[0x0][0x0] ;
    ISCADD R10, R1, R9, 2 ;
    ISETP.LT.AND P0, R1, 5, PT ;
    MOV R11, 0x7f0001 ;
@P0 MOV R11, R10 ;
@P0 STG.32 [R11], R1 ;
@P0 LDG.32 R3, [R11] ;
    STG.32 [R10+0x80], R3 ;
    EXIT ;
"""
        out, _, _, step = _both_tiers(monkeypatch, text, "wild", block=32)
        assert step["raised"] is None
        assert (out[32:64] == np.where(np.arange(32) < 5, np.arange(32), 0)).all()

    @pytest.mark.parametrize("guard", ["", "@P0 "])
    def test_dirty_pages_under_replay_recorder(self, monkeypatch, guard):
        """An inlined store records the pages it writes, as the handler."""
        text = self._TEXT.format(access=f"{guard}STG.32 [R11], R1 ;")
        _, _, _, step = _both_tiers(
            monkeypatch, text, "mem", block=32, params=[0x1000, 0x100],
            record=True,
        )
        assert step["raised"] is None
        assert len(step["pages"]) > 5
