"""Instruction semantics for the executable opcode subset.

Every handler operates on whole warps: operands are read as length-32 numpy
arrays, computed under ``mask`` (the lanes that actually execute), and
written back masked.  Integer arithmetic is performed in int64/uint64 and
wrapped to 32 bits, matching hardware wrap-around without numpy overflow
noise; FP32/FP64 use IEEE float32/float64 views of the register file.

Calling convention (relied on by the block-compiled interpreter,
:mod:`repro.gpusim.blockc`): every handler is ``handler(warp, instr, mask)``
where ``mask`` is **read-only** — handlers may index with it but must never
mutate it or retain a reference past the call.  That contract lets
block-compiled callers pass ``warp.active`` itself for unguarded
instructions instead of the defensive copy ``Warp.guard_mask`` makes, and
lets them skip the per-instruction ``mask.any()`` test (``active`` is
non-empty whenever a warp is scheduled, and only control opcodes — which
never appear inside a compiled block — can drain it).  Handlers validate
before they write, so a handler that raises has not modified warp or
memory state (the property that makes mid-block trap rollback exact).
"""

from __future__ import annotations

import numpy as np

from repro.errors import DeviceTrap, MemoryViolation
from repro.sass.instruction import Instruction
from repro.sass.isa import WARP_SIZE
from repro.sass.operands import ConstMem, Imm, MemRef, Pred, Reg, SpecialReg
from repro.gpusim.warp import Warp

_U32 = np.uint32
_LANES = np.arange(WARP_SIZE)


# ---------------------------------------------------------------------------
# Operand access
# ---------------------------------------------------------------------------

# Broadcast arrays for immediate operands, keyed by (kind, bits).  An
# immediate's lane values never change, so the historical per-read
# ``np.full`` + astype chain is pure allocation churn on the interpreter
# hot path.  The cached arrays are shared across reads and therefore
# frozen (``writeable = False``): every handler computes into fresh
# arrays (audited — the in-place ops in this module all target arrays the
# handler itself allocated), and a future violation fails loudly instead
# of corrupting unrelated instructions.  The cache is bounded by the
# number of distinct immediates in loaded programs.
_IMM_CACHE: dict[tuple[str, int], np.ndarray] = {}


def _imm_array(kind: str, bits: int) -> np.ndarray:
    key = (kind, bits)
    cached = _IMM_CACHE.get(key)
    if cached is None:
        raw = np.full(WARP_SIZE, bits, dtype=_U32)
        if kind == "u32":
            cached = raw
        elif kind == "i64":
            # Same sign-extension the generic int path performs.
            cached = raw.astype(np.int32).astype(np.int64)
        elif kind == "zx64":
            # Zero-extended int64 (the raw.astype(int64) of a U32 compare).
            cached = raw.astype(np.int64)
        else:  # "f32"
            cached = raw.view(np.float32).copy()
        cached.flags.writeable = False
        _IMM_CACHE[key] = cached
    return cached


def read_raw(warp: Warp, op) -> np.ndarray:
    """Read an operand as raw uint32 bits (no -/|| modifiers applied).

    Immediate reads return a shared **read-only** array; handlers must
    treat every source read as read-only data (copy before in-place
    mutation), which the whole-warp compute style already guarantees.
    """
    if isinstance(op, Reg):
        if op.is_rz:
            return np.zeros(WARP_SIZE, dtype=_U32)
        return warp.regs[op.index].copy()
    if isinstance(op, Imm):
        return _imm_array("u32", op.bits)
    if isinstance(op, ConstMem):
        return np.full(WARP_SIZE, warp.ctx.const.read32(op.offset), dtype=_U32)
    raise DeviceTrap(f"operand {op!r} cannot be read as a value")


def read_int(warp: Warp, op) -> np.ndarray:
    """Read an operand as signed int64 with integer -/|| modifiers applied.

    The register fast path reinterprets the uint32 lanes as int32 with a
    free ``view`` and sign-extends in one ``astype`` — bit-identical to
    the historical ``copy -> astype(int32) -> astype(int64)`` chain, two
    array allocations cheaper per operand read.  Immediates come from the
    shared read-only cache.
    """
    if isinstance(op, Reg):
        if op.is_rz:
            return np.zeros(WARP_SIZE, dtype=np.int64)
        value = warp.regs[op.index].view(np.int32).astype(np.int64)
        if op.absolute:
            np.abs(value, out=value)
        if op.negate:
            np.negative(value, out=value)
        return value
    if isinstance(op, Imm):
        return _imm_array("i64", op.bits)
    return read_raw(warp, op).astype(np.int32).astype(np.int64)


def read_f32(warp: Warp, op) -> np.ndarray:
    """Read an operand as float32 with FP -/|| modifiers applied."""
    if isinstance(op, Reg):
        if op.is_rz:
            return np.zeros(WARP_SIZE, dtype=np.float32)
        value = warp.regs[op.index].view(np.float32).copy()
        if op.absolute:
            np.abs(value, out=value)
        if op.negate:
            np.negative(value, out=value)
        return value
    if isinstance(op, Imm):
        return _imm_array("f32", op.bits)
    return read_raw(warp, op).view(np.float32).copy()


def read_f64(warp: Warp, op) -> np.ndarray:
    """Read a register-pair operand as float64."""
    if isinstance(op, Reg):
        if op.is_rz:
            value = np.zeros(WARP_SIZE, dtype=np.float64)
        else:
            lo = warp.regs[op.index].astype(np.uint64)
            hi = warp.regs[op.index + 1].astype(np.uint64)
            value = ((hi << np.uint64(32)) | lo).view(np.float64).copy()
        if op.absolute:
            value = np.abs(value)
        if op.negate:
            value = -value
        return value
    if isinstance(op, Imm):
        # Immediates for FP64 ops are interpreted as FP32 and widened.
        return np.full(WARP_SIZE, np.float32(np.uint32(op.bits).view(np.float32)), dtype=np.float64)
    raise DeviceTrap(f"operand {op!r} cannot be read as FP64")


def read_pred_src(warp: Warp, op) -> np.ndarray:
    if not isinstance(op, Pred):
        raise DeviceTrap(f"expected predicate source, got {op!r}")
    value = np.ones(WARP_SIZE, dtype=bool) if op.is_pt else warp.preds[op.index].copy()
    return ~value if op.negate else value


def write_u32(warp: Warp, instr: Instruction, values: np.ndarray, mask: np.ndarray) -> None:
    """Write ``values`` truncated to uint32 into the destination register.

    Conversion semantics (must stay bit-identical across refactors): float
    inputs truncate toward zero into int64 first, then everything keeps its
    low 32 bits.  ``int64 -> uint32`` is a single C cast with the same
    result as the historical ``int64 -> uint64 -> uint32`` chain, and
    ``copy=False`` skips the allocation when values are already int64 —
    the overwhelmingly common case for integer ALU results.
    """
    dest = instr.dest
    if not isinstance(dest, Reg) or dest.is_rz:
        return
    if values.dtype != _U32:
        values = values.astype(np.int64, copy=False).astype(_U32)
    np.copyto(warp.regs[dest.index], values, where=mask)


def write_f32(warp: Warp, instr: Instruction, values: np.ndarray, mask: np.ndarray) -> None:
    dest = instr.dest
    if not isinstance(dest, Reg) or dest.is_rz:
        return
    np.copyto(
        warp.regs[dest.index], values.astype(np.float32, copy=False).view(_U32),
        where=mask,
    )


def write_f64(warp: Warp, instr: Instruction, values: np.ndarray, mask: np.ndarray) -> None:
    dest = instr.dest
    if not isinstance(dest, Reg) or dest.is_rz:
        return
    bits = values.astype(np.float64).view(np.uint64)
    np.copyto(
        warp.regs[dest.index],
        (bits & np.uint64(0xFFFFFFFF)).astype(_U32),
        where=mask,
    )
    np.copyto(
        warp.regs[dest.index + 1], (bits >> np.uint64(32)).astype(_U32),
        where=mask,
    )


def write_pred(warp: Warp, instr: Instruction, values: np.ndarray, mask: np.ndarray) -> None:
    dest = instr.dest
    if not isinstance(dest, Pred) or dest.is_pt:
        return
    np.copyto(warp.preds[dest.index], values, where=mask, casting="unsafe")


# ---------------------------------------------------------------------------
# Comparison helper shared by ISETP / FSETP / DSETP
# ---------------------------------------------------------------------------

_CMP_OPS = {
    "LT": np.less,
    "LE": np.less_equal,
    "GT": np.greater,
    "GE": np.greater_equal,
    "EQ": np.equal,
    "NE": np.not_equal,
}


def _compare(instr: Instruction, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    for mod in instr.modifiers:
        if mod in _CMP_OPS:
            return _CMP_OPS[mod](a, b)
    raise DeviceTrap(f"{instr.opcode} at pc {instr.pc} lacks a comparison modifier")


def _combine(warp: Warp, instr: Instruction, result: np.ndarray, psrc_idx: int) -> np.ndarray:
    """Apply the optional .AND/.OR/.XOR combination with a predicate source."""
    psrc = None
    if len(instr.sources) > psrc_idx:
        psrc = read_pred_src(warp, instr.sources[psrc_idx])
    if psrc is None:
        return result
    if instr.has_modifier("OR"):
        return result | psrc
    if instr.has_modifier("XOR"):
        return result ^ psrc
    return result & psrc  # .AND is the default combination


# ---------------------------------------------------------------------------
# Handlers: data movement and system
# ---------------------------------------------------------------------------

def _h_mov(warp, instr, mask):
    write_u32(warp, instr, read_raw(warp, instr.sources[0]), mask)


def _h_sel(warp, instr, mask):
    a = read_raw(warp, instr.sources[0])
    b = read_raw(warp, instr.sources[1])
    p = read_pred_src(warp, instr.sources[2])
    write_u32(warp, instr, np.where(p, a, b), mask)


def _full(value: int) -> np.ndarray:
    return np.full(WARP_SIZE, value, dtype=_U32)


# One reader per special register, so an S2R builds only the register it
# reads.  The result is read-only to the caller (``write_u32`` copies it
# into the destination), which lets the thread-id rows go out uncopied.
_SREG_READERS = {
    "SR_LANEID": lambda warp: _LANES.astype(_U32),
    "SR_WARPID": lambda warp: _full(warp.warp_id),
    "SRZ": lambda warp: np.zeros(WARP_SIZE, dtype=_U32),
    "SR_TID.X": lambda warp: warp.tid_x,
    "SR_TID.Y": lambda warp: warp.tid_y,
    "SR_TID.Z": lambda warp: warp.tid_z,
    "SR_CTAID.X": lambda warp: _full(warp.ctx.ctaid[0]),
    "SR_CTAID.Y": lambda warp: _full(warp.ctx.ctaid[1]),
    "SR_CTAID.Z": lambda warp: _full(warp.ctx.ctaid[2]),
    "SR_NTID.X": lambda warp: _full(warp.ctx.ntid[0]),
    "SR_NTID.Y": lambda warp: _full(warp.ctx.ntid[1]),
    "SR_NTID.Z": lambda warp: _full(warp.ctx.ntid[2]),
    "SR_NCTAID.X": lambda warp: _full(warp.ctx.nctaid[0]),
    "SR_NCTAID.Y": lambda warp: _full(warp.ctx.nctaid[1]),
    "SR_NCTAID.Z": lambda warp: _full(warp.ctx.nctaid[2]),
    "SR_SMID": lambda warp: _full(warp.ctx.sm_id),
    "SR_GRIDID": lambda warp: _full(warp.ctx.grid_id),
    "SR_CLOCK": lambda warp: _full(warp.ctx.clock() & 0xFFFFFFFF),
}


def _read_special(warp: Warp, name: str) -> np.ndarray:
    reader = _SREG_READERS.get(name)
    if reader is None:
        raise DeviceTrap(f"unsupported special register {name}")
    return reader(warp)


def _h_s2r(warp, instr, mask):
    src = instr.sources[0]
    if not isinstance(src, SpecialReg):
        raise DeviceTrap("S2R requires a special-register source")
    write_u32(warp, instr, _read_special(warp, src.name), mask)


def reads_clock(instr: Instruction) -> bool:
    """Does this instruction observe the device tick counter (SR_CLOCK)?

    Such instructions see ``instructions_executed`` at their exact dynamic
    position, so the block compiler must step them individually — a bulk
    ``tick_n`` charge up front would make the read observably early.
    """
    return any(
        isinstance(op, SpecialReg) and op.name == "SR_CLOCK"
        for op in instr.sources
    )


def _h_cs2r(warp, instr, mask):
    _h_s2r(warp, instr, mask)


# ---------------------------------------------------------------------------
# Handlers: integer
# ---------------------------------------------------------------------------

def _h_iadd(warp, instr, mask):
    a = read_int(warp, instr.sources[0])
    b = read_int(warp, instr.sources[1])
    write_u32(warp, instr, a + b, mask)


def _h_iadd3(warp, instr, mask):
    a = read_int(warp, instr.sources[0])
    b = read_int(warp, instr.sources[1])
    c = read_int(warp, instr.sources[2])
    write_u32(warp, instr, a + b + c, mask)


def _h_imul(warp, instr, mask):
    a = read_int(warp, instr.sources[0])
    b = read_int(warp, instr.sources[1])
    product = a * b
    if instr.has_modifier("HI"):
        product >>= 32
    write_u32(warp, instr, product, mask)


def _h_imad(warp, instr, mask):
    a = read_int(warp, instr.sources[0])
    b = read_int(warp, instr.sources[1])
    c = read_int(warp, instr.sources[2])
    write_u32(warp, instr, a * b + c, mask)


def _h_imnmx(warp, instr, mask):
    if instr.has_modifier("U32"):
        a = read_raw(warp, instr.sources[0]).astype(np.int64)
        b = read_raw(warp, instr.sources[1]).astype(np.int64)
    else:
        a = read_int(warp, instr.sources[0])
        b = read_int(warp, instr.sources[1])
    result = np.maximum(a, b) if instr.has_modifier("MAX") else np.minimum(a, b)
    write_u32(warp, instr, result, mask)


def _h_iabs(warp, instr, mask):
    write_u32(warp, instr, np.abs(read_int(warp, instr.sources[0])), mask)


def _h_iscadd(warp, instr, mask):
    a = read_int(warp, instr.sources[0])
    b = read_int(warp, instr.sources[1])
    shift = read_int(warp, instr.sources[2]) & 31
    write_u32(warp, instr, (a << shift) + b, mask)


def _h_isetp(warp, instr, mask):
    if instr.has_modifier("U32"):
        a = read_raw(warp, instr.sources[0]).astype(np.int64)
        b = read_raw(warp, instr.sources[1]).astype(np.int64)
    else:
        a = read_int(warp, instr.sources[0])
        b = read_int(warp, instr.sources[1])
    result = _combine(warp, instr, _compare(instr, a, b), 2)
    write_pred(warp, instr, result, mask)


def _h_flo(warp, instr, mask):
    a = read_raw(warp, instr.sources[0]).astype(np.int64)
    bits = np.zeros(WARP_SIZE, dtype=np.int64)
    nonzero = a > 0
    bits[nonzero] = np.floor(np.log2(a[nonzero].astype(np.float64))).astype(np.int64)
    result = np.where(a == 0, np.int64(0xFFFFFFFF), bits)
    write_u32(warp, instr, result, mask)


def _h_popc(warp, instr, mask):
    a = read_raw(warp, instr.sources[0])
    counts = np.zeros(WARP_SIZE, dtype=np.int64)
    value = a.astype(np.uint32).copy()
    for _ in range(32):
        counts += value & 1
        value >>= _U32(1)
    write_u32(warp, instr, counts, mask)


def _h_bfe(warp, instr, mask):
    a = read_raw(warp, instr.sources[0]).astype(np.uint64)
    control = read_raw(warp, instr.sources[1]).astype(np.int64)
    pos = (control & 0xFF) & 31
    width = (control >> 8) & 0xFF
    extracted = (a >> pos.astype(np.uint64)) & ((np.uint64(1) << np.minimum(width, 32).astype(np.uint64)) - np.uint64(1))
    extracted = np.where(width == 0, np.uint64(0), extracted)
    write_u32(warp, instr, extracted.astype(np.int64), mask)


def _h_bfi(warp, instr, mask):
    insert = read_raw(warp, instr.sources[0]).astype(np.uint64)
    control = read_raw(warp, instr.sources[1]).astype(np.int64)
    base = read_raw(warp, instr.sources[2]).astype(np.uint64)
    pos = (control & 0xFF) & 31
    width = np.minimum((control >> 8) & 0xFF, 32)
    field_mask = ((np.uint64(1) << width.astype(np.uint64)) - np.uint64(1)) << pos.astype(np.uint64)
    result = (base & ~field_mask) | ((insert << pos.astype(np.uint64)) & field_mask)
    result = np.where(width == 0, base, result)
    write_u32(warp, instr, result.astype(np.int64), mask)


def _h_lop(warp, instr, mask):
    a = read_raw(warp, instr.sources[0])
    if instr.has_modifier("NOT"):
        write_u32(warp, instr, (~a).astype(np.int64), mask)
        return
    b = read_raw(warp, instr.sources[1])
    if instr.has_modifier("AND"):
        result = a & b
    elif instr.has_modifier("OR"):
        result = a | b
    elif instr.has_modifier("XOR"):
        result = a ^ b
    else:
        raise DeviceTrap("LOP requires .AND/.OR/.XOR/.NOT")
    write_u32(warp, instr, result.astype(np.int64), mask)


def _h_lop3(warp, instr, mask):
    a = read_raw(warp, instr.sources[0]).astype(np.uint32)
    b = read_raw(warp, instr.sources[1]).astype(np.uint32)
    c = read_raw(warp, instr.sources[2]).astype(np.uint32)
    lut_op = instr.sources[3]
    if not isinstance(lut_op, Imm):
        raise DeviceTrap("LOP3 LUT operand must be an immediate")
    lut = lut_op.bits & 0xFF
    result = np.zeros(WARP_SIZE, dtype=np.uint32)
    for index in range(8):
        if lut >> index & 1:
            term = np.full(WARP_SIZE, 0xFFFFFFFF, dtype=np.uint32)
            term &= a if index & 4 else ~a
            term &= b if index & 2 else ~b
            term &= c if index & 1 else ~c
            result |= term
    write_u32(warp, instr, result.astype(np.int64), mask)


def _h_shl(warp, instr, mask):
    a = read_raw(warp, instr.sources[0]).astype(np.uint64)
    shift = read_raw(warp, instr.sources[1]).astype(np.int64) & 0xFF
    result = np.where(shift >= 32, np.uint64(0), a << np.minimum(shift, 63).astype(np.uint64))
    write_u32(warp, instr, result.astype(np.int64), mask)


def _h_shr(warp, instr, mask):
    shift = read_raw(warp, instr.sources[1]).astype(np.int64) & 0xFF
    capped = np.minimum(shift, 63).astype(np.uint64)
    if instr.has_modifier("S32"):
        a = read_raw(warp, instr.sources[0]).astype(np.int32).astype(np.int64)
        result = a >> np.minimum(shift, 31)
    else:
        a = read_raw(warp, instr.sources[0]).astype(np.uint64)
        result = np.where(shift >= 32, np.uint64(0), a >> capped).astype(np.int64)
    write_u32(warp, instr, result, mask)


def _h_shf(warp, instr, mask):
    lo = read_raw(warp, instr.sources[0]).astype(np.uint64)
    shift = read_raw(warp, instr.sources[1]).astype(np.int64) & 31
    hi = read_raw(warp, instr.sources[2]).astype(np.uint64)
    combined = (hi << np.uint64(32)) | lo
    if instr.has_modifier("L"):
        result = (combined << shift.astype(np.uint64)) >> np.uint64(32)
    else:  # .R
        result = combined >> shift.astype(np.uint64)
    write_u32(warp, instr, result.astype(np.int64), mask)


def _h_i2i(warp, instr, mask):
    a = read_raw(warp, instr.sources[0]).astype(np.int64)
    if instr.has_modifier("S8"):
        a = ((a & 0xFF) ^ 0x80) - 0x80
    elif instr.has_modifier("U8"):
        a = a & 0xFF
    elif instr.has_modifier("S16"):
        a = ((a & 0xFFFF) ^ 0x8000) - 0x8000
    elif instr.has_modifier("U16"):
        a = a & 0xFFFF
    write_u32(warp, instr, a, mask)


# ---------------------------------------------------------------------------
# Handlers: FP32 / FP64
# ---------------------------------------------------------------------------

def _h_fadd(warp, instr, mask):
    write_f32(warp, instr, read_f32(warp, instr.sources[0]) + read_f32(warp, instr.sources[1]), mask)


def _h_fmul(warp, instr, mask):
    write_f32(warp, instr, read_f32(warp, instr.sources[0]) * read_f32(warp, instr.sources[1]), mask)


def _h_ffma(warp, instr, mask):
    a = read_f32(warp, instr.sources[0]).astype(np.float64)
    b = read_f32(warp, instr.sources[1]).astype(np.float64)
    c = read_f32(warp, instr.sources[2]).astype(np.float64)
    write_f32(warp, instr, (a * b + c).astype(np.float32), mask)


def _h_fmnmx(warp, instr, mask):
    a = read_f32(warp, instr.sources[0])
    b = read_f32(warp, instr.sources[1])
    result = np.fmax(a, b) if instr.has_modifier("MAX") else np.fmin(a, b)
    write_f32(warp, instr, result, mask)


def _h_fsel(warp, instr, mask):
    a = read_f32(warp, instr.sources[0])
    b = read_f32(warp, instr.sources[1])
    p = read_pred_src(warp, instr.sources[2])
    write_f32(warp, instr, np.where(p, a, b), mask)


def _h_fsetp(warp, instr, mask):
    a = read_f32(warp, instr.sources[0])
    b = read_f32(warp, instr.sources[1])
    result = _combine(warp, instr, _compare(instr, a, b), 2)
    write_pred(warp, instr, result, mask)


def _h_mufu(warp, instr, mask):
    a = read_f32(warp, instr.sources[0]).astype(np.float64)
    if instr.has_modifier("RCP"):
        result = 1.0 / a
    elif instr.has_modifier("RSQ"):
        result = 1.0 / np.sqrt(a)
    elif instr.has_modifier("SQRT"):
        result = np.sqrt(a)
    elif instr.has_modifier("SIN"):
        result = np.sin(a)
    elif instr.has_modifier("COS"):
        result = np.cos(a)
    elif instr.has_modifier("EX2"):
        result = np.exp2(a)
    elif instr.has_modifier("LG2"):
        result = np.log2(a)
    else:
        raise DeviceTrap("MUFU requires a function modifier")
    write_f32(warp, instr, result.astype(np.float32), mask)


def _h_f2i(warp, instr, mask):
    a = read_f32(warp, instr.sources[0]).astype(np.float64)
    a = np.where(np.isnan(a), 0.0, a)
    if instr.has_modifier("U32"):
        clipped = np.clip(np.trunc(a), 0, 0xFFFFFFFF)
    else:
        clipped = np.clip(np.trunc(a), -0x80000000, 0x7FFFFFFF)
    write_u32(warp, instr, clipped.astype(np.int64), mask)


def _h_i2f(warp, instr, mask):
    if instr.has_modifier("U32"):
        a = read_raw(warp, instr.sources[0]).astype(np.float64)
    else:
        a = read_int(warp, instr.sources[0]).astype(np.float64)
    write_f32(warp, instr, a.astype(np.float32), mask)


def _h_f2f(warp, instr, mask):
    mods = instr.modifiers
    if "F64" in mods and "F32" in mods and mods.index("F64") < mods.index("F32"):
        # F2F.F64.F32: widen FP32 source into an FP64 destination pair.
        write_f64(warp, instr, read_f32(warp, instr.sources[0]).astype(np.float64), mask)
    elif "F32" in mods and "F64" in mods:
        # F2F.F32.F64: narrow FP64 pair into FP32.
        write_f32(warp, instr, read_f64(warp, instr.sources[0]).astype(np.float32), mask)
    else:
        result = read_f32(warp, instr.sources[0])
        if instr.has_modifier("TRUNC"):
            result = np.trunc(result)
        elif instr.has_modifier("FLOOR"):
            result = np.floor(result)
        elif instr.has_modifier("CEIL"):
            result = np.ceil(result)
        write_f32(warp, instr, result, mask)


def _h_dadd(warp, instr, mask):
    write_f64(warp, instr, read_f64(warp, instr.sources[0]) + read_f64(warp, instr.sources[1]), mask)


def _h_dmul(warp, instr, mask):
    write_f64(warp, instr, read_f64(warp, instr.sources[0]) * read_f64(warp, instr.sources[1]), mask)


def _h_dfma(warp, instr, mask):
    a = read_f64(warp, instr.sources[0])
    b = read_f64(warp, instr.sources[1])
    c = read_f64(warp, instr.sources[2])
    write_f64(warp, instr, a * b + c, mask)


def _h_dmnmx(warp, instr, mask):
    a = read_f64(warp, instr.sources[0])
    b = read_f64(warp, instr.sources[1])
    result = np.fmax(a, b) if instr.has_modifier("MAX") else np.fmin(a, b)
    write_f64(warp, instr, result, mask)


def _h_dsetp(warp, instr, mask):
    a = read_f64(warp, instr.sources[0])
    b = read_f64(warp, instr.sources[1])
    result = _combine(warp, instr, _compare(instr, a, b), 2)
    write_pred(warp, instr, result, mask)


# ---------------------------------------------------------------------------
# Handlers: predicate manipulation and warp-wide ops
# ---------------------------------------------------------------------------

def _h_psetp(warp, instr, mask):
    a = read_pred_src(warp, instr.sources[0])
    b = read_pred_src(warp, instr.sources[1])
    if instr.has_modifier("OR"):
        result = a | b
    elif instr.has_modifier("XOR"):
        result = a ^ b
    else:
        result = a & b
    write_pred(warp, instr, result, mask)


def _h_p2r(warp, instr, mask):
    packed = np.zeros(WARP_SIZE, dtype=np.int64)
    for index in range(7):
        packed |= warp.preds[index].astype(np.int64) << index
    write_u32(warp, instr, packed, mask)


def _h_r2p(warp, instr, mask):
    bits = read_raw(warp, instr.sources[0]).astype(np.int64)
    for index in range(7):
        values = (bits >> index & 1).astype(bool)
        warp.preds[index][mask] = values[mask]


def _h_vote(warp, instr, mask):
    p = read_pred_src(warp, instr.sources[0])
    participating = mask
    if instr.has_modifier("ALL"):
        outcome = bool(p[participating].all()) if participating.any() else True
    elif instr.has_modifier("ANY"):
        outcome = bool((p & participating).any())
    else:
        raise DeviceTrap("VOTE requires .ALL or .ANY")
    write_pred(warp, instr, np.full(WARP_SIZE, outcome, dtype=bool), mask)


def _h_shfl(warp, instr, mask):
    value = read_raw(warp, instr.sources[0])
    lane_arg = read_raw(warp, instr.sources[1]).astype(np.int64)
    if instr.has_modifier("IDX"):
        source_lane = lane_arg & 31
    elif instr.has_modifier("UP"):
        source_lane = _LANES - lane_arg
    elif instr.has_modifier("DOWN"):
        source_lane = _LANES + lane_arg
    elif instr.has_modifier("BFLY"):
        source_lane = _LANES ^ lane_arg
    else:
        raise DeviceTrap("SHFL requires .IDX/.UP/.DOWN/.BFLY")
    in_range = (source_lane >= 0) & (source_lane < WARP_SIZE)
    clipped = np.minimum(np.maximum(source_lane, 0), WARP_SIZE - 1)
    gathered = value[clipped]
    # Out-of-range (or inactive-source) lanes keep their own value.
    source_inactive = ~mask[clipped]
    keep_own = ~in_range | source_inactive
    result = np.where(keep_own, value, gathered)
    write_u32(warp, instr, result.astype(np.int64), mask)


# ---------------------------------------------------------------------------
# Handlers: memory
# ---------------------------------------------------------------------------

def _addresses(warp: Warp, op: MemRef) -> np.ndarray:
    if not isinstance(op, MemRef):
        raise DeviceTrap(f"expected a memory operand, got {op!r}")
    if op.reg is None or op.reg == 255:
        base = np.zeros(WARP_SIZE, dtype=np.int64)
    else:
        base = warp.regs[op.reg].astype(np.int64)
    return base + op.offset


def _width(instr: Instruction) -> int:
    if instr.has_modifier("64"):
        return 8
    return 4


def _h_load_global(warp, instr, mask):
    addresses = _addresses(warp, instr.sources[0])
    if _width(instr) == 8:
        values = warp.ctx.global_mem.load64(addresses, mask)
        dest = instr.dest
        if isinstance(dest, Reg) and not dest.is_rz:
            warp.regs[dest.index][mask] = (values & np.uint64(0xFFFFFFFF)).astype(_U32)[mask]
            warp.regs[dest.index + 1][mask] = (values >> np.uint64(32)).astype(_U32)[mask]
    else:
        values = warp.ctx.global_mem.load32(addresses, mask)
        write_u32(warp, instr, values, mask)


def _h_store_global(warp, instr, mask):
    addresses = _addresses(warp, instr.sources[0])
    value_op = instr.sources[1]
    if _width(instr) == 8:
        if not isinstance(value_op, Reg) or value_op.is_rz:
            values = np.zeros(WARP_SIZE, dtype=np.uint64)
        else:
            lo = warp.regs[value_op.index].astype(np.uint64)
            hi = warp.regs[value_op.index + 1].astype(np.uint64)
            values = (hi << np.uint64(32)) | lo
        warp.ctx.global_mem.store64(addresses, mask, values)
    else:
        warp.ctx.global_mem.store32(addresses, mask, read_raw(warp, value_op))


def _h_load_shared(warp, instr, mask):
    addresses = _addresses(warp, instr.sources[0])
    if _width(instr) == 8:
        values = warp.ctx.shared.load64(addresses, mask)
        dest = instr.dest
        if isinstance(dest, Reg) and not dest.is_rz:
            warp.regs[dest.index][mask] = (values & np.uint64(0xFFFFFFFF)).astype(_U32)[mask]
            warp.regs[dest.index + 1][mask] = (values >> np.uint64(32)).astype(_U32)[mask]
    else:
        write_u32(warp, instr, warp.ctx.shared.load32(addresses, mask), mask)


def _h_store_shared(warp, instr, mask):
    addresses = _addresses(warp, instr.sources[0])
    value_op = instr.sources[1]
    if _width(instr) == 8:
        if not isinstance(value_op, Reg) or value_op.is_rz:
            values = np.zeros(WARP_SIZE, dtype=np.uint64)
        else:
            lo = warp.regs[value_op.index].astype(np.uint64)
            hi = warp.regs[value_op.index + 1].astype(np.uint64)
            values = (hi << np.uint64(32)) | lo
        warp.ctx.shared.store64(addresses, mask, values)
    else:
        warp.ctx.shared.store32(addresses, mask, read_raw(warp, value_op))


def _h_load_local(warp, instr, mask):
    if warp.local is None:
        raise MemoryViolation(0, 4, "local", "unmapped")
    addresses = _addresses(warp, instr.sources[0])
    active = addresses[mask]
    if active.size and ((active % 4 != 0).any() or (active < 0).any() or (active + 4 > warp.local_bytes).any()):
        raise MemoryViolation(int(active[0]), 4, "local", "out-of-bounds")
    out = np.zeros(WARP_SIZE, dtype=_U32)
    lanes = np.nonzero(mask)[0]
    out[lanes] = warp.local[addresses[lanes] // 4, lanes]
    write_u32(warp, instr, out.astype(np.int64), mask)


def _h_store_local(warp, instr, mask):
    if warp.local is None:
        raise MemoryViolation(0, 4, "local", "unmapped")
    addresses = _addresses(warp, instr.sources[0])
    active = addresses[mask]
    if active.size and ((active % 4 != 0).any() or (active < 0).any() or (active + 4 > warp.local_bytes).any()):
        raise MemoryViolation(int(active[0]), 4, "local", "out-of-bounds")
    values = read_raw(warp, instr.sources[1])
    lanes = np.nonzero(mask)[0]
    warp.local[addresses[lanes] // 4, lanes] = values[lanes]


def _h_ldc(warp, instr, mask):
    src = instr.sources[0]
    if isinstance(src, ConstMem):
        offsets = np.full(WARP_SIZE, src.offset, dtype=np.int64)
    else:
        offsets = _addresses(warp, src)
    write_u32(warp, instr, warp.ctx.const.load32(offsets, mask).astype(np.int64), mask)


def _atomic(memory, instr, addresses, mask, operands, warp):
    """Serialised atomic over the active lanes, returning old values."""
    values = read_raw(warp, operands)
    is_f32 = instr.has_modifier("F32")
    old = np.zeros(WARP_SIZE, dtype=_U32)
    if hasattr(memory, "validate"):
        memory.validate(addresses, mask, 4)
    else:
        memory._validate(addresses, mask, 4)
    view = memory.data.view(np.uint32)
    for lane in np.nonzero(mask)[0]:
        slot = int(addresses[lane]) // 4
        current = int(view[slot])
        old[lane] = current
        new = _atomic_combine(instr, current, int(values[lane]), is_f32)
        view[slot] = np.uint32(new & 0xFFFFFFFF)
    # Atomics bypass store32, so report the dirty pages themselves (global
    # memory only; shared memory is per-launch scratch and untracked).
    note_stores = getattr(memory, "note_stores", None)
    if note_stores is not None:
        note_stores(addresses, mask)
    return old


def _atomic_combine(instr: Instruction, current: int, operand: int, is_f32: bool) -> int:
    import struct as _struct

    if instr.has_modifier("EXCH"):
        return operand
    if is_f32:
        cur_f = _struct.unpack("<f", _struct.pack("<I", current))[0]
        op_f = _struct.unpack("<f", _struct.pack("<I", operand))[0]
        if instr.has_modifier("MAX"):
            result = max(cur_f, op_f)
        elif instr.has_modifier("MIN"):
            result = min(cur_f, op_f)
        else:
            result = np.float32(np.float32(cur_f) + np.float32(op_f))
        return _struct.unpack("<I", _struct.pack("<f", float(result)))[0]
    if instr.has_modifier("MAX"):
        return max(current, operand)
    if instr.has_modifier("MIN"):
        return min(current, operand)
    return (current + operand) & 0xFFFFFFFF


def _h_atom_global(warp, instr, mask):
    addresses = _addresses(warp, instr.sources[0])
    old = _atomic(warp.ctx.global_mem, instr, addresses, mask, instr.sources[1], warp)
    write_u32(warp, instr, old.astype(np.int64), mask)


def _h_atom_shared(warp, instr, mask):
    addresses = _addresses(warp, instr.sources[0])
    old = _atomic(warp.ctx.shared, instr, addresses, mask, instr.sources[1], warp)
    write_u32(warp, instr, old.astype(np.int64), mask)


def _h_red(warp, instr, mask):
    addresses = _addresses(warp, instr.sources[0])
    _atomic(warp.ctx.global_mem, instr, addresses, mask, instr.sources[1], warp)


def _h_membar(warp, instr, mask):
    return None  # single-threaded simulation: memory is always coherent


def _h_warpsync(warp, instr, mask):
    return None  # our execution model is already warp-synchronous


def _h_nop(warp, instr, mask):
    return None


def _h_bpt(warp, instr, mask):
    raise DeviceTrap(f"BPT trap at pc {instr.pc}")


# ---------------------------------------------------------------------------
# Dispatch table (control-flow opcodes are handled by the SM scheduler)
# ---------------------------------------------------------------------------

HANDLERS = {
    "MOV": _h_mov,
    "MOV32I": _h_mov,
    "SEL": _h_sel,
    "S2R": _h_s2r,
    "CS2R": _h_cs2r,
    "IADD": _h_iadd,
    "IADD3": _h_iadd3,
    "IMUL": _h_imul,
    "IMAD": _h_imad,
    "IMNMX": _h_imnmx,
    "IABS": _h_iabs,
    "ISCADD": _h_iscadd,
    "ISETP": _h_isetp,
    "FLO": _h_flo,
    "POPC": _h_popc,
    "BFE": _h_bfe,
    "BFI": _h_bfi,
    "LOP": _h_lop,
    "LOP3": _h_lop3,
    "SHL": _h_shl,
    "SHR": _h_shr,
    "SHF": _h_shf,
    "I2I": _h_i2i,
    "FADD": _h_fadd,
    "FMUL": _h_fmul,
    "FFMA": _h_ffma,
    "FMNMX": _h_fmnmx,
    "FSEL": _h_fsel,
    "FSETP": _h_fsetp,
    "MUFU": _h_mufu,
    "F2I": _h_f2i,
    "I2F": _h_i2f,
    "F2F": _h_f2f,
    "DADD": _h_dadd,
    "DMUL": _h_dmul,
    "DFMA": _h_dfma,
    "DMNMX": _h_dmnmx,
    "DSETP": _h_dsetp,
    "PSETP": _h_psetp,
    "P2R": _h_p2r,
    "R2P": _h_r2p,
    "VOTE": _h_vote,
    "SHFL": _h_shfl,
    "LD": _h_load_global,
    "LDG": _h_load_global,
    "ST": _h_store_global,
    "STG": _h_store_global,
    "LDS": _h_load_shared,
    "STS": _h_store_shared,
    "LDL": _h_load_local,
    "STL": _h_store_local,
    "LDC": _h_ldc,
    "ATOM": _h_atom_global,
    "ATOMG": _h_atom_global,
    "ATOMS": _h_atom_shared,
    "RED": _h_red,
    "MEMBAR": _h_membar,
    "WARPSYNC": _h_warpsync,
    "NOP": _h_nop,
    "BPT": _h_bpt,
}

CONTROL_OPCODES = frozenset({"BRA", "SSY", "SYNC", "PBK", "BRK", "EXIT", "BAR"})
