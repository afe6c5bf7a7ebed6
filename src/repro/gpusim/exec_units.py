"""Instruction semantics for the executable opcode subset.

Every handler operates on whole warps: operands are read as length-32 numpy
arrays, computed under ``mask`` (the lanes that actually execute), and
written back masked.  Integer arithmetic wraps to 32 bits: in uint32 when
the result's low 32 bits do not depend on the width (an add, multiply or
shift of unmodified sources), else in int64/uint64, whose exact result
keeps the same low 32 bits; FP32/FP64 use IEEE float32/float64 views of
the register file.

The ALU, conversion, FP64, special-register, predicate and shuffle
opcodes are not hand-written handlers but templates (:data:`LANE_OPS`):
one function per opcode turns an instruction into its source reads, one
numpy expression and its writer (:class:`LaneOp`), resolving modifiers,
compare/combine ops, constant ``PT`` selectors, immediate shift counts and
the integer width there and only there.  :mod:`repro.gpusim.blockc`
generates both execution tiers from a template: the stepping handler
(compiled once per distinct template) and the statements it inlines into
block-compiled code.  Every other opcode has a handler in :data:`HANDLERS`.

Calling convention (relied on by the block-compiled interpreter): every
handler is ``handler(warp, instr, mask)`` where ``mask`` is **read-only** —
handlers may index with it but must never mutate it or retain a reference
past the call.  That contract lets block-compiled callers pass
``warp.active`` itself for unguarded instructions instead of the defensive
copy ``Warp.guard_mask`` makes, and lets them skip the per-instruction
emptiness test (``active`` is non-empty whenever a warp is scheduled, and
only the control opcodes that end a compiled block can drain it).
Handlers validate before they write, so a handler that raises has not
modified warp or memory state (the property that makes mid-block trap
rollback exact).

Control opcodes have no handler: :data:`CONTROL_CALLS` maps each one to
its :class:`~repro.gpusim.warp.Warp` call, from which
:mod:`repro.gpusim.blockc` generates the stepping function and the
block-inlined statement.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.errors import DeviceTrap, MemoryViolation
from repro.sass.instruction import Instruction
from repro.sass.isa import WARP_SIZE
from repro.sass.operands import ConstMem, Imm, MemRef, Pred, Reg, SpecialReg
from repro.gpusim.warp import Warp

_U32 = np.uint32
_LANES = np.arange(WARP_SIZE, dtype=np.int64)

# Each lane's id, as SR_LANEID reads it (shared, so read-only).
LANE_IDS = np.arange(WARP_SIZE, dtype=_U32)
LANE_IDS.flags.writeable = False

# SHFL's lane-argument modes, in the order its template checks them.
SHFL_MODES = ("idx", "up", "down", "bfly")


def shfl_source(mode: str, raw: np.ndarray) -> np.ndarray:
    """SHFL's source lane per lane from its lane argument's raw bits.

    ``.IDX`` reads lane ``arg & 31``; ``.UP``, ``.DOWN`` and ``.BFLY`` read
    ``lane - arg``, ``lane + arg`` and ``lane ^ arg``, and a lane whose
    source falls outside the warp reads its own value, so it points at
    itself here.
    """
    arg = raw.astype(np.int64)
    if mode == "idx":
        return arg & (WARP_SIZE - 1)
    if mode == "up":
        source = _LANES - arg
    elif mode == "down":
        source = _LANES + arg
    else:
        source = _LANES ^ arg
    return np.where((source >= 0) & (source < WARP_SIZE), source, _LANES)


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


# Read kind -> its lanes from an immediate's raw broadcast, as the kind's
# reader below reads an immediate.
_IMM_FORMS = {
    "u32": lambda raw: raw,
    "i32": lambda raw: raw.view(np.int32),
    "i64": lambda raw: raw.view(np.int32).astype(np.int64),  # sign-extended
    "zx64": lambda raw: raw.astype(np.int64),  # zero-extended (.U32 compares)
    "f32": lambda raw: raw.view(np.float32),
    "f64": lambda raw: raw.view(np.float32).astype(np.float64),  # FP32, widened
    **{
        f"lane_{mode}": (lambda raw, mode=mode: shfl_source(mode, raw))
        for mode in SHFL_MODES
    },
}


def _imm_array(kind: str, bits: int) -> np.ndarray:
    key = (kind, bits)
    cached = _IMM_CACHE.get(key)
    if cached is None:
        cached = _IMM_FORMS[kind](np.full(WARP_SIZE, bits, dtype=_U32))
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
        return warp.ctx.const.broadcast(op.offset)
    raise DeviceTrap(f"operand {op!r} cannot be read as a value")


def read_i32(warp: Warp, op) -> np.ndarray:
    """Read an operand's raw bits as int32 (no -/|..| modifiers applied:
    the templates read only unmodified sources this way)."""
    return read_raw(warp, op).view(np.int32)


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
    """Read a register-pair operand as float64, FP -/|..| applied (also
    to RZ: ``-RZ`` reads -0.0)."""
    if isinstance(op, Reg):
        if op.is_rz:
            value = np.zeros(WARP_SIZE, dtype=np.float64)
        else:
            # The pair's rows (low word first), transposed into one
            # contiguous copy and viewed as float64.
            value = warp.regs[op.index:op.index + 2].T.copy().view(np.float64)[:, 0]
        if op.absolute:
            value = np.abs(value)
        if op.negate:
            value = -value
        return value
    if isinstance(op, Imm):
        # Immediates for FP64 ops are interpreted as FP32 and widened.
        return _imm_array("f64", op.bits)
    raise DeviceTrap(f"operand {op!r} cannot be read as FP64")


def read_zx64(warp: Warp, op) -> np.ndarray:
    """Read an operand's raw bits zero-extended to int64 (``.U32`` compares)."""
    return read_raw(warp, op).astype(np.int64)


def read_sreg(warp: Warp, op) -> np.ndarray:
    """Read a special register's lanes (read-only: see :data:`SREG_EXPRS`)."""
    if not isinstance(op, SpecialReg):
        raise DeviceTrap("S2R requires a special-register source")
    return _SREG_READS[op.name](warp)


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
    """Write a float64 array into the destination pair, low word first:
    one masked copy of its words, viewed as ``(2, WARP_SIZE)``."""
    dest = instr.dest
    if not isinstance(dest, Reg) or dest.is_rz:
        return
    np.copyto(
        warp.regs[dest.index:dest.index + 2],
        values.view(_U32).reshape(WARP_SIZE, 2).T,
        where=mask,
    )


def write_pred(warp: Warp, instr: Instruction, values: np.ndarray, mask: np.ndarray) -> None:
    dest = instr.dest
    if not isinstance(dest, Pred) or dest.is_pt:
        return
    np.copyto(warp.preds[dest.index], values, where=mask, casting="unsafe")


# Reads and writers by name, as the templates below use them.
READERS = {
    "u32": read_raw,        # raw bits, -/|..| ignored
    "i32": read_i32,        # raw bits as int32, -/|..| ignored
    "i64": read_int,        # sign-extended, integer -/|..| applied
    "zx64": read_zx64,      # raw bits zero-extended, -/|..| ignored
    "f32": read_f32,        # float32, FP -/|..| applied
    "f64": read_f64,        # register pair as float64, FP -/|..| applied
    "pred": read_pred_src,  # predicate, ``!`` applied
    "sreg": read_sreg,      # special register
    # SHFL's source lane per lane (see shfl_source), one kind per mode.
    **{
        f"lane_{mode}": (
            lambda warp, op, mode=mode: shfl_source(mode, read_raw(warp, op))
        )
        for mode in SHFL_MODES
    },
}

WRITERS = {
    "u32": write_u32,    # a uint32 array, stored as is
    "int": write_u32,    # an int64/uint64 array, stored as its low 32 bits
    "f32": write_f32,    # a float32 array, stored as its bits
    "f64": write_f64,    # a float64 array, stored as a register pair
    "pred": write_pred,  # a bool array
}

# The names a template expression may use besides its reads and
# ``{mask}``, the instruction's execution mask.
EXPR_NAMES = {
    "_np": np, "_I32": np.int32, "_I64": np.int64, "_U32": np.uint32,
    "_U64": np.uint64, "_F32": np.float32, "_F64": np.float64,
    "_LANE_IDS": LANE_IDS, "_shfl_source": shfl_source,
}

# Special register -> its lanes as an expression over ``warp``, written
# once for both tiers.  Thread ids are the warp's own rows, uncopied;
# lane ids are shared; the CTA-wide values (and each warp's id) are the
# shared broadcasts of :meth:`~repro.gpusim.context.ExecContext.sreg`.
# Every one is read-only to its reader.  ``SR_CLOCK`` observes the tick
# counter, so its readers always step.
SREG_EXPRS = {
    **{f"SR_TID.{axis}": f"warp.tid_{axis.lower()}" for axis in "XYZ"},
    "SR_LANEID": "_LANE_IDS",
    "SR_WARPID": "warp.ctx.sreg(warp.warp_id)",
    **{
        name: f"warp.ctx.sreg({name!r})"
        for name in (
            *(f"SR_{reg}.{axis}" for reg in ("CTAID", "NTID", "NCTAID") for axis in "XYZ"),
            "SR_SMID", "SR_GRIDID", "SRZ",
        )
    },
    "SR_CLOCK": f"_np.full({WARP_SIZE}, warp.ctx.clock() & 0xFFFFFFFF, dtype=_U32)",
}


def _sreg_reader(expr: str):
    namespace = dict(EXPR_NAMES)
    exec(compile(f"def _s(warp):\n    return {expr}", "<gpusim-sreg>", "exec"), namespace)
    return namespace["_s"]


_SREG_READS = {name: _sreg_reader(expr) for name, expr in SREG_EXPRS.items()}


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


# ---------------------------------------------------------------------------
# Templated opcodes: each one's lane math, written once for both tiers
# ---------------------------------------------------------------------------

class LaneOp(NamedTuple):
    """One instruction's lane math with everything static resolved.

    ``reads[i]`` is how source ``i`` is read (a :data:`READERS` key, or
    ``None`` when the value is not needed), ``expr`` one numpy expression
    over the reads, written ``{i}``, and the execution mask, written
    ``{mask}``, and ``writer`` how its value is stored (a :data:`WRITERS`
    key).  Reads are read-only data (register views or shared broadcasts
    in compiled blocks): ``expr`` never mutates one, and the writer
    copies its value into the destination.
    """

    reads: tuple[str | None, ...]
    expr: str
    writer: str


def _sources(instr: Instruction, count: int) -> tuple:
    """The first ``count`` sources; a shorter list traps when executed."""
    if len(instr.sources) < count:
        raise DeviceTrap(
            f"{instr.opcode} at pc {instr.pc} takes {count} source operands"
        )
    return instr.sources[:count]


def _uniform(kind: str, count: int, expr: str, writer: str):
    """The template of an opcode that reads ``count`` sources as ``kind``."""
    op = LaneOp((kind,) * count, expr, writer)

    def template(instr: Instruction) -> LaneOp:
        _sources(instr, count)
        return op

    return template


def _modified(sources) -> bool:
    """Does any source carry a -/|..| modifier?"""
    return any(isinstance(op, Reg) and (op.negate or op.absolute) for op in sources)


def _wrapping(count: int, expr: str):
    """IADD / IADD3 / IMAD: uint32 lanes wrap to the low 32 bits of the
    exact int64 result, so unmodified sources compute at native width;
    a -/|..| source reads sign-extended into int64."""
    native = LaneOp(("u32",) * count, expr, "u32")
    wide = LaneOp(("i64",) * count, expr, "int")

    def template(instr: Instruction) -> LaneOp:
        return wide if _modified(_sources(instr, count)) else native

    return template


def _imul(instr: Instruction) -> LaneOp:
    sources = _sources(instr, 2)
    if instr.has_modifier("HI"):
        return LaneOp(("i64", "i64"), "({0} * {1}) >> 32", "int")
    if _modified(sources):
        return LaneOp(("i64", "i64"), "{0} * {1}", "int")
    return LaneOp(("u32", "u32"), "{0} * {1}", "u32")


def _iscadd(instr: Instruction) -> LaneOp:
    sources = _sources(instr, 3)
    shift = sources[2]
    if isinstance(shift, Imm):
        expr = f"({{0}} << {shift.bits & 31}) + {{1}}"
        if _modified(sources):
            return LaneOp(("i64", "i64", None), expr, "int")
        return LaneOp(("u32", "u32", None), expr, "u32")
    return LaneOp(("i64",) * 3, "({0} << ({2} & 31)) + {1}", "int")


def _shift(instr: Instruction) -> LaneOp:
    """SHL / SHR on the count's low byte: 32 or more clears the value,
    except that ``SHR.S32`` shifts in sign bits (at most 31).  The value
    is read as raw bits (-/|..| ignored); an immediate count below 32
    shifts it at native width."""
    count = _sources(instr, 2)[1]
    sym = "<<" if instr.opcode == "SHL" else ">>"
    signed = sym == ">>" and instr.has_modifier("S32")
    if signed:
        value, cap = "{0}.view(_I32).astype(_I64)", 31
    else:
        value, cap = "{0}.astype(_U64)", 32
    if isinstance(count, Imm):
        bits = min(count.bits & 0xFF, cap)
        if bits < 32:
            if signed:
                return LaneOp(("u32", None), f"({{0}}.view(_I32) >> {bits}).view(_U32)", "u32")
            return LaneOp(("u32", None), f"{{0}} {sym} {bits}", "u32")
        return LaneOp(("u32", None), f"{value} {sym} {bits}", "int")
    if signed:
        return LaneOp(
            ("u32", "zx64"), f"{value} >> _np.minimum({{1}} & 0xFF, 31)", "int"
        )
    return LaneOp(
        ("u32", "zx64"),
        f"_np.where(({{1}} & 0xFF) >= 32, _U64(0), "
        f"{value} {sym} _np.minimum({{1}} & 0xFF, 63).astype(_U64))",
        "int",
    )


def _lop(instr: Instruction) -> LaneOp:
    if instr.has_modifier("NOT"):
        _sources(instr, 1)
        return LaneOp(("u32",), "~{0}", "u32")
    for mod, sym in (("AND", "&"), ("OR", "|"), ("XOR", "^")):
        if instr.has_modifier(mod):
            _sources(instr, 2)
            return LaneOp(("u32", "u32"), f"{{0}} {sym} {{1}}", "u32")
    raise DeviceTrap("LOP requires .AND/.OR/.XOR/.NOT")


def _minmax(kind: str):
    """FMNMX / DMNMX: ``.MAX`` takes the larger source, else the smaller
    (a NaN source yields the other)."""

    def template(instr: Instruction) -> LaneOp:
        _sources(instr, 2)
        fn = "fmax" if instr.has_modifier("MAX") else "fmin"
        return LaneOp((kind, kind), f"_np.{fn}({{0}}, {{1}})", kind)

    return template


_CMP_OPS = {
    "LT": "less",
    "LE": "less_equal",
    "GT": "greater",
    "GE": "greater_equal",
    "EQ": "equal",
    "NE": "not_equal",
}


def _combine(instr: Instruction) -> str:
    """The .AND (default) / .OR / .XOR combination of a predicate op."""
    if instr.has_modifier("OR"):
        return "|"
    return "^" if instr.has_modifier("XOR") else "&"


def _setp(kind: str):
    """ISETP / FSETP / DSETP: the first compare modifier, then the
    .AND (default) / .OR / .XOR combination with an optional predicate
    source.  A constant ``PT``/``!PT`` source is folded here.  ISETP
    compares raw bits as uint32 with ``.U32``, unmodified sources as
    int32 and -/|..| sources sign-extended into int64."""

    def template(instr: Instruction) -> LaneOp:
        sources = _sources(instr, 2)
        cmp = next((_CMP_OPS[mod] for mod in instr.modifiers if mod in _CMP_OPS), None)
        if cmp is None:
            raise DeviceTrap(
                f"{instr.opcode} at pc {instr.pc} lacks a comparison modifier"
            )
        read = kind
        if kind == "int":
            read = (
                "u32" if instr.has_modifier("U32")
                else "i64" if _modified(sources) else "i32"
            )
        expr = f"_np.{cmp}({{0}}, {{1}})"
        if len(instr.sources) < 3:
            return LaneOp((read, read), expr, "pred")
        combine = _combine(instr)
        psrc = instr.sources[2]
        if isinstance(psrc, Pred) and psrc.is_pt:
            true = not psrc.negate
            if combine == "&" and not true:
                expr = f"_np.zeros_like({expr})"
            elif combine == "|" and true:
                expr = f"_np.ones_like({expr})"
            elif combine == "^" and true:
                expr = f"~{expr}"
            return LaneOp((read, read, None), expr, "pred")
        return LaneOp((read, read, "pred"), f"{expr} {combine} {{2}}", "pred")

    return template


def _psetp(instr: Instruction) -> LaneOp:
    _sources(instr, 2)
    return LaneOp(("pred", "pred"), f"{{0}} {_combine(instr)} {{1}}", "pred")


def _sel(kind: str):
    """SEL / FSEL: source 0 where the predicate holds, else source 1.  A
    constant ``PT``/``!PT`` selector stores the chosen source's bits."""

    def template(instr: Instruction) -> LaneOp:
        pred = _sources(instr, 3)[2]
        if isinstance(pred, Pred) and pred.is_pt:
            if pred.negate:
                return LaneOp((None, kind), "{1}", kind)
            return LaneOp((kind,), "{0}", kind)
        return LaneOp((kind, kind, "pred"), "_np.where({2}, {0}, {1})", kind)

    return template


def _s2r(instr: Instruction) -> LaneOp:
    """S2R / CS2R: the special register's lanes, stored as is."""
    src = _sources(instr, 1)[0]
    if not isinstance(src, SpecialReg):
        raise DeviceTrap("S2R requires a special-register source")
    if src.name not in SREG_EXPRS:
        raise DeviceTrap(f"unsupported special register {src.name}")
    return LaneOp(("sreg",), "{0}", "u32")


def _f2f(instr: Instruction) -> LaneOp:
    """F2F: ``.F64.F32`` widens an FP32 source into a pair, ``.F32.F64``
    narrows a pair; otherwise FP32 to FP32, rounded by ``.TRUNC`` /
    ``.FLOOR`` / ``.CEIL``."""
    _sources(instr, 1)
    mods = instr.modifiers
    if "F64" in mods and "F32" in mods:
        if mods.index("F64") < mods.index("F32"):
            return LaneOp(("f32",), "{0}.astype(_F64)", "f64")
        return LaneOp(("f64",), "{0}.astype(_F32)", "f32")
    rounding = next(
        (fn for mod, fn in (("TRUNC", "trunc"), ("FLOOR", "floor"), ("CEIL", "ceil"))
         if mod in mods),
        None,
    )
    return LaneOp(("f32",), "{0}" if rounding is None else f"_np.{rounding}({{0}})", "f32")


def _shfl(instr: Instruction) -> LaneOp:
    """SHFL: each lane takes its source lane's value; a lane whose source
    is out of range or not executing keeps its own."""
    _sources(instr, 2)
    mode = next((mode for mode in SHFL_MODES if instr.has_modifier(mode.upper())), None)
    if mode is None:
        raise DeviceTrap("SHFL requires .IDX/.UP/.DOWN/.BFLY")
    return LaneOp(
        ("u32", f"lane_{mode}"), "_np.where({mask}[{1}], {0}[{1}], {0})", "u32"
    )


# opcode -> template(instr) -> LaneOp; a template raises DeviceTrap for a
# malformed shape, which the instruction's handler raises when executed.
LANE_OPS = {
    "MOV": _uniform("u32", 1, "{0}", "u32"),
    "IADD": _wrapping(2, "{0} + {1}"),
    "IADD3": _wrapping(3, "{0} + {1} + {2}"),
    "IMUL": _imul,
    "IMAD": _wrapping(3, "{0} * {1} + {2}"),
    "ISCADD": _iscadd,
    "ISETP": _setp("int"),
    "SHL": _shift,
    "SHR": _shift,
    "LOP": _lop,
    "SEL": _sel("u32"),
    "FADD": _uniform("f32", 2, "{0} + {1}", "f32"),
    "FMUL": _uniform("f32", 2, "{0} * {1}", "f32"),
    "FFMA": _uniform(
        "f32", 3,
        "({0}.astype(_F64) * {1}.astype(_F64) + {2}.astype(_F64)).astype(_F32)",
        "f32",
    ),
    "FMNMX": _minmax("f32"),
    "FSEL": _sel("f32"),
    "FSETP": _setp("f32"),
    "DADD": _uniform("f64", 2, "{0} + {1}", "f64"),
    "DMUL": _uniform("f64", 2, "{0} * {1}", "f64"),
    "DFMA": _uniform("f64", 3, "{0} * {1} + {2}", "f64"),
    "DMNMX": _minmax("f64"),
    "DSETP": _setp("f64"),
    "F2F": _f2f,
    "PSETP": _psetp,
    "S2R": _s2r,
    "SHFL": _shfl,
}
LANE_OPS["CS2R"] = LANE_OPS["S2R"]
LANE_OPS["MOV32I"] = LANE_OPS["MOV"]


# ---------------------------------------------------------------------------
# Handlers: integer
# ---------------------------------------------------------------------------

def _h_imnmx(warp, instr, mask):
    read = read_zx64 if instr.has_modifier("U32") else read_int
    a = read(warp, instr.sources[0])
    b = read(warp, instr.sources[1])
    result = np.maximum(a, b) if instr.has_modifier("MAX") else np.minimum(a, b)
    write_u32(warp, instr, result, mask)


def _h_iabs(warp, instr, mask):
    write_u32(warp, instr, np.abs(read_int(warp, instr.sources[0])), mask)


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


# ---------------------------------------------------------------------------
# Handlers: predicate manipulation and warp-wide ops
# ---------------------------------------------------------------------------

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


def access_width(instr: Instruction) -> int:
    """Bytes per lane of a memory access: 8 with ``.64``, else 4."""
    if instr.has_modifier("64"):
        return 8
    return 4


def _h_load_global(warp, instr, mask):
    addresses = _addresses(warp, instr.sources[0])
    if access_width(instr) == 8:
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
    if access_width(instr) == 8:
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
    if access_width(instr) == 8:
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
    if access_width(instr) == 8:
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
    memory.validate(addresses, mask, 4)
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
# Dispatch tables
# ---------------------------------------------------------------------------

# Global-memory loads and stores (compiled blocks inline their 32-bit,
# register-based forms around GlobalMemory.load32 / store32).
GLOBAL_LOADS = frozenset({"LD", "LDG"})
GLOBAL_STORES = frozenset({"ST", "STG"})

HANDLERS = {
    "IMNMX": _h_imnmx,
    "IABS": _h_iabs,
    "FLO": _h_flo,
    "POPC": _h_popc,
    "BFE": _h_bfe,
    "BFI": _h_bfi,
    "LOP3": _h_lop3,
    "SHF": _h_shf,
    "I2I": _h_i2i,
    "MUFU": _h_mufu,
    "F2I": _h_f2i,
    "I2F": _h_i2f,
    "P2R": _h_p2r,
    "R2P": _h_r2p,
    "VOTE": _h_vote,
    **dict.fromkeys(GLOBAL_LOADS, _h_load_global),
    **dict.fromkeys(GLOBAL_STORES, _h_store_global),
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

# Control opcode -> its Warp call, written once for both tiers: ``{mask}``
# is the instruction's execution mask, ``{target}`` its resolved branch
# target.  SSY, PBK, SYNC and BAR act on the whole warp whatever their
# guard.
CONTROL_CALLS = {
    "BRA": "warp.branch({mask}, {target})",
    "SSY": "warp.push_ssy({target})",
    "PBK": "warp.push_pbk({target})",
    "SYNC": "warp.sync()",
    "BRK": "warp.brk({mask})",
    "EXIT": "warp.exit_lanes({mask})",
    "BAR": "warp.barrier()",
}
CONTROL_OPCODES = frozenset(CONTROL_CALLS)
