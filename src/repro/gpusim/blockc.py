"""Block-compiled warp interpreter: straight-line SASS fused into superhandlers.

After the replay/snapshot/batch work, campaign wall-clock is dominated by
launches that must be simulated instruction-by-instruction (golden runs and
never-reconverging divergent suffixes), and profiling shows the cost there
is not the numpy lane math but the per-dynamic-instruction Python constant
in ``SM._run_slice_fast``: one dispatch index, one ``Warp.guard_mask`` call
(which copies ``active``), one ``device.tick()``, and one
``exec_mask.any()`` per warp-instruction.  This module removes that
constant for straight-line code:

* each kernel is partitioned once into **basic blocks** — maximal runs of
  non-control instructions, split at branch targets, unknown opcodes,
  ``SR_CLOCK`` readers (they observe the tick counter mid-block) and at
  :data:`MAX_BLOCK_LEN` so a block always fits one scheduling quantum;
* each block is code-generated into one Python **superhandler** via a
  source template + ``compile()``: the handler calls are inlined in
  sequence with the handler and instruction objects bound as keyword
  defaults (LOAD_FAST, no per-instruction table indexing), ``warp.active``
  / ``warp.preds`` hoisted out of the loop, guard masks still evaluated
  per-instruction (predicates mutate mid-block) but resolved to the
  no-copy ``_a`` fast path when the instruction is unguarded, the
  per-instruction ``exec_mask.any()`` / ``handler is None`` checks
  resolved at compile time, and the ``device.tick()`` calls replaced by a
  single bulk :meth:`~repro.gpusim.device.Device.tick_n` charge;
* a mid-block trap rolls the bulk tick charge back to the faulting
  instruction and restores ``warp.pc`` to it, so device counters, memory
  and warp state at the trap are exactly what per-instruction stepping
  would have produced.

The scheduler (``SM._run_slice_fast``) only executes a block whole when it
fits the warp's remaining quantum **and** the watchdog budget has headroom
for the whole block — otherwise it steps per-instruction — so the
round-robin interleaving of warps (atomics, shared memory) and the exact
watchdog trap point are preserved and ``results.csv`` plus simulated-cycle
totals are byte-identical with block compilation on or off.

Instrumented launches use the same tier.  Their hooked pcs are extra
block boundaries: a hooked pc is never inside a block, so it always steps
(tick, before-callbacks, execute, after-callbacks) and every callback
sees exact ``instructions_executed`` and ``cycles``; the straight-line
code between hooked pcs runs compiled.

Caching is two-level.  The expensive part — ``compile()`` of each block's
generated source — is cached process-globally per span, keyed on
:func:`content_fingerprint` (a hash of every instruction's canonical text
plus resolved branch targets) and the span's ``(start, end)``, so the
thousands of per-run kernel objects a campaign assembles from the same
source pay codegen once, and a layout split at hooked pcs recompiles only
the blocks a hooked pc actually splits.  The cheap part — binding a
kernel instance's handler table and instruction objects into block
functions — is cached on the kernel object and validated against the
*identity* of every instruction (strong references are held, so ids
cannot be reused), which also fixes the historical ``_gpusim_handlers``
staleness bug where an in-place rewrite of equal length kept serving the
old dispatch table.
"""

from __future__ import annotations

import hashlib
from time import perf_counter

import numpy as np

from repro.gpusim.exec_units import (
    CONTROL_OPCODES,
    HANDLERS,
    _imm_array,
    reads_clock,
)
from repro.sass.operands import Imm, Pred, Reg
from repro.sass.program import register_count

# Must equal the SM scheduling quantum (repro.gpusim.sm imports it from
# here): a block longer than one slice could never run whole, and capping
# block length at the quantum keeps the warp round-robin interleaving
# identical to per-instruction stepping.
MAX_BLOCK_LEN = 64

# Control opcodes that carry a label operand (their resolved targets are
# block boundaries and part of the content fingerprint).
_BRANCHING = frozenset({"BRA", "SSY", "PBK"})


def _CONTROL(*_args) -> None:  # pragma: no cover - dispatch sentinel, never called
    """Handler-table sentinel marking a control-flow opcode.

    A module-level function (not ``object()``) so its identity survives
    pickling, should a kernel with a cached table ever cross a process
    boundary.
    """
    raise AssertionError("_CONTROL is a dispatch sentinel")


def content_fingerprint(instructions) -> str:
    """Content hash of an instruction sequence (text + branch targets).

    The canonical ``str(instr)`` covers opcode, modifiers, operands and the
    guard; branch targets are appended as resolved pcs because two kernels
    can render identical instruction text while their labels sit on
    different lines.
    """
    hasher = hashlib.sha256()
    for instr in instructions:
        hasher.update(str(instr).encode())
        if instr.opcode in _BRANCHING:
            try:
                hasher.update(b"@%d" % instr.branch_target)
            except ValueError:
                hasher.update(b"@?")
        hasher.update(b"\n")
    return hasher.hexdigest()


def build_table(instructions) -> list:
    """Pre-resolved dispatch table, one entry per static pc.

    Entries are the handler function, :func:`_CONTROL` for control-flow
    opcodes, or ``None`` for unknown opcodes — which still trap only when
    (and if) they are actually executed.
    """
    return [
        _CONTROL if instr.opcode in CONTROL_OPCODES else HANDLERS.get(instr.opcode)
        for instr in instructions
    ]


def _compilable(instr) -> bool:
    """Can this instruction live inside a compiled block?

    Control flow ends a block by definition; unknown opcodes must keep
    their trap-only-when-executed semantics (the step path raises at
    execution time); ``SR_CLOCK`` readers observe ``instructions_executed``
    mid-block, which the bulk ``tick_n`` charge would perturb.
    """
    if instr.opcode in CONTROL_OPCODES:
        return False
    if instr.opcode not in HANDLERS:
        return False
    return not reads_clock(instr)


def _block_spans(instructions, breaks) -> list[tuple[int, int]]:
    """Partition into maximal compilable runs ``[start, end)``.

    Splits at control opcodes, branch targets (a jump must land on a block
    start or plain-stepped pc, never mid-block), non-compilable
    instructions, :data:`MAX_BLOCK_LEN`, and ``breaks`` — the hooked pcs
    of an instrumented launch, which step so their callbacks run and see
    exact counters.
    """
    starts = set()
    for instr in instructions:
        if instr.opcode in _BRANCHING:
            try:
                starts.add(instr.branch_target)
            except ValueError:
                pass
    spans = []
    i = 0
    n = len(instructions)
    while i < n:
        if i in breaks or not _compilable(instructions[i]):
            i += 1
            continue
        j = i + 1
        while (
            j < n
            and j - i < MAX_BLOCK_LEN
            and j not in starts
            and j not in breaks
            and _compilable(instructions[j])
        ):
            j += 1
        spans.append((i, j))
        i = j
    return spans


def _is_unguarded(guard) -> bool:
    """Mirror of ``Warp.guard_mask``'s fast path (no guard, or @PT)."""
    return guard is None or (guard.is_pt and not guard.negate)


# ---------------------------------------------------------------------------
# Inline opcode specialization
# ---------------------------------------------------------------------------
#
# For the hottest ALU opcodes the generated block does not call the generic
# handler at all: it emits the handler's numpy computation directly, with
# everything that is static per-instruction resolved at codegen time —
# modifier branches (``.HI``, ``.S32``, ``.U32``, the compare/combine ops),
# immediate operands (bound as shared read-only broadcast arrays, see
# ``exec_units._imm_array``), immediate *shift counts* (folded to Python
# ints), and register numbers (baked indices into the hoisted ``_r =
# warp.regs`` row table).  Register sources are read as numpy *views*
# where the handler's defensive copy is value-equivalent (every emitted
# expression allocates a fresh result before the terminal masked
# ``np.copyto`` store, so no view is ever mutated and read-modify-write
# instructions like ``IADD R1, R1, 1`` stay exact).  Each specialization
# mirrors its handler statement for statement — bit-identical results,
# and the single mutating store comes last so mid-block trap rollback
# semantics are unchanged.  Any operand/modifier shape outside the
# specialized pattern falls back to the generic handler call.

_CMP_SYMS = {"LT": "<", "LE": "<=", "GT": ">", "GE": ">=", "EQ": "==", "NE": "!="}

# numpy module + dtype objects bound as keyword defaults of every
# specialized superhandler (LOAD_FAST instead of global lookups).
_DTYPE_PARAMS = (
    "_np=_NP, _I32=_NP.int32, _I64=_NP.int64, _U32=_NP.uint32, "
    "_U64=_NP.uint64, _F32=_NP.float32, _F64=_NP.float64"
)


class _ConstPool:
    """Layout-level constants referenced by generated code as ``_C[i]``.

    Holds the shared read-only immediate arrays (and any other
    pre-computed objects) a layout's blocks bind as keyword defaults.
    Everything in the pool is derived from instruction *text* only, so a
    pool is as shareable across kernel instances as the source itself.
    """

    def __init__(self) -> None:
        self.values: list = []
        self._index: dict[int, int] = {}

    def add(self, value) -> int:
        idx = self._index.get(id(value))
        if idx is None:
            idx = len(self.values)
            self.values.append(value)
            self._index[id(value)] = idx
        return idx


def _imm_scalar(bits: int) -> int:
    """The signed-int64 lane value of an immediate (sign-extended int32)."""
    return bits - 0x100000000 if bits >= 0x80000000 else bits


class _Spec:
    """Per-block specializer: emits inline statements for one instruction.

    ``lines(instr, mask)`` returns the statement list (mask variable name
    already substituted) or ``None`` when the instruction must go through
    its generic handler.  Constants allocated along the way are recorded
    in ``used`` so the block generator can bind them as parameters.
    """

    def __init__(self, pool: _ConstPool) -> None:
        self.pool = pool
        self.used: set[int] = set()

    def _const(self, value) -> str:
        idx = self.pool.add(value)
        self.used.add(idx)
        return f"_c{idx}"

    def _imm(self, kind: str, bits: int) -> str:
        return self._const(_imm_array(kind, bits))

    # -- operand expressions (mirroring exec_units read helpers) ----------

    def _u32(self, op) -> str | None:
        """``read_raw``: raw uint32 bits, modifiers ignored (as the helper
        does).  Register reads are views — callers never mutate."""
        if isinstance(op, Reg):
            if op.is_rz:
                return self._imm("u32", 0)
            return f"_r[{op.index}]"
        if isinstance(op, Imm):
            return self._imm("u32", op.bits)
        return None

    def _i64(self, op) -> str | None:
        """``read_int``: sign-extended int64 with integer -/|| modifiers."""
        if isinstance(op, Reg):
            if op.is_rz:
                expr = self._imm("i64", 0)
            else:
                expr = f"_r[{op.index}].view(_I32).astype(_I64)"
            if op.absolute:
                expr = f"_np.abs({expr})"
            if op.negate:
                expr = f"(-{expr})"
            return expr
        if isinstance(op, Imm):
            return self._imm("i64", op.bits)
        return None

    def _zx64(self, op) -> str | None:
        """``read_raw(...).astype(int64)``: zero-extended (U32 compares)."""
        if isinstance(op, Reg):
            if op.is_rz:
                return self._imm("zx64", 0)
            return f"_r[{op.index}].astype(_I64)"
        if isinstance(op, Imm):
            return self._imm("zx64", op.bits)
        return None

    def _f32(self, op) -> str | None:
        """``read_f32``: float32 view with FP -/|| modifiers."""
        if isinstance(op, Reg):
            if op.is_rz:
                expr = self._imm("f32", 0)
            else:
                expr = f"_r[{op.index}].view(_F32)"
            if op.absolute:
                expr = f"_np.abs({expr})"
            if op.negate:
                expr = f"(-{expr})"
            return expr
        if isinstance(op, Imm):
            return self._imm("f32", op.bits)
        return None

    # -- destination stores ------------------------------------------------

    @staticmethod
    def _dest_reg(instr):
        dest = instr.dest
        if isinstance(dest, Reg) and not dest.is_rz:
            return dest.index
        return None

    def _store_i64(self, instr, expr: str, mask: str) -> list[str] | None:
        d = self._dest_reg(instr)
        if d is None:
            return ["pass"] if isinstance(instr.dest, Reg) else None
        return [f"_np.copyto(_r[{d}], ({expr}).astype(_U32), where={mask})"]

    def _store_u32(self, instr, expr: str, mask: str) -> list[str] | None:
        d = self._dest_reg(instr)
        if d is None:
            return ["pass"] if isinstance(instr.dest, Reg) else None
        return [f"_np.copyto(_r[{d}], {expr}, where={mask})"]

    def _store_f32(self, instr, expr: str, mask: str) -> list[str] | None:
        d = self._dest_reg(instr)
        if d is None:
            return ["pass"] if isinstance(instr.dest, Reg) else None
        return [f"_np.copyto(_r[{d}], ({expr}).view(_U32), where={mask})"]

    # -- per-opcode specializations ---------------------------------------

    def lines(self, instr, mask: str) -> list[str] | None:
        method = getattr(self, f"_op_{instr.opcode.lower()}", None)
        if method is None:
            return None
        return method(instr, mask)

    def _binary(self, instr, read):
        if len(instr.sources) != 2:
            return None, None
        return read(instr.sources[0]), read(instr.sources[1])

    def _op_mov(self, instr, mask):
        if len(instr.sources) != 1:
            return None
        a = self._u32(instr.sources[0])
        if a is None:
            return None
        return self._store_u32(instr, a, mask)

    def _op_iadd(self, instr, mask):
        a, b = self._binary(instr, self._i64)
        if a is None or b is None:
            return None
        return self._store_i64(instr, f"{a} + {b}", mask)

    def _op_iadd3(self, instr, mask):
        if len(instr.sources) != 3:
            return None
        a, b, c = (self._i64(op) for op in instr.sources)
        if a is None or b is None or c is None:
            return None
        return self._store_i64(instr, f"{a} + {b} + {c}", mask)

    def _op_imul(self, instr, mask):
        a, b = self._binary(instr, self._i64)
        if a is None or b is None:
            return None
        expr = f"{a} * {b}"
        if instr.has_modifier("HI"):
            expr = f"({expr}) >> 32"
        return self._store_i64(instr, expr, mask)

    def _op_imad(self, instr, mask):
        if len(instr.sources) != 3:
            return None
        a, b, c = (self._i64(op) for op in instr.sources)
        if a is None or b is None or c is None:
            return None
        return self._store_i64(instr, f"{a} * {b} + {c}", mask)

    def _op_iscadd(self, instr, mask):
        if len(instr.sources) != 3:
            return None
        a = self._i64(instr.sources[0])
        b = self._i64(instr.sources[1])
        shift_op = instr.sources[2]
        if a is None or b is None or not isinstance(shift_op, Imm):
            return None
        shift = _imm_scalar(shift_op.bits) & 31
        return self._store_i64(instr, f"({a} << {shift}) + {b}", mask)

    def _op_shl(self, instr, mask):
        # Immediate shift counts only: the handler's >=32 / cap-at-63
        # clamping folds to either a zero result or a plain shift.
        if len(instr.sources) != 2 or not isinstance(instr.sources[1], Imm):
            return None
        a = self._u32(instr.sources[0])
        if a is None:
            return None
        shift = _imm_scalar(instr.sources[1].bits) & 0xFF
        if shift >= 32:
            return self._store_u32(instr, self._imm("u32", 0), mask)
        return self._store_i64(instr, f"{a}.astype(_U64) << {shift}", mask)

    def _op_shr(self, instr, mask):
        if len(instr.sources) != 2 or not isinstance(instr.sources[1], Imm):
            return None
        shift = _imm_scalar(instr.sources[1].bits) & 0xFF
        if instr.has_modifier("S32"):
            a = self._i64(instr.sources[0])
            if a is None:
                return None
            return self._store_i64(instr, f"{a} >> {min(shift, 31)}", mask)
        a = self._u32(instr.sources[0])
        if a is None:
            return None
        if shift >= 32:
            return self._store_u32(instr, self._imm("u32", 0), mask)
        return self._store_i64(instr, f"{a}.astype(_U64) >> {shift}", mask)

    def _op_lop(self, instr, mask):
        if not instr.sources:
            return None
        a = self._u32(instr.sources[0])
        if a is None:
            return None
        if instr.has_modifier("NOT"):
            return self._store_u32(instr, f"~{a}", mask)
        if len(instr.sources) != 2:
            return None
        b = self._u32(instr.sources[1])
        if b is None:
            return None
        for mod, sym in (("AND", "&"), ("OR", "|"), ("XOR", "^")):
            if instr.has_modifier(mod):
                return self._store_u32(instr, f"{a} {sym} {b}", mask)
        return None

    def _op_fadd(self, instr, mask):
        a, b = self._binary(instr, self._f32)
        if a is None or b is None:
            return None
        return self._store_f32(instr, f"{a} + {b}", mask)

    def _op_fmul(self, instr, mask):
        a, b = self._binary(instr, self._f32)
        if a is None or b is None:
            return None
        return self._store_f32(instr, f"{a} * {b}", mask)

    def _op_ffma(self, instr, mask):
        if len(instr.sources) != 3:
            return None
        a, b, c = (self._f32(op) for op in instr.sources)
        if a is None or b is None or c is None:
            return None
        expr = (
            f"({a}).astype(_F64) * ({b}).astype(_F64) + ({c}).astype(_F64)"
        )
        return self._store_f32(instr, f"({expr}).astype(_F32)", mask)

    def _op_fmnmx(self, instr, mask):
        a, b = self._binary(instr, self._f32)
        if a is None or b is None:
            return None
        fn = "fmax" if instr.has_modifier("MAX") else "fmin"
        return self._store_f32(instr, f"_np.{fn}({a}, {b})", mask)

    def _setp(self, instr, mask, a, b):
        """Shared ISETP/FSETP tail: compare, combine, store predicate."""
        cmp_sym = None
        for mod in instr.modifiers:
            if mod in _CMP_SYMS:
                cmp_sym = _CMP_SYMS[mod]
                break
        if cmp_sym is None:
            return None
        expr = f"({a}) {cmp_sym} ({b})"
        if len(instr.sources) > 2:
            psrc = instr.sources[2]
            if not isinstance(psrc, Pred):
                return None
            if instr.has_modifier("OR"):
                sym = "|"
            elif instr.has_modifier("XOR"):
                sym = "^"
            else:
                sym = "&"
            if psrc.is_pt:
                # Constant pred source: resolve the combination statically.
                value = not psrc.negate
                if sym == "&":
                    if not value:
                        expr = f"_np.zeros_like({expr})"
                elif sym == "|":
                    if value:
                        expr = f"_np.ones_like({expr})"
                else:  # XOR
                    if value:
                        expr = f"~({expr})"
            else:
                pexpr = f"_p[{psrc.index}]"
                if psrc.negate:
                    pexpr = f"~{pexpr}"
                expr = f"({expr}) {sym} {pexpr}"
        dest = instr.dest
        if not isinstance(dest, Pred):
            return None
        if dest.is_pt:
            return ["pass"]
        return [
            f"_np.copyto(_p[{dest.index}], {expr}, "
            f"where={mask}, casting='unsafe')"
        ]

    def _op_isetp(self, instr, mask):
        if len(instr.sources) < 2:
            return None
        read = self._zx64 if instr.has_modifier("U32") else self._i64
        a = read(instr.sources[0])
        b = read(instr.sources[1])
        if a is None or b is None:
            return None
        return self._setp(instr, mask, a, b)

    def _op_fsetp(self, instr, mask):
        if len(instr.sources) < 2:
            return None
        a = self._f32(instr.sources[0])
        b = self._f32(instr.sources[1])
        if a is None or b is None:
            return None
        return self._setp(instr, mask, a, b)

    def _op_sel(self, instr, mask):
        return self._sel(instr, mask, self._u32, self._store_u32)

    def _op_fsel(self, instr, mask):
        return self._sel(instr, mask, self._f32, self._store_f32)

    def _sel(self, instr, mask, read, store):
        if len(instr.sources) != 3 or not isinstance(instr.sources[2], Pred):
            return None
        a = read(instr.sources[0])
        b = read(instr.sources[1])
        if a is None or b is None:
            return None
        p = instr.sources[2]
        if p.is_pt:
            # Constant selector: the chosen source's bits are the result
            # (f32 values round-trip to their original register bits).
            chosen = b if p.negate else a
            if store is self._store_f32:
                return self._store_u32(instr, f"({chosen}).view(_U32)", mask)
            return self._store_u32(instr, chosen, mask)
        pexpr = f"_p[{p.index}]"
        if p.negate:
            a, b = b, a
        return store(instr, f"_np.where({pexpr}, {a}, {b})", mask)


def _gen_block_source(instructions, start: int, end: int, pool: _ConstPool) -> str:
    """Source for one superhandler ``_b<start>(warp, device)``.

    The generated function executes instructions ``[start, end)`` exactly
    as the step interpreter would, with the per-instruction constant costs
    resolved at compile time:

    * one bulk ``device.tick_n(n)`` instead of n ``tick()`` calls (the
      caller has already checked watchdog headroom for the whole block);
    * ``_a = warp.active`` hoisted — ``active`` is invariant inside a
      block (only control opcodes mutate it) and non-empty whenever the
      warp is scheduled, so unguarded instructions pass it uncopied and
      skip ``any()``;
    * guarded instructions compute ``_a & [~]warp.preds[i]`` inline (the
      one mask that must stay per-instruction: predicates mutate
      mid-block) and keep the ``any()`` gate;
    * hot ALU opcodes are inlined by :class:`_Spec` instead of calling
      their generic handler (register file hoisted as ``_r``, immediates
      bound as shared read-only arrays, modifier branches resolved here);
    * on a mid-block raise, the over-charged ticks are rolled back and
      ``warp.pc`` is set to the faulting instruction, leaving device
      counters and warp state exactly as stepping would at the trap.
    """
    n = end - start
    params = ["warp", "device"]
    stmts: list[list[str]] = []
    spec = _Spec(pool)
    specialized = False
    need_active = False
    need_preds = False
    for pc in range(start, end):
        idx = pc - start
        instr = instructions[pc]
        guard = instr.guard
        lines = []
        if _is_unguarded(guard):
            inline = spec.lines(instr, "_a")
            if inline is not None:
                lines.extend(inline)
                specialized = True
            else:
                params.append(f"_h{idx}=_T[{pc}]")
                params.append(f"_i{idx}=_I[{pc}]")
                lines.append(f"_h{idx}(warp, _i{idx}, _a)")
            need_active = True
        elif guard.is_pt:
            # @!PT: statically never executes — only the tick is charged.
            lines.append(f"pass  # @!PT {instr.opcode}")
        else:
            invert = "~" if guard.negate else ""
            lines.append(f"_m = _a & {invert}_p[{guard.index}]")
            lines.append("if _m.any():")
            inline = spec.lines(instr, "_m")
            if inline is not None:
                lines.extend("    " + inner for inner in inline)
                specialized = True
            else:
                params.append(f"_h{idx}=_T[{pc}]")
                params.append(f"_i{idx}=_I[{pc}]")
                lines.append(f"    _h{idx}(warp, _i{idx}, _m)")
            need_active = True
            need_preds = True
        stmts.append(lines)

    body = [line for lines in stmts for line in lines]
    need_regs = any("_r[" in line for line in body)
    need_preds = need_preds or any("_p[" in line for line in body)
    if specialized:
        params.append(_DTYPE_PARAMS)
        params.extend(f"_c{idx}=_C[{idx}]" for idx in sorted(spec.used))

    out = [f"def _b{start}({', '.join(params)}):"]
    out.append(f"    device.tick_n({n})")
    if need_active:
        out.append("    _a = warp.active")
    if need_preds:
        out.append("    _p = warp.preds")
    if need_regs:
        out.append("    _r = warp.regs")
    if n == 1:
        # A raise leaves pc at the faulting instruction and exactly one
        # tick charged — already identical to stepping, no rollback needed.
        out.extend("    " + line for line in stmts[0])
        out.append(f"    warp.pc = {end}")
    else:
        out.append("    _pos = 0")
        out.append("    try:")
        for idx, lines in enumerate(stmts):
            out.extend("        " + line for line in lines)
            if idx < n - 1:
                out.append(f"        _pos = {idx + 1}")
        out.append("    except BaseException:")
        out.append(f"        device.untick({n} - 1 - _pos)")
        out.append(f"        warp.pc = {start} + _pos")
        out.append("        raise")
        out.append(f"    warp.pc = {end}")
    return "\n".join(out)


class _Span:
    """The content-keyed, kernel-instance-independent compilation product
    of one block: the compiled module holding its superhandler definition
    and the constant pool (shared read-only immediate arrays) it binds."""

    __slots__ = ("code", "consts")

    def __init__(self, code, consts) -> None:
        self.code = code
        self.consts = consts


# Process-global codegen cache, content fingerprint -> {(start, end): span}.
# Campaigns re-assemble the same kernels for every run, so the compile()
# cost is paid once per distinct block, not once per run; keying per span
# lets a hooked layout reuse every block that no hooked pc splits.
# Fork-based executors inherit it.
_CODE_CACHE: dict[str, dict[tuple[int, int], _Span]] = {}

# The break set of an uninstrumented launch.
_NO_BREAKS: frozenset[int] = frozenset()


def _compile_span(instructions, start: int, end: int) -> _Span:
    pool = _ConstPool()
    source = _gen_block_source(instructions, start, end, pool)
    return _Span(compile(source, "<gpusim-blockc>", "exec"), pool.values)


class Block:
    """One compiled basic block: ``run(warp, device)`` executes it whole."""

    __slots__ = ("start", "end", "length", "run")

    def __init__(self, start: int, end: int, run) -> None:
        self.start = start
        self.end = end
        self.length = end - start
        self.run = run


class CompiledKernel:
    """Per-kernel-instance execution tables.

    ``table`` is the per-pc dispatch table (handler / :func:`_CONTROL` /
    ``None``) and ``num_regs`` the register-file size, both computed once
    here instead of once per thread block.  ``layouts`` maps a break set
    (the hooked pcs of a launch; empty for uninstrumented launches) to a
    per-pc list holding each block-start pc's :class:`Block` and ``None``
    elsewhere.  Layouts share the bound :class:`Block` of every span they
    have in common.  ``instructions`` holds strong references to the exact
    instruction objects the code was bound to, making the identity check
    in :func:`compiled_for` sound (a freed id could otherwise be reused).
    """

    __slots__ = (
        "ids", "instructions", "table", "num_regs", "fingerprint",
        "layouts", "_bound",
    )

    def __init__(self, ids, instructions) -> None:
        self.ids = ids
        self.instructions = instructions
        self.table = build_table(instructions)
        self.num_regs = register_count(instructions)
        self.fingerprint: str | None = None
        self.layouts: dict[frozenset[int], list] = {}
        self._bound: dict[tuple[int, int], Block] = {}

    @property
    def blocks(self) -> list | None:
        """The uninstrumented layout, or ``None`` if never requested."""
        return self.layouts.get(_NO_BREAKS)

    @property
    def num_blocks(self) -> int:
        blocks = self.blocks
        return 0 if blocks is None else sum(
            1 for block in blocks if block is not None
        )

    def _build_layout(self, breaks: frozenset[int]) -> int:
        """Bind the layout split at ``breaks``; return the new bindings."""
        instructions = self.instructions
        if self.fingerprint is None:
            self.fingerprint = content_fingerprint(instructions)
        code = _CODE_CACHE.setdefault(self.fingerprint, {})
        namespace = {"_T": self.table, "_I": instructions, "_NP": np}
        blocks: list = [None] * len(instructions)
        bound = 0
        for span in _block_spans(instructions, breaks):
            block = self._bound.get(span)
            if block is None:
                compiled = code.get(span)
                if compiled is None:
                    compiled = code[span] = _compile_span(instructions, *span)
                namespace["_C"] = compiled.consts
                exec(compiled.code, namespace)
                block = Block(*span, namespace[f"_b{span[0]}"])
                self._bound[span] = block
                bound += 1
            blocks[span[0]] = block
        self.layouts[breaks] = blocks
        return bound


def compiled_for(
    kernel, device=None, want_blocks: bool = True, breaks=_NO_BREAKS,
) -> CompiledKernel:
    """The (cached) compiled tables for a kernel instance.

    Cached on the kernel object, validated against the identity of every
    instruction — an in-place rewrite (even of equal length) rebuilds the
    dispatch table, the register count and every layout.  With
    ``want_blocks=False`` only the table and register count are built
    (``block_compile=False`` devices never pay codegen); with it, the
    layout for ``breaks`` is bound on first request — ``breaks`` are the
    hooked pcs of an instrumented launch, which no block may contain.

    ``device`` (optional) receives the observability charges:
    ``blockc_blocks_compiled`` and ``blockc_compile_seconds``.
    """
    instructions = tuple(kernel.instructions)
    ids = tuple(map(id, instructions))
    compiled = getattr(kernel, "_gpusim_blockc", None)
    if compiled is None or compiled.ids != ids:
        compiled = CompiledKernel(ids, instructions)
        kernel._gpusim_blockc = compiled
    if want_blocks and breaks not in compiled.layouts:
        started = perf_counter()
        bound = compiled._build_layout(breaks)
        if device is not None and bound:
            device.blockc_blocks_compiled += bound
            device.blockc_compile_seconds += perf_counter() - started
    return compiled


def invalidate(kernel) -> None:
    """Drop a kernel's compiled tables, hooked layouts included (the next
    launch rebuilds them).

    Called by :meth:`repro.nvbit.api.NVBitRuntime.invalidate_instrumented`:
    a tool that forces a fresh instrumented clone may have rewritten the
    function's instructions, and the identity check alone should not be
    the only line of defence.
    """
    if getattr(kernel, "_gpusim_blockc", None) is not None:
        kernel._gpusim_blockc = None
