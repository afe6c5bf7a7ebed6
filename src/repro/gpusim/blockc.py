"""Block-compiled warp interpreter: basic blocks of SASS fused into superhandlers.

Simulating a launch instruction by instruction pays a Python constant per
dynamic warp-instruction in ``SM._run_slice_fast`` on top of the numpy
lane math: a dispatch index, one ``Warp.guard_mask`` call (which copies
``active``), one ``device.tick()`` and one lane-mask test.  This module
removes that constant:

* each kernel is partitioned once into **basic blocks** — maximal runs
  that may hold ``SSY``/``PBK`` anywhere and end with a ``BRA``,
  ``SYNC``, ``BRK``, ``EXIT`` or ``BAR`` (control flow ends a block),
  split at branch targets, unknown opcodes, ``SR_CLOCK`` readers (they
  observe the tick counter mid-block) and at :data:`MAX_BLOCK_LEN` so a
  block always fits one scheduling quantum;
* each block is code-generated into one Python **superhandler** via a
  source template + ``compile()``: ``warp.active`` / ``warp.preds`` /
  ``warp.regs`` are hoisted out of the block, guard masks are still
  evaluated per instruction (predicates mutate mid-block) but resolve to
  the no-copy ``_a`` fast path when the instruction is unguarded, the
  per-instruction mask tests / ``handler is None`` checks are resolved at
  compile time, and the ``device.tick()`` calls become a single bulk
  :meth:`~repro.gpusim.device.Device.tick_n` charge;
* a control op compiles to the same :class:`~repro.gpusim.warp.Warp` call
  the stepping loop makes (:data:`~repro.gpusim.exec_units.CONTROL_CALLS`
  is the one table of them; an unguarded ``BRA`` is ``warp.pc =
  target``), followed by the same divergence-depth sample;
* a 32-bit global load or store with a register base inlines its address
  computation and calls ``GlobalMemory.load32`` / ``store32``, the one
  copy of the memory semantics;
* a mid-block trap rolls the bulk tick charge back to the faulting
  instruction and restores ``warp.pc`` to it, so device counters, memory
  and warp state at the trap are exactly what per-instruction stepping
  would have produced.

Both tiers come from the same opcode templates
(:data:`repro.gpusim.exec_units.LANE_OPS`): :func:`build_table` binds each
templated pc to the stepping handler generated from its template (compiled
once per distinct template per process), and a block inlines the same
template's expression as statements — register reads as views of the
hoisted register file, ``c[..]`` reads as the launch's shared broadcast,
immediates as shared read-only arrays, the one masked store last.  A
shape the inliner does not take (an FP64 read of ``c[..]``, a malformed
instruction) calls the stepping handler, as does every opcode with a
hand-written handler.

The scheduler (``SM._run_slice_fast``) only executes a block whole when it
fits the warp's remaining quantum **and** the watchdog budget has headroom
for the whole block — otherwise it steps per-instruction — so the
round-robin interleaving of warps (atomics, shared memory) and the exact
watchdog trap point are preserved and ``results.csv`` plus simulated-cycle
totals are byte-identical with block compilation on or off.  A lone warp
has no one to interleave with, so its slice is unbounded and its blocks
never step at a quantum edge.

Instrumented launches use the same tier.  Their hooked pcs are extra
block boundaries: a hooked pc is never inside a block, so it always steps
(tick, before-callbacks, execute, after-callbacks) and every callback
sees exact ``instructions_executed`` and ``cycles``; the code between
hooked pcs runs compiled.

Compiled code lives on the kernel object.  ``cuModuleLoadData``
assembles each image once per process and hands every later load the
same kernels, so the blocks bound in a campaign's golden run serve its
injection runs.  The tables are validated against the *identity* of
every instruction (strong references are held, so ids cannot be
reused): an in-place rewrite, even of equal length, rebuilds them.  A
layout split at hooked pcs binds only the spans a hooked pc changes;
every other span reuses the block the kernel already bound.
"""

from __future__ import annotations

import re
from time import perf_counter

import numpy as np

from repro.errors import DeviceTrap
from repro.gpusim.exec_units import (
    CONTROL_CALLS,
    CONTROL_OPCODES,
    EXPR_NAMES,
    GLOBAL_LOADS,
    GLOBAL_STORES,
    HANDLERS,
    LANE_OPS,
    READERS,
    SHFL_MODES,
    SREG_EXPRS,
    WRITERS,
    LaneOp,
    _imm_array,
    access_width,
    reads_clock,
)
from repro.gpusim.warp import NO_LANES
from repro.sass.isa import WARP_SIZE
from repro.sass.operands import ConstMem, Imm, MemRef, Pred, Reg
from repro.sass.program import register_count

# Must equal the SM scheduling quantum (repro.gpusim.sm imports it from
# here): a block longer than one slice could never run whole, and capping
# block length at the quantum keeps the warp round-robin interleaving
# identical to per-instruction stepping.
MAX_BLOCK_LEN = 64

# Control opcodes that carry a label operand (their resolved targets are
# block boundaries).
_BRANCHING = frozenset({"BRA", "SSY", "PBK"})

# Control opcodes that may move ``warp.pc`` or change ``active``: a block
# ends with one.  SSY and PBK only push a stack entry, so blocks hold them.
_ENDS_BLOCK = CONTROL_OPCODES - {"SSY", "PBK"}

# The execution mask of an @!PT instruction: no lane; and the value of a
# ``!PT`` / ``PT`` predicate source.
_NO_LANE_MASK = np.zeros(WARP_SIZE, dtype=bool)
_NO_LANE_MASK.flags.writeable = False
_ALL_LANE_MASK = np.ones(WARP_SIZE, dtype=bool)
_ALL_LANE_MASK.flags.writeable = False

# The raw bits of an FP32 -0.0: ``-RZ`` read as FP64 (widened).
_F32_NEG_ZERO = 0x80000000


def _CONTROL(*_args) -> None:  # pragma: no cover - dispatch sentinel, never called
    """Handler-table sentinel marking a control-flow opcode.

    A module-level function (not ``object()``) so its identity survives
    pickling, should a kernel with a cached table ever cross a process
    boundary.
    """
    raise AssertionError("_CONTROL is a dispatch sentinel")


def _target(instr) -> int | None:
    """A branching op's resolved target, or ``None`` if it has none."""
    try:
        return instr.branch_target
    except ValueError:
        return None


def build_table(instructions) -> list:
    """Pre-resolved dispatch table, one entry per static pc.

    Entries are the handler function, :func:`_CONTROL` for control-flow
    opcodes, or ``None`` for unknown opcodes — which still trap only when
    (and if) they are actually executed.  A templated opcode's handler is
    generated from its template; a malformed one gets a handler that
    raises the template's trap.
    """
    return [_dispatch(instr) for instr in instructions]


def _dispatch(instr):
    if instr.opcode in CONTROL_OPCODES:
        return _CONTROL
    template = LANE_OPS.get(instr.opcode)
    if template is None:
        return HANDLERS.get(instr.opcode)
    try:
        return _stepping_handler(template(instr))
    except DeviceTrap as trap:
        return _trapping(str(trap))


def _trapping(message: str):
    def handler(warp, instr, mask):
        raise DeviceTrap(message)

    return handler


def _control_step(opcode: str):
    """The stepping function ``(warp, instr, mask)`` of a control opcode:
    its :data:`CONTROL_CALLS` entry, the target resolved per call."""
    call = CONTROL_CALLS[opcode].format(mask="mask", target="instr.branch_target")
    namespace: dict = {}
    exec(compile(f"def _c(warp, instr, mask):\n    {call}", "<gpusim-step>", "exec"),
         namespace)
    return namespace["_c"]


# Control opcode -> stepping function; the step loop calls it where the
# table holds :func:`_CONTROL`.
CONTROL_STEPS = {opcode: _control_step(opcode) for opcode in CONTROL_CALLS}


# Process-global stepping handlers, one per distinct template.
_HANDLER_CACHE: dict[LaneOp, object] = {}

# Globals of a generated stepping handler: the expression names plus
# ``_read_<kind>`` / ``_write_<kind>`` for every reader and writer.
_STEP_GLOBALS = {
    **EXPR_NAMES,
    **{f"_read_{kind}": read for kind, read in READERS.items()},
    **{f"_write_{kind}": write for kind, write in WRITERS.items()},
}


def _stepping_handler(op: LaneOp):
    """The ``handler(warp, instr, mask)`` generated from ``op``.

    It reads each needed source with the generic reader (so every operand
    shape the reader takes works, and one it cannot take traps), evaluates
    the expression and stores through the writer.  The source depends on
    the template only, not on register numbers, so it is compiled once per
    distinct template for the whole process.
    """
    handler = _HANDLER_CACHE.get(op)
    if handler is None:
        args = [None if kind is None else f"_v{i}" for i, kind in enumerate(op.reads)]
        lines = ["def _h(warp, instr, mask):", "    _s = instr.sources"]
        lines.extend(
            f"    _v{i} = _read_{kind}(warp, _s[{i}])"
            for i, kind in enumerate(op.reads) if kind is not None
        )
        lines.append(
            f"    _write_{op.writer}(warp, instr, "
            f"{op.expr.format(*args, mask='mask')}, mask)"
        )
        namespace = dict(_STEP_GLOBALS)
        exec(compile("\n".join(lines), "<gpusim-step>", "exec"), namespace)
        handler = _HANDLER_CACHE[op] = namespace["_h"]
    return handler


def _compilable(instr) -> bool:
    """Can this instruction live inside a compiled block?

    Unknown opcodes must keep their trap-only-when-executed semantics (the
    step path raises at execution time); ``SR_CLOCK`` readers observe
    ``instructions_executed`` mid-block, which the bulk ``tick_n`` charge
    would perturb; a branching op whose target does not resolve keeps the
    stepping path's error.
    """
    opcode = instr.opcode
    if opcode in _BRANCHING:
        return _target(instr) is not None
    if opcode in CONTROL_OPCODES:
        return True
    if opcode not in HANDLERS and opcode not in LANE_OPS:
        return False
    return not reads_clock(instr)


def _block_spans(instructions, breaks) -> list[tuple[int, int]]:
    """Partition into maximal compilable runs ``[start, end)``.

    A run ends after a control op in :data:`_ENDS_BLOCK` and splits at
    branch targets (a jump must land on a block start or plain-stepped
    pc, never mid-block), non-compilable instructions,
    :data:`MAX_BLOCK_LEN`, and ``breaks`` — the hooked pcs of an
    instrumented launch, which step so their callbacks run and see exact
    counters.
    """
    starts = {
        _target(instr) for instr in instructions if instr.opcode in _BRANCHING
    }
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
            and instructions[j - 1].opcode not in _ENDS_BLOCK
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
# Inlining a template into block code
# ---------------------------------------------------------------------------

# A source row read as an expression: the row is a register of the
# hoisted ``_r = warp.regs`` or a constant-bank broadcast of the hoisted
# ``_k = warp.ctx.const.broadcast``, read as views where the reader's copy
# is value-equivalent (no template expression mutates a read, and the one
# store comes last, so ``IADD R1, R1, 1`` stays exact).  The kinds in
# ``_SIGNED`` apply -/|..| to a register as their readers do; RZ reads zero
# unmodified, except as FP64, where ``-RZ`` is -0.0.
_ROW_READS = {
    "u32": "{}",
    "i32": "{}.view(_I32)",
    "i64": "{}.view(_I32).astype(_I64)",
    "zx64": "{}.astype(_I64)",
    "f32": "{}.view(_F32)",
    **{f"lane_{mode}": f"_shfl_source({mode!r}, {{}})" for mode in SHFL_MODES},
}
_SIGNED = frozenset({"i64", "f32", "f64"})

# A register pair as float64 (``read_f64``): its two rows, transposed into
# one contiguous copy and viewed whole.
_F64_PAIR = "_r[{}:{}].T.copy().view(_F64)[:, 0]"

_STORES = {
    "u32": "_np.copyto(_r[{dest}], {value}, where={mask})",
    "int": "_np.copyto(_r[{dest}], ({value}).astype(_U32), where={mask})",
    "f32": "_np.copyto(_r[{dest}], ({value}).view(_U32), where={mask})",
    "f64": (
        "_np.copyto(_r[{dest}:{dest} + 2], "
        f"({{value}}).view(_U32).reshape({WARP_SIZE}, 2).T, where={{mask}})"
    ),
    "pred": "_np.copyto(_p[{dest}], {value}, where={mask}, casting='unsafe')",
}

# Warp state a block reads once, up front, if its statements use it.
_HOISTED = (
    ("_a", "warp.active"),
    ("_p", "warp.preds"),
    ("_r", "warp.regs"),
    ("_g", "warp.ctx.global_mem"),
    ("_k", "warp.ctx.const.broadcast"),
)

# The expression names, bound as keyword defaults of a block that inlines
# (LOAD_FAST instead of global lookups).
_EXPR_PARAMS = ", ".join(f"{name}={name}" for name in EXPR_NAMES)


class _ConstPool:
    """One block's constants, referenced by its generated code as ``_C[i]``:
    the shared read-only immediate arrays it binds as keyword defaults."""

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


def _read_expr(op, kind: str, const) -> str | None:
    """One source read as an expression, or ``None`` if not inlinable."""
    if kind == "pred":
        if not isinstance(op, Pred):
            return None
        if op.is_pt:
            return const(_NO_LANE_MASK if op.negate else _ALL_LANE_MASK)
        return f"(~_p[{op.index}])" if op.negate else f"_p[{op.index}]"
    if kind == "sreg":
        return SREG_EXPRS[op.name]  # the template checked it is one
    if isinstance(op, Imm):
        return const(_imm_array(kind, op.bits))
    if isinstance(op, ConstMem):
        if kind == "f64":
            return None  # traps in the reader
        return _ROW_READS[kind].format(f"_k({op.offset})")
    if not isinstance(op, Reg):
        return None
    if op.is_rz:
        negative = kind == "f64" and op.negate
        return const(_imm_array(kind, _F32_NEG_ZERO if negative else 0))
    if kind == "f64":
        expr = _F64_PAIR.format(op.index, op.index + 2)
    else:
        expr = _ROW_READS[kind].format(f"_r[{op.index}]")
    if kind in _SIGNED:
        if op.absolute:
            expr = f"_np.abs({expr})"
        if op.negate:
            expr = f"(-{expr})"
    return expr


def _inline(instr, mask: str, const) -> list[str] | None:
    """The statements of a templated instruction under ``mask``, or
    ``None`` when the block must call its stepping handler instead."""
    template = LANE_OPS.get(instr.opcode)
    if template is None:
        return None
    try:
        op = template(instr)
    except DeviceTrap:
        return None
    args = []
    for i, kind in enumerate(op.reads):
        if kind is None:
            args.append(None)
            continue
        expr = _read_expr(instr.sources[i], kind, const)
        if expr is None:
            return None
        args.append(expr)
    dest = instr.dest
    if op.writer == "pred":
        dropped = not isinstance(dest, Pred) or dest.is_pt
    else:
        dropped = not isinstance(dest, Reg) or dest.is_rz
    if dropped:
        # The writer stores nothing, but a c[..] read still validates.
        return [
            f"_k({src.offset})"
            for src, kind in zip(instr.sources, op.reads)
            if kind is not None and isinstance(src, ConstMem)
        ] or ["pass"]
    lines = []
    for i, expr in enumerate(args):
        if expr is not None and op.expr.count(f"{{{i}}}") > 1:
            lines.append(f"_x{i} = {expr}")
            args[i] = f"_x{i}"
    lines.append(_STORES[op.writer].format(
        dest=dest.index, value=op.expr.format(*args, mask=mask), mask=mask,
    ))
    return lines


def _inline_global(instr, mask: str, const) -> list[str] | None:
    """A 32-bit global load or store with a register base under ``mask``,
    or ``None`` when the block must call its handler instead.

    The address computation is inlined; the access itself calls
    ``GlobalMemory.load32`` / ``store32``, which stay the one copy of its
    validation, gather/scatter and dirty-page tracking.
    """
    ref = instr.sources[0] if instr.sources else None
    if (
        access_width(instr) != 4
        or not isinstance(ref, MemRef)
        or ref.reg is None
        or ref.reg == 255
    ):
        return None
    address = f"_r[{ref.reg}].astype(_I64)"
    if ref.offset:
        address += f" {'-' if ref.offset < 0 else '+'} {abs(ref.offset)}"
    if instr.opcode in GLOBAL_LOADS:
        load = f"_g.load32({address}, {mask})"
        dest = instr.dest
        if not isinstance(dest, Reg) or dest.is_rz:
            return [load]  # the writer stores nothing
        return [f"_np.copyto(_r[{dest.index}], {load}, where={mask})"]
    value = instr.sources[1] if len(instr.sources) > 1 else None
    if isinstance(value, Reg):
        values = const(_imm_array("u32", 0)) if value.is_rz else f"_r[{value.index}]"
    elif isinstance(value, Imm):
        values = const(_imm_array("u32", value.bits))
    else:
        return None
    return [f"_g.store32({address}, {mask}, {values})"]


def _control_lines(instr, pc: int, start: int, const) -> list[str]:
    """A control op's :data:`CONTROL_CALLS` entry as block statements.

    A closing op sees the exact ``warp.pc`` (inside a block it is stale:
    still the block start, or advanced by an SSY/PBK).  Every call is
    followed by the divergence-depth sample the stepping loop takes.  An
    unguarded ``BRA`` takes every active lane, so it is ``warp.pc =
    target``.
    """
    opcode = instr.opcode
    target = _target(instr) if opcode in _BRANCHING else None
    call = CONTROL_CALLS[opcode]
    lines = []
    mask = None
    if "{mask}" in call:
        guard = instr.guard
        if _is_unguarded(guard):
            if opcode == "BRA":
                return [f"warp.pc = {target}"]
            mask = "_a"
        elif guard.is_pt:  # @!PT: no lane executes
            mask = const(_NO_LANE_MASK)
        else:
            invert = "~" if guard.negate else ""
            lines.append(f"_m = _a & {invert}_p[{guard.index}]")
            mask = "_m"
    if pc != start and opcode in _ENDS_BLOCK:
        lines.append(f"warp.pc = {pc}")
    lines.append(call.format(mask=mask, target=target))
    lines.append("_d = len(warp.stack)")
    lines.append("if _d > device.divergence_depth_high_water:")
    lines.append("    device.divergence_depth_high_water = _d")
    return lines


def _gen_block_source(instructions, start: int, end: int, pool: _ConstPool) -> str:
    """Source for one superhandler ``_b<start>(warp, device)``.

    The generated function executes instructions ``[start, end)`` exactly
    as the step interpreter would, with the per-instruction constant costs
    resolved at compile time:

    * one bulk ``device.tick_n(n)`` instead of n ``tick()`` calls (the
      caller has already checked watchdog headroom for the whole block);
    * ``_a = warp.active`` hoisted — ``active`` is invariant inside a
      block (only the control op that ends it can change it) and
      non-empty whenever the warp is scheduled, so unguarded instructions
      pass it uncopied and skip the emptiness test;
    * guarded instructions compute ``_a & [~]warp.preds[i]`` inline (the
      one mask that must stay per-instruction: predicates mutate
      mid-block) and keep the emptiness test, as a byte compare;
    * templated opcodes are inlined by :func:`_inline` instead of calling
      their stepping handler (register file hoisted as ``_r``, immediates
      bound as shared read-only arrays, modifiers resolved by the template),
      global loads and stores by :func:`_inline_global` and control ops by
      :func:`_control_lines`;
    * on a mid-block raise, the over-charged ticks are rolled back and
      ``warp.pc`` is set to the faulting instruction, leaving device
      counters and warp state exactly as stepping would at the trap.
    """
    n = end - start
    params = ["warp", "device"]
    stmts: list[list[str]] = []
    used: set[int] = set()

    def const(value) -> str:
        idx = pool.add(value)
        used.add(idx)
        return f"_c{idx}"

    inlined = False
    for pc in range(start, end):
        idx = pc - start
        instr = instructions[pc]
        if instr.opcode in CONTROL_CALLS:
            stmts.append(_control_lines(instr, pc, start, const))
            continue
        guard = instr.guard
        unguarded = _is_unguarded(guard)
        if not unguarded and guard.is_pt:
            # @!PT: statically never executes — only the tick is charged.
            stmts.append([f"pass  # @!PT {instr.opcode}"])
            continue
        mask = "_a" if unguarded else "_m"
        if instr.opcode in GLOBAL_LOADS or instr.opcode in GLOBAL_STORES:
            lines = _inline_global(instr, mask, const)
        else:
            lines = _inline(instr, mask, const)
        if lines is None:
            params.append(f"_h{idx}=_T[{pc}]")
            params.append(f"_i{idx}=_I[{pc}]")
            lines = [f"_h{idx}(warp, _i{idx}, {mask})"]
        else:
            inlined = True
        if not unguarded:
            invert = "~" if guard.negate else ""
            lines = [
                f"_m = _a & {invert}_p[{guard.index}]",
                "if _m.tobytes() != _NO_LANES:",
            ] + ["    " + line for line in lines]
        stmts.append(lines)

    names = set(re.findall(r"\b_[A-Za-z_]+\b", "\n".join(
        line for lines in stmts for line in lines
    )))
    if "_NO_LANES" in names:
        params.append("_NO_LANES=_NO_LANES")
    if inlined:
        params.append(_EXPR_PARAMS)
    params.extend(f"_c{idx}=_C[{idx}]" for idx in sorted(used))

    out = [f"def _b{start}({', '.join(params)}):"]
    out.append(f"    device.tick_n({n})")
    for name, value in _HOISTED:
        if name in names:
            out.append(f"    {name} = {value}")
    # A block ending in a control op leaves warp.pc where that op put it.
    epilogue = (
        [] if instructions[end - 1].opcode in _ENDS_BLOCK
        else [f"    warp.pc = {end}"]
    )
    if n == 1:
        # A raise leaves pc at the faulting instruction and exactly one
        # tick charged — already identical to stepping, no rollback needed.
        out.extend("    " + line for line in stmts[0])
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
    out.extend(epilogue)
    return "\n".join(out)


# The break set of an uninstrumented launch.
_NO_BREAKS: frozenset[int] = frozenset()


class Block:
    """One compiled basic block: ``run(warp, device)`` executes it whole.

    ``countable`` and ``guarded`` serve the golden run's instruction counts
    (:mod:`repro.gpusim.counts`): every exec mask of a countable block
    follows from ``warp.active`` before its run and, when it is
    ``guarded`` (some pc carries a predicate guard), the predicates after
    it.
    """

    __slots__ = ("start", "end", "length", "run", "countable", "guarded")

    def __init__(self, start: int, end: int, run, instructions) -> None:
        self.start = start
        self.end = end
        self.length = end - start
        self.run = run
        self.countable, self.guarded = _count_shape(instructions[start:end])


def _count_shape(instructions) -> tuple[bool, bool]:
    """``(countable, guarded)`` of a block's instructions.

    A guarded pc's exec mask is ``active`` and its predicate at that pc,
    which equals the predicate after the run unless the pc or a later one
    writes it (``R2P`` may write any).  A block where that happens is not
    countable from its boundaries, so the counting run steps it.
    """
    guarded = False
    written: set[int] = set()  # predicates written at or after this pc
    every = False  # an R2P at or after this pc
    for instr in reversed(instructions):
        if instr.opcode == "R2P":
            every = True
        elif instr.dest_pred is not None:
            written.add(instr.dest_pred)
        guard = instr.guard
        if guard is not None and not guard.is_pt:
            guarded = True
            if every or guard.index in written:
                return False, True
    return True, guarded


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
        "ids", "instructions", "table", "num_regs", "layouts", "_bound",
    )

    def __init__(self, ids, instructions) -> None:
        self.ids = ids
        self.instructions = instructions
        self.table = build_table(instructions)
        self.num_regs = register_count(instructions)
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
        namespace = {
            "_T": self.table, "_I": instructions, "_NO_LANES": NO_LANES,
            **EXPR_NAMES,
        }
        blocks: list = [None] * len(instructions)
        bound = 0
        for span in _block_spans(instructions, breaks):
            block = self._bound.get(span)
            if block is None:
                pool = _ConstPool()
                source = _gen_block_source(instructions, *span, pool)
                namespace["_C"] = pool.values
                exec(compile(source, "<gpusim-blockc>", "exec"), namespace)
                block = Block(*span, namespace[f"_b{span[0]}"], instructions)
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

