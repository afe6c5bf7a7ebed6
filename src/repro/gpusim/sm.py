"""Streaming multiprocessor: block/warp scheduling and the fetch-execute loop.

Scheduling is deterministic — blocks run in launch order on their assigned
SM, warps within a block run round-robin with a fixed quantum — so a
profiled ``<kernel, kernel_count, instruction_count>`` tuple always maps to
the same dynamic instruction in the injection run.  A block with a single
warp has nothing to interleave with, so that warp runs in one unbounded
slice.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from repro.errors import DeviceTrap
from repro.gpusim.blockc import (
    _CONTROL,
    CONTROL_STEPS,
    MAX_BLOCK_LEN,
    CompiledKernel,
    compiled_for,
)
from repro.gpusim.context import ExecContext, InstrSite
from repro.gpusim.warp import NO_LANES, Warp
from repro.sass.isa import NUM_PREDICATES, PT, WARP_SIZE
from repro.sass.program import Kernel

# Warp-instructions per scheduling slice.  Equal to the maximum compiled
# block length by construction, so a fresh slice can always run any block
# whole without changing the round-robin interleaving.
_QUANTUM = MAX_BLOCK_LEN

# The slice of a CTA's only warp: no quantum edge, since no other warp's
# instructions could interleave with its own.
_UNSLICED = float("inf")

Hooks = dict[int, tuple[list, list]]  # pc -> (before callbacks, after callbacks)


def _handler_table(kernel: Kernel) -> list:
    """Per-kernel pre-resolved dispatch table, one entry per static pc.

    Resolving ``HANDLERS.get(opcode)`` once per *static* instruction at
    first launch (cached on the kernel) replaces a dict lookup plus a
    frozenset membership test per *dynamic* instruction in the hot loop.
    Entries are the handler function, ``blockc._CONTROL`` for control-flow
    opcodes (executed by their ``blockc.CONTROL_STEPS`` function), or
    ``None`` for unknown opcodes — which still trap only when (and if)
    they are actually executed, exactly as before.

    Built and cached by :func:`repro.gpusim.blockc.compiled_for`, which
    keys on the identity of every instruction object — an in-place rewrite
    of the instruction list rebuilds the table even when the length is
    unchanged (the historical cache keyed on length alone and served stale
    dispatch for same-length rewrites).
    """
    return compiled_for(kernel, want_blocks=False).table


class SM:
    """One streaming multiprocessor."""

    def __init__(self, sm_id: int, device) -> None:
        self.sm_id = sm_id
        self.device = device

    def run_block(
        self,
        kernel: Kernel,
        ctx: ExecContext,
        compiled: CompiledKernel,
        blocks: list | None,
        hooks: Hooks | None,
        tally: tuple[dict, dict] | None = None,
    ) -> None:
        """Execute one thread block to completion.

        ``compiled`` and ``blocks`` (the layout split at the launch's hooked
        pcs, or ``None`` to step everything) are resolved once per launch
        by :meth:`Device.launch`, not once per thread block.  Warps take
        turns in slices of :data:`_QUANTUM` instructions; a lone warp's
        slice is unbounded, so its blocks never step at a quantum edge.
        ``tally`` (an uninstrumented launch of a counted run, see
        :mod:`repro.gpusim.counts`) has the slices count what they run.
        """
        warps = _build_warps(kernel, ctx, compiled.num_regs)
        self.device.warps_launched += len(warps)
        instrs = compiled.instructions
        table = compiled.table
        quantum = _UNSLICED if len(warps) == 1 else _QUANTUM
        while True:
            progressed = False
            for warp in warps:
                if warp.done or warp.at_barrier:
                    continue
                self._run_slice_fast(
                    warp, instrs, table, blocks, hooks, quantum, tally
                )
                progressed = True
            live = [w for w in warps if not w.done]
            if not live:
                return
            if all(w.at_barrier for w in live):
                for warp in live:
                    warp.at_barrier = False
                continue
            if not progressed:
                raise DeviceTrap(
                    f"barrier deadlock in kernel {kernel.name!r} "
                    f"(block {ctx.ctaid})"
                )

    def _run_slice_fast(
        self, warp: Warp, instrs, table, blocks, hooks: Hooks | None,
        quantum: float, tally: tuple[dict, dict] | None = None,
    ) -> None:
        """The slice loop of every launch: compiled blocks, stepped pcs.

        When ``blocks`` is supplied (block compilation enabled), a block at
        the current pc executes whole **only** when it fits the warp's
        remaining ``quantum`` (so the round-robin interleaving of warps
        over shared memory and atomics is unchanged) and the watchdog
        budget has headroom for every instruction in it (so the exact trap
        instruction of a budget exhaustion is unchanged).  Everything else
        — mid-block resume points, unknown opcodes, clock readers,
        unresolved branch targets, budget-edge and quantum-edge cases, and
        the pcs in ``hooks`` — steps.  Blocks never contain a hooked pc, so
        a hooked pc always steps: tick, guard mask, before-callbacks (each
        charging its instrumentation cycles), the handler or control op,
        then after-callbacks.

        ``tally`` (an uninstrumented launch of a counted run) is this SM's
        ``(steps, runs)``: a stepped pc adds one to ``steps[pc, exec mask
        bytes]``, a block run one to ``runs[start, active bytes]``, with
        the predicate bytes after the run appended to the key when the
        block is guarded.  A block that is not countable steps then.
        :class:`repro.gpusim.counts.LaunchCounter` expands the keys at the
        launch's end.
        """
        device = self.device
        num_instrs = len(instrs)
        budget = quantum
        while budget > 0:
            if warp.done or warp.at_barrier:
                return
            pc = warp.pc
            if pc >= num_instrs:
                raise DeviceTrap(
                    f"warp {warp.warp_id} fell off the end of the kernel"
                )
            if blocks is not None:
                block = blocks[pc]
                if (
                    block is not None
                    and block.length <= budget
                    and device.instructions_executed + block.length
                        <= device.instruction_budget
                    and (tally is None or block.countable)
                ):
                    if tally is None:
                        block.run(warp, device)
                    else:
                        active = warp.active.tobytes()
                        block.run(warp, device)
                        if block.guarded:
                            key = (pc, active, warp.preds.tobytes())
                        else:
                            key = (pc, active)
                        runs = tally[1]
                        runs[key] = runs.get(key, 0) + 1
                    device.blockc_block_hits += 1
                    budget -= block.length
                    continue
            instr = instrs[pc]
            device.tick()
            exec_mask = warp.guard_mask(instr.guard)
            if tally is not None:
                key = (pc, exec_mask.tobytes())
                steps = tally[0]
                steps[key] = steps.get(key, 0) + 1
            pc_hooks = None if hooks is None else hooks.get(pc)
            if pc_hooks is not None:
                site = InstrSite(warp, instr, exec_mask)
                executed = site.num_executed
                for callback in pc_hooks[0]:
                    device.charge_instrumentation(executed)
                    callback(site)
            handler = table[pc]
            if handler is _CONTROL:
                CONTROL_STEPS[instr.opcode](warp, instr, exec_mask)
                # Divergence-stack high-water mark: only control ops grow
                # the stack, so sampling here (and after each control op
                # of a compiled block) is exact.
                depth = len(warp.stack)
                if depth > device.divergence_depth_high_water:
                    device.divergence_depth_high_water = depth
            else:
                if exec_mask.tobytes() != NO_LANES:
                    if handler is None:
                        raise DeviceTrap(
                            f"opcode {instr.opcode} has no execution semantics"
                        )
                    handler(warp, instr, exec_mask)
                warp.pc += 1
            if pc_hooks is not None:
                for callback in pc_hooks[1]:
                    device.charge_instrumentation(executed)
                    callback(site)
            budget -= 1


class _CtaShape(NamedTuple):
    """The thread layout of one block shape, shared read-only by every
    CTA of that shape: per warp, its valid lanes and its thread-id rows."""

    num_warps: int
    valid: np.ndarray  # (num_warps, WARP_SIZE) bool
    invalid: np.ndarray  # its complement, the lanes that start exited
    tid: list[tuple[np.ndarray, np.ndarray, np.ndarray]]


@lru_cache(maxsize=64)
def _cta_shape(ntid: tuple[int, int, int]) -> _CtaShape:
    """Linearised thread ids and valid masks for a block shape, zero-padded
    to a warp multiple and reshaped to ``(num_warps, WARP_SIZE)`` rows."""
    bx, by, bz = ntid
    total = bx * by * bz
    num_warps = -(-total // WARP_SIZE)
    padded = num_warps * WARP_SIZE
    linear = np.arange(total, dtype=np.int64)
    tid = np.zeros((3, padded), dtype=np.uint32)
    tid[0, :total] = linear % bx
    tid[1, :total] = linear // bx % by
    tid[2, :total] = linear // (bx * by)
    tid = tid.reshape(3, num_warps, WARP_SIZE)
    valid = np.zeros(padded, dtype=bool)
    valid[:total] = True
    valid = valid.reshape(num_warps, WARP_SIZE)
    invalid = ~valid
    for array in (tid, valid, invalid):
        array.flags.writeable = False
    return _CtaShape(
        num_warps, valid, invalid,
        [(tid[0, w], tid[1, w], tid[2, w]) for w in range(num_warps)],
    )


def _build_warps(kernel: Kernel, ctx: ExecContext, num_regs: int) -> list[Warp]:
    """Split a block's threads into warps with linearised thread ids.

    The thread-id rows and valid masks come from the block shape's cached
    layout (:func:`_cta_shape`); the registers, predicates, exited masks
    and local memory of all the CTA's warps are allocated at once, one
    array each, and every warp gets its row of them.
    """
    shape = _cta_shape(ctx.ntid)
    count = shape.num_warps
    regs = np.zeros((count, max(num_regs, 1), WARP_SIZE), dtype=np.uint32)
    preds = np.zeros((count, NUM_PREDICATES, WARP_SIZE), dtype=bool)
    preds[:, PT] = True
    exited = shape.invalid.copy()
    local_bytes = kernel.local_bytes
    local = (
        np.zeros((count, max(local_bytes // 4, 1), WARP_SIZE), dtype=np.uint32)
        if local_bytes else [None] * count
    )
    warps = []
    for warp_id in range(count):
        warp = Warp(
            warp_id, regs[warp_id], preds[warp_id], shape.valid[warp_id],
            exited[warp_id], shape.tid[warp_id], local[warp_id], local_bytes,
        )
        warp.ctx = ctx
        warps.append(warp)
    return warps
