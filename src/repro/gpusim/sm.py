"""Streaming multiprocessor: block/warp scheduling and the fetch-execute loop.

Scheduling is deterministic — blocks run in launch order on their assigned
SM, warps within a block run round-robin with a fixed quantum — so a
profiled ``<kernel, kernel_count, instruction_count>`` tuple always maps to
the same dynamic instruction in the injection run.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DeviceTrap
from repro.gpusim.blockc import (
    _CONTROL,
    MAX_BLOCK_LEN,
    CompiledKernel,
    compiled_for,
)
from repro.gpusim.context import ExecContext, InstrSite
from repro.gpusim.warp import Warp
from repro.sass.isa import WARP_SIZE
from repro.sass.program import Kernel

# Warp-instructions per scheduling slice.  Equal to the maximum compiled
# block length by construction, so a fresh slice can always run any block
# whole without changing the round-robin interleaving.
_QUANTUM = MAX_BLOCK_LEN

Hooks = dict[int, tuple[list, list]]  # pc -> (before callbacks, after callbacks)


def _handler_table(kernel: Kernel) -> list:
    """Per-kernel pre-resolved dispatch table, one entry per static pc.

    Resolving ``HANDLERS.get(opcode)`` once per *static* instruction at
    first launch (cached on the kernel) replaces a dict lookup plus a
    frozenset membership test per *dynamic* instruction in the hot loop.
    Entries are the handler function, ``blockc._CONTROL`` for control-flow
    opcodes, or ``None`` for unknown opcodes — which still trap only when
    (and if) they are actually executed, exactly as before.

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
    ) -> None:
        """Execute one thread block to completion.

        ``compiled`` and ``blocks`` (the layout split at the launch's hooked
        pcs, or ``None`` to step everything) are resolved once per launch
        by :meth:`Device.launch`, not once per thread block.
        """
        warps = _build_warps(kernel, ctx, compiled.num_regs)
        self.device.warps_launched += len(warps)
        instrs = compiled.instructions
        table = compiled.table
        while True:
            progressed = False
            for warp in warps:
                if warp.done or warp.at_barrier:
                    continue
                self._run_slice_fast(warp, instrs, table, blocks, hooks)
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
    ) -> None:
        """The slice loop of every launch: compiled blocks, stepped pcs.

        When ``blocks`` is supplied (block compilation enabled), a block at
        the current pc executes whole **only** when it fits the warp's
        remaining quantum (so the round-robin interleaving of warps over
        shared memory and atomics is unchanged) and the watchdog budget has
        headroom for every instruction in it (so the exact trap instruction
        of a budget exhaustion is unchanged).  Everything else — mid-block
        resume points, unknown opcodes, clock readers, budget-edge and
        quantum-edge cases, and the pcs in ``hooks`` — steps.  Blocks never
        contain a hooked pc, so a hooked pc always steps: tick, guard mask,
        before-callbacks (each charging its instrumentation cycles), the
        handler or control op, then after-callbacks.
        """
        device = self.device
        num_instrs = len(instrs)
        budget = _QUANTUM
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
                ):
                    block.run(warp, device)
                    device.blockc_block_hits += 1
                    budget -= block.length
                    continue
            instr = instrs[pc]
            device.tick()
            exec_mask = warp.guard_mask(instr.guard)
            pc_hooks = None if hooks is None else hooks.get(pc)
            if pc_hooks is not None:
                site = InstrSite(warp, instr, exec_mask)
                executed = site.num_executed
                for callback in pc_hooks[0]:
                    device.charge_instrumentation(executed)
                    callback(site)
            handler = table[pc]
            if handler is _CONTROL:
                self._control(warp, instr, exec_mask)
            else:
                if exec_mask.any():
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

    def _control(self, warp: Warp, instr, exec_mask: np.ndarray) -> None:
        opcode = instr.opcode
        if opcode == "BRA":
            warp.branch(exec_mask, instr.branch_target)
        elif opcode == "SSY":
            warp.push_ssy(instr.branch_target)
        elif opcode == "PBK":
            warp.push_pbk(instr.branch_target)
        elif opcode == "SYNC":
            warp.sync()
        elif opcode == "BRK":
            warp.brk(exec_mask)
        elif opcode == "EXIT":
            warp.exit_lanes(exec_mask)
        elif opcode == "BAR":
            warp.at_barrier = True
            warp.pc += 1
        else:  # pragma: no cover - CONTROL_OPCODES is exhaustive
            raise DeviceTrap(f"unhandled control opcode {opcode}")
        # Divergence-stack high-water mark: only control ops grow the stack,
        # so sampling here is exact and stays off the arithmetic hot path.
        depth = len(warp.stack)
        if depth > self.device.divergence_depth_high_water:
            self.device.divergence_depth_high_water = depth


def _build_warps(kernel: Kernel, ctx: ExecContext, num_regs: int) -> list[Warp]:
    """Split a block's threads into warps with linearised thread ids.

    All three thread-id components (and the valid mask) are built once for
    the whole block — zero-padded to a warp multiple, then reshaped to
    ``(num_warps, WARP_SIZE)`` — so each warp receives row views instead of
    one ``np.concatenate`` per warp per component.
    """
    bx, by, bz = ctx.ntid
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
    warps = []
    for warp_id in range(num_warps):
        warp = Warp(
            warp_id=warp_id,
            num_regs=num_regs,
            valid_mask=valid[warp_id],
            tid=(tid[0, warp_id], tid[1, warp_id], tid[2, warp_id]),
            local_bytes=kernel.local_bytes,
        )
        warp.ctx = ctx
        warps.append(warp)
    return warps
