"""Warp state: registers, predicates, and the SIMT divergence stack.

The divergence model is the classic pre-Volta stack machine:

* ``SSY L`` pushes a reconvergence point for a potentially divergent branch;
  both paths end by executing ``SYNC`` at (or branching to) ``L``.
* a divergent ``@P BRA`` pushes the fall-through half as a ``DIV`` entry and
  runs the taken half first;
* ``PBK L`` / ``@P BRK`` implement loops with divergent exits: broken lanes
  park in the ``PBK`` entry until the last lane leaves the loop.

Lanes that ``EXIT`` are removed from every future mask via ``exited``.

Masks are tested for emptiness by their bytes (``mask.tobytes() !=
NO_LANES``): a 32-byte compare is about ten times cheaper than
``ndarray.any()``, and these tests run once per control op.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import DeviceTrap
from repro.sass.isa import WARP_SIZE
from repro.sass.operands import Pred

# The bytes of a lane mask with no lane set.
NO_LANES = bytes(WARP_SIZE)


@dataclass
class StackEntry:
    """One SIMT stack entry; ``gather`` collects lanes waiting to resume."""

    kind: str  # "SSY", "DIV" or "PBK"
    target_pc: int
    mask: np.ndarray  # lanes governed by / resuming at this entry
    gather: np.ndarray = field(
        default_factory=lambda: np.zeros(WARP_SIZE, dtype=bool)
    )  # SSY: arrived lanes; PBK: broken lanes; DIV: unused


class Warp:
    """One 32-lane warp executing a kernel.

    Invariant relied on by the block-compiled interpreter
    (:mod:`repro.gpusim.blockc`): ``active`` is only reassigned by the
    control-flow methods below (branch/sync/brk/exit_lanes/_refill) and is
    non-empty whenever the warp is schedulable (``done`` is set the moment
    it drains).  ``push_ssy`` and ``push_pbk`` leave it alone, so up to a
    block's closing ``BRA``/``SYNC``/``BRK``/``EXIT``/``BAR`` the
    ``active`` array — the object itself, not just its contents — is
    stable: a compiled block may hoist one reference and pass it as the
    execution mask of every unguarded instruction.
    ``__slots__`` keeps per-instruction attribute loads on the interpreter
    hot path cheap (and catches stray attribute writes).
    """

    __slots__ = (
        "warp_id", "regs", "preds", "pc", "valid", "active", "exited",
        "stack", "tid_x", "tid_y", "tid_z", "at_barrier", "done",
        "local", "local_bytes", "ctx",
    )

    def __init__(
        self,
        warp_id: int,
        regs: np.ndarray,
        preds: np.ndarray,
        valid: np.ndarray,
        exited: np.ndarray,
        tid: tuple[np.ndarray, np.ndarray, np.ndarray],
        local: np.ndarray | None = None,
        local_bytes: int = 0,
    ) -> None:
        """A warp over arrays its CTA allocated: ``regs`` ``(num_regs,
        WARP_SIZE)`` zeros, ``preds`` ``(NUM_PREDICATES, WARP_SIZE)`` with
        only PT set, ``exited`` the complement of ``valid`` and ``local``
        its local memory (or ``None``), all its own.  ``valid`` and the
        ``tid`` rows may be shared read-only: ``active`` starts as
        ``valid`` itself, and is only ever replaced, never written."""
        self.warp_id = warp_id
        self.regs = regs
        self.preds = preds
        self.pc = 0
        self.valid = valid
        self.active = valid
        self.exited = exited
        self.stack: list[StackEntry] = []
        self.tid_x, self.tid_y, self.tid_z = tid
        self.at_barrier = False
        self.done = valid.tobytes() == NO_LANES
        self.local = local
        self.local_bytes = local_bytes

    # -- register access (lane-scalar helpers used by the NVBit layer) -------

    def read_reg_lane(self, reg: int, lane: int) -> int:
        if reg == 255:
            return 0
        return int(self.regs[reg, lane])

    def write_reg_lane(self, reg: int, lane: int, value: int) -> None:
        if reg == 255:
            return
        self.regs[reg, lane] = np.uint32(value & 0xFFFFFFFF)

    def read_pred_lane(self, pred: int, lane: int) -> bool:
        if pred == 7:
            return True
        return bool(self.preds[pred, lane])

    def write_pred_lane(self, pred: int, lane: int, value: bool) -> None:
        if pred == 7:
            return
        self.preds[pred, lane] = bool(value)

    # -- guard evaluation ------------------------------------------------------

    def guard_mask(self, guard: Pred | None) -> np.ndarray:
        """Lanes that actually execute the instruction (active AND guard)."""
        if guard is None or guard.is_pt and not guard.negate:
            return self.active.copy()
        value = self.preds[guard.index]
        if guard.negate:
            value = ~value
        return self.active & value

    # -- control flow -----------------------------------------------------------

    def branch(self, taken: np.ndarray, target_pc: int) -> None:
        """Resolve a (possibly divergent) predicated branch."""
        if taken.tobytes() == NO_LANES:
            self.pc += 1
            return
        fallthrough = self.active & ~taken
        if fallthrough.tobytes() == NO_LANES:
            self.pc = target_pc
            return
        self.stack.append(StackEntry("DIV", self.pc + 1, fallthrough))
        self.active = taken
        self.pc = target_pc

    def push_ssy(self, target_pc: int) -> None:
        self.stack.append(StackEntry("SSY", target_pc, self.active.copy()))
        self.pc += 1

    def sync(self) -> None:
        """Reconverge at the innermost SSY point."""
        ssy = self._nearest("SSY")
        ssy.gather |= self.active
        top = self.stack[-1]
        if top.kind == "DIV":
            self.stack.pop()
            self.pc = top.target_pc
            self.active = top.mask & ~self.exited
            if self.active.tobytes() == NO_LANES:
                self._refill()
        elif top is ssy:
            self.stack.pop()
            self.pc = ssy.target_pc
            self.active = ssy.gather & ~self.exited
            if self.active.tobytes() == NO_LANES:
                self._refill()
        else:
            raise DeviceTrap(
                f"SYNC at pc {self.pc}: unexpected {top.kind} on top of stack"
            )

    def push_pbk(self, target_pc: int) -> None:
        self.stack.append(StackEntry("PBK", target_pc, self.active.copy()))
        self.pc += 1

    def brk(self, breaking: np.ndarray) -> None:
        """Park ``breaking`` lanes at the innermost PBK target."""
        pbk = self._nearest("PBK")
        pbk.gather |= breaking
        self.active = self.active & ~breaking
        if self.active.tobytes() != NO_LANES:
            self.pc += 1
        else:
            self._refill()

    def exit_lanes(self, exiting: np.ndarray) -> None:
        self.exited |= exiting
        self.active = self.active & ~exiting
        if self.active.tobytes() != NO_LANES:
            # Some lanes were predicated off the EXIT; they continue.
            self.pc += 1
        else:
            self._refill()

    def barrier(self) -> None:
        """Wait at a CTA-wide barrier; the SM releases it once every live
        warp of the block has arrived."""
        self.at_barrier = True
        self.pc += 1

    def _nearest(self, kind: str) -> StackEntry:
        for entry in reversed(self.stack):
            if entry.kind == kind:
                return entry
        raise DeviceTrap(f"no {kind} entry on SIMT stack at pc {self.pc}")

    def _refill(self) -> None:
        """Active mask drained: resume the next pending stack entry."""
        while self.stack:
            entry = self.stack.pop()
            if entry.kind == "DIV":
                mask = entry.mask & ~self.exited
            elif entry.kind == "SSY":
                mask = entry.gather & ~self.exited
            else:  # PBK
                mask = entry.gather & ~self.exited
            if mask.tobytes() != NO_LANES:
                self.pc = entry.target_pc
                self.active = mask
                return
        self.done = True
        self.active = np.zeros(WARP_SIZE, dtype=bool)
