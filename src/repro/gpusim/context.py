"""Per-block execution context and the instrumentation site object.

``ExecContext`` gives warps access to the memory spaces and launch geometry;
``InstrSite`` is what instrumentation callbacks (the NVBit layer) receive for
every executed instruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.sass.isa import WARP_SIZE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gpusim.warp import Warp
    from repro.mem.memory import ConstantBank, GlobalMemory, SharedMemory
    from repro.sass.instruction import Instruction


# CTA-wide special register -> its value in a context.
_CTA_VALUES = {
    **{f"SR_CTAID.{axis}": (lambda ctx, i=i: ctx.ctaid[i]) for i, axis in enumerate("XYZ")},
    **{f"SR_NTID.{axis}": (lambda ctx, i=i: ctx.ntid[i]) for i, axis in enumerate("XYZ")},
    **{f"SR_NCTAID.{axis}": (lambda ctx, i=i: ctx.nctaid[i]) for i, axis in enumerate("XYZ")},
    "SR_SMID": lambda ctx: ctx.sm_id,
    "SR_GRIDID": lambda ctx: ctx.grid_id,
    "SRZ": lambda ctx: 0,
}


@lru_cache(maxsize=1024)
def _broadcast(value: int) -> np.ndarray:
    """``value`` in every lane, shared read-only by every reader."""
    lanes = np.full(WARP_SIZE, value, dtype=np.uint32)
    lanes.flags.writeable = False
    return lanes


@dataclass
class ExecContext:
    """Everything a warp needs that is not warp-local state: one per CTA."""

    global_mem: "GlobalMemory"
    shared: "SharedMemory"
    const: "ConstantBank"
    ctaid: tuple[int, int, int]
    ntid: tuple[int, int, int]
    nctaid: tuple[int, int, int]
    sm_id: int
    grid_id: int
    clock: Callable[[], int]

    def sreg(self, key: str | int) -> np.ndarray:
        """The lanes of a CTA-wide special register (by name) or of one
        warp's ``SR_WARPID`` (by its id): read-only broadcasts, each
        value's built once per process (the most recent 1,024 kept)."""
        return _broadcast(key if isinstance(key, int) else _CTA_VALUES[key](self))


class InstrSite:
    """A dynamic instruction instance, as seen by instrumentation callbacks.

    ``exec_mask`` is the set of lanes that actually execute (active AND
    predicate guard) — lanes predicated off are excluded, matching the
    paper's profiling rule.  Register/predicate accessors let injector
    callbacks corrupt a single lane's destination after execution.
    """

    __slots__ = ("warp", "instr", "exec_mask")

    def __init__(self, warp: "Warp", instr: "Instruction", exec_mask: np.ndarray) -> None:
        self.warp = warp
        self.instr = instr
        self.exec_mask = exec_mask

    @property
    def num_executed(self) -> int:
        """Number of threads that executed this instruction instance."""
        return int(np.count_nonzero(self.exec_mask))

    @property
    def active_lanes(self) -> np.ndarray:
        """Indices of executing lanes, in lane order (deterministic)."""
        return np.nonzero(self.exec_mask)[0]

    @property
    def sm_id(self) -> int:
        return self.warp.ctx.sm_id

    @property
    def ctaid(self) -> tuple[int, int, int]:
        return self.warp.ctx.ctaid

    @property
    def opcode(self) -> str:
        return self.instr.opcode

    def read_reg(self, lane: int, reg: int) -> int:
        return self.warp.read_reg_lane(reg, lane)

    def write_reg(self, lane: int, reg: int, value: int) -> None:
        self.warp.write_reg_lane(reg, lane, value)

    def read_pred(self, lane: int, pred: int) -> bool:
        return self.warp.read_pred_lane(pred, lane)

    def write_pred(self, lane: int, pred: int, value: bool) -> None:
        self.warp.write_pred_lane(pred, lane, value)

    def thread_index(self, lane: int) -> tuple[int, int, int]:
        """The CUDA threadIdx of a lane."""
        return (
            int(self.warp.tid_x[lane]),
            int(self.warp.tid_y[lane]),
            int(self.warp.tid_z[lane]),
        )
