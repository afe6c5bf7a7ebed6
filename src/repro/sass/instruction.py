"""The SASS instruction object shared by assembler, simulator and NVBit layer."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sass.isa import DestKind, OpcodeInfo, opcode_info
from repro.sass.operands import LabelRef, Operand, Pred, Reg


@dataclass
class Instruction:
    """One decoded SASS instruction.

    ``dest`` is the architecturally visible destination (a :class:`Reg` for
    GP-writing opcodes, a :class:`Pred` for predicate-writing ones, ``None``
    for stores/branches).  FP64 opcodes write the even-aligned pair
    ``(dest.index, dest.index + 1)``.
    """

    opcode: str
    modifiers: tuple[str, ...] = ()
    dest: Reg | Pred | None = None
    sources: tuple[Operand, ...] = ()
    guard: Pred | None = None  # the @P0 / @!P0 predicate guard
    pc: int = -1  # index within the kernel, set by the assembler
    line_no: int | None = None

    _info: OpcodeInfo | None = field(default=None, repr=False, compare=False)

    @property
    def info(self) -> OpcodeInfo:
        if self._info is None:
            self._info = opcode_info(self.opcode)
        return self._info

    @property
    def opcode_id(self) -> int:
        return self.info.opcode_id

    def has_modifier(self, name: str) -> bool:
        return name in self.modifiers

    @property
    def dest_regs(self) -> tuple[int, ...]:
        """The GP register indices written by this instruction (pair for FP64)."""
        if not isinstance(self.dest, Reg) or self.dest.is_rz:
            return ()
        if self.info.dest_kind is DestKind.GP_PAIR:
            return (self.dest.index, self.dest.index + 1)
        # F2F widening to FP64 also writes a pair even though the opcode's
        # static dest kind is GP.
        if self.opcode == "F2F" and "F64" in self.modifiers:
            return (self.dest.index, self.dest.index + 1)
        return (self.dest.index,)

    @property
    def dest_pred(self) -> int | None:
        """The predicate register index written, if any."""
        if isinstance(self.dest, Pred) and not self.dest.is_pt:
            return self.dest.index
        return None

    @property
    def branch_target(self) -> int:
        """Resolved target PC for BRA/SSY/PBK."""
        for op in self.sources:
            if isinstance(op, LabelRef):
                if op.target_pc is None:
                    raise ValueError(
                        f"unresolved label {op.name!r} in {self.opcode} at pc {self.pc}"
                    )
                return op.target_pc
        raise ValueError(f"{self.opcode} at pc {self.pc} has no label operand")

    def __str__(self) -> str:
        parts = []
        if self.guard is not None:
            parts.append(f"@{self.guard}")
        mnemonic = ".".join((self.opcode,) + self.modifiers)
        parts.append(mnemonic)
        operands = []
        if self.dest is not None:
            operands.append(str(self.dest))
        operands.extend(str(op) for op in self.sources)
        if operands:
            parts.append(", ".join(operands))
        return " ".join(parts) + " ;"
