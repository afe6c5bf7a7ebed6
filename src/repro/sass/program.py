"""Kernel and module containers produced by the assembler / kernel builder."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import AssemblyError
from repro.sass.instruction import Instruction
from repro.sass.operands import MemRef, Reg


def register_count(instructions) -> int:
    """Highest GP register index an instruction sequence uses, plus one.

    A full scan: launches read the count from their cached
    :class:`~repro.gpusim.blockc.CompiledKernel` instead of rescanning the
    kernel once per thread block.
    """
    highest = -1
    for instr in instructions:
        for reg in instr.dest_regs:
            highest = max(highest, reg)
        for op in instr.sources:
            if isinstance(op, Reg) and not op.is_rz:
                highest = max(highest, op.index)
            if isinstance(op, MemRef) and op.reg is not None and op.reg != 255:
                highest = max(highest, op.reg)
    return highest + 1


@dataclass
class Kernel:
    """One GPU kernel: a named instruction sequence plus launch metadata.

    ``num_params`` is the number of 32-bit kernel parameters; parameter *i*
    is visible to the kernel at constant bank 0, byte offset ``4 * i``.
    """

    name: str
    instructions: list[Instruction]
    num_params: int = 0
    shared_bytes: int = 0
    local_bytes: int = 0
    labels: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for pc, instr in enumerate(self.instructions):
            instr.pc = pc
        if not self.instructions or self.instructions[-1].opcode not in ("EXIT", "BRA"):
            raise AssemblyError(
                f"kernel {self.name!r} must end with EXIT (or an unconditional BRA)"
            )

    @property
    def num_regs(self) -> int:
        """Highest GP register index used, plus one (for register-file sizing)."""
        return register_count(self.instructions)

    def static_opcode_counts(self) -> dict[str, int]:
        """Static instruction histogram by mnemonic."""
        counts: dict[str, int] = {}
        for instr in self.instructions:
            counts[instr.opcode] = counts.get(instr.opcode, 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self.instructions)

    def __str__(self) -> str:
        lines = [f".kernel {self.name}", f".params {self.num_params}"]
        if self.shared_bytes:
            lines.append(f".shared {self.shared_bytes}")
        if self.local_bytes:
            lines.append(f".local {self.local_bytes}")
        by_pc = {pc: name for name, pc in self.labels.items()}
        for instr in self.instructions:
            if instr.pc in by_pc:
                lines.append(f"{by_pc[instr.pc]}:")
            lines.append(f"    {instr}")
        return "\n".join(lines)


@dataclass
class SassModule:
    """A compilation unit holding one or more kernels (a 'cubin' analogue)."""

    kernels: dict[str, Kernel] = field(default_factory=dict)
    name: str = "<module>"

    def add(self, kernel: Kernel) -> None:
        if kernel.name in self.kernels:
            raise AssemblyError(
                f"duplicate kernel {kernel.name!r} in module {self.name!r}"
            )
        self.kernels[kernel.name] = kernel

    def get(self, name: str) -> Kernel:
        try:
            return self.kernels[name]
        except KeyError:
            raise KeyError(
                f"kernel {name!r} not found in module {self.name!r}; "
                f"available: {sorted(self.kernels)}"
            ) from None

    def __iter__(self):
        return iter(self.kernels.values())

    def __len__(self) -> int:
        return len(self.kernels)
