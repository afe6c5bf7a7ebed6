"""The NVBit runtime: event dispatch, instruction inspection, selective JIT.

This is the substrate NVBitFI is built on (paper §III-C).  The runtime

* receives every CUDA driver event from :class:`repro.cuda.CudaDriver` and
  forwards it to attached tools (``nvbit_at_cuda_event``),
* hands tools per-function :class:`~repro.nvbit.instr.Instr` lists for
  inspection and ``insert_call`` instrumentation,
* maintains the per-function *enable* flag: a launch only runs the
  instrumented clone when the tool enabled it for that launch
  (``nvbit_enable_instrumented``), otherwise the unmodified kernel runs —
  the mechanism behind NVBitFI's minimal-overhead claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.cuda.driver import CudaDriver, CudaEvent, CudaFunction
from repro.gpusim import blockc
from repro.gpusim.sm import Hooks
from repro.nvbit.instr import Instr
from repro.nvbit.jit import JitCache
from repro.nvbit.tool import NVBitTool


@dataclass
class _FunctionRecord:
    """Instrumentation state for one loaded kernel."""

    func: CudaFunction
    instrs: list[Instr] = field(default_factory=list)
    enabled: bool = False
    dirty: bool = True

    def mark_dirty(self) -> None:
        self.dirty = True


class NVBitRuntime:
    """One NVBit instance, shared by all tools attached to a process."""

    def __init__(self, tools: list[NVBitTool] | None = None) -> None:
        self.tools: list[NVBitTool] = []
        self._records: dict[CudaFunction, _FunctionRecord] = {}
        self._jit = JitCache()
        self.events_seen = 0
        for tool in tools or []:
            self.attach(tool)

    # -- attachment -------------------------------------------------------------

    def attach(self, tool: NVBitTool) -> None:
        tool.nvbit = self
        self.tools.append(tool)
        tool.nvbit_at_init()

    def terminate(self) -> None:
        for tool in self.tools:
            tool.nvbit_at_term()

    # -- tool-facing API (nvbit_* functions) ---------------------------------------

    def get_instrs(self, func: CudaFunction) -> list[Instr]:
        """Inspect a function's instructions (cached per function)."""
        record = self._record(func)
        return record.instrs

    def enable_instrumented(self, func: CudaFunction, enable: bool) -> None:
        """Choose whether the next launches of ``func`` run instrumented."""
        self._record(func).enabled = enable

    def is_instrumented_enabled(self, func: CudaFunction) -> bool:
        return self._record(func).enabled

    def invalidate_instrumented(self, func: CudaFunction) -> None:
        """Force the next enabled launch of ``func`` to JIT a fresh clone.

        A long-lived tool that re-arms a function it already instrumented
        (the batch injector's cross-launch sweep) uses this so the re-armed
        launch pays the same simulated JIT-compile charge a fresh process
        would — keeping cycle totals identical to a serial run.

        The kernel's block-compiled execution tables are dropped alongside:
        a tool forcing a fresh clone may have rewritten instructions, and
        the next launch, instrumented or not, must not dispatch stale code.
        """
        self._record(func).mark_dirty()
        blockc.invalidate(func.kernel)

    @property
    def jit_compile_count(self) -> int:
        return self._jit.compile_count

    # -- driver-facing API ------------------------------------------------------------

    def dispatch_event(
        self, driver: CudaDriver, event: CudaEvent, payload: Any, is_exit: bool
    ) -> None:
        self.events_seen += 1
        for tool in self.tools:
            tool.nvbit_at_cuda_event(driver, event, payload, is_exit)

    def active_hooks(self, func: CudaFunction) -> Hooks | None:
        """Hook table for a launch, or None for an uninstrumented launch."""
        record = self._records.get(func)
        if record is None or not record.enabled:
            return None
        hooks = self._jit.compile(record, record.instrs)
        return hooks if hooks else None

    # -- internals -----------------------------------------------------------------------

    def _record(self, func: CudaFunction) -> _FunctionRecord:
        record = self._records.get(func)
        if record is None:
            record = _FunctionRecord(func=func)
            record.instrs = [Instr(record, i) for i in func.kernel.instructions]
            self._records[func] = record
        return record
