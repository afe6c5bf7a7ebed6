"""The profiler tool (``profiler.so`` in the real package).

Two modes, as in paper §III-A:

* **exact** — every dynamic kernel is instrumented and every dynamic
  instruction counted;
* **approximate** — only the *first* dynamic instance of each static kernel
  is instrumented; later instances run uninstrumented and are assumed to
  execute the same instruction mix (their profile records are copies,
  flagged ``approximated``).

Counting uses an after-instruction callback that adds the number of lanes
that actually executed (``InstrSite.num_executed``), so predicated-off
instructions contribute nothing — the paper's profiling rule.

A campaign does not run this tool when it can help it: the golden run
executes the same instructions and counts them itself
(:mod:`repro.gpusim.counts`), and :func:`derived_profile` builds the
profile this tool would build from those counts.  The tool stays as the
paper's profiler, the measurement of Figure 4, and the oracle the derived
profile is tested against.
"""

from __future__ import annotations

import enum
from typing import Sequence

from repro.core.profile_data import KernelProfile, ProgramProfile
from repro.cuda.driver import CudaEvent, CudaFunction
from repro.gpusim.context import InstrSite
from repro.gpusim.counts import LaunchCounts
from repro.gpusim.device import (
    INSTRUMENTATION_FIXED_CYCLES,
    INSTRUMENTATION_PER_THREAD_CYCLES,
    JIT_COMPILE_CYCLES,
)
from repro.nvbit.instr import IPoint
from repro.nvbit.tool import NVBitTool


class ProfilingMode(enum.Enum):
    EXACT = "exact"
    APPROXIMATE = "approximate"


class ProfilerTool(NVBitTool):
    """Builds a :class:`ProgramProfile` for the program it is attached to."""

    name = "profiler"

    def __init__(self, mode: ProfilingMode = ProfilingMode.EXACT) -> None:
        super().__init__()
        self.mode = mode
        self.profile = ProgramProfile()
        self._instrumented: set[CudaFunction] = set()
        self._invocations: dict[str, int] = {}
        self._first_instance: dict[CudaFunction, KernelProfile] = {}
        self._current: KernelProfile | None = None
        self._current_func: CudaFunction | None = None

    # -- NVBit callbacks ------------------------------------------------------

    def nvbit_at_cuda_event(self, driver, event, payload, is_exit) -> None:
        if event is not CudaEvent.LAUNCH_KERNEL:
            return
        if not is_exit:
            self._on_launch_enter(payload.func)
        else:
            self._on_launch_exit(payload.func)

    def _on_launch_enter(self, func: CudaFunction) -> None:
        invocation = self._invocations.get(func.name, 0)
        profile_record = KernelProfile(func.name, invocation)
        instrument = (
            self.mode is ProfilingMode.EXACT or func not in self._first_instance
        )
        if instrument:
            if func not in self._instrumented:
                for instr in self.nvbit.get_instrs(func):
                    instr.insert_call(self._count, IPoint.AFTER)
                self._instrumented.add(func)
            self.nvbit.enable_instrumented(func, True)
            self._current = profile_record
            self._current_func = func
        else:
            # Approximate mode, later instance: run uninstrumented.
            self.nvbit.enable_instrumented(func, False)
            first = self._first_instance[func]
            profile_record.counts = dict(first.counts)
            profile_record.approximated = True
            self.profile.append(profile_record)
            self._current = None
            self._current_func = None

    def _on_launch_exit(self, func: CudaFunction) -> None:
        self._invocations[func.name] = self._invocations.get(func.name, 0) + 1
        if self._current is not None and self._current_func is func:
            self.profile.append(self._current)
            if func not in self._first_instance:
                self._first_instance[func] = self._current
            self._current = None
            self._current_func = None

    # -- the counting instrumentation function ------------------------------------

    def _count(self, site: InstrSite) -> None:
        if self._current is not None:
            self._current.add(site.instr.opcode, site.num_executed)


def derived_profile(
    counts: Sequence[LaunchCounts], mode: ProfilingMode = ProfilingMode.EXACT
) -> tuple[ProgramProfile, int]:
    """The profile :class:`ProfilerTool` would count over a run whose
    launches executed ``counts``, and the cycles its hooks would add.

    The tool hooks every instruction of the launches it instruments (all
    of them in exact mode; in approximate mode the first launch of each
    function handle, whose counts the later ones copy, flagged), and it
    JIT-compiles each handle once.  Each hooked warp-level execution costs
    :data:`~repro.gpusim.device.INSTRUMENTATION_FIXED_CYCLES` plus one
    cycle per executing thread, and each compile
    :data:`~repro.gpusim.device.JIT_COMPILE_CYCLES`.
    """
    profile = ProgramProfile()
    invocations: dict[str, int] = {}
    first: dict[int, KernelProfile] = {}
    hook_cycles = 0
    for launch in counts:
        invocation = invocations.get(launch.kernel_name, 0)
        invocations[launch.kernel_name] = invocation + 1
        record = KernelProfile(launch.kernel_name, invocation)
        if mode is ProfilingMode.EXACT or launch.handle not in first:
            record.counts = launch.thread_counts()
            first.setdefault(launch.handle, record)
            hook_cycles += (
                INSTRUMENTATION_FIXED_CYCLES * launch.total_warp_execs
                + INSTRUMENTATION_PER_THREAD_CYCLES * launch.total_thread_execs
            )
        else:
            record.counts = dict(first[launch.handle].counts)
            record.approximated = True
        profile.append(record)
    return profile, hook_cycles + JIT_COMPILE_CYCLES * len(first)
