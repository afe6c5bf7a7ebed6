"""The simulated GPU device: SMs, memory, watchdog, and the dmesg (Xid) log.

Kernel-side anomalies follow the real CUDA failure model the paper leans on
(§IV-A): a :class:`~repro.errors.MemoryViolation` or
:class:`~repro.errors.DeviceTrap` terminates the *current kernel* early,
records an Xid entry in ``dmesg`` and leaves the rest of the process alive;
the CUDA driver layer converts it into a sticky error the host may or may
not check.  A :class:`~repro.errors.WatchdogTimeout` models a hang and
propagates to the sandbox monitor.
"""

from __future__ import annotations

import time

import numpy as np

from repro.arch.families import ArchFamily, arch_by_name
from repro.errors import DeviceException, LaunchError, WatchdogTimeout
from repro.gpusim import blockc
from repro.gpusim.context import ExecContext
from repro.gpusim.replay import DIVERGED
from repro.gpusim.sm import SM, Hooks
from repro.mem.memory import ConstantBank, GlobalMemory, SharedMemory
from repro.sass.program import Kernel

Dim3 = tuple[int, int, int]

DEFAULT_INSTRUCTION_BUDGET = 20_000_000

# Simulated-time model for instrumentation (see DESIGN.md):
# an uninstrumented warp-instruction costs 1 cycle; every instrumentation
# callback costs a fixed trampoline entry plus one cycle per executing
# thread (NVBit saves/restores state and the injected device function runs
# per thread); JIT-recompiling an instrumented kernel costs a one-time fee.
INSTRUMENTATION_FIXED_CYCLES = 5
INSTRUMENTATION_PER_THREAD_CYCLES = 1
JIT_COMPILE_CYCLES = 5_000


def _as_dim3(value) -> Dim3:
    if isinstance(value, int):
        return (value, 1, 1)
    dims = tuple(int(v) for v in value)
    if len(dims) == 1:
        return (dims[0], 1, 1)
    if len(dims) == 2:
        return (dims[0], dims[1], 1)
    if len(dims) == 3:
        return dims  # type: ignore[return-value]
    raise LaunchError(f"dimension {value!r} must have 1..3 components")


class Device:
    """One simulated GPU."""

    def __init__(
        self,
        family: str | ArchFamily = "volta",
        global_mem_bytes: int = 64 * 1024 * 1024,
        num_sms: int | None = None,
        instruction_budget: int = DEFAULT_INSTRUCTION_BUDGET,
        block_compile: bool = True,
    ) -> None:
        self.arch = family if isinstance(family, ArchFamily) else arch_by_name(family)
        self.num_sms = num_sms if num_sms is not None else self.arch.num_sms
        self.global_mem = GlobalMemory(global_mem_bytes)
        self.sms = [SM(sm_id, self) for sm_id in range(self.num_sms)]
        self.dmesg: list[str] = []
        self.instructions_executed = 0
        self.instruction_budget = instruction_budget
        self.launch_count = 0
        self.active_sms: set[int] = set()
        self.cycles = 0  # simulated GPU time (includes instrumentation cost)
        # Block-compiled interpreter (repro.gpusim.blockc): launches execute
        # code-generated basic-block superhandlers, control flow included,
        # instead of stepping per instruction (instrumented launches step
        # their hooked pcs).  With it off, every instruction steps, even
        # on a kernel another device has bound blocks for.  Results are
        # byte-identical either way; the knob exists for differential
        # testing and benchmarking.
        self.block_compile = block_compile
        self.start_host_measures()
        # Cheap observability counters (flow into repro.obs MetricsRegistry
        # via RunArtifacts): warps ever launched and the deepest SIMT
        # divergence stack seen on any warp.
        self.warps_launched = 0
        self.divergence_depth_high_water = 0
        # Golden-replay recording (repro.gpusim.replay.ReplayRecorder):
        # when attached, every launch boundary captures its global-memory
        # write delta and end-of-launch counters.
        self.replay_recorder = None
        # Tail fast-forward (repro.gpusim.replay.ReplayCursor): while the
        # cursor is diverged (tracking divergence), every simulated launch
        # is bracketed by its begin/end hooks so the divergence set stays
        # current at each launch boundary.
        self.replay_tracker = None
        # Instruction counts (repro.gpusim.counts.LaunchCounter): when
        # attached (the golden run), every uninstrumented launch counts its
        # executions per opcode, the input of the derived profile and of
        # permanent-fault replay.
        self.launch_counter = None

    def start_host_measures(self) -> None:
        """Start the run's host-side measures afresh: its wall clock
        (``run_started``) and the blockc counters.

        ``run_app`` calls this as the program starts.  A batch fork child
        calls it again at its fork, so it reports its own run rather than
        the counting pass it forked from.  Simulated counters (instructions,
        cycles, warps) are left alone: they already match a serial run.
        """
        self.run_started = time.perf_counter()
        self.blockc_blocks_compiled = 0
        self.blockc_block_hits = 0
        self.blockc_compile_seconds = 0.0

    # -- watchdog ----------------------------------------------------------

    def tick(self) -> None:
        self.instructions_executed += 1
        self.cycles += 1
        if self.instructions_executed > self.instruction_budget:
            self.log_xid(8, "GPU watchdog: kernel execution budget exhausted")
            raise WatchdogTimeout(self.instructions_executed, self.instruction_budget)

    def tick_n(self, n: int, cycles: int | None = None) -> None:
        """Bulk accounting: exactly equivalent to ``n`` :meth:`tick` calls.

        ``cycles`` overrides the cycle charge when it differs from the
        instruction count (replayed launches fold back recorded cycle
        totals that include instrumentation cost).  Callers that must trap
        at the *exact* crossing instruction (the block-compiled fast path)
        check headroom first and step instead.
        """
        self.instructions_executed += n
        self.cycles += n if cycles is None else cycles
        if self.instructions_executed > self.instruction_budget:
            self.log_xid(8, "GPU watchdog: kernel execution budget exhausted")
            raise WatchdogTimeout(self.instructions_executed, self.instruction_budget)

    def untick(self, n: int) -> None:
        """Roll back ``n`` over-charged ticks (mid-block trap recovery)."""
        self.instructions_executed -= n
        self.cycles -= n

    def charge_instrumentation(
        self, executed_threads: int, callbacks: int = 1
    ) -> None:
        """Simulated cost of ``callbacks`` instrumentation callback
        invocations, which saw ``executed_threads`` executing threads
        between them."""
        self.cycles += (
            INSTRUMENTATION_FIXED_CYCLES * callbacks
            + INSTRUMENTATION_PER_THREAD_CYCLES * executed_threads
        )

    def charge_jit_compile(self) -> None:
        """Simulated cost of JIT-building an instrumented kernel clone."""
        self.cycles += JIT_COMPILE_CYCLES

    def log_xid(self, xid: int, message: str) -> None:
        """Record an Xid-style driver event (the dmesg analogue)."""
        self.dmesg.append(f"NVRM: Xid {xid}: {message}")

    # -- launches ------------------------------------------------------------

    def launch(
        self,
        kernel: Kernel,
        grid,
        block,
        params: list[int] | None = None,
        shared_bytes: int = 0,
        hooks: Hooks | None = None,
    ) -> None:
        """Run a kernel to completion (raises DeviceException on GPU faults)."""
        grid3 = _as_dim3(grid)
        block3 = _as_dim3(block)
        threads_per_block = block3[0] * block3[1] * block3[2]
        if threads_per_block <= 0 or min(grid3) <= 0:
            raise LaunchError(f"empty launch: grid={grid3} block={block3}")
        if threads_per_block > self.arch.max_threads_per_block:
            raise LaunchError(
                f"{threads_per_block} threads/block exceeds the limit of "
                f"{self.arch.max_threads_per_block}"
            )
        params = list(params or [])
        if len(params) < kernel.num_params:
            raise LaunchError(
                f"kernel {kernel.name!r} expects {kernel.num_params} params, "
                f"got {len(params)}"
            )
        const = ConstantBank()
        const.write_params(params)
        total_shared = kernel.shared_bytes + shared_bytes
        if total_shared > self.arch.shared_mem_per_block:
            raise LaunchError(
                f"shared memory {total_shared} exceeds per-block limit"
            )
        grid_id = self.launch_count
        self.launch_count += 1
        # Resolve the kernel's execution tables once per launch, not once
        # per thread block.  An instrumented launch (injection target,
        # profiling, counting pass) gets the layout split at its hooked
        # pcs: those always step, so every callback fires at its exact
        # dynamic instruction, and the code between them runs compiled.
        hooks = hooks or None
        breaks = frozenset(hooks or ())
        compiled = blockc.compiled_for(
            kernel, self, want_blocks=self.block_compile, breaks=breaks
        )
        # Kernels are shared per process, so another device may have
        # bound this layout: a stepping device must not run it.
        blocks = compiled.layouts[breaks] if self.block_compile else None
        recorder = self.replay_recorder
        if recorder is not None:
            recorder.begin_launch(self)
        tracker = self.replay_tracker
        tracking = tracker is not None and tracker.state == DIVERGED
        if tracking:
            tracker.begin_simulated_launch(self)
        counter = self.launch_counter
        tallies = None if counter is None else counter.begin_launch(hooks)

        num_blocks = grid3[0] * grid3[1] * grid3[2]
        try:
            with np.errstate(all="ignore"):
                for block_id in range(num_blocks):
                    ctaid = (
                        block_id % grid3[0],
                        block_id // grid3[0] % grid3[1],
                        block_id // (grid3[0] * grid3[1]),
                    )
                    sm = self.sms[block_id % self.num_sms]
                    self.active_sms.add(sm.sm_id)
                    ctx = ExecContext(
                        global_mem=self.global_mem,
                        shared=SharedMemory(total_shared),
                        const=const,
                        ctaid=ctaid,
                        ntid=block3,
                        nctaid=grid3,
                        sm_id=sm.sm_id,
                        grid_id=grid_id,
                        clock=lambda: self.instructions_executed,
                    )
                    tally = (
                        None if tallies is None
                        else tallies.setdefault(sm.sm_id, ({}, {}))
                    )
                    try:
                        sm.run_block(kernel, ctx, compiled, blocks, hooks, tally)
                    except WatchdogTimeout:
                        raise
                    except DeviceException as exc:
                        self.log_xid(
                            13, f"Graphics Exception: {exc} (kernel {kernel.name})"
                        )
                        raise
        except BaseException:
            # A faulted launch leaves partial writes behind: any recording
            # in progress would replay wrong state, so discard it entirely;
            # likewise a tracked launch's divergence set is no longer
            # trustworthy, so the replay cursor goes off.
            if recorder is not None:
                recorder.abort()
                self.global_mem.end_write_tracking()
            if tracking:
                tracker.launch_faulted(self)
            raise
        if tallies is not None:
            counter.end_launch(kernel, compiled, blocks, tallies)
        if recorder is not None:
            recorder.end_launch(
                self, kernel.name, grid3, block3, params, shared_bytes
            )
        if tracking:
            tracker.end_simulated_launch(self)

    # -- memory convenience (used by the CUDA runtime layer) -------------------

    def malloc(self, nbytes: int) -> int:
        return self.global_mem.alloc(nbytes)

    def free(self, address: int) -> None:
        self.global_mem.free(address)
