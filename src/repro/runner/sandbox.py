"""The sandbox: runs a host program under a monitor, capturing Table V signals.

The sandbox plays the role of the campaign scripts' process management:

* a fresh simulated device per run (no state leaks between injections),
* tools attached via ``preload=[...]`` (the ``LD_PRELOAD`` analogue),
* an instruction-budget watchdog standing in for the wall-clock timeout a
  real campaign uses to detect hangs,
* capture of stdout, output files, exit status, crashes, CUDA errors and
  the device's dmesg (Xid) log.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace

from repro.cuda.runtime import CudaRuntime
from repro.errors import DeviceException, ReproError, WatchdogTimeout
from repro.gpusim.device import DEFAULT_INSTRUCTION_BUDGET, Device
from repro.nvbit.api import NVBitRuntime
from repro.nvbit.tool import NVBitTool
from repro.runner.app import AppContext, AppExit, Application
from repro.runner.artifacts import RunArtifacts

# Exit statuses mirroring POSIX conventions used by campaign scripts.
EXIT_TIMEOUT = 124  # the `timeout` utility's kill status
EXIT_CRASH = 134  # SIGABRT


@dataclass
class SandboxConfig:
    """Per-run environment configuration."""

    seed: int = 0
    instruction_budget: int = DEFAULT_INSTRUCTION_BUDGET
    family: str = "volta"
    num_sms: int | None = None
    global_mem_bytes: int = 64 * 1024 * 1024
    # Block-compiled interpreter (repro.gpusim.blockc) for every launch
    # (instrumented ones step their hooked pcs).  Byte-identical results
    # either way; the knob exists for differential testing and
    # benchmarking.  Deliberately NOT part of the replay-cache key: a tape
    # recorded under either setting is valid for both.
    block_compile: bool = True
    extra_env: dict[str, str] = field(default_factory=dict)

    def clone(self, **overrides) -> "SandboxConfig":
        """An independent copy (every field, including ``extra_env``).

        Override names are validated against the dataclass fields: a
        misspelled keyword used to ``setattr`` a dead attribute silently,
        leaving the caller running the default configuration.
        """
        known = {f.name for f in fields(self)}
        unknown = sorted(set(overrides) - known)
        if unknown:
            raise ReproError(
                f"unknown SandboxConfig field(s) in clone(): {unknown}; "
                f"valid fields: {sorted(known)}"
            )
        copy = replace(self, extra_env=dict(self.extra_env))
        for name, value in overrides.items():
            setattr(copy, name, value)
        return copy

    def spec(self, instruction_budget: int | None = None) -> "SandboxSpec":
        """Freeze into a picklable :class:`SandboxSpec` for worker processes."""
        return SandboxSpec(
            seed=self.seed,
            instruction_budget=(
                self.instruction_budget
                if instruction_budget is None
                else instruction_budget
            ),
            family=self.family,
            num_sms=self.num_sms,
            global_mem_bytes=self.global_mem_bytes,
            block_compile=self.block_compile,
            extra_env=tuple(sorted(self.extra_env.items())),
        )


@dataclass(frozen=True)
class SandboxSpec:
    """A frozen, picklable snapshot of a :class:`SandboxConfig`.

    Campaign workers rebuild their sandbox from this record, so every field
    — including ``family``, ``num_sms``, ``global_mem_bytes`` and
    ``extra_env`` — crosses the process boundary.  (The historical parallel
    runner rebuilt configs from ``seed`` + ``instruction_budget`` only,
    silently running non-default sandboxes on a default device.)
    """

    seed: int = 0
    instruction_budget: int = DEFAULT_INSTRUCTION_BUDGET
    family: str = "volta"
    num_sms: int | None = None
    global_mem_bytes: int = 64 * 1024 * 1024
    block_compile: bool = True
    extra_env: tuple[tuple[str, str], ...] = ()

    def config(self) -> SandboxConfig:
        """Thaw back into the mutable config the sandbox consumes."""
        return SandboxConfig(
            seed=self.seed,
            instruction_budget=self.instruction_budget,
            family=self.family,
            num_sms=self.num_sms,
            global_mem_bytes=self.global_mem_bytes,
            block_compile=self.block_compile,
            extra_env=dict(self.extra_env),
        )


def run_app(
    app: Application,
    preload: list[NVBitTool] | None = None,
    config: SandboxConfig | None = None,
    tracer=None,  # repro.obs.Tracer | None (kept untyped: obs is optional here)
    recorder=None,  # repro.gpusim.replay.ReplayRecorder | None
    replay=None,  # repro.gpusim.replay.ReplayCursor | None
) -> RunArtifacts:
    """Run ``app`` to completion (or failure) and collect its artifacts.

    When a :class:`repro.obs.Tracer` is supplied, the whole run is recorded
    as one ``run`` span carrying the attached tools and the run's outcome
    (exit status, instruction/cycle counts, warps launched, ...).

    ``recorder`` attaches a golden-replay recorder to the run's device
    (every launch boundary captures its write delta); ``replay`` hands the
    driver a fast-forward cursor so launches before the injection target
    apply the recorded golden delta instead of simulating.
    """
    if tracer is None:
        from repro.obs import NULL_TRACER

        tracer = NULL_TRACER
    config = config or SandboxConfig()
    with tracer.span(
        "run",
        workload=app.name,
        tools=[tool.name for tool in preload] if preload else [],
    ) as span:
        device = Device(
            family=config.family,
            global_mem_bytes=config.global_mem_bytes,
            num_sms=config.num_sms,
            instruction_budget=config.instruction_budget,
            block_compile=config.block_compile,
        )
        if recorder is not None:
            recorder.workload = app.name
            device.replay_recorder = recorder
        interceptor = NVBitRuntime(preload) if preload else None
        runtime = CudaRuntime(device, interceptor=interceptor, replay=replay)
        ctx = AppContext(runtime, seed=config.seed, env=config.extra_env)
        artifacts = RunArtifacts()
        started = time.perf_counter()
        try:
            app.run(ctx)
            artifacts.exit_status = 0
        except AppExit as exc:
            artifacts.exit_status = exc.code
        except WatchdogTimeout:
            artifacts.timed_out = True
            artifacts.exit_status = EXIT_TIMEOUT
        except DeviceException as exc:
            # A device fault escaping the driver means the host had no chance
            # to handle it: treat as a crash of the process.
            artifacts.crashed = True
            artifacts.crash_reason = f"{type(exc).__name__}: {exc}"
            artifacts.exit_status = EXIT_CRASH
        except (ReproError, ArithmeticError, LookupError, ValueError, TypeError) as exc:
            artifacts.crashed = True
            artifacts.crash_reason = f"{type(exc).__name__}: {exc}"
            artifacts.exit_status = EXIT_CRASH
        finally:
            artifacts.wall_time = time.perf_counter() - started
            if interceptor is not None:
                interceptor.terminate()
        artifacts.stdout = ctx.stdout
        artifacts.files = dict(ctx.files)
        artifacts.cuda_errors = [
            f"{code.name}: {detail}" for code, detail in runtime.driver.error_log
        ]
        artifacts.dmesg = list(device.dmesg)
        artifacts.instructions_executed = device.instructions_executed
        artifacts.cycles = device.cycles
        artifacts.active_sms = sorted(device.active_sms)
        artifacts.warps_launched = device.warps_launched
        artifacts.divergence_depth_high_water = device.divergence_depth_high_water
        artifacts.blockc_blocks_compiled = device.blockc_blocks_compiled
        artifacts.blockc_block_hits = device.blockc_block_hits
        artifacts.blockc_compile_seconds = device.blockc_compile_seconds
        if device.blockc_blocks_compiled:
            # Compile-phase span: codegen happens lazily inside kernel
            # launches, so the aggregate is emitted as a zero-width span
            # carrying the totals once the run is over.
            with tracer.span(
                "blockc_compile",
                blocks_compiled=device.blockc_blocks_compiled,
                compile_seconds=device.blockc_compile_seconds,
            ):
                pass
        if replay is not None:
            artifacts.replay_launches_skipped = replay.skipped
            artifacts.replay_tail_skipped = replay.tail_skipped
            if replay.converged_at is not None:
                artifacts.replay_converged_at = replay.converged_at
        if span is not None:  # NullTracer yields None
            span.attrs.update(
                exit_status=artifacts.exit_status,
                crashed=artifacts.crashed,
                timed_out=artifacts.timed_out,
                instructions=artifacts.instructions_executed,
                cycles=artifacts.cycles,
                warps_launched=artifacts.warps_launched,
                divergence_depth_high_water=artifacts.divergence_depth_high_water,
                blockc_blocks_compiled=artifacts.blockc_blocks_compiled,
                blockc_block_hits=artifacts.blockc_block_hits,
            )
            if replay is not None:
                span.attrs["replay_launches_skipped"] = artifacts.replay_launches_skipped
                span.attrs["replay_tail_skipped"] = artifacts.replay_tail_skipped
                span.attrs["replay_converged_at"] = artifacts.replay_converged_at
    return artifacts
