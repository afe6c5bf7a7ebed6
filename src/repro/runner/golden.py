"""Golden-run management (Figure 1: the fault-free reference execution)."""

from __future__ import annotations

from repro.errors import ReproError
from repro.runner.app import Application
from repro.runner.artifacts import RunArtifacts
from repro.runner.sandbox import SandboxConfig, run_app


class GoldenError(ReproError):
    """The fault-free run itself failed — the campaign cannot proceed."""


def capture_golden(
    app: Application,
    config: SandboxConfig | None = None,
    tracer=None,
    recorder=None,  # repro.gpusim.replay.ReplayRecorder | None
    replay=None,  # repro.gpusim.replay.ReplayCursor | None
    counter=None,  # repro.gpusim.counts.LaunchCounter | None
) -> RunArtifacts:
    """Run the application fault-free and validate the reference artifacts.

    With a ``recorder`` attached, the run also tapes every launch's
    global-memory write delta and device counters for golden-replay
    fast-forward (see :mod:`repro.gpusim.replay`).  With a ``replay``
    cursor (a cached tape from a previous campaign), every launch is
    fast-forwarded from the recording instead of simulated — the host
    program still runs, so the reference artifacts are identical.  With a
    ``counter``, every simulated launch counts its executions per opcode
    (see :mod:`repro.gpusim.counts`).
    """
    golden = run_app(
        app, preload=None, config=config, tracer=tracer, recorder=recorder,
        replay=replay, counter=counter,
    )
    if golden.timed_out:
        raise GoldenError(
            f"golden run of {app.name!r} exhausted its instruction budget; "
            "raise SandboxConfig.instruction_budget"
        )
    if golden.crashed:
        raise GoldenError(
            f"golden run of {app.name!r} crashed: {golden.crash_reason}"
        )
    if golden.exit_status != 0:
        raise GoldenError(
            f"golden run of {app.name!r} exited with status {golden.exit_status}"
        )
    if golden.cuda_errors or golden.dmesg:
        raise GoldenError(
            f"golden run of {app.name!r} produced device anomalies: "
            f"{golden.anomalies}"
        )
    return golden


def hang_budget(golden: RunArtifacts, factor: int = 10, floor: int = 100_000) -> int:
    """Watchdog budget for injection runs, scaled from the golden run.

    Real campaigns set the hang timeout to a multiple of the fault-free
    runtime; we scale the instruction budget the same way.
    """
    return max(golden.instructions_executed * factor, floor)
