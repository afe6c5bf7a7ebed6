"""Run artifacts: everything outcome classification (Table V) looks at."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class RunArtifacts:
    """The observable result of one sandboxed program run."""

    stdout: str = ""
    files: dict[str, bytes] = field(default_factory=dict)
    exit_status: int = 0
    crashed: bool = False
    crash_reason: str = ""
    timed_out: bool = False
    cuda_errors: list[str] = field(default_factory=list)
    dmesg: list[str] = field(default_factory=list)
    wall_time: float = 0.0
    instructions_executed: int = 0
    cycles: int = 0  # simulated GPU time, incl. instrumentation cost
    active_sms: list[int] = field(default_factory=list)
    warps_launched: int = 0
    divergence_depth_high_water: int = 0  # deepest SIMT stack seen
    replay_launches_skipped: int = 0  # launches fast-forwarded from the golden log
    replay_tail_skipped: int = 0  # launches tail-replayed after re-convergence
    replay_converged_at: int = -1  # launch seq where divergence emptied (-1: never)
    blockc_blocks_compiled: int = 0  # basic blocks first bound in this run
    blockc_block_hits: int = 0  # compiled blocks executed whole
    blockc_compile_seconds: float = 0.0  # wall time spent in block codegen

    @property
    def anomalies(self) -> list[str]:
        """Non-handled system anomalies (drive the Potential-DUE flag)."""
        return self.cuda_errors + self.dmesg

    def summary(self) -> str:
        flags = []
        if self.timed_out:
            flags.append("TIMEOUT")
        if self.crashed:
            flags.append(f"CRASH({self.crash_reason})")
        if self.exit_status:
            flags.append(f"exit={self.exit_status}")
        if self.cuda_errors:
            flags.append(f"{len(self.cuda_errors)} CUDA error(s)")
        if self.dmesg:
            flags.append(f"{len(self.dmesg)} dmesg line(s)")
        status = ", ".join(flags) if flags else "clean"
        return (
            f"[{status}] stdout={len(self.stdout)}B files={len(self.files)} "
            f"instrs={self.instructions_executed} wall={self.wall_time:.3f}s"
        )


@dataclass
class CheckResult:
    """Verdict of an application's SDC-check script."""

    passed: bool
    detail: str = ""

    @classmethod
    def ok(cls) -> "CheckResult":
        return cls(True, "outputs match")

    @classmethod
    def fail(cls, detail: str) -> "CheckResult":
        return cls(False, detail)
