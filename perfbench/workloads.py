"""The benchmark's workloads: what each one runs and why it exists.

Importing this module imports nothing from ``repro``, so the driver can
report a missing source tree cleanly before any campaign starts.
"""

from __future__ import annotations

from dataclasses import dataclass

# The seed whose outputs are checked in (``reference.json``); it is also
# the CLI's default ``--seed``.
DEFAULT_SEED = 0

BT_PROGRAM = "370.bt"

# Fault count of every transient campaign, and how many site plans a run
# cycles through.  370.bt's per-fault cost varies with its site (early or
# late target launch, reconverging or not): one 100-fault plan's time
# spreads by about 11% from seed to seed (resampling one 400-fault
# campaign's per-run times on a 2-CPU box).  A run reports the median of
# several campaigns, so cycling through eight plans keeps plan differences
# from dominating, and the median damps the box's own speed swings.
BT_FAULTS = 100
BT_SUBPLANS = 8

# Fig 3's permanent-fault suite: one run per executed opcode.  354.cg and
# 359.miniGhost are the short-block programs where the block-compiled tier
# is slowest relative to stepping.
PERM_PROGRAMS = ("370.bt", "303.ostencil", "354.cg", "359.miniGhost")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "transient" | "permanent"
    executor: str  # "serial" | "batch" | "pool"
    warm_cache: bool
    programs: tuple[str, ...]
    faults: int  # transient faults per campaign (0 for permanent)
    reference: str  # key into reference.json; bt-* share their site plans
    why: str
    subplans: int = 1

    def campaign_seed(self, seed: int, index: int) -> int:
        """The seed of a run's ``index``-th campaign.

        It sets both ``config.seed`` and ``sandbox.seed``, as the CLI's
        ``--seed`` does; the run's ``--seed`` picks which plans it cycles
        through.
        """
        return seed * self.subplans + index % self.subplans


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bt-serial", "transient", "serial", False, (BT_PROGRAM,), BT_FAULTS,
            "bt",
            "default config, cold: every layer of a serial campaign on 370.bt, "
            "as `repro campaign 370.bt` runs it",
            BT_SUBPLANS,
        ),
        Workload(
            "bt-batch-warm", "transient", "batch", True, (BT_PROGRAM,),
            BT_FAULTS, "bt",
            "batch_launch on a warm replay cache: fork, pipe and pickle do "
            "the work, cold golden and profiling runs do none",
            BT_SUBPLANS,
        ),
        Workload(
            "bt-pool", "transient", "pool", False, (BT_PROGRAM,), BT_FAULTS,
            "bt",
            "ParallelExecutor(max_workers=2), cold: the only process-pool "
            "dispatch that pickles artifacts per task",
            BT_SUBPLANS,
        ),
        Workload(
            "perm-suite", "permanent", "serial", False, PERM_PROGRAMS, 0,
            "perm",
            "Fig 3 permanent faults on four programs: instrumented launches "
            "and nvbit callbacks, no replay and no fork",
        ),
    )
}
