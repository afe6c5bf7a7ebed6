"""Campaign configuration and results — the data of the NVBitFI scripts.

A campaign automates Figure 1 end-to-end for one application:

1. golden run (uninstrumented reference, also calibrates the hang watchdog),
2. profiling run (exact or approximate),
3. uniform site selection over the profile,
4. one sandboxed run per injection, each with a fresh device and an
   injector tool attached,
5. Table V classification and aggregation.

This module holds the campaign's knobs (:class:`CampaignConfig`) and its
results; the pipeline itself is :class:`repro.core.engine.CampaignEngine`.
Timing of every phase is recorded so the overhead figures (paper Figures
4 and 5) can be regenerated.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field, fields, replace

from repro.core.adaptive import AdaptiveSummary, SamplingPlan, StoppingRule
from repro.core.bitflip import BitFlipModel
from repro.core.groups import InstructionGroup
from repro.core.injector import InjectionRecord
from repro.core.outcomes import OutcomeRecord
from repro.core.params import PermanentParams, TransientParams
from repro.core.profiler import ProfilingMode
from repro.core.report import OutcomeTally
from repro.core.resilience import RetryPolicy
from repro.errors import ParamError
from repro.runner.sandbox import SandboxConfig


@dataclass
class CampaignConfig:
    """Knobs of one campaign.

    ``workload`` names the registered application to run; it is optional
    when the application is passed separately (``CampaignEngine(app,
    config)``) but required by :func:`repro.api.run_campaign`.

    ``retry`` governs harness resilience: how often a misbehaving injection
    task (worker raised, died or hung) is re-attempted, and whether
    exhausted tasks are quarantined as synthesized DUEs or abort the
    campaign.  See :class:`~repro.core.resilience.RetryPolicy`.

    ``fast_forward`` enables golden-replay fast-forward (see
    :mod:`repro.gpusim.replay` and ``docs/performance.md``): the golden run
    records every launch's write delta, and transient injection runs apply
    the recorded deltas for launches before the target instead of
    simulating them.  Results are byte-identical either way; the knob only
    trades golden-run recording overhead against injection-run speed.

    ``tail_fast_forward`` extends fast-forward past the target: each
    injection run tracks the set of global-memory pages diverging from the
    golden run and, once the set empties at a launch boundary (the fault
    is architecturally dead), replays the remaining launches from the same
    recording.  Results stay byte-identical.  It is effective only while
    ``fast_forward`` is on — ``fast_forward=False`` is the global kill
    switch that disables recording entirely.

    ``batch_launch`` runs grouped transient injections in-process, as
    copy-on-write ``os.fork`` children (see :mod:`repro.core.batch_injector`):
    faults that target the same dynamic launch share **one** simulator
    pass of that launch, which takes an in-launch checkpoint at each
    fault's ``instruction_count``; only each fault's divergent suffix runs
    in its own fork.  Results stay byte-identical; without ``os.fork`` the
    knob silently falls back to the serial executor.  It only takes effect
    when no explicit ``executor`` is passed and no worker count is given:
    ``workers`` (``--workers``) always means the process pool.  (The
    block-compiled interpreter is the sandbox knob
    ``sandbox.block_compile``.)

    ``replay_cache`` persists the golden replay tape across campaigns:
    ``True`` uses ``~/.cache/repro/replay`` (or ``$REPRO_REPLAY_CACHE``),
    a path string uses that directory, ``None`` (default) disables
    caching.  A repeated campaign with the same workload + sandbox
    fingerprint + code version replays its golden run from the cached
    tape instead of simulating it; entries are content-hash validated and
    any mismatch falls back to re-recording.  ``repro serve`` defaults
    this to a FaultDB-adjacent directory so all tenants share one cache.

    ``stopping`` / ``sampling`` make the campaign *adaptive* (see
    :mod:`repro.core.adaptive` and ``docs/statistics.md``): sites are drawn
    and injected in batches, the :class:`~repro.core.adaptive.StoppingRule`
    is re-evaluated after each batch, and the campaign stops as soon as the
    target outcome's confidence interval is tight enough — ``num_transient``
    becomes the budget *ceiling* rather than the exact count.  The
    :class:`~repro.core.adaptive.SamplingPlan` chooses between uniform,
    stratified and importance sampling.  With both left at ``None`` the
    campaign is the fixed-N loop of the paper, byte-identical to previous
    releases.
    """

    group: InstructionGroup = InstructionGroup.G_GP
    model: BitFlipModel = BitFlipModel.FLIP_SINGLE_BIT
    num_transient: int = 100  # paper default: 100 injections per program
    seed: int = 0
    profiling: ProfilingMode = ProfilingMode.EXACT
    hang_budget_factor: int = 10
    sandbox: SandboxConfig = field(default_factory=SandboxConfig)
    workload: str | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    fast_forward: bool = True
    tail_fast_forward: bool = True
    batch_launch: bool = False
    replay_cache: bool | str | None = None
    stopping: StoppingRule | None = None
    sampling: SamplingPlan | None = None  # None == the historic uniform draw

    def with_overrides(self, **overrides) -> "CampaignConfig":
        """A copy of this config with the given knobs replaced.

        The one typed way to layer per-call overrides on a base config —
        used by :func:`repro.api.run_campaign`, the CLI and service
        submissions, replacing the historic pile of ad-hoc keyword
        arguments (``retry=``, ``fast_forward=``, ``tail_fast_forward=``,
        ``stopping=``, ``sampling=``).

        ``None`` values mean "keep the base config's value", matching the
        historic override semantics (an unset CLI flag or API kwarg never
        clobbers the config).  To *clear* an optional knob such as
        ``stopping``, construct the config directly.  Unknown names raise
        :class:`~repro.errors.ParamError` naming the valid fields.
        """
        valid = {f.name for f in fields(self)}
        unknown = sorted(set(overrides) - valid)
        if unknown:
            raise ParamError(
                f"unknown campaign config override(s) {unknown}; "
                f"valid fields: {sorted(valid)}"
            )
        effective = {
            name: value for name, value in overrides.items() if value is not None
        }
        if not effective:
            return self
        return replace(self, **effective)


@dataclass
class TransientResult:
    """One transient injection run."""

    params: TransientParams
    record: InjectionRecord
    outcome: OutcomeRecord
    wall_time: float
    instructions: int = 0  # deterministic simulated duration of the run


@dataclass
class PermanentResult:
    """One permanent injection run (one opcode)."""

    params: PermanentParams
    opcode: str
    weight: float  # dynamic instruction share of this opcode (Fig 3 weighting)
    activations: int
    outcome: OutcomeRecord
    wall_time: float


@dataclass
class TransientCampaignResult:
    results: list[TransientResult]
    tally: OutcomeTally
    golden_time: float
    profile_time: float
    median_injection_time: float
    # Adaptive campaigns attach their decision record: batches, stop point,
    # per-stratum tallies and the weighted (unbiased) combined estimate.
    adaptive: AdaptiveSummary | None = None

    @property
    def total_time(self) -> float:
        """Aggregate campaign time (Fig 5): profile once + all injection runs."""
        return self.profile_time + sum(r.wall_time for r in self.results)


@dataclass
class PermanentCampaignResult:
    results: list[PermanentResult]
    tally: OutcomeTally  # weighted by opcode dynamic counts
    golden_time: float
    median_injection_time: float

    @property
    def total_time(self) -> float:
        return sum(r.wall_time for r in self.results)


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0
