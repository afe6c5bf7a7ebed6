"""The stable programmatic facade of the package.

Four functions cover the NVBitFI pipeline end-to-end; everything else
(engines, executors, stores, tracers) plugs in through keyword arguments:

* :func:`profile` — golden + profiling runs → :class:`ProgramProfile`;
* :func:`select_sites` — deterministic uniform site selection over a
  profile (bit-for-bit the engine's own selection for the same seed);
* :func:`inject` — one injection run, classified against a fresh golden;
* :func:`run_campaign` — the full golden → profile → select → inject →
  classify campaign, serial or parallel, resumable, observable.

Example::

    import repro

    prof = repro.profile("303.ostencil")
    sites = repro.select_sites(prof, count=100, seed=1)
    result = repro.run_campaign(
        repro.CampaignConfig(workload="303.ostencil", num_transient=100, seed=1)
    )
    print(result.tally.report())

Per-call config overrides go through
:meth:`~repro.core.campaign.CampaignConfig.with_overrides`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.bitflip import BitFlipModel
from repro.core.campaign import (
    CampaignConfig,
    PermanentCampaignResult,
    TransientCampaignResult,
)
from repro.core.engine import (
    CampaignEngine,
    EngineHooks,
    Executor,
    InjectionOutput,
    InjectionTask,
    execute_task,
)
from repro.core.groups import InstructionGroup
from repro.core.injector import InjectionRecord
from repro.core.kinds import CampaignKind
from repro.core.outcomes import OutcomeRecord, classify
from repro.core.params import IntermittentParams, PermanentParams, TransientParams
from repro.core.profile_data import ProgramProfile
from repro.core.profiler import ProfilingMode
from repro.core.result_store import ResultStore
from repro.core.site_selection import select_transient_sites
from repro.errors import ParamError, ReproError
from repro.obs import MetricsRegistry, Tracer
from repro.runner.app import Application
from repro.runner.artifacts import RunArtifacts
from repro.runner.sandbox import SandboxConfig
from repro.utils.rng import SeedSequenceStream


def profile(
    workload: Application | str,
    *,
    mode: ProfilingMode = ProfilingMode.EXACT,
    sandbox: SandboxConfig | None = None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> ProgramProfile:
    """Profile a workload: golden run, then an instrumented profiling run.

    Returns the :class:`ProgramProfile` with its ``workload`` field stamped,
    so :func:`select_sites` reproduces the engine's RNG stream.
    """
    engine = _engine(workload, sandbox=sandbox, tracer=tracer, metrics=metrics)
    return engine.run_profile(mode)


def select_sites(
    program_profile: ProgramProfile,
    *,
    count: int = 100,
    group: InstructionGroup = InstructionGroup.G_GP,
    model: BitFlipModel = BitFlipModel.FLIP_SINGLE_BIT,
    seed: int = 0,
) -> list[TransientParams]:
    """Draw ``count`` transient fault sites uniformly over a profile.

    Selection is deterministic from ``seed`` and the profile's ``workload``
    stamp, and matches the engine's own selection bit-for-bit: a campaign
    run with the same knobs injects exactly these sites in this order.

    An unstamped profile (``workload`` empty) raises
    :class:`~repro.errors.ParamError` immediately: silently seeding the RNG
    from a placeholder would produce sites that *look* valid but can never
    match any campaign's, which historically surfaced only as a downstream
    parity mismatch.
    """
    if not program_profile.workload:
        raise ParamError(
            "profile has no workload stamp; site selection seeds its RNG "
            "from (seed, workload), so an unstamped profile cannot "
            "reproduce any campaign's sites. Use repro.profile(...) (which "
            "stamps the profile) or set profile.workload to the registered "
            "workload name."
        )
    stream = SeedSequenceStream(seed, path=program_profile.workload)
    rng = stream.child("sites").generator()
    return select_transient_sites(program_profile, group, model, count, rng)


@dataclass
class InjectResult:
    """One standalone injection run, classified against a fresh golden."""

    params: TransientParams | PermanentParams | IntermittentParams
    record: InjectionRecord | None
    outcome: OutcomeRecord
    artifacts: RunArtifacts

    @property
    def masked(self) -> bool:
        from repro.core.outcomes import Outcome

        return self.outcome.outcome is Outcome.MASKED


def inject(
    workload: Application | str,
    params: TransientParams | PermanentParams | IntermittentParams,
    *,
    sandbox: SandboxConfig | None = None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
) -> InjectResult:
    """Run one injection: golden run, injection run, Table V classification.

    The injection run inherits the engine's hang-budget watchdog (scaled
    from the golden run) and the full sandbox configuration, exactly as a
    campaign injection would.
    """
    engine = _engine(workload, sandbox=sandbox, tracer=tracer, metrics=metrics)
    engine.run_golden()
    kind = _kind(params)
    task = InjectionTask(
        index=0,
        workload=engine.app.name,
        kind=kind,
        params=params,
        sandbox=engine._injection_spec(),
    )
    with engine.tracer.span("inject", kind=kind, total=1, fresh=1):
        output: InjectionOutput = execute_task(
            task, app=engine.app, tracer=engine.tracer
        )
    outcome = classify(engine.app, engine.golden, output.artifacts)
    return InjectResult(
        params=params,
        record=output.record,
        outcome=outcome,
        artifacts=output.artifacts,
    )


def run_campaign(
    config: CampaignConfig,
    *,
    executor: Executor | None = None,
    store: ResultStore | None = None,
    hooks: EngineHooks | None = None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    kind: CampaignKind | str = CampaignKind.TRANSIENT,
) -> TransientCampaignResult | PermanentCampaignResult:
    """Run (or resume) a full campaign described by ``config``.

    ``config.workload`` names the registered application.  Plug in a
    :class:`~repro.core.engine.ParallelExecutor` for multi-process runs,
    any :class:`~repro.core.result_store.ResultStore` for
    checkpoint/resume (the directory-backed
    :class:`~repro.core.store.CampaignStore` or a
    :class:`~repro.service.faultdb.FaultDB` campaign store), and a
    :class:`~repro.obs.Tracer` / :class:`~repro.obs.MetricsRegistry` for
    observability.

    ``kind`` selects what the campaign injects — a
    :class:`~repro.CampaignKind` member or its string value
    (``"transient"`` / ``"permanent"``); anything else raises
    :class:`~repro.errors.ReproError` naming the accepted set.

    Per-call config overrides belong in the config itself::

        run_campaign(config.with_overrides(retry=policy, stopping=rule))
    """
    if not config.workload:
        raise ReproError(
            "run_campaign needs CampaignConfig.workload to name a "
            "registered workload"
        )
    campaign_kind = CampaignKind.coerce(kind)
    engine = CampaignEngine(
        config.workload,
        config,
        executor=executor,
        store=store,
        hooks=hooks,
        tracer=tracer,
        metrics=metrics,
    )
    if campaign_kind is CampaignKind.TRANSIENT:
        return engine.run_transient()
    if campaign_kind is CampaignKind.PERMANENT:
        return engine.run_permanent()
    raise ReproError(
        f"campaign kind {campaign_kind.value!r} has no campaign entry "
        "point; use repro.inject for single intermittent runs"
    )


# -- helpers -------------------------------------------------------------------


def _engine(
    workload: Application | str,
    sandbox: SandboxConfig | None,
    tracer: Tracer | None,
    metrics: MetricsRegistry | None = None,
) -> CampaignEngine:
    config = CampaignConfig()
    if sandbox is not None:
        config = replace(config, sandbox=sandbox)
    return CampaignEngine(workload, config, tracer=tracer, metrics=metrics)


def _kind(params) -> str:
    if isinstance(params, TransientParams):
        return CampaignKind.TRANSIENT.value
    if isinstance(params, IntermittentParams):
        return CampaignKind.INTERMITTENT.value
    if isinstance(params, PermanentParams):
        return CampaignKind.PERMANENT.value
    raise ReproError(f"unsupported parameter type {type(params).__name__}")
