"""Shared overhead measurements for Figures 4 and 5.

Overheads are reported in **simulated GPU cycles** (see DESIGN.md): the
substrate is a Python simulator, so wall-clock ratios would measure Python
dispatch, not the instrumentation economics the paper studies.  The device
charges each instrumentation callback a trampoline fee plus a per-thread
fee and each JIT build a one-time fee, mirroring where real NVBit time
goes; uninstrumented warp-instructions cost one cycle.

Cached per pytest session so Figure 4 and Figure 5 share one pass.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from benchmarks.harness import campaign_seed, workload_names
from repro.core.campaign import CampaignConfig
from repro.core.engine import CampaignEngine
from repro.core.injector import TransientInjectorTool
from repro.core.pf_injector import PermanentInjectorTool
from repro.core.profiler import ProfilerTool, ProfilingMode
from repro.core.site_selection import select_permanent_sites
from repro.runner.sandbox import run_app
from repro.utils.rng import SeedSequenceStream
from repro.workloads import get_workload

_SAMPLE_INJECTIONS = 5


@dataclass
class ProgramOverheads:
    name: str
    golden_cycles: int
    exact_profile_cycles: int
    approx_profile_cycles: int
    median_transient_cycles: float
    median_permanent_cycles: float
    executed_opcodes: int
    num_dynamic_kernels: int

    @property
    def exact_overhead(self) -> float:
        return self.exact_profile_cycles / self.golden_cycles

    @property
    def approx_overhead(self) -> float:
        return self.approx_profile_cycles / self.golden_cycles

    @property
    def transient_overhead(self) -> float:
        return self.median_transient_cycles / self.golden_cycles

    @property
    def permanent_overhead(self) -> float:
        return self.median_permanent_cycles / self.golden_cycles

    def transient_campaign_cycles(self, injections: int = 100) -> float:
        """Paper Fig 5 model: profile once + N injection runs."""
        return self.approx_profile_cycles + injections * self.median_transient_cycles

    def permanent_campaign_cycles(self) -> float:
        """One run per *executed* opcode (unused opcodes skipped)."""
        return self.executed_opcodes * self.median_permanent_cycles


_CACHE: list[ProgramOverheads] | None = None


def measure_all(force: bool = False) -> list[ProgramOverheads]:
    global _CACHE
    if _CACHE is not None and not force:
        return _CACHE
    _CACHE = [_measure_program(name) for name in workload_names()]
    return _CACHE


def _cycles(app, tools, config) -> int:
    artifacts = run_app(app, preload=tools, config=config)
    return artifacts.cycles


def _measure_program(name: str) -> ProgramOverheads:
    engine = CampaignEngine(
        get_workload(name),
        CampaignConfig(seed=campaign_seed(), num_transient=_SAMPLE_INJECTIONS),
    )
    golden = engine.run_golden()
    config = engine.injection_config()
    app = engine.app

    exact_cycles = _cycles(app, [ProfilerTool(ProfilingMode.EXACT)], config)
    approx_cycles = _cycles(
        app, [ProfilerTool(ProfilingMode.APPROXIMATE)], config
    )

    engine.run_profile(ProfilingMode.EXACT)
    transient_cycles = [
        _cycles(app, [TransientInjectorTool(site)], config)
        for site in engine.select_sites(_SAMPLE_INJECTIONS)
    ]

    rng = SeedSequenceStream(campaign_seed(), path=name).child("pf").generator()
    permanent_sites = select_permanent_sites(
        engine.profile, rng, sm_ids=engine.active_sm_ids()
    )
    permanent_cycles = [
        _cycles(app, [PermanentInjectorTool(site)], config)
        for site in permanent_sites[:_SAMPLE_INJECTIONS]
    ]

    return ProgramOverheads(
        name=name,
        golden_cycles=golden.cycles,
        exact_profile_cycles=exact_cycles,
        approx_profile_cycles=approx_cycles,
        median_transient_cycles=statistics.median(transient_cycles),
        median_permanent_cycles=statistics.median(permanent_cycles),
        executed_opcodes=len(permanent_sites),
        num_dynamic_kernels=engine.profile.num_dynamic_kernels,
    )
