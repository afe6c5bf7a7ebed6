"""The derived profile equals the one the profiler counts.

A campaign builds its instruction profile from the golden run's counts
(:func:`repro.core.profiler.derived_profile`) and re-reports the device
totals the profile run would have added.  :class:`ProfilerTool` is the
oracle: on every registered program, in both profiling modes, the derived
``profile.txt`` bytes and the re-reported instructions, cycles and warps
equal what a real profile run produces.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.campaign import CampaignConfig
from repro.core.engine import CampaignEngine
from repro.core.profiler import ProfilerTool, ProfilingMode
from repro.core.store import CampaignStore
from repro.obs import MetricsRegistry
from repro.runner.app import AppContext, Application
from repro.runner.sandbox import run_app
from repro.workloads import WORKLOADS, get_workload

# A loop whose trip count is the kernel's second parameter, so each
# launch executes a different instruction mix.
_LOOP = """
.kernel loop
.params 2
    S2R R1, SR_TID.X ;
    MOV R2, RZ ;
    MOV R3, c[0x0][0x4] ;
    PBK DONE ;
TOP:
    ISETP.GE P0, R2, R3 ;
@P0 BRK ;
    IADD R2, R2, 1 ;
    BRA TOP ;
DONE:
    MOV R4, c[0x0][0x0] ;
    ISCADD R5, R1, R4, 2 ;
    STG [R5], R2 ;
    EXIT ;
"""


class TwoLoadsApp(Application):
    """One kernel image loaded twice: two function handles, one kernel.

    The approximate profiler keys first instances by handle, so the
    second load's first launch is counted, not copied, and each handle
    pays its own JIT compile.
    """

    name = "two_loads_app"

    def run(self, ctx: AppContext) -> None:
        cuda = ctx.cuda
        first = cuda.get_function(cuda.load_module(_LOOP, name="a"), "loop")
        second = cuda.get_function(cuda.load_module(_LOOP, name="b"), "loop")
        out = cuda.alloc(48, np.uint32)
        for func, trips in ((first, 2), (second, 5), (first, 7), (second, 1)):
            cuda.launch(func, 1, 48, out, trips)
        ctx.print("sum", int(out.to_host().sum()))


class ClockApp(Application):
    """A kernel that reads ``SR_CLOCK``: its profile is counted, not derived."""

    name = "clock_app"

    def run(self, ctx: AppContext) -> None:
        cuda = ctx.cuda
        module = cuda.load_module(
            ".kernel clocked\n.params 1\n"
            "    S2R R1, SR_CLOCK ;\n"
            "    S2R R2, SR_TID.X ;\n"
            "    MOV R4, c[0x0][0x0] ;\n"
            "    ISCADD R5, R2, R4, 2 ;\n"
            "    STG [R5], R1 ;\n"
            "    EXIT ;\n"
        )
        out = cuda.alloc(32, np.uint32)
        cuda.launch(cuda.get_function(module, "clocked"), 1, 32, out)
        ctx.print("first", int(out.to_host()[0]))


_TOTALS = ("gpusim.instructions_retired", "gpusim.cycles", "gpusim.warps_launched")


def _derived(app, mode: ProfilingMode, tmp_path):
    """The engine's profile.txt and the totals it re-reported."""
    registry = MetricsRegistry()
    store = CampaignStore(tmp_path / "study")
    engine = CampaignEngine(
        app, CampaignConfig(workload=app.name, profiling=mode),
        store=store, metrics=registry,
    )
    engine.run_golden()
    before = registry.snapshot()["counters"]
    engine.run_profile()
    after = registry.snapshot()["counters"]
    runs = after["sandbox.runs"] - before["sandbox.runs"]
    assert runs == (1 if isinstance(app, ClockApp) else 0)  # the profile run
    totals = tuple(int(after[name] - before[name]) for name in _TOTALS)
    return engine, (store.root / "profile.txt").read_text(), totals


def _counted(engine, app, mode: ProfilingMode):
    """profile.txt and the device totals of a real profile run."""
    profiler = ProfilerTool(mode)
    artifacts = run_app(app, preload=[profiler], config=engine._injection_config())
    profiler.profile.workload = app.name
    totals = (
        artifacts.instructions_executed, artifacts.cycles,
        artifacts.warps_launched,
    )
    return profiler.profile.to_text(), totals


_MODES = [ProfilingMode.EXACT, ProfilingMode.APPROXIMATE]


@pytest.mark.parametrize("mode", _MODES, ids=lambda m: m.value)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_derived_profile_equals_counted(workload, mode, tmp_path):
    app = get_workload(workload)
    engine, text, totals = _derived(app, mode, tmp_path)
    assert (text, totals) == _counted(engine, app, mode)


@pytest.mark.parametrize("mode", _MODES, ids=lambda m: m.value)
def test_two_module_loads_keep_their_handles(mode, tmp_path):
    app = TwoLoadsApp()
    engine, text, totals = _derived(app, mode, tmp_path)
    assert (text, totals) == _counted(engine, app, mode)
    flags = [line.split(";")[2] for line in text.splitlines() if ";" in line]
    if mode is ProfilingMode.APPROXIMATE:
        # Each handle's first launch is counted; its second is a copy.
        assert flags == ["=", "=", "~", "~"]
    else:
        assert flags == ["="] * 4


def test_a_clock_reader_keeps_the_profile_run(tmp_path):
    app = ClockApp()
    engine, text, totals = _derived(app, ProfilingMode.EXACT, tmp_path)
    assert (text, totals) == _counted(engine, app, ProfilingMode.EXACT)
