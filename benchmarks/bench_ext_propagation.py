"""Extension bench — error-propagation profiles by outcome class.

The paper's abstract frames the whole problem as error *propagation*; this
bench makes the connection between propagation behaviour and the Table V
outcome classes quantitative: across a set of injections, SDC runs show a
growing corruption front in device memory, while Masked runs either never
touch memory, keep corruption within the SDC-check tolerance, or are
overwritten (architectural masking).
"""

from __future__ import annotations

from benchmarks.harness import campaign_seed, emit, quick_mode
from repro.core.campaign import CampaignConfig
from repro.core.engine import CampaignEngine
from repro.core.injector import TransientInjectorTool
from repro.core.outcomes import Outcome, classify
from repro.core.propagation import trace_propagation
from repro.runner.sandbox import run_app
from repro.utils.text import format_table
from repro.workloads import get_workload

_PROGRAM = "303.ostencil"


def _measure():
    engine = CampaignEngine(
        get_workload(_PROGRAM), CampaignConfig(seed=campaign_seed())
    )
    engine.run_profile()
    count = 8 if quick_mode() else 20
    config = engine.injection_config()

    stats = {
        Outcome.SDC: {"n": 0, "reached": 0, "peak": 0, "final": 0, "gone": 0},
        Outcome.MASKED: {"n": 0, "reached": 0, "peak": 0, "final": 0, "gone": 0},
        Outcome.DUE: {"n": 0, "reached": 0, "peak": 0, "final": 0, "gone": 0},
    }
    for site in engine.select_sites(count):
        injector = TransientInjectorTool(site)
        observed = run_app(engine.app, preload=[injector], config=config)
        outcome = classify(engine.app, engine.golden, observed).outcome
        trace = trace_propagation(
            engine.app, TransientInjectorTool(site), config
        )
        bucket = stats[outcome]
        bucket["n"] += 1
        if trace.peak_corruption:
            bucket["reached"] += 1
        bucket["peak"] += trace.peak_corruption
        bucket["final"] += trace.final_corruption
        if trace.was_overwritten:
            bucket["gone"] += 1
    return count, stats


def test_extension_propagation_profiles(benchmark):
    count, stats = benchmark.pedantic(_measure, rounds=1, iterations=1)
    rows = []
    for outcome, bucket in stats.items():
        n = max(bucket["n"], 1)
        rows.append([
            outcome.value,
            bucket["n"],
            bucket["reached"],
            f"{bucket['peak'] / n:.0f} B",
            f"{bucket['final'] / n:.0f} B",
            bucket["gone"],
        ])
    table = format_table(
        ["outcome", "faults", "reached memory", "mean peak corruption",
         "mean final corruption", "overwritten"],
        rows,
        title=f"Extension: propagation profiles for {count} faults in {_PROGRAM}",
    )
    emit("ext_propagation", table)

    sdc = stats[Outcome.SDC]
    masked = stats[Outcome.MASKED]
    if sdc["n"] and masked["n"]:
        # SDC runs must end with (strictly) more memory corruption on
        # average than masked runs — that is what "silent data corruption
        # reached the output" means mechanically.
        assert sdc["final"] / sdc["n"] > masked["final"] / max(masked["n"], 1)
        # And every SDC run's corruption reached memory at all.
        assert sdc["reached"] == sdc["n"]
