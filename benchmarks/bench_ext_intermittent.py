"""Extension bench — intermittent faults (paper §V future work).

Sweeps the activation probability of an intermittent fault between the
transient limit (activates ~once) and the permanent limit (always active),
showing how error propagation interpolates between the two regimes of
Figures 2 and 3: more activations => fewer masked outcomes.
"""

from __future__ import annotations

from benchmarks.harness import campaign_seed, emit, quick_mode
from repro.core.campaign import CampaignConfig
from repro.core.engine import CampaignEngine
from repro.core.outcomes import Outcome
from repro.core.params import IntermittentParams
from repro.core.report import OutcomeTally
from repro.core.site_selection import select_permanent_sites
from repro.utils.rng import SeedSequenceStream
from repro.utils.text import format_table
from repro.workloads import get_workload

_PROBABILITIES = (0.01, 0.1, 0.5, 1.0)
_PROGRAMS = ("303.ostencil", "360.ilbdc")


def _measure():
    rows = []
    tallies: dict[float, OutcomeTally] = {p: OutcomeTally() for p in _PROBABILITIES}
    activations: dict[float, int] = {p: 0 for p in _PROBABILITIES}
    programs = _PROGRAMS[:1] if quick_mode() else _PROGRAMS
    for name in programs:
        engine = CampaignEngine(get_workload(name), CampaignConfig(seed=campaign_seed()))
        engine.run_profile()
        rng = SeedSequenceStream(campaign_seed(), path=name).child("int").generator()
        sites = select_permanent_sites(
            engine.profile, rng, sm_ids=engine.active_sm_ids()
        )
        for probability in _PROBABILITIES:
            results = engine.run_intermittent([
                IntermittentParams(
                    site,
                    process="random",
                    activation_probability=probability,
                    seed=index,
                )
                for index, site in enumerate(sites[:10])
            ])
            for result in results:
                tallies[probability].add(result.outcome)
                activations[probability] += result.activations
    for probability in _PROBABILITIES:
        tally = tallies[probability]
        rows.append([
            f"{probability:.2f}",
            activations[probability],
            f"{tally.fraction(Outcome.SDC) * 100:.0f}%",
            f"{tally.fraction(Outcome.DUE) * 100:.0f}%",
            f"{tally.fraction(Outcome.MASKED) * 100:.0f}%",
        ])
    return rows, tallies


def test_extension_intermittent_sweep(benchmark):
    rows, tallies = benchmark.pedantic(_measure, rounds=1, iterations=1)
    table = format_table(
        ["activation probability", "total activations", "SDC", "DUE", "Masked"],
        rows,
        title="Extension (paper Sec. V future work): intermittent-fault sweep "
              "from near-transient (p=0.01) to permanent (p=1.0)",
    )
    emit("ext_intermittent", table)
    # More activations can only reduce masking (monotone trend endpoint check).
    assert tallies[1.0].fraction(Outcome.MASKED) <= tallies[0.01].fraction(
        Outcome.MASKED
    )
