"""Extension bench — outcome sensitivity to the bit-flip model (Table II).

The paper offers four bit-level corruption models as "a simpler, but more
generalizable fault model"; this bench quantifies how much the choice
matters by running the same campaign under each model.  Expectation from
the fault-model literature (and asserted here): RANDOM_VALUE corruptions,
which rewrite the whole word, are at least as damaging as single-bit
flips, which often land in tolerated mantissa tails.
"""

from __future__ import annotations

from benchmarks.harness import campaign_seed, emit, num_injections, quick_mode
from repro.core.bitflip import BitFlipModel
from repro.core.campaign import CampaignConfig
from repro.core.engine import CampaignEngine
from repro.core.outcomes import Outcome
from repro.utils.text import format_table
from repro.workloads import get_workload

_PROGRAMS = ("303.ostencil", "363.swim")


def _measure():
    programs = _PROGRAMS[:1] if quick_mode() else _PROGRAMS
    injections = max(num_injections(), 20)
    rows = []
    fractions = {}
    for model in BitFlipModel:
        sdc = due = masked = 0.0
        for name in programs:
            engine = CampaignEngine(
                get_workload(name),
                CampaignConfig(
                    model=model, num_transient=injections, seed=campaign_seed()
                ),
            )
            tally = engine.run_transient().tally
            sdc += tally.fraction(Outcome.SDC)
            due += tally.fraction(Outcome.DUE)
            masked += tally.fraction(Outcome.MASKED)
        count = len(programs)
        fractions[model] = (sdc / count, due / count, masked / count)
        rows.append([
            model.name,
            f"{sdc / count * 100:.0f}%",
            f"{due / count * 100:.0f}%",
            f"{masked / count * 100:.0f}%",
        ])
    return rows, fractions, injections, programs


def test_extension_bitflip_model_comparison(benchmark):
    rows, fractions, injections, programs = benchmark.pedantic(
        _measure, rounds=1, iterations=1
    )
    table = format_table(
        ["bit-flip model", "SDC", "DUE", "Masked"],
        rows,
        title=f"Extension: outcome sensitivity to the Table II bit-flip model "
              f"({injections} faults x {len(programs)} program(s), same sites)",
    )
    emit("ext_bitflip_models", table)
    # Whole-word random corruption masks no more than a single-bit flip.
    random_masked = fractions[BitFlipModel.RANDOM_VALUE][2]
    single_masked = fractions[BitFlipModel.FLIP_SINGLE_BIT][2]
    assert random_masked <= single_masked + 0.10
