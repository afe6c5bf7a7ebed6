"""Figure 3 — relative outcomes for permanent faults.

One permanent injection per executed opcode per program (paper §IV-B: '171
runs ... one opcode out of the possible 171' with unused opcodes skipped
via the profile), each run's outcome weighted by the opcode's share of the
program's dynamic instructions.

The paper's headline comparison: masked outcomes drop from 57.6% (transient)
to 17.4% (permanent) because a permanent fault activates repeatedly.  The
bench asserts the *shape*: permanent faults mask less and corrupt more than
transient faults on the same programs.
"""

from __future__ import annotations

from benchmarks.harness import emit, make_campaign, workload_names
from repro.core.outcomes import Outcome
from repro.core.report import OutcomeTally
from repro.utils.text import format_histogram_row, format_table


def _measure():
    rows = []
    weighted_total = OutcomeTally()
    transient_total = OutcomeTally()
    for name in workload_names():
        engine = make_campaign(name)
        transient = engine.run_transient()
        permanent = engine.run_permanent()
        weighted_total = weighted_total.merge(permanent.tally)
        transient_total = transient_total.merge(transient.tally)
        rows.append((name, permanent, transient))
    return rows, weighted_total, transient_total


def _render(rows, weighted_total, transient_total) -> str:
    lines = [
        "Figure 3: relative outcomes for permanent faults "
        "(weighted by opcode dynamic-instruction share)",
        "=" * 78,
    ]
    for name, permanent, _ in rows:
        lines.append(
            format_histogram_row(name, permanent.tally.fractions())
        )
        executed = len(permanent.results)
        lines.append(
            f"{'':>16}  {executed} executed opcodes injected "
            f"(unused opcodes skipped, as in §IV-C)"
        )
    comparison = format_table(
        ["fault type", "SDC", "DUE", "Masked", "paper Masked"],
        [
            ["transient (ours)",
             f"{transient_total.fraction(Outcome.SDC) * 100:.1f}%",
             f"{transient_total.fraction(Outcome.DUE) * 100:.1f}%",
             f"{transient_total.fraction(Outcome.MASKED) * 100:.1f}%",
             "57.6%"],
            ["permanent (ours)",
             f"{weighted_total.fraction(Outcome.SDC) * 100:.1f}%",
             f"{weighted_total.fraction(Outcome.DUE) * 100:.1f}%",
             f"{weighted_total.fraction(Outcome.MASKED) * 100:.1f}%",
             "17.4%"],
        ],
        title="Transient vs permanent (suite averages)",
    )
    lines.append("")
    lines.append(comparison)
    return "\n".join(lines)


def test_fig3_permanent_outcomes(benchmark):
    rows, weighted_total, transient_total = benchmark.pedantic(
        _measure, rounds=1, iterations=1
    )
    emit("fig3_permanent", _render(rows, weighted_total, transient_total))
    # Shape assertion: permanent faults are activated many times, so they
    # mask strictly less than transients and produce at least as many SDCs.
    assert weighted_total.fraction(Outcome.MASKED) < transient_total.fraction(
        Outcome.MASKED
    )
    assert weighted_total.fraction(Outcome.SDC) > transient_total.fraction(
        Outcome.SDC
    ) * 0.9
