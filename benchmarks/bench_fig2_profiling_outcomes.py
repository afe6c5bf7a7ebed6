"""Figure 2 — transient-fault outcomes under exact vs approximate profiling.

For every program, two full transient campaigns are run: one whose fault
sites are drawn from an exact profile and one from an approximate profile.
The figure reproduces the paper's finding: per-program outcome mixes are
similar across the two profiling modes (the paper reports averages of
32.5%/4.2%/63.3% vs 37.9%/4.5%/57.6% SDC/DUE/Masked; our absolute numbers
differ because the workloads are scaled, but the exact~approximate
agreement is the result under test).
"""

from __future__ import annotations

from benchmarks.harness import emit, make_campaign, num_injections, workload_names
from repro.core.outcomes import Outcome
from repro.core.profiler import ProfilingMode
from repro.core.report import OutcomeTally
from repro.utils.text import format_histogram_row, format_table


def _campaign_outcomes(name: str, mode: ProfilingMode) -> OutcomeTally:
    return make_campaign(name, profiling=mode).run_transient().tally


def _measure():
    rows = []
    exact_total = OutcomeTally()
    approx_total = OutcomeTally()
    for name in workload_names():
        exact = _campaign_outcomes(name, ProfilingMode.EXACT)
        approx = _campaign_outcomes(name, ProfilingMode.APPROXIMATE)
        exact_total = exact_total.merge(exact)
        approx_total = approx_total.merge(approx)
        rows.append((name, exact, approx))
    return rows, exact_total, approx_total


def _render(rows, exact_total, approx_total) -> str:
    lines = [
        "Figure 2: exact vs approximate profiling, transient faults "
        f"({num_injections()} injections/program)",
        "=" * 78,
    ]
    for name, exact, approx in rows:
        lines.append(format_histogram_row(f"{name} [exact]", exact.fractions()))
        lines.append(format_histogram_row(f"{'':>12} [apprx]", approx.fractions()))
    lines.append("")
    summary = format_table(
        ["profiling", "SDC", "DUE", "Masked", "paper (avg)"],
        [
            ["exact",
             f"{exact_total.fraction(Outcome.SDC) * 100:.1f}%",
             f"{exact_total.fraction(Outcome.DUE) * 100:.1f}%",
             f"{exact_total.fraction(Outcome.MASKED) * 100:.1f}%",
             "32.5 / 4.2 / 63.3"],
            ["approximate",
             f"{approx_total.fraction(Outcome.SDC) * 100:.1f}%",
             f"{approx_total.fraction(Outcome.DUE) * 100:.1f}%",
             f"{approx_total.fraction(Outcome.MASKED) * 100:.1f}%",
             "37.9 / 4.5 / 57.6"],
        ],
        title="Averages across programs",
    )
    lines.append(summary)
    return "\n".join(lines)


def test_fig2_exact_vs_approximate(benchmark):
    rows, exact_total, approx_total = benchmark.pedantic(
        _measure, rounds=1, iterations=1
    )
    emit("fig2_profiling_outcomes", _render(rows, exact_total, approx_total))
    # The paper's claim: approximate profiling preserves outcome fidelity.
    # With N injections the CI half-width is ~1.64*sqrt(0.25/N) per program;
    # across the merged suite the averages must agree within a loose bound.
    for outcome in Outcome:
        delta = abs(
            exact_total.fraction(outcome) - approx_total.fraction(outcome)
        )
        assert delta < 0.18, f"{outcome}: exact vs approximate diverged by {delta}"
