"""Campaign analysis: AVF estimation and vulnerability breakdowns.

The paper motivates fault injection with the architectural vulnerability
factor (AVF, §I): the probability that a fault produces a visible error in
the program output.  This module derives AVF-style metrics from campaign
results, with the breakdowns (per kernel, per opcode, per instruction
group) that real resilience studies built on NVBitFI/SASSIFI report.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.core.campaign import PermanentCampaignResult, TransientCampaignResult
from repro.core.groups import InstructionGroup, in_group
from repro.core.outcomes import Outcome
from repro.core.report import OutcomeTally, confidence_interval
from repro.sass.isa import OPCODES_BY_NAME
from repro.utils.text import format_table


@dataclass(frozen=True)
class AvfEstimate:
    """AVF point estimates with confidence intervals."""

    avf: float  # P(fault -> visible error) = 1 - P(masked)
    sdc_avf: float  # P(fault -> silent data corruption)
    due_avf: float  # P(fault -> detected, unrecoverable error)
    samples: int
    confidence: float = 0.90

    @property
    def avf_interval(self) -> tuple[float, float]:
        return confidence_interval(self.avf, self.samples, self.confidence)

    @property
    def sdc_interval(self) -> tuple[float, float]:
        return confidence_interval(self.sdc_avf, self.samples, self.confidence)

    def __str__(self) -> str:
        low, high = self.avf_interval
        return (
            f"AVF={self.avf * 100:.1f}% [{low * 100:.1f}, {high * 100:.1f}] "
            f"(SDC {self.sdc_avf * 100:.1f}%, DUE {self.due_avf * 100:.1f}%, "
            f"n={self.samples})"
        )


def estimate_avf(tally: OutcomeTally, confidence: float = 0.90) -> AvfEstimate:
    """AVF from an outcome tally: everything that is not masked is visible."""
    if tally.total <= 0:
        raise ValueError("cannot estimate AVF from an empty campaign")
    return AvfEstimate(
        avf=1.0 - tally.fraction(Outcome.MASKED),
        sdc_avf=tally.fraction(Outcome.SDC),
        due_avf=tally.fraction(Outcome.DUE),
        samples=max(tally.samples, 1),
        confidence=confidence,
    )


def per_kernel_breakdown(
    result: TransientCampaignResult,
) -> dict[str, OutcomeTally]:
    """Outcome tallies keyed by the injected kernel."""
    tallies: dict[str, OutcomeTally] = defaultdict(OutcomeTally)
    for item in result.results:
        tallies[item.params.kernel_name].add(item.outcome)
    return dict(tallies)


def per_opcode_breakdown(
    result: TransientCampaignResult,
) -> dict[str, OutcomeTally]:
    """Outcome tallies keyed by the opcode whose destination was corrupted."""
    tallies: dict[str, OutcomeTally] = defaultdict(OutcomeTally)
    for item in result.results:
        if item.record.injected:
            tallies[item.record.opcode].add(item.outcome)
    return dict(tallies)


def per_group_breakdown(
    result: TransientCampaignResult,
) -> dict[InstructionGroup, OutcomeTally]:
    """Outcome tallies keyed by the *base* group of the injected opcode."""
    tallies: dict[InstructionGroup, OutcomeTally] = defaultdict(OutcomeTally)
    base_groups = (
        InstructionGroup.G_FP64, InstructionGroup.G_FP32,
        InstructionGroup.G_LD, InstructionGroup.G_PR,
        InstructionGroup.G_OTHERS,
    )
    for item in result.results:
        if not item.record.injected:
            continue
        info = OPCODES_BY_NAME[item.record.opcode]
        for group in base_groups:
            if in_group(info, group):
                tallies[group].add(item.outcome)
                break
    return dict(tallies)


def permanent_avf_by_opcode(
    result: PermanentCampaignResult,
) -> list[tuple[str, float, bool]]:
    """(opcode, dynamic weight, visible?) per permanent injection, sorted by
    contribution to the weighted AVF — the Figure 3 weighting scheme."""
    rows = []
    for item in result.results:
        visible = item.outcome.outcome is not Outcome.MASKED
        rows.append((item.opcode, item.weight, visible))
    rows.sort(key=lambda row: -(row[1] if row[2] else 0.0))
    return rows


def format_avf_report(
    name: str,
    result: TransientCampaignResult,
    confidence: float = 0.90,
) -> str:
    """A readable vulnerability report for one campaign."""
    overall = estimate_avf(result.tally, confidence)
    lines = [f"AVF report for {name}", "=" * (15 + len(name)), str(overall), ""]
    rows = []
    for kernel, tally in sorted(
        per_kernel_breakdown(result).items(),
        key=lambda kv: -kv[1].total,
    ):
        estimate = estimate_avf(tally, confidence)
        rows.append([
            kernel,
            tally.samples,
            f"{estimate.avf * 100:.0f}%",
            f"{estimate.sdc_avf * 100:.0f}%",
            f"{estimate.due_avf * 100:.0f}%",
        ])
    lines.append(
        format_table(
            ["kernel", "faults", "AVF", "SDC", "DUE"], rows,
            title="per-kernel vulnerability",
        )
    )
    group_rows = []
    for group, tally in sorted(per_group_breakdown(result).items()):
        estimate = estimate_avf(tally, confidence)
        group_rows.append(
            [group.name, tally.samples, f"{estimate.avf * 100:.0f}%"]
        )
    if group_rows:
        lines.append("")
        lines.append(
            format_table(["instruction group", "faults", "AVF"], group_rows,
                         title="per-group vulnerability")
        )
    return "\n".join(lines)
