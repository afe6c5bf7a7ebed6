"""AVF-analysis tests."""

import pytest

from repro.core.analysis import (
    estimate_avf,
    format_avf_report,
    per_group_breakdown,
    per_kernel_breakdown,
    per_opcode_breakdown,
    permanent_avf_by_opcode,
)
from repro.core.campaign import CampaignConfig
from repro.core.engine import CampaignEngine
from repro.core.groups import InstructionGroup
from repro.core.outcomes import Outcome, OutcomeRecord
from repro.core.report import OutcomeTally
from repro.workloads import get_workload


def _tally(sdc=0, due=0, masked=0) -> OutcomeTally:
    tally = OutcomeTally()
    for _ in range(sdc):
        tally.add(OutcomeRecord(Outcome.SDC, "x"))
    for _ in range(due):
        tally.add(OutcomeRecord(Outcome.DUE, "x"))
    for _ in range(masked):
        tally.add(OutcomeRecord(Outcome.MASKED, "x"))
    return tally


class TestEstimate:
    def test_avf_is_complement_of_masked(self):
        estimate = estimate_avf(_tally(sdc=3, due=1, masked=6))
        assert estimate.avf == pytest.approx(0.4)
        assert estimate.sdc_avf == pytest.approx(0.3)
        assert estimate.due_avf == pytest.approx(0.1)

    def test_intervals_bracket_estimate(self):
        estimate = estimate_avf(_tally(sdc=30, masked=70))
        low, high = estimate.avf_interval
        assert low < estimate.avf < high

    def test_empty_tally_rejected(self):
        with pytest.raises(ValueError):
            estimate_avf(OutcomeTally())

    def test_str_rendering(self):
        text = str(estimate_avf(_tally(sdc=5, masked=5)))
        assert "AVF=50.0%" in text and "n=10" in text


class TestBreakdowns:
    @pytest.fixture(scope="class")
    def result(self):
        campaign = CampaignEngine(get_workload("314.omriq"),
                                  CampaignConfig(num_transient=15, seed=9))
        return campaign.run_transient()

    def test_per_kernel_totals_sum_to_campaign(self, result):
        breakdown = per_kernel_breakdown(result)
        assert sum(t.total for t in breakdown.values()) == 15
        assert set(breakdown) <= {"computePhiMag", "computeQ"}

    def test_per_opcode_only_injected_runs(self, result):
        breakdown = per_opcode_breakdown(result)
        injected = sum(1 for r in result.results if r.record.injected)
        assert sum(t.total for t in breakdown.values()) == injected

    def test_per_group_uses_base_groups(self, result):
        breakdown = per_group_breakdown(result)
        assert all(
            group in (
                InstructionGroup.G_FP64, InstructionGroup.G_FP32,
                InstructionGroup.G_LD, InstructionGroup.G_PR,
                InstructionGroup.G_OTHERS,
            )
            for group in breakdown
        )

    def test_report_renders(self, result):
        text = format_avf_report("314.omriq", result)
        assert "AVF report for 314.omriq" in text
        assert "per-kernel vulnerability" in text
        assert "computeQ" in text


class TestPermanentAnalysis:
    def test_rows_cover_all_opcodes(self):
        campaign = CampaignEngine(get_workload("360.ilbdc"), CampaignConfig(seed=2))
        campaign.run_golden()
        campaign.run_profile()
        permanent = campaign.run_permanent()
        rows = permanent_avf_by_opcode(permanent)
        assert len(rows) == len(permanent.results)
        # Visible rows with the highest weight come first.
        visible_weights = [w for _, w, visible in rows if visible]
        assert visible_weights == sorted(visible_weights, reverse=True)
