"""Campaign-orchestration tests (end-to-end over a small real workload)."""

import pytest

from repro.core.campaign import CampaignConfig
from repro.core.engine import CampaignEngine
from repro.core.outcomes import Outcome
from repro.core.params import IntermittentParams, PermanentParams
from repro.runner.golden import GoldenError
from repro.runner.sandbox import SandboxConfig
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def campaign():
    config = CampaignConfig(num_transient=12, seed=11)
    instance = CampaignEngine(get_workload("314.omriq"), config)
    instance.run_golden()
    instance.run_profile()
    return instance


class TestPhases:
    def test_golden_is_clean(self, campaign):
        golden = campaign.golden
        assert golden.exit_status == 0
        assert not golden.cuda_errors and not golden.dmesg
        assert golden.files

    def test_profile_covers_program(self, campaign):
        profile = campaign.profile
        assert profile.num_dynamic_kernels == 2
        assert profile.num_static_kernels == 2
        assert profile.total_count() > 1000

    def test_sites_deterministic_for_seed(self, campaign):
        assert campaign.select_sites(5) == campaign.select_sites(5)

    def test_different_seeds_give_different_sites(self):
        app = get_workload("314.omriq")
        a = CampaignEngine(app, CampaignConfig(seed=1))
        b = CampaignEngine(app, CampaignConfig(seed=2))
        a.run_golden(); a.run_profile()
        b.run_golden(); b.run_profile()
        assert a.select_sites(5) != b.select_sites(5)


class TestTransientCampaign:
    def test_full_run(self, campaign):
        result = campaign.run_transient()
        assert len(result.results) == 12
        assert result.tally.total == 12
        fractions = result.tally.fractions()
        assert abs(sum(fractions.values()) - 1.0) < 1e-9
        assert result.median_injection_time > 0
        assert result.total_time > result.profile_time

    def test_every_result_has_outcome_and_record(self, campaign):
        result = campaign.run_transient(campaign.select_sites(4))
        for item in result.results:
            assert item.outcome.outcome in Outcome
            assert item.params.kernel_name in ("computePhiMag", "computeQ")

    def test_reproducible_outcomes(self):
        def run():
            instance = CampaignEngine(
                get_workload("360.ilbdc"),
                CampaignConfig(num_transient=6, seed=5),
            )
            result = instance.run_transient()
            return [r.outcome.outcome for r in result.results]

        assert run() == run()


class TestPermanentCampaign:
    def test_one_injection_per_executed_opcode(self, campaign):
        result = campaign.run_permanent()
        opcodes = [r.opcode for r in result.results]
        assert sorted(opcodes) == sorted(campaign.profile.executed_opcodes())

    def test_weights_sum_to_one(self, campaign):
        result = campaign.run_permanent()
        assert sum(r.weight for r in result.results) == pytest.approx(1.0)

    def test_weighted_tally(self, campaign):
        result = campaign.run_permanent()
        assert result.tally.total == pytest.approx(1.0)


class TestIntermittentRun:
    def test_single_run(self, campaign):
        site = PermanentParams(sm_id=0, lane_id=0, bit_mask=1 << 3, opcode_id=24)
        params = IntermittentParams(site, process="random",
                                    activation_probability=0.2, seed=1)
        result = campaign.run_intermittent([params])[0]
        assert result.outcome.outcome in Outcome


class TestGoldenValidation:
    def test_bad_golden_rejected(self):
        from repro.runner.app import Application

        class BrokenApp(Application):
            name = "broken"

            def run(self, ctx):
                ctx.exit(1)

        campaign = CampaignEngine(BrokenApp(), CampaignConfig())
        with pytest.raises(GoldenError, match="status 1"):
            campaign.run_golden()

    def test_tiny_budget_rejected(self):
        config = CampaignConfig(
            sandbox=SandboxConfig(instruction_budget=100)
        )
        campaign = CampaignEngine(get_workload("314.omriq"), config)
        with pytest.raises(GoldenError, match="budget"):
            campaign.run_golden()


class TestWithOverrides:
    def test_unknown_key_rejected(self):
        from repro.errors import ParamError

        with pytest.raises(ParamError, match="unknown campaign config override"):
            CampaignConfig().with_overrides(num_transiet=5)

    def test_none_values_keep_the_base(self):
        base = CampaignConfig(num_transient=7, seed=4)
        assert base.with_overrides(num_transient=None, seed=None) == base

    def test_overrides_apply_without_mutating_the_base(self):
        base = CampaignConfig(num_transient=7, seed=4)
        bumped = base.with_overrides(num_transient=9, fast_forward=False)
        assert (bumped.num_transient, bumped.fast_forward) == (9, False)
        assert bumped.seed == 4
        assert (base.num_transient, base.fast_forward) == (7, True)

    def test_empty_overrides_return_self(self):
        base = CampaignConfig()
        assert base.with_overrides() is base
