"""Tests for the stable :mod:`repro.api` facade.

The core property: the facade is a thin skin over the engine, so api-driven
campaigns are byte-identical (results.csv) to campaigns driven through
:class:`~repro.core.engine.CampaignEngine` directly, and api site selection
reproduces the engine's RNG stream exactly.
"""

import pytest

import repro
from repro import api
from repro.core.campaign import CampaignConfig
from repro.core.engine import CampaignEngine
from repro.core.params import PermanentParams
from repro.core.store import CampaignStore
from repro.errors import ReproError
from repro.workloads import get_workload

WORKLOAD = "360.ilbdc"


class TestProfile:
    def test_profile_stamps_workload(self):
        profile = api.profile(WORKLOAD)
        assert profile.workload == WORKLOAD
        assert profile.total_count() > 0

    def test_workload_stamp_survives_text_roundtrip(self):
        from repro.core.profile_data import ProgramProfile

        profile = api.profile(WORKLOAD)
        loaded = ProgramProfile.from_text(profile.to_text())
        assert loaded.workload == WORKLOAD
        assert loaded == profile

    def test_accepts_application_objects(self):
        profile = api.profile(get_workload(WORKLOAD))
        assert profile.workload == WORKLOAD


class TestSelectSites:
    def test_matches_engine_selection_exactly(self):
        config = CampaignConfig(num_transient=6, seed=11)
        campaign = CampaignEngine(get_workload(WORKLOAD), config)
        engine_sites = campaign.select_sites()

        profile = api.profile(WORKLOAD)
        api_sites = api.select_sites(profile, count=6, seed=11)
        assert api_sites == engine_sites

    def test_deterministic_for_seed(self):
        profile = api.profile(WORKLOAD)
        assert api.select_sites(profile, count=3, seed=5) == api.select_sites(
            profile, count=3, seed=5
        )
        assert api.select_sites(profile, count=3, seed=5) != api.select_sites(
            profile, count=3, seed=6
        )


class TestInject:
    def test_transient_injection_classifies(self):
        profile = api.profile(WORKLOAD)
        [site] = api.select_sites(profile, count=1, seed=3)
        result = api.inject(WORKLOAD, site)
        assert result.params == site
        assert result.outcome.outcome.value in ("Masked", "SDC", "DUE")
        assert result.artifacts.instructions_executed > 0

    def test_permanent_params_accepted(self):
        result = api.inject(WORKLOAD, PermanentParams(
            sm_id=0, lane_id=0, bit_mask=1, opcode_id=0,
        ))
        assert result.outcome is not None

    def test_unsupported_params_rejected(self):
        with pytest.raises(ReproError):
            api.inject(WORKLOAD, object())


class TestRunCampaign:
    def test_requires_workload_in_config(self):
        with pytest.raises(ReproError, match="workload"):
            api.run_campaign(CampaignConfig(num_transient=1))

    def test_parity_with_legacy_campaign(self, tmp_path):
        config = CampaignConfig(workload=WORKLOAD, num_transient=4, seed=2)

        api_store = CampaignStore(tmp_path / "api")
        api_result = api.run_campaign(config, store=api_store)

        # The engine run without a store; the study is saved afterwards in
        # one call.
        legacy = CampaignEngine(get_workload(WORKLOAD), config)
        legacy_result = legacy.run_transient()
        CampaignStore(tmp_path / "legacy").save_campaign(
            legacy.golden, legacy.profile, legacy_result
        )

        assert api_result.tally.counts == legacy_result.tally.counts
        api_csv = (tmp_path / "api" / "results.csv").read_bytes()
        legacy_csv = (tmp_path / "legacy" / "results.csv").read_bytes()
        assert api_csv == legacy_csv

    def test_permanent_kind(self):
        config = CampaignConfig(workload=WORKLOAD, seed=2)
        result = api.run_campaign(config, kind="permanent")
        assert len(result.results) > 0
        assert result.tally.total == pytest.approx(1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError, match="kind"):
            api.run_campaign(
                CampaignConfig(workload=WORKLOAD), kind="cosmic"
            )


class TestTopLevelExports:
    def test_facade_is_importable_from_package_root(self):
        assert repro.profile is api.profile
        assert repro.select_sites is api.select_sites
        assert repro.inject is api.inject
        assert repro.run_campaign is api.run_campaign
        for name in ("profile", "select_sites", "inject", "run_campaign"):
            assert name in repro.__all__


class TestCampaignKinds:
    def test_enum_and_string_kinds_are_equivalent(self):
        config = CampaignConfig(workload=WORKLOAD, num_transient=2, seed=7)
        by_enum = api.run_campaign(config, kind=repro.CampaignKind.TRANSIENT)
        by_string = api.run_campaign(config, kind="transient")
        assert by_enum.tally.counts == by_string.tally.counts
        assert [r.outcome for r in by_enum.results] == [
            r.outcome for r in by_string.results
        ]

    def test_coerce_names_the_valid_kinds(self):
        with pytest.raises(ReproError, match="expected one of"):
            repro.CampaignKind.coerce("cosmic")

    def test_intermittent_has_no_campaign_entry_point(self):
        with pytest.raises(ReproError, match="inject"):
            api.run_campaign(
                CampaignConfig(workload=WORKLOAD),
                kind=repro.CampaignKind.INTERMITTENT,
            )


class TestUnstampedProfiles:
    def test_select_sites_rejects_unstamped_profile(self):
        from dataclasses import replace

        from repro.errors import ParamError

        profile = api.profile(WORKLOAD)
        unstamped = replace(profile, workload="")
        with pytest.raises(ParamError, match="workload stamp"):
            api.select_sites(unstamped, count=2, seed=1)
