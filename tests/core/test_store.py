"""Campaign-store tests: the on-disk study layout."""

import pytest

import repro
from repro.core.campaign import CampaignConfig
from repro.core.engine import CampaignEngine
from repro.core.outcomes import Outcome
from repro.core.store import CampaignStore
from repro.errors import ReproError
from repro.obs import MetricsRegistry
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def campaign_result():
    campaign = CampaignEngine(get_workload("314.omriq"),
                              CampaignConfig(num_transient=5, seed=3))
    result = campaign.run_transient()
    return campaign, result


class TestRoundTrips:
    def test_golden_roundtrip(self, tmp_path, campaign_result):
        campaign, _ = campaign_result
        store = CampaignStore(tmp_path)
        store.save_golden(campaign.golden)
        loaded = store.load_golden()
        assert loaded.stdout == campaign.golden.stdout
        assert loaded.files == campaign.golden.files

    def test_profile_roundtrip(self, tmp_path, campaign_result):
        campaign, _ = campaign_result
        store = CampaignStore(tmp_path)
        store.save_profile(campaign.profile)
        loaded = store.load_profile()
        assert loaded.total_count() == campaign.profile.total_count()
        assert loaded.num_dynamic_kernels == campaign.profile.num_dynamic_kernels

    def test_injection_roundtrip(self, tmp_path, campaign_result):
        _, result = campaign_result
        store = CampaignStore(tmp_path)
        store.save_injection(0, result.results[0])
        loaded = store.load_injection(0)
        assert loaded.params == result.results[0].params
        assert loaded.outcome.outcome == result.results[0].outcome.outcome
        assert loaded.outcome.symptom == result.results[0].outcome.symptom
        assert loaded.wall_time == pytest.approx(result.results[0].wall_time)
        assert loaded.instructions == result.results[0].instructions

    def test_record_roundtrip_is_lossless(self, tmp_path, campaign_result):
        """Every InjectionRecord field survives the disk round trip (the old
        store reconstructed records from a string prefix check)."""
        _, result = campaign_result
        store = CampaignStore(tmp_path)
        for index, item in enumerate(result.results):
            store.save_injection(index, item)
            assert store.load_injection(index).record == item.record

    def test_legacy_describe_only_record_still_loads(self, tmp_path, campaign_result):
        _, result = campaign_result
        store = CampaignStore(tmp_path)
        store.save_injection(0, result.results[0])
        run_dir = tmp_path / "injections" / "run_00000"
        (run_dir / "record.txt").write_text(
            result.results[0].record.describe() + "\n"
        )
        loaded = store.load_injection(0)
        assert loaded.record.injected == result.results[0].record.injected

    def test_full_campaign_roundtrip(self, tmp_path, campaign_result):
        campaign, result = campaign_result
        store = CampaignStore(tmp_path / "study")
        store.save_campaign(campaign.golden, campaign.profile, result)
        assert store.completed_injections() == list(range(5))
        tally = store.load_tally()
        for outcome in Outcome:
            assert tally.fraction(outcome) == result.tally.fraction(outcome)

    def test_results_csv(self, tmp_path, campaign_result):
        campaign, result = campaign_result
        store = CampaignStore(tmp_path)
        store.save_results_csv(result)
        csv_text = (tmp_path / "results.csv").read_text()
        assert csv_text.count("\n") == 6  # header + 5 rows
        assert "computeQ" in csv_text or "computePhiMag" in csv_text


class TestResume:
    @staticmethod
    def _run(store, seed=21):
        return repro.run_campaign(
            CampaignConfig(workload="314.omriq", num_transient=4, seed=seed),
            store=store,
        )

    def test_fresh_run_populates_store(self, tmp_path):
        store = CampaignStore(tmp_path)
        result = self._run(store)
        assert len(result.results) == 4
        assert store.completed_injections() == [0, 1, 2, 3]

    def test_resume_skips_completed_and_matches(self, tmp_path):
        store = CampaignStore(tmp_path)
        first = self._run(store)

        # Simulate an interruption: drop the last two runs from disk.
        import shutil

        for index in (2, 3):
            shutil.rmtree(tmp_path / "injections" / f"run_{index:05d}")
        assert store.completed_injections() == [0, 1]

        second = self._run(store)
        assert store.completed_injections() == [0, 1, 2, 3]
        assert [r.outcome.outcome for r in second.results] == [
            r.outcome.outcome for r in first.results
        ]

    def test_mismatched_store_rejected(self, tmp_path):
        store = CampaignStore(tmp_path)
        self._run(store)
        with pytest.raises(ReproError, match="different"):
            self._run(store, seed=999)


class TestErrors:
    def test_missing_golden(self, tmp_path):
        with pytest.raises(ReproError, match="no golden"):
            CampaignStore(tmp_path).load_golden()

    def test_missing_profile(self, tmp_path):
        with pytest.raises(ReproError, match="no profile"):
            CampaignStore(tmp_path).load_profile()

    def test_missing_injection(self, tmp_path):
        with pytest.raises(ReproError, match="not stored"):
            CampaignStore(tmp_path).load_injection(7)

    def test_empty_store_has_no_completed(self, tmp_path):
        assert CampaignStore(tmp_path).completed_injections() == []

    def test_stray_entries_skipped_with_warning(self, tmp_path, campaign_result):
        """A stray file or oddly-named directory under ``injections/`` used
        to crash ``completed_injections`` with ValueError."""
        _, result = campaign_result
        store = CampaignStore(tmp_path)
        store.save_injection(0, result.results[0])
        store.save_injection(2, result.results[1])
        injections = tmp_path / "injections"
        (injections / "notes.txt").write_text("scratch")
        (injections / "run_latest").mkdir()
        (injections / "backup").mkdir()
        with pytest.warns(UserWarning, match="unrecognised"):
            assert store.completed_injections() == [0, 2]

    def test_stray_temp_file_is_not_a_golden_output(self, tmp_path,
                                                    campaign_result):
        """A writer killed before its rename leaves its temporary file;
        loading the golden run must not take it for an output file."""
        campaign, _ = campaign_result
        store = CampaignStore(tmp_path)
        store.save_golden(campaign.golden)
        files = tmp_path / "golden" / "files"
        (files / "out.bin.tmp.4242.139872").write_bytes(b"torn")
        assert store.load_golden().files == campaign.golden.files

    def test_incomplete_run_dir_not_listed(self, tmp_path, campaign_result):
        _, result = campaign_result
        store = CampaignStore(tmp_path)
        store.save_injection(0, result.results[0])
        (tmp_path / "injections" / "run_00001").mkdir()  # no outcome.txt yet
        assert store.completed_injections() == [0]


def _stored_bytes(root) -> dict:
    """Every file of a study, its ``wall_time`` (host seconds) masked."""
    files = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            lines = path.read_bytes().splitlines(keepends=True)
            files[str(path.relative_to(root))] = b"".join(
                b"wall_time=X\n" if line.startswith(b"wall_time=") else line
                for line in lines
            )
    return files


def _damage(marker, damage: str) -> None:
    """Drop the last line of a run's ``outcome.txt``, or every line."""
    if damage == "truncated":
        lines = marker.read_text().splitlines(keepends=True)
        marker.write_text("".join(lines[:-1]))
    else:
        marker.write_text("")


class TestDamagedMarker:
    """A run whose ``outcome.txt`` is damaged runs again on resume, and the
    study ends with the uninterrupted campaign's bytes."""

    @pytest.mark.parametrize("damage", ["truncated", "empty"])
    def test_transient_run_runs_again(self, tmp_path, damage):
        config = CampaignConfig(workload="314.omriq", num_transient=4, seed=3)
        repro.run_campaign(config, store=CampaignStore(tmp_path / "whole"))
        store = CampaignStore(tmp_path / "damaged")
        repro.run_campaign(config, store=store)
        _damage(store.root / "injections" / "run_00001" / "outcome.txt", damage)
        with pytest.warns(UserWarning, match="incomplete"):
            assert store.completed_injections() == [0, 2, 3]

        registry = MetricsRegistry()
        with pytest.warns(UserWarning, match="incomplete"):
            repro.run_campaign(config, store=store, metrics=registry)
        values = registry.counter_values()
        assert (values["engine.injections.loaded"],
                values["engine.injections.done"]) == (3, 1)
        assert _stored_bytes(store.root) == _stored_bytes(tmp_path / "whole")

    @pytest.mark.parametrize("damage", ["truncated", "empty"])
    def test_permanent_run_runs_again(self, tmp_path, damage):
        def run(store, registry=None):
            engine = CampaignEngine(
                "314.omriq", CampaignConfig(seed=7), store=store,
                metrics=registry,
            )
            return engine.run_permanent(engine.select_permanent()[:3])

        whole = run(CampaignStore(tmp_path / "whole"))
        store = CampaignStore(tmp_path / "damaged")
        run(store)
        _damage(store.root / "permanent" / "run_00001" / "outcome.txt", damage)
        with pytest.warns(UserWarning, match="incomplete"):
            assert store.completed_permanent_injections() == [0, 2]

        registry = MetricsRegistry()
        with pytest.warns(UserWarning, match="incomplete"):
            resumed = run(store, registry)
        values = registry.counter_values()
        assert (values["engine.injections.loaded"],
                values["engine.injections.done"]) == (2, 1)
        rows = [
            [(r.opcode, r.outcome, r.weight, r.activations) for r in c.results]
            for c in (whole, resumed)
        ]
        assert rows[0] == rows[1]
        assert _stored_bytes(store.root) == _stored_bytes(tmp_path / "whole")
