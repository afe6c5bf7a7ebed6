"""FaultDB: round-trips, fingerprint dedup, concurrency, csv parity."""

from __future__ import annotations

import threading

import pytest

import repro
from repro.core.engine import CampaignEngine, ParallelExecutor
from repro.core.outcomes import Outcome, OutcomeRecord
from repro.core.params import PermanentParams
from repro.core.campaign import PermanentResult
from repro.core.result_store import ResultStore
from repro.core.store import CampaignStore
from repro.errors import ParamError, ReproError
from repro.service import FaultDB, config_from_dict, config_to_dict, decode_overrides
from repro.service.faultdb import fault_fingerprint

from tests.service.conftest import make_config


@pytest.fixture
def db(tmp_path):
    with FaultDB(tmp_path / "faults.sqlite") as handle:
        yield handle


def test_store_adapter_satisfies_result_store_protocol(db):
    db.create_campaign("c", make_config())
    assert isinstance(db.campaign_store("c"), ResultStore)
    assert isinstance(CampaignStore("unused"), ResultStore)


def test_unknown_campaign_rejected(db):
    with pytest.raises(ReproError, match="no campaign"):
        db.campaign_store("missing")


def test_transient_round_trip_is_lossless(db):
    db.create_campaign("c", make_config())
    result = repro.run_campaign(make_config(), store=db.campaign_store("c"))
    for index, item in enumerate(result.results):
        assert db.load_transient_outcome("c", index) == item
    assert db.completed_injections("c") == list(range(len(result.results)))


def test_permanent_round_trip_is_lossless(db):
    db.create_campaign("c", make_config())
    stored = PermanentResult(
        params=PermanentParams(sm_id=2, lane_id=7, bit_mask=0x10, opcode_id=3),
        opcode="FADD",
        weight=0.25,
        activations=12,
        outcome=OutcomeRecord(Outcome.SDC, "output corrupted", True),
        wall_time=0.5,
    )
    store = db.campaign_store("c")
    store.save_permanent_injection(0, stored)
    assert store.load_permanent_injection(0) == stored
    assert store.completed_permanent_injections() == [0]


def test_results_csv_export_matches_directory_store(db, reference):
    _, reference_bytes = reference
    db.create_campaign("c", make_config())
    repro.run_campaign(make_config(), store=db.campaign_store("c"))
    assert db.export_results_csv("c").encode() == reference_bytes
    assert db.load_artifact("c", "results.csv") == reference_bytes


def test_parallel_run_export_matches_directory_store(db, reference):
    _, reference_bytes = reference
    db.create_campaign("c", make_config())
    repro.run_campaign(
        make_config(),
        store=db.campaign_store("c"),
        executor=ParallelExecutor(max_workers=2),
    )
    assert db.export_results_csv("c").encode() == reference_bytes


def test_resumed_run_export_matches_directory_store(db, reference):
    result, reference_bytes = reference
    db.create_campaign("c", make_config())
    store = db.campaign_store("c")
    # Pre-checkpoint the first half, as an interrupted campaign would have.
    for index in range(2):
        store.save_injection(index, result.results[index])
    repro.run_campaign(make_config(), store=store)
    assert db.export_results_csv("c").encode() == reference_bytes


def test_fingerprint_dedup_is_one_indexed_query(db, reference):
    result, _ = reference
    config = make_config()
    db.create_campaign("c", config)
    fingerprint = fault_fingerprint(
        config.workload, "transient", result.results[0].params, config
    )
    assert not db.has_executed(fingerprint)
    db.save_transient_outcome("c", 0, result.results[0], config=config)
    assert db.has_executed(fingerprint)
    found = db.find_outcome(fingerprint)
    assert found is not None and found["campaign_id"] == "c"


def test_dedupe_campaign_copies_prior_outcomes(db, reference):
    _, reference_bytes = reference
    db.create_campaign("first", make_config())
    repro.run_campaign(make_config(), store=db.campaign_store("first"))

    db.create_campaign("second", make_config())
    config = make_config()
    engine = CampaignEngine(config.workload, config, store=db.campaign_store("second"))
    db.insert_sites("second", engine.plan_transient())
    copied = db.dedupe_campaign("second")

    assert copied == len(engine.plan_transient())  # identical campaign: all hits
    assert db.export_results_csv("second").encode() == reference_bytes
    donor = db.find_outcome(db.site_fingerprints("second")[0])
    assert donor["deduped_from"] == ""  # find_outcome prefers the original


def test_fingerprint_changes_with_outcome_determining_knobs(reference):
    result, _ = reference
    params = result.results[0].params
    base = make_config()
    assert fault_fingerprint("a", "transient", params, base) != fault_fingerprint(
        "b", "transient", params, base
    )
    assert fault_fingerprint(
        "a", "transient", params, base
    ) != fault_fingerprint("a", "permanent", params, base)
    bumped = base.with_overrides(hang_budget_factor=99)
    assert fault_fingerprint("a", "transient", params, base) != fault_fingerprint(
        "a", "transient", params, bumped
    )
    # Speed-only knobs are excluded: results.csv is byte-identical across
    # them, so they cannot change the outcome.
    faster = base.with_overrides(fast_forward=False)
    assert fault_fingerprint("a", "transient", params, base) == fault_fingerprint(
        "a", "transient", params, faster
    )


def test_cache_key_and_fingerprint_digests_are_pinned(tmp_path):
    """Cached tapes and stored FaultDB rows keep their digests: these
    values were computed by the release that wrote the sandbox fields out
    by hand in both places (``repro.__version__`` 1.0.0)."""
    import dataclasses

    from repro.core.snapshot import ReplayCache
    from repro.runner.sandbox import SandboxConfig

    assert repro.__version__ == "1.0.0"
    rich = SandboxConfig(
        seed=4, num_sms=2, instruction_budget=123456,
        global_mem_bytes=1 << 20, family="turing",
        extra_env={"X": "1", "A": "z"},
    )
    cache = ReplayCache(tmp_path)
    assert cache.key("370.bt", SandboxConfig()) == (
        "43243e801b9c55245bb4ae390f8a0434"
    )
    assert cache.key("303.ostencil", rich) == "58aeb6b2afe3e2d36d4b124397cb8cb5"
    site = CampaignEngine(
        "303.ostencil",
        repro.CampaignConfig(workload="303.ostencil", num_transient=2, seed=3),
    ).plan_transient()[0]
    plain = repro.CampaignConfig(workload="303.ostencil")
    assert fault_fingerprint("303.ostencil", "transient", site, plain) == (
        "6f69aa215b34dada16dcfeadfa4f7ad3a6193a8071f1a1bea11aeead29dd23f1"
    )
    custom = repro.CampaignConfig(
        workload="303.ostencil", hang_budget_factor=12, sandbox=rich
    )
    assert fault_fingerprint("303.ostencil", "transient", site, custom) == (
        "2a4ee8d78433a90f584baf6601bc4220fd8f0e7a2cfbc31113a62753f1cd8a53"
    )
    # block_compile only changes speed: neither digest sees it.
    stepped = dataclasses.replace(rich, block_compile=False)
    assert cache.key("303.ostencil", stepped) == cache.key("303.ostencil", rich)
    assert fault_fingerprint(
        "303.ostencil", "transient", site,
        dataclasses.replace(custom, sandbox=stepped),
    ) == fault_fingerprint("303.ostencil", "transient", site, custom)


def test_concurrent_writers_from_threads(db, reference):
    result, _ = reference
    config = make_config()
    campaign_ids = [f"c{n}" for n in range(4)]
    for campaign_id in campaign_ids:
        db.create_campaign(campaign_id, config)
    errors = []

    def write(campaign_id):
        try:
            for index, item in enumerate(result.results):
                db.save_transient_outcome(campaign_id, index, item, config=config)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [
        threading.Thread(target=write, args=(campaign_id,))
        for campaign_id in campaign_ids
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    for campaign_id in campaign_ids:
        assert db.completed_injections(campaign_id) == list(
            range(len(result.results))
        )


def test_concurrent_processes_share_one_database(db, tmp_path, reference):
    result, _ = reference
    import multiprocessing

    config = make_config()
    db.create_campaign("shared", config)
    db.save_transient_outcome("shared", 0, result.results[0], config=config)
    procs = [
        multiprocessing.Process(
            target=_process_writer, args=(str(db.path), "shared", 1 + n)
        )
        for n in range(2)
    ]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join()
        assert proc.exitcode == 0
    assert db.completed_injections("shared") == [0, 1, 2]


def _process_writer(db_path: str, campaign_id: str, index: int) -> None:
    with FaultDB(db_path) as db:
        donor = db.load_transient_outcome(campaign_id, 0)
        db.save_transient_outcome(campaign_id, index, donor)


def test_campaign_lifecycle_rows(db):
    db.create_campaign("c", make_config())
    row = db.campaign_row("c")
    assert row["state"] == "pending" and row["workload"] == "360.ilbdc"
    db.set_campaign_state("c", "failed", error="boom")
    row = db.campaign_row("c")
    assert (row["state"], row["error"]) == ("failed", "boom")
    assert [c["campaign_id"] for c in db.list_campaigns()] == ["c"]


def test_replay_cache_dir_is_db_adjacent(db):
    assert db.replay_cache_dir() == db.path.with_name(db.path.name + ".replay")


# -- lease clock vs wall-clock steps -------------------------------------------


def test_forward_ntp_step_does_not_mass_expire_live_leases(db, monkeypatch):
    """Regression: lease math used raw ``time.time()``, so a forward NTP
    step instantly expired every live lease and handed units to a second
    worker while the first was still running them."""
    import time as time_mod

    db.create_campaign("c", make_config())
    db.insert_units("c", [[0, 1]])
    assert db.lease_unit("c", "w0", lease_seconds=30.0) is not None

    real = time_mod.time()
    monkeypatch.setattr(time_mod, "time", lambda: real + 3600.0)
    assert db.heartbeat_unit("c", 0, "w0", lease_seconds=30.0)
    assert not db.has_runnable_unit("c")
    assert db.lease_unit("c", "thief", lease_seconds=30.0) is None


def test_backward_ntp_step_does_not_immortalize_dead_leases(db, monkeypatch):
    """The mirror image: a backward step used to push ``now`` behind every
    ``lease_expires``, so a dead worker's unit was never requeued."""
    import time as time_mod

    db.create_campaign("c", make_config())
    db.insert_units("c", [[0, 1]])
    assert db.lease_unit("c", "doomed", lease_seconds=0.01) is not None

    real = time_mod.time()
    monkeypatch.setattr(time_mod, "time", lambda: real - 3600.0)
    time_mod.sleep(0.05)  # the monotonic clock, not the wall clock, decides
    assert db.has_runnable_unit("c")
    assert db.lease_unit("c", "heir", lease_seconds=30.0) == (0, [0, 1])


# -- the config codec ----------------------------------------------------------


def test_codec_round_trips_default_and_rich_configs():
    from repro.core.adaptive import SamplingPlan, StoppingRule
    from repro.core.resilience import RetryPolicy
    from repro.runner.sandbox import SandboxConfig

    rich = repro.CampaignConfig(
        workload="360.ilbdc",
        num_transient=7,
        seed=9,
        hang_budget_factor=12,
        fast_forward=False,
        batch_launch=True,
        replay_cache="/tmp/replay-cache",
        sandbox=SandboxConfig(seed=4, num_sms=2, extra_env={"X": "1"}),
        retry=RetryPolicy(max_attempts=5, task_timeout=1.5, on_failure="raise"),
        stopping=StoppingRule(target_outcome=Outcome.DUE, half_width=0.02),
        sampling=SamplingPlan(mode="stratified", batch_size=10),
    )
    for config in (repro.CampaignConfig(workload="360.ilbdc"), rich):
        assert config_from_dict(config_to_dict(config)) == config


def test_codec_decodes_rows_with_retired_keys():
    """A row in the exact shape earlier releases wrote still decodes:
    ``snapshot: true`` means batch execution, and a campaign-level
    ``block_compile: false`` moves onto the sandbox."""
    row = {
        "workload": "360.ilbdc",
        "group": "G_GP",
        "model": "FLIP_SINGLE_BIT",
        "num_transient": 7,
        "seed": 9,
        "profiling": "exact",
        "hang_budget_factor": 10,
        "fast_forward": True,
        "tail_fast_forward": True,
        "snapshot": True,
        "batch_launch": False,
        "block_compile": False,
        "replay_cache": None,
        "sandbox": {
            "seed": 4,
            "instruction_budget": 20000000,
            "family": "volta",
            "num_sms": None,
            "global_mem_bytes": 67108864,
            "block_compile": True,
            "extra_env": {},
        },
        "retry": {
            "max_attempts": 3,
            "backoff_base": 0.05,
            "backoff_factor": 2.0,
            "backoff_max": 2.0,
            "jitter": 0.1,
            "seed": 0,
            "task_timeout": None,
            "on_failure": "quarantine",
        },
        "stopping": None,
        "sampling": None,
    }
    config = config_from_dict(row)
    assert config.batch_launch is True
    assert config.sandbox.block_compile is False
    assert config.sandbox.seed == 4
    assert "snapshot" not in config_to_dict(config)
    assert "block_compile" not in config_to_dict(config)
    # The defaults of both retired keys are simply dropped.
    row.update(snapshot=False, block_compile=True)
    config = config_from_dict(row)
    assert config.batch_launch is False
    assert config.sandbox.block_compile is True
    # A submission naming a retired key overrides the mapped field.
    assert decode_overrides({"snapshot": True}) == {"batch_launch": True}


def test_codec_rejects_unknown_keys_and_bad_values():
    with pytest.raises(ParamError, match="unknown campaign config key"):
        config_from_dict({"num_transiet": 5})
    with pytest.raises(ParamError, match="bad campaign config value"):
        config_from_dict({"group": "G_BOGUS"})


def test_decode_overrides_passes_only_submitted_keys():
    overrides = decode_overrides({"num_transient": 7, "seed": 0})
    assert overrides == {"num_transient": 7, "seed": 0}
    config = repro.CampaignConfig(workload="360.ilbdc").with_overrides(**overrides)
    assert (config.num_transient, config.workload) == (7, "360.ilbdc")
