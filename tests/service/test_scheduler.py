"""Scheduler: sharding, lease lifecycle, requeue-on-death, worker parity."""

from __future__ import annotations

import time

import pytest

from repro.service import CampaignScheduler, FaultDB, shard_units, worker_main
from repro.errors import ReproError

from tests.service.conftest import make_config


@pytest.fixture
def db(tmp_path):
    with FaultDB(tmp_path / "faults.sqlite") as handle:
        yield handle


# -- sharding ------------------------------------------------------------------


def test_shard_units_covers_every_index_once():
    units = shard_units(10, workers=3)
    flattened = [index for unit in units for index in unit]
    assert flattened == list(range(10))
    assert all(units)  # no empty units


def test_shard_units_gives_each_worker_several_units():
    units = shard_units(100, workers=2)
    assert len(units) >= 2 * 2  # several small units, not one big one each


def test_shard_units_empty_and_explicit_size():
    assert shard_units(0, workers=2) == []
    assert shard_units(5, workers=2, unit_size=2) == [[0, 1], [2, 3], [4]]


# -- leases --------------------------------------------------------------------


def test_lease_lifecycle(db):
    db.create_campaign("c", make_config())
    db.insert_units("c", [[0, 1], [2, 3]])

    lease = db.lease_unit("c", "w0", lease_seconds=30.0)
    assert lease == (0, [0, 1])
    assert db.heartbeat_unit("c", 0, "w0", lease_seconds=30.0)
    assert not db.all_units_done("c")

    other = db.lease_unit("c", "w1", lease_seconds=30.0)
    assert other == (1, [2, 3])
    assert db.lease_unit("c", "w2", lease_seconds=30.0) is None  # all leased

    db.complete_unit("c", 0, "w0")
    db.complete_unit("c", 1, "w1")
    assert db.all_units_done("c")
    assert db.unit_states("c") == {"done": 2}


def test_expired_lease_is_requeued_to_the_next_worker(db):
    db.create_campaign("c", make_config())
    db.insert_units("c", [[0, 1]])

    assert db.lease_unit("c", "doomed", lease_seconds=0.01) is not None
    time.sleep(0.05)
    assert db.has_runnable_unit("c")

    # The replacement claims the dead worker's unit; the original's
    # heartbeat (and completion) are rejected — it lost the lease.
    assert db.lease_unit("c", "heir", lease_seconds=30.0) == (0, [0, 1])
    assert not db.heartbeat_unit("c", 0, "doomed", lease_seconds=30.0)
    db.complete_unit("c", 0, "doomed")  # no-op: wrong worker
    assert not db.all_units_done("c")
    db.complete_unit("c", 0, "heir")
    assert db.all_units_done("c")


# -- workers -------------------------------------------------------------------


def test_worker_main_drains_every_unit(db, reference):
    _, reference_bytes = reference
    db.create_campaign("c", make_config())
    db.insert_units("c", [[0, 1], [2, 3]])
    worker_main(str(db.path), "c", "w0", lease_seconds=30.0)
    assert db.all_units_done("c")
    assert db.export_results_csv("c").encode() == reference_bytes


def test_scheduler_inline_path_when_workers_zero(db, reference):
    _, reference_bytes = reference
    db.create_campaign("c", make_config())
    CampaignScheduler(db, "c", workers=0).run()
    assert db.campaign_row("c")["state"] == "done"
    assert db.load_artifact("c", "results.csv") == reference_bytes


def test_scheduler_rejects_permanent_campaigns(db):
    db.create_campaign("c", make_config(), kind="permanent")
    with pytest.raises(ReproError, match="transient campaigns only"):
        CampaignScheduler(db, "c", workers=0).run()
    assert db.campaign_row("c")["state"] == "failed"


def test_scheduler_dedups_against_a_finished_campaign(db, reference):
    _, reference_bytes = reference
    db.create_campaign("first", make_config())
    CampaignScheduler(db, "first", workers=0).run()

    # An identical second campaign: every site's fingerprint already
    # executed, so the sharded path copies outcomes and runs nothing.
    db.create_campaign("second", make_config())
    CampaignScheduler(db, "second", workers=2).run()
    assert db.campaign_row("second")["state"] == "done"
    assert db.load_artifact("second", "results.csv") == reference_bytes
    assert db.unit_states("second") == {}  # nothing left to shard
    donors = {
        db.find_outcome(fp)["campaign_id"]
        for fp in db.site_fingerprints("second").values()
    }
    assert donors == {"first"}


def test_worker_abandons_unit_when_lease_is_lost(db, monkeypatch):
    """Regression: ``_heartbeat_loop`` noticed ``heartbeat_unit(...) ==
    False`` but only stopped renewing — the worker finished the whole unit
    as wasted duplicate work and even marked it done over the new lease
    holder's claim.  The loop must signal the worker to abandon the unit."""
    db.create_campaign("c", make_config())
    db.insert_units("c", [[0, 1, 2, 3]])

    real_heartbeat = FaultDB.heartbeat_unit
    beats = []

    def lost_first_beat(self, campaign_id, unit_id, worker, lease_seconds):
        beats.append(unit_id)
        if len(beats) == 1:
            # Simulate lease expiry mid-unit.  The lease is expired in the
            # database too, so the unit is runnable again however soon the
            # in-flight injection ends: an injection shorter than the lease
            # left it leased to w0, which then found nothing to lease.
            with self._lock:
                self._conn.execute(
                    "UPDATE units SET lease_expires = 0 "
                    "WHERE campaign_id = ? AND unit_id = ?",
                    (campaign_id, unit_id),
                )
            return False
        return real_heartbeat(self, campaign_id, unit_id, worker, lease_seconds)

    monkeypatch.setattr(FaultDB, "heartbeat_unit", lost_first_beat)
    # A tiny lease makes the first beat fire while the unit is mid-flight.
    worker_main(str(db.path), "c", "w0", lease_seconds=0.05)

    # The abandoned unit was NOT completed by w0; at least one beat fired,
    # the unit went back to runnable, and w0's second lease of the same
    # unit (attempts == 2) finished only the leftover injections.
    assert beats
    assert db.all_units_done("c")
    states = db.unit_states("c")
    assert states == {"done": 1}
    with db._lock:
        attempts = db._conn.execute(
            "SELECT attempts FROM units WHERE campaign_id = 'c'"
        ).fetchone()[0]
    assert attempts >= 2  # re-leased after the abandon, not finished on lease 1
    assert len(db.completed_injections("c")) == 4


@pytest.mark.slow
def test_two_worker_campaign_is_byte_identical(db, tmp_path):
    import repro
    from repro.core.store import CampaignStore

    db.create_campaign("c", make_config(num_transient=8))
    config = db.campaign_config("c")
    CampaignScheduler(db, "c", workers=2, lease_seconds=10.0).run()
    assert db.campaign_row("c")["state"] == "done"
    assert len(db.completed_injections("c")) == 8

    # Byte parity against the equivalent single-process run.
    root = tmp_path / "reference"
    repro.run_campaign(config, store=CampaignStore(root))
    assert db.load_artifact("c", "results.csv") == (
        root / "results.csv"
    ).read_bytes()
