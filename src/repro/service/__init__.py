"""The campaign service: FaultDB, the shard scheduler and ``repro serve``.

Three layers turn the library into a long-running, multi-tenant campaign
service backed by one SQLite database:

* :mod:`repro.service.faultdb` — the :class:`FaultDB`: campaigns, injection
  sites, per-injection outcomes and work units in one WAL-mode SQLite file,
  with fault-fingerprint deduplication (one indexed query answers "has an
  identical fault already executed?") and a
  :class:`~repro.core.result_store.ResultStore` adapter so the campaign
  engine checkpoints straight into the database;
* :mod:`repro.service.scheduler` — turns a
  :class:`~repro.core.campaign.CampaignConfig` into shardable work units
  leased to N worker processes (heartbeat leases, requeue-on-death),
  reusing the engine's executor/retry/fast-forward machinery through
  ``plan_transient`` and ``run_batch``;
* :mod:`repro.service.server` — ``repro serve``: a stdlib-HTTP front end
  with submit/status/live-progress/results endpoints, supporting
  concurrent campaigns against one FaultDB.

See ``docs/service.md`` for the schema, endpoints and lease semantics.
"""

from repro.service.codec import (
    config_from_dict,
    config_to_dict,
    decode_overrides,
)
from repro.service.faultdb import FaultDB, FaultDBCampaignStore, fault_fingerprint
from repro.service.scheduler import CampaignScheduler, shard_units, worker_main
from repro.service.server import FaultService

__all__ = [
    "FaultDB",
    "FaultDBCampaignStore",
    "fault_fingerprint",
    "CampaignScheduler",
    "shard_units",
    "worker_main",
    "FaultService",
    "config_to_dict",
    "config_from_dict",
    "decode_overrides",
]
