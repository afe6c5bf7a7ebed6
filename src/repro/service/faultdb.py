"""The FaultDB: one SQLite database holding every campaign's fault data.

The directory-backed :class:`~repro.core.store.CampaignStore` persists one
campaign as a file tree; the FaultDB persists *many* campaigns in one
WAL-mode SQLite file so concurrent workers (threads in the ``repro serve``
process and separate worker processes alike) share it safely:

* ``campaigns`` — one row per submitted campaign: the full config (JSON,
  via :mod:`repro.service.codec`), kind, lifecycle state;
* ``sites`` — the planned injection sites of each campaign, each stamped
  with its *fault fingerprint* (:func:`fault_fingerprint`): a digest of
  everything that determines the run's outcome on the deterministic
  simulator.  Same fingerprint ⇒ same outcome, which is what makes
  cross-campaign deduplication sound;
* ``outcomes`` — one row per completed injection, losslessly round-
  tripping :class:`~repro.core.params.TransientParams`,
  :class:`~repro.core.injector.InjectionRecord` and
  :class:`~repro.core.outcomes.OutcomeRecord` through their canonical
  text forms.  "Has an identical fault already executed?" is one indexed
  query (:meth:`FaultDB.find_outcome`);
* ``artifacts`` — golden stdout/files, the profile and adaptive decision
  tapes as per-campaign blobs;
* ``units`` — the scheduler's leased work units (see
  :mod:`repro.service.scheduler`).

:meth:`FaultDB.campaign_store` adapts one campaign's slice of the database
to the :class:`~repro.core.result_store.ResultStore` protocol, so the
unchanged campaign engine checkpoints injections straight into SQLite.
:meth:`FaultDB.export_results_csv` renders the campaign's ``results.csv``
through the same :func:`~repro.core.result_store.render_results_csv` as
the directory store — byte-identical by construction, pinned by parity
tests.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sqlite3
import tempfile
import threading
import time
import weakref
from pathlib import Path

from repro.core.campaign import (
    CampaignConfig,
    PermanentResult,
    TransientCampaignResult,
    TransientResult,
)
from repro.core.injector import InjectionRecord
from repro.core.kinds import CampaignKind
from repro.core.outcomes import Outcome, OutcomeRecord
from repro.core.params import PermanentParams, TransientParams
from repro.core.profile_data import ProgramProfile
from repro.core.result_store import render_results_csv
from repro.errors import ReproError
from repro.runner.artifacts import RunArtifacts
from repro.service.codec import config_from_dict, config_to_dict

_SCHEMA = """
CREATE TABLE IF NOT EXISTS campaigns (
    campaign_id  TEXT PRIMARY KEY,
    workload     TEXT NOT NULL,
    kind         TEXT NOT NULL,
    config_json  TEXT NOT NULL,
    state        TEXT NOT NULL DEFAULT 'pending',
    error        TEXT NOT NULL DEFAULT '',
    created_at   REAL NOT NULL,
    updated_at   REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS sites (
    campaign_id  TEXT NOT NULL,
    idx          INTEGER NOT NULL,
    kind         TEXT NOT NULL,
    params_text  TEXT NOT NULL,
    fingerprint  TEXT NOT NULL,
    PRIMARY KEY (campaign_id, idx)
);
CREATE INDEX IF NOT EXISTS sites_by_fingerprint ON sites (fingerprint);
CREATE TABLE IF NOT EXISTS outcomes (
    campaign_id   TEXT NOT NULL,
    idx           INTEGER NOT NULL,
    kind          TEXT NOT NULL,
    fingerprint   TEXT NOT NULL,
    params_text   TEXT NOT NULL,
    record_text   TEXT NOT NULL,
    outcome       TEXT NOT NULL,
    symptom       TEXT NOT NULL,
    potential_due INTEGER NOT NULL,
    wall_time     REAL NOT NULL,
    instructions  INTEGER NOT NULL,
    extras_json   TEXT NOT NULL DEFAULT '{}',
    deduped_from  TEXT NOT NULL DEFAULT '',
    PRIMARY KEY (campaign_id, kind, idx)
);
CREATE INDEX IF NOT EXISTS outcomes_by_fingerprint ON outcomes (fingerprint);
CREATE TABLE IF NOT EXISTS artifacts (
    campaign_id TEXT NOT NULL,
    name        TEXT NOT NULL,
    payload     BLOB NOT NULL,
    PRIMARY KEY (campaign_id, name)
);
CREATE TABLE IF NOT EXISTS units (
    campaign_id   TEXT NOT NULL,
    unit_id       INTEGER NOT NULL,
    indices_json  TEXT NOT NULL,
    state         TEXT NOT NULL DEFAULT 'pending',
    worker        TEXT NOT NULL DEFAULT '',
    lease_expires REAL NOT NULL DEFAULT 0,
    attempts      INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (campaign_id, unit_id)
);
"""


def fault_fingerprint(
    workload: str,
    kind: CampaignKind | str,
    params,
    config: CampaignConfig,
) -> str:
    """The digest of everything that determines one injection's outcome.

    The simulator is deterministic, so two injections agreeing on
    workload, kind, the full parameter record and the sandbox/watchdog
    environment produce identical outcomes — the soundness condition for
    deduplication.  Fields that only affect speed (``fast_forward``,
    executor choice, retry backoff) are deliberately excluded:
    ``results.csv`` is byte-identical across them, so they cannot change
    the outcome.
    """
    parts = [
        workload,
        CampaignKind.coerce(kind).value,
        params.to_text(),
        str(config.hang_budget_factor),
        *config.sandbox.outcome_fields(),
    ]
    return hashlib.sha256("\x1f".join(parts).encode()).hexdigest()


class FaultDB:
    """One SQLite fault database, shared by every campaign and worker.

    Each process opens its own :class:`FaultDB` over the same path; within
    a process the single connection is serialized by a lock
    (``check_same_thread=False`` + :class:`threading.Lock`, the idiom WAL
    mode expects).  Cross-process writers coordinate through WAL and a
    generous ``busy_timeout``.

    **Lease clock.** Unit lease deadlines are epoch-valued but derived
    from :meth:`_now` — the wall clock sampled once at connection open
    plus the monotonic delta since — so an NTP step during a process's
    lifetime can neither mass-expire live leases nor immortalize dead
    ones.  Across processes (and hosts) the stored values compare as
    ordinary epoch timestamps; the protocol therefore assumes
    inter-worker clock skew is small relative to ``lease_seconds``
    (seconds of skew against the default 30 s lease), the standard
    assumption for lease-based coordination on NTP-disciplined fleets.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # Monotonic-safe lease clock anchor (see the class docstring).
        self._epoch_origin = time.time()
        self._mono_origin = time.monotonic()
        # Autocommit (isolation_level=None): transactions are explicit
        # (BEGIN IMMEDIATE in lease_unit and the batch inserts), never
        # implicitly opened by the driver — the implicit mode would leave a
        # transaction dangling across the lease's own BEGIN.
        self._conn = sqlite3.connect(
            str(self.path), check_same_thread=False, isolation_level=None
        )
        self._lock = threading.Lock()
        with self._lock:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA busy_timeout=30000")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.executescript(_SCHEMA)

    def _now(self) -> float:
        """Epoch-like seconds immune to wall-clock steps after open.

        All lease arithmetic (claim, heartbeat, expiry checks) goes
        through this, so a forward NTP step cannot mass-expire every live
        lease and a backward step cannot immortalize a dead worker's.
        """
        return self._epoch_origin + (time.monotonic() - self._mono_origin)

    def replay_cache_dir(self) -> Path:
        """The DB-adjacent persistent replay-cache directory.

        ``repro serve`` points every scheduler worker's engine here (via
        ``CampaignConfig.replay_cache``), so the first worker to record a
        workload's golden tape shares it with every other worker and
        tenant on this database.
        """
        return self.path.with_name(self.path.name + ".replay")

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "FaultDB":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- campaigns -------------------------------------------------------------

    def create_campaign(
        self,
        campaign_id: str,
        config: CampaignConfig,
        kind: CampaignKind | str = CampaignKind.TRANSIENT,
    ) -> None:
        if not config.workload:
            raise ReproError("a FaultDB campaign needs config.workload set")
        kind = CampaignKind.coerce(kind)
        now = time.time()
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT INTO campaigns (campaign_id, workload, kind, "
                "config_json, state, created_at, updated_at) "
                "VALUES (?, ?, ?, ?, 'pending', ?, ?)",
                (
                    campaign_id,
                    config.workload,
                    kind.value,
                    json.dumps(config_to_dict(config)),
                    now,
                    now,
                ),
            )

    def campaign_config(self, campaign_id: str) -> CampaignConfig:
        row = self._fetchone(
            "SELECT config_json FROM campaigns WHERE campaign_id = ?",
            (campaign_id,),
        )
        if row is None:
            raise ReproError(f"no campaign {campaign_id!r} in {self.path}")
        return config_from_dict(json.loads(row[0]))

    def campaign_row(self, campaign_id: str) -> dict:
        row = self._fetchone(
            "SELECT campaign_id, workload, kind, state, error, created_at, "
            "updated_at FROM campaigns WHERE campaign_id = ?",
            (campaign_id,),
        )
        if row is None:
            raise ReproError(f"no campaign {campaign_id!r} in {self.path}")
        keys = (
            "campaign_id", "workload", "kind", "state", "error",
            "created_at", "updated_at",
        )
        return dict(zip(keys, row))

    def list_campaigns(self) -> list[dict]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT campaign_id, workload, kind, state, error, "
                "created_at, updated_at FROM campaigns ORDER BY created_at"
            ).fetchall()
        keys = (
            "campaign_id", "workload", "kind", "state", "error",
            "created_at", "updated_at",
        )
        return [dict(zip(keys, row)) for row in rows]

    def set_campaign_state(
        self, campaign_id: str, state: str, error: str = ""
    ) -> None:
        with self._lock, self._conn:
            self._conn.execute(
                "UPDATE campaigns SET state = ?, error = ?, updated_at = ? "
                "WHERE campaign_id = ?",
                (state, error, time.time(), campaign_id),
            )

    # -- sites -----------------------------------------------------------------

    def insert_sites(
        self,
        campaign_id: str,
        sites,
        kind: CampaignKind | str = CampaignKind.TRANSIENT,
    ) -> None:
        """Record the campaign's planned sites with their fingerprints."""
        config = self.campaign_config(campaign_id)
        kind = CampaignKind.coerce(kind)
        rows = [
            (
                campaign_id,
                index,
                kind.value,
                site.to_text(),
                fault_fingerprint(config.workload, kind, site, config),
            )
            for index, site in enumerate(sites)
        ]
        with self._lock:
            try:
                self._conn.execute("BEGIN IMMEDIATE")
                self._conn.executemany(
                    "INSERT OR REPLACE INTO sites "
                    "(campaign_id, idx, kind, params_text, fingerprint) "
                    "VALUES (?, ?, ?, ?, ?)",
                    rows,
                )
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise

    def site_fingerprints(self, campaign_id: str) -> dict[int, str]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT idx, fingerprint FROM sites WHERE campaign_id = ?",
                (campaign_id,),
            ).fetchall()
        return dict(rows)

    # -- fingerprint dedup -----------------------------------------------------

    def has_executed(self, fingerprint: str) -> bool:
        """One indexed query: has an identical fault already run anywhere?"""
        return (
            self._fetchone(
                "SELECT 1 FROM outcomes WHERE fingerprint = ? LIMIT 1",
                (fingerprint,),
            )
            is not None
        )

    def find_outcome(self, fingerprint: str) -> dict | None:
        """The stored outcome of an identical fault, if any campaign ran one.

        Prefers an originally-executed row over a dedup copy, so provenance
        chains stay one hop deep.
        """
        row = self._fetchone(
            "SELECT campaign_id, idx, kind, fingerprint, params_text, "
            "record_text, outcome, symptom, potential_due, wall_time, "
            "instructions, extras_json, deduped_from FROM outcomes "
            "WHERE fingerprint = ? ORDER BY deduped_from != '' LIMIT 1",
            (fingerprint,),
        )
        return None if row is None else _outcome_row_dict(row)

    def dedupe_campaign(self, campaign_id: str) -> int:
        """Copy outcomes for sites whose fingerprint already executed.

        Run after :meth:`insert_sites` and before workers start: every site
        matching a stored outcome (from an earlier campaign, or a duplicate
        site earlier in this plan) gets a copied outcome row with
        ``deduped_from`` naming the donor, so workers skip it via the
        normal resume path.  The simulator is deterministic, so the copy
        is exactly what executing the site would have produced —
        ``results.csv`` parity is preserved.  Returns the number of
        injections skipped.
        """
        fingerprints = self.site_fingerprints(campaign_id)
        config = self.campaign_config(campaign_id)
        done = set(self.completed_injections(campaign_id))
        copied = 0
        for index in sorted(fingerprints):
            if index in done:
                continue
            donor = self.find_outcome(fingerprints[index])
            if donor is None:
                continue
            result = _transient_result_from_row(donor)
            self.save_transient_outcome(
                campaign_id,
                index,
                result,
                config=config,
                deduped_from=f"{donor['campaign_id']}/{donor['idx']}",
            )
            copied += 1
        return copied

    # -- outcomes --------------------------------------------------------------

    def save_transient_outcome(
        self,
        campaign_id: str,
        index: int,
        result: TransientResult,
        config: CampaignConfig | None = None,
        deduped_from: str = "",
    ) -> None:
        config = config or self.campaign_config(campaign_id)
        fingerprint = fault_fingerprint(
            config.workload or "", CampaignKind.TRANSIENT, result.params, config
        )
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO outcomes (campaign_id, idx, kind, "
                "fingerprint, params_text, record_text, outcome, symptom, "
                "potential_due, wall_time, instructions, extras_json, "
                "deduped_from) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    campaign_id,
                    index,
                    CampaignKind.TRANSIENT.value,
                    fingerprint,
                    result.params.to_text(),
                    result.record.to_text(),
                    result.outcome.outcome.value,
                    result.outcome.symptom,
                    int(result.outcome.potential_due),
                    result.wall_time,
                    result.instructions,
                    "{}",
                    deduped_from,
                ),
            )

    def load_transient_outcome(
        self, campaign_id: str, index: int
    ) -> TransientResult:
        row = self._fetchone(
            "SELECT campaign_id, idx, kind, fingerprint, params_text, "
            "record_text, outcome, symptom, potential_due, wall_time, "
            "instructions, extras_json, deduped_from FROM outcomes "
            "WHERE campaign_id = ? AND kind = ? AND idx = ?",
            (campaign_id, CampaignKind.TRANSIENT.value, index),
        )
        if row is None:
            raise ReproError(
                f"injection {index} of campaign {campaign_id!r} not in "
                f"{self.path}"
            )
        return _transient_result_from_row(_outcome_row_dict(row))

    def completed_injections(self, campaign_id: str) -> list[int]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT idx FROM outcomes WHERE campaign_id = ? AND kind = ? "
                "ORDER BY idx",
                (campaign_id, CampaignKind.TRANSIENT.value),
            ).fetchall()
        return [row[0] for row in rows]

    def save_permanent_outcome(
        self, campaign_id: str, index: int, result: PermanentResult
    ) -> None:
        config = self.campaign_config(campaign_id)
        fingerprint = fault_fingerprint(
            config.workload or "", CampaignKind.PERMANENT, result.params, config
        )
        extras = json.dumps(
            {
                "opcode": result.opcode,
                "weight": result.weight,
                "activations": result.activations,
            }
        )
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO outcomes (campaign_id, idx, kind, "
                "fingerprint, params_text, record_text, outcome, symptom, "
                "potential_due, wall_time, instructions, extras_json, "
                "deduped_from) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    campaign_id,
                    index,
                    CampaignKind.PERMANENT.value,
                    fingerprint,
                    result.params.to_text(),
                    "",
                    result.outcome.outcome.value,
                    result.outcome.symptom,
                    int(result.outcome.potential_due),
                    result.wall_time,
                    0,
                    extras,
                    "",
                ),
            )

    def load_permanent_outcome(
        self, campaign_id: str, index: int
    ) -> PermanentResult:
        row = self._fetchone(
            "SELECT campaign_id, idx, kind, fingerprint, params_text, "
            "record_text, outcome, symptom, potential_due, wall_time, "
            "instructions, extras_json, deduped_from FROM outcomes "
            "WHERE campaign_id = ? AND kind = ? AND idx = ?",
            (campaign_id, CampaignKind.PERMANENT.value, index),
        )
        if row is None:
            raise ReproError(
                f"permanent injection {index} of campaign {campaign_id!r} "
                f"not in {self.path}"
            )
        data = _outcome_row_dict(row)
        extras = json.loads(data["extras_json"])
        return PermanentResult(
            params=PermanentParams.from_text(data["params_text"]),
            opcode=extras.get("opcode", ""),
            weight=float(extras.get("weight", 1.0)),
            activations=int(extras.get("activations", 0)),
            outcome=_outcome_record_from_row(data),
            wall_time=data["wall_time"],
        )

    def completed_permanent_injections(self, campaign_id: str) -> list[int]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT idx FROM outcomes WHERE campaign_id = ? AND kind = ? "
                "ORDER BY idx",
                (campaign_id, CampaignKind.PERMANENT.value),
            ).fetchall()
        return [row[0] for row in rows]

    # -- artifacts -------------------------------------------------------------

    def save_artifact(
        self, campaign_id: str, name: str, payload: bytes
    ) -> None:
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT OR REPLACE INTO artifacts (campaign_id, name, payload) "
                "VALUES (?, ?, ?)",
                (campaign_id, name, payload),
            )

    def load_artifact(self, campaign_id: str, name: str) -> bytes | None:
        row = self._fetchone(
            "SELECT payload FROM artifacts WHERE campaign_id = ? AND name = ?",
            (campaign_id, name),
        )
        return None if row is None else row[0]

    def list_artifacts(self, campaign_id: str, prefix: str = "") -> list[str]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT name FROM artifacts WHERE campaign_id = ? "
                "AND name LIKE ? ORDER BY name",
                (campaign_id, prefix + "%"),
            ).fetchall()
        return [row[0] for row in rows]

    # -- results export --------------------------------------------------------

    def export_results_csv(self, campaign_id: str) -> str:
        """The campaign's ``results.csv``, rendered from the database.

        Rows are rebuilt losslessly from the ``outcomes`` table and passed
        through the same :func:`~repro.core.result_store.render_results_csv`
        as :class:`~repro.core.store.CampaignStore` — the export is
        byte-identical to what an equivalent directory-backed campaign
        wrote.
        """
        results = [
            (index, self.load_transient_outcome(campaign_id, index))
            for index in self.completed_injections(campaign_id)
        ]
        return render_results_csv(results)

    # -- work units (leases; see repro.service.scheduler) ----------------------

    def insert_units(
        self, campaign_id: str, units: list[list[int]]
    ) -> None:
        rows = [
            (campaign_id, unit_id, json.dumps(indices))
            for unit_id, indices in enumerate(units)
        ]
        with self._lock:
            try:
                self._conn.execute("BEGIN IMMEDIATE")
                self._conn.executemany(
                    "INSERT OR REPLACE INTO units (campaign_id, unit_id, "
                    "indices_json, state) VALUES (?, ?, ?, 'pending')",
                    rows,
                )
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise

    def lease_unit(
        self, campaign_id: str, worker: str, lease_seconds: float
    ) -> tuple[int, list[int]] | None:
        """Atomically claim one runnable unit (pending, or expired lease).

        ``BEGIN IMMEDIATE`` takes the write lock up front so two workers
        racing for the same unit serialize; the loser sees it leased and
        picks the next one.  Returns ``(unit_id, indices)`` or ``None``
        when nothing is currently runnable (all done or leased-and-alive).
        """
        now = self._now()
        with self._lock:
            try:
                self._conn.execute("BEGIN IMMEDIATE")
                row = self._conn.execute(
                    "SELECT unit_id, indices_json FROM units "
                    "WHERE campaign_id = ? AND (state = 'pending' OR "
                    "(state = 'leased' AND lease_expires < ?)) "
                    "ORDER BY unit_id LIMIT 1",
                    (campaign_id, now),
                ).fetchone()
                if row is None:
                    self._conn.execute("ROLLBACK")
                    return None
                unit_id, indices_json = row
                self._conn.execute(
                    "UPDATE units SET state = 'leased', worker = ?, "
                    "lease_expires = ?, attempts = attempts + 1 "
                    "WHERE campaign_id = ? AND unit_id = ?",
                    (worker, now + lease_seconds, campaign_id, unit_id),
                )
                self._conn.execute("COMMIT")
            except BaseException:
                self._conn.execute("ROLLBACK")
                raise
        return unit_id, json.loads(indices_json)

    def heartbeat_unit(
        self,
        campaign_id: str,
        unit_id: int,
        worker: str,
        lease_seconds: float,
    ) -> bool:
        """Extend a live lease; returns False if the lease was lost."""
        with self._lock, self._conn:
            cursor = self._conn.execute(
                "UPDATE units SET lease_expires = ? WHERE campaign_id = ? "
                "AND unit_id = ? AND worker = ? AND state = 'leased'",
                (self._now() + lease_seconds, campaign_id, unit_id, worker),
            )
            return cursor.rowcount == 1

    def complete_unit(
        self, campaign_id: str, unit_id: int, worker: str
    ) -> None:
        with self._lock, self._conn:
            self._conn.execute(
                "UPDATE units SET state = 'done' WHERE campaign_id = ? "
                "AND unit_id = ? AND worker = ?",
                (campaign_id, unit_id, worker),
            )

    def unit_states(self, campaign_id: str) -> dict[str, int]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT state, COUNT(*) FROM units WHERE campaign_id = ? "
                "GROUP BY state",
                (campaign_id,),
            ).fetchall()
        return dict(rows)

    def has_runnable_unit(self, campaign_id: str) -> bool:
        """Any unit currently claimable (pending, or lease expired)?"""
        return (
            self._fetchone(
                "SELECT 1 FROM units WHERE campaign_id = ? AND "
                "(state = 'pending' OR (state = 'leased' AND "
                "lease_expires < ?)) LIMIT 1",
                (campaign_id, self._now()),
            )
            is not None
        )

    def all_units_done(self, campaign_id: str) -> bool:
        return (
            self._fetchone(
                "SELECT 1 FROM units WHERE campaign_id = ? AND state != 'done' "
                "LIMIT 1",
                (campaign_id,),
            )
            is None
        )

    # -- the engine-facing store adapter ---------------------------------------

    def campaign_store(self, campaign_id: str) -> "FaultDBCampaignStore":
        """One campaign's slice of the database, as a ``ResultStore``."""
        self.campaign_row(campaign_id)  # raises for unknown campaigns
        return FaultDBCampaignStore(self, campaign_id)

    # -- plumbing --------------------------------------------------------------

    def _fetchone(self, sql: str, args: tuple) -> tuple | None:
        with self._lock:
            return self._conn.execute(sql, args).fetchone()


def _outcome_row_dict(row: tuple) -> dict:
    keys = (
        "campaign_id", "idx", "kind", "fingerprint", "params_text",
        "record_text", "outcome", "symptom", "potential_due", "wall_time",
        "instructions", "extras_json", "deduped_from",
    )
    return dict(zip(keys, row))


def _outcome_record_from_row(data: dict) -> OutcomeRecord:
    return OutcomeRecord(
        outcome=Outcome(data["outcome"]),
        symptom=data["symptom"],
        potential_due=bool(data["potential_due"]),
    )


def _transient_result_from_row(data: dict) -> TransientResult:
    return TransientResult(
        params=TransientParams.from_text(data["params_text"]),
        record=InjectionRecord.from_text(data["record_text"]),
        outcome=_outcome_record_from_row(data),
        wall_time=data["wall_time"],
        instructions=data["instructions"],
    )


class FaultDBCampaignStore:
    """One campaign's view of a :class:`FaultDB`, engine-compatible.

    Implements the :class:`~repro.core.result_store.ResultStore` protocol,
    so ``CampaignEngine`` (and :func:`repro.api.run_campaign` via
    ``store=``) checkpoints injections into SQLite with no engine changes.
    The golden run's fast-forward tape still needs a real filesystem path
    (workers ``mmap`` it by name), so :meth:`replay_path` hands out a
    per-store-instance temp file — each worker process records its own
    deterministic copy, which also keeps concurrent workers from racing on
    one file.
    """

    def __init__(self, db: FaultDB, campaign_id: str) -> None:
        self.db = db
        self.campaign_id = campaign_id
        self._config = db.campaign_config(campaign_id)
        self._replay_dir: str | None = None

    # -- golden + profile -----------------------------------------------------

    def save_golden(self, golden: RunArtifacts) -> None:
        self.db.save_artifact(
            self.campaign_id, "golden/stdout", golden.stdout.encode()
        )
        for name, payload in golden.files.items():
            self.db.save_artifact(
                self.campaign_id, f"golden/files/{name}", payload
            )

    def load_golden(self) -> RunArtifacts:
        stdout = self.db.load_artifact(self.campaign_id, "golden/stdout")
        if stdout is None:
            raise ReproError(
                f"no golden run stored for campaign {self.campaign_id!r}"
            )
        prefix = "golden/files/"
        files = {
            name[len(prefix):]: self.db.load_artifact(self.campaign_id, name)
            for name in self.db.list_artifacts(self.campaign_id, prefix)
        }
        return RunArtifacts(stdout=stdout.decode(), files=files)

    def save_profile(self, profile: ProgramProfile) -> None:
        self.db.save_artifact(
            self.campaign_id, "profile", profile.to_text().encode()
        )

    def load_profile(self) -> ProgramProfile:
        payload = self.db.load_artifact(self.campaign_id, "profile")
        if payload is None:
            raise ReproError(
                f"no profile stored for campaign {self.campaign_id!r}"
            )
        return ProgramProfile.from_text(payload.decode())

    def replay_path(self) -> Path:
        if self._replay_dir is None:
            self._replay_dir = tempfile.mkdtemp(prefix="repro-faultdb-replay-")
            weakref.finalize(
                self, shutil.rmtree, self._replay_dir, ignore_errors=True
            )
        return Path(self._replay_dir) / "replay.bin"

    # -- adaptive decision tape ------------------------------------------------

    def save_adaptive_state(self, state: dict) -> None:
        self.db.save_artifact(
            self.campaign_id, "adaptive", json.dumps(state).encode()
        )

    def load_adaptive_state(self) -> dict | None:
        payload = self.db.load_artifact(self.campaign_id, "adaptive")
        return None if payload is None else json.loads(payload.decode())

    # -- transient injections --------------------------------------------------

    def save_injection(self, index: int, result: TransientResult) -> None:
        self.db.save_transient_outcome(
            self.campaign_id, index, result, config=self._config
        )

    def load_injection(self, index: int) -> TransientResult:
        return self.db.load_transient_outcome(self.campaign_id, index)

    def completed_injections(self) -> list[int]:
        return self.db.completed_injections(self.campaign_id)

    # -- permanent injections --------------------------------------------------

    def save_permanent_injection(
        self, index: int, result: PermanentResult
    ) -> None:
        self.db.save_permanent_outcome(self.campaign_id, index, result)

    def load_permanent_injection(self, index: int) -> PermanentResult:
        return self.db.load_permanent_outcome(self.campaign_id, index)

    def completed_permanent_injections(self) -> list[int]:
        return self.db.completed_permanent_injections(self.campaign_id)

    # -- aggregate results -----------------------------------------------------

    def save_results_csv(self, result: TransientCampaignResult) -> None:
        self.db.save_artifact(
            self.campaign_id,
            "results.csv",
            render_results_csv(enumerate(result.results)).encode(),
        )

    def save_partial_results_csv(
        self, by_index: dict[int, TransientResult]
    ) -> None:
        self.db.save_artifact(
            self.campaign_id,
            "results.csv",
            render_results_csv(sorted(by_index.items())).encode(),
        )
