"""Fork-at-checkpoint execution + persistent replay cache.

The contract under test is the usual one: *results are byte-identical,
only wall-clock changes*.  The fork suite below predates the batch
executor — it was written for the removed snapshot executor, which forked
one child per fault at the target launch boundary — and now runs on
:class:`~repro.core.batch_injector.BatchExecutor`, the one fork executor:
fork children must reproduce the serial campaign bit for bit, including
the quarantine/retry paths, where a child dying at the injection point
must charge the same attempt counts and synthesize the same DUE rows as a
serial task raising.  Configs stored with the retired ``snapshot`` key
must still select fork execution.  The persistent
:class:`~repro.core.snapshot.ReplayCache` must likewise never change
artifacts: a hit only swaps simulated golden launches for replayed ones.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

import repro
from repro.core.batch_injector import BatchExecutor
from repro.core.campaign import CampaignConfig
from repro.core.engine import CampaignEngine, SerialExecutor, choose_executor
from repro.core.resilience import HARNESS_FAILURE_SYMPTOM, RetryPolicy
from repro.core.snapshot import ReplayCache, default_cache_root
from repro.core.store import CampaignStore
from repro.obs import MetricsRegistry
from repro.runner.sandbox import SandboxConfig
from repro.workloads.omriq import OMriq
from repro.workloads.registry import WORKLOADS

_WORKLOAD = "303.ostencil"  # multi-kernel, small: 21 golden launches
_N = 10
_SEED = 3

# Fast-but-real backoff (jitter off so retry schedules are deterministic).
_FAST_RETRY = dict(backoff_base=0.001, backoff_factor=1.0, backoff_max=0.01,
                   jitter=0.0)


def _config(**overrides) -> CampaignConfig:
    return CampaignConfig(
        workload=_WORKLOAD, num_transient=_N, seed=_SEED
    ).with_overrides(**overrides)


def _stored_snapshot_config() -> CampaignConfig:
    """A config as a FaultDB row written before ``snapshot`` was retired."""
    from repro.service.codec import config_from_dict, config_to_dict

    row = config_to_dict(_config())
    row["snapshot"] = True
    return config_from_dict(row)


def _campaign_csv(tmp_path, label, executor=None, config=None,
                  registry=None) -> bytes:
    store = CampaignStore(tmp_path / label)
    repro.run_campaign(
        config or _config(), executor=executor, store=store, metrics=registry
    )
    return (tmp_path / label / "results.csv").read_bytes()


@pytest.fixture(scope="module")
def serial_csv(tmp_path_factory) -> bytes:
    tmp = tmp_path_factory.mktemp("snapshot-serial-reference")
    store = CampaignStore(tmp / "serial")
    repro.run_campaign(_config(), executor=SerialExecutor(), store=store)
    return (tmp / "serial" / "results.csv").read_bytes()


class TestForkParity:
    def test_supported_on_posix(self):
        executor = choose_executor(_config(batch_launch=True), workers=2)
        assert isinstance(executor, BatchExecutor)

    def test_snapshot_matches_serial_byte_for_byte(self, tmp_path, serial_csv):
        registry = MetricsRegistry()
        csv = _campaign_csv(
            tmp_path, "snap", executor=BatchExecutor(), registry=registry
        )
        assert csv == serial_csv
        # Every transient injection must have been serviced by a fork
        # child, not a silent per-task fallback.
        assert registry.counter_values()["engine.snapshot.forks"] == _N

    def test_sharded_snapshot_matches_serial(self, tmp_path, serial_csv):
        csv = _campaign_csv(
            tmp_path, "snap2", executor=BatchExecutor(max_workers=2)
        )
        assert csv == serial_csv

    def test_config_knob_selects_snapshot_executor(self, tmp_path, serial_csv):
        registry = MetricsRegistry()
        csv = _campaign_csv(
            tmp_path, "knob", config=_stored_snapshot_config(),
            registry=registry,
        )
        assert csv == serial_csv
        assert registry.counter_values()["engine.snapshot.forks"] == _N

    def test_resumed_snapshot_campaign_matches_serial(self, tmp_path,
                                                      serial_csv):
        store = CampaignStore(tmp_path / "resumed")
        engine = CampaignEngine(
            _WORKLOAD, _config(), executor=BatchExecutor(), store=store
        )
        engine.plan_transient()
        engine.run_batch([0, 1, 2])
        # Resume in a fresh engine: the three checkpointed runs are loaded,
        # the remaining seven go through the fork path.
        repro.run_campaign(_config(), executor=BatchExecutor(), store=store)
        assert (tmp_path / "resumed" / "results.csv").read_bytes() == serial_csv

    def test_fast_forward_off_falls_back_per_task(self, tmp_path, serial_csv):
        """No tape → no groups; every task runs solo yet results match."""
        registry = MetricsRegistry()
        csv = _campaign_csv(
            tmp_path,
            "noff",
            executor=BatchExecutor(),
            config=_config(fast_forward=False, tail_fast_forward=False),
            registry=registry,
        )
        assert csv == serial_csv
        assert "engine.snapshot.forks" not in registry.counter_values()


class TestNonPosixFallback:
    def test_delegates_to_serial_executor(self, tmp_path, serial_csv,
                                          monkeypatch):
        import os

        monkeypatch.delattr(os, "fork")
        csv = _campaign_csv(tmp_path, "nofork", executor=BatchExecutor())
        assert csv == serial_csv

    def test_engine_default_executor_degrades_to_serial(self, monkeypatch):
        import os

        monkeypatch.delattr(os, "fork")
        engine = CampaignEngine(_WORKLOAD, _stored_snapshot_config())
        assert isinstance(engine.executor, SerialExecutor)


class TestRunBatchStop:
    def test_preset_stop_runs_nothing(self):
        engine = CampaignEngine(_WORKLOAD, _config())
        engine.plan_transient()
        stop = threading.Event()
        stop.set()
        assert engine.run_batch([0, 1, 2], stop=stop) == {}

    def test_stop_mid_batch_keeps_completed_results(self):
        from repro.core.engine import EngineHooks

        stop = threading.Event()

        class StopAfterFirst(EngineHooks):
            def on_injection(self, index, outcome, completed, total, tally):
                stop.set()

        engine = CampaignEngine(_WORKLOAD, _config(), hooks=StopAfterFirst())
        engine.plan_transient()
        results = engine.run_batch([0, 1, 2, 3], stop=stop)
        assert len(results) == 1  # the in-flight run lands, no new one starts


# -- quarantine / retry parity -------------------------------------------------


class SnapChaosOMriq(OMriq):
    """OMriq variant that raises whenever the fault corrupts the output.

    The failure is a deterministic function of the injected fault (seed 7
    corrupts exactly 2 of 12 outputs for this workload name — the site RNG
    stream is keyed by it), so serial and forked campaigns fail — and
    quarantine — exactly the same tasks.
    """

    name = "999.snapchaos"
    description = "OMriq variant that fails the harness on corrupted output"

    def run(self, ctx) -> None:
        super().run(ctx)
        data = np.frombuffer(ctx.files[self.output_file], dtype=np.float32)
        finite = data[np.isfinite(data)]
        corrupted = finite.size != data.size or bool(
            (np.abs(finite) > 1e6).any()
        )
        if corrupted:
            # Outside run_app's catch list: kills the injection task (in a
            # fork child: the child process) rather than classifying.
            raise RuntimeError("snapchaos: corrupted device output")


@pytest.fixture()
def _chaos_workload():
    WORKLOADS[SnapChaosOMriq.name] = SnapChaosOMriq
    yield
    WORKLOADS.pop(SnapChaosOMriq.name, None)


class TestQuarantineParity:
    def _chaos_config(self):
        return CampaignConfig(
            workload=SnapChaosOMriq.name,
            num_transient=12,
            seed=7,
            retry=RetryPolicy(max_attempts=2, **_FAST_RETRY),
        )

    def test_fork_child_death_quarantines_like_serial(self, tmp_path,
                                                      _chaos_workload):
        serial = _campaign_csv(
            tmp_path, "chaos-serial", executor=SerialExecutor(),
            config=self._chaos_config(),
        )
        store = CampaignStore(tmp_path / "chaos-snap")
        result = repro.run_campaign(
            self._chaos_config(), executor=BatchExecutor(), store=store
        )
        assert (tmp_path / "chaos-snap" / "results.csv").read_bytes() == serial
        quarantined = [
            r for r in result.results
            if r.outcome.symptom == HARNESS_FAILURE_SYMPTOM
        ]
        assert len(quarantined) == 2


# -- persistent replay cache ---------------------------------------------------


class TestReplayCache:
    def test_resolve_semantics(self, tmp_path):
        assert ReplayCache.resolve(None) is None
        assert ReplayCache.resolve(False) is None
        assert ReplayCache.resolve(True).root == default_cache_root()
        assert ReplayCache.resolve(str(tmp_path)).root == tmp_path

    def test_env_overrides_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_REPLAY_CACHE", str(tmp_path / "env-cache"))
        assert default_cache_root() == tmp_path / "env-cache"

    def test_cold_then_warm_campaign_is_byte_identical(self, tmp_path,
                                                       serial_csv):
        cache_dir = tmp_path / "cache"
        cold_reg, warm_reg = MetricsRegistry(), MetricsRegistry()
        cold = _campaign_csv(
            tmp_path, "cold", config=_config(replay_cache=str(cache_dir)),
            registry=cold_reg,
        )
        warm = _campaign_csv(
            tmp_path, "warm", config=_config(replay_cache=str(cache_dir)),
            registry=warm_reg,
        )
        assert cold == warm == serial_csv
        assert cold_reg.counter_values()["engine.cache.misses"] == 1
        assert "engine.cache.hits" not in cold_reg.counter_values()
        assert warm_reg.counter_values()["engine.cache.hits"] == 1
        assert warm_reg.counter_values()["engine.cache.profile_hits"] == 1
        assert "engine.cache.misses" not in warm_reg.counter_values()
        # One tape + one sidecar + one instruction profile for the single
        # (workload, config) key.
        assert len(list(cache_dir.glob("*.bin"))) == 1
        assert len(list(cache_dir.glob("*.json"))) == 1
        assert len(list(cache_dir.glob("*.profile"))) == 1

    def test_stale_profile_entry_is_recounted(self, tmp_path, serial_csv):
        # A profile recorded against a different tape (sha mismatch) must
        # never be trusted: the warm run re-profiles and still matches.
        cache_dir = tmp_path / "cache"
        _campaign_csv(tmp_path, "seed", config=_config(replay_cache=str(cache_dir)))
        entry = next(cache_dir.glob("*.profile"))
        payload = json.loads(entry.read_text())
        payload["tape_sha256"] = "0" * 64
        entry.write_text(json.dumps(payload))
        registry = MetricsRegistry()
        csv = _campaign_csv(
            tmp_path, "stale-profile",
            config=_config(replay_cache=str(cache_dir)), registry=registry,
        )
        assert csv == serial_csv
        values = registry.counter_values()
        assert values["engine.cache.hits"] == 1  # the tape itself still hits
        assert "engine.cache.profile_hits" not in values  # profile recounted
        # ... and the recount repaired the cache entry.
        reg2 = MetricsRegistry()
        _campaign_csv(
            tmp_path, "repaired",
            config=_config(replay_cache=str(cache_dir)), registry=reg2,
        )
        assert reg2.counter_values()["engine.cache.profile_hits"] == 1

    def test_different_sandbox_fingerprint_misses(self, tmp_path):
        cache_dir = tmp_path / "cache"
        _campaign_csv(tmp_path, "a", config=_config(replay_cache=str(cache_dir)))
        registry = MetricsRegistry()
        other = _config(
            replay_cache=str(cache_dir),
            sandbox=SandboxConfig(seed=99),
        )
        _campaign_csv(tmp_path, "b", config=other, registry=registry)
        assert registry.counter_values()["engine.cache.misses"] == 1
        assert len(list(tmp_path.glob("cache/*.bin"))) == 2

    def test_corrupt_entry_degrades_to_miss(self, tmp_path, serial_csv):
        cache_dir = tmp_path / "cache"
        _campaign_csv(tmp_path, "seed", config=_config(replay_cache=str(cache_dir)))
        entry = next(cache_dir.glob("*.bin"))
        blob = bytearray(entry.read_bytes())
        blob[-1] ^= 0xFF  # flip one tape byte: content hash now mismatches
        entry.write_bytes(bytes(blob))
        registry = MetricsRegistry()
        csv = _campaign_csv(
            tmp_path, "after-corruption",
            config=_config(replay_cache=str(cache_dir)), registry=registry,
        )
        assert csv == serial_csv  # fell back to recording, results intact
        assert registry.counter_values()["engine.cache.misses"] == 1
        # The fallback recording replaced the corrupt entry.
        reg2 = MetricsRegistry()
        _campaign_csv(
            tmp_path, "rewarmed",
            config=_config(replay_cache=str(cache_dir)), registry=reg2,
        )
        assert reg2.counter_values()["engine.cache.hits"] == 1

    def test_cache_plus_snapshot_compose(self, tmp_path, serial_csv):
        cache_dir = tmp_path / "cache"
        registry = MetricsRegistry()
        _campaign_csv(
            tmp_path, "compose-cold",
            config=_config(batch_launch=True, replay_cache=str(cache_dir)),
        )
        csv = _campaign_csv(
            tmp_path, "compose-warm",
            config=_config(batch_launch=True, replay_cache=str(cache_dir)),
            registry=registry,
        )
        assert csv == serial_csv
        values = registry.counter_values()
        assert values["engine.cache.hits"] == 1
        assert values["engine.snapshot.forks"] == _N


# -- multi-process fork shards (slow) ------------------------------------------


@pytest.mark.slow
class TestShardedSnapshot:
    def test_four_worker_snapshot_matches_serial(self, tmp_path, serial_csv):
        csv = _campaign_csv(
            tmp_path, "snap4", executor=BatchExecutor(max_workers=4)
        )
        assert csv == serial_csv


@pytest.mark.slow
class TestBigWorkloadParity:
    """370.bt parity across serial / forked / sharded forked execution."""

    def test_370bt_byte_identical(self, tmp_path):
        config = CampaignConfig(workload="370.bt", num_transient=10, seed=7)
        serial = _campaign_csv(
            tmp_path, "bt-serial", executor=SerialExecutor(), config=config
        )
        registry = MetricsRegistry()
        snap = _campaign_csv(
            tmp_path, "bt-snap", executor=BatchExecutor(), config=config,
            registry=registry,
        )
        sharded = _campaign_csv(
            tmp_path, "bt-snap2", executor=BatchExecutor(max_workers=2),
            config=config,
        )
        assert snap == serial
        assert sharded == serial
        assert registry.counter_values()["engine.snapshot.forks"] == 10
