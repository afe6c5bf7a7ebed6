"""Executor choice, stored fork configs and the persistent replay cache.

The contract under test is the usual one: *results are byte-identical,
only wall-clock changes*.  The fork tests here are what is left of the
removed snapshot executor's suite; ``tests/core/test_batch_injector.py``
holds the parity suite of :class:`~repro.core.batch_injector.BatchExecutor`,
the one fork executor.  A config stored with the retired ``snapshot`` key
must still select fork execution and reproduce the serial campaign bit
for bit.  The persistent :class:`~repro.core.snapshot.ReplayCache` must
likewise never change artifacts: a hit only swaps simulated golden
launches for replayed ones.
"""

from __future__ import annotations

import json
import multiprocessing
import threading

import pytest

import repro
from repro.core.batch_injector import BatchExecutor
from repro.core.campaign import CampaignConfig
from repro.core.engine import (
    CampaignEngine,
    ParallelExecutor,
    SerialExecutor,
    choose_executor,
)
from repro.core.snapshot import ReplayCache, default_cache_root
from repro.core.store import CampaignStore
from repro.gpusim.replay import ReplayLog, load_replay_log, save_replay_log
from repro.obs import MetricsRegistry
from repro.runner.sandbox import SandboxConfig

_WORKLOAD = "303.ostencil"  # multi-kernel, small: 21 golden launches
_N = 10
_SEED = 3


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
        """Fork execution is chosen on POSIX by ``batch_launch`` alone:
        ``workers`` always means the pool, and neither means serial."""
        batch = _config(batch_launch=True)
        assert isinstance(choose_executor(batch), BatchExecutor)
        for config in (batch, _config()):
            pool = choose_executor(config, workers=2)
            assert isinstance(pool, ParallelExecutor)
            assert pool.max_workers == 2
        assert isinstance(choose_executor(_config()), SerialExecutor)

    def test_config_knob_selects_snapshot_executor(self, tmp_path, serial_csv):
        registry = MetricsRegistry()
        csv = _campaign_csv(
            tmp_path, "knob", config=_stored_snapshot_config(),
            registry=registry,
        )
        assert csv == serial_csv
        assert registry.counter_values()["engine.snapshot.forks"] == _N


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

    def test_tape_the_run_outlives_is_a_miss_and_rerecorded(
        self, tmp_path, serial_csv
    ):
        """A cached tape one launch short (the run goes on past its end)
        must not count as a hit: the golden run simulated its last launch,
        and a campaign on the short tape would give the sites that target
        that launch no reference.  The miss re-records the entry."""
        cache_dir = tmp_path / "cache"
        _campaign_csv(tmp_path, "seed", config=_config(replay_cache=str(cache_dir)))
        cache = ReplayCache(cache_dir)
        full = cache.lookup(_WORKLOAD, SandboxConfig())
        short = ReplayLog(
            full.mem_size, full.launches[:-1], workload=_WORKLOAD,
            counts=full.counts[:-1],
        )
        cache.store(_WORKLOAD, SandboxConfig(), short)
        registry = MetricsRegistry()
        csv = _campaign_csv(
            tmp_path, "short-tape",
            config=_config(replay_cache=str(cache_dir)), registry=registry,
        )
        assert csv == serial_csv
        values = registry.counter_values()
        assert values["engine.cache.misses"] == 1
        assert "engine.cache.hits" not in values
        assert len(cache.lookup(_WORKLOAD, SandboxConfig())) == len(full)

    def test_parent_format_entry_is_a_miss_and_rerecorded(
        self, tmp_path, serial_csv
    ):
        """An entry in the previous tape format (version 2) at the entry's
        path reads as a miss; the campaign records the tape again, counts
        included, and stores it whole."""
        cache_dir = tmp_path / "cache"
        _campaign_csv(tmp_path, "seed", config=_config(replay_cache=str(cache_dir)))
        cache = ReplayCache(cache_dir)
        path = cache.path_for(_WORKLOAD, SandboxConfig())
        whole = path.read_bytes()
        _write_parent_format(cache.lookup(_WORKLOAD, SandboxConfig()), path)
        assert cache.lookup(_WORKLOAD, SandboxConfig()) is None
        registry = MetricsRegistry()
        csv = _campaign_csv(
            tmp_path, "after-parent-format",
            config=_config(replay_cache=str(cache_dir)), registry=registry,
        )
        assert csv == serial_csv
        values = registry.counter_values()
        assert values["engine.cache.misses"] == 1
        assert "engine.cache.hits" not in values
        assert path.read_bytes() == whole
        assert cache.lookup(_WORKLOAD, SandboxConfig()).counts is not None

    @pytest.mark.parametrize("where", ["cache", "store"])
    def test_parent_format_tape_leaves_permanent_tasks_their_reach(
        self, tmp_path, where
    ):
        """A previous-format tape in the cache or in the study directory
        never reaches a permanent campaign: golden records a new tape, and
        the tasks replay the launches their faults cannot reach."""
        cache_dir = tmp_path / "cache"
        store = CampaignStore(tmp_path / "study")
        config = _config(replay_cache=str(cache_dir))
        CampaignEngine(_WORKLOAD, config).run_golden()
        cache = ReplayCache(cache_dir)
        stale = cache.path_for(_WORKLOAD, SandboxConfig())
        if where == "store":
            config = _config()
            store.root.mkdir(parents=True)
            stale = store.replay_path()
        _write_parent_format(
            cache.lookup(_WORKLOAD, SandboxConfig()), stale
        )
        registry = MetricsRegistry()
        engine = CampaignEngine(_WORKLOAD, config, store=store, metrics=registry)
        engine.run_permanent()
        assert load_replay_log(stale).counts is not None
        values = registry.counter_values()
        assert values.get("engine.replay.launches_skipped", 0) + values.get(
            "engine.replay.tail_launches_skipped", 0
        ) > 0

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


def _write_parent_format(log: ReplayLog, path) -> None:
    """Write ``log`` under the previous tape format's magic (version 2).

    Version 2 also indexed each launch's counts by an ``SR_CLOCK`` flag;
    the loader rejects a tape by its magic before it reads the layout, so
    the magic is what has to differ."""
    save_replay_log(log, path)
    raw = path.read_bytes()
    assert raw.startswith(b"RPRL\x03\n")
    path.write_bytes(b"RPRL\x02\n" + raw[6:])


def _store_repeatedly(root, tape, start, rounds) -> None:
    """One writer of the concurrent-store test (runs in its own process)."""
    log = load_replay_log(tape)
    cache = ReplayCache(root)
    start.wait()
    for _ in range(rounds):
        cache.store(_WORKLOAD, SandboxConfig(), log)


class TestConcurrentCacheWrites:
    """Two processes store one key at once; torn entries are misses."""

    @pytest.fixture
    def recorded(self, tmp_path):
        cache_dir = tmp_path / "cache"
        _campaign_csv(tmp_path, "record", config=_config(replay_cache=str(cache_dir)))
        return next(cache_dir.glob("*.bin"))

    def test_two_processes_store_one_key(self, tmp_path, recorded):
        whole = load_replay_log(recorded)
        root = tmp_path / "race"
        cache = ReplayCache(root)
        ctx = multiprocessing.get_context("spawn")
        start = ctx.Event()
        writers = [
            ctx.Process(
                target=_store_repeatedly, args=(str(root), str(recorded), start, 25)
            )
            for _ in range(2)
        ]
        for writer in writers:
            writer.start()
        start.set()
        seen = 0
        while any(writer.is_alive() for writer in writers):
            log = cache.lookup(_WORKLOAD, SandboxConfig())
            if log is not None:  # a reader sees nothing or a whole entry
                assert log.content_hash == whole.content_hash
                seen += 1
        for writer in writers:
            writer.join()
            assert writer.exitcode == 0
        log = cache.lookup(_WORKLOAD, SandboxConfig())
        assert log is not None and log.content_hash == whole.content_hash
        assert [len(rec.data) for rec in log.launches] == [
            len(rec.data) for rec in whole.launches
        ]
        path = cache.path_for(_WORKLOAD, SandboxConfig())
        assert path.read_bytes() == recorded.read_bytes()
        assert sorted(p.name for p in root.iterdir()) == [path.name, path.with_suffix(".json").name]

    @pytest.mark.parametrize("keep", [0, 3, 10, 200, -1])
    def test_truncated_entry_is_a_miss_and_rerecorded(
        self, tmp_path, recorded, serial_csv, keep
    ):
        """A torn write at the final path (cut in the magic, the header
        length, the header or the tape) reads as a miss; the campaign
        records the tape again and stores it whole."""
        whole = recorded.read_bytes()
        recorded.write_bytes(whole[:keep])
        cache = ReplayCache(recorded.parent)
        assert cache.lookup(_WORKLOAD, _config().sandbox) is None
        registry = MetricsRegistry()
        csv = _campaign_csv(
            tmp_path, "after-truncation",
            config=_config(replay_cache=str(recorded.parent)), registry=registry,
        )
        assert csv == serial_csv
        assert registry.counter_values()["engine.cache.misses"] == 1
        assert recorded.read_bytes() == whole
