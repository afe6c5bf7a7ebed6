"""Batched multi-fault execution: one counting pass per target launch.

Same contract as the fork tests in ``test_snapshot.py``: *results are
byte-identical, only wall-clock changes*.  The batch executor must reproduce the serial
campaign bit for bit — records, outcomes, simulated-cycle totals —
while servicing every same-launch fault from one shared counting pass
(``engine.batch.checkpoints`` / ``engine.batch.launches_shared`` prove
the pass actually ran, rather than a silent per-task fallback).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro
from repro.core.batch_injector import (
    BatchExecutor,
    _chain_groups,
    _group_tasks,
)
from repro.core.campaign import CampaignConfig
from repro.core.engine import CampaignEngine, EngineHooks, SerialExecutor
from repro.core.groups import InstructionGroup
from repro.core.resilience import (
    HARNESS_FAILURE_SYMPTOM,
    RetryPolicy,
    TaskFailure,
)
from repro.core.store import CampaignStore
from repro.cuda import driver as driver_module
from repro.obs import MetricsRegistry
from repro.workloads.omriq import OMriq
from repro.workloads.registry import WORKLOADS

_WORKLOAD = "303.ostencil"  # multi-kernel, small: 21 golden launches
_N = 10
_SEED = 3

_FAST_RETRY = dict(backoff_base=0.001, backoff_factor=1.0, backoff_max=0.01,
                   jitter=0.0)


def _config(**overrides) -> CampaignConfig:
    return CampaignConfig(
        workload=_WORKLOAD, num_transient=_N, seed=_SEED
    ).with_overrides(**overrides)


def _campaign_csv(tmp_path, label, executor=None, config=None,
                  registry=None) -> bytes:
    store = CampaignStore(tmp_path / label)
    repro.run_campaign(
        config or _config(), executor=executor, store=store, metrics=registry
    )
    return (tmp_path / label / "results.csv").read_bytes()


@pytest.fixture(scope="module")
def serial_csv(tmp_path_factory) -> bytes:
    tmp = tmp_path_factory.mktemp("batch-serial-reference")
    store = CampaignStore(tmp / "serial")
    repro.run_campaign(_config(), executor=SerialExecutor(), store=store)
    return (tmp / "serial" / "results.csv").read_bytes()


class TestBatchParity:
    def test_batch_matches_serial_byte_for_byte(self, tmp_path, serial_csv):
        registry = MetricsRegistry()
        csv = _campaign_csv(
            tmp_path, "batch", executor=BatchExecutor(), registry=registry
        )
        assert csv == serial_csv
        values = registry.counter_values()
        # Every transient injection was serviced by an in-launch overlay
        # checkpoint (they are forks too, so both counters move)...
        assert values["engine.batch.checkpoints"] == _N
        assert values["engine.snapshot.forks"] == _N
        # ... and each fork *group* shared exactly one counting pass.
        assert 1 <= values["engine.batch.launches_shared"] <= _N

    def test_batch_cycle_totals_match_serial(self, tmp_path):
        serial_reg, batch_reg = MetricsRegistry(), MetricsRegistry()
        _campaign_csv(
            tmp_path, "cyc-serial", executor=SerialExecutor(),
            registry=serial_reg,
        )
        _campaign_csv(
            tmp_path, "cyc-batch", executor=BatchExecutor(),
            registry=batch_reg,
        )
        serial_values = serial_reg.counter_values()
        batch_values = batch_reg.counter_values()
        assert batch_values["gpusim.cycles"] == serial_values["gpusim.cycles"]
        assert (
            batch_values["gpusim.instructions_retired"]
            == serial_values["gpusim.instructions_retired"]
        )

    def test_config_knob_selects_batch_executor(self, tmp_path, serial_csv):
        registry = MetricsRegistry()
        csv = _campaign_csv(
            tmp_path, "knob", config=_config(batch_launch=True),
            registry=registry,
        )
        assert csv == serial_csv
        assert registry.counter_values()["engine.batch.checkpoints"] == _N

    def test_snapshot_plus_batch_knobs_mean_batch(self, tmp_path, serial_csv):
        """A stored config with both the retired ``snapshot`` knob and
        ``batch_launch`` set decodes to the batch executor."""
        from repro.service.codec import config_from_dict, config_to_dict

        row = config_to_dict(_config(batch_launch=True))
        row["snapshot"] = True
        config = config_from_dict(row)
        engine = CampaignEngine(_WORKLOAD, config)
        assert isinstance(engine.executor, BatchExecutor)
        registry = MetricsRegistry()
        csv = _campaign_csv(
            tmp_path, "snap-batch", config=config, registry=registry,
        )
        assert csv == serial_csv
        assert registry.counter_values()["engine.batch.checkpoints"] == _N

    def test_pipelined_children_match_serial(self, tmp_path, serial_csv,
                                             monkeypatch):
        """Concurrent overlay children change nothing but wall clock.

        ``os.fork`` snapshots the clean pass at each checkpoint, so a
        child's inputs cannot depend on when the parent reaps it; and
        reaping is oldest-first, so output order cannot depend on which
        child finishes first.  Forcing the in-flight window far above
        this campaign's group sizes exercises both properties.
        """
        monkeypatch.setenv("REPRO_BATCH_INFLIGHT", "4")
        registry = MetricsRegistry()
        csv = _campaign_csv(
            tmp_path, "pipelined", executor=BatchExecutor(),
            registry=registry,
        )
        assert csv == serial_csv
        assert registry.counter_values()["engine.batch.checkpoints"] == _N

    def test_resumed_batch_campaign_matches_serial(self, tmp_path, serial_csv):
        store = CampaignStore(tmp_path / "resumed")
        engine = CampaignEngine(
            _WORKLOAD, _config(), executor=BatchExecutor(), store=store
        )
        engine.plan_transient()
        engine.run_batch([0, 1, 2])
        # Resume in a fresh engine: the three checkpointed runs are
        # loaded, the remaining seven go through the batched pass.
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
        assert "engine.batch.checkpoints" not in registry.counter_values()


class TestReplayAccountingParity:
    """A batch child reports the replay accounting of its serial run.

    The sweep's retarget reset exists only to keep these equal: each
    child starts from the cursor a serial run targeting its launch alone
    would have.
    """

    def test_per_run_counters_match_serial(self):
        # Seed 4 targets launches 0, 0, 1, 4, ... and re-converges three
        # faults: the launch-0 group heads a sweep chain, back to back
        # with the launch-1 group.
        config = _config(seed=4)
        engine = CampaignEngine(_WORKLOAD, config)
        engine.run_golden()
        engine.run_profile()
        sites = engine.select_sites()
        tasks = engine._tasks(sites, "transient", range(len(sites)))
        chains = _chain_groups(_group_tasks(tasks)[0])
        assert any(
            len(chain) > 1 and chain[0][0].replay.stop_launch == 0
            for chain in chains
        )

        def accounting(executor, batch):
            runs = {}
            for output in executor.run(tasks, app=engine.app):
                assert output.batch is batch  # forked, not a fallback
                art = output.artifacts
                runs[output.index] = (
                    art.replay_launches_skipped,
                    art.replay_tail_skipped,
                    art.replay_converged_at,
                )
            return runs

        serial = accounting(SerialExecutor(), batch=False)
        assert accounting(BatchExecutor(), batch=True) == serial
        assert len(serial) == _N
        assert any(tail for _, tail, _ in serial.values())


class TestNeverReachedTargets:
    """Targets past the launch's group-instruction total fork at exit."""

    def _grouped_tasks(self):
        engine = CampaignEngine(_WORKLOAD, _config())
        sites = engine.plan_transient()
        tasks = engine._tasks(sites, "transient", range(len(sites)))
        groups: dict[tuple, list] = {}
        for task in tasks:
            groups.setdefault(
                (task.params.kernel_name, task.params.kernel_count), []
            ).append(task)
        return max(groups.values(), key=len)

    @staticmethod
    def _run(executor, tasks):
        outputs = {}
        for item in executor.run(list(tasks), retry=RetryPolicy()):
            assert not isinstance(item, TaskFailure), item
            outputs[item.index] = item
        return outputs

    def test_overshooting_count_completes_not_injected(self):
        group = self._grouped_tasks()
        assert len(group) >= 2, "seed must yield one multi-fault launch"
        # Retarget one sibling far past the launch's instruction total:
        # its overlay forks at launch exit and completes not-injected.
        overshoot = dataclasses.replace(
            group[-1],
            params=dataclasses.replace(
                group[-1].params, instruction_count=10_000_000
            ),
        )
        tasks = group[:-1] + [overshoot]
        serial = self._run(SerialExecutor(), tasks)
        batch = self._run(BatchExecutor(), tasks)
        assert set(batch) == set(serial)
        for index, expected in serial.items():
            got = batch[index]
            assert got.record == expected.record
            assert got.artifacts.cycles == expected.artifacts.cycles
            assert (
                got.artifacts.instructions_executed
                == expected.artifacts.instructions_executed
            )
        assert not batch[overshoot.index].record.injected
        reached = [t for t in tasks if t.index != overshoot.index]
        assert all(batch[t.index].record.injected for t in reached)


class TestOverlayForkerPipelining:
    """The forker's concurrency contract, independent of the simulator."""

    def test_results_stay_in_fork_order(self):
        import os
        import time

        from repro.gpusim.multifault import OverlayForker

        forker = OverlayForker(max_inflight=3)
        # The first child finishes last; fork order must still win.
        for index, delay in enumerate([0.2, 0.0, 0.1]):
            if forker.fork_overlay(index):
                time.sleep(delay)
                forker.ship(str(index).encode())
                os._exit(0)
        assert forker.checkpoints == 3
        forker.drain()
        assert forker.results == [(0, 0, b"0"), (1, 0, b"1"), (2, 0, b"2")]

    def test_inflight_cap_bounds_running_children(self):
        import os

        from repro.gpusim.multifault import OverlayForker

        forker = OverlayForker(max_inflight=1)
        for index in range(3):
            if forker.fork_overlay(index):
                forker.ship(b"x")
                os._exit(0)
            assert len(forker._pending) <= 1
        forker.drain()
        assert [payload for payload, _, _ in forker.results] == [0, 1, 2]


class TestForkChildMeasures:
    """A fork child's wall clock and blockc counters start at its fork, not
    at the start of the counting pass it forked from."""

    def test_wall_times_fit_in_the_inject_phase(self, monkeypatch):
        # One child in flight: children never overlap each other, so their
        # runs add up to at most the inject phase; the bound allows the
        # in-flight cap + 1 phases.
        monkeypatch.setenv("REPRO_BATCH_INFLIGHT", "1")
        phases: dict[str, float] = {}

        class Phases(EngineHooks):
            def on_phase(self, phase, seconds):
                phases[phase] = seconds

        registry = MetricsRegistry()
        result = CampaignEngine(
            _WORKLOAD, _config(), executor=BatchExecutor(), hooks=Phases(),
            metrics=registry,
        ).run_transient()
        assert registry.counter_values()["engine.batch.checkpoints"] == _N
        assert sum(r.wall_time for r in result.results) <= 2 * phases["inject"]

    def test_batch_after_serial_compiles_nothing(self, tmp_path):
        """The serial campaign binds every layout the plan needs, on
        kernels shared per process, so the batch campaign binds none."""
        _campaign_csv(tmp_path, "warm-serial", executor=SerialExecutor())
        registry = MetricsRegistry()
        _campaign_csv(
            tmp_path, "warm-batch", executor=BatchExecutor(), registry=registry
        )
        values = registry.counter_values()
        assert values["engine.batch.checkpoints"] == _N
        assert "engine.blockc.blocks_compiled" not in values


    def test_warm_cache_compiles_no_more_blocks_than_cold(
        self, tmp_path, monkeypatch
    ):
        """A warm replay cache replays the golden run, so no simulated
        launch binds the uninstrumented layouts: the counting pass binds
        them before its first fork, and every child inherits them instead
        of binding its own."""
        cache = str(tmp_path / "cache")
        compiled, csvs = {}, {}
        for label in ("cold", "warm"):
            monkeypatch.setattr(driver_module, "_images", {})  # a fresh process
            registry = MetricsRegistry()
            csvs[label] = _campaign_csv(
                tmp_path, label, executor=BatchExecutor(),
                config=_config(batch_launch=True, replay_cache=cache),
                registry=registry,
            )
            values = registry.counter_values()
            assert values["engine.batch.checkpoints"] == _N
            compiled[label] = values.get("engine.blockc.blocks_compiled", 0)
        assert csvs["warm"] == csvs["cold"]
        assert compiled["warm"] <= compiled["cold"]


class TestPredicateDestinationFaults:
    """Satellite: predicate-destination faults through the batched path."""

    def _pred_config(self, **overrides):
        return _config(group=InstructionGroup.G_PR).with_overrides(**overrides)

    def test_pr_group_parity_and_pred_records(self, tmp_path):
        serial_store = CampaignStore(tmp_path / "pr-serial")
        serial = repro.run_campaign(
            self._pred_config(), executor=SerialExecutor(), store=serial_store
        )
        batch_store = CampaignStore(tmp_path / "pr-batch")
        batch = repro.run_campaign(
            self._pred_config(), executor=BatchExecutor(), store=batch_store
        )
        assert (
            (tmp_path / "pr-batch" / "results.csv").read_bytes()
            == (tmp_path / "pr-serial" / "results.csv").read_bytes()
        )
        pred_records = [
            r for r in batch.results if r.record.dest_kind == "pred"
        ]
        assert pred_records, "G_PR campaign must corrupt predicate dests"
        for ours, theirs in zip(batch.results, serial.results):
            assert ours.record == theirs.record


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
        engine = CampaignEngine(_WORKLOAD, _config(batch_launch=True))
        assert isinstance(engine.executor, SerialExecutor)


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

    def test_overlay_child_death_quarantines_like_serial(self, tmp_path,
                                                         _chaos_workload):
        """A child dying past its checkpoint charges the same attempts and
        synthesizes the same DUE rows as a serial task raising."""
        serial = _campaign_csv(
            tmp_path, "chaos-serial", executor=SerialExecutor(),
            config=self._chaos_config(),
        )
        store = CampaignStore(tmp_path / "chaos-batch")
        result = repro.run_campaign(
            self._chaos_config(), executor=BatchExecutor(), store=store
        )
        assert (tmp_path / "chaos-batch" / "results.csv").read_bytes() == serial
        quarantined = [
            r for r in result.results
            if r.outcome.symptom == HARNESS_FAILURE_SYMPTOM
        ]
        assert len(quarantined) == 2


# -- the bench workload (slow) -------------------------------------------------


@pytest.mark.slow
class TestBigWorkloadParity:
    """370.bt parity across serial / batch."""

    def test_370bt_byte_identical(self, tmp_path, monkeypatch):
        config = CampaignConfig(workload="370.bt", num_transient=10, seed=7)
        serial = _campaign_csv(
            tmp_path, "bt-serial", executor=SerialExecutor(), config=config
        )
        # Force a wide in-flight window so the full-size parity run also
        # exercises concurrent overlay children (divergent suffixes
        # running while the counting pass sweeps on).
        monkeypatch.setenv("REPRO_BATCH_INFLIGHT", "8")
        registry = MetricsRegistry()
        batch = _campaign_csv(
            tmp_path, "bt-batch", executor=BatchExecutor(), config=config,
            registry=registry,
        )
        assert batch == serial
        assert registry.counter_values()["engine.batch.checkpoints"] == 10
