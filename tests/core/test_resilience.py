"""Campaign resilience: retry, quarantine, interrupt and resume paths.

The chaos workloads below are OMriq variants that misbehave *only when the
injected fault corrupts the device output* — a deterministic function of
the campaign seed — so exactly the same K of N tasks fail under every
executor, and serial, parallel and resumed campaigns containing failures
can be compared byte-for-byte.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.engine import CampaignEngine, EngineHooks, ParallelExecutor
from repro.core.report import tally_from_trace
from repro.core.resilience import (
    HARNESS_FAILURE_SYMPTOM,
    RetryPolicy,
    TaskFailure,
    quarantine_outcome,
)
from repro.core.store import CampaignStore
from repro.errors import ReproError
from repro.obs import MemorySink, Tracer
from repro.runner.sandbox import SandboxConfig
from repro.workloads.omriq import OMriq
from repro.workloads.registry import WORKLOADS

# Seed 2 makes exactly 2 of 12 (and 1 of 8) transient injections corrupt
# the output badly enough (non-finite or |q| > 1e6) to trip the chaos
# predicate — verified constants, relied on by every campaign test here.
_SEED = 2
_N = 12
_N_SMALL = 8
_K = 2
_K_SMALL = 1

# Fast-but-real backoff for tests (jitter off: delays are asserted exactly).
_FAST_RETRY = dict(backoff_base=0.001, backoff_factor=1.0, backoff_max=0.01,
                   jitter=0.0)


class ChaosOMriq(OMriq):
    """Misbehaves (per ``CHAOS_MODE``) whenever the output is corrupted."""

    name = "999.chaos"
    description = "OMriq variant that fails the harness on corrupted output"

    def run(self, ctx) -> None:
        super().run(ctx)
        data = np.frombuffer(ctx.files[self.output_file], dtype=np.float32)
        finite = data[np.isfinite(data)]
        corrupted = finite.size != data.size or bool((np.abs(finite) > 1e6).any())
        if not corrupted:
            return
        mode = ctx.getenv("CHAOS_MODE", "")
        if mode == "raise":
            # RuntimeError is deliberately outside run_app's catch list: it
            # escapes the sandbox and kills the injection task itself.
            raise RuntimeError("chaos: corrupted device output")
        if mode == "exit":
            os._exit(23)  # hard worker death: breaks the whole pool
        if mode == "hang":
            while True:  # hangs *outside* simulated execution: only the
                time.sleep(0.05)  # parent-side wall-clock deadline sees it


class FlakyOMriq(OMriq):
    """Fails exactly one run (by sequence number), then behaves."""

    name = "999.flaky"
    description = "OMriq variant with one transient harness failure"

    def run(self, ctx) -> None:
        flaky_dir = ctx.getenv("FLAKY_DIR")
        if flaky_dir:
            counter = Path(flaky_dir) / "runs"
            count = int(counter.read_text()) + 1 if counter.exists() else 1
            counter.write_text(str(count))
            if count == int(ctx.getenv("FLAKY_FAIL_RUN", "3")):
                raise RuntimeError("flaky: transient harness failure")
        super().run(ctx)


@pytest.fixture(autouse=True, scope="module")
def _register_chaos_workloads():
    WORKLOADS[ChaosOMriq.name] = ChaosOMriq
    WORKLOADS[FlakyOMriq.name] = FlakyOMriq
    yield
    WORKLOADS.pop(ChaosOMriq.name, None)
    WORKLOADS.pop(FlakyOMriq.name, None)


def _chaos_config(mode: str, retry: RetryPolicy, num: int = _N):
    return repro.CampaignConfig(
        workload=ChaosOMriq.name,
        num_transient=num,
        seed=_SEED,
        sandbox=SandboxConfig(extra_env={"CHAOS_MODE": mode} if mode else {}),
        retry=retry,
    )


def _quarantined(result) -> list[int]:
    return [
        index
        for index, item in enumerate(result.results)
        if item.outcome.symptom == HARNESS_FAILURE_SYMPTOM
    ]


# -- RetryPolicy ---------------------------------------------------------------


class TestRetryPolicy:
    def test_validates_knobs(self):
        with pytest.raises(ReproError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ReproError):
            RetryPolicy(jitter=2.0)
        with pytest.raises(ReproError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ReproError):
            RetryPolicy(task_timeout=0.0)
        with pytest.raises(ReproError):
            RetryPolicy(on_failure="explode")

    def test_should_retry_counts_total_attempts(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry(1)
        assert policy.should_retry(2)
        assert not policy.should_retry(3)
        assert not RetryPolicy(max_attempts=1).should_retry(1)

    def test_delay_grows_exponentially_and_caps(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                             backoff_max=0.3, jitter=0.0)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.3)  # capped
        assert policy.delay(9) == pytest.approx(0.3)

    def test_jitter_is_deterministic_but_desynchronised(self):
        policy = RetryPolicy(backoff_base=0.1, jitter=0.5, seed=7)
        assert policy.delay(1, key=4) == policy.delay(1, key=4)
        assert policy.delay(1, key=4) != policy.delay(1, key=5)
        assert 0.1 <= policy.delay(1, key=4) <= 0.15
        # Same knobs, different policy seed: a different schedule.
        other = RetryPolicy(backoff_base=0.1, jitter=0.5, seed=8)
        assert policy.delay(1, key=4) != other.delay(1, key=4)

    def test_quarantine_outcome_is_a_monitor_due(self):
        record = quarantine_outcome(TaskFailure(3, 2, "RuntimeError: boom"))
        assert record.outcome is repro.Outcome.DUE
        assert record.symptom == HARNESS_FAILURE_SYMPTOM
        assert not record.potential_due


# -- serial campaigns with failing tasks ---------------------------------------


class TestSerialFailures:
    def test_quarantines_failing_tasks_as_harness_dues(self):
        retry = RetryPolicy(max_attempts=2, **_FAST_RETRY)
        engine = CampaignEngine(
            ChaosOMriq.name, _chaos_config("raise", retry)
        )
        result = engine.run_transient()

        assert len(result.results) == _N
        quarantined = _quarantined(result)
        assert len(quarantined) == _K
        for index in quarantined:
            item = result.results[index]
            assert item.outcome.outcome is repro.Outcome.DUE
            assert not item.record.injected
            assert item.instructions == 0 and item.wall_time == 0.0
        assert engine.metrics.quarantined == _K
        # Each poison task burns (max_attempts - 1) retries before giving up.
        assert engine.metrics.retries == _K * (retry.max_attempts - 1)
        assert result.tally.counts[repro.Outcome.DUE] >= _K
        assert "quarantined" in engine.metrics.summary()

    def test_on_failure_raise_aborts_the_campaign(self):
        retry = RetryPolicy(max_attempts=1, on_failure="raise", **_FAST_RETRY)
        engine = CampaignEngine(
            ChaosOMriq.name, _chaos_config("raise", retry)
        )
        with pytest.raises(ReproError, match="failed after 1 attempt"):
            engine.run_transient()

    def test_retry_then_succeed_matches_a_clean_campaign(self, tmp_path):
        flaky_dir = tmp_path / "flaky"
        flaky_dir.mkdir()
        retry = RetryPolicy(max_attempts=3, **_FAST_RETRY)

        clean_store = CampaignStore(tmp_path / "clean")
        clean = repro.run_campaign(
            repro.CampaignConfig(
                workload=FlakyOMriq.name, num_transient=4, seed=_SEED,
                retry=retry,
            ),
            store=clean_store,
        )

        # Run 3 is the first injection (golden=1, profile=2): it fails once,
        # is retried, and the campaign ends exactly like the clean one.
        flaky_store = CampaignStore(tmp_path / "flaky-store")
        engine = CampaignEngine(
            FlakyOMriq.name,
            repro.CampaignConfig(
                workload=FlakyOMriq.name, num_transient=4, seed=_SEED,
                sandbox=SandboxConfig(extra_env={
                    "FLAKY_DIR": str(flaky_dir), "FLAKY_FAIL_RUN": "3",
                }),
                retry=retry,
            ),
            store=flaky_store,
        )
        flaky = engine.run_transient()

        assert engine.metrics.retries == 1
        assert engine.metrics.quarantined == 0
        assert _quarantined(flaky) == []
        assert flaky.tally.counts == clean.tally.counts
        assert (
            (tmp_path / "flaky-store" / "results.csv").read_bytes()
            == (tmp_path / "clean" / "results.csv").read_bytes()
        )

    def test_trace_events_sum_to_final_tally_with_quarantines(self):
        sink = MemorySink()
        retry = RetryPolicy(max_attempts=2, **_FAST_RETRY)
        engine = CampaignEngine(
            ChaosOMriq.name,
            _chaos_config("raise", retry),
            tracer=Tracer(sink=sink),
        )
        result = engine.run_transient()

        events = sink.events
        injections = [e for e in events if e.get("name") == "injection"]
        retries = [e for e in events if e.get("name") == "injection_retry"]
        quarantines = [
            e for e in events if e.get("name") == "injection_quarantined"
        ]
        assert len(injections) == _N
        assert len(retries) == engine.metrics.retries
        assert len(quarantines) == _K
        assert sorted(e["attrs"]["index"] for e in quarantines) == _quarantined(
            result
        )
        for event in quarantines:
            assert event["attrs"]["reason"] == "exception"
            assert "RuntimeError" in event["attrs"]["error"]

        rebuilt = tally_from_trace(events)
        assert rebuilt.counts == result.tally.counts
        assert rebuilt.total == result.tally.total


# -- store round-trips ---------------------------------------------------------


class TestQuarantineResume:
    def test_quarantined_results_persist_and_resume_skips_them(self, tmp_path):
        retry = RetryPolicy(max_attempts=1, **_FAST_RETRY)
        store = CampaignStore(tmp_path / "study")
        first = CampaignEngine(
            ChaosOMriq.name, _chaos_config("raise", retry), store=store
        )
        result = first.run_transient()
        assert first.metrics.quarantined == _K
        csv_after_first = (tmp_path / "study" / "results.csv").read_bytes()
        assert store.completed_injections() == list(range(_N))

        # A fresh engine over the same store must not re-run anything — the
        # quarantined runs included (chaos mode off would change nothing:
        # nothing executes).
        second = CampaignEngine(
            ChaosOMriq.name, _chaos_config("raise", retry), store=store
        )
        resumed = second.run_transient()
        assert second.metrics.injections_loaded == _N
        assert second.metrics.injections_done == 0
        assert second.metrics.quarantined == 0
        assert resumed.tally.counts == result.tally.counts
        assert _quarantined(resumed) == _quarantined(result)
        assert (tmp_path / "study" / "results.csv").read_bytes() == csv_after_first

        # The stored quarantine round-trips its synthesized outcome exactly.
        for index in _quarantined(result):
            stored = store.load_injection(index)
            assert stored.outcome.symptom == HARNESS_FAILURE_SYMPTOM
            assert not stored.record.injected

    def test_interrupt_checkpoints_and_writes_partial_csv(self, tmp_path):
        store = CampaignStore(tmp_path / "study")

        class InterruptAfter(EngineHooks):
            def on_injection(self, index, outcome, completed, total, tally):
                if completed == 3:
                    raise KeyboardInterrupt

        engine = CampaignEngine(
            ChaosOMriq.name,
            _chaos_config("", RetryPolicy(max_attempts=1, **_FAST_RETRY),
                          num=6),
            store=store,
            hooks=InterruptAfter(),
        )
        with pytest.raises(KeyboardInterrupt):
            engine.run_transient()

        assert store.completed_injections() == [0, 1, 2]
        partial = (tmp_path / "study" / "results.csv").read_text().splitlines()
        assert len(partial) == 1 + 3  # header + the checkpointed rows

        resumed_engine = CampaignEngine(
            ChaosOMriq.name,
            _chaos_config("", RetryPolicy(max_attempts=1, **_FAST_RETRY),
                          num=6),
            store=store,
        )
        result = resumed_engine.run_transient()
        assert resumed_engine.metrics.injections_loaded == 3
        assert len(result.results) == 6
        full = (tmp_path / "study" / "results.csv").read_text().splitlines()
        assert len(full) == 1 + 6


# -- the weighted-tally satellite ----------------------------------------------


class TestWeightedTally:
    def test_engine_metrics_tally_matches_weighted_permanent_tally(self):
        engine = CampaignEngine(
            "314.omriq",
            repro.CampaignConfig(workload="314.omriq", seed=_SEED),
        )
        result = engine.run_permanent()
        assert result.tally.total != len(result.results)  # weights are real
        assert engine.metrics.tally.total == pytest.approx(result.tally.total)
        for outcome in repro.Outcome:
            assert engine.metrics.tally.counts[outcome] == pytest.approx(
                result.tally.counts[outcome]
            )


# -- parallel campaigns with failing tasks (multi-process: slow) ---------------


def _run_chaos(mode, retry, store, executor=None, num=_N):
    engine = CampaignEngine(
        ChaosOMriq.name,
        _chaos_config(mode, retry, num=num),
        executor=executor,
        store=store,
    )
    return engine, engine.run_transient()


@pytest.mark.slow
class TestParallelFailures:
    def test_worker_raise_matches_serial_byte_for_byte(self, tmp_path):
        retry = RetryPolicy(max_attempts=2, **_FAST_RETRY)
        _, _ = _run_chaos("raise", retry, CampaignStore(tmp_path / "serial"))
        parallel_engine, parallel = _run_chaos(
            "raise",
            retry,
            CampaignStore(tmp_path / "parallel"),
            executor=ParallelExecutor(max_workers=2),
        )
        assert len(parallel.results) == _N
        assert len(_quarantined(parallel)) == _K
        assert parallel_engine.metrics.quarantined == _K
        assert (
            (tmp_path / "parallel" / "results.csv").read_bytes()
            == (tmp_path / "serial" / "results.csv").read_bytes()
        )

    def test_hard_worker_death_is_quarantined_not_fatal(self, tmp_path):
        # os._exit in a worker breaks the whole pool; the executor must
        # respawn it, re-fly the innocent in-flight chunks uncharged, and
        # quarantine exactly the chunks that die when flown solo — ending
        # byte-identical to the serial campaign where the same tasks raise.
        retry = RetryPolicy(max_attempts=2, **_FAST_RETRY)
        _, _ = _run_chaos("raise", retry, CampaignStore(tmp_path / "serial"))
        engine, result = _run_chaos(
            "exit",
            retry,
            CampaignStore(tmp_path / "death"),
            executor=ParallelExecutor(max_workers=2),
        )
        assert len(result.results) == _N
        assert len(_quarantined(result)) == _K
        assert engine.metrics.quarantined == _K
        for index in _quarantined(result):
            item = result.results[index]
            assert item.outcome.symptom == HARNESS_FAILURE_SYMPTOM
        assert (
            (tmp_path / "death" / "results.csv").read_bytes()
            == (tmp_path / "serial" / "results.csv").read_bytes()
        )

    def test_hung_worker_hits_the_wall_clock_deadline(self, tmp_path):
        # The hang happens in host code (time.sleep), invisible to the
        # in-sim instruction budget: only the parent-side deadline can
        # reclaim the worker.  max_attempts=1 keeps it to one hang.
        retry = RetryPolicy(max_attempts=1, task_timeout=4.0, **_FAST_RETRY)
        serial_retry = RetryPolicy(max_attempts=1, **_FAST_RETRY)
        _, _ = _run_chaos(
            "raise", serial_retry, CampaignStore(tmp_path / "serial"),
            num=_N_SMALL,
        )
        sink = MemorySink()
        engine = CampaignEngine(
            ChaosOMriq.name,
            _chaos_config("hang", retry, num=_N_SMALL),
            executor=ParallelExecutor(max_workers=2),
            store=CampaignStore(tmp_path / "hang"),
            tracer=Tracer(sink=sink),
        )
        result = engine.run_transient()
        assert len(result.results) == _N_SMALL
        assert len(_quarantined(result)) == _K_SMALL
        assert engine.metrics.quarantined == _K_SMALL
        quarantines = [
            e for e in sink.events if e.get("name") == "injection_quarantined"
        ]
        assert [e["attrs"]["reason"] for e in quarantines] == ["timeout"]
        assert (
            (tmp_path / "hang" / "results.csv").read_bytes()
            == (tmp_path / "serial" / "results.csv").read_bytes()
        )

    def test_parallel_trace_events_sum_to_tally_with_quarantines(self, tmp_path):
        retry = RetryPolicy(max_attempts=2, **_FAST_RETRY)
        sink = MemorySink()
        engine = CampaignEngine(
            ChaosOMriq.name,
            _chaos_config("raise", retry),
            executor=ParallelExecutor(max_workers=2),
            tracer=Tracer(sink=sink),
        )
        result = engine.run_transient()
        rebuilt = tally_from_trace(sink.events)
        assert rebuilt.counts == result.tally.counts
        injections = [e for e in sink.events if e.get("name") == "injection"]
        assert len(injections) == _N
