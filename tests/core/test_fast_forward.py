"""Campaign-level golden-replay fast-forward: byte-parity and counters.

The contract (ISSUE: golden-replay + tail fast-forward): ``results.csv``
is byte-identical with fast-forward — pre-target replay *and* tail
replay-after-re-convergence — on or off, for serial, parallel, resumed,
and campaigns containing quarantined failures, because replayed launches
restore the exact recorded write deltas and counter deltas.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.campaign import CampaignConfig
from repro.core.engine import CampaignEngine, ParallelExecutor
from repro.core.params import IntermittentParams
from repro.core.resilience import RetryPolicy
from repro.core.store import CampaignStore
from repro.obs import MemorySink, MetricsRegistry, Tracer, spans
from repro.workloads.omriq import OMriq
from repro.workloads.registry import WORKLOADS

_WORKLOAD = "303.ostencil"  # 21 launches: a real fast-forward window
_N = 6
_SEED = 3


class FFChaosOMriq(OMriq):
    """Raises out of the sandbox whenever the fault corrupted the output
    (a deterministic function of the campaign seed), producing quarantined
    results identical under every executor and fast-forward setting."""

    name = "998.ffchaos"
    description = "OMriq variant used by fast-forward quarantine parity"

    def run(self, ctx) -> None:
        super().run(ctx)
        data = np.frombuffer(ctx.files[self.output_file], dtype=np.float32)
        finite = data[np.isfinite(data)]
        if finite.size != data.size or bool((np.abs(finite) > 1e6).any()):
            raise RuntimeError("chaos: corrupted device output")


@pytest.fixture(autouse=True, scope="module")
def _register_chaos():
    WORKLOADS[FFChaosOMriq.name] = FFChaosOMriq
    yield
    WORKLOADS.pop(FFChaosOMriq.name, None)


def _results_csv(tmp_path, label, fast_forward, executor=None, **overrides):
    store_dir = tmp_path / f"{label}-{'ff' if fast_forward else 'full'}"
    config = CampaignConfig(
        workload=overrides.pop("workload", _WORKLOAD),
        num_transient=overrides.pop("num_transient", _N),
        seed=overrides.pop("seed", _SEED),
        fast_forward=fast_forward,
        **overrides,
    )
    repro.run_campaign(config, executor=executor, store=CampaignStore(store_dir))
    return (store_dir / "results.csv").read_bytes()


class TestResultsByteParity:
    def test_serial(self, tmp_path):
        assert _results_csv(tmp_path, "serial", True) == _results_csv(
            tmp_path, "serial", False
        )

    @pytest.mark.slow
    def test_parallel(self, tmp_path):
        executor = ParallelExecutor(max_workers=2)
        parallel_ff = _results_csv(tmp_path, "par", True, executor=executor)
        serial_full = _results_csv(tmp_path, "ser", False)
        assert parallel_ff == serial_full

    def test_resumed(self, tmp_path):
        for fast_forward, label in ((True, "ff"), (False, "full")):
            store = CampaignStore(tmp_path / f"resumed-{label}")
            config = CampaignConfig(
                workload=_WORKLOAD, num_transient=_N, seed=_SEED,
                fast_forward=fast_forward,
            )
            # First campaign: a prefix of the plan, then "interrupted".
            first = CampaignEngine(_WORKLOAD, config, store=store)
            first.run_transient(first.select_sites()[:3])
            # Second campaign resumes the stored prefix and finishes.
            resumed = CampaignEngine(_WORKLOAD, config, store=store)
            resumed.run_transient()
            assert resumed.metrics.injections_loaded == 3
        ff = (tmp_path / "resumed-ff" / "results.csv").read_bytes()
        full = (tmp_path / "resumed-full" / "results.csv").read_bytes()
        assert ff == full

    def test_quarantine(self, tmp_path):
        """Campaigns containing harness failures keep byte parity: the
        quarantined (synthesized DUE) rows carry only deterministic fields."""
        retry = RetryPolicy(max_attempts=1, jitter=0.0)
        ff = _results_csv(
            tmp_path, "chaos", True,
            workload=FFChaosOMriq.name, num_transient=12, seed=4, retry=retry,
        )
        full = _results_csv(
            tmp_path, "chaos", False,
            workload=FFChaosOMriq.name, num_transient=12, seed=4, retry=retry,
        )
        assert ff == full
        assert b"Monitor detection" in ff  # the failures really quarantined


class TestTailByteParity:
    """Tail fast-forward on vs off (pre-target replay on in both): the
    re-armed tape restores the exact deltas the simulator would produce,
    so ``results.csv`` cannot move in any execution mode."""

    def _pair(self, tmp_path, label, **overrides):
        on = _results_csv(
            tmp_path, f"{label}-tail", True, tail_fast_forward=True, **overrides
        )
        off = _results_csv(
            tmp_path, f"{label}-notail", True, tail_fast_forward=False,
            **overrides,
        )
        return on, off

    def test_serial(self, tmp_path):
        on, off = self._pair(tmp_path, "serial")
        assert on == off

    @pytest.mark.slow
    def test_parallel(self, tmp_path):
        executor = ParallelExecutor(max_workers=2)
        on = _results_csv(
            tmp_path, "par-tail", True, executor=executor,
            tail_fast_forward=True,
        )
        off = _results_csv(
            tmp_path, "par-notail", True, tail_fast_forward=False
        )
        assert on == off

    def test_resumed(self, tmp_path):
        for tail, label in ((True, "tail"), (False, "notail")):
            store = CampaignStore(tmp_path / f"resumed-{label}")
            config = CampaignConfig(
                workload=_WORKLOAD, num_transient=_N, seed=_SEED,
                fast_forward=True, tail_fast_forward=tail,
            )
            first = CampaignEngine(_WORKLOAD, config, store=store)
            first.run_transient(first.select_sites()[:3])
            resumed = CampaignEngine(_WORKLOAD, config, store=store)
            resumed.run_transient()
            assert resumed.metrics.injections_loaded == 3
        on = (tmp_path / "resumed-tail" / "results.csv").read_bytes()
        off = (tmp_path / "resumed-notail" / "results.csv").read_bytes()
        assert on == off

    def test_quarantine(self, tmp_path):
        retry = RetryPolicy(max_attempts=1, jitter=0.0)
        on, off = self._pair(
            tmp_path, "chaos",
            workload=FFChaosOMriq.name, num_transient=12, seed=4, retry=retry,
        )
        assert on == off
        assert b"Monitor detection" in on  # the failures really quarantined


class TestReplayObservability:
    def _run(self, fast_forward, tail_fast_forward=True):
        sink = MemorySink()
        registry = MetricsRegistry()
        engine = CampaignEngine(
            _WORKLOAD,
            CampaignConfig(
                workload=_WORKLOAD, num_transient=_N, seed=_SEED,
                fast_forward=fast_forward,
                tail_fast_forward=tail_fast_forward,
            ),
            tracer=Tracer(sink=sink),
            metrics=registry,
        )
        engine.run_transient()
        return engine, sink, registry

    def test_counters_and_span_present(self):
        engine, sink, registry = self._run(fast_forward=True)
        snap = registry.snapshot()["counters"]
        assert snap["engine.replay.hits"] > 0
        assert snap["engine.replay.launches_skipped"] >= snap["engine.replay.hits"]
        assert len(spans(sink.events, "replay")) == 1
        assert "replay" in engine.metrics.phase_seconds

    def test_disabled_leaves_no_trace(self):
        engine, sink, registry = self._run(fast_forward=False)
        snap = registry.snapshot()["counters"]
        assert "engine.replay.hits" not in snap
        assert spans(sink.events, "replay") == []
        assert "replay" not in engine.metrics.phase_seconds

    def test_skips_bounded_by_target_launch(self):
        """Divergence guard, campaign level: an injection run may only have
        replayed launches strictly before its target launch — the target
        and everything after always simulate."""
        engine, sink, registry = self._run(fast_forward=True)
        log = engine._replay_log
        assert log is not None
        sites = engine.select_sites()
        stops = {
            index: log.stop_launch_for(site.kernel_name, site.kernel_count)
            for index, site in enumerate(sites)
        }
        # A site whose target is the very first launch has nothing to
        # replay before it (its cursor simulates launch 0 at once and
        # reports 0 launches skipped).  Every other site replays exactly
        # the launches strictly before its target, never past it.
        windows = sorted(v for v in stops.values() if v)
        runs = [
            s for s in spans(sink.events, "run")
            if s["attrs"].get("replay_launches_skipped", 0) > 0
        ]
        assert len(spans(sink.events, "run")) >= _N
        assert len(runs) == len(windows)
        skipped = sorted(s["attrs"]["replay_launches_skipped"] for s in runs)
        assert skipped == windows  # each run skipped exactly its window
        assert all(v < len(log.launches) for v in windows)
        snap = registry.snapshot()["counters"]
        assert snap["engine.replay.launches_skipped"] == sum(windows)

    def test_tail_counters_and_span_attrs(self):
        """Masked faults dominate this campaign; at least one run must
        re-converge and tail-replay, feeding the tail counters, the
        converged-at histogram and the run-span attributes."""
        engine, sink, registry = self._run(fast_forward=True)
        snap = registry.snapshot()
        counters = snap["counters"]
        assert counters["engine.replay.tail_hits"] > 0
        assert (
            counters["engine.replay.tail_launches_skipped"]
            >= counters["engine.replay.tail_hits"]
        )
        histogram = snap["histograms"]["engine.replay.converged_at_launch"]
        assert histogram["count"] == counters["engine.replay.tail_hits"]
        converged = [
            s for s in spans(sink.events, "run")
            if s["attrs"].get("replay_tail_skipped", 0) > 0
        ]
        assert len(converged) == counters["engine.replay.tail_hits"]
        log = engine._replay_log
        for span in converged:
            attrs = span["attrs"]
            # The re-convergence boundary sits at or after the target and
            # strictly before the end of the tape, and the tail replays
            # exactly the remaining launches.
            assert 0 <= attrs["replay_converged_at"] < len(log.launches)
            assert attrs["replay_tail_skipped"] == (
                len(log.launches) - attrs["replay_converged_at"]
            )

    def test_tail_disabled_leaves_no_tail_counters(self):
        _, sink, registry = self._run(fast_forward=True, tail_fast_forward=False)
        counters = registry.snapshot()["counters"]
        assert counters["engine.replay.hits"] > 0  # pre-target replay still on
        assert "engine.replay.tail_hits" not in counters
        assert all(
            s["attrs"].get("replay_tail_skipped", 0) == 0
            for s in spans(sink.events, "run")
        )

    def test_api_override(self, tmp_path):
        """``with_overrides(tail_fast_forward=...)`` overrides the knob."""
        store = CampaignStore(tmp_path / "api-override")
        registry = MetricsRegistry()
        config = CampaignConfig(
            workload=_WORKLOAD, num_transient=_N, seed=_SEED,
            tail_fast_forward=True,
        )
        repro.run_campaign(
            config.with_overrides(tail_fast_forward=False),
            store=CampaignStore(tmp_path / "api-override"),
            metrics=registry,
        )
        assert "engine.replay.tail_hits" not in registry.snapshot()["counters"]
        baseline = _results_csv(tmp_path, "api-baseline", True)
        assert (store.root / "results.csv").read_bytes() == baseline


# Permanent and intermittent tasks replay every launch their fault cannot
# reach.  Each setting must give the same per-run rows and the same
# simulated totals.
_FF_SETTINGS = {
    "ff+tail": dict(fast_forward=True, tail_fast_forward=True),
    "ff": dict(fast_forward=True, tail_fast_forward=False),
    "full": dict(fast_forward=False),
}
_PERM_PROGRAMS = ("303.ostencil", "359.miniGhost", FFChaosOMriq.name)


def _intermittent_sites(engine: CampaignEngine) -> list[IntermittentParams]:
    """Every third permanent site, alternately random and bursty."""
    return [
        IntermittentParams(
            site,
            process="random" if i % 2 else "bursty",
            activation_probability=0.5,
            burst_length=3.0,
            seed=i,
        )
        for i, site in enumerate(engine.select_permanent()[::3])
    ]


def _fault_runs(workload, setting, intermittent=False, executor=None):
    """One permanent (or intermittent) campaign: its per-run rows and the
    registry's counters."""
    registry = MetricsRegistry()
    config = CampaignConfig(
        workload=workload, seed=_SEED,
        retry=RetryPolicy(max_attempts=1, jitter=0.0),
        **_FF_SETTINGS[setting],
    )
    engine = CampaignEngine(workload, config, executor=executor, metrics=registry)
    if intermittent:
        results = engine.run_intermittent(_intermittent_sites(engine))
    else:
        results = engine.run_permanent().results
    rows = [
        (r.opcode, r.outcome.outcome.value, r.outcome.symptom,
         r.activations, r.weight)
        for r in results
    ]
    return rows, registry.snapshot()["counters"]


def _simulated(counters) -> tuple:
    return counters["gpusim.instructions_retired"], counters["gpusim.cycles"]


class TestPermanentParity:
    @pytest.mark.parametrize("workload", _PERM_PROGRAMS)
    @pytest.mark.parametrize("intermittent", [False, True],
                             ids=["permanent", "intermittent"])
    def test_serial(self, workload, intermittent):
        runs = {
            setting: _fault_runs(workload, setting, intermittent)
            for setting in _FF_SETTINGS
        }
        rows, counters = runs["full"]
        assert rows
        for setting in ("ff+tail", "ff"):
            assert runs[setting][0] == rows, setting
            assert _simulated(runs[setting][1]) == _simulated(counters), setting
        if workload != FFChaosOMriq.name:
            # Launches the faults cannot reach really replayed.
            replayed = runs["ff+tail"][1]
            assert replayed.get("engine.replay.launches_skipped", 0) + (
                replayed.get("engine.replay.tail_launches_skipped", 0)
            ) > 0
        assert "engine.replay.hits" not in counters

    @pytest.mark.slow
    @pytest.mark.parametrize("workload", _PERM_PROGRAMS)
    @pytest.mark.parametrize("intermittent", [False, True],
                             ids=["permanent", "intermittent"])
    def test_parallel(self, workload, intermittent):
        executor = ParallelExecutor(max_workers=2)
        for setting in ("ff+tail", "ff"):
            pooled = _fault_runs(workload, setting, intermittent, executor)
            serial = _fault_runs(workload, "full", intermittent)
            assert pooled[0] == serial[0], setting
            assert _simulated(pooled[1]) == _simulated(serial[1]), setting
