"""CampaignEngine tests: one loop, three facades, identical results.

The parity class is the regression test for the historical parallel-runner
bug where workers rebuilt their sandbox from ``seed`` + ``instruction_budget``
only: with a non-default sandbox (``num_sms=4``, ``family="turing"``) the
pre-fix ``_run_one`` ran injections on a default Volta device, producing
records (SM ids) and outcomes that diverged from the serial campaign.
"""

import shutil

import pytest

from repro.core.campaign import CampaignConfig
from repro.core.engine import (
    CampaignEngine,
    EngineHooks,
    ParallelExecutor,
    SerialExecutor,
)
from repro.core.store import CampaignStore
from repro.errors import ReproError
from repro.runner.sandbox import SandboxConfig

_WORKLOAD = "314.omriq"
_N = 5


def _config() -> CampaignConfig:
    # Deliberately non-default sandbox: every field must reach the workers.
    return CampaignConfig(
        num_transient=_N,
        seed=13,
        sandbox=SandboxConfig(
            num_sms=4, family="turing", extra_env={"STUDY": "parity"}
        ),
    )


def _run(tmp, executor, interrupt=False):
    store = CampaignStore(tmp)
    engine = CampaignEngine(_WORKLOAD, _config(), executor=executor, store=store)
    result = engine.run_transient()
    if interrupt:
        # Simulate a killed campaign: drop two checkpoints, then resume with
        # a fresh engine (fresh process state) against the same store.
        for index in (1, 3):
            shutil.rmtree(tmp / "injections" / f"run_{index:05d}")
        engine = CampaignEngine(_WORKLOAD, _config(), executor=executor, store=store)
        result = engine.run_transient()
        assert engine.metrics.injections_loaded == _N - 2
    return result, (tmp / "results.csv").read_bytes(), engine


@pytest.mark.slow
class TestParity:
    """Serial, parallel and interrupted-then-resumed campaigns are identical."""

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        modes = {
            "serial": (SerialExecutor(), False),
            "parallel": (ParallelExecutor(max_workers=2), False),
            "resumed": (SerialExecutor(), True),
        }
        return {
            name: _run(tmp_path_factory.mktemp(name), executor, interrupt)
            for name, (executor, interrupt) in modes.items()
        }

    @pytest.mark.parametrize("mode", ["parallel", "resumed"])
    def test_results_csv_byte_identical(self, runs, mode):
        assert runs[mode][1] == runs["serial"][1]

    @pytest.mark.parametrize("mode", ["parallel", "resumed"])
    def test_site_lists_identical(self, runs, mode):
        assert [r.params for r in runs[mode][0].results] == [
            r.params for r in runs["serial"][0].results
        ]

    @pytest.mark.parametrize("mode", ["parallel", "resumed"])
    def test_records_identical(self, runs, mode):
        """Full-sandbox propagation: records carry SM ids, which depend on
        ``num_sms``; the pre-fix parallel worker diverged here."""
        assert [r.record for r in runs[mode][0].results] == [
            r.record for r in runs["serial"][0].results
        ]

    @pytest.mark.parametrize("mode", ["parallel", "resumed"])
    def test_tallies_identical(self, runs, mode):
        assert runs[mode][0].tally.fractions() == runs["serial"][0].tally.fractions()

    def test_sandbox_really_nondefault(self, runs):
        """The fixture must exercise a device the default config cannot
        produce, or this parity test would not catch config-dropping."""
        records = [r.record for r in runs["serial"][0].results if r.record.injected]
        assert records and all(r.sm_id < 4 for r in records)


class TestHooksAndMetrics:
    def test_hooks_and_metrics(self):
        phases = []
        seen = []

        class Hooks(EngineHooks):
            def on_phase(self, phase, seconds):
                phases.append(phase)

            def on_injection(self, index, outcome, completed, total, tally):
                seen.append((completed, total, tally.total))

        engine = CampaignEngine(
            _WORKLOAD, CampaignConfig(num_transient=3, seed=7), hooks=Hooks()
        )
        result = engine.run_transient()
        assert len(result.results) == 3
        assert ["golden", "replay", "profile", "select", "inject"] == phases
        assert [s[0] for s in seen] == [1, 2, 3]
        assert all(total == 3 for _, total, _ in seen)
        assert engine.metrics.injections_done == 3
        assert engine.metrics.injections_per_second > 0
        assert engine.metrics.tally.total == 3
        assert set(engine.metrics.phase_seconds) == set(phases)
        assert "inj/s" in engine.metrics.summary()


class TestPumpMatchesRunTransient:
    """``run_batch`` and ``run_transient`` share one injection loop."""

    @staticmethod
    def _engine(seen):
        class Hooks(EngineHooks):
            def on_injection(self, index, outcome, completed, total, tally):
                seen.append((completed, total))

        return CampaignEngine(
            _WORKLOAD, CampaignConfig(num_transient=4, seed=3), hooks=Hooks()
        )

    def test_run_batch_reports_inject_seconds_and_progress(self):
        pumped, driven = [], []
        pump = self._engine(pumped)
        pump.run_batch()
        assert pump.metrics.inject_seconds > 0
        assert pump.metrics.injections_per_second > 0
        assert not pump.metrics.summary().endswith(" 0.0 inj/s")
        engine = self._engine(driven)
        engine.run_transient(pump.plan_transient())
        assert pumped == driven == [(1, 4), (2, 4), (3, 4), (4, 4)]


class TestPermanentEngine:
    def test_permanent_checkpoint_and_resume(self, tmp_path):
        store = CampaignStore(tmp_path)
        engine = CampaignEngine(_WORKLOAD, CampaignConfig(seed=7), store=store)
        sites = engine.select_permanent()[:3]
        first = engine.run_permanent(sites)
        assert store.completed_permanent_injections() == [0, 1, 2]

        resumed = CampaignEngine(_WORKLOAD, CampaignConfig(seed=7), store=store)
        second = resumed.run_permanent(resumed.select_permanent()[:3])
        assert resumed.metrics.injections_loaded == 3
        assert resumed.metrics.injections_done == 0
        assert [r.outcome.outcome for r in second.results] == [
            r.outcome.outcome for r in first.results
        ]
        assert second.tally.fractions() == first.tally.fractions()
        assert [r.weight for r in second.results] == [r.weight for r in first.results]
        assert [r.activations for r in second.results] == [
            r.activations for r in first.results
        ]

    def test_intermittent_through_engine(self):
        from repro.core.params import IntermittentParams, PermanentParams

        engine = CampaignEngine(_WORKLOAD, CampaignConfig(seed=7))
        site = PermanentParams(sm_id=0, lane_id=0, bit_mask=1 << 3, opcode_id=24)
        params = IntermittentParams(site, process="random",
                                    activation_probability=0.2, seed=1)
        results = engine.run_intermittent([params, params])
        assert len(results) == 2
        assert results[0].outcome.outcome == results[1].outcome.outcome


class TestGuards:
    def test_parallel_requires_registry_workload(self):
        from repro.core.engine import InjectionTask
        from repro.runner.sandbox import SandboxSpec

        task = InjectionTask(0, "not-registered", "transient", None, SandboxSpec())
        with pytest.raises(ReproError, match="registry"):
            list(ParallelExecutor(max_workers=2).run([task]))

    def test_mismatched_store_rejected(self, tmp_path):
        store = CampaignStore(tmp_path)
        CampaignEngine(
            _WORKLOAD, CampaignConfig(num_transient=2, seed=1), store=store
        ).run_transient()
        other = CampaignEngine(
            _WORKLOAD, CampaignConfig(num_transient=2, seed=2), store=store
        )
        with pytest.raises(ReproError, match="different"):
            other.run_transient()
