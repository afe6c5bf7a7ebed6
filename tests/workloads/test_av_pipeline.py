"""AV-pipeline tests: fault injection into dynamically loaded libraries.

This is the paper's headline scenario (§IV): the target kernels live in
runtime-loaded libraries the host program was never compiled against, yet
NVBitFI profiles and injects into them transparently.
"""


from repro.core.bitflip import BitFlipModel
from repro.core.campaign import CampaignConfig
from repro.core.engine import CampaignEngine
from repro.core.groups import InstructionGroup
from repro.core.injector import TransientInjectorTool
from repro.core.outcomes import Outcome, classify
from repro.core.params import TransientParams
from repro.core.profiler import ProfilerTool, ProfilingMode
from repro.runner.golden import capture_golden
from repro.runner.sandbox import run_app
from repro.workloads import AvPipeline


class TestGolden:
    def test_runs_clean(self):
        golden = capture_golden(AvPipeline())
        assert "processed 5 frames" in golden.stdout

    def test_libraries_loaded_at_runtime(self):
        app = AvPipeline()

        class LibrarySpy(ProfilerTool):
            loaded = []

            def nvbit_at_cuda_event(self, driver, event, payload, is_exit):
                from repro.cuda.driver import CudaEvent

                if event is CudaEvent.MODULE_LOAD and is_exit:
                    self.loaded.append((payload.name, payload.is_library))
                super().nvbit_at_cuda_event(driver, event, payload, is_exit)

        spy = LibrarySpy()
        run_app(app, preload=[spy])
        libraries = [name for name, is_lib in spy.loaded if is_lib]
        assert set(libraries) == {"libperception.so", "libplanning.so"}


class TestProfilingLibraries:
    def test_profiler_sees_library_kernels(self):
        """No source, no recompilation — the profiler still sees everything."""
        profiler = ProfilerTool(ProfilingMode.EXACT)
        run_app(AvPipeline(), preload=[profiler])
        names = {kp.kernel_name for kp in profiler.profile.kernels}
        assert "detect_layer" in names  # from libperception.so
        assert "planning_cost" in names  # from libplanning.so
        assert profiler.profile.num_dynamic_kernels == 25  # 5 kernels x 5 frames


class TestInjectionIntoLibrary:
    def test_inject_into_library_kernel(self):
        app = AvPipeline()
        golden = capture_golden(app)
        params = TransientParams(
            group=InstructionGroup.G_GP,
            model=BitFlipModel.RANDOM_VALUE,
            kernel_name="detect_layer",
            kernel_count=2,  # third frame
            instruction_count=64,
            dest_reg_selector=0.0,
            bit_pattern_value=0.9,
        )
        injector = TransientInjectorTool(params)
        observed = run_app(app, preload=[injector])
        assert injector.record.injected
        assert injector.record.kernel_name == "detect_layer"
        record = classify(app, golden, observed)
        assert record.outcome in (Outcome.SDC, Outcome.MASKED, Outcome.DUE)

    def test_full_campaign_over_library_app(self):
        campaign = CampaignEngine(AvPipeline(), CampaignConfig(num_transient=6, seed=4))
        result = campaign.run_transient()
        assert len(result.results) == 6
        injected_kernels = {
            r.record.kernel_name for r in result.results if r.record.injected
        }
        # Sites land inside the dynamically loaded libraries.
        library_kernels = {
            "perception_preprocess", "detect_layer", "perception_nms",
            "planning_track", "planning_cost",
        }
        assert injected_kernels <= library_kernels
        assert injected_kernels  # at least one actually injected


class TestRealtimeCheck:
    def test_backup_mode_on_detected_failure(self):
        """A corrupted pointer that faults the GPU trips the per-frame
        check and engages the backup path (exit 9 => DUE)."""
        app = AvPipeline()
        golden = capture_golden(app)
        outcomes = []
        for seed in range(25):
            params = TransientParams(
                group=InstructionGroup.G_GP,
                model=BitFlipModel.RANDOM_VALUE,
                kernel_name="detect_layer",
                kernel_count=0,
                instruction_count=seed * 7,
                dest_reg_selector=0.0,
                bit_pattern_value=0.97,
            )
            injector = TransientInjectorTool(params)
            observed = run_app(app, preload=[injector])
            outcomes.append(classify(app, golden, observed))
        # Random-value corruption of address-feeding registers produces at
        # least one detected failure across 25 runs.
        assert any(o.outcome is Outcome.DUE for o in outcomes)
