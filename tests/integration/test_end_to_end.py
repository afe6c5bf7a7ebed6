"""Cross-module integration tests: the full Figure 1 pipeline."""

import numpy as np

from repro.core.bitflip import BitFlipModel
from repro.core.campaign import CampaignConfig
from repro.core.engine import CampaignEngine
from repro.core.groups import InstructionGroup
from repro.core.injector import TransientInjectorTool
from repro.core.outcomes import Outcome, classify
from repro.core.profiler import ProfilerTool, ProfilingMode
from repro.core.site_selection import select_transient_sites
from repro.runner.golden import capture_golden
from repro.runner.sandbox import SandboxConfig, run_app
from repro.workloads import get_workload

from repro.utils.rng import SeedSequenceStream


class TestFigureOnePipeline:
    """Profile -> select -> inject -> classify, on a real workload."""

    def test_pipeline_steps_compose(self):
        app = get_workload("304.olbm")
        golden = capture_golden(app)

        profiler = ProfilerTool(ProfilingMode.EXACT)
        run_app(app, preload=[profiler])
        profile = profiler.profile
        assert profile.total_count(InstructionGroup.G_GP) > 0

        rng = SeedSequenceStream(3).child("sites").generator()
        sites = select_transient_sites(
            profile, InstructionGroup.G_GP, BitFlipModel.FLIP_SINGLE_BIT, 8, rng
        )
        outcomes = []
        for site in sites:
            injector = TransientInjectorTool(site)
            observed = run_app(app, preload=[injector])
            outcomes.append(classify(app, golden, observed))
            assert injector.record.injected, site
        assert all(o.outcome in Outcome for o in outcomes)

    def test_profile_counts_match_instrumented_reality(self):
        """The profile total equals what an independent counting tool sees."""
        from repro.cuda.driver import CudaEvent
        from repro.nvbit import IPoint, NVBitTool

        class IndependentCounter(NVBitTool):
            def __init__(self):
                super().__init__()
                self.total = 0
                self._done = set()

            def nvbit_at_cuda_event(self, driver, event, payload, is_exit):
                if event is CudaEvent.LAUNCH_KERNEL and not is_exit:
                    if payload.func not in self._done:
                        self._done.add(payload.func)
                        for instr in self.nvbit.get_instrs(payload.func):
                            instr.insert_call(
                                lambda s: self._bump(s), IPoint.AFTER
                            )
                    self.nvbit.enable_instrumented(payload.func, True)

            def _bump(self, site):
                self.total += site.num_executed

        app = get_workload("303.ostencil")
        profiler = ProfilerTool(ProfilingMode.EXACT)
        counter = IndependentCounter()
        run_app(app, preload=[profiler, counter])
        assert counter.total == profiler.profile.total_count()

    def test_masked_injection_leaves_run_bit_identical(self):
        """A never-activated injection must produce the golden artifacts."""
        app = get_workload("360.ilbdc")
        golden = capture_golden(app)
        from repro.core.params import TransientParams

        site = TransientParams(
            group=InstructionGroup.G_GP,
            model=BitFlipModel.FLIP_SINGLE_BIT,
            kernel_name="ilbdc_lattice",
            kernel_count=999,  # never reached
            instruction_count=0,
            dest_reg_selector=0.0,
            bit_pattern_value=0.0,
        )
        injector = TransientInjectorTool(site)
        observed = run_app(app, preload=[injector])
        assert not injector.record.injected
        assert observed.stdout == golden.stdout
        assert observed.files == golden.files


class TestOutcomeDiversity:
    def test_campaign_produces_mixed_outcomes(self):
        """Across enough random-value injections on a pointer-heavy program,
        the three Table V outcome classes all appear."""
        config = CampaignConfig(
            num_transient=40,
            seed=17,
            model=BitFlipModel.RANDOM_VALUE,
        )
        campaign = CampaignEngine(get_workload("356.sp"), config)
        result = campaign.run_transient()
        fractions = result.tally.fractions()
        assert fractions["SDC"] > 0
        assert fractions["Masked"] > 0
        assert fractions["SDC"] + fractions["DUE"] + fractions["Masked"] == 1.0

    def test_low_bit_fp_flips_mostly_masked_or_small_sdc(self):
        """Bit 0 flips of FP32 values should be overwhelmingly tolerated by
        SpecACCEL-style tolerance checks."""
        app = get_workload("363.swim")
        campaign = CampaignEngine(app, CampaignConfig(seed=5))
        campaign.run_golden()
        campaign.run_profile()
        from repro.core.params import TransientParams

        masked = 0
        sites = campaign.select_sites(15)
        for site in sites:
            low_bit = TransientParams(
                group=InstructionGroup.G_FP32,
                model=BitFlipModel.FLIP_SINGLE_BIT,
                kernel_name=site.kernel_name,
                kernel_count=site.kernel_count,
                instruction_count=site.instruction_count % 50,
                dest_reg_selector=0.0,
                bit_pattern_value=0.001,  # bit 0: one ULP
            )
            injector = TransientInjectorTool(low_bit)
            observed = run_app(app, preload=[injector],
                               config=campaign.injection_config())
            record = classify(app, campaign.golden, observed)
            if record.outcome is Outcome.MASKED:
                masked += 1
        assert masked >= 10  # > 2/3 masked


class TestHangInjection:
    def test_corrupted_loop_bound_hangs_and_is_due(self):
        """Flipping a high bit of a loop-bound register turns into a hang
        caught by the watchdog — the Table V 'Timeout' row, produced by a
        real injected fault rather than a synthetic artifact."""
        import numpy as np

        from repro.core.params import TransientParams
        from repro.runner.app import Application

        text = """
.kernel counter
.params 1
    MOV R1, RZ ;
    MOV R2, 50 ;
    PBK DONE ;
LOOP:
    ISETP.GE P0, R1, R2 ;
@P0 BRK ;
    IADD R1, R1, 1 ;
    BRA LOOP ;
DONE:
    MOV R3, c[0x0][0x0] ;
    STG.32 [R3], R1 ;
    EXIT ;
"""

        class CounterApp(Application):
            name = "counter_app"

            def run(self, ctx):
                module = ctx.cuda.load_module(text)
                out = ctx.cuda.alloc(1, np.uint32)
                ctx.cuda.launch(ctx.cuda.get_function(module, "counter"), 1, 1, out)
                ctx.write_file("out", out.to_host().tobytes())

        app = CounterApp()
        golden = capture_golden(app)
        # G_GP stream: MOV(1), MOV(1) <- target the second MOV (loop bound,
        # R2=50) and flip bit 30.
        site = TransientParams(
            group=InstructionGroup.G_GP,
            model=BitFlipModel.FLIP_SINGLE_BIT,
            kernel_name="counter",
            kernel_count=0,
            instruction_count=1,
            dest_reg_selector=0.0,
            bit_pattern_value=30.5 / 32,
        )
        injector = TransientInjectorTool(site)
        observed = run_app(
            app, preload=[injector],
            config=SandboxConfig(instruction_budget=20_000),
        )
        record = classify(app, golden, observed)
        assert injector.record.injected
        assert observed.timed_out
        assert record.outcome is Outcome.DUE
        assert "Timeout" in record.symptom
