"""Sandbox tests: artifact capture for every Table V signal."""

import dataclasses

import pytest

from repro.runner.app import AppContext, Application
from repro.runner.artifacts import RunArtifacts
from repro.runner.golden import GoldenError, capture_golden, hang_budget
from repro.runner.sandbox import EXIT_CRASH, EXIT_TIMEOUT, SandboxConfig, run_app

_HANG = """
.kernel spin
LOOP:
    BRA LOOP ;
    EXIT ;
"""

_BAD = """
.kernel bad
    MOV32I R1, 0x6 ;
    LDG.32 R0, [R1] ;
    EXIT ;
"""


class HelloApp(Application):
    name = "hello"

    def run(self, ctx: AppContext) -> None:
        ctx.print("hello", 42)
        ctx.write_file("data.bin", b"\x01\x02")


class HangApp(Application):
    name = "hang"

    def run(self, ctx: AppContext) -> None:
        module = ctx.cuda.load_module(_HANG)
        ctx.cuda.launch(ctx.cuda.get_function(module, "spin"), 1, 32)


class FaultyKernelApp(Application):
    name = "faulty"

    def __init__(self, check_errors: bool):
        self.check_errors = check_errors

    def run(self, ctx: AppContext) -> None:
        module = ctx.cuda.load_module(_BAD)
        ctx.cuda.launch(ctx.cuda.get_function(module, "bad"), 1, 1)
        ctx.print("done")
        if self.check_errors and ctx.cuda.synchronize() != 0:
            ctx.exit(1)


class CrashApp(Application):
    name = "crash"

    def run(self, ctx: AppContext) -> None:
        raise ValueError("segfault stand-in")


class TestCapture:
    def test_stdout_and_files(self):
        artifacts = run_app(HelloApp())
        assert artifacts.stdout == "hello 42\n"
        assert artifacts.files == {"data.bin": b"\x01\x02"}
        assert artifacts.exit_status == 0
        assert artifacts.wall_time > 0

    def test_hang_detected(self):
        artifacts = run_app(HangApp(), config=SandboxConfig(instruction_budget=5000))
        assert artifacts.timed_out
        assert artifacts.exit_status == EXIT_TIMEOUT

    def test_crash_detected(self):
        artifacts = run_app(CrashApp())
        assert artifacts.crashed
        assert "ValueError" in artifacts.crash_reason
        assert artifacts.exit_status == EXIT_CRASH

    def test_explicit_exit_code(self):
        class ExitApp(Application):
            name = "exiter"

            def run(self, ctx):
                ctx.exit(7)

        assert run_app(ExitApp()).exit_status == 7

    def test_unchecked_kernel_fault_is_silent(self):
        """Paper §IV-A: the GPU detected the error, the CPU never checked."""
        artifacts = run_app(FaultyKernelApp(check_errors=False))
        assert artifacts.exit_status == 0
        assert artifacts.cuda_errors  # ...but the anomaly is on record
        assert artifacts.dmesg

    def test_checked_kernel_fault_exits(self):
        artifacts = run_app(FaultyKernelApp(check_errors=True))
        assert artifacts.exit_status == 1

    def test_fresh_device_per_run(self):
        run_app(FaultyKernelApp(check_errors=False))
        clean = run_app(HelloApp())
        assert not clean.cuda_errors and not clean.dmesg

    def test_instruction_count_recorded(self):
        artifacts = run_app(HangApp(), config=SandboxConfig(instruction_budget=500))
        assert artifacts.instructions_executed >= 500

    def test_summary_strings(self):
        artifacts = run_app(HangApp(), config=SandboxConfig(instruction_budget=500))
        assert "TIMEOUT" in artifacts.summary()
        assert "clean" in run_app(HelloApp()).summary()


class TestSeeding:
    def test_seed_reaches_app(self):
        class SeedApp(Application):
            name = "seeded"

            def run(self, ctx):
                ctx.print(float(ctx.rng().random()))

        a = run_app(SeedApp(), config=SandboxConfig(seed=1)).stdout
        b = run_app(SeedApp(), config=SandboxConfig(seed=1)).stdout
        c = run_app(SeedApp(), config=SandboxConfig(seed=2)).stdout
        assert a == b
        assert a != c

    def test_extra_env_reaches_app(self):
        class EnvApp(Application):
            name = "env"

            def run(self, ctx):
                ctx.print(ctx.getenv("TOLERANCE", "default"))

        loose = run_app(
            EnvApp(), config=SandboxConfig(extra_env={"TOLERANCE": "loose"})
        )
        plain = run_app(EnvApp(), config=SandboxConfig())
        assert loose.stdout == "loose\n"
        assert plain.stdout == "default\n"


class TestFrozenConfig:
    def test_extra_env_mapping_is_kept_as_sorted_pairs(self):
        class EnvApp(Application):
            name = "env"

            def run(self, ctx):
                ctx.print(ctx.getenv("B"), ctx.getenv("A"))

        config = SandboxConfig(extra_env={"B": "2", "A": "1"})
        assert config.extra_env == (("A", "1"), ("B", "2"))
        assert run_app(EnvApp(), config=config).stdout == "2 1\n"

    def test_equal_configs_hash_equal(self):
        one = SandboxConfig(seed=7, extra_env={"A": "1", "B": "2"})
        two = SandboxConfig(seed=7, extra_env={"B": "2", "A": "1"})
        assert one == two
        assert hash(one) == hash(two)
        assert len({one, two, SandboxConfig(seed=8)}) == 2

    def test_pickle_keeps_every_field(self):
        import pickle

        config = SandboxConfig(
            seed=7, instruction_budget=123, family="turing", num_sms=4,
            global_mem_bytes=1 << 20, block_compile=False,
            extra_env={"A": "1", "B": "2"},
        )
        thawed = pickle.loads(pickle.dumps(config))
        assert thawed == config
        assert thawed.block_compile is False
        assert dataclasses.asdict(thawed) == dataclasses.asdict(config)

    def test_fields_cannot_be_assigned(self):
        config = SandboxConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.instruction_budget = 5
        from repro.core.campaign import CampaignConfig

        with pytest.raises(dataclasses.FrozenInstanceError):
            CampaignConfig().seed = 5

    def test_replace_applies_overrides(self):
        config = SandboxConfig(seed=7)
        copy = dataclasses.replace(config, seed=9, family="turing")
        assert (copy.seed, copy.family) == (9, "turing")
        assert (config.seed, config.family) == (7, "volta")

    def test_replace_names_a_misspelled_field(self):
        with pytest.raises(TypeError, match="instruction_budge"):
            dataclasses.replace(SandboxConfig(), instruction_budge=5)


class TestGoldenHelpers:
    def test_capture_golden_happy_path(self):
        golden = capture_golden(HelloApp())
        assert golden.stdout == "hello 42\n"

    def test_capture_golden_rejects_anomalies(self):
        with pytest.raises(GoldenError, match="anomalies"):
            capture_golden(FaultyKernelApp(check_errors=False))

    def test_capture_golden_rejects_crash(self):
        with pytest.raises(GoldenError, match="crashed"):
            capture_golden(CrashApp())

    def test_hang_budget_scales_from_golden(self):
        golden = RunArtifacts(instructions_executed=50_000)
        assert hang_budget(golden, factor=10) == 500_000

    def test_hang_budget_floor(self):
        golden = RunArtifacts(instructions_executed=10)
        assert hang_budget(golden, floor=100_000) == 100_000
