"""CLI tests (`python -m repro ...`)."""

import json

import pytest

from repro.core.cli import main
from repro.core.params import TransientParams


class TestList:
    def test_lists_all_workloads(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("303.ostencil", "370.bt", "360.ilbdc"):
            assert name in out


class TestProfile:
    def test_profile_to_stdout(self, capsys):
        assert main(["profile", "314.omriq"]) == 0
        captured = capsys.readouterr()
        assert "computeQ" in captured.out
        assert "dynamic kernels" in captured.err

    def test_profile_to_file(self, tmp_path, capsys):
        target = tmp_path / "profile.txt"
        assert main(["profile", "360.ilbdc", "--output", str(target)]) == 0
        assert "ilbdc_lattice" in target.read_text()

    def test_approximate_mode(self, capsys):
        assert main(["profile", "360.ilbdc", "--mode", "approximate"]) == 0
        assert ";~;" in capsys.readouterr().out  # approximated records


class TestSelect:
    def test_select_emits_param_blocks(self, capsys):
        assert main(["select", "314.omriq", "--count", "3", "--seed", "9"]) == 0
        out = capsys.readouterr().out
        blocks = [b for b in out.strip().split("\n\n") if b.strip()]
        assert len(blocks) == 3
        for block in blocks:
            TransientParams.from_text(block)  # must parse


class TestInject:
    def test_inject_from_param_file(self, tmp_path, capsys):
        params = TransientParams(
            group=8, model=1, kernel_name="computeQ", kernel_count=0,
            instruction_count=500, dest_reg_selector=0.1, bit_pattern_value=0.4,
        )
        path = tmp_path / "params.txt"
        path.write_text(params.to_text())
        code = main(["inject", "314.omriq", str(path)])
        out = capsys.readouterr().out
        assert "injected" in out
        assert code in (0, 1)


class TestInjectSandboxFlags:
    def _params_file(self, tmp_path):
        params = TransientParams(
            group=8, model=1, kernel_name="ilbdc_lattice", kernel_count=0,
            instruction_count=100, dest_reg_selector=0.3, bit_pattern_value=0.6,
        )
        path = tmp_path / "params.txt"
        path.write_text(params.to_text())
        return str(path)

    def test_inject_accepts_sandbox_flags(self, tmp_path, capsys):
        code = main([
            "inject", "360.ilbdc", self._params_file(tmp_path),
            "--family", "volta", "--num-sms", "4", "--env", "DEBUG=1",
        ])
        assert code in (0, 1)
        assert "injected" in capsys.readouterr().out

    def test_inject_matches_api_result(self, tmp_path, capsys):
        """The CLI routes through repro.api.inject: same record, same outcome."""
        from repro import api

        params_path = self._params_file(tmp_path)
        code = main(["inject", "360.ilbdc", params_path])
        out = capsys.readouterr().out

        params = TransientParams.from_text(
            (tmp_path / "params.txt").read_text()
        )
        expected = api.inject("360.ilbdc", params)
        assert expected.record.describe() in out
        assert expected.outcome.label() in out
        assert code == (0 if expected.masked else 1)

    def test_bad_env_flag_rejected(self, tmp_path):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="KEY=VALUE"):
            main([
                "inject", "360.ilbdc", self._params_file(tmp_path),
                "--env", "NOEQUALS",
            ])


class TestObservabilityFlags:
    def test_campaign_trace_and_metrics_json(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        assert main([
            "campaign", "360.ilbdc", "--injections", "3", "--seed", "2",
            "--trace", str(trace_path), "--metrics", "json", "--format", "json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["injections"] == 3
        assert doc["metrics"]["counters"]["engine.injections.done"] == 3

        from repro.core.report import phase_breakdown, tally_from_trace

        durations = phase_breakdown(str(trace_path))
        assert {"golden", "profile", "select", "inject"} <= set(durations)
        tally = tally_from_trace(str(trace_path))
        assert tally.total == 3
        assert tally.fractions() == doc["fractions"]

    def test_campaign_metrics_text(self, capsys):
        assert main([
            "campaign", "360.ilbdc", "--injections", "2", "--seed", "2",
            "--metrics", "text",
        ]) == 0
        out = capsys.readouterr().out
        assert "engine.injections.done 2" in out

    def test_trace_subcommand_renders_breakdown(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        main([
            "campaign", "360.ilbdc", "--injections", "2", "--seed", "2",
            "--trace", str(trace_path),
        ])
        capsys.readouterr()
        assert main(["trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "phase" in out
        assert "inject" in out
        assert "2 injection event(s)" in out

    def test_select_format_json(self, capsys):
        assert main([
            "select", "360.ilbdc", "--count", "2", "--seed", "9",
            "--format", "json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc) == 2
        for site in doc:
            TransientParams(**site)  # must reconstruct


class TestHelpSnapshots:
    """Help-text snapshots: every user-facing knob must stay advertised.

    A flag silently dropped from the parser (or renamed) changes the
    public interface; these assertions pin the inventory without pinning
    argparse's exact formatting."""

    def _help(self, capsys, *argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        return capsys.readouterr().out

    def test_top_level_lists_every_subcommand(self, capsys):
        out = self._help(capsys)
        for sub in ("list", "profile", "select", "inject", "campaign",
                    "trace", "report", "dump"):
            assert sub in out

    def test_campaign_lists_every_knob(self, capsys):
        out = self._help(capsys, "campaign")
        for flag in (
            "--injections", "--group", "--model", "--permanent",
            "--workers", "--chunksize", "--store", "--progress",
            "--format", "--max-attempts", "--task-timeout", "--on-failure",
            "--fast-forward", "--no-fast-forward",
            "--tail-fast-forward", "--no-tail-fast-forward",
            "--batch-launch", "--no-batch-launch", "--replay-cache",
            "--seed", "--trace", "--metrics",
            "--target-outcome", "--confidence", "--half-width",
            "--sampling", "--batch-size",
        ):
            assert flag in out, f"{flag} missing from campaign --help"

    def test_campaign_adaptive_choices_advertised(self, capsys):
        out = self._help(capsys, "campaign")
        for choice in ("SDC", "DUE", "Masked",
                       "uniform", "stratified", "importance"):
            assert choice in out

    def test_report_lists_every_knob(self, capsys):
        out = self._help(capsys, "report")
        assert "ci" in out
        assert "--confidence" in out

    def test_tail_help_states_the_contract(self, capsys):
        """The tail knob's help must say what makes it safe to leave on.
        (argparse may wrap hyphenated words, so compare ignoring
        whitespace.)"""
        out = "".join(self._help(capsys, "campaign").split())
        assert "byte-identical" in out
        assert "re-convergeswiththegoldenrun" in out

    def test_inject_lists_sandbox_flags(self, capsys):
        out = self._help(capsys, "inject")
        for flag in ("--seed", "--family", "--num-sms", "--env"):
            assert flag in out


class TestCampaignCommand:
    def test_transient_campaign(self, capsys):
        assert main(["campaign", "360.ilbdc", "--injections", "4", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "4 transient injections" in out
        assert "SDC=" in out

    def test_campaign_with_permanent(self, capsys):
        assert main([
            "campaign", "314.omriq", "--injections", "2", "--permanent",
        ]) == 0
        out = capsys.readouterr().out
        assert "permanent injections" in out

    def test_unknown_workload(self):
        with pytest.raises(KeyError, match="unknown workload"):
            main(["profile", "999.nope"])

    def test_retired_snapshot_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "314.omriq", "--snapshot"])
        assert exc.value.code == 2
        assert "--snapshot" in capsys.readouterr().err


class TestAdaptiveCampaignCommand:
    _ADAPTIVE = [
        "campaign", "303.ostencil", "--seed", "3",
        "--target-outcome", "SDC", "--confidence", "0.9",
        "--half-width", "0.12", "--batch-size", "10", "--injections", "60",
    ]

    def test_adaptive_summary_printed(self, capsys):
        assert main(self._ADAPTIVE) == 0
        out = capsys.readouterr().out
        assert "sampling=uniform" in out
        assert "stopped early at" in out

    def test_adaptive_json_document(self, capsys):
        assert main([*self._ADAPTIVE, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        adaptive = doc["adaptive"]
        assert adaptive["budget"] == 60
        assert adaptive["stopped_early_at"] is not None
        assert adaptive["injections_saved"] > 0
        assert adaptive["estimate"]["half_width"] <= 0.12

    def test_budget_defaults_to_fixed_n(self, capsys):
        """--target-outcome without --injections caps the campaign at the
        rule's fixed-N equivalent (0.90/±0.12 → 47)."""
        assert main([
            "campaign", "303.ostencil", "--seed", "3",
            "--target-outcome", "SDC", "--confidence", "0.9",
            "--half-width", "0.12", "--batch-size", "10",
            "--format", "json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["adaptive"]["budget"] == 47

    def test_stratified_sampling_flag(self, capsys):
        assert main([
            "campaign", "303.ostencil", "--seed", "3", "--injections", "20",
            "--sampling", "stratified", "--batch-size", "10",
        ]) == 0
        out = capsys.readouterr().out
        assert "sampling=stratified" in out
        assert "per-stratum injections" in out


class TestReportCommand:
    def _store(self, tmp_path):
        store = tmp_path / "study"
        main([
            "campaign", "303.ostencil", "--seed", "3", "--injections", "6",
            "--store", str(store),
        ])
        return store

    def test_report_ci_renders_strata(self, tmp_path, capsys):
        store = self._store(tmp_path)
        capsys.readouterr()
        assert main(["report", "ci", str(store)]) == 0
        out = capsys.readouterr().out
        assert "confidence level: 95%" in out
        assert "(all)" in out
        assert "heat_step" in out

    def test_report_ci_custom_confidence(self, tmp_path, capsys):
        store = self._store(tmp_path)
        capsys.readouterr()
        assert main(["report", "ci", str(store), "--confidence", "0.8"]) == 0
        assert "confidence level: 80%" in capsys.readouterr().out

    def test_report_ci_empty_partial_results(self, tmp_path, capsys):
        """An interrupted campaign's header-only results.csv renders n/a."""
        store = tmp_path / "empty"
        store.mkdir()
        (store / "results.csv").write_text(
            "index,kernel,kernel_count,instruction_count,group,model,"
            "outcome,symptom,potential_due,injected,instructions\n"
        )
        assert main(["report", "ci", str(store)]) == 0
        out = capsys.readouterr().out
        assert "n/a" in out
        assert "no completed injections" in out

    def test_report_ci_missing_store(self, tmp_path):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="no results.csv"):
            main(["report", "ci", str(tmp_path / "nowhere")])


class TestDump:
    def test_dump_all_kernels(self, capsys):
        assert main(["dump", "314.omriq"]) == 0
        out = capsys.readouterr().out
        assert ".kernel computePhiMag" in out
        assert ".kernel computeQ" in out
        assert "FFMA" in out

    def test_dump_single_kernel(self, capsys):
        assert main(["dump", "314.omriq", "--kernel", "computeQ"]) == 0
        out = capsys.readouterr().out
        assert ".kernel computeQ" in out
        assert ".kernel computePhiMag" not in out

    def test_dump_output_reassembles(self, capsys):
        from repro.sass import assemble

        main(["dump", "360.ilbdc"])
        out = capsys.readouterr().out
        module = assemble(out)
        assert "ilbdc_lattice" in module.kernels
