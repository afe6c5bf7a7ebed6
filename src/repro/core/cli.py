"""Command-line interface: ``python -m repro <command>``.

Mirrors the real package's convenience scripts: profile a target, select
fault sites, run a single injection from a parameter file, run a whole
campaign, or analyse a recorded campaign trace.

All run-producing commands share the same sandbox flags (``--family``,
``--num-sms``, ``--env``) and observability flags (``--trace FILE`` writes
a JSONL span/event trace, ``--metrics {text,json}`` prints the metrics
registry at exit); ``select`` and ``campaign`` also take
``--format {text,json}`` for machine-readable output.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.bitflip import BitFlipModel
from repro.core.campaign import CampaignConfig
from repro.core.groups import InstructionGroup
from repro.core.kinds import CampaignKind
from repro.core.params import TransientParams
from repro.core.profiler import ProfilingMode
from repro.errors import ReproError
from repro.obs import JsonlSink, MetricsRegistry, NULL_TRACER, Tracer
from repro.runner.sandbox import SandboxConfig
from repro.workloads import WORKLOADS, get_workload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NVBitFI reproduction: GPU fault-injection campaigns "
        "on a simulated device",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available workloads")

    profile = sub.add_parser("profile", help="profile a workload")
    _add_common(profile)
    _add_sandbox(profile)
    _add_obs(profile)
    profile.add_argument(
        "--mode", choices=["exact", "approximate"], default="exact"
    )
    profile.add_argument("--output", help="write the profile to this file")

    select = sub.add_parser("select", help="select transient fault sites")
    _add_common(select)
    select.add_argument("--count", type=int, default=10)
    select.add_argument("--group", type=int, default=8, help="arch state id (Table II)")
    select.add_argument("--model", type=int, default=1, help="bit-flip model (Table II)")
    select.add_argument("--format", choices=["text", "json"], default="text")

    inject = sub.add_parser("inject", help="run one injection from a parameter file")
    inject.add_argument("workload")
    inject.add_argument("params_file", help="7-line transient parameter file")
    inject.add_argument("--seed", type=int, default=0)
    _add_sandbox(inject)
    _add_obs(inject)

    campaign = sub.add_parser("campaign", help="run a full transient campaign")
    _add_common(campaign)
    _add_sandbox(campaign)
    _add_obs(campaign)
    campaign.add_argument("--injections", type=int, default=None,
                          help="injection budget (default: 100, or the "
                               "stopping rule's fixed-N equivalent when "
                               "--target-outcome is given)")
    campaign.add_argument("--group", type=int, default=8)
    campaign.add_argument("--model", type=int, default=1)
    campaign.add_argument(
        "--profiling", choices=["exact", "approximate"], default="exact"
    )
    campaign.add_argument("--permanent", action="store_true",
                          help="also run the permanent-fault campaign")
    campaign.add_argument("--workers", type=int, default=0,
                          help="fan injection runs out over a pool of N "
                               "worker processes (with or without "
                               "--batch-launch)")
    campaign.add_argument("--store",
                          help="study directory: checkpoint each injection "
                               "as it completes and resume interrupted runs")
    campaign.add_argument("--progress", action="store_true",
                          help="print per-injection progress")
    campaign.add_argument("--format", choices=["text", "json"], default="text")
    campaign.add_argument("--max-attempts", type=int, default=3,
                          help="attempts per injection task before it is "
                               "quarantined (1 = no retries)")
    campaign.add_argument("--task-timeout", type=float, default=None,
                          metavar="SECONDS",
                          help="parent-side wall-clock deadline per task "
                               "(parallel executor); hung workers are killed "
                               "and the task retried or quarantined")
    campaign.add_argument("--on-failure", choices=["quarantine", "raise"],
                          default="quarantine",
                          help="after the final failed attempt: synthesize a "
                               "DUE and continue (quarantine) or abort (raise)")
    campaign.add_argument("--fast-forward", action=argparse.BooleanOptionalAction,
                          default=True,
                          help="golden-replay fast-forward: skip simulating "
                               "launches before each injection target by "
                               "replaying write deltas recorded during the "
                               "golden run (results are byte-identical "
                               "either way)")
    campaign.add_argument("--tail-fast-forward",
                          action=argparse.BooleanOptionalAction,
                          default=True,
                          help="tail fast-forward: once an injection run's "
                               "memory re-converges with the golden run at a "
                               "launch boundary, replay the remaining "
                               "launches from the golden recording (needs "
                               "--fast-forward; results are byte-identical "
                               "either way)")
    campaign.add_argument("--batch-launch",
                          action=argparse.BooleanOptionalAction,
                          default=False,
                          help="in-process batched multi-fault pass: "
                               "simulate each targeted launch once for all "
                               "faults aimed at it, forking a copy-on-write "
                               "overlay at each fault's instruction count "
                               "(POSIX only, ignored with --workers; results "
                               "are byte-identical either way)")
    campaign.add_argument("--replay-cache", nargs="?", const=True,
                          default=None, metavar="DIR",
                          help="persist the golden replay tape across "
                               "campaigns: with no value, cache under "
                               "~/.cache/repro/replay (or "
                               "$REPRO_REPLAY_CACHE); with DIR, cache "
                               "there (entries are content-hash validated)")

    campaign.add_argument("--target-outcome",
                          choices=["SDC", "DUE", "Masked"], default=None,
                          help="adaptive early stopping: stop once this "
                               "outcome's confidence interval is narrower "
                               "than --half-width (see docs/statistics.md)")
    campaign.add_argument("--confidence", type=float, default=0.95,
                          help="confidence level of the stopping rule's "
                               "interval (default 0.95)")
    campaign.add_argument("--half-width", type=float, default=0.05,
                          help="target CI half-width of the stopping rule "
                               "(default 0.05)")
    campaign.add_argument("--sampling",
                          choices=["uniform", "stratified", "importance"],
                          default="uniform",
                          help="site-sampling plan: uniform (the paper's "
                               "Monte Carlo), stratified (proportional per "
                               "static kernel) or importance (steer toward "
                               "strata with the highest observed target-"
                               "outcome rate; estimates stay unbiased)")
    campaign.add_argument("--batch-size", type=int, default=25,
                          help="injections per adaptive batch (the stopping "
                               "rule is re-evaluated at batch boundaries)")

    serve = sub.add_parser(
        "serve",
        help="run the campaign service: HTTP submit/status/results over "
             "one FaultDB (see docs/service.md)",
    )
    serve.add_argument("--db", required=True, metavar="FILE",
                       help="SQLite FaultDB path (created if missing)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8321)
    serve.add_argument("--workers", type=int, default=2,
                       help="default worker processes per submitted "
                            "campaign (submissions can override)")
    serve.add_argument("--lease-seconds", type=float, default=30.0,
                       help="work-unit lease duration; a worker that stops "
                            "heartbeating for this long forfeits its unit")

    trace = sub.add_parser(
        "trace", help="summarise a campaign trace file (per-phase times)"
    )
    trace.add_argument("trace_file", help="JSONL trace written by --trace")

    report = sub.add_parser(
        "report", help="analyse a campaign store's results.csv"
    )
    report.add_argument("view", choices=["ci"],
                        help="ci: per-outcome fractions with confidence "
                             "intervals, overall and per stratum")
    report.add_argument("store", help="study directory (or a results.csv)")
    report.add_argument("--confidence", type=float, default=0.95,
                        help="confidence level of the intervals "
                             "(default 0.95)")

    dump = sub.add_parser(
        "dump", help="disassemble a workload's kernels (cuobjdump analogue)"
    )
    dump.add_argument("workload")
    dump.add_argument("--kernel", help="dump only this kernel")
    return parser


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("workload", help="e.g. 303.ostencil (see `repro list`)")
    parser.add_argument("--seed", type=int, default=0)


def _add_sandbox(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", default="volta",
                        help="GPU architecture family of the sandbox device")
    parser.add_argument("--num-sms", type=int, default=None,
                        help="override the device's SM count")
    parser.add_argument("--block-compile", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="block-compiled interpreter: fuse straight-line "
                             "SASS into pre-compiled superhandlers; "
                             "instrumented launches step only their hooked "
                             "instructions (results are byte-identical "
                             "either way)")
    parser.add_argument("--env", action="append", default=[], metavar="KEY=VALUE",
                        help="extra sandbox environment entry (repeatable)")


def _add_obs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", metavar="FILE", default=None,
                        help="write a JSONL span/event trace to FILE")
    parser.add_argument("--metrics", choices=["text", "json"], default=None,
                        help="print the metrics registry on exit")


def _sandbox_config(args) -> SandboxConfig:
    extra_env = {}
    for entry in args.env:
        key, sep, value = entry.partition("=")
        if not sep or not key:
            raise ReproError(f"--env expects KEY=VALUE, got {entry!r}")
        extra_env[key] = value
    return SandboxConfig(
        seed=args.seed,
        family=args.family,
        num_sms=args.num_sms,
        block_compile=getattr(args, "block_compile", True),
        extra_env=extra_env,
    )


def _make_tracer(args) -> Tracer:
    if args.trace:
        return Tracer(sink=JsonlSink(args.trace))
    return NULL_TRACER


def _finish_obs(args, tracer: Tracer, registry: MetricsRegistry) -> None:
    """Flush the trace file and print the metrics registry if requested."""
    if tracer is not NULL_TRACER:
        tracer.close()
        print(f"trace written to {args.trace}", file=sys.stderr)
    if args.metrics == "json":
        print(registry.render_json())
    elif args.metrics == "text":
        print(registry.render_text(), end="")


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # Output piped into `head` etc.; the POSIX-polite exit.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name in sorted(WORKLOADS):
            cls = WORKLOADS[name]
            print(f"{name:16} {cls.description}")
        return 0

    if args.command == "trace":
        from repro.core.report import render_phase_breakdown

        print(render_phase_breakdown(args.trace_file), end="")
        return 0

    if args.command == "report":
        from repro.core.report import render_ci_report

        print(render_ci_report(args.store, confidence=args.confidence), end="")
        return 0

    if args.command == "serve":
        from repro.service import FaultService

        service = FaultService(
            args.db,
            host=args.host,
            port=args.port,
            default_workers=args.workers,
            lease_seconds=args.lease_seconds,
        )
        host, port = service.address
        print(f"repro serve: FaultDB {args.db} on http://{host}:{port}",
              file=sys.stderr)
        try:
            service.serve_forever()
        except KeyboardInterrupt:
            print("shutting down", file=sys.stderr)
        finally:
            service.shutdown()
        return 0

    app = get_workload(args.workload)

    if args.command == "dump":
        from repro.sass import assemble, disassemble_kernel

        module = assemble(app.module_text(), module_name=app.name)
        for kernel in module:
            if args.kernel and kernel.name != args.kernel:
                continue
            print(disassemble_kernel(kernel))
        return 0

    if args.command == "profile":
        from repro import api

        tracer = _make_tracer(args)
        registry = MetricsRegistry()
        profile = api.profile(
            app,
            mode=ProfilingMode(args.mode),
            sandbox=_sandbox_config(args),
            tracer=tracer,
            metrics=registry,
        )
        text = profile.to_text()
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(text)
            print(f"profile written to {args.output}")
        else:
            print(text, end="")
        print(
            f"# {profile.num_dynamic_kernels} dynamic kernels, "
            f"{profile.num_static_kernels} static, "
            f"{profile.total_count()} dynamic instructions",
            file=sys.stderr,
        )
        _finish_obs(args, tracer, registry)
        return 0

    if args.command == "select":
        from repro import api

        profile = api.profile(app)
        sites = api.select_sites(
            profile,
            count=args.count,
            group=InstructionGroup(args.group),
            model=BitFlipModel(args.model),
            seed=args.seed,
        )
        if args.format == "json":
            doc = [
                {
                    "group": site.group.value,
                    "model": site.model.value,
                    "kernel_name": site.kernel_name,
                    "kernel_count": site.kernel_count,
                    "instruction_count": site.instruction_count,
                    "dest_reg_selector": site.dest_reg_selector,
                    "bit_pattern_value": site.bit_pattern_value,
                }
                for site in sites
            ]
            print(json.dumps(doc, indent=2))
        else:
            for site in sites:
                print(site.to_text())
                print()
        return 0

    if args.command == "inject":
        from repro import api

        with open(args.params_file) as handle:
            params = TransientParams.from_text(handle.read())
        tracer = _make_tracer(args)
        registry = MetricsRegistry()
        result = api.inject(
            app, params, sandbox=_sandbox_config(args), tracer=tracer,
            metrics=registry,
        )
        print(result.record.describe())
        print(result.outcome.label())
        _finish_obs(args, tracer, registry)
        return 0 if result.masked else 1

    if args.command == "campaign":
        from repro import api
        from repro.core.adaptive import SamplingPlan, StoppingRule
        from repro.core.engine import EngineHooks, choose_executor
        from repro.core.resilience import RetryPolicy
        from repro.core.store import CampaignStore

        stopping = None
        if args.target_outcome is not None:
            stopping = StoppingRule(
                target_outcome=args.target_outcome,
                confidence=args.confidence,
                half_width=args.half_width,
            )
        sampling = None
        if stopping is not None or args.sampling != "uniform":
            sampling = SamplingPlan(
                mode=args.sampling, batch_size=args.batch_size
            )
        # With a stopping rule and no explicit budget, cap the campaign at
        # the rule's fixed-N equivalent: adaptive stops at or under it.
        budget = args.injections
        if budget is None:
            budget = stopping.fixed_n() if stopping is not None else 100

        # Base config from the positional knobs, per-run tweaks layered on
        # through the one typed override path (shared with the API facade
        # and service submissions).
        config = CampaignConfig(
            workload=args.workload,
            seed=args.seed,
            num_transient=budget,
            group=InstructionGroup(args.group),
            model=BitFlipModel(args.model),
            profiling=ProfilingMode(args.profiling),
            sandbox=_sandbox_config(args),
        ).with_overrides(
            stopping=stopping,
            sampling=sampling,
            retry=RetryPolicy(
                max_attempts=args.max_attempts,
                task_timeout=args.task_timeout,
                on_failure=args.on_failure,
                seed=args.seed,
            ),
            fast_forward=args.fast_forward,
            tail_fast_forward=args.tail_fast_forward,
            batch_launch=args.batch_launch,
            replay_cache=args.replay_cache,
        )
        executor = choose_executor(config, workers=args.workers)

        class _Progress(EngineHooks):
            def on_injection(self, index, outcome, completed, total, tally):
                print(f"  [{completed}/{total}] run {index:05d}: "
                      f"{outcome.outcome.value}", file=sys.stderr)

        tracer = _make_tracer(args)
        registry = MetricsRegistry()
        try:
            result = api.run_campaign(
                config,
                executor=executor,
                store=CampaignStore(args.store) if args.store else None,
                hooks=_Progress() if args.progress else None,
                tracer=tracer,
                metrics=registry,
            )
            permanent = None
            if args.permanent:
                permanent = api.run_campaign(
                    config,
                    store=CampaignStore(args.store) if args.store else None,
                    tracer=tracer,
                    metrics=registry,
                    kind=CampaignKind.PERMANENT,
                )
        except KeyboardInterrupt:
            # Completed injections are already checkpointed (and, with
            # --store, a partial results.csv written); exit like `timeout`-
            # style tooling does on SIGINT.
            if args.store:
                print(
                    f"interrupted; completed injections checkpointed under "
                    f"{args.store} (rerun the same command to resume)",
                    file=sys.stderr,
                )
            else:
                print("interrupted; rerun with --store to make campaigns "
                      "resumable", file=sys.stderr)
            _finish_obs(args, tracer, registry)
            return 130
        if args.format == "json":
            doc = {
                "workload": app.name,
                "injections": len(result.results),
                "fractions": result.tally.fractions(),
                "potential_due_fraction": result.tally.potential_due_fraction(),
                "golden_time": result.golden_time,
                "profile_time": result.profile_time,
                "total_time": result.total_time,
            }
            if result.adaptive is not None:
                summary = result.adaptive
                doc["adaptive"] = {
                    "mode": summary.mode,
                    "batch_size": summary.batch_size,
                    "batches": summary.batches,
                    "budget": summary.budget,
                    "stopped_early_at": summary.stopped_early_at,
                    "injections_saved": summary.injections_saved,
                }
                if summary.estimate is not None:
                    doc["adaptive"]["estimate"] = {
                        "p_hat": summary.estimate.p_hat,
                        "half_width": summary.estimate.half_width,
                        "low": summary.estimate.low,
                        "high": summary.estimate.high,
                        "n": summary.estimate.n,
                    }
                if summary.strata:
                    doc["adaptive"]["strata"] = {
                        s.name: s.injections for s in summary.strata
                    }
            if permanent is not None:
                doc["permanent"] = {
                    "injections": len(permanent.results),
                    "fractions": permanent.tally.fractions(),
                }
            if args.metrics:
                doc["metrics"] = registry.snapshot()
            print(json.dumps(doc, indent=2))
        else:
            print(f"{app.name}: {len(result.results)} transient injections")
            print(result.tally.report(samples=len(result.results)))
            if result.adaptive is not None:
                print(result.adaptive.describe())
            if permanent is not None:
                print(f"{app.name}: {len(permanent.results)} permanent injections "
                      "(one per executed opcode)")
                print(permanent.tally.report())
        from repro.core.engine import EngineMetrics

        print(EngineMetrics(registry=registry).summary(), file=sys.stderr)
        if args.format == "json" and args.metrics:
            # Metrics already embedded in the JSON document; just flush the trace.
            if tracer is not NULL_TRACER:
                tracer.close()
                print(f"trace written to {args.trace}", file=sys.stderr)
        else:
            _finish_obs(args, tracer, registry)
        return 0

    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
