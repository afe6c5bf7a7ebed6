"""One campaign of one benchmark workload, in a fresh process.

    python3 perfbench/campaign.py --workload bt-serial --program 370.bt \\
        --seed 0 --store DIR --out FILE [--setup-only] [--traced] [--cache DIR]
        [--faults N]

``run.py`` starts one of these per timed campaign, so the process-global
caches (the blockc code cache, the per-process replay-log cache, the
profile memo) start cold, as they do for a CLI user.  The campaign is
driven through the public engine API and timed from the start of
planning until its results are persisted; the result, with the outputs
the driver checks, goes to ``--out`` as one JSON object.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import multiprocessing
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from layers import ROOT as ROOT_SPAN  # noqa: E402
from layers import LayerTrace  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


def build_engine(workload: Workload, program: str, seed: int, store: Path,
                 cache: Path | None, registry):
    """The engine a user would build: ``--seed`` sets both seeds, and the
    executor comes from the ``batch_launch`` knob or ``--workers 2``."""
    from repro.core.campaign import CampaignConfig
    from repro.core.engine import CampaignEngine, ParallelExecutor
    from repro.core.store import CampaignStore
    from repro.runner.sandbox import SandboxConfig

    config = CampaignConfig(
        workload=program,
        num_transient=workload.faults or 1,
        seed=seed,
        sandbox=SandboxConfig(seed=seed),
        batch_launch=workload.executor == "batch",
        replay_cache=str(cache) if workload.warm_cache else None,
    )
    executor = (
        ParallelExecutor(max_workers=2) if workload.executor == "pool" else None
    )
    return CampaignEngine(
        program, config, executor=executor, store=CampaignStore(store),
        metrics=registry,
    )


def run_campaign(workload: Workload, program: str, seed: int, store: Path,
                 cache: Path | None = None, setup_only: bool = False,
                 trace: LayerTrace | None = None) -> dict:
    """Plan and (unless ``setup_only``) run one campaign; return its record."""
    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    engine = build_engine(workload, program, seed, store, cache, registry)
    if trace is not None:
        run = engine.executor.run
        engine.executor.run = lambda *a, **k: trace.wrap_iter(
            "engine.executor_next", run(*a, **k)
        )
    started = time.perf_counter()
    root = trace.begin(ROOT_SPAN) if trace is not None else None
    try:
        if workload.kind == "transient":
            sites = engine.plan_transient()
        else:
            engine.run_profile()
            sites = engine.select_permanent()
        setup_s = time.perf_counter() - started
        result = None
        if not setup_only:
            if workload.kind == "transient":
                result = engine.run_transient(sites)
            else:
                result = engine.run_permanent(sites)
    finally:
        if root is not None:
            trace.end(root)
    campaign_s = time.perf_counter() - started
    record = {"program": program, "setup_s": setup_s}
    if setup_only:
        return record
    counters = registry.snapshot()["counters"]
    output = {
        "instructions_retired": int(counters.get("gpusim.instructions_retired", 0)),
        "cycles": int(counters.get("gpusim.cycles", 0)),
    }
    if workload.kind == "transient":
        csv = (store / "results.csv").read_bytes()
        output["results_csv_sha256"] = hashlib.sha256(csv).hexdigest()
    else:
        rows = [
            [program, r.opcode, r.outcome.outcome.value, r.outcome.symptom,
             r.activations, repr(r.weight)]
            for r in result.results
        ]
        output["rows_sha256"] = hashlib.sha256(
            json.dumps(rows).encode()
        ).hexdigest()
    record.update(
        campaign_s=campaign_s,
        injections=len(result.results),
        retried_or_quarantined=int(
            counters.get("engine.retries", 0)
            + counters.get("engine.quarantined", 0)
        ),
        output=output,
    )
    if trace is not None:
        record["trace"] = trace.summary(counters, len(result.results))
    return record


def _reap_children(timeout: float = 30.0) -> None:
    """Wait for pool workers the executor shut down without joining, so the
    children's peak RSS is counted and no process outlives this one."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child's (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--program", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--store", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--cache", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--faults", type=int,
                        help="transient faults per campaign (smoke runs)")
    args = parser.parse_args(argv)

    import repro.workloads  # noqa: F401  (registers the programs)

    workload = WORKLOADS[args.workload]
    if args.faults is not None:
        workload = dataclasses.replace(workload, faults=args.faults)
    trace = LayerTrace() if args.traced else None
    if trace is not None:
        trace.install()
    try:
        record = run_campaign(
            workload, args.program, args.seed, args.store, cache=args.cache,
            setup_only=args.setup_only, trace=trace,
        )
    finally:
        if trace is not None:
            trace.uninstall()
    _reap_children()
    record["peak_rss_mb"] = peak_rss_mb()
    if trace is not None:
        spans = args.out.with_suffix(".spans.json")
        spans.write_text(json.dumps(trace.dump()))
    tmp = args.out.with_suffix(".tmp")
    tmp.write_text(json.dumps(record))
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
