"""Adaptive campaign sizing — ``BENCH_adaptive.json``.

The acceptance claim of the adaptive layer (docs/statistics.md): on the
default 370.bt bench workload, a campaign with ``--target-outcome SDC
--confidence 0.95 --half-width 0.05`` stops early with at least 20% fewer
injections than the fixed-N equivalent (385, the worst-case p = 0.5
inversion of the interval), while the achieved CI half-width meets the
target and the interval contains the fixed-N campaign's estimate.

``REPRO_QUICK=1`` shrinks to a CI-smoke size on 303.ostencil: the savings
floor is skipped (small budgets can't amortize batching), but the stop-at-
or-under-budget and half-width-met assertions still run.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from benchmarks.harness import campaign_seed, emit, quick_mode, write_output
from repro.core.adaptive import StoppingRule
from repro.core.campaign import CampaignConfig
from repro.core.engine import CampaignEngine
from repro.core.outcomes import Outcome
from repro.core.store import CampaignStore
from repro.obs import MetricsRegistry
from repro.utils.text import format_table

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_adaptive.json"

# Acceptance floor (non-quick): the adaptive campaign must save at least
# this fraction of the fixed-N budget on the default workload.
_MIN_SAVINGS = 0.20


def _workload() -> str:
    if quick_mode():
        return "303.ostencil"
    return os.environ.get("REPRO_BENCH_WORKLOAD", "370.bt")


def _rule() -> StoppingRule:
    if quick_mode():
        # Small-budget smoke: a rule 303.ostencil satisfies within ~50 runs.
        return StoppingRule(
            target_outcome="SDC", confidence=0.90, half_width=0.12,
            min_injections=10,
        )
    return StoppingRule(target_outcome="SDC", confidence=0.95, half_width=0.05)


def _run(tmp_path, label, stopping):
    registry = MetricsRegistry()
    engine = CampaignEngine(
        _workload(),
        CampaignConfig(
            workload=_workload(),
            num_transient=_rule().fixed_n(),
            seed=campaign_seed(),
            stopping=stopping,
        ),
        store=CampaignStore(tmp_path / label),
        metrics=registry,
    )
    started = time.perf_counter()
    result = engine.run_transient()
    return result, time.perf_counter() - started, registry


def test_adaptive_early_stopping(benchmark, tmp_path):
    rule = _rule()
    budget = rule.fixed_n()

    def run_both():
        adaptive = _run(tmp_path, "adaptive", rule)
        fixed = _run(tmp_path, "fixed", None)
        return adaptive, fixed

    (adaptive, adaptive_seconds, registry), (fixed, fixed_seconds, _) = (
        benchmark.pedantic(run_both, rounds=1, iterations=1)
    )

    summary = adaptive.adaptive
    estimate = summary.estimate
    fixed_p = fixed.tally.fraction(Outcome.SDC)

    # The adaptive campaign never exceeds the fixed-N equivalent, its
    # achieved half-width meets the rule, and its interval contains the
    # fixed-N estimate (same population, tighter sample).
    assert summary.injections <= budget
    assert estimate.half_width <= rule.half_width
    assert estimate.low <= fixed_p <= estimate.high, (
        f"adaptive CI [{estimate.low:.3f}, {estimate.high:.3f}] excludes "
        f"the fixed-N estimate {fixed_p:.3f}"
    )

    savings = summary.injections_saved / budget
    payload = {
        "benchmark": "adaptive_early_stopping",
        "workload": _workload(),
        "seed": campaign_seed(),
        "quick": quick_mode(),
        "rule": rule.fingerprint(),
        "fixed_n": budget,
        "adaptive_injections": summary.injections,
        "stopped_early_at": summary.stopped_early_at,
        "injections_saved": summary.injections_saved,
        "savings_fraction": round(savings, 3),
        "batches": summary.batches,
        "adaptive_estimate": {
            "p_hat": round(estimate.p_hat, 4),
            "half_width": round(estimate.half_width, 4),
        },
        "fixed_estimate": round(fixed_p, 4),
        "adaptive_seconds": round(adaptive_seconds, 3),
        "fixed_seconds": round(fixed_seconds, 3),
        "adaptive_batches_counter": int(
            registry.counter("engine.adaptive.batches").value
        ),
    }
    write_output(BENCH_PATH, json.dumps(payload, indent=2) + "\n")

    emit(
        "adaptive_early_stopping",
        format_table(
            ["Campaign", "Injections", "Wall clock", "SDC estimate"],
            [
                [
                    "adaptive",
                    f"{summary.injections}/{budget}",
                    f"{adaptive_seconds:.2f}s",
                    estimate.describe(),
                ],
                [
                    "fixed-N",
                    str(budget),
                    f"{fixed_seconds:.2f}s",
                    f"{fixed_p * 100:.1f}%",
                ],
                [
                    "saved",
                    f"{summary.injections_saved} ({savings:.0%})",
                    f"{fixed_seconds - adaptive_seconds:.2f}s",
                    "-",
                ],
            ],
            title=f"Adaptive early stopping on {_workload()}: "
                  f"{rule.target_outcome.value} ±{rule.half_width} at "
                  f"{rule.confidence:.0%}",
        ),
    )

    if not quick_mode():
        assert savings >= _MIN_SAVINGS, (
            f"adaptive savings regressed: {savings:.0%} < {_MIN_SAVINGS:.0%} "
            f"of the fixed-N budget (see {BENCH_PATH})"
        )
