"""Campaign wall-clock trajectory — ``BENCH_campaign.json``.

The repo's perf north-star is campaign throughput: NVBitFI's headline
claim (paper §III-C, Figures 4–5) is that injection runs cost barely more
than uninstrumented runs.  This benchmark measures a real transient
campaign end-to-end (golden + profile + select + inject) across serial
{full, pre-target replay, pre + tail replay, batched multi-fault passes
with a cold/warm replay cache, resumed}, and process-pool {full, pre +
tail at 2 and 8 workers} configurations — and persists the numbers to
``BENCH_campaign.json`` at the repo root so the trajectory is tracked
across PRs.

Fast-forward, fork-batched execution and the persistent replay cache
(see :mod:`repro.gpusim.replay`, :mod:`repro.core.batch_injector`,
:mod:`repro.core.snapshot` and ``docs/performance.md``) must never change
results: every configuration's ``results.csv`` is asserted byte-identical
against the serial full-simulation baseline — batch on/off, cache
cold/warm, serial/parallel/resumed, and the block-compiled execution tier
on/off (the ``*-nobc`` rows re-run the full and batch configurations
with ``sandbox.block_compile=False``) alike.  The tail rows additionally
report how many faults re-converged with the golden run; batch rows
report fork and cache counters.

Knobs: ``REPRO_QUICK=1`` shrinks to a CI-smoke size (parity still
asserted); ``REPRO_BENCH_WORKLOAD`` / ``REPRO_BENCH_FAULTS`` override the
default 50-fault campaign on 370.bt (96 golden launches, late-kernel-heavy:
the weighted mean injection site sits ~58% into the golden run).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from benchmarks.harness import campaign_seed, emit, quick_mode, write_output
from repro.core.batch_injector import BatchExecutor
from repro.core.campaign import CampaignConfig
from repro.core.engine import CampaignEngine, ParallelExecutor
from repro.core.store import CampaignStore
from repro.obs import MetricsRegistry
from repro.runner.sandbox import SandboxConfig
from repro.utils.text import format_table

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_campaign.json"

# Wall-clock floors on the default (late-kernel-heavy) campaign: pre-target
# replay vs full simulation, the additional factor the tail must buy on
# top of pre-target replay, and the total the batched multi-fault pass +
# warm replay cache must clear (strictly past 4.27x — batching amortizes
# the per-group host run and tape replay into one chained counting pass,
# and pipelines every fault's divergent suffix against it as concurrent
# copy-on-write children).  The pipelined children need a second CPU to
# actually overlap; on a single-CPU box they serialize behind the pass
# and the batch row is held to the 3.36x bar instead.  Quick/CI runs are
# too small to amortize the fixed phases, so they assert parity only.
_MIN_SPEEDUP = 2.0
_MIN_TAIL_SPEEDUP = 1.3
_MIN_BATCH_SPEEDUP = 4.27
_MIN_BATCH_SPEEDUP_1CPU = 3.36
# 8-worker pool wall clock vs 2-worker, normalized by how many of those workers
# the machine can actually run concurrently (min(workers, cpu_count)):
# on a box with >= 8 CPUs this demands real scaling; on smaller boxes it
# asserts that oversubscription does not collapse throughput.
_MIN_SCALING_EFFICIENCY = 0.8


def _workload() -> str:
    if quick_mode():
        return "303.ostencil"  # multi-kernel but small: 21 golden launches
    return os.environ.get("REPRO_BENCH_WORKLOAD", "370.bt")


def _faults() -> int:
    if quick_mode():
        return 6
    return int(os.environ.get("REPRO_BENCH_FAULTS", "50"))


def _config(fast_forward=True, tail=True, cache_dir=None, knobs=False,
            block_compile=True):
    return CampaignConfig(
        workload=_workload(),
        num_transient=_faults(),
        seed=campaign_seed(),
        fast_forward=fast_forward,
        tail_fast_forward=tail,
        # The "knob" rows exercise the CLI-level path (--batch-launch with
        # no explicit executor): the engine's default-executor resolution
        # must pick the batch path.
        batch_launch=knobs,
        sandbox=SandboxConfig(block_compile=block_compile),
        replay_cache=str(cache_dir) if cache_dir else None,
    )


def _make_executor(kind, workers):
    if kind == "batch":
        return BatchExecutor()
    if workers:
        return ParallelExecutor(max_workers=workers)
    return None


def _run_campaign(tmp_path, label, fast_forward, tail, workers,
                  executor_kind="plain", cache_dir=None, block_compile=True):
    """One full campaign; returns (seconds, counters-snapshot, results.csv)."""
    store_dir = tmp_path / label
    registry = MetricsRegistry()
    engine = CampaignEngine(
        _workload(),
        _config(fast_forward, tail, cache_dir,
                knobs=executor_kind == "knob-batch",
                block_compile=block_compile),
        store=CampaignStore(store_dir),
        executor=(None if executor_kind == "knob-batch"
                  else _make_executor(executor_kind, workers)),
        metrics=registry,
    )
    started = time.perf_counter()
    engine.run_transient()
    seconds = time.perf_counter() - started
    counters = registry.snapshot()["counters"]
    return seconds, counters, (store_dir / "results.csv").read_bytes()


def _run_resumed(tmp_path, cache_dir):
    """Half the campaign, then a fresh engine resuming the same store.

    Both halves run through the batched executor: a resumed campaign's
    leftover indices regroup into (smaller) same-launch batches and the
    stitched results.csv must still match the serial baseline.
    """
    store_dir = tmp_path / "serial-resumed"
    first = CampaignEngine(
        _workload(),
        _config(cache_dir=cache_dir),
        store=CampaignStore(store_dir),
        executor=BatchExecutor(),
    )
    first.plan_transient()
    first.run_batch(range(_faults() // 2))
    resumed = CampaignEngine(
        _workload(),
        _config(cache_dir=cache_dir),
        store=CampaignStore(store_dir),
        executor=BatchExecutor(),
    )
    resumed.run_transient()
    return (store_dir / "results.csv").read_bytes()


def test_campaign_wall_clock(benchmark, tmp_path):
    matrix = [
        # (executor, mode, fast_forward, tail_ff, workers, kind, cached, bc)
        ("serial", "full", False, False, 0, "plain", False, True),
        # Same campaign with the block-compiled tier off: results.csv must
        # not move, and the default row above must not be slower.
        ("serial", "full-nobc", False, False, 0, "plain", False, False),
        ("serial", "ff", True, False, 0, "plain", False, True),
        ("serial", "ff+tail", True, True, 0, "plain", False, True),
        # Batched multi-fault passes: one counting pass per target launch,
        # every same-launch fault forked off it.  Cold first, warm second:
        # the cold row stores the golden tape the warm rows replay.
        ("serial", "batch+cache-cold", True, True, 0, "batch", True, True),
        ("serial", "batch+cache-warm", True, True, 0, "batch", True, True),
        ("serial", "batch-warm-nobc", True, True, 0, "batch", True, False),
        ("serial", "knob-batch", True, True, 0, "knob-batch", True, True),
        ("parallel", "full", False, False, 2, "plain", False, True),
        ("parallel", "ff+tail", True, True, 2, "plain", False, True),
        ("parallel", "ff+tail-8w", True, True, 8, "plain", False, True),
    ]
    # Single-shot wall clocks on a loaded box swing by tens of percent —
    # enough to flip the floor assertions either way.  Repeat the whole
    # matrix (fresh stores and a fresh cache each round, so cold stays
    # cold) and keep the per-row minimum: the min is the run least
    # disturbed by unrelated system load.
    rounds = 1 if quick_mode() else 3

    def run_round(round_dir):
        cache_dir = round_dir / "replay-cache"
        measured = {
            (executor, mode): _run_campaign(
                round_dir, f"{executor}-{mode}", fast_forward, tail, workers,
                executor_kind=kind, cache_dir=cache_dir if cached else None,
                block_compile=bc,
            )
            for executor, mode, fast_forward, tail, workers, kind, cached, bc
            in matrix
        }
        measured[("serial", "resumed")] = (
            None, {}, _run_resumed(round_dir, cache_dir)
        )
        return measured

    def run_all():
        per_round = [run_round(tmp_path / f"round{n}") for n in range(rounds)]
        baseline = per_round[0][("serial", "full")][2]
        for n, round_runs in enumerate(per_round):
            for key, (_, _, csv) in round_runs.items():
                assert csv == baseline, f"round {n}: csv diverged for {key}"
        best = {}
        for key in per_round[0]:
            seconds = [r[key][0] for r in per_round]
            best[key] = (
                None if seconds[0] is None else min(seconds),
                per_round[0][key][1],
                per_round[0][key][2],
            )
        round_seconds = [
            {key: value[0] for key, value in round_runs.items()
             if value[0] is not None}
            for round_runs in per_round
        ]
        return best, round_seconds

    measured, round_seconds = benchmark.pedantic(run_all, rounds=1, iterations=1)

    def best_ratio(numerator, denominator):
        """Matched-pair speedup: both sides from the same round, best round
        kept — the within-round pairing cancels load drift the same way
        min wall-clock does for a single row."""
        return round(
            max(r[numerator] / r[denominator] for r in round_seconds), 2
        )

    # Fast-forward parity: every configuration reproduces the serial
    # full-simulation results.csv byte for byte.
    baseline = measured[("serial", "full")][2]
    for key, (_, _, csv) in measured.items():
        assert csv == baseline, f"results.csv diverged for {key}"

    runs = []
    for executor, mode, fast_forward, tail, workers, kind, _cache, bc in matrix:
        seconds, counters, _ = measured[(executor, mode)]
        runs.append({
            "executor": executor,
            "mode": mode,
            "workers": workers or 1,
            "fast_forward": fast_forward,
            "tail_fast_forward": tail,
            "batch": kind in ("batch", "knob-batch"),
            "block_compile": bc,
            "seconds": round(seconds, 3),
            "simulated_cycles": int(counters.get("gpusim.cycles", 0)),
            "replay_hits": int(counters.get("engine.replay.hits", 0)),
            "replay_launches_skipped": int(
                counters.get("engine.replay.launches_skipped", 0)
            ),
            "faults_converged": int(counters.get("engine.replay.tail_hits", 0)),
            "tail_launches_skipped": int(
                counters.get("engine.replay.tail_launches_skipped", 0)
            ),
            "snapshot_forks": int(counters.get("engine.snapshot.forks", 0)),
            "batch_checkpoints": int(
                counters.get("engine.batch.checkpoints", 0)
            ),
            "batch_launches_shared": int(
                counters.get("engine.batch.launches_shared", 0)
            ),
            "cache_hits": int(counters.get("engine.cache.hits", 0)),
            "cache_misses": int(counters.get("engine.cache.misses", 0)),
        })

    by_mode = {(r["executor"], r["mode"]): r for r in runs}
    # Replayed launches (pre-target and tail alike) reconstruct their cycle
    # accounting from the golden recording, so every configuration reports
    # the identical simulated-cycle total.  (Warm-cache rows replay the
    # golden run itself from the tape — same recorded cycle deltas.)
    cycle_totals = {r["simulated_cycles"] for r in runs}
    assert len(cycle_totals) == 1, f"simulated cycles diverged: {cycle_totals}"
    assert by_mode[("serial", "ff")]["replay_launches_skipped"] > 0
    assert by_mode[("serial", "ff")]["faults_converged"] == 0  # tail off
    assert by_mode[("serial", "ff+tail")]["faults_converged"] > 0
    assert by_mode[("serial", "ff+tail")]["tail_launches_skipped"] > 0
    # The cold batch row must actually fork (not silently fall back), and
    # the replay cache must go exactly cold -> warm.
    assert by_mode[("serial", "batch+cache-cold")]["snapshot_forks"] > 0
    assert by_mode[("serial", "batch+cache-cold")]["cache_misses"] == 1
    assert by_mode[("serial", "batch+cache-warm")]["cache_hits"] == 1
    assert by_mode[("serial", "batch+cache-warm")]["cache_misses"] == 0
    # The batch rows must actually checkpoint every fault off a shared
    # counting pass (explicit executor and config-knob path alike).
    for batch_key in [("serial", "batch+cache-warm"),
                      ("serial", "batch-warm-nobc"),
                      ("serial", "knob-batch")]:
        assert by_mode[batch_key]["batch_checkpoints"] == _faults(), batch_key
        assert by_mode[batch_key]["batch_launches_shared"] >= 1, batch_key

    cpus = os.cpu_count() or 1
    # Ideal 8-vs-2-worker ratio, capped by physical CPUs: on an 8+-core
    # box the 8-worker run should be ~4x faster; on a single core both
    # runs serialize and the ideal ratio is 1.
    ideal = min(8, cpus) / min(2, cpus)
    scaling_efficiency = round(
        best_ratio(("parallel", "ff+tail"), ("parallel", "ff+tail-8w")) / ideal,
        2,
    )
    speedup = {
        "serial": best_ratio(("serial", "full"), ("serial", "ff")),
        "serial_tail": best_ratio(("serial", "ff"), ("serial", "ff+tail")),
        "serial_total": best_ratio(("serial", "full"), ("serial", "ff+tail")),
        "serial_batch": best_ratio(
            ("serial", "full"), ("serial", "batch+cache-warm")
        ),
        # Block-compiled tier's contribution to the simulated portion:
        # the identical campaign, per-step vs block-compiled.
        "serial_blockc": best_ratio(
            ("serial", "full-nobc"), ("serial", "full")
        ),
        "parallel": best_ratio(("parallel", "full"), ("parallel", "ff+tail")),
    }
    payload = {
        "benchmark": "campaign_wall_clock",
        "workload": _workload(),
        "faults": _faults(),
        "seed": campaign_seed(),
        "quick": quick_mode(),
        "cpu_count": cpus,
        "runs": runs,
        "fast_forward_speedup": speedup,
        "scaling_efficiency_8v2": scaling_efficiency,
        "results_csv_byte_identical": True,
    }
    write_output(BENCH_PATH, json.dumps(payload, indent=2) + "\n")

    rows = [
        [
            r["executor"],
            r["mode"],
            f"{r['seconds']:.2f}s",
            f"{r['simulated_cycles'] / 1e6:.1f} Mcyc",
            r["replay_launches_skipped"],
            r["faults_converged"],
            r["snapshot_forks"],
        ]
        for r in runs
    ]
    for title, value in [
        ("speedup (serial ff/full)", f"{speedup['serial']:.2f}x"),
        ("speedup (serial tail/ff)", f"{speedup['serial_tail']:.2f}x"),
        ("speedup (serial total)", f"{speedup['serial_total']:.2f}x"),
        ("speedup (serial batch)", f"{speedup['serial_batch']:.2f}x"),
        ("speedup (serial blockc on/off)", f"{speedup['serial_blockc']:.2f}x"),
        ("speedup (parallel)", f"{speedup['parallel']:.2f}x"),
        ("scaling efficiency (8w vs 2w)", f"{scaling_efficiency:.2f}"),
    ]:
        rows.append([title, "-", value, "-", "-", "-", "-"])
    emit(
        "campaign_wall_clock",
        format_table(
            ["Executor", "Mode", "Wall clock", "Simulated cycles",
             "Pre-replayed", "Faults converged", "Forks"],
            rows,
            title=f"Campaign wall clock: {_faults()} transient faults on "
                  f"{_workload()}, {cpus} CPU(s) (results.csv byte-identical "
                  "throughout)",
        ),
    )

    if not quick_mode():
        assert speedup["serial"] >= _MIN_SPEEDUP, (
            f"fast-forward speedup regressed: {speedup['serial']:.2f}x < "
            f"{_MIN_SPEEDUP}x (see {BENCH_PATH})"
        )
        assert speedup["serial_tail"] >= _MIN_TAIL_SPEEDUP, (
            f"tail fast-forward speedup regressed: "
            f"{speedup['serial_tail']:.2f}x < {_MIN_TAIL_SPEEDUP}x "
            f"(see {BENCH_PATH})"
        )
        batch_floor = (
            _MIN_BATCH_SPEEDUP if cpus >= 2 else _MIN_BATCH_SPEEDUP_1CPU
        )
        assert speedup["serial_batch"] > batch_floor, (
            f"batched multi-fault speedup regressed: "
            f"{speedup['serial_batch']:.2f}x <= {batch_floor}x "
            f"on {cpus} CPU(s) (see {BENCH_PATH})"
        )
        assert scaling_efficiency >= _MIN_SCALING_EFFICIENCY, (
            f"8-worker scaling efficiency regressed: {scaling_efficiency} < "
            f"{_MIN_SCALING_EFFICIENCY} (see {BENCH_PATH})"
        )
