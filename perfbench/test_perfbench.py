"""Tests of the benchmark itself, at smoke size.

    python -m pytest perfbench -q

Run from the repository root: the smoke runs go through ``run.py`` exactly
as a benchmark run does, leaving their scratch state in ``.bench_build/``.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

import campaign
import layers
import run
from workloads import WORKLOADS

REPO = Path(__file__).resolve().parent.parent
SMOKE = {
    "bt-serial": ["--faults", "4"],
    "bt-batch-warm": ["--faults", "4"],
    "bt-pool": ["--faults", "4"],
    "perm-suite": ["--programs", "303.ostencil"],
}


def bench(workload: str, seed: int = 0, trace: int = 0) -> tuple[dict, str]:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         *SMOKE[workload]],
        cwd=REPO, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stderr


def declared(section: str) -> dict:
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result, _ = bench(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared(
        "end_to_end"
    )
    assert all(v["value"] > 0 for v in result["metrics"].values())


# Per-layer metrics each workload's traced smoke run must report as nonzero
# (its layers ran) or as zero (the workload bypasses them).
LAYERS_RUN = {
    "bt-serial": (
        ["gpusim.launches_plain", "gpusim.launches_hooked", "nvbit.callbacks",
         "blockc.blocks_compiled", "replay.applied", "replay.tape_save_s",
         "outcomes.classified", "store.saves"],
        ["fork.forks", "cache.hits"],
    ),
    "bt-batch-warm": (
        ["fork.forks", "fork.fork_overlay_s", "batch.checkpoints",
         "cache.hits", "cache.profile_hits", "outcomes.classified"],
        ["cache.misses"],
    ),
    "bt-pool": (
        ["engine.executor_next_s", "outcomes.classified", "store.saves"],
        ["fork.forks", "cache.hits"],
    ),
    "perm-suite": (
        ["gpusim.launches_hooked", "nvbit.callbacks", "nvbit.jit_n",
         "blockc.blocks_compiled", "outcomes.classified", "store.saves"],
        ["replay.applied", "fork.forks", "cache.hits"],
    ),
}


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_traced_smoke_run_reports_every_layer_and_adds_up(workload):
    result, stderr = bench(workload, trace=1)
    assert result["correct"] is True, stderr
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared(
        "per_layer"
    )
    ran, bypassed = LAYERS_RUN[workload]
    assert {name: metrics[name] > 0 for name in ran} == dict.fromkeys(ran, True)
    assert {name: metrics[name] for name in bypassed} == dict.fromkeys(
        bypassed, 0
    )
    assert metrics["gpusim.instructions_retired"] > 0
    assert "accounting: layers + engine.self_s" in stderr


def test_tampered_reference_fails_every_injection():
    seed = 987654
    workload = WORKLOADS["bt-serial"]
    bench_run = run.Bench(REPO, workload, seed, faults=4)
    bench_run.save_reference(
        workload.campaign_seed(seed, 0),
        {"370.bt": {"results_csv_sha256": "0" * 64, "cycles": 1,
                    "instructions_retired": 1}},
    )
    result, _ = bench("bt-serial", seed=seed)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_tampered_output_fails_its_program():
    reference = {"a": {"rows": [[1]]}, "b": {"rows": [[2]]}}
    sample = {
        "retried_or_quarantined": 0,
        "injections": 5,
        "injections_by_program": {"a": 2, "b": 3},
        "output": {"a": {"rows": [[1]]}, "b": {"rows": [[2]]}},
    }
    assert run.check_outputs(sample, reference) == 0
    sample["output"]["b"] = {"rows": [[3]]}
    assert run.check_outputs(sample, reference) == 3
    sample["output"]["a"] = {"rows": []}
    assert run.check_outputs(sample, reference) == 5


def test_traced_campaign_restores_every_wrapped_function(tmp_path):
    import repro.workloads  # noqa: F401

    points = layers.patch_points()
    originals = {(owner, attr): vars(owner)[attr] for owner, attr in points}
    workload = dataclasses.replace(WORKLOADS["bt-serial"], faults=3)
    trace = layers.LayerTrace()
    with trace:
        replaced = [vars(o)[a] is not originals[(o, a)] for o, a in points]
        record = campaign.run_campaign(
            workload, "370.bt", 0, tmp_path / "store", trace=trace
        )
    assert all(replaced)
    for owner, attr in points:
        assert vars(owner)[attr] is originals[(owner, attr)], (owner, attr)
    check = layers.accounting(record["trace"], record["campaign_s"])
    assert abs(check["error_s"]) <= run.ACCOUNTING_TOLERANCE * record["campaign_s"]
    metrics = layers.layer_metrics(record["trace"])
    assert metrics["runner.runs"] == 5  # golden, profile, three injections
    assert metrics["outcomes.classified"] == metrics["store.saves"] == 3


def test_missing_source_tree_exits_without_a_result(tmp_path):
    done = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "run.py"), "--workload",
         "bt-serial", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
