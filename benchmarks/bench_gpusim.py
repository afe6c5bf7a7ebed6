"""Interpreter throughput — ``BENCH_gpusim.json``.

The block-compiled execution tier (:mod:`repro.gpusim.blockc`) exists to
make the launches that *must* be simulated — golden runs and
never-reconverging divergent suffixes — cheaper.  This benchmark measures
raw interpreter throughput in **warp-instructions per second**, per-step
versus block-compiled, two ways:

* a synthetic ALU-loop microbench (tight straight-line loop body, the
  best case for block compilation and the number the ``blockc``
  acceptance floor is defined against),
* one uninstrumented golden run of each workload (the realistic mix of
  ALU, memory and control instructions), and
* instrumented runs of Fig 3's permanent-fault programs: each program
  under :class:`~repro.core.pf_injector.PermanentInjectorTool` at three
  of its sites, where every launch of a kernel holding the target opcode
  is hooked at that opcode's pcs and runs compiled blocks in between.

Both sides of every comparison must agree exactly on instruction and
cycle totals — the block-compiled tier is an execution *strategy*, not a
semantics change — and the workload and instrumented rows additionally
diff stdout and output files (and fault activations).

Wall clocks on a loaded box swing hard, so the microbench interleaves
step/block rounds and keeps the best round per mode before computing the
speedup ratio.  ``REPRO_QUICK=1`` shrinks iteration counts and skips the
speedup floor (CI smoke boxes are too noisy to assert throughput).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from benchmarks.harness import emit, quick_mode, workload_names
from repro.core.campaign import CampaignConfig
from repro.core.engine import CampaignEngine
from repro.core.pf_injector import PermanentInjectorTool
from repro.gpusim.device import Device
from repro.runner.sandbox import SandboxConfig, run_app
from repro.sass.isa import opcode_by_id
from repro.sass import assemble
from repro.utils.text import format_table
from repro.workloads import get_workload

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_gpusim.json"

# Acceptance floor for the block-compiled tier on the straight-line
# microbench (best-of-rounds, uninstrumented).  Measured ~2.0x on an
# unloaded box; 1.5x leaves headroom for slower hosts.
_MIN_MICRO_SPEEDUP = 1.5

# Tight ALU loop: one ISETP/BRA pair of control per 9 straight-line
# instructions, so almost the whole dynamic stream is block-compilable.
_MICRO_SRC = """
.kernel hot
.params 1
    MOV R1, RZ ;
    MOV R2, c[0x0][0x0] ;
    MOV R6, 0x3f800000 ;
LOOP:
    ISETP.GE P0, R1, R2 ;
@P0 BRA DONE ;
    IADD R3, R1, 7 ;
    SHL R4, R3, 2 ;
    LOP.XOR R5, R4, R3 ;
    FADD R6, R6, R6 ;
    FMUL R7, R6, R6 ;
    FFMA R8, R6, R7, R8 ;
    IMAD R9, R3, R4, R5 ;
    SHR R10, R9, 3 ;
    IADD R1, R1, 1 ;
    BRA LOOP ;
DONE:
    EXIT ;
"""


def _micro_run(block_compile: bool, iterations: int):
    """One timed launch; returns (warp_instructions, seconds, counters)."""
    kernel = assemble(_MICRO_SRC).get("hot")
    device = Device(num_sms=1, block_compile=block_compile)
    device.launch(kernel, 1, 32, [10])  # warm: pays codegen outside the clock
    before = device.instructions_executed
    started = time.perf_counter()
    device.launch(kernel, 2, 256, [iterations])
    seconds = time.perf_counter() - started
    executed = device.instructions_executed - before
    return executed, seconds, (device.instructions_executed, device.cycles)


def _measure_micro():
    iterations = 100 if quick_mode() else 1000
    rounds = 1 if quick_mode() else 3
    best = {False: 0.0, True: 0.0}
    executed = counters = None
    for _ in range(rounds):
        for block_compile in (False, True):
            n, seconds, totals = _micro_run(block_compile, iterations)
            best[block_compile] = max(best[block_compile], n / seconds)
            if counters is None:
                executed, counters = n, totals
            else:
                assert totals == counters, (
                    f"microbench counters diverged: {totals} != {counters}"
                )
    return {
        "warp_instructions": executed,
        "step_winstr_per_sec": round(best[False], 1),
        "blockc_winstr_per_sec": round(best[True], 1),
        "speedup": round(best[True] / best[False], 2),
    }


def _workload_run(name: str, block_compile: bool):
    app = get_workload(name)
    started = time.perf_counter()
    artifacts = run_app(app, config=SandboxConfig(block_compile=block_compile))
    seconds = time.perf_counter() - started
    return artifacts, seconds


def _measure_workloads():
    names = workload_names()
    if quick_mode():
        names = names[:2]
    rounds = 1 if quick_mode() else 2
    rows = []
    for name in names:
        # Best-of interleaved rounds, like the microbench: one end-to-end
        # run is noisy, and the first block-compiled run additionally pays
        # codegen inside the clock (later rounds hit the process-global
        # layout cache, which is the steady state of a real campaign).
        best = {False: float("inf"), True: float("inf")}
        step = blockc = None
        for _ in range(rounds):
            step, step_seconds = _workload_run(name, block_compile=False)
            blockc, blockc_seconds = _workload_run(name, block_compile=True)
            assert step.instructions_executed == blockc.instructions_executed, name
            assert step.cycles == blockc.cycles, name
            assert step.stdout == blockc.stdout, name
            assert step.files == blockc.files, name
            best[False] = min(best[False], step_seconds)
            best[True] = min(best[True], blockc_seconds)
        executed = step.instructions_executed
        rows.append({
            "workload": name,
            "warp_instructions": executed,
            "step_seconds": round(best[False], 3),
            "blockc_seconds": round(best[True], 3),
            "step_winstr_per_sec": round(executed / best[False], 1),
            "blockc_winstr_per_sec": round(executed / best[True], 1),
            "speedup": round(best[False] / best[True], 2),
            "blocks_compiled": blockc.blockc_blocks_compiled,
            "block_hits": blockc.blockc_block_hits,
        })
    return rows


# Fig 3's permanent-fault programs, and the opcodes whose permanent-fault
# sites the instrumented rows run: an FP ALU op, a compare and a load.
_PERM_PROGRAMS = ("370.bt", "303.ostencil", "354.cg", "359.miniGhost")
_PERM_OPCODES = ("FFMA", "ISETP", "LDG")


def _permanent_sites(program: str):
    engine = CampaignEngine(program, CampaignConfig(workload=program))
    engine.run_profile()
    return [
        site for site in engine.select_permanent()
        if opcode_by_id(site.opcode_id).name in _PERM_OPCODES
    ]


def _instrumented_run(program: str, sites, block_compile: bool):
    """One program run per site; returns (totals, seconds, block hits)."""
    config = SandboxConfig(block_compile=block_compile)
    totals = []
    seconds = 0.0
    hits = 0
    for site in sites:
        tool = PermanentInjectorTool(site)
        app = get_workload(program)
        started = time.perf_counter()
        artifacts = run_app(app, preload=[tool], config=config)
        seconds += time.perf_counter() - started
        totals.append((
            artifacts.instructions_executed, artifacts.cycles,
            artifacts.stdout, artifacts.files, tool.activations,
        ))
        hits += artifacts.blockc_block_hits
    return totals, seconds, hits


def _measure_instrumented():
    programs = _PERM_PROGRAMS[:1] if quick_mode() else _PERM_PROGRAMS
    rounds = 1 if quick_mode() else 3
    rows = []
    for program in programs:
        sites = _permanent_sites(program)
        best = {False: float("inf"), True: float("inf")}
        for _ in range(rounds):
            step, step_seconds, _ = _instrumented_run(program, sites, False)
            blockc, blockc_seconds, hits = _instrumented_run(program, sites, True)
            assert step == blockc, f"{program}: instrumented runs diverged"
            best[False] = min(best[False], step_seconds)
            best[True] = min(best[True], blockc_seconds)
        executed = sum(totals[0] for totals in step)
        rows.append({
            "workload": program,
            "tool": "PermanentInjectorTool",
            "opcodes": [opcode_by_id(site.opcode_id).name for site in sites],
            "warp_instructions": executed,
            "cycles": sum(totals[1] for totals in step),
            "activations": sum(totals[4] for totals in step),
            "step_seconds": round(best[False], 3),
            "blockc_seconds": round(best[True], 3),
            "step_winstr_per_sec": round(executed / best[False], 1),
            "blockc_winstr_per_sec": round(executed / best[True], 1),
            "speedup": round(best[False] / best[True], 2),
            "block_hits": hits,
        })
    return rows


def test_interpreter_throughput(benchmark):
    micro, workloads, instrumented = benchmark.pedantic(
        lambda: (
            _measure_micro(), _measure_workloads(), _measure_instrumented()
        ),
        rounds=1, iterations=1,
    )

    payload = {
        "benchmark": "gpusim_throughput",
        "quick": quick_mode(),
        "cpu_count": os.cpu_count(),
        "microbench": micro,
        "workloads": workloads,
        "instrumented": instrumented,
        "micro_speedup_floor": _MIN_MICRO_SPEEDUP,
        "counters_identical": True,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    table_rows = [
        [
            "microbench (ALU loop)",
            micro["warp_instructions"],
            f"{micro['step_winstr_per_sec'] / 1e3:.1f}k/s",
            f"{micro['blockc_winstr_per_sec'] / 1e3:.1f}k/s",
            f"{micro['speedup']:.2f}x",
            "-",
        ]
    ] + [
        [
            row["workload"],
            row["warp_instructions"],
            f"{row['step_winstr_per_sec'] / 1e3:.1f}k/s",
            f"{row['blockc_winstr_per_sec'] / 1e3:.1f}k/s",
            f"{row['speedup']:.2f}x",
            f"{row['block_hits']}",
        ]
        for row in workloads
    ] + [
        [
            f"{row['workload']} + pf_injector",
            row["warp_instructions"],
            f"{row['step_winstr_per_sec'] / 1e3:.1f}k/s",
            f"{row['blockc_winstr_per_sec'] / 1e3:.1f}k/s",
            f"{row['speedup']:.2f}x",
            f"{row['block_hits']}",
        ]
        for row in instrumented
    ]
    emit(
        "gpusim_throughput",
        format_table(
            ["Program", "Warp-instrs", "Step", "Block-compiled", "Speedup",
             "Block hits"],
            table_rows,
            title="Interpreter throughput: per-step vs block-compiled "
                  "(instruction/cycle totals identical throughout; "
                  f"{os.cpu_count()} CPUs)",
        ),
    )

    # Block compilation must actually engage on the workloads.
    assert all(row["blocks_compiled"] > 0 for row in workloads)
    assert all(row["block_hits"] > 0 for row in workloads)
    assert all(row["block_hits"] > 0 for row in instrumented)
    assert all(row["activations"] > 0 for row in instrumented)
    if not quick_mode():
        assert micro["speedup"] >= _MIN_MICRO_SPEEDUP, (
            f"block-compiled microbench speedup regressed: "
            f"{micro['speedup']:.2f}x < {_MIN_MICRO_SPEEDUP}x "
            f"(see {BENCH_PATH})"
        )
