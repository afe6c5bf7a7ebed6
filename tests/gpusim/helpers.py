"""Harness for instruction-semantics and execution-tier tests.

``run_lanes`` wraps a SASS body in a one-warp kernel that stores R0 (or a
register pair) per lane to an output buffer, and returns the 32 lane
values.  The body sees the lane's thread id in R50.

``run_tool_both_ways`` runs a workload under an NVBit tool stepped and
block-compiled and checks that nothing observable differs.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim import Device
from repro.runner.sandbox import SandboxConfig, run_app
from repro.sass import assemble
from repro.utils.bits import f32_to_bits
from repro.workloads import get_workload


def run_lanes(
    device: Device,
    body: str,
    params: list[int] | None = None,
    result_reg: str = "R0",
    pair: bool = False,
    block: int = 32,
) -> np.ndarray:
    """Run ``body`` on one warp; returns each lane's ``result_reg`` value.

    Extra ``params`` appear at c[0x0][0x4], c[0x0][0x8], ...
    """
    params = list(params or [])
    out = device.malloc(8 * block)
    width = "64" if pair else "32"
    shift = 3 if pair else 2
    text = f"""
.kernel harness
.params {1 + len(params)}
    S2R R50, SR_TID.X ;
    MOV R51, c[0x0][0x0] ;
    ISCADD R52, R50, R51, {shift} ;
{body}
    STG.{width} [R52], {result_reg} ;
    EXIT ;
"""
    kernel = assemble(text).get("harness")
    device.launch(kernel, 1, block, [out] + params)
    if pair:
        raw = device.global_mem.read_bytes(out, 8 * block)
        return np.frombuffer(raw, dtype=np.uint64)[:block]
    raw = device.global_mem.read_bytes(out, 4 * block)
    return np.frombuffer(raw, dtype=np.uint32)[:block]


def lanes_f32(values: np.ndarray) -> np.ndarray:
    return values.astype(np.uint32).view(np.float32)


def lanes_f64(values: np.ndarray) -> np.ndarray:
    return values.astype(np.uint64).view(np.float64)


def fbits(value: float) -> int:
    return f32_to_bits(value)


def observable(artifacts) -> tuple:
    """Everything a run exposes that block compilation must not change."""
    return (
        artifacts.stdout, artifacts.files, artifacts.exit_status,
        artifacts.instructions_executed, artifacts.cycles, artifacts.dmesg,
        artifacts.cuda_errors, artifacts.warps_launched,
        artifacts.divergence_depth_high_water,
    )


def run_tool_both_ways(program: str, make_tool) -> dict:
    """Run ``program`` under a fresh tool, stepped and block-compiled.

    Asserts identical observable artifacts; returns ``{block_compile:
    (artifacts, tool)}`` for tool-specific assertions.
    """
    runs = {}
    for block_compile in (False, True):
        tool = make_tool()
        artifacts = run_app(
            get_workload(program), preload=[tool],
            config=SandboxConfig(block_compile=block_compile),
        )
        runs[block_compile] = (artifacts, tool)
    assert observable(runs[False][0]) == observable(runs[True][0])
    assert runs[False][0].blockc_block_hits == 0
    return runs
