"""Pin test for the vectorised warp construction in ``repro.gpusim.sm``.

``_build_warps`` builds all thread-id components and valid masks for a
block with one pad-and-reshape instead of one ``np.concatenate`` per warp
per component.  This test pins bit-equality of the produced warps against
the straightforward per-warp reference construction the vectorised code
replaced, across block shapes that exercise every padding case.
"""

import numpy as np
import pytest

from repro.gpusim.context import ExecContext
from repro.gpusim.sm import _build_warps
from repro.gpusim.warp import Warp
from repro.sass import assemble
from repro.sass.isa import WARP_SIZE

_KERNEL = assemble(
    """
.kernel pin
.params 1
    S2R R1, SR_TID.X ;
    EXIT ;
"""
).get("pin")


def _ctx(ntid) -> ExecContext:
    # _build_warps reads only ctx.ntid; the memory spaces are irrelevant
    # to construction and stay unbound here.
    return ExecContext(
        global_mem=None,
        shared=None,
        const=None,
        ctaid=(0, 0, 0),
        ntid=ntid,
        nctaid=(1, 1, 1),
        sm_id=0,
        grid_id=0,
        clock=lambda: 0,
    )


def _reference_warps(kernel, ctx) -> list[Warp]:
    """The pre-vectorisation construction: one concatenate per warp per
    thread-id component, zero-padded to WARP_SIZE."""
    bx, by, bz = ctx.ntid
    total = bx * by * bz
    num_warps = -(-total // WARP_SIZE)
    warps = []
    for warp_id in range(num_warps):
        lanes = np.arange(
            warp_id * WARP_SIZE,
            min((warp_id + 1) * WARP_SIZE, total),
            dtype=np.int64,
        )
        pad = WARP_SIZE - lanes.size
        def padded(component):
            return np.concatenate(
                [component.astype(np.uint32), np.zeros(pad, dtype=np.uint32)]
            )
        valid = np.concatenate(
            [np.ones(lanes.size, dtype=bool), np.zeros(pad, dtype=bool)]
        )
        warp = Warp(
            warp_id=warp_id,
            num_regs=kernel.num_regs,
            valid_mask=valid,
            tid=(
                padded(lanes % bx),
                padded(lanes // bx % by),
                padded(lanes // (bx * by)),
            ),
            local_bytes=kernel.local_bytes,
        )
        warp.ctx = ctx
        warps.append(warp)
    return warps


@pytest.mark.parametrize(
    "ntid",
    [
        (1, 1, 1),  # one thread: 31 padded lanes
        (32, 1, 1),  # exactly one full warp
        (33, 1, 1),  # one full warp + one lane
        (70, 1, 1),  # partial tail warp
        (16, 3, 2),  # 3-D shape, exact warp multiple
        (8, 8, 2),  # 3-D shape, wide y
        (7, 5, 3),  # 3-D shape, every component odd
    ],
)
def test_matches_reference_construction(ntid):
    ctx = _ctx(ntid)
    built = _build_warps(_KERNEL, ctx, _KERNEL.num_regs)
    reference = _reference_warps(_KERNEL, ctx)
    assert len(built) == len(reference)
    for new, old in zip(built, reference):
        assert new.warp_id == old.warp_id
        assert np.array_equal(new.valid, old.valid)
        assert np.array_equal(new.active, old.active)
        assert np.array_equal(new.exited, old.exited)
        assert new.done == old.done
        for axis in ("tid_x", "tid_y", "tid_z"):
            assert getattr(new, axis).dtype == getattr(old, axis).dtype
            assert np.array_equal(getattr(new, axis), getattr(old, axis))


def test_valid_masks_are_independent_per_warp():
    """Row views of one block-wide array back the masks; mutating one
    warp's execution state must never leak into another (Warp copies its
    ``valid_mask`` argument and derives ``exited`` freshly)."""
    ctx = _ctx((40, 1, 1))
    first, second = _build_warps(_KERNEL, ctx, _KERNEL.num_regs)
    first.valid[:] = False
    first.active[:] = False
    first.exited[:] = True  # everything in warp 0 exits
    assert second.valid.sum() == 8  # warp 1 keeps its 8 live lanes
    assert second.exited.sum() == WARP_SIZE - 8  # only its padded lanes
