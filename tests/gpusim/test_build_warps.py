"""Pin test for the vectorised warp construction in ``repro.gpusim.sm``.

``_build_warps`` takes all thread-id components and valid masks for a
block from one pad-and-reshape, cached per block shape, and allocates the
registers, predicates and exited masks of all the CTA's warps at once.
This test pins bit-equality of the produced warps against the
straightforward per-warp reference construction the vectorised code
replaced, across block shapes that exercise every padding case.
"""

import numpy as np
import pytest

from repro.gpusim.context import ExecContext
from repro.gpusim.sm import _build_warps
from repro.gpusim.warp import Warp
from repro.sass import assemble
from repro.sass.isa import NUM_PREDICATES, WARP_SIZE

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
        preds = np.zeros((NUM_PREDICATES, WARP_SIZE), dtype=bool)
        preds[7] = True  # PT
        warp = Warp(
            warp_id=warp_id,
            regs=np.zeros((max(kernel.num_regs, 1), WARP_SIZE), dtype=np.uint32),
            preds=preds,
            valid=valid,
            exited=~valid,
            tid=(
                padded(lanes % bx),
                padded(lanes // bx % by),
                padded(lanes // (bx * by)),
            ),
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
        assert np.array_equal(new.regs, old.regs)
        assert np.array_equal(new.preds, old.preds)
        assert new.local is None
        for axis in ("tid_x", "tid_y", "tid_z"):
            assert getattr(new, axis).dtype == getattr(old, axis).dtype
            assert np.array_equal(getattr(new, axis), getattr(old, axis))


def test_valid_masks_are_independent_per_warp():
    """Row views of one CTA-wide array back each warp's registers,
    predicates and exited mask; mutating one warp's must never leak into
    another.  The valid masks and thread ids are shared by every CTA of
    the shape, so they are read-only: no warp can change another's
    (``active`` starts as ``valid`` and is only ever replaced)."""
    ctx = _ctx((40, 1, 1))
    first, second = _build_warps(_KERNEL, ctx, _KERNEL.num_regs)
    first.exited[:] = True  # everything in warp 0 exits
    first.regs[:] = 7
    first.preds[:] = True
    assert second.exited.sum() == WARP_SIZE - 8  # only its padded lanes
    assert not second.regs.any()
    assert second.preds.sum() == WARP_SIZE  # PT only
    assert first.active is first.valid
    for shared in (first.valid, first.tid_x, second.valid, second.tid_z):
        with pytest.raises(ValueError):
            shared[0] = 1
    again = _build_warps(_KERNEL, _ctx((40, 1, 1)), _KERNEL.num_regs)
    assert np.shares_memory(again[1].valid, second.valid)  # cached per shape
    assert not np.shares_memory(again[1].regs, second.regs)
