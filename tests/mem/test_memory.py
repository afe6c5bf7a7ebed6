"""Unit tests for global/shared/constant memory with MMU checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MemoryViolation
from repro.mem.memory import (
    PAGE_SHIFT,
    PAGE_SIZE,
    ConstantBank,
    GlobalMemory,
    SharedMemory,
)


def _lanes(values) -> np.ndarray:
    out = np.zeros(32, dtype=np.int64)
    out[: len(values)] = values
    return out


def _mask(count: int) -> np.ndarray:
    mask = np.zeros(32, dtype=bool)
    mask[:count] = True
    return mask


class TestGlobalMemory:
    def test_host_roundtrip(self):
        mem = GlobalMemory(1 << 16)
        block = mem.alloc(64)
        mem.write_bytes(block, b"\x01\x02\x03\x04")
        assert mem.read_bytes(block, 4) == b"\x01\x02\x03\x04"

    def test_load32_gather(self):
        mem = GlobalMemory(1 << 16)
        block = mem.alloc(64)
        mem.write_bytes(block, np.arange(16, dtype=np.uint32).tobytes())
        addrs = _lanes([block, block + 4, block + 60])
        out = mem.load32(addrs, _mask(3))
        assert list(out[:3]) == [0, 1, 15]

    def test_store32_scatter(self):
        mem = GlobalMemory(1 << 16)
        block = mem.alloc(64)
        addrs = _lanes([block + 8, block + 12])
        values = np.zeros(32, dtype=np.uint32)
        values[0], values[1] = 7, 9
        mem.store32(addrs, _mask(2), values)
        raw = np.frombuffer(mem.read_bytes(block, 16), dtype=np.uint32)
        assert raw[2] == 7 and raw[3] == 9

    def test_load64(self):
        mem = GlobalMemory(1 << 16)
        block = mem.alloc(64)
        mem.write_bytes(block, np.array([0x1122334455667788], np.uint64).tobytes())
        out = mem.load64(_lanes([block]), _mask(1))
        assert out[0] == 0x1122334455667788

    def test_misaligned_raises(self):
        mem = GlobalMemory(1 << 16)
        block = mem.alloc(64)
        with pytest.raises(MemoryViolation, match="misaligned"):
            mem.load32(_lanes([block + 2]), _mask(1))

    def test_unmapped_raises(self):
        mem = GlobalMemory(1 << 16)
        mem.alloc(64)
        with pytest.raises(MemoryViolation, match="unmapped"):
            mem.load32(_lanes([0x8000]), _mask(1))

    def test_null_pointer_raises(self):
        mem = GlobalMemory(1 << 16)
        mem.alloc(64)
        with pytest.raises(MemoryViolation):
            mem.load32(_lanes([0]), _mask(1))

    def test_straddling_allocation_end_raises(self):
        mem = GlobalMemory(1 << 16)
        block = mem.alloc(64)  # rounds to 256
        with pytest.raises(MemoryViolation, match="unmapped"):
            mem.load32(_lanes([block + 256]), _mask(1))

    def test_freed_memory_raises(self):
        mem = GlobalMemory(1 << 16)
        block = mem.alloc(64)
        mem.free(block)
        with pytest.raises(MemoryViolation, match="unmapped"):
            mem.load32(_lanes([block]), _mask(1))

    def test_inactive_lanes_not_checked(self):
        mem = GlobalMemory(1 << 16)
        block = mem.alloc(64)
        addrs = _lanes([block, 0xDEAD1])  # lane 1 bad but inactive
        out = mem.load32(addrs, _mask(1))
        assert out.shape == (32,)

    def test_misaligned_64bit(self):
        mem = GlobalMemory(1 << 16)
        block = mem.alloc(64)
        with pytest.raises(MemoryViolation, match="misaligned"):
            mem.load64(_lanes([block + 4]), _mask(1))


_PROP_HEAP = 1 << 15


@st.composite
def _validate_case(draw):
    """A random allocation map plus one warp access to check against it.

    The map comes from random allocs and frees (the allocator packs
    allocations back to back, so neighbours are adjacent).  Lanes land
    inside one anchor allocation, where the fast path applies, except up
    to three strays: misaligned, negative, anywhere in the heap (freed and
    never-allocated space included), at or past the anchor's end, or
    inside another allocation.
    """
    mem = GlobalMemory(_PROP_HEAP)
    live = []
    for _ in range(draw(st.integers(0, 12))):
        if live and draw(st.booleans()):
            mem.free(live.pop(draw(st.integers(0, len(live) - 1))))
        else:
            live.append(mem.alloc(draw(st.integers(1, 1024))))
    spans = list(zip(mem._starts, mem._ends))
    width = draw(st.sampled_from((4, 8)))
    # Half the time the highest allocation, which has no live neighbour
    # above it: lanes at or past its end must fault.
    anchor = (
        draw(st.one_of(st.just(spans[-1]), st.sampled_from(spans)))
        if spans else (256, 512)
    )

    def aligned_in(span):
        start, end = span
        return start + width * draw(st.integers(0, (end - start) // width - 1))

    kinds = st.sampled_from(
        ("misaligned", "negative", "past_end", "other", "anywhere")
    )
    strays = draw(st.sets(st.integers(0, 31), max_size=3))
    addresses = np.zeros(32, dtype=np.int64)
    for lane in range(32):
        kind = draw(kinds) if lane in strays else "anchor"
        if kind == "anchor":
            address = aligned_in(anchor)
        elif kind == "misaligned":
            address = aligned_in(anchor) + draw(st.integers(1, width - 1))
        elif kind == "negative":
            address = -draw(st.integers(1, 64))
        elif kind == "past_end":
            address = anchor[1] + draw(st.sampled_from((-width // 2, 0, width)))
        elif kind == "other" and spans:
            address = aligned_in(draw(st.sampled_from(spans)))
        else:
            address = draw(st.integers(-64, _PROP_HEAP + 64))
        addresses[lane] = address
    lanes = draw(st.sampled_from(("all", "none", "some", "some")))
    if lanes == "some":
        mask = np.array(draw(st.lists(st.booleans(), min_size=32, max_size=32)))
    else:
        mask = np.full(32, lanes == "all")
    return mem, addresses, mask, width


def _violation(check) -> tuple | None:
    try:
        check()
    except MemoryViolation as exc:
        return (exc.address, exc.width, exc.space, exc.reason)
    return None


class TestValidateFastPath:
    """``GlobalMemory.validate`` accepts in-allocation accesses without
    the per-lane check; everything else must behave exactly as the
    per-lane reference check does."""

    @given(_validate_case())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_lane_reference(self, case):
        mem, addresses, mask, width = case
        active = addresses[mask]

        def reference():
            if active.size:
                mem._validate_lanes(active, width)

        assert _violation(
            lambda: mem.validate(addresses, mask, width)
        ) == _violation(reference)

    def test_in_allocation_access_skips_per_lane_check(self, monkeypatch):
        mem = GlobalMemory(1 << 16)
        mem.alloc(64)
        block = mem.alloc(512)
        mem.alloc(64)

        def per_lane(*_args):
            raise AssertionError("fast path not taken")

        monkeypatch.setattr(mem, "_validate_lanes", per_lane)
        mem.validate(block + 8 * np.arange(32, dtype=np.int64)[::-1],
                     np.ones(32, dtype=bool), 8)

    def test_lanes_in_adjacent_allocations_pass(self):
        """Two live neighbours: the fast path declines, the reference
        accepts."""
        mem = GlobalMemory(1 << 16)
        first = mem.alloc(256)
        second = mem.alloc(256)
        assert second == first + 256
        mem.validate(_lanes([first + 252, second]), _mask(2), 4)


class TestDirtyPageTracking:
    """Edge cases of the write-tracking window that golden-replay recording
    and tail fast-forward divergence tracking both depend on."""

    def _tracked(self, size=1 << 16) -> GlobalMemory:
        mem = GlobalMemory(size)
        mem.begin_write_tracking()
        return mem

    def test_host_write_straddles_pages(self):
        """``write_bytes`` has no alignment contract: a payload crossing a
        page boundary must dirty every page it touches."""
        mem = GlobalMemory(1 << 16)
        mem.alloc(4 * PAGE_SIZE)
        mem.begin_write_tracking()
        mem.write_bytes(PAGE_SIZE - 1, b"\xaa" * (PAGE_SIZE + 2))  # pages 0..2
        assert mem.end_write_tracking().tolist() == [0, 1, 2]

    def test_host_write_single_byte_at_page_end(self):
        mem = self._tracked()
        mem.write_bytes(2 * PAGE_SIZE - 1, b"\x01")
        assert mem.end_write_tracking().tolist() == [1]

    def test_empty_host_write_dirties_nothing(self):
        mem = self._tracked()
        mem.write_bytes(0, b"")
        assert mem.end_write_tracking().size == 0

    def test_aligned_stores_cannot_straddle(self):
        """The tracking soundness argument: an aligned W-byte store
        (W divides PAGE_SIZE) starts and ends on the same page, so
        store32/store64/note_stores may page-index starting addresses only."""
        for width in (4, 8):
            assert PAGE_SIZE % width == 0
            last_aligned = PAGE_SIZE - width  # the worst case on any page
            assert (last_aligned >> PAGE_SHIFT) == (
                (last_aligned + width - 1) >> PAGE_SHIFT
            )

    def test_store32_at_page_edges(self):
        mem = GlobalMemory(1 << 16)
        block = mem.alloc(2 * PAGE_SIZE)
        assert block % PAGE_SIZE == 0  # allocator returns page-aligned blocks
        mem.begin_write_tracking()
        # Last word of the first page and first word of the second.
        addrs = _lanes([block + PAGE_SIZE - 4, block + PAGE_SIZE])
        mem.store32(addrs, _mask(2), np.ones(32, dtype=np.uint32))
        pages = mem.end_write_tracking()
        assert pages.tolist() == [block >> PAGE_SHIFT, (block >> PAGE_SHIFT) + 1]

    def test_store64_tracks_start_page_only(self):
        mem = GlobalMemory(1 << 16)
        block = mem.alloc(2 * PAGE_SIZE)
        mem.begin_write_tracking()
        addrs = np.zeros(32, dtype=np.int64)
        addrs[0] = block + PAGE_SIZE - 8  # aligned: stays on the first page
        mem.store64(addrs, _mask(1), np.full(32, 0xAB, dtype=np.uint64))
        assert mem.end_write_tracking().tolist() == [block >> PAGE_SHIFT]

    def test_note_stores_ignores_inactive_lanes(self):
        """Atomics report via note_stores; masked-off lanes must not dirty
        their (possibly garbage) addresses."""
        mem = self._tracked()
        addrs = _lanes([3 * PAGE_SIZE, 0xDEAD00])  # lane 1 inactive
        mem.note_stores(addrs, _mask(1))
        assert mem.end_write_tracking().tolist() == [3]

    def test_note_stores_outside_window_is_free(self):
        mem = GlobalMemory(1 << 16)
        mem.note_stores(_lanes([0]), _mask(1))  # no window: no-op
        mem.begin_write_tracking()
        assert mem.end_write_tracking().size == 0

    def test_windows_are_independent(self):
        """A second window must not resurface the first window's pages."""
        mem = self._tracked()
        mem.write_bytes(0, b"\x01")
        assert mem.end_write_tracking().tolist() == [0]
        mem.begin_write_tracking()
        mem.write_bytes(5 * PAGE_SIZE, b"\x01")
        assert mem.end_write_tracking().tolist() == [5]


class TestDiffPages:
    def test_reports_only_differing_candidates(self):
        mem = GlobalMemory(1 << 16)
        shadow = mem.data.copy()
        mem.data[3 * PAGE_SIZE] ^= 0xFF  # page 3 diverges
        candidates = np.array([1, 3, 7], dtype=np.int64)
        assert mem.diff_pages(shadow, candidates).tolist() == [3]

    def test_single_bit_difference_detected(self):
        mem = GlobalMemory(1 << 16)
        shadow = mem.data.copy()
        mem.data[5 * PAGE_SIZE + PAGE_SIZE - 1] ^= 0x01  # last byte, one bit
        assert mem.diff_pages(shadow, np.array([5], np.int64)).tolist() == [5]

    def test_divergence_outside_candidates_unreported(self):
        """diff_pages only examines the candidate set — the caller owns the
        invariant that every possibly-divergent page is a candidate."""
        mem = GlobalMemory(1 << 16)
        shadow = mem.data.copy()
        mem.data[2 * PAGE_SIZE] ^= 0xFF
        assert mem.diff_pages(shadow, np.array([0, 1], np.int64)).size == 0

    def test_empty_candidates(self):
        mem = GlobalMemory(1 << 16)
        out = mem.diff_pages(mem.data.copy(), np.empty(0, dtype=np.int64))
        assert out.size == 0


class TestSharedMemory:
    def test_roundtrip(self):
        shared = SharedMemory(128)
        values = np.zeros(32, dtype=np.uint32)
        values[0] = 42
        shared.store32(_lanes([16]), _mask(1), values)
        assert shared.load32(_lanes([16]), _mask(1))[0] == 42

    def test_out_of_bounds(self):
        shared = SharedMemory(128)
        with pytest.raises(MemoryViolation, match="out-of-bounds"):
            shared.load32(_lanes([128]), _mask(1))

    def test_misaligned(self):
        shared = SharedMemory(128)
        with pytest.raises(MemoryViolation, match="misaligned"):
            shared.load32(_lanes([3]), _mask(1))


class TestConstantBank:
    def test_params_visible(self):
        bank = ConstantBank()
        bank.write_params([10, 20, 0xFFFFFFFF])
        assert bank.read32(0) == 10
        assert bank.read32(4) == 20
        assert bank.read32(8) == 0xFFFFFFFF

    def test_vector_load(self):
        bank = ConstantBank()
        bank.write_params([5, 6])
        out = bank.load32(_lanes([0, 4]), _mask(2))
        assert list(out[:2]) == [5, 6]

    def test_out_of_bounds_read(self):
        bank = ConstantBank(size=16)
        with pytest.raises(MemoryViolation):
            bank.read32(16)

    def test_misaligned_read(self):
        bank = ConstantBank()
        with pytest.raises(MemoryViolation):
            bank.read32(2)
