"""Simulated memory spaces with per-lane vectorised access and MMU checks.

A faulty address register produced by an injected error must behave like it
does on a real GPU: misaligned or unmapped accesses raise
:class:`~repro.errors.MemoryViolation`, which the device turns into an
early kernel termination plus a CUDA error + dmesg (Xid) record — the
"potential DUE" path of the paper's Table V.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.errors import MemoryViolation
from repro.mem.allocator import Allocator
from repro.sass.isa import WARP_SIZE

# Dirty-page tracking granularity (see repro.gpusim.replay): word-aligned
# stores never straddle a 256-byte page, so tracking is one shift per store.
PAGE_SIZE = 256
PAGE_SHIFT = 8

# The widest device store is 8 bytes (store64); an aligned W-byte store at
# address A has A % W == 0, so A // PAGE_SIZE == (A + W - 1) // PAGE_SIZE
# whenever PAGE_SIZE % W == 0.  That is why note_stores / store32 / store64
# may page-index only the *starting* address of each lane's access — host
# write_bytes has no alignment contract and must span first..last page.
assert PAGE_SIZE % 8 == 0 and PAGE_SIZE == 1 << PAGE_SHIFT

# The bytes of a lane mask with every lane set.
_ALL_LANES = b"\x01" * WARP_SIZE


class GlobalMemory:
    """Device global memory: a flat byte array plus an allocation map."""

    def __init__(self, size: int = 64 * 1024 * 1024) -> None:
        self.size = size
        self.data = np.zeros(size, dtype=np.uint8)
        self.allocator = Allocator(size)
        self._rebuild_ranges()
        # Dirty-page tracking (repro.gpusim.replay): while a tracking window
        # is open, every write records the 256-byte pages it touches.  None
        # means tracking is off and the stores pay nothing.
        self._dirty: set[int] | None = None

    # -- write tracking (golden-replay recording) ----------------------------

    def begin_write_tracking(self) -> None:
        """Start collecting the pages every subsequent write touches."""
        self._dirty = set()

    def end_write_tracking(self) -> np.ndarray:
        """Stop tracking; return the sorted dirty page indices."""
        dirty, self._dirty = self._dirty, None
        if not dirty:
            return np.empty(0, dtype=np.int64)
        pages = np.fromiter(dirty, dtype=np.int64, count=len(dirty))
        pages.sort()
        return pages

    def note_stores(self, addresses: np.ndarray, mask: np.ndarray) -> None:
        """Record word stores done by mutating ``data`` directly (atomics)."""
        if self._dirty is not None:
            self._note_dirty(addresses[mask])

    def shadow_copy(self) -> np.ndarray:
        """A same-sized golden-memory mirror, copying only allocated spans.

        Tail fast-forward snapshots this at the injection-target boundary.
        Untouched memory is zero on both sides (``data`` starts zeroed), so
        skipping unallocated ranges is exact for every page the allocator
        has never handed out.  Pages of *freed* allocations may hold stale
        bytes the zeroed mirror lacks — but a page only ever enters the
        divergence comparison after a post-target write, and the recorded
        golden delta (applied to the mirror first) carries full-page
        contents, stale bytes included.  A freed-stale page the tape never
        rewrites can therefore only report a false *divergence* — which
        merely keeps the tail disarmed, never replays wrong state.
        """
        out = np.zeros(self.size, dtype=np.uint8)
        for start, end in zip(self._starts, self._ends):
            out[start:end] = self.data[start:end]
        return out

    def diff_pages(self, shadow: np.ndarray, pages: np.ndarray) -> np.ndarray:
        """Among ``pages``, those whose live contents differ from ``shadow``.

        Tail fast-forward (:mod:`repro.gpusim.replay`) maintains its
        divergence set with this: ``shadow`` is a same-sized golden-memory
        mirror and the comparison is one vectorised per-page reduction over
        only the candidate pages.
        """
        if pages.size == 0:
            return pages
        mine = self.data.reshape(-1, PAGE_SIZE)[pages]
        theirs = shadow.reshape(-1, PAGE_SIZE)[pages]
        return pages[(mine != theirs).any(axis=1)]

    # -- allocation ---------------------------------------------------------

    def alloc(self, nbytes: int) -> int:
        address = self.allocator.alloc(nbytes)
        self._rebuild_ranges()
        return address

    def free(self, address: int) -> None:
        self.allocator.free(address)
        self._rebuild_ranges()

    def _rebuild_ranges(self) -> None:
        spans = sorted(
            (start, start + size)
            for start, size in self.allocator._allocated.items()
        )
        self._starts = [s for s, _ in spans]
        self._ends = [e for _, e in spans]

    # -- host (memcpy) access -----------------------------------------------

    def write_bytes(self, address: int, payload: bytes | np.ndarray) -> None:
        payload = np.frombuffer(bytes(payload), dtype=np.uint8)
        if address < 0 or address + len(payload) > self.size:
            raise MemoryViolation(address, len(payload), "global", "out-of-range host")
        self.data[address : address + len(payload)] = payload
        if self._dirty is not None and len(payload):
            first = address >> PAGE_SHIFT
            last = (address + len(payload) - 1) >> PAGE_SHIFT
            self._dirty.update(range(first, last + 1))

    def read_bytes(self, address: int, nbytes: int) -> bytes:
        if address < 0 or address + nbytes > self.size:
            raise MemoryViolation(address, nbytes, "global", "out-of-range host")
        return self.data[address : address + nbytes].tobytes()

    # -- device (warp) access -------------------------------------------------

    def validate(self, addresses: np.ndarray, mask: np.ndarray, width: int) -> np.ndarray:
        """MMU check (alignment and membership in a live allocation) of
        the active lanes' addresses; returns them.

        Under a full mask that is ``addresses`` itself (no boolean index).
        Fast path for the common case, a warp access inside one
        allocation: one sort gives the lowest and highest active address,
        which must lie inside the allocation the lowest one falls in, and
        one byte compare shows every lane aligned (``width`` is a power of
        two).  Anything else goes to :meth:`_validate_lanes`, the per-lane
        reference check, which alone decides what raises and which address
        and reason a :class:`MemoryViolation` reports.
        """
        active = addresses if mask.tobytes() == _ALL_LANES else addresses[mask]
        if active.size:
            ordered = active.copy()
            ordered.sort()
            slot = bisect_right(self._starts, int(ordered[0])) - 1
            if not (
                slot >= 0
                and int(ordered[-1]) + width <= self._ends[slot]
                and (active & (width - 1)).tobytes() == bytes(active.nbytes)
            ):
                self._validate_lanes(active, width)
        return active

    def _validate_lanes(self, active: np.ndarray, width: int) -> None:
        """Per-lane reference check of the active lanes' addresses."""
        misaligned = active % width != 0
        if misaligned.any():
            bad = int(active[misaligned][0])
            raise MemoryViolation(bad, width, "global", "misaligned")
        if not self._starts:
            raise MemoryViolation(int(active[0]), width, "global", "unmapped")
        slot = np.searchsorted(self._starts, active, side="right") - 1
        ends = np.array(self._ends, dtype=np.int64)
        in_range = (slot >= 0) & (active + width <= ends[np.maximum(slot, 0)])
        if not in_range.all():
            bad = int(active[~in_range][0])
            raise MemoryViolation(bad, width, "global", "unmapped")

    # Gathers and scatters index validated (so non-negative, aligned)
    # addresses: ``>> 2`` / ``>> 3`` is the word index.  Inactive lanes
    # load 0; a full mask gathers and scatters without a boolean index.

    def load32(self, addresses: np.ndarray, mask: np.ndarray) -> np.ndarray:
        active = self.validate(addresses, mask, 4)
        words = self.data.view(np.uint32)
        if active is addresses:
            return words[addresses >> 2]
        out = np.zeros(addresses.shape, dtype=np.uint32)
        out[mask] = words[active >> 2]
        return out

    def store32(self, addresses: np.ndarray, mask: np.ndarray, values: np.ndarray) -> None:
        active = self.validate(addresses, mask, 4)
        if active is not addresses:
            values = values[mask]
        self.data.view(np.uint32)[active >> 2] = values.astype(np.uint32, copy=False)
        self._note_dirty(active)

    def load64(self, addresses: np.ndarray, mask: np.ndarray) -> np.ndarray:
        active = self.validate(addresses, mask, 8)
        words = self.data.view(np.uint64)
        if active is addresses:
            return words[addresses >> 3]
        out = np.zeros(addresses.shape, dtype=np.uint64)
        out[mask] = words[active >> 3]
        return out

    def store64(self, addresses: np.ndarray, mask: np.ndarray, values: np.ndarray) -> None:
        active = self.validate(addresses, mask, 8)
        if active is not addresses:
            values = values[mask]
        self.data.view(np.uint64)[active >> 3] = values.astype(np.uint64, copy=False)
        self._note_dirty(active)

    def _note_dirty(self, active: np.ndarray) -> None:
        """Record the pages of the word stores at ``active``."""
        if self._dirty is not None:
            self._dirty.update((active >> PAGE_SHIFT).tolist())


class SharedMemory:
    """Per-block scratchpad; sized from the kernel's ``.shared`` directive."""

    def __init__(self, size: int) -> None:
        self.size = size
        self.data = np.zeros(max(size, 4), dtype=np.uint8)

    def validate(self, addresses: np.ndarray, mask: np.ndarray, width: int) -> None:
        active = addresses[mask]
        if active.size == 0:
            return
        misaligned = active % width != 0
        if misaligned.any():
            raise MemoryViolation(int(active[misaligned][0]), width, "shared", "misaligned")
        oob = (active < 0) | (active + width > self.size)
        if oob.any():
            raise MemoryViolation(int(active[oob][0]), width, "shared", "out-of-bounds")

    def load32(self, addresses: np.ndarray, mask: np.ndarray) -> np.ndarray:
        self.validate(addresses, mask, 4)
        out = np.zeros(addresses.shape, dtype=np.uint32)
        out[mask] = self.data.view(np.uint32)[addresses[mask] // 4]
        return out

    def store32(self, addresses: np.ndarray, mask: np.ndarray, values: np.ndarray) -> None:
        self.validate(addresses, mask, 4)
        self.data.view(np.uint32)[addresses[mask] // 4] = values[mask].astype(np.uint32)

    def load64(self, addresses: np.ndarray, mask: np.ndarray) -> np.ndarray:
        self.validate(addresses, mask, 8)
        out = np.zeros(addresses.shape, dtype=np.uint64)
        out[mask] = self.data.view(np.uint64)[addresses[mask] // 8]
        return out

    def store64(self, addresses: np.ndarray, mask: np.ndarray, values: np.ndarray) -> None:
        self.validate(addresses, mask, 8)
        self.data.view(np.uint64)[addresses[mask] // 8] = values[mask].astype(np.uint64)


class ConstantBank:
    """Read-only constant bank; bank 0 holds the 32-bit kernel parameters.

    A launch gets its own bank, so a word's lanes change only when the
    parameters are installed: :meth:`broadcast` builds each offset's
    broadcast once per installation and shares it.
    """

    def __init__(self, size: int = 4096) -> None:
        self.size = size
        self.data = np.zeros(size, dtype=np.uint8)
        self._broadcasts: dict[int, np.ndarray] = {}

    def write_params(self, words: list[int]) -> None:
        """Host-side: install kernel parameters at offset 0."""
        if 4 * len(words) > self.size:
            raise MemoryViolation(4 * len(words), 4, "constant", "out-of-bounds")
        arr = np.array(words, dtype=np.uint64).astype(np.uint32)
        self.data.view(np.uint32)[: len(words)] = arr
        self._broadcasts.clear()

    def read32(self, offset: int) -> int:
        if offset % 4 != 0 or offset < 0 or offset + 4 > self.size:
            raise MemoryViolation(offset, 4, "constant", "out-of-bounds")
        return int(self.data.view(np.uint32)[offset // 4])

    def broadcast(self, offset: int) -> np.ndarray:
        """The word at ``offset`` in every lane, as a ``c[..]`` operand
        reads it: one shared read-only array per offset.  Its first read
        goes through :meth:`read32`, which validates the offset."""
        lanes = self._broadcasts.get(offset)
        if lanes is None:
            lanes = np.full(WARP_SIZE, self.read32(offset), dtype=np.uint32)
            lanes.flags.writeable = False
            self._broadcasts[offset] = lanes
        return lanes

    def load32(self, offsets: np.ndarray, mask: np.ndarray) -> np.ndarray:
        active = offsets[mask]
        if active.size:
            if (active % 4 != 0).any() or (active < 0).any() or (active + 4 > self.size).any():
                raise MemoryViolation(int(active[0]), 4, "constant", "out-of-bounds")
        out = np.zeros(offsets.shape, dtype=np.uint32)
        out[mask] = self.data.view(np.uint32)[offsets[mask] // 4]
        return out
