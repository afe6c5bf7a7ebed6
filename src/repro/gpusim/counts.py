"""Per-launch instruction counts, taken by the golden run itself.

NVBitFI's profiler (paper §III-A) hooks every instruction of every launch
and adds up the threads that executed it.  The golden run executes exactly
the same dynamic instructions, so it can count them as it goes.  A
:class:`LaunchCounter` attached to a device (``Device.launch_counter``)
tallies, per launch and opcode:

* ``warp_execs`` (W): warp-level executions.  A hook fires, and is
  charged, even when the guard leaves no lane;
* ``thread_execs`` (T): thread-level executions by the profiler's rule
  (``InstrSite.num_executed``), so predicated-off lanes are excluded;
* per SM, the OR of the lanes that executed.

A stepped instruction tallies its own exec mask.  A compiled block tallies
once per run (``SM._run_slice_fast``, given a tally): ``warp.active``
before the run, which is constant inside a block because only the op
that ends it can change it, and, when it holds a guarded pc, the
predicates after the run.
A block is only counted this way when no pc at or after a guarded pc
writes that pc's predicate (:attr:`repro.gpusim.blockc.Block.countable`);
any other block steps.  The tallies are keyed by mask bytes; they are
expanded into per-opcode counts once per distinct key, at the launch's end.

The counts serve two consumers: :meth:`repro.core.engine.CampaignEngine.run_profile`
derives the instruction profile from them instead of running the
profiler, and a permanent or intermittent task's
:class:`~repro.gpusim.replay.ReplayCursor` replays every launch in which
golden never executed the fault's opcode on its SM with its lane active.
They travel in the replay tape beside each
:class:`~repro.gpusim.replay.LaunchDelta`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sass.isa import WARP_SIZE, opcode_by_id

_FULL_MASK = (1 << WARP_SIZE) - 1


@dataclass
class LaunchCounts:
    """What one launch executed, per opcode.

    ``opcodes`` lists the opcode ids the launch executed at warp level,
    ascending, with their W and T alongside.  The ``lane_*`` arrays hold
    one entry per (opcode, SM) on which some lane executed that opcode:
    the OR of those exec masks, bit ``l`` for lane ``l``.  ``handle`` is
    the first-launch ordinal of the function handle that launched it (two
    module loads of one image are two handles).
    """

    kernel_name: str
    handle: int
    opcodes: np.ndarray  # uint16
    warp_execs: np.ndarray  # int64
    thread_execs: np.ndarray  # int64
    lane_opcodes: np.ndarray  # uint16
    lane_sms: np.ndarray  # uint16
    lane_masks: np.ndarray  # uint32

    def executions(self, opcode_id: int) -> tuple[int, int]:
        """``(W, T)`` of one opcode in this launch."""
        i = int(np.searchsorted(self.opcodes, opcode_id))
        if i < self.opcodes.size and self.opcodes[i] == opcode_id:
            return int(self.warp_execs[i]), int(self.thread_execs[i])
        return 0, 0

    def reaches(self, opcode_id: int, sm_id: int, lane: int) -> bool:
        """Did some execution of ``opcode_id`` on ``sm_id`` have ``lane``
        in its exec mask?"""
        hit = (self.lane_opcodes == opcode_id) & (self.lane_sms == sm_id)
        return bool(np.any(self.lane_masks[hit] >> np.uint32(lane) & 1))

    def thread_counts(self) -> dict[str, int]:
        """The profiler's record of this launch: opcode name -> T, for
        every opcode some thread executed."""
        return {
            opcode_by_id(int(op)).name: int(count)
            for op, count in zip(self.opcodes, self.thread_execs)
            if count
        }

    @property
    def total_warp_execs(self) -> int:
        """Every warp-level execution: the launch's instruction count."""
        return int(self.warp_execs.sum())

    @property
    def total_thread_execs(self) -> int:
        return int(self.thread_execs.sum())


class LaunchCounter:
    """Counts every launch of one run (attached as ``Device.launch_counter``).

    ``complete`` turns false when a launch ran hooked, which the counting
    loop does not take; ``launches`` then misses that launch and nothing
    may be derived from it.  A golden run has no hooks.
    """

    def __init__(self) -> None:
        self.launches: list[LaunchCounts] = []
        self.complete = True
        self._function = None
        self._handles: dict[int, int] = {}
        self._held: list = []  # noted handles, kept alive so ids stay unique
        # CompiledKernel -> (step expansions, run expansions):
        # a tally key expands the same way in every launch of its kernel,
        # and a launch whose tallies equal an earlier one's (a kernel
        # relaunched on the same shape) shares its count arrays.
        self._kernels: dict = {}
        self._launches: dict = {}

    def note_function(self, func) -> None:
        """The function handle of the next launch (``cuLaunchKernel``)."""
        self._function = func

    def begin_launch(self, hooks) -> dict | None:
        """The launch's tallies, ``{sm_id: (steps, runs)}``, or ``None``
        for a hooked launch (uncounted)."""
        if hooks:
            self.complete = False
            return None
        return {}

    def end_launch(self, kernel, compiled, blocks, tallies: dict) -> None:
        """Expand a finished launch's tallies into its :class:`LaunchCounts`."""
        owner = self._function if self._function is not None else kernel
        self._function = None
        handle = self._handles.get(id(owner))
        if handle is None:
            handle = self._handles[id(owner)] = len(self._handles)
            self._held.append(owner)
        known = self._kernels.get(compiled)
        if known is None:
            known = self._kernels[compiled] = ({}, {})
        step_cache, run_cache = known
        seen = (compiled, tuple(
            (sm_id, tuple(steps.items()), tuple(runs.items()))
            for sm_id, (steps, runs) in tallies.items()
        ))
        arrays = self._launches.get(seen)
        if arrays is None:
            arrays = self._launches[seen] = self._expand(
                compiled, blocks, tallies, step_cache, run_cache
            )
        self.launches.append(
            LaunchCounts(kernel.name, handle, *arrays)
        )

    def _expand(self, compiled, blocks, tallies, step_cache, run_cache) -> tuple:
        """A launch's six count arrays, in :class:`LaunchCounts` order."""
        warps: dict[int, int] = {}
        threads: dict[int, int] = {}
        lanes: dict[tuple[int, int], int] = {}
        for sm_id, (steps, runs) in tallies.items():
            for tally, cache, expand in (
                (steps, step_cache, self._expand_step),
                (runs, run_cache, self._expand_run),
            ):
                for key, n in tally.items():
                    contributions = cache.get(key)
                    if contributions is None:
                        contributions = cache[key] = expand(key, compiled, blocks)
                    for op, w, t, mask in contributions:
                        warps[op] = warps.get(op, 0) + n * w
                        threads[op] = threads.get(op, 0) + n * t
                        if mask:
                            lanes[op, sm_id] = lanes.get((op, sm_id), 0) | mask
        ops = sorted(warps)
        lane_keys = sorted(lanes)
        return (
            np.array(ops, dtype=np.uint16),
            np.array([warps[op] for op in ops], dtype=np.int64),
            np.array([threads[op] for op in ops], dtype=np.int64),
            np.array([op for op, _ in lane_keys], dtype=np.uint16),
            np.array([sm for _, sm in lane_keys], dtype=np.uint16),
            np.array([lanes[k] for k in lane_keys], dtype=np.uint32),
        )

    @staticmethod
    def _expand_step(key, compiled, blocks) -> list[tuple[int, int, int, int]]:
        """``[(opcode, W, T, lanes)]`` of one stepped execution."""
        pc, mask = key
        lanes = _lanes(mask)
        return [(compiled.instructions[pc].opcode_id, 1, lanes.bit_count(), lanes)]

    @staticmethod
    def _expand_run(key, compiled, blocks) -> list[tuple[int, int, int, int]]:
        """``[(opcode, W, T, lanes)]`` of one block run, per opcode: each
        pc's exec mask is ``active``, ``active`` and its guard predicate
        after the run, or no lane for ``@!PT``."""
        block = blocks[key[0]]
        active = _lanes(key[1])
        preds = _pred_lanes(key[2]) if len(key) > 2 else ()
        merged: dict[int, list[int]] = {}
        for instr in compiled.instructions[block.start:block.end]:
            guard = instr.guard
            if guard is None or guard.is_pt and not guard.negate:
                mask = active
            elif guard.is_pt:
                mask = 0
            elif guard.negate:
                mask = active & (preds[guard.index] ^ _FULL_MASK)
            else:
                mask = active & preds[guard.index]
            entry = merged.get(instr.opcode_id)
            if entry is None:
                merged[instr.opcode_id] = [1, mask.bit_count(), mask]
            else:
                entry[0] += 1
                entry[1] += mask.bit_count()
                entry[2] |= mask
        return [(op, w, t, mask) for op, (w, t, mask) in merged.items()]


def _lanes(mask: bytes) -> int:
    """A lane mask's bytes (one bool per lane) as an int, bit ``l`` for
    lane ``l``."""
    packed = np.packbits(np.frombuffer(mask, dtype=np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def _pred_lanes(rows: bytes) -> list[int]:
    """The bytes of a warp's predicate rows, each row as :func:`_lanes`."""
    packed = np.packbits(
        np.frombuffer(rows, dtype=np.uint8).reshape(-1, WARP_SIZE),
        axis=1, bitorder="little",
    )
    return [int.from_bytes(row.tobytes(), "little") for row in packed]
