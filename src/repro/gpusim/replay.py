"""Golden-replay fast-forward: skip simulating everything before the fault.

NVBitFI's headline property (paper §III-C, Figures 4–5) is that an
injection run costs barely more than an uninstrumented run, because only
the one targeted kernel launch is instrumented.  This module takes the
idea to its logical end, ZOFI-style: every launch *strictly before* the
target ``(kernel_name, kernel_count)`` instance is bit-identical to the
golden run, so it does not need to be simulated at all — its effect on
persistent device state can be replayed from a recording.

Three pieces:

* :class:`ReplayRecorder` — attached to the golden run's
  :class:`~repro.gpusim.device.Device`; at every kernel-launch boundary it
  captures the launch's global-memory write delta (dirty 256-byte pages,
  tracked by :class:`~repro.mem.memory.GlobalMemory`) and the end-of-launch
  device counters (instructions, cycles, warps, divergence high-water,
  active SMs), producing a :class:`ReplayLog`;
* :class:`ReplayLog` — the per-campaign recording, with a compact binary
  on-disk format (:func:`save_replay_log` / :func:`load_replay_log`; loads
  are cached per process so parallel campaign workers share one read-only
  copy).  Beside each launch's delta the tape carries the golden run's
  instruction counts for that launch
  (:class:`~repro.gpusim.counts.LaunchCounts`);
* :class:`ReplayCursor` — one per run, consulted by
  :meth:`repro.cuda.driver.CudaDriver.cuLaunchKernel`: while memory
  equals golden (the cursor's ``golden`` state) a launch applies its
  recorded delta with one vectorised numpy copy instead of simulating;
  a launch that must simulate — the target, or an instrumented launch
  the task's fault can reach — runs normally.

**Tail fast-forward** closes the other half of the gap: masked faults
dominate real campaigns, and a masked fault's architectural state usually
re-converges with the golden run within a few launches.  With ``tail``
enabled a must-simulate launch does not end replay for good: at its
boundary the cursor snapshots a *shadow* of golden global memory (memory
still equals golden there) and enters ``diverged``; after every simulated
launch it advances the shadow by the recorded golden delta and maintains
the *divergence set* — the 256-byte pages whose live contents differ from
the shadow — from :class:`~repro.mem.memory.GlobalMemory` dirty-page
tracking.  At the first launch boundary where the divergence set is empty
the fault is architecturally dead: the cursor returns to ``golden`` and
replays the remaining launches from the tape.  Anything the tape cannot
vouch for — a host read (``cuMemcpyDtoH``) touching a divergent page, a
CUDA error after the target, running past the tape, or any metadata
mismatch — turns the cursor ``off``, falling back to simulation.

Correctness is enforceable because the whole stack is deterministic: the
recorded per-launch metadata (kernel name, instance, grid, block,
arguments, shared memory) is verified against the live launch before it
replays or is tracked.  The only persistent cross-launch device state is
global memory (shared memory, constant banks and warp state are rebuilt
per launch), so page-exact equality with the shadow at a launch boundary
implies the remaining launches are bit-identical to the tape.
``results.csv`` is byte-identical with fast-forward (before or after the
target) on or off; skipped launches reconstruct their
``instructions_executed``/cycle accounting from the recorded counters, so
traces, metrics and the Figure 4/5 overhead numbers stay exact.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import threading
from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError, WatchdogTimeout
from repro.gpusim.counts import LaunchCounter, LaunchCounts
from repro.mem.memory import PAGE_SHIFT, PAGE_SIZE
from repro.utils.atomic import write_atomic

# Version 3 carries the per-launch instruction counts.  A tape of another
# version does not load, so a cache entry of it is a miss.
_MAGIC = b"RPRL\x03\n"
_MAGIC_PREFIX = b"RPRL"

# Launch boundaries the divergence set may stay non-empty before the tail
# gives up.  Masked faults that re-converge at all do so almost immediately
# (the corrupted value dies in-kernel or the polluted buffer is overwritten
# within a launch or two); a persistently divergent run would otherwise pay
# dirty-page tracking on every remaining launch for nothing.  Giving up is
# always safe — it only forfeits a possible speedup.
TAIL_PATIENCE = 8

#: The three :class:`ReplayCursor` states.
GOLDEN = "golden"
DIVERGED = "diverged"
OFF = "off"


Dim3 = tuple[int, int, int]


@dataclass
class LaunchDelta:
    """Everything one golden launch did to persistent device state.

    ``pages``/``data`` hold the post-launch contents of every dirty page
    (``data`` is ``len(pages) * PAGE_SIZE`` bytes, page-major); the counter
    fields are per-launch deltas except ``divergence_high_water``, which is
    the absolute post-launch high-water mark.
    """

    kernel_name: str
    instance: int  # per-kernel dynamic instance index (the injector's count)
    grid: Dim3
    block: Dim3
    args: tuple[int, ...]
    shared_bytes: int
    instructions: int
    cycles: int
    warps: int
    divergence_high_water: int
    active_sms: tuple[int, ...]
    pages: np.ndarray  # int64 page indices, sorted
    data: np.ndarray  # uint8, page-major dirty-page contents

    def matches(
        self, kernel_name: str, grid: Dim3, block: Dim3, args, shared_bytes: int
    ) -> bool:
        """Does a live launch look exactly like this recorded one?"""
        return (
            kernel_name == self.kernel_name
            and grid == self.grid
            and block == self.block
            and tuple(args) == self.args
            and shared_bytes == self.shared_bytes
        )


class ReplayLog:
    """One golden run's launch-by-launch recording."""

    def __init__(
        self,
        mem_size: int,
        launches: list[LaunchDelta],
        workload: str = "",
        counts: list[LaunchCounts] | None = None,
    ) -> None:
        self.mem_size = mem_size
        self.launches = launches
        self.workload = workload
        #: The golden run's instruction counts, one per launch, or ``None``
        #: when the recording run did not count.
        self.counts = counts
        #: sha256 hex digest of the serialised blob section; set by the
        #: loader (and by ``save_replay_log``) so callers such as the
        #: persistent replay cache can validate content identity.
        self.content_hash: str | None = None
        self._by_instance: dict[tuple[str, int], int] | None = None

    def __len__(self) -> int:
        return len(self.launches)

    def stop_launch_for(self, kernel_name: str, kernel_count: int) -> int | None:
        """Global launch-sequence index of the (kernel_count+1)-th dynamic
        instance of ``kernel_name`` — the first launch that must simulate."""
        if self._by_instance is None:
            self._by_instance = {
                (rec.kernel_name, rec.instance): seq
                for seq, rec in enumerate(self.launches)
            }
        return self._by_instance.get((kernel_name, kernel_count))

    @property
    def total_pages(self) -> int:
        return sum(int(rec.pages.size) for rec in self.launches)


class ReplayRecorder:
    """Captures per-launch deltas while attached to a golden run's device.

    The recorder is fail-safe: any launch that raises, any device whose
    memory size is not page-aligned, and any overlapping recording session
    aborts the recording (``log()`` then returns ``None``) rather than
    producing a log that could replay wrong state.
    """

    def __init__(self, counter: LaunchCounter | None = None) -> None:
        self.launches: list[LaunchDelta] = []
        self.aborted = False
        self.workload = ""
        self.counter = counter  # its counts go in the tape beside the deltas
        self._mem_size: int | None = None
        self._instances: dict[str, int] = {}
        self._snapshot: tuple[int, int, int, set[int]] | None = None

    # -- Device.launch hooks ---------------------------------------------------

    def begin_launch(self, device) -> None:
        """Called by :meth:`Device.launch` before the first block runs."""
        if self.aborted:
            return
        mem = device.global_mem
        if mem.size % PAGE_SIZE != 0:
            self.abort()
            return
        if self._mem_size is None:
            self._mem_size = mem.size
        elif self._mem_size != mem.size:  # a second device mid-recording
            self.abort()
            return
        self._snapshot = (
            device.instructions_executed,
            device.cycles,
            device.warps_launched,
            set(device.active_sms),
        )
        mem.begin_write_tracking()

    def end_launch(
        self, device, kernel_name: str, grid: Dim3, block: Dim3,
        args, shared_bytes: int,
    ) -> None:
        """Called by :meth:`Device.launch` after the last block completes."""
        if self.aborted or self._snapshot is None:
            return
        mem = device.global_mem
        pages = mem.end_write_tracking()
        instructions0, cycles0, warps0, sms0 = self._snapshot
        self._snapshot = None
        instance = self._instances.get(kernel_name, 0)
        self._instances[kernel_name] = instance + 1
        data = (
            mem.data.reshape(-1, PAGE_SIZE)[pages].ravel().copy()
            if pages.size
            else np.empty(0, dtype=np.uint8)
        )
        self.launches.append(
            LaunchDelta(
                kernel_name=kernel_name,
                instance=instance,
                grid=grid,
                block=block,
                args=tuple(int(a) for a in args),
                shared_bytes=shared_bytes,
                instructions=device.instructions_executed - instructions0,
                cycles=device.cycles - cycles0,
                warps=device.warps_launched - warps0,
                divergence_high_water=device.divergence_depth_high_water,
                active_sms=tuple(sorted(device.active_sms - sms0)),
                pages=pages,
                data=data,
            )
        )

    def abort(self) -> None:
        """Discard the recording (a launch faulted or state is untrackable)."""
        self.aborted = True
        self.launches = []
        self._snapshot = None

    def log(self) -> ReplayLog | None:
        """The finished recording, or ``None`` when nothing usable was taped.

        It carries the counter's counts when every taped launch was
        counted, and none otherwise.
        """
        if self.aborted or self._mem_size is None or not self.launches:
            return None
        counter = self.counter
        counts = None
        if (
            counter is not None
            and counter.complete
            and len(counter.launches) == len(self.launches)
        ):
            counts = counter.launches
        return ReplayLog(
            self._mem_size, self.launches, workload=self.workload, counts=counts
        )


class ReplayCursor:
    """Per-run fast-forward state, consulted once per ``cuLaunchKernel``.

    The cursor is in one of three states:

    ``golden``
        memory equals golden at this boundary, so a launch replays from
        the tape;
    ``diverged``
        a simulated launch opened shadow tracking: every launch simulates
        and folds its dirty pages and the recorded golden delta into the
        shadow and the divergence set;
    ``off``
        the tape can no longer describe this run; everything simulates.

    One rule decides what a golden boundary does: a launch must simulate
    when it is the target (``stop_launch``, a global launch-sequence
    index; ``None`` for a targetless cursor), or when it is instrumented
    and the fault can reach it.  Without a ``site`` every instrumented
    launch can.  A permanent or intermittent fault's ``site`` is
    ``(opcode id, SM, lane)``: it can reach only a launch in which golden
    executed that opcode on that SM with that lane in the exec mask
    (:meth:`~repro.gpusim.counts.LaunchCounts.reaches`).  Any other
    launch whose input memory equals golden runs exactly as golden did,
    so it replays, and an instrumented one is charged the callbacks its
    hooks would have cost: 5 cycles per warp-level execution of the
    opcode plus 1 per executing thread.  A transient task is the
    one-target case, the cached golden run and a permanent task the
    no-target case, and :class:`~repro.gpusim.multifault.SweepCursor` a
    sorted series of targets.  The transitions:

    ========  ===============================================  ========
    from      event                                            to
    ========  ===============================================  ========
    golden    a launch that need not simulate (it replays)     golden
    golden    a must-simulate launch, ``tail`` on: the shadow  diverged
              snapshot is taken here
    golden    a must-simulate launch, ``tail`` off             off
    diverged  a boundary with an empty divergence set          golden
    diverged  :data:`TAIL_PATIENCE` boundaries since the last  off
              must-simulate launch, still divergent
    diverged  a host read of a divergent page, a faulted       off
              launch
    any       a launch off the tape, mismatched metadata or    off
              a different memory size
    golden    a CUDA error before the first target             golden,
                                                               tail off
    any       a CUDA error after it                            off
    ========  ===============================================  ========

    ``skipped`` counts launches replayed before the first must-simulate
    launch (while ``converged_at`` is still ``None``), ``tail_skipped``
    the ones replayed after a re-convergence.
    """

    def __init__(
        self,
        log: ReplayLog,
        stop_launch: int | None = None,
        tail: bool = False,
        site: tuple[int, int, int] | None = None,
    ) -> None:
        self.log = log
        self.stop_launch = (
            stop_launch if stop_launch is None else min(stop_launch, len(log))
        )
        self.tail = tail
        self.site = site
        self._hook_execs: tuple[int, int] | None = None  # (W, T) to charge on apply
        self.state = GOLDEN
        self.skipped = 0
        self.tail_skipped = 0
        self.converged_at = None  # launch seq where the divergence set emptied
        self.divergent: set[int] = set()
        self._shadow: np.ndarray | None = None  # golden global-memory mirror
        self._pending: LaunchDelta | None = None  # golden delta of the tracked launch
        self._waited = 0  # divergent boundaries since the last must-simulate launch

    def consult(
        self,
        device,
        kernel_name: str,
        grid: Dim3,
        block: Dim3,
        args,
        shared_bytes: int,
        instrumented: bool,
    ) -> LaunchDelta | None:
        """The recorded delta to apply instead of simulating, or ``None``."""
        if self.state == OFF:
            return None
        seq = device.launch_count
        rec = self.log.launches[seq] if seq < len(self.log.launches) else None
        if (
            rec is None
            or device.global_mem.size != self.log.mem_size
            or not rec.matches(kernel_name, grid, block, args, shared_bytes)
        ):
            # Past the tape or a different launch: the recording cannot
            # describe this launch, replayed or tracked.
            self._off()
            return None
        if self.state == DIVERGED and not self.divergent:
            # Memory equals the shadow, which equals golden at this
            # boundary: the fault is architecturally dead.
            self.state = GOLDEN
            self.converged_at = seq
            self._shadow = None
        must_simulate = seq == self.stop_launch or (
            instrumented and self._reaches(seq)
        )
        if self.state == GOLDEN:
            if not must_simulate:
                if instrumented:
                    self._hook_execs = self.log.counts[seq].executions(
                        self.site[0]
                    )
                return rec
            if not self.tail:
                self._off()
                return None
            # The one place memory is known to equal golden: snapshot it.
            self._shadow = device.global_mem.shadow_copy()
            self.state = DIVERGED
        if must_simulate:
            self._waited = 0
        else:
            self._waited += 1
            if self._waited > TAIL_PATIENCE:
                # Still divergent after TAIL_PATIENCE boundaries: treat the
                # fault as persistent and stop paying for tracking.
                self._off()
                return None
        self._pending = rec
        return None

    # -- Device.launch hooks (diverged state only) -----------------------------

    def begin_simulated_launch(self, device) -> None:
        """Open a dirty-page window around a tracked simulated launch."""
        device.global_mem.begin_write_tracking()

    def end_simulated_launch(self, device) -> None:
        """Fold one simulated launch into the shadow and divergence set."""
        if self.state != DIVERGED:
            return
        written = device.global_mem.end_write_tracking()
        rec, self._pending = self._pending, None
        if rec is None:  # a launch consult never saw (shouldn't happen)
            self._off()
            return
        shadow = self._shadow
        if rec.pages.size:
            shadow.reshape(-1, PAGE_SIZE)[rec.pages] = rec.data.reshape(
                -1, PAGE_SIZE
            )
        candidates = self.divergent.union(
            written.tolist(), rec.pages.tolist()
        )
        if candidates:
            pages = np.fromiter(
                candidates, dtype=np.int64, count=len(candidates)
            )
            differing = device.global_mem.diff_pages(shadow, pages)
            self.divergent = set(differing.tolist())
        else:
            self.divergent = set()

    def launch_faulted(self, device) -> None:
        """A tracked launch raised: partial writes make the divergence set
        untrustworthy (and golden saw no fault), so the cursor goes off."""
        device.global_mem.end_write_tracking()
        self._off()

    # -- host traffic (CudaDriver) ---------------------------------------------

    def note_host_write(self, address: int, payload: bytes) -> None:
        """Mirror a successful ``cuMemcpyHtoD`` into the shadow.

        Sound while the read/error guards hold: host state can only diverge
        from golden by observing divergent device bytes or a CUDA error,
        both of which turn the cursor off — so any HtoD payload reaching
        this point is golden-identical.
        """
        if self.state == DIVERGED and len(payload):
            self._shadow[address : address + len(payload)] = np.frombuffer(
                payload, dtype=np.uint8
            )

    def note_host_read(self, address: int, nbytes: int) -> None:
        """A ``cuMemcpyDtoH`` overlapping a divergent page makes divergence
        host-visible: the host may now branch away from golden, so the
        cursor goes off."""
        if self.state != DIVERGED or nbytes <= 0 or not self.divergent:
            return
        first = address >> PAGE_SHIFT
        last = (address + nbytes - 1) >> PAGE_SHIFT
        if any(first <= page <= last for page in self.divergent):
            self._off()

    def note_cuda_error(self) -> None:
        """A recorded CUDA error, which the golden run never had: the host
        may branch on it.  Before the first target only the tail turns off
        (the launches up to the target are still verified one by one);
        after it the cursor goes off."""
        if self.state == GOLDEN and self.converged_at is None:
            self.tail = False
        else:
            self._off()

    # -- internals -------------------------------------------------------------

    def _reaches(self, seq: int) -> bool:
        """Can the fault reach launch ``seq``?  Always without a site or
        without counts to tell."""
        if self.site is None or self.log.counts is None:
            return True
        return self.log.counts[seq].reaches(*self.site)

    def _off(self) -> None:
        self.state = OFF
        self._shadow = None
        self._pending = None
        self.divergent = set()

    def apply(self, device, rec: LaunchDelta) -> None:
        """Fast-forward one launch: restore its write delta and counters.

        A replayed instrumented launch first pays its callbacks (the
        executions :meth:`consult` looked up).  The bulk counter charge goes
        through :meth:`Device.tick_n` — last, so that when the recorded
        instructions push the run over its budget the raised
        :class:`WatchdogTimeout` leaves exactly the same device state
        (memory, launch/warp counters, skip tallies) as before.
        """
        hooked, self._hook_execs = self._hook_execs, None
        if hooked is not None:
            device.charge_instrumentation(hooked[1], callbacks=hooked[0])
        mem = device.global_mem
        if rec.pages.size:
            mem.data.reshape(-1, PAGE_SIZE)[rec.pages] = rec.data.reshape(
                -1, PAGE_SIZE
            )
        device.launch_count += 1
        device.warps_launched += rec.warps
        device.active_sms.update(rec.active_sms)
        if rec.divergence_high_water > device.divergence_depth_high_water:
            device.divergence_depth_high_water = rec.divergence_high_water
        if self.converged_at is None:
            self.skipped += 1
        else:
            self.tail_skipped += 1
        device.tick_n(rec.instructions, cycles=rec.cycles)


# -- on-disk format ------------------------------------------------------------
#
#   magic (6 bytes) | header length (uint32 LE) | JSON header | blobs
#
# The JSON header carries the log-level fields plus per-launch metadata
# (including each launch's page count); the blob section holds, for each
# launch in order, the int64 little-endian page-index array followed by the
# raw page contents, then the counts section.  Everything after the header
# is offset-computable, so the loader is a single sequential read.
#
# The counts section stores every launch's LaunchCounts concatenated, as
# seven little-endian arrays in :data:`_COUNT_ARRAYS` order: an (n, 3)
# int64 index of (handle, opcodes, lane entries) per launch,
# then the W, T, lane-mask, opcode, lane-opcode and lane-SM columns.  The
# header's ``counts`` field gives the two column lengths; a log without
# counts has no such field and no section.
#
# The header also embeds ``sha256``, the hex digest of the blob section:
# the loader rejects a log whose blobs do not match (torn write, bit rot,
# or a rewrite that kept the header), and the persistent replay cache uses
# the digest as its content-identity check.

# (LaunchCounts attribute, dtype, column) of each counts array after the index.
_COUNT_ARRAYS = (
    ("warp_execs", "<i8", "ops"),
    ("thread_execs", "<i8", "ops"),
    ("lane_masks", "<u4", "lanes"),
    ("opcodes", "<u2", "ops"),
    ("lane_opcodes", "<u2", "lanes"),
    ("lane_sms", "<u2", "lanes"),
)


def _blobs(log: ReplayLog) -> list[bytes]:
    """The blob section of ``log``, in file order."""
    blobs = []
    for rec in log.launches:
        blobs.append(rec.pages.astype("<i8").tobytes())
        blobs.append(rec.data.tobytes())
    if log.counts is not None:
        index = np.array(
            [(c.handle, c.opcodes.size, c.lane_masks.size) for c in log.counts],
            dtype="<i8",
        ).reshape(-1, 3)
        blobs.append(index.tobytes())
        for attr, dtype, _ in _COUNT_ARRAYS:
            column = [getattr(c, attr) for c in log.counts]
            blobs.append(
                np.concatenate(column).astype(dtype).tobytes() if column else b""
            )
    return blobs


def save_replay_log(log: ReplayLog, path: str | os.PathLike) -> None:
    """Serialise ``log`` to ``path`` (atomically, via a temp file)."""
    blobs = _blobs(log)
    digest = hashlib.sha256()
    for blob in blobs:
        digest.update(blob)
    content_hash = digest.hexdigest()
    header = {
        "page_size": PAGE_SIZE,
        "mem_size": log.mem_size,
        "workload": log.workload,
        "sha256": content_hash,
        "launches": [
            {
                "kernel": rec.kernel_name,
                "instance": rec.instance,
                "grid": list(rec.grid),
                "block": list(rec.block),
                "args": list(rec.args),
                "shared": rec.shared_bytes,
                "instructions": rec.instructions,
                "cycles": rec.cycles,
                "warps": rec.warps,
                "div_hw": rec.divergence_high_water,
                "sms": list(rec.active_sms),
                "num_pages": int(rec.pages.size),
            }
            for rec in log.launches
        ],
    }
    if log.counts is not None:
        header["counts"] = {
            "ops": sum(c.opcodes.size for c in log.counts),
            "lanes": sum(c.lane_masks.size for c in log.counts),
        }
    blob = json.dumps(header, separators=(",", ":")).encode()
    write_atomic(path, _MAGIC, struct.pack("<I", len(blob)), blob, *blobs)
    log.content_hash = content_hash


def _read_replay_log(path: str | os.PathLike) -> ReplayLog:
    with open(path, "rb") as handle:
        raw = handle.read()
    magic = raw[: len(_MAGIC)]
    if magic != _MAGIC:
        if magic[: len(_MAGIC_PREFIX)] == _MAGIC_PREFIX:
            raise ReproError(
                f"{path} is a replay log of another tape version "
                f"({magic!r}, this build reads {_MAGIC!r})"
            )
        raise ReproError(f"{path} is not a replay log (bad magic)")
    offset = len(_MAGIC)
    try:
        (header_len,) = struct.unpack_from("<I", raw, offset)
        offset += 4
        header = json.loads(raw[offset : offset + header_len].decode())
    except (struct.error, ValueError) as exc:
        # A torn write: the file ends inside its header.
        raise ReproError(f"{path} has a truncated header: {exc}") from None
    offset += header_len
    if header.get("page_size") != PAGE_SIZE:
        raise ReproError(
            f"{path} was recorded with page size {header.get('page_size')}, "
            f"this build uses {PAGE_SIZE}"
        )
    expected_hash = header.get("sha256")
    if expected_hash is not None:
        actual = hashlib.sha256(raw[offset:]).hexdigest()
        if actual != expected_hash:
            raise ReproError(
                f"{path} failed content validation: blob sha256 {actual} "
                f"does not match recorded {expected_hash}"
            )
    try:
        launches, offset = _read_launches(raw, offset, header["launches"])
        counts = None
        if "counts" in header:
            counts = _read_counts(raw, offset, header["counts"], launches)
    except (KeyError, TypeError, ValueError) as exc:
        raise ReproError(f"{path} has a malformed blob section: {exc}") from None
    log = ReplayLog(
        header["mem_size"], launches, workload=header.get("workload", ""),
        counts=counts,
    )
    log.content_hash = expected_hash
    return log


def _read_launches(raw: bytes, offset: int, metas) -> tuple[list[LaunchDelta], int]:
    launches = []
    for meta in metas:
        num_pages = meta["num_pages"]
        pages = np.frombuffer(raw, dtype="<i8", count=num_pages, offset=offset)
        offset += 8 * num_pages
        nbytes = num_pages * PAGE_SIZE
        data = np.frombuffer(raw, dtype=np.uint8, count=nbytes, offset=offset)
        offset += nbytes
        launches.append(
            LaunchDelta(
                kernel_name=meta["kernel"],
                instance=meta["instance"],
                grid=tuple(meta["grid"]),
                block=tuple(meta["block"]),
                args=tuple(meta["args"]),
                shared_bytes=meta["shared"],
                instructions=meta["instructions"],
                cycles=meta["cycles"],
                warps=meta["warps"],
                divergence_high_water=meta["div_hw"],
                active_sms=tuple(meta["sms"]),
                pages=pages.astype(np.int64),
                data=data,
            )
        )
    return launches, offset


def _read_counts(
    raw: bytes, offset: int, sizes: dict, launches: list[LaunchDelta]
) -> list[LaunchCounts]:
    """The counts section: one :class:`LaunchCounts` per launch, its arrays
    views into the concatenated columns."""
    n = len(launches)
    index = np.frombuffer(raw, dtype="<i8", count=3 * n, offset=offset).reshape(n, 3)
    offset += index.nbytes
    columns = {}
    for attr, dtype, size in _COUNT_ARRAYS:
        column = np.frombuffer(raw, dtype=dtype, count=sizes[size], offset=offset)
        offset += column.nbytes
        columns[attr] = column
    if offset != len(raw):
        raise ValueError(f"{len(raw) - offset} bytes past the counts section")
    ops = np.concatenate(([0], np.cumsum(index[:, 1]))).tolist()
    lanes = np.concatenate(([0], np.cumsum(index[:, 2]))).tolist()
    opcodes, warps, threads = (
        columns["opcodes"], columns["warp_execs"], columns["thread_execs"]
    )
    lane_opcodes, lane_sms, lane_masks = (
        columns["lane_opcodes"], columns["lane_sms"], columns["lane_masks"]
    )
    return [
        LaunchCounts(
            rec.kernel_name, handle,
            opcodes[o0:o1], warps[o0:o1], threads[o0:o1],
            lane_opcodes[l0:l1], lane_sms[l0:l1], lane_masks[l0:l1],
        )
        for rec, handle, o0, o1, l0, l1 in zip(
            launches, index[:, 0].tolist(), ops, ops[1:], lanes, lanes[1:],
        )
    ]


def _peek_content_hash(path: str | os.PathLike) -> str | None:
    """The header-embedded blob digest, read without parsing the blobs.

    Returns ``None`` for pre-digest logs; I/O or parse errors also return
    ``None`` and are left for the full read to report properly.
    """
    try:
        with open(path, "rb") as handle:
            if handle.read(len(_MAGIC)) != _MAGIC:
                return None
            prefix = handle.read(4)
            if len(prefix) < 4:
                return None
            (header_len,) = struct.unpack("<I", prefix)
            header = json.loads(handle.read(header_len).decode())
    except (OSError, ValueError):
        return None
    return header.get("sha256")


# One read-only copy per process: parallel campaign workers (and a serial
# engine re-running against the same store) all share the cached log.  The
# key includes file identity (path, mtime_ns, size) *and* the
# header-embedded content digest, so an overwritten log is reloaded even
# when the rewrite preserves mtime and size (e.g. a golden re-run after a
# workload edit restored with ``os.utime``) — never served stale.
_LOG_CACHE: dict[tuple[str, int, int, str | None], ReplayLog] = {}
_LOG_CACHE_LOCK = threading.Lock()


def load_replay_log(path: str | os.PathLike) -> ReplayLog:
    """Load (with per-process caching) the replay log at ``path``."""
    stat = os.stat(path)
    key = (
        os.path.realpath(path),
        stat.st_mtime_ns,
        stat.st_size,
        _peek_content_hash(path),
    )
    with _LOG_CACHE_LOCK:
        cached = _LOG_CACHE.get(key)
        if cached is not None:
            return cached
    log = _read_replay_log(path)
    with _LOG_CACHE_LOCK:
        _LOG_CACHE.clear()  # at most one live log per worker process
        _LOG_CACHE[key] = log
    return log


@dataclass(frozen=True)
class ReplayRef:
    """A picklable pointer to one task's fast-forward window.

    ``path`` names the on-disk log; ``stop_launch`` is the target launch's
    global sequence index: the launches before it replay, and with
    ``tail`` the launches after it replay again once state re-converges
    with golden.  A permanent or intermittent task has no target
    (``stop_launch=None``) and carries its fault ``site``, ``(opcode id,
    SM, lane)``: every launch the fault cannot reach replays (see
    :class:`ReplayCursor`).  Workers thaw the reference into a live
    :class:`ReplayCursor` via the per-process log cache; a missing or
    unreadable log degrades to full simulation instead of failing the
    task.
    """

    path: str
    stop_launch: int | None
    tail: bool = False
    site: tuple[int, int, int] | None = None

    def cursor(self) -> ReplayCursor | None:
        try:
            log = load_replay_log(self.path)
        except (OSError, ReproError):
            return None
        return ReplayCursor(log, self.stop_launch, tail=self.tail, site=self.site)
