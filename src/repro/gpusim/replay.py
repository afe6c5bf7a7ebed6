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
  copy);
* :class:`ReplayCursor` — one per injection run, consulted by
  :meth:`repro.cuda.driver.CudaDriver.cuLaunchKernel`: launches before the
  target instance apply the recorded delta with one vectorised numpy copy
  instead of simulating; the target launch and everything after it (state
  may have diverged) simulate normally.

**Tail fast-forward** closes the other half of the gap: masked faults
dominate real campaigns, and a masked fault's architectural state usually
re-converges with the golden run within a few launches.  With ``tail``
enabled the cursor keeps going after the target: at the target boundary it
snapshots a *shadow* of golden global memory (memory still equals golden
there), then after every simulated launch it advances the shadow by the
recorded golden delta and maintains the *divergence set* — the 256-byte
pages whose live contents differ from the shadow — from
:class:`~repro.mem.memory.GlobalMemory` dirty-page tracking.  At the first
launch boundary where the divergence set is empty the fault is
architecturally dead: the cursor **re-arms** and replays every remaining
launch from the tape.  Re-arm is conservative — a host read
(``cuMemcpyDtoH``) touching a divergent page, any recorded CUDA error, an
instrumented post-target launch, running past the tape, or any metadata
mismatch permanently disarms the tail, falling back to simulation.

Correctness is enforceable because the whole stack is deterministic: the
recorded per-launch metadata (kernel name, instance, grid, block,
arguments, shared memory) is verified against the live launch, and any
mismatch — or any instrumented launch — permanently disarms the cursor,
falling back to full simulation.  The only persistent cross-launch device
state is global memory (shared memory, constant banks and warp state are
rebuilt per launch), so page-exact equality with the shadow at a launch
boundary implies the remaining launches are bit-identical to the tape.
``results.csv`` is byte-identical with fast-forward (pre or tail) on or
off; skipped launches reconstruct their ``instructions_executed``/cycle
accounting from the recorded counters, so traces, metrics and the
Figure 4/5 overhead numbers stay exact.
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
from repro.mem.memory import PAGE_SHIFT, PAGE_SIZE

_MAGIC = b"RPRL\x01\n"

# Launch boundaries the divergence set may stay non-empty before the tail
# gives up.  Masked faults that re-converge at all do so almost immediately
# (the corrupted value dies in-kernel or the polluted buffer is overwritten
# within a launch or two); a persistently divergent run would otherwise pay
# dirty-page tracking on every remaining launch for nothing.  Giving up is
# always safe — it only forfeits a possible speedup.
TAIL_PATIENCE = 8


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
        self, mem_size: int, launches: list[LaunchDelta], workload: str = ""
    ) -> None:
        self.mem_size = mem_size
        self.launches = launches
        self.workload = workload
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

    def __init__(self) -> None:
        self.launches: list[LaunchDelta] = []
        self.aborted = False
        self.workload = ""
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
        """The finished recording, or ``None`` when nothing usable was taped."""
        if self.aborted or self._mem_size is None or not self.launches:
            return None
        return ReplayLog(self._mem_size, self.launches, workload=self.workload)


class ReplayCursor:
    """Per-run fast-forward state, consulted once per ``cuLaunchKernel``.

    ``stop_launch`` is the global sequence index of the target launch: only
    launches with a strictly smaller index may be pre-replayed (``pre``).
    With ``tail`` enabled the cursor does not die at the target: it tracks
    post-target divergence against a golden shadow and re-arms the moment
    the divergence set empties at a launch boundary, replaying the rest of
    the run from the tape.

    The cursor is a five-state machine:

    ``PRE``
        pre-target replay armed (the PR-4 behaviour);
    ``WAIT``
        no pre-target window (``pre=False``) — simulate, waiting for the
        target boundary to start tail tracking;
    ``TRACKING``
        post-target: every simulated launch folds its dirty pages and the
        recorded golden delta into the shadow/divergence set;
    ``REPLAYING``
        re-armed: the divergence set emptied at a boundary, remaining
        launches replay from the tape;
    ``OFF``
        permanently disarmed; everything simulates.

    Disarm rules are conservative.  Reaching the target ends ``PRE``; an
    instrumented post-target launch (permanent/intermittent-style tooling
    the tape does not cover), running past the tape, a metadata or
    memory-size mismatch, a faulted launch, a recorded CUDA error, or a
    host read of a divergent page all turn the tail ``OFF`` for good.
    Tracking also gives up (``patience``, default :data:`TAIL_PATIENCE`)
    once the divergence set has stayed non-empty for that many launch
    boundaries — re-converging faults die within a launch or two, and a
    persistent one would pay dirty-page tracking forever for nothing.
    """

    _PRE = "pre"
    _WAIT = "wait"
    _TRACKING = "tracking"
    _REPLAYING = "replaying"
    _OFF = "off"

    def __init__(
        self,
        log: ReplayLog,
        stop_launch: int,
        pre: bool = True,
        tail: bool = False,
        patience: int | None = TAIL_PATIENCE,
    ) -> None:
        self.log = log
        self.stop_launch = min(stop_launch, len(log.launches))
        self.tail = tail
        self._patience = patience  # None: track until the tape runs out
        self.skipped = 0  # launches replayed before the target (PRE)
        self.tail_skipped = 0  # launches replayed after convergence (REPLAYING)
        self.converged_at = None  # launch seq where the divergence set emptied
        self.divergent: set[int] = set()
        self._shadow: np.ndarray | None = None  # golden global-memory mirror
        self._pending: tuple[int, LaunchDelta] | None = None
        if pre:
            self._state = self._PRE
        elif tail:
            self._state = self._WAIT
        else:
            self._state = self._OFF

    @property
    def armed(self) -> bool:
        """Pre-target replay active (compatibility with the PR-4 cursor)."""
        return self._state == self._PRE

    @property
    def tracking(self) -> bool:
        """Post-target divergence tracking active (checked by Device.launch)."""
        return self._state == self._TRACKING

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
        state = self._state
        if state == self._OFF:
            return None
        seq = device.launch_count
        if state in (self._PRE, self._WAIT):
            if seq >= self.stop_launch or instrumented:
                return self._reach_target(
                    device, seq, kernel_name, grid, block, args, shared_bytes
                )
            if state == self._WAIT:
                return None
            if device.global_mem.size != self.log.mem_size:
                self._state = self._OFF
                return None
            rec = self.log.launches[seq]
            if not rec.matches(kernel_name, grid, block, args, shared_bytes):
                self._state = self._OFF
                return None
            return rec
        if state == self._TRACKING:
            return self._consult_tracking(
                device, seq, kernel_name, grid, block, args, shared_bytes,
                instrumented,
            )
        # REPLAYING: like PRE, but falling off the tape (or any mismatch) is
        # safe — memory is the exact golden state at this boundary, so the
        # cursor just retires and the rest simulates.
        if (
            not instrumented
            and seq < len(self.log.launches)
            and device.global_mem.size == self.log.mem_size
        ):
            rec = self.log.launches[seq]
            if rec.matches(kernel_name, grid, block, args, shared_bytes):
                return rec
        self._disarm_tail()
        return None

    def _reach_target(
        self, device, seq, kernel_name, grid, block, args, shared_bytes
    ) -> None:
        """Pre-target replay is over; start tail tracking if it soundly can.

        The target boundary is the one place memory is known to equal
        golden, so the shadow snapshot happens here.  An instrumented
        launch *before* the target (``seq < stop_launch``), a target off
        the tape, a memory-size mismatch or mismatched target metadata all
        mean the tape cannot describe this run — tail stays off.
        """
        if (
            not self.tail
            or seq != self.stop_launch
            or seq >= len(self.log.launches)
            or device.global_mem.size != self.log.mem_size
        ):
            self._state = self._OFF
            return None
        rec = self.log.launches[seq]
        if not rec.matches(kernel_name, grid, block, args, shared_bytes):
            self._state = self._OFF
            return None
        self._shadow = device.global_mem.shadow_copy()
        self.divergent = set()
        self._pending = (seq, rec)
        self._state = self._TRACKING
        return None

    def _consult_tracking(
        self, device, seq, kernel_name, grid, block, args, shared_bytes,
        instrumented,
    ) -> LaunchDelta | None:
        """A launch boundary while tracking: re-arm if converged, else keep
        simulating (with tracking), or disarm if the tape can't follow."""
        off_tape = (
            instrumented
            or seq >= len(self.log.launches)
            or device.global_mem.size != self.log.mem_size
        )
        rec = None if off_tape else self.log.launches[seq]
        if rec is not None and not rec.matches(
            kernel_name, grid, block, args, shared_bytes
        ):
            rec = None
        if rec is None:
            # Instrumented, past the tape, or diverged launch sequence: the
            # recording cannot describe this launch, tracked or replayed.
            self._disarm_tail()
            return None
        if not self.divergent:
            # Architecturally dead fault: memory equals the shadow, which
            # equals golden at this boundary — re-arm and replay the rest.
            self._rearm(seq)
            return rec
        if self._patience is not None:
            self._patience -= 1
            if self._patience < 0:
                # Still divergent after TAIL_PATIENCE boundaries: treat the
                # fault as persistent and stop paying for tracking.
                self._disarm_tail()
                return None
        self._pending = (seq, rec)
        return None

    # -- Device.launch hooks (TRACKING state only) ----------------------------

    def begin_simulated_launch(self, device) -> None:
        """Open a dirty-page window around a tracked simulated launch."""
        device.global_mem.begin_write_tracking()

    def end_simulated_launch(self, device) -> None:
        """Fold one simulated launch into the shadow and divergence set."""
        if self._state != self._TRACKING:
            return
        written = device.global_mem.end_write_tracking()
        pending, self._pending = self._pending, None
        if pending is None:  # a launch consult never saw (shouldn't happen)
            self._disarm_tail()
            return
        _seq, rec = pending
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
        untrustworthy (and golden saw no fault), so the tail turns off."""
        device.global_mem.end_write_tracking()
        self._disarm_tail()

    # -- host-traffic guards (CudaDriver) --------------------------------------

    def note_host_write(self, address: int, payload: bytes) -> None:
        """Mirror a successful ``cuMemcpyHtoD`` into the shadow.

        Sound while the read/error guards hold: host state can only diverge
        from golden by observing divergent device bytes or a CUDA error,
        both of which permanently disarm the tail — so any HtoD payload
        reaching this point is golden-identical.
        """
        if self._state == self._TRACKING and len(payload):
            self._shadow[address : address + len(payload)] = np.frombuffer(
                payload, dtype=np.uint8
            )

    def note_host_read(self, address: int, nbytes: int) -> None:
        """A ``cuMemcpyDtoH`` overlapping a divergent page makes divergence
        host-visible: the host may now branch away from golden, so the tail
        is permanently disarmed."""
        if self._state != self._TRACKING or nbytes <= 0 or not self.divergent:
            return
        first = address >> PAGE_SHIFT
        last = (address + nbytes - 1) >> PAGE_SHIFT
        if any(first <= page <= last for page in self.divergent):
            self._disarm_tail()

    def disarm_tail(self) -> None:
        """A recorded CUDA error (or other host-visible anomaly the golden
        run did not have): the host may branch on it, so tail fast-forward
        can never re-arm in this run."""
        if self._state in (self._WAIT, self._TRACKING, self._REPLAYING):
            self._disarm_tail()
        else:
            # PRE keeps replaying (pre-target launches are verified per
            # launch), but the tail may no longer arm at the target.
            self.tail = False

    # -- internals -------------------------------------------------------------

    def _rearm(self, seq: int) -> None:
        self._state = self._REPLAYING
        self.converged_at = seq
        self._shadow = None
        self._pending = None
        self.divergent = set()

    def _disarm_tail(self) -> None:
        self._state = self._OFF
        self._shadow = None
        self._pending = None
        self.divergent = set()

    def apply(self, device, rec: LaunchDelta) -> None:
        """Fast-forward one launch: restore its write delta and counters.

        The bulk counter charge goes through :meth:`Device.tick_n` — last,
        so that when the recorded instructions push the run over its budget
        the raised :class:`WatchdogTimeout` leaves exactly the same device
        state (memory, launch/warp counters, skip tallies) as before.
        """
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
        if self._state == self._REPLAYING:
            self.tail_skipped += 1
        else:
            self.skipped += 1
        device.tick_n(rec.instructions, cycles=rec.cycles)


# -- on-disk format ------------------------------------------------------------
#
#   magic (6 bytes) | header length (uint32 LE) | JSON header | blobs
#
# The JSON header carries the log-level fields plus per-launch metadata
# (including each launch's page count); the blob section holds, for each
# launch in order, the int64 little-endian page-index array followed by the
# raw page contents.  Everything after the header is offset-computable, so
# the loader is a single sequential read.
#
# The header also embeds ``sha256``, the hex digest of the blob section:
# the loader rejects a log whose blobs do not match (torn write, bit rot,
# or a rewrite that kept the header), and the persistent replay cache uses
# the digest as its content-identity check.  Logs written before the field
# existed still load (no digest, no validation).


def save_replay_log(log: ReplayLog, path: str | os.PathLike) -> None:
    """Serialise ``log`` to ``path`` (atomically, via a temp file)."""
    digest = hashlib.sha256()
    for rec in log.launches:
        digest.update(rec.pages.astype("<i8").tobytes())
        digest.update(rec.data.tobytes())
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
    blob = json.dumps(header, separators=(",", ":")).encode()
    # Unique per process *and* thread: `repro serve` coordinators write
    # shared-cache entries concurrently from threads of one process.
    tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    with open(tmp, "wb") as handle:
        handle.write(_MAGIC)
        handle.write(struct.pack("<I", len(blob)))
        handle.write(blob)
        for rec in log.launches:
            handle.write(rec.pages.astype("<i8").tobytes())
            handle.write(rec.data.tobytes())
    os.replace(tmp, path)
    log.content_hash = content_hash


def _read_replay_log(path: str | os.PathLike) -> ReplayLog:
    with open(path, "rb") as handle:
        raw = handle.read()
    if raw[: len(_MAGIC)] != _MAGIC:
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
    launches = []
    for meta in header["launches"]:
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
    log = ReplayLog(
        header["mem_size"], launches, workload=header.get("workload", "")
    )
    log.content_hash = expected_hash
    return log


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
    global sequence index.  ``pre`` replays the launches strictly before
    the target; ``tail`` tracks post-target divergence and replays the
    remaining launches once state re-converges with golden.  Workers thaw
    the reference into a live :class:`ReplayCursor` via the per-process log
    cache; a missing or unreadable log degrades to full simulation instead
    of failing the task.
    """

    path: str
    stop_launch: int
    pre: bool = True
    tail: bool = False

    def cursor(self) -> ReplayCursor | None:
        try:
            log = load_replay_log(self.path)
        except (OSError, ReproError):
            return None
        return ReplayCursor(log, self.stop_launch, pre=self.pre, tail=self.tail)
