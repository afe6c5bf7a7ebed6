"""In-launch checkpointing for multi-fault batched injection.

The snapshot executor (PR 8) amortizes everything *before* the target
launch: one replayed parent forks one copy-on-write child per sibling
fault at the launch boundary.  What it cannot amortize is the target
launch itself — the prefix of that launch before each fault's
``instruction_count`` is byte-identical across all faults aimed at the
same dynamic launch, yet every child re-simulates it from instruction
zero.  ROADMAP item 2(c) names that prefix as the dominant remaining
campaign cost.

This module supplies the mechanism that removes it.  The batch injector
(:mod:`repro.core.batch_injector`) runs the target launch **once** as a
clean counting pass and consults two pieces of machinery here:

* :class:`CheckpointPlan` — the sorted fault schedule for one launch.
  Per instrumented site the injector asks which targets land inside the
  site's ``[counter, counter + num_executed)`` group-instruction range;
  the plan's cursor advances monotonically, so each target is serviced
  exactly once, in instruction-count order, with the same lane-offset
  arithmetic as the serial injector.

* :class:`OverlayForker` — the copy-on-write overlay layer.  At each due
  checkpoint the clean pass forks (``os.fork``): the child *is* the
  fault's overlay — register files, predicate banks, SIMT stacks and
  global-memory pages are all shared with the clean pass until first
  write, at OS page granularity, riding the same dirty-page semantics
  the replay tape's shadow/diff machinery (:mod:`repro.gpusim.replay`)
  relies on — and it resumes the launch on the inherited Python stack
  with its own fault applied.  The parent resumes counting toward the
  next checkpoint immediately — children run *concurrently* with the
  sweep (bounded by ``max_inflight``, default the usable CPU count) and
  are reaped oldest-first, so on a multi-core box the divergent
  suffixes overlap each other and the pass instead of serializing
  behind it.  The parent never simulates any fault's divergent suffix
  itself.

* :class:`SweepCursor` — the cross-launch sweep.  Sharing one counting
  pass per target launch only pays off when several faults aim at the
  same launch; real campaigns spread faults across many launches (the
  370.bt benchmark averages ~1.25 faults per target), so the dominant
  duplicated cost is the *per-group* host run and tape replay, not the
  in-launch prefix.  The sweep removes that too: because the clean pass
  never injects, its memory after cleanly simulating a target launch is
  still bit-identical to golden, so the same parent's cursor returns to
  golden and replays on to the *next* group's target launch.  One host
  run and one pass over the tape then service every fault group that shares
  a tape, an opcode group and a sandbox — regardless of which launches
  they target.

Equivalence with the serial path is structural rather than re-derived:
from the fork point onward a child executes exactly the instructions the
serial injection run would execute from the same dynamic instruction, on
bit-identical device state — including the diverged cursor's shadow and
divergence set, which the child inherits mid-launch and folds at the
launch boundary exactly as a serial run does (so each child's cursor
returns to golden when its fault re-converges).  Records, artifacts and
simulated-cycle totals therefore match byte for byte.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.gpusim.replay import GOLDEN, OFF, ReplayCursor, ReplayLog


@dataclass(frozen=True)
class FaultPoint:
    """One armed fault target inside the shared launch.

    ``count`` is the fault's group-instruction count (Table II
    ``instruction_count``); ``order`` breaks ties deterministically when
    two faults target the same dynamic instruction (plan order, so
    results are reproducible); ``payload`` is opaque to this layer — the
    executor threads its task through it.
    """

    count: int
    order: int
    payload: object


class CheckpointPlan:
    """The sorted in-launch checkpoint schedule for one target launch.

    A monotone cursor over fault points ordered by
    ``(instruction_count, order)``.  The counting pass calls :meth:`due`
    once per instrumented site with the site's group-instruction window;
    every point whose count falls inside the window is returned (and
    consumed) in order.  Points never reached by the launch — counts
    beyond its total group instructions — are drained with
    :meth:`take_rest` at launch exit and serviced as not-injected runs,
    mirroring the serial injector's never-reached semantics.
    """

    def __init__(self, points: Iterable[FaultPoint]) -> None:
        self._points = sorted(points, key=lambda p: (p.count, p.order))
        self._next = 0

    def __len__(self) -> int:
        return len(self._points)

    @property
    def next_count(self) -> int | None:
        """The next checkpoint's instruction count (``None`` when done).

        The counting pass's fast path: sites whose window ends at or
        before this count advance the counter and return without touching
        the plan.
        """
        if self._next >= len(self._points):
            return None
        return self._points[self._next].count

    @property
    def exhausted(self) -> bool:
        return self._next >= len(self._points)

    def due(self, counter: int, end: int) -> list[FaultPoint]:
        """Consume and return every point with ``count`` in ``[counter, end)``.

        ``counter`` is the group-instruction total before the current
        site, ``end`` the total after it; a returned point's in-site lane
        offset is ``point.count - counter``, exactly the serial
        ``target - _instr_counter`` arithmetic.  Points below ``counter``
        cannot exist — the cursor already consumed them at an earlier
        site (counts only grow).
        """
        taken: list[FaultPoint] = []
        points = self._points
        index = self._next
        while index < len(points) and points[index].count < end:
            taken.append(points[index])
            index += 1
        self._next = index
        return taken

    def take_rest(self) -> list[FaultPoint]:
        """Consume every remaining (never-reached) point."""
        rest = self._points[self._next:]
        self._next = len(self._points)
        return rest


def _usable_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


class OverlayForker:
    """Copy-on-write overlay forks taken at in-launch checkpoints.

    One instance per group run.  ``fork_overlay(payload)`` forks the
    process at the current simulator state: it returns ``True`` in the
    child — the fault's overlay, which applies its corruption and runs
    the divergent suffix on inherited state — and ``False`` in the
    parent.  ``os.fork`` snapshots the clean pass at the call, so every
    child sees pristine counting-pass state no matter when the parent
    reaps it.

    Children are *pipelined*: the parent does not wait for a child
    before resuming the counting pass, so up to ``max_inflight``
    divergent suffixes run concurrently with the sweep (and each other)
    — on a multi-core box the children's simulation time divides across
    cores instead of serializing behind the parent.  ``max_inflight``
    defaults to the usable CPU count (``REPRO_BATCH_INFLIGHT``
    overrides); on a single-CPU box that degrades to the fork-and-reap
    sequence of a blocking forker.  Reaping is oldest-first, so
    :attr:`results` stays in fork order regardless of which child
    finishes first — the executor's output ordering (and ``results.csv``)
    cannot depend on scheduling.

    The child ships its pickled result back through :meth:`ship`; the
    parent records ``(payload, exitcode, bytes)`` per child in
    :attr:`results` for the executor to validate (call :meth:`drain`
    first to reap stragglers).  A child that dies without shipping
    surfaces as a non-zero exit status there — policy (retries,
    charging) stays with the executor.
    """

    def __init__(self, max_inflight: int | None = None) -> None:
        self.in_child = False
        self.child_payload: object | None = None
        self._child_fd = -1
        #: ``(payload, exitcode, raw bytes)`` per reaped child, fork order.
        self.results: list[tuple[object, int, bytes]] = []
        #: In-launch checkpoints taken (forks), for observability.
        self.checkpoints = 0
        if max_inflight is None:
            env = os.environ.get("REPRO_BATCH_INFLIGHT", "")
            max_inflight = int(env) if env.isdigit() else _usable_cpus()
        self._max_inflight = max(1, max_inflight)
        #: ``(payload, pid, read fd)`` per running child, fork order.
        self._pending: list[tuple[object, int, int]] = []

    def fork_overlay(self, payload: object) -> bool:
        while len(self._pending) >= self._max_inflight:
            self._reap_oldest()
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            # The overlay: drop the parent's bookkeeping — earlier
            # siblings' pipes belong to the parent, and this child's only
            # job is to ship its own result and exit.
            for _, _, fd in self._pending:
                try:
                    os.close(fd)
                except OSError:
                    pass
            self._pending = []
            self.results = []
            os.close(read_fd)
            self.in_child = True
            self.child_payload = payload
            self._child_fd = write_fd
            return True
        os.close(write_fd)
        self._pending.append((payload, pid, read_fd))
        self.checkpoints += 1
        return False

    def _reap_oldest(self) -> None:
        payload, pid, read_fd = self._pending.pop(0)
        data = b""
        try:
            with os.fdopen(read_fd, "rb") as pipe:
                data = pipe.read()
        except OSError:
            data = b""
        _, status = os.waitpid(pid, 0)
        self.results.append((payload, os.waitstatus_to_exitcode(status), data))

    def drain(self) -> None:
        """Reap every still-running child (parent side, before collecting)."""
        while self._pending:
            self._reap_oldest()

    def ship(self, payload: bytes) -> None:
        """Write the child's pickled result to the parent and close the pipe."""
        view = memoryview(payload)
        while view:
            written = os.write(self._child_fd, view)
            view = view[written:]
        os.close(self._child_fd)
        self._child_fd = -1


class SweepCursor(ReplayCursor):
    """A replay cursor whose targets are a sorted series of stop launches.

    The base cursor already handles every stop: a target launch simulates
    from ``golden``, and the sweep's parent never injects, so its memory
    after that launch still equals golden, the divergence set empties at
    the next boundary and the cursor replays again up to the next stop.
    Three pieces keep a child forked at stop ``T`` bit-identical to a
    serial run whose cursor targeted ``T`` alone:

    * **Retarget reset** — at a stop with an empty divergence set the
      cursor takes the stop as its target and resets ``skipped`` to the
      stop's sequence index, ``tail_skipped`` to zero and
      ``converged_at`` to ``None``: exactly the state of a serial cursor
      that replayed ``[0, T)``.  The base cursor then snapshots a fresh
      shadow and tracks the target launch.

    * **Counter fixup** — the parent simulates each non-final target
      launch under instrumentation, so its cycle counter picks up
      instrumentation and JIT costs a serial later-targeted run (which
      *replays* that launch from the tape) never pays.  While more stops
      remain, the counters a target launch accumulated are replaced with
      the recorded golden delta — rebased on a snapshot taken at tool
      arming, before the JIT charge (:meth:`begin_target_launch`).  The
      fixup is deferred to the next launch consult so that never-reached
      children forked at the target's *exit* still inherit the
      instrumented counters their serial counterparts would have.

    * **Child collapse** — a forked child calls
      :meth:`collapse_to_current_target`, dropping the remaining stops
      and any pending fixup, and thereafter behaves exactly like the
      serial single-target cursor it is equivalent to.

    If the cursor goes off (mismatch, host-visible divergence, patience),
    the remaining stops are simply never reached, the affected groups
    fork no children, and the executor falls back to per-task serial
    runs.
    """

    def __init__(self, log: ReplayLog, stops: Sequence[int]) -> None:
        ordered = sorted(set(stops))
        super().__init__(log, ordered[0], tail=True)
        self._stops = ordered[1:]
        self._entry_snap = None  # counters at target arming (before JIT charge)
        self._launch_snap = None  # fallback: counters at simulated-launch begin
        self._fixup = None  # (counter snapshot, recorded delta) awaiting consult

    @staticmethod
    def _snap(device) -> tuple[int, int, int, int]:
        return (
            device.instructions_executed,
            device.cycles,
            device.warps_launched,
            device.divergence_depth_high_water,
        )

    def begin_target_launch(self, device) -> None:
        """Counter snapshot at tool arming, before the launch's JIT charge.

        Called by the batch injector when it arms a target launch; only
        meaningful while further stops remain (the final target's parent
        counters are never observed by anyone).  Any fixup still pending
        from the previous target must land first — with back-to-back
        targets there is no intermediate launch consult to flush it, and
        deferring past this launch's JIT charge would erase that charge.
        """
        self._apply_fixup(device)
        if self._stops:
            self._entry_snap = self._snap(device)

    def collapse_to_current_target(self) -> None:
        """Make a forked child a plain single-target cursor (no retargets)."""
        self._stops = []
        self._entry_snap = None
        self._launch_snap = None
        self._fixup = None

    def _apply_fixup(self, device) -> None:
        """Replace a swept target launch's instrumented counters with the
        recorded golden delta, rebased on the pre-launch snapshot."""
        if self._fixup is None:
            return
        snap, rec = self._fixup
        self._fixup = None
        device.instructions_executed = snap[0] + rec.instructions
        device.cycles = snap[1] + rec.cycles
        device.warps_launched = snap[2] + rec.warps
        device.active_sms.update(rec.active_sms)
        device.divergence_depth_high_water = max(
            snap[3], rec.divergence_high_water
        )

    def consult(
        self, device, kernel_name, grid, block, args, shared_bytes, instrumented
    ):
        self._apply_fixup(device)
        seq = device.launch_count
        if (
            self._stops
            and seq == self._stops[0]
            and self.state != OFF
            and not self.divergent
        ):
            # Memory equals golden at this boundary (the parent never
            # injects): retarget as a serial cursor that replayed [0, seq).
            self.stop_launch = self._stops.pop(0)
            self.state = GOLDEN
            self.skipped = seq
            self.tail_skipped = 0
            self.converged_at = None
            self._shadow = None
        return super().consult(
            device, kernel_name, grid, block, args, shared_bytes, instrumented
        )

    def begin_simulated_launch(self, device) -> None:
        if self._stops and self._entry_snap is None:
            # An unarmed (uninstrumented) target simulation: no JIT charge
            # preceded it, so the launch boundary itself is the snapshot.
            self._launch_snap = self._snap(device)
        super().begin_simulated_launch(device)

    def end_simulated_launch(self, device) -> None:
        rec = self._pending
        snap = self._entry_snap if self._entry_snap is not None else self._launch_snap
        self._entry_snap = None
        self._launch_snap = None
        super().end_simulated_launch(device)
        if self._stops and rec is not None and snap is not None:
            self._fixup = (snap, rec)
