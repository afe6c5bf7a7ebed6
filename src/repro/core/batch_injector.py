"""Batched multi-fault injection: one simulator pass per fault *chain*.

:class:`MultiFaultInjectorTool` arms N sorted
:class:`~repro.core.params.TransientParams` for one
``(kernel_name, kernel_count)`` launch and counts group instructions
exactly once, with the profiler-compatible lane ordering of
:meth:`TransientInjectorTool._visit <repro.core.injector.TransientInjectorTool._visit>`.
When the count crosses a fault's ``instruction_count`` the tool takes an
in-launch checkpoint (a copy-on-write :class:`OverlayForker` fork): the
overlay child applies *its* fault to the live instruction site and runs
the divergent suffix — the rest of the launch, the host program's tail,
tail fast-forward replay on reconvergence — on inherited state, while
the clean counting pass continues toward the next checkpoint.  Faults
whose count the launch never reaches are forked at launch exit and
complete as not-injected runs, exactly like their serial counterparts.

Sharing one counting pass per launch is not where most of the duplicated
cost lives, though: campaigns spread faults across many launches, so the
expensive duplicate is the per-group host run and tape replay.  The tool
therefore services a whole **chain** of fault groups from one pass.
Because the clean pass never injects, its memory after cleanly
simulating a target launch still equals golden; a
:class:`~repro.gpusim.multifault.SweepCursor` replays from the tape
again at the next boundary and retargets the *next* group's stop launch,
while the tool swaps in that group's params and checkpoint plan at the
previous target's exit.  One host run and one pass over the tape then service
every fault group that shares a tape, an opcode group and a sandbox.

:class:`BatchExecutor` wires the tool into the engine's executor
protocol, in one process.  It groups tasks by fast-forward stop launch,
chains the groups, and falls back safely everywhere: no ``os.fork`` →
the serial executor, unreadable tape → per-task runs, dead child →
in-process retry charged as attempt 1.  The amortization model and
measurements live in ``docs/performance.md``; ``results.csv`` and
simulated-cycle totals are byte-identical to the serial path (asserted in
``benchmarks/bench_campaign.py`` and ``tests/core/test_batch_injector.py``).
"""

from __future__ import annotations

import os
import pickle
from typing import Iterator, Sequence

from repro.core.engine import (
    InjectionOutput,
    InjectionTask,
    SerialExecutor,
    run_with_retries,
)
from repro.core.injector import TransientInjectorTool
from repro.core.resilience import RetryPolicy, TaskFailure
from repro.cuda.driver import CudaEvent
from repro.errors import ReproError
from repro.gpusim import blockc
from repro.gpusim.context import InstrSite
from repro.gpusim.multifault import (
    CheckpointPlan,
    FaultPoint,
    OverlayForker,
    SweepCursor,
)
from repro.gpusim.replay import ReplayCursor, load_replay_log
from repro.obs.sink import MemorySink
from repro.obs.trace import Tracer
from repro.runner.app import Application
from repro.runner.sandbox import run_app
from repro.workloads import get_workload

#: Exit status a fork child uses when it cannot produce a result; the
#: parent charges the fork as attempt 1 and retries in-process.
_CHILD_FAILED = 70


class _ForkParentDone(BaseException):
    """Unwinds the counting pass out of ``run_app`` once every fork is out.

    Derives from ``BaseException`` so no handler between the fork point
    (a launch callback or instruction visit) and the chain runner can
    swallow it; ``run_app``'s ``finally`` still runs, so the interceptor
    is torn down cleanly.
    """


class MultiFaultInjectorTool(TransientInjectorTool):
    """Services a chain of same-launch fault groups from one counting pass.

    Instrumentation depends only on the opcode group and target instance
    — identical across a group's siblings by the executor's grouping key
    — so the tool arms exactly like the single-fault injector and
    replaces only the per-site visit: instead of comparing the counter
    against one target, it drains a :class:`CheckpointPlan` of all
    siblings' targets and forks an overlay per due point.  Inside an
    overlay child the tool *becomes* the single-fault injector for that
    sibling: params are swapped, the fault is applied to the live site,
    and the normal disarm/record semantics take over.

    At a non-final group's target-launch exit the parent forks the
    group's never-reached leftovers, then retargets: next group's params
    and plan swap in, and the launch-instance counting — kept per kernel
    name across the *whole* run, since later groups may target different
    kernels — arms the next target when it arrives.  Only after the final
    group does the parent unwind with :class:`_ForkParentDone`.
    """

    name = "batch-injector"

    def __init__(
        self,
        chain: Sequence[Sequence[InjectionTask]],
        forker: OverlayForker,
        cursor: SweepCursor | None = None,
    ) -> None:
        groups = [list(group) for group in chain]
        super().__init__(groups[0][0].params)
        self._groups = groups
        self._plans = [
            CheckpointPlan(
                FaultPoint(
                    count=task.params.instruction_count,
                    order=task.index,
                    payload=task,
                )
                for task in group
            )
            for group in groups
        ]
        self._group_index = 0
        self._plan = self._plans[0]
        self._forker = forker
        self._cursor = cursor
        self._device = None  # set when the first target launch arms
        self._recompile_pending = False

    def nvbit_at_cuda_event(self, driver, event, payload, is_exit) -> None:
        if event is not CudaEvent.LAUNCH_KERNEL:
            return
        func = payload.func
        name = func.name
        if not is_exit:
            if (
                name == self.params.kernel_name
                and self._instance_counter.get(name, 0) == self.params.kernel_count
                and not self.record.injected
            ):
                if self._recompile_pending and func in self._instrumented:
                    # A later chain group re-arms a kernel an earlier group
                    # already instrumented: a serial run of this group
                    # would JIT its clone fresh at this launch, so force
                    # the same (cycle-charged) recompile here.
                    self.nvbit.invalidate_instrumented(func)
                self._recompile_pending = False
                if self._device is None:
                    _bind_plain_layouts(driver)
                self._instrument(func)
                self.nvbit.enable_instrumented(func, True)
                self._armed = True
                self._instr_counter = 0
                self._device = driver.device
                if self._cursor is not None:
                    # Counter snapshot before this launch's JIT charge, so
                    # the sweep's post-launch fixup can rebase onto it.
                    self._cursor.begin_target_launch(driver.device)
            else:
                self.nvbit.enable_instrumented(func, False)
            return
        was_armed = self._armed
        self._instance_counter[name] = self._instance_counter.get(name, 0) + 1
        self._armed = False
        if was_armed and not self._forker.in_child:
            # The counting pass finished this group's target launch with
            # targets never reached (instruction_count beyond the launch's
            # group instructions).  Fork one overlay per leftover so each
            # completes the host suffix as a not-injected run — byte-
            # identical to its serial counterpart — then retarget the next
            # group, or unwind after the last.
            for point in self._plan.take_rest():
                if self._forker.fork_overlay(point.payload):
                    self._become_child(point.payload)
                    return
            if self._group_index + 1 >= len(self._groups):
                raise _ForkParentDone()
            self._next_group()

    def _become_child(self, task: InjectionTask) -> None:
        """Turn a freshly forked overlay into ``task``'s serial run, whose
        wall clock and blockc counters start here."""
        self._device.start_host_measures()
        self.params = task.params
        if self._cursor is not None:
            self._cursor.collapse_to_current_target()

    def _next_group(self) -> None:
        self._group_index += 1
        self.params = self._groups[self._group_index][0].params
        self._plan = self._plans[self._group_index]
        self._instr_counter = 0
        self._recompile_pending = True

    def _visit(self, site: InstrSite) -> None:
        if not self._armed or self.record.injected:
            return
        executed = site.num_executed
        counter = self._instr_counter
        end = counter + executed
        self._instr_counter = end
        plan = self._plan
        next_count = plan.next_count
        if next_count is None or next_count >= end:
            return
        lanes = site.active_lanes
        for point in plan.due(counter, end):
            if self._forker.fork_overlay(point.payload):
                # The overlay child: inject this sibling's fault into the
                # live site — same lane-offset arithmetic as the serial
                # `target - _instr_counter` — and finish its run.
                self._become_child(point.payload)
                self._inject(site, int(lanes[point.count - counter]))
                self._armed = False
                return
        if plan.exhausted and self._group_index + 1 >= len(self._groups):
            # Every sibling's suffix runs in its own overlay and no later
            # group needs this launch's end state: nothing left to count.
            # (A non-final group's launch must finish cleanly instead —
            # its memory is the next target's golden prefix.)
            raise _ForkParentDone()


def _bind_plain_layouts(driver) -> None:
    """Bind the uninstrumented block layout of every kernel the program
    has loaded, in the counting pass before its first fork.

    Replayed launches never simulate, so a counting pass over a cached
    tape binds none of the layouts its fork children's post-target
    launches run; bound here, every child inherits them instead of
    binding its own copy and losing it at exit.
    """
    device = driver.device
    if not device.block_compile:
        return
    for module in driver.modules:
        for func in module.functions.values():
            blockc.compiled_for(func.kernel, device)


def _group_tasks(
    tasks: Sequence[InjectionTask],
) -> tuple[list[list[InjectionTask]], list[InjectionTask]]:
    """Partition tasks into fork groups and pass-through singles.

    Groupable tasks are transient, carry a replay reference, and share
    (tape, stop launch, target kernel instance, opcode group) — the
    preconditions for the post-fork params swap.  Everything else runs
    through the plain per-task path.
    """
    groups: dict[tuple, list[InjectionTask]] = {}
    solo: list[InjectionTask] = []
    for task in tasks:
        ref = task.replay
        if task.kind != "transient" or ref is None:
            solo.append(task)
            continue
        key = (
            ref.path,
            ref.stop_launch,
            ref.tail,
            task.params.kernel_name,
            task.params.kernel_count,
            task.params.group,
            task.sandbox,
        )
        groups.setdefault(key, []).append(task)
    ordered = sorted(
        groups.values(), key=lambda grp: (grp[0].replay.stop_launch, grp[0].index)
    )
    return ordered, solo


def _chain_groups(
    groups: Sequence[Sequence[InjectionTask]],
) -> list[list[list[InjectionTask]]]:
    """Merge fork groups into sweep chains.

    Groups sharing a tape, an opcode group and a sandbox — with the tail
    enabled, which the sweep's retarget relies on — chain in stop-launch
    order so one parent pass services all of them.  Everything else stays
    a single-group chain.
    """
    chains: dict[tuple, list[list[InjectionTask]]] = {}
    ordered: list[list[list[InjectionTask]]] = []
    for group in groups:
        ref = group[0].replay
        if not ref.tail:
            ordered.append([list(group)])
            continue
        key = (ref.path, group[0].params.group, group[0].sandbox)
        chain = chains.get(key)
        if chain is None:
            chains[key] = chain = []
            ordered.append(chain)
        chain.append(list(group))
    for chain in ordered:
        chain.sort(key=lambda grp: grp[0].replay.stop_launch)
    return ordered


class BatchExecutor:
    """Runs grouped injections as copy-on-write forks of chained counting passes.

    Implements the standard executor protocol (``run(tasks, app=,
    tracer=, retry=, on_retry=)`` yielding ``InjectionOutput`` |
    ``TaskFailure``) in the calling process; fan-out over processes is
    :class:`~repro.core.engine.ParallelExecutor`'s job.  On platforms
    without ``os.fork`` the run delegates wholesale to
    :class:`~repro.core.engine.SerialExecutor`.
    """

    #: Marker the engine checks (without importing this module) to tag
    #: inject spans with ``batch=True``.
    batch_executor = True

    def run(
        self,
        tasks: Sequence[InjectionTask],
        app: Application | None = None,
        tracer: Tracer | None = None,
        retry: RetryPolicy | None = None,
        on_retry=None,
    ) -> Iterator[InjectionOutput | TaskFailure]:
        policy = retry or RetryPolicy()
        notify = on_retry or (lambda failure, delay: None)
        if not hasattr(os, "fork"):
            yield from SerialExecutor().run(
                tasks, app=app, tracer=tracer, retry=policy, on_retry=notify
            )
            return
        groups, solo = _group_tasks(tasks)
        for task in solo:
            yield run_with_retries(task, app, tracer, policy, notify)
        for chain in _chain_groups(groups):
            outputs, leftover, failures = self._run_chain(chain, app)
            yield from outputs
            for task in leftover:
                # Never ran (unreadable tape, the cursor went off early, a
                # target that never armed): fall back uncharged.
                yield run_with_retries(task, app, tracer, policy, notify)
            for task, error in failures:
                yield run_with_retries(
                    task, app, tracer, policy, notify,
                    failure=TaskFailure(task.index, 1, error, "fork-child"),
                )

    def _run_chain(self, chain, app):
        """One counting pass servicing every chained sibling via forks.

        Returns ``(outputs, leftover_tasks, failed_tasks)``: leftovers
        never ran (fall back uncharged), failures are ``(task, error)``
        pairs whose fork child died (charged as attempt 1).
        """
        tasks = [task for group in chain for task in group]
        ref = chain[0][0].replay
        try:
            log = load_replay_log(ref.path)
        except (OSError, ReproError):
            return [], tasks, []
        if app is None:
            app = get_workload(chain[0][0].workload)
        forker = OverlayForker()
        if ref.tail:
            cursor = SweepCursor(
                log, [group[0].replay.stop_launch for group in chain]
            )
            injector = MultiFaultInjectorTool(chain, forker, cursor=cursor)
        else:
            cursor = ReplayCursor(log, ref.stop_launch)
            injector = MultiFaultInjectorTool(chain, forker)
        buffer = MemorySink()
        try:
            artifacts = run_app(
                app,
                preload=[injector],
                config=chain[0][0].sandbox.config(),
                tracer=Tracer(sink=buffer),
                replay=cursor,
            )
        except _ForkParentDone:
            forker.drain()
            outputs, failures = self._collect(forker)
            return outputs, _left_over(tasks, outputs, failures), failures
        except BaseException:
            if forker.in_child:
                # A child crashed past its checkpoint; die without
                # touching inherited fds — the parent charges the attempt
                # and retries in-process.
                os._exit(_CHILD_FAILED)
            # The counting pass died mid-sweep: results shipped by earlier
            # checkpoints (including children still running — drain waits
            # for them) are valid serial-identical runs, so keep them;
            # only the unfinished tasks fall back.
            forker.drain()
            outputs, failures = self._collect(forker)
            return outputs, _left_over(tasks, outputs, failures), failures
        if forker.in_child:
            task = forker.child_payload
            try:
                output = InjectionOutput(
                    index=task.index,
                    record=getattr(injector, "record", None),
                    activations=getattr(injector, "activations", 0),
                    artifacts=artifacts,
                    events=buffer.events,
                    batch=True,
                )
                forker.ship(pickle.dumps(output))
            except BaseException:
                os._exit(_CHILD_FAILED)
            os._exit(0)
        # The counting pass completed without unwinding: the cursor went
        # off or a later group's target never armed.
        forker.drain()
        outputs, failures = self._collect(forker)
        if outputs or failures:
            return outputs, _left_over(tasks, outputs, failures), failures
        if len(chain) == 1:
            # Nothing ever forked and the chain was a single group: this
            # run *is* the first sibling's injection run — the cursor
            # degraded exactly like a plain ReplayCursor would — and the
            # rest fall back per task.  (A multi-group chain's parent run mixes replayed
            # and instrumented launches, so it stands in for no task.)
            first = InjectionOutput(
                index=chain[0][0].index,
                record=getattr(injector, "record", None),
                activations=getattr(injector, "activations", 0),
                artifacts=artifacts,
                events=buffer.events,
            )
            return [first], tasks[1:], []
        return [], tasks, []

    @staticmethod
    def _collect(forker):
        """Validate shipped child results; failures charge as attempt 1."""
        outputs: list[InjectionOutput] = []
        failures: list[tuple[InjectionTask, str]] = []
        shared: set[tuple[str, int]] = set()
        for task, exitcode, data in forker.results:
            output = None
            if exitcode == 0 and data:
                try:
                    output = pickle.loads(data)
                except Exception:
                    output = None
            if isinstance(output, InjectionOutput) and output.index == task.index:
                # One shared counting pass serviced each group's target
                # launch: tag a single sibling per target so the engine's
                # ``engine.batch.launches_shared`` counter counts passes,
                # not faults (``engine.batch.checkpoints`` counts faults).
                key = (task.params.kernel_name, task.params.kernel_count)
                if key not in shared:
                    shared.add(key)
                    output.batch_shared = True
                outputs.append(output)
            else:
                failures.append(
                    (task, f"batch fork child exited with status {exitcode}")
                )
        return outputs, failures


def _left_over(tasks, outputs, failures):
    done = {output.index for output in outputs}
    done.update(task.index for task, _ in failures)
    return [task for task in tasks if task.index not in done]
