"""The campaign engine: the one place the injection-run loop lives.

:class:`CampaignEngine` owns the golden → profile → select → inject →
classify pipeline exactly once.  Serial, parallel, fork-batched and
resumed campaigns of every fault kind, adaptive batches and the service
scheduler's shards all inject through its one loop, and every executor
result passes the same per-result step, so the execution paths cannot
drift apart.

Orthogonal knobs plug into the engine:

* an **executor** — :class:`SerialExecutor` runs injections in-process;
  :class:`ParallelExecutor` fans frozen, picklable work items out over a
  ``ProcessPoolExecutor``, one task per flight, carrying the *full*
  :class:`~repro.runner.sandbox.SandboxSpec` to every worker;
  :class:`~repro.core.batch_injector.BatchExecutor` forks same-launch
  faults off one shared counting pass; :func:`choose_executor` picks one
  from the config;
* an optional **store** — a :class:`~repro.core.store.CampaignStore`; each
  injection is persisted the moment it completes (not at campaign end), so
  a killed campaign — serial or parallel — resumes where it stopped;
* **hooks** — :class:`EngineHooks` receives per-phase timings and a
  per-injection progress callback carrying the running
  :class:`~repro.core.report.OutcomeTally`;
* a **tracer** — a :class:`repro.obs.Tracer`; every pipeline phase becomes
  a span, every sandboxed run a nested ``run`` span (parallel workers
  buffer theirs and ship them back with results, so the parent trace stays
  complete), and every classified injection a point event carrying its
  parameters, outcome and instruction count;
* a **metrics registry** — a :class:`repro.obs.MetricsRegistry` collecting
  phase seconds, outcome counters, per-run instruction histograms and the
  GPU simulator's cheap counters (instructions retired, warps launched,
  divergence-stack high-water).  :class:`EngineMetrics` remains as a thin
  compatibility view over the registry;
* a **retry policy** — a :class:`~repro.core.resilience.RetryPolicy`
  (``CampaignConfig.retry``); a task whose worker raises, dies or hangs is
  retried with deterministic backoff and, once attempts are exhausted,
  *quarantined* as a synthesized Table V DUE ("Monitor detection") instead
  of aborting the campaign — K misbehaving tasks out of N still produce N
  results, in every executor.

Prefer the stable facade in :mod:`repro.api` for programmatic use.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
import weakref
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, Iterator, Sequence

from repro.arch.families import arch_by_name
from repro.core.adaptive import (
    AdaptiveCheckpoint,
    AdaptiveState,
    SamplingPlan,
)
from repro.core.campaign import (
    CampaignConfig,
    PermanentCampaignResult,
    PermanentResult,
    TransientCampaignResult,
    TransientResult,
    _median,
)
from repro.core.injector import InjectionRecord, TransientInjectorTool
from repro.core.kinds import CampaignKind
from repro.core.outcomes import classify
from repro.core.params import IntermittentParams, PermanentParams, TransientParams
from repro.core.pf_injector import IntermittentInjectorTool, PermanentInjectorTool
from repro.core.profile_data import ProgramProfile
from repro.core.profiler import ProfilingMode, derived_profile
from repro.core.report import OutcomeTally
from repro.core.resilience import (
    CampaignInterrupted,
    RetryPolicy,
    TaskFailure,
    format_error,
    quarantine_outcome,
)
from repro.core.result_store import ResultStore
from repro.core.site_selection import (
    select_permanent_sites,
    select_stratified_sites,
    select_transient_sites,
    stratum_weights,
)
from repro.errors import ReproError
from repro.gpusim.counts import LaunchCounter
from repro.gpusim.replay import (
    GOLDEN,
    ReplayCursor,
    ReplayRecorder,
    ReplayRef,
    save_replay_log,
)
from repro.obs import (
    INSTRUCTION_BUCKETS,
    LAUNCH_BUCKETS,
    NULL_TRACER,
    MemorySink,
    MetricsRegistry,
    Tracer,
)
from repro.runner.app import Application
from repro.runner.artifacts import RunArtifacts
from repro.runner.golden import capture_golden, hang_budget
from repro.runner.sandbox import SandboxConfig, SandboxSpec, run_app
from repro.sass.isa import opcode_by_id
from repro.utils.rng import SeedSequenceStream
from repro.workloads import WORKLOADS, get_workload

# -- work items (what crosses the process boundary) ---------------------------


from dataclasses import dataclass, field


@dataclass(frozen=True)
class InjectionTask:
    """One injection run, frozen and picklable.

    ``workload`` is a registry name so workers rebuild the application
    without pickling live device state; ``sandbox`` is the *complete*
    sandbox snapshot.  ``replay`` (when fast-forward is on) points at the
    campaign's golden replay log and the task's target launch; workers thaw
    it into a live cursor through a shared per-process cache.
    """

    index: int
    workload: str
    kind: str  # "transient" | "permanent" | "intermittent"
    params: TransientParams | PermanentParams | IntermittentParams
    sandbox: SandboxSpec
    replay: ReplayRef | None = None


@dataclass
class InjectionOutput:
    """What a worker hands back: raw artifacts, classified by the parent.

    ``events`` carries the worker's buffered trace events (run spans);
    the parent tracer adopts them via :meth:`repro.obs.Tracer.ingest`, so
    the campaign trace is complete even when runs execute in other
    processes.
    """

    index: int
    record: InjectionRecord | None
    activations: int
    artifacts: RunArtifacts
    events: list[dict] = field(default_factory=list)
    #: True when the run was serviced by an *in-launch* overlay fork child
    #: of a batched multi-fault pass (see :mod:`repro.core.batch_injector`);
    #: feeds the ``engine.snapshot.forks`` and ``engine.batch.checkpoints``
    #: counters.
    batch: bool = False
    #: Tagged on exactly one sibling per batch group, marking "this
    #: group's target launch was simulated once for all its faults";
    #: feeds the ``engine.batch.launches_shared`` counter.
    batch_shared: bool = False


def execute_task(
    task: InjectionTask, app: Application | None = None, tracer: Tracer | None = None
) -> InjectionOutput:
    """Run one injection (the worker body).

    Classification happens in the parent, which holds the golden run; the
    worker only reruns the app with the right injector attached, on a
    sandbox rebuilt from the task's full :class:`SandboxSpec`.  With no
    ``tracer`` (the cross-process case), run spans are buffered into the
    output's ``events`` for the parent to ingest; with a parent tracer
    (serial execution), spans go straight into the live trace.
    """
    buffer = None
    if tracer is None:
        buffer = MemorySink()
        tracer = Tracer(sink=buffer)
    if app is None:
        app = get_workload(task.workload)
    if task.kind == "transient":
        injector: TransientInjectorTool | PermanentInjectorTool = (
            TransientInjectorTool(task.params)
        )
    elif task.kind == "permanent":
        injector = PermanentInjectorTool(task.params)
    elif task.kind == "intermittent":
        injector = IntermittentInjectorTool(task.params)
    else:  # pragma: no cover
        raise ReproError(f"unknown injection kind {task.kind!r}")
    # Thaw the fast-forward reference (if any) into a live cursor.  The
    # underlying log is loaded once per process and shared read-only; an
    # unreadable log degrades to full simulation rather than failing the run.
    cursor = task.replay.cursor() if task.replay is not None else None
    artifacts = run_app(
        app,
        preload=[injector],
        config=task.sandbox.config(),
        tracer=tracer,
        replay=cursor,
    )
    return InjectionOutput(
        index=task.index,
        record=getattr(injector, "record", None),
        activations=getattr(injector, "activations", 0),
        artifacts=artifacts,
        events=buffer.events if buffer is not None else [],
    )


# -- executors ----------------------------------------------------------------

# What executors yield: a completed injection, or a task that exhausted its
# retry budget (the engine quarantines or raises, per the policy).
ExecutorItem = "InjectionOutput | TaskFailure"

# A retry notification: (failure so far, backoff seconds before the re-run).
OnRetry = Callable[[TaskFailure, float], None]


def _noop_retry(failure: TaskFailure, delay: float) -> None:
    return None


def run_with_retries(
    task: InjectionTask,
    app: Application | None,
    tracer: Tracer | None,
    policy: RetryPolicy,
    notify: OnRetry,
    failure: TaskFailure | None = None,
) -> InjectionOutput | TaskFailure:
    """Run one task in-process under ``policy``: its output, or its last failure.

    The one retry loop of the in-process executors.  ``failure`` is an
    attempt that already failed elsewhere (a fork child that died); it is
    charged before the first in-process attempt.  ``task_timeout`` cannot
    preempt an in-process run; the in-sim instruction budget is the hang
    detector here.
    """
    attempt = 0 if failure is None else failure.attempts
    while True:
        if failure is not None:
            if not policy.should_retry(attempt):
                return failure
            delay = policy.delay(attempt, key=task.index)
            notify(failure, delay)
            if delay:
                time.sleep(delay)
        attempt += 1
        try:
            return execute_task(task, app, tracer=tracer)
        except Exception as exc:
            failure = TaskFailure(task.index, attempt, format_error(exc))


class SerialExecutor:
    """Runs injections one after another in the calling process.

    Failures follow the same retry/quarantine path as the parallel
    executor: a task that raises is re-attempted under the
    :class:`~repro.core.resilience.RetryPolicy` and yielded as a
    :class:`~repro.core.resilience.TaskFailure` once attempts are
    exhausted (see :func:`run_with_retries`).
    """

    def run(
        self,
        tasks: Sequence[InjectionTask],
        app: Application | None = None,
        tracer: Tracer | None = None,
        retry: RetryPolicy | None = None,
        on_retry: OnRetry | None = None,
    ) -> Iterator[InjectionOutput | TaskFailure]:
        policy = retry or RetryPolicy()
        notify = on_retry or _noop_retry
        for task in tasks:
            yield run_with_retries(task, app, tracer, policy, notify)


class _Flight:
    """One task in the air: which task, its deadline, and whether it flew
    alone (solo flights give exact blame when the pool breaks)."""

    __slots__ = ("task_id", "deadline", "solo")

    def __init__(self, task_id: int, deadline: float | None, solo: bool) -> None:
        self.task_id = task_id
        self.deadline = deadline
        self.solo = solo


def _kill_pool_processes(pool: ProcessPoolExecutor) -> None:
    """Terminate a pool's workers (hung-task recovery).

    ``ProcessPoolExecutor`` has no public kill switch — ``shutdown`` waits
    for running tasks, which is exactly what a hung worker never finishes.
    Killing the processes flips the pool into its broken state, failing
    every in-flight future with ``BrokenProcessPool``, which the run loop
    then classifies via its deadline bookkeeping.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # racing a worker that already exited
            pass


class ParallelExecutor:
    """Fans injections out over a ``ProcessPoolExecutor``.

    Every task is its own flight, so each result is yielded (and
    therefore persisted) the moment its worker finishes.  Workers buffer
    their trace events and ship them back inside each
    :class:`InjectionOutput` (the ``tracer`` argument is parent-side only).

    Failure handling (the campaign-monitor role of the paper's scripts):

    * a task whose worker **raises** fails only itself; it is retried with
      deterministic backoff and yielded as a
      :class:`~repro.core.resilience.TaskFailure` once the
      :class:`~repro.core.resilience.RetryPolicy` is exhausted;
    * a worker **death** breaks the whole pool (every in-flight future gets
      ``BrokenProcessPool``); the pool is respawned and the victims are
      re-flown *one at a time*, so blame lands exactly on the task that
      kills its worker — innocent co-flights are re-run without being
      charged an attempt;
    * a task that exceeds the policy's parent-side **wall-clock deadline**
      (``task_timeout`` seconds) has its workers killed and is charged a
      ``"timeout"`` failure — the process-level complement of the in-sim
      instruction budget.  The charge lands only once the task has hung
      *solo*: a task merely queued behind a stalled neighbour shares its
      wall-clock and is re-flown alone, uncharged.
    """

    def __init__(self, max_workers: int | None = None) -> None:
        self.max_workers = max_workers

    def run(
        self,
        tasks: Sequence[InjectionTask],
        app: Application | None = None,
        tracer: Tracer | None = None,
        retry: RetryPolicy | None = None,
        on_retry: OnRetry | None = None,
    ) -> Iterator[InjectionOutput | TaskFailure]:
        policy = retry or RetryPolicy()
        notify = on_retry or _noop_retry
        tasks = list(tasks)
        if not tasks:
            return
        unregistered = {t.workload for t in tasks if t.workload not in WORKLOADS}
        if unregistered:
            raise ReproError(
                "parallel execution needs registry workloads (workers rebuild "
                f"the app by name); unknown: {sorted(unregistered)}"
            )

        queue: deque[int] = deque(range(len(tasks)))  # awaiting first/clean flight
        suspects: deque[int] = deque()  # re-flown solo after a pool break
        delayed: list[tuple[float, int]] = []  # (ready time, task) backoff retries
        failures: dict[int, int] = {tid: 0 for tid in range(len(tasks))}
        expired: set[int] = set()  # tasks whose deadline we killed the pool for
        flights: dict = {}  # Future -> _Flight
        respawns = 0
        # A poison task costs at most ~2 respawns per attempt (one mass
        # break + one solo break); anything past this bound is a harness bug.
        respawn_cap = 2 * policy.max_attempts * len(tasks) + 4

        def fly(tid: int, solo: bool) -> None:
            deadline = (
                time.monotonic() + policy.task_timeout
                if policy.task_timeout else None
            )
            future = pool.submit(execute_task, tasks[tid])
            flights[future] = _Flight(tid, deadline, solo)

        def charge(tid: int, reason: str, error: str) -> Iterator[TaskFailure]:
            """Count one failed attempt; schedule a retry or yield the failure."""
            failures[tid] += 1
            attempt = failures[tid]
            failure = TaskFailure(tasks[tid].index, attempt, error, reason)
            if policy.should_retry(attempt):
                delay = policy.delay(attempt, key=tasks[tid].index)
                notify(failure, delay)
                delayed.append((time.monotonic() + delay, tid))
            else:
                yield failure

        def respawn_pool() -> ProcessPoolExecutor:
            nonlocal respawns
            respawns += 1
            if respawns > respawn_cap:
                raise ReproError(
                    f"worker pool broke {respawns} times; giving up "
                    "(harness failure, not a target failure)"
                )
            return ProcessPoolExecutor(max_workers=self.max_workers)

        def settle_broken_pool(extra_victim: int | None = None) -> Iterator[TaskFailure]:
            """The pool died: blame what can be blamed, re-fly the rest solo."""
            victims = sorted(flights.values(), key=lambda f: f.task_id)
            flights.clear()
            if extra_victim is not None:
                queue.appendleft(extra_victim)
            for flight in victims:
                tid = flight.task_id
                if flight.solo and tid in expired:
                    expired.discard(tid)
                    yield from charge(
                        tid,
                        "timeout",
                        "worker exceeded the wall-clock deadline "
                        f"({policy.task_timeout}s per task)",
                    )
                elif flight.solo:
                    # Flying alone: this task killed its worker, full stop.
                    yield from charge(
                        tid, "worker-death",
                        "worker process died before finishing (broken pool)",
                    )
                else:
                    # A shared flight proves nothing — a task queued behind
                    # a hung or dying neighbour shares its wall-clock.  Only
                    # a *solo* expiry or death is charged; everyone else is
                    # re-flown alone, uncharged.
                    expired.discard(tid)
                    suspects.append(tid)

        pool = ProcessPoolExecutor(max_workers=self.max_workers)
        try:
            while queue or suspects or delayed or flights:
                now = time.monotonic()
                if delayed:
                    due = [entry for entry in delayed if entry[0] <= now]
                    for entry in due:
                        delayed.remove(entry)
                        queue.append(entry[1])
                # Submission: while suspects exist, fly exactly one task at
                # a time (exact blame); otherwise fan the queue out.
                broken_on_submit: int | None = None
                try:
                    if suspects:
                        if not flights:
                            tid = suspects.popleft()
                            fly(tid, solo=True)
                    elif queue:
                        while queue:
                            tid = queue.popleft()
                            fly(tid, solo=False)
                except BrokenProcessPool:
                    broken_on_submit = tid
                if broken_on_submit is not None:
                    yield from settle_broken_pool(extra_victim=broken_on_submit)
                    pool = respawn_pool()
                    continue
                if not flights:
                    if delayed:  # everything left is backing off; sleep it out
                        time.sleep(
                            max(0.0, min(r for r, _ in delayed) - time.monotonic())
                        )
                    continue
                timeout = None
                wakeups = [f.deadline for f in flights.values() if f.deadline]
                wakeups += [ready for ready, _ in delayed]
                if wakeups:
                    timeout = max(0.01, min(wakeups) - time.monotonic())
                done, _ = wait(
                    list(flights), timeout=timeout, return_when=FIRST_COMPLETED
                )
                broken = False
                for future in done:
                    flight = flights.pop(future)
                    try:
                        output = future.result()
                    except BrokenProcessPool:
                        flights[future] = flight  # hand back for settlement
                        broken = True
                        # Keep draining ``done``: a sibling that *completed*
                        # in the same batch must be yielded, not re-flown.
                        continue
                    except Exception as exc:  # the task raised in its worker
                        yield from charge(
                            flight.task_id, "exception", format_error(exc)
                        )
                    else:
                        expired.discard(flight.task_id)
                        yield output
                if broken:
                    yield from settle_broken_pool()
                    pool = respawn_pool()
                    continue
                # Watchdog: kill the pool under tasks that blew their
                # wall-clock deadline; the break is settled next iteration.
                now = time.monotonic()
                hung = [
                    f for f in flights.values() if f.deadline and f.deadline <= now
                ]
                if hung:
                    for flight in hung:
                        expired.add(flight.task_id)
                    _kill_pool_processes(pool)
        finally:
            # Never block on a wedged worker during unwind (SIGINT included).
            pool.shutdown(wait=False, cancel_futures=True)


Executor = SerialExecutor | ParallelExecutor


def choose_executor(config: CampaignConfig, workers: int | None = None) -> "Executor":
    """The executor a campaign runs on: the one place that choice is made.

    ``workers`` selects a :class:`ParallelExecutor`, with or without
    ``config.batch_launch``.  Without workers, ``config.batch_launch``
    selects the in-process fork executor
    (:class:`~repro.core.batch_injector.BatchExecutor`) wherever
    ``os.fork`` exists, and anything else a :class:`SerialExecutor`.  The
    CLI and :class:`CampaignEngine`'s default executor both come from here.
    """
    if workers:
        return ParallelExecutor(max_workers=workers)
    if config.batch_launch and hasattr(os, "fork"):
        from repro.core.batch_injector import BatchExecutor

        return BatchExecutor()
    return SerialExecutor()


# -- progress hooks and metrics -----------------------------------------------


class EngineHooks:
    """Progress callbacks; override any subset. Default methods do nothing."""

    def on_phase(self, phase: str, seconds: float) -> None:
        """A pipeline phase ("golden", "profile", "select", "inject") ended."""

    def on_injection(
        self,
        index: int,
        outcome,
        completed: int,
        total: int,
        tally: OutcomeTally,
    ) -> None:
        """One injection was classified (``tally`` = outcome counts so far)."""


class EngineMetrics:
    """Compatibility view over the engine's :class:`~repro.obs.MetricsRegistry`.

    Historically a standalone dataclass the engine mutated; the numbers now
    live in the shared metrics registry (``engine.*`` / ``campaign.*``
    names), and this shim keeps the old field API — reads and writes both —
    so existing callers and the observability layer see a single source of
    truth.
    """

    _DONE = "engine.injections.done"
    _LOADED = "engine.injections.loaded"
    _TOTAL = "engine.injections.total"
    _RETRIES = "engine.retries"
    _QUARANTINED = "engine.quarantined"
    _INJECT_SECONDS = "engine.inject.seconds"
    _PHASE_PREFIX = "engine.phase."
    _PHASE_SUFFIX = ".seconds"

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        tally: OutcomeTally | None = None,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tally = tally if tally is not None else OutcomeTally()

    # -- field compatibility (reads and writes hit the registry) --------------

    @property
    def phase_seconds(self) -> dict[str, float]:
        values = self.registry.counter_values(self._PHASE_PREFIX)
        return {
            name[: -len(self._PHASE_SUFFIX)]: seconds
            for name, seconds in values.items()
            if name.endswith(self._PHASE_SUFFIX)
        }

    def add_phase_seconds(self, name: str, seconds: float) -> None:
        self.registry.counter(
            f"{self._PHASE_PREFIX}{name}{self._PHASE_SUFFIX}"
        ).inc(seconds)

    @property
    def injections_done(self) -> int:
        return int(self.registry.counter(self._DONE).value)

    @injections_done.setter
    def injections_done(self, value: int) -> None:
        self.registry.counter(self._DONE).value = float(value)

    @property
    def injections_loaded(self) -> int:
        return int(self.registry.counter(self._LOADED).value)

    @injections_loaded.setter
    def injections_loaded(self, value: int) -> None:
        self.registry.counter(self._LOADED).value = float(value)

    @property
    def injections_total(self) -> int:
        return int(self.registry.gauge(self._TOTAL).value)

    @injections_total.setter
    def injections_total(self, value: int) -> None:
        self.registry.gauge(self._TOTAL).set(value)

    @property
    def retries(self) -> int:
        """Failed attempts that were re-run under the retry policy."""
        return int(self.registry.counter(self._RETRIES).value)

    @property
    def quarantined(self) -> int:
        """Tasks that exhausted every attempt and became harness DUEs."""
        return int(self.registry.counter(self._QUARANTINED).value)

    @property
    def inject_seconds(self) -> float:
        return self.registry.gauge(self._INJECT_SECONDS).value

    @inject_seconds.setter
    def inject_seconds(self, value: float) -> None:
        self.registry.gauge(self._INJECT_SECONDS).set(value)

    # -- derived ---------------------------------------------------------------

    @property
    def injections_per_second(self) -> float:
        if self.inject_seconds <= 0:
            return 0.0
        return self.injections_done / self.inject_seconds

    def summary(self) -> str:
        phases = "  ".join(
            f"{name}={seconds:.2f}s" for name, seconds in self.phase_seconds.items()
        )
        resilience = ""
        if self.retries or self.quarantined:
            resilience = (
                f"  retries={self.retries} quarantined={self.quarantined}"
            )
        return (
            f"{phases}  "
            f"ran={self.injections_done}/{self.injections_total} "
            f"(resumed {self.injections_loaded})  "
            f"{self.injections_per_second:.1f} inj/s"
            f"{resilience}"
        )


def _stop_when(
    results: Iterable, stop: threading.Event
) -> Iterator:
    """Pass executor results through until ``stop`` is set.

    Checked before the first item and after each yielded one: a completed
    result is never dropped (it is already checkpointed downstream), but
    no further task starts once the signal fires.
    """
    if stop.is_set():
        return
    for item in results:
        yield item
        if stop.is_set():
            return


# -- the engine ---------------------------------------------------------------


class CampaignEngine:
    """Owns the golden → profile → select → inject → classify pipeline."""

    def __init__(
        self,
        app: Application | str,
        config: CampaignConfig | None = None,
        executor: Executor | None = None,
        store: ResultStore | None = None,
        hooks: EngineHooks | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.app = get_workload(app) if isinstance(app, str) else app
        self.config = config or CampaignConfig()
        self.executor = executor or choose_executor(self.config)
        self.store = store
        self.hooks = hooks or EngineHooks()
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.registry = metrics if metrics is not None else MetricsRegistry()
        self.metrics = EngineMetrics(registry=self.registry)
        self._stream = SeedSequenceStream(self.config.seed, path=self.app.name)
        self.golden: RunArtifacts | None = None
        self.profile: ProgramProfile | None = None
        # The cached fixed-N transient site plan (``run_batch`` runs
        # shards of it; selection is deterministic, so caching it cannot
        # perturb the RNG stream).
        self._plan: list[TransientParams] | None = None
        self.golden_time = 0.0
        self.profile_time = 0.0
        # Golden-replay fast-forward state (config.fast_forward): the golden
        # run's replay log, held in-process for stop-launch lookups, and the
        # on-disk copy every worker loads lazily (once per process).
        self._replay_log = None  # repro.gpusim.replay.ReplayLog | None
        self._replay_path: str | None = None
        # The golden run's per-launch instruction counts (counted, or
        # loaded with a cached tape).
        self._launch_counts = None  # list[repro.gpusim.counts.LaunchCounts] | None

    def _replay_cache(self):
        """The persistent cross-campaign replay cache, if configured.

        Only meaningful with fast-forward on: the cache stores replay
        tapes, and without a recorder there is nothing to cache.
        """
        if not self.config.fast_forward:
            return None
        from repro.core.snapshot import ReplayCache

        return ReplayCache.resolve(self.config.replay_cache)

    # -- pipeline phases --------------------------------------------------------

    def run_golden(self) -> RunArtifacts:
        cache = self._replay_cache()
        recorder = None
        golden = self._run_golden_cached(cache) if cache is not None else None
        if golden is None:
            # The golden run counts its instructions: the derived profile
            # and permanent-fault replay read the counts, which go in the
            # tape (or stay in memory with fast-forward off).
            counter = LaunchCounter()
            recorder = (
                ReplayRecorder(counter) if self.config.fast_forward else None
            )
            with self.tracer.span("golden", workload=self.app.name) as span:
                if span is not None and cache is not None:
                    span.attrs["replay_cache"] = "miss"
                golden = capture_golden(
                    self.app, self._sandbox_config(), tracer=self.tracer,
                    recorder=recorder, counter=counter,
                )
            self._launch_counts = counter.launches
        self.golden = golden
        self.golden_time = golden.wall_time
        self._record_run_metrics(golden)
        if self.store is not None:
            self.store.save_golden(golden)
        self._phase("golden", self.golden_time)
        if recorder is not None:
            self._save_replay_log(recorder, cache=cache)
        return golden

    def _run_golden_cached(self, cache) -> RunArtifacts | None:
        """The golden run serviced from the persistent replay cache, or
        ``None`` on a miss.

        On a hit the host program still runs, but every launch replays
        from the cached tape — reference artifacts (reads come from
        restored memory) and device counters (recorded deltas) are
        identical to a simulated golden run at a fraction of the cost.  A
        missing or invalid (content hash) entry counts a miss, and so does
        a stale one: the hit needs the cursor to replay every taped launch
        and never go off.  A stale tape (e.g. an edited workload under an
        unchanged cache key) still yields correct artifacts — the cursor
        degraded to simulation — but must be re-recorded.
        """
        log = cache.lookup(self.app.name, self._sandbox_config())
        if log is not None:
            cursor = ReplayCursor(log)
            with self.tracer.span("golden", workload=self.app.name) as span:
                if span is not None:
                    span.attrs["replay_cache"] = "hit"
                golden = capture_golden(
                    self.app, self._sandbox_config(), tracer=self.tracer,
                    replay=cursor,
                )
            if cursor.state == GOLDEN and cursor.skipped == len(log):
                self.registry.counter("engine.cache.hits").inc()
                self._replay_log = log
                self._launch_counts = log.counts
                self._replay_path = str(
                    cache.path_for(self.app.name, self._sandbox_config())
                )
                return golden
        self.registry.counter("engine.cache.misses").inc()
        return None

    def _save_replay_log(self, recorder: ReplayRecorder, cache=None) -> None:
        """Serialize the golden run's replay log where every worker can read it.

        With a persistent :class:`~repro.core.snapshot.ReplayCache`
        configured, the log lands in the cache (shared across campaigns —
        and across ``repro serve`` tenants when the cache dir is
        DB-adjacent).  Otherwise stored campaigns put it under the study
        directory (next to the golden artifacts) and store-less campaigns
        use a private temp directory cleaned up when the engine is
        collected.  A recorder that aborted (or taped nothing) simply
        leaves fast-forward off.
        """
        log = recorder.log()
        if log is None or not log.launches:
            return
        started = time.perf_counter()
        if self.store is not None:
            path = str(self.store.replay_path())
        else:
            tmpdir = tempfile.mkdtemp(prefix="repro-replay-")
            weakref.finalize(self, shutil.rmtree, tmpdir, ignore_errors=True)
            path = os.path.join(tmpdir, "replay.bin")
        with self.tracer.span(
            "replay",
            workload=self.app.name,
            launches=len(log.launches),
            pages=log.total_pages,
        ) as span:
            if cache is not None:
                path = str(
                    cache.store(self.app.name, self._sandbox_config(), log)
                )
                if span is not None:
                    span.attrs["replay_cache"] = "store"
            else:
                save_replay_log(log, path)
        self._replay_log = log
        self._replay_path = path
        self._phase("replay", time.perf_counter() - started)

    def _replay_ref_for(self, site) -> ReplayRef | None:
        """The fast-forward reference for one site (or None).

        For a transient site, ``stop_launch`` is the golden sequence number
        of the targeted launch: everything before it replays, the target
        simulates, and — with ``tail_fast_forward`` — the launches after it
        replay again once the run's memory re-converges with golden.  Sites
        absent from the log carry no reference.  A permanent or
        intermittent site has no target: its reference carries the fault's
        (opcode, SM, lane), and every launch the fault cannot reach
        replays, which needs the tape's counts.
        """
        log = self._replay_log
        if log is None or self._replay_path is None:
            return None
        if isinstance(site, TransientParams):
            stop = log.stop_launch_for(site.kernel_name, site.kernel_count)
            if stop is None:
                return None
            return ReplayRef(
                path=self._replay_path,
                stop_launch=stop,
                tail=self.config.tail_fast_forward,
            )
        if log.counts is None:
            return None
        fault = getattr(site, "permanent", site)
        return ReplayRef(
            path=self._replay_path,
            stop_launch=None,
            tail=self.config.tail_fast_forward,
            site=(fault.opcode_id, fault.sm_id, fault.lane_id),
        )

    def run_profile(self, mode: ProfilingMode | None = None) -> ProgramProfile:
        """The instruction profile, derived from the golden run's counts.

        The profile run ``ProfilerTool`` would make executes exactly the
        golden run's instructions, so its profile follows from the counts
        (:func:`~repro.core.profiler.derived_profile`), and so do the
        device totals it would add, which are re-reported: golden's
        instructions and warps, and golden's cycles plus the profiler's
        instrumentation and JIT charges.  A kernel that reads ``SR_CLOCK``
        is no exception: the clock is the instruction count, which
        instrumentation never charges.
        """
        if self.golden is None:
            self.run_golden()
        mode = mode or self.config.profiling
        cache = self._replay_cache()
        if cache is not None and self._cached_profile(cache, mode):
            return self.profile
        with self.tracer.span(
            "profile", workload=self.app.name, mode=mode.value
        ) as span:
            if span is not None:
                if cache is not None:
                    span.attrs["replay_cache"] = "miss"
                span.attrs["derived"] = True
            profile, counters = self._derived_profile(mode)
        self.profile = profile
        self.profile.workload = self.app.name
        if self.store is not None:
            self.store.save_profile(self.profile)
        self._phase("profile", self.profile_time)
        if cache is not None and self._replay_log is not None:
            cache.store_profile(
                self.app.name,
                self._sandbox_config(),
                mode.value,
                self._replay_log.content_hash,
                self.profile,
                counters=counters,
            )
        return self.profile

    def _derived_profile(self, mode: ProfilingMode) -> tuple[ProgramProfile, dict]:
        """The profile from golden's counts, and the device totals the
        profile run would have added, re-reported into the registry."""
        started = time.perf_counter()
        profile, hook_cycles = derived_profile(self._launch_counts, mode)
        golden = self.golden
        counters = {
            "gpusim.instructions_retired": golden.instructions_executed,
            "gpusim.cycles": golden.cycles + hook_cycles,
            "gpusim.warps_launched": golden.warps_launched,
        }
        for name, value in counters.items():
            self.registry.counter(name).inc(value)
        self.profile_time = time.perf_counter() - started
        return profile, counters

    def _cached_profile(self, cache, mode: ProfilingMode) -> bool:
        """Service the profiling pass from the persistent replay cache.

        Profiling is the one plan phase a cached tape cannot speed up
        (instruction counting must simulate under instrumentation), so
        its output is cached alongside the tape and validated against the
        tape's content hash — a profile counted over a different golden
        run never matches.  The restored profile round-trips through the
        same text codec the store artifact uses, so site selection (and
        therefore ``results.csv``) is byte-identical to a freshly
        profiled run.
        """
        if self._replay_log is None:
            return False
        started = time.perf_counter()
        cached = cache.lookup_profile(
            self.app.name,
            self._sandbox_config(),
            mode.value,
            self._replay_log.content_hash,
        )
        if cached is None:
            return False
        profile, counters = cached
        with self.tracer.span(
            "profile", workload=self.app.name, mode=mode.value
        ) as span:
            if span is not None:
                span.attrs["replay_cache"] = "hit"
        self.registry.counter("engine.cache.profile_hits").inc()
        # Re-report the profiling run's recorded device totals, exactly as
        # replayed launches fold their recorded cycle deltas back in: the
        # simulated-cycle trajectory stays identical whether the profile
        # was counted or restored.
        for name, value in counters.items():
            self.registry.counter(name).inc(value)
        self.profile = profile
        self.profile.workload = self.app.name
        self.profile_time = time.perf_counter() - started
        if self.store is not None:
            self.store.save_profile(self.profile)
        self._phase("profile", self.profile_time)
        return True

    def select_sites(self, count: int | None = None) -> list[TransientParams]:
        if self.profile is None:
            self.run_profile()
        count = count if count is not None else self.config.num_transient
        started = time.perf_counter()
        with self.tracer.span(
            "select",
            kind="transient",
            count=count,
            group=self.config.group.name,
            model=self.config.model.name,
        ):
            rng = self._stream.child("sites").generator()
            sites = select_transient_sites(
                self.profile,
                self.config.group,
                self.config.model,
                count,
                rng,
            )
        self._phase("select", time.perf_counter() - started)
        return sites

    def select_permanent(self) -> list[PermanentParams]:
        if self.profile is None:
            self.run_profile()
        with self.tracer.span("select", kind="permanent"):
            rng = self._stream.child("permanent").generator()
            return select_permanent_sites(
                self.profile,
                rng,
                sm_ids=self.active_sm_ids(),
                num_sms=self.device_num_sms(),
            )

    # -- campaigns --------------------------------------------------------------

    def run_transient(
        self, sites: list[TransientParams] | None = None
    ) -> TransientCampaignResult:
        """The full transient campaign (Figure 1 for N faults)."""
        if sites is None:
            if self._adaptive_enabled():
                return self._run_transient_adaptive()
            sites = self.plan_transient()
        if self.golden is None:
            self.run_golden()
        return self._transient_result(self._transient_batch(sites, 0, []))

    def _transient_batch(
        self,
        sites: list[TransientParams],
        start: int,
        earlier: list[TransientResult],
    ) -> list[TransientResult]:
        """Inject ``sites[start:]``: the batch step of both transient loops.

        On an interrupt, a store gets a partial ``results.csv`` holding
        ``earlier`` (the earlier batches' results) plus everything this
        batch completed; then ``KeyboardInterrupt`` propagates.
        """
        indices = range(start, len(sites))
        try:
            results = self._inject(sites, CampaignKind.TRANSIENT.value, indices)
        except CampaignInterrupted as interrupt:
            if self.store is not None:
                by_index = dict(enumerate(earlier))
                by_index.update(interrupt.completed)
                self.store.save_partial_results_csv(by_index)
            raise KeyboardInterrupt from None
        return [results[index] for index in indices]

    def _transient_result(
        self, results: list[TransientResult], adaptive=None
    ) -> TransientCampaignResult:
        """Tally a finished transient campaign; a store gets its results.csv."""
        tally = OutcomeTally()
        for item in results:
            tally.add(item.outcome)
        result = TransientCampaignResult(
            results=results,
            tally=tally,
            golden_time=self.golden_time,
            profile_time=self.profile_time,
            median_injection_time=_median(r.wall_time for r in results),
            adaptive=adaptive,
        )
        if self.store is not None:
            self.store.save_results_csv(result)
        return result

    # -- shards of a plan (the service scheduler) --------------------------------

    def plan_transient(self) -> list[TransientParams]:
        """The fixed-N transient site plan (golden + profile + select), cached.

        Site selection is a pure function of the campaign seed and the
        workload, so every process that plans the same config derives the
        same plan — the property the service scheduler's sharded workers
        rest on: N workers each call :meth:`plan_transient` independently
        and then execute disjoint index ranges of the *same* plan.
        """
        if self._plan is None:
            self._plan = self.select_sites()
            if self.golden is None:
                self.run_golden()
        return self._plan

    def run_batch(
        self,
        indices: Iterable[int] | None = None,
        stop: "threading.Event | None" = None,
    ) -> dict[int, TransientResult]:
        """Inject the given plan indices (default: the whole plan).

        What a scheduler worker runs per leased shard.  Indices whose
        results are already in the store are skipped; everything else
        flows through the engine's normal retry, fast-forward and
        checkpoint machinery.  Returns the results by plan index, in
        completion order.

        ``stop`` is a cooperative abandon signal (a ``threading.Event``):
        once set, the completed result in flight is still taken (it is
        already checkpointed) but no further task starts.  The scheduler
        sets it when a worker's unit lease is lost, so the worker stops
        burning duplicate work the moment it is presumed dead.
        """
        sites = self.plan_transient()
        indices = range(len(sites)) if indices is None else list(indices)
        for index in indices:
            if not 0 <= index < len(sites):
                raise ReproError(
                    f"site index {index} outside the plan "
                    f"(0..{len(sites) - 1})"
                )
        try:
            return self._inject(
                sites, CampaignKind.TRANSIENT.value, indices, stop=stop,
                resume=False,
            )
        except CampaignInterrupted:
            raise KeyboardInterrupt from None

    def snapshot_order(self, indices: Iterable[int]) -> list[int]:
        """Order plan indices so launch-coherent sites sit contiguously.

        The scheduler shards this ordering into units, so every leased
        unit's sites cluster around the same fast-forward stop launches —
        the grouping :class:`~repro.core.batch_injector.BatchExecutor`
        turns into shared counting passes.  Without a replay log (fast-forward
        off, or the golden run taped nothing) the order is unchanged.
        Pure reordering: results are keyed by index, so unit composition
        never changes ``results.csv``.
        """
        sites = self.plan_transient()
        log = self._replay_log

        def key(index: int) -> tuple[int, int]:
            stop = None
            if log is not None and 0 <= index < len(sites):
                site = sites[index]
                stop = log.stop_launch_for(site.kernel_name, site.kernel_count)
            return (stop if stop is not None else -1, index)

        return sorted(indices, key=key)


    def _adaptive_enabled(self) -> bool:
        """Any adaptive knob set? Both ``None`` keeps the fixed-N fast path."""
        return (
            self.config.stopping is not None or self.config.sampling is not None
        )

    def _run_transient_adaptive(self) -> TransientCampaignResult:
        """The adaptive transient campaign: draw a batch, inject it, re-evaluate.

        ``config.num_transient`` becomes the budget *ceiling*: each batch is
        drawn per the :class:`~repro.core.adaptive.SamplingPlan`, injected
        through the normal executor path (checkpoint/resume included), and
        the :class:`~repro.core.adaptive.StoppingRule` is re-evaluated at
        the batch boundary.  Every decision is a pure function of the seed
        and the outcomes so far; the per-batch decision tape is persisted
        (``adaptive.json``) so a resumed campaign verifies it is walking the
        same sequence instead of silently re-sizing the campaign.

        Uniform adaptive draws consume the same ``sites`` RNG stream as the
        fixed-N path, so the sites injected are a prefix of the fixed-N
        plan's — an adaptive campaign that exhausts its budget runs exactly
        the fixed-N campaign.
        """
        config = self.config
        plan = config.sampling or SamplingPlan()
        rule = config.stopping
        budget = config.num_transient
        if self.profile is None:
            self.run_profile()  # golden runs first, as in the fixed path
        strata = (
            stratum_weights(self.profile, config.group)
            if plan.mode != "uniform"
            else None
        )
        state = AdaptiveState(plan, rule, strata)
        fingerprint = state.fingerprint(
            budget, config.seed, config.group.name, config.model.name
        )
        checkpoint = AdaptiveCheckpoint(fingerprint)
        checkpoint.batches = state.batches  # shared: grows with the tape
        tape: AdaptiveCheckpoint | None = None
        if self.store is not None:
            stored = self.store.load_adaptive_state()
            if stored is not None:
                tape = AdaptiveCheckpoint.from_dict(stored)
                if tape.fingerprint != fingerprint:
                    raise ReproError(
                        "stored adaptive campaign used different parameters "
                        "(plan, rule, budget or seed); use a fresh study "
                        "directory"
                    )

        rng = self._stream.child("sites").generator()
        sites: list[TransientParams] = []
        results: list[TransientResult] = []
        stopped_early_at: int | None = None

        with self.tracer.span(
            "campaign",
            kind="transient",
            adaptive=True,
            mode=plan.mode,
            budget=budget,
        ) as run_span:
            while len(sites) < budget:
                batch_no = len(state.batches)
                size = min(plan.batch_size, budget - len(sites))
                allocation = state.allocate(size)
                start = len(sites)
                started = time.perf_counter()
                with self.tracer.span(
                    "select",
                    kind="transient",
                    count=size,
                    batch=batch_no,
                    mode=plan.mode,
                ):
                    if allocation is None:
                        batch = select_transient_sites(
                            self.profile, config.group, config.model, size, rng
                        )
                    else:
                        batch = select_stratified_sites(
                            self.profile, config.group, config.model,
                            allocation, rng,
                        )
                self._phase("select", time.perf_counter() - started)
                sites.extend(batch)
                entry = state.record_batch(start, len(batch), allocation)
                if tape is not None and batch_no < len(tape.batches):
                    if tape.batches[batch_no] != entry:
                        raise ReproError(
                            f"stored adaptive batch {batch_no} diverges from "
                            "the re-derived decision sequence; use a fresh "
                            "study directory"
                        )
                if self.store is not None:
                    # Before the batch runs: an interrupted campaign's tape
                    # already holds the batch it stopped in.
                    self.store.save_adaptive_state(checkpoint.to_dict())
                batch_results = self._transient_batch(sites, start, results)
                results.extend(batch_results)
                for site, item in zip(batch, batch_results):
                    state.record(site.kernel_name, item.outcome)
                self.registry.counter("engine.adaptive.batches").inc()
                estimate = (
                    state.estimate(rule.target_outcome, rule.confidence)
                    if rule is not None
                    else None
                )
                if self.tracer.enabled:
                    attrs = {
                        "batch": batch_no,
                        "start": start,
                        "size": len(batch),
                        "injections": state.drawn,
                    }
                    if allocation is not None:
                        attrs["allocation"] = allocation
                    if estimate is not None and estimate.half_width is not None:
                        attrs["p_hat"] = estimate.p_hat
                        attrs["half_width"] = estimate.half_width
                    self.tracer.event("adaptive_batch", **attrs)
                should_stop = state.should_stop()
                if should_stop and len(sites) < budget:
                    stopped_early_at = len(sites)
                if should_stop:
                    break
            checkpoint.stopped_early_at = stopped_early_at
            if self.store is not None:
                self.store.save_adaptive_state(checkpoint.to_dict())
            saved = budget - len(sites)
            if saved:
                self.registry.counter(
                    "engine.adaptive.injections_saved"
                ).inc(saved)
            summary = state.summary(budget, stopped_early_at)
            if run_span is not None:
                run_span.attrs.update(
                    batches=summary.batches,
                    injections=summary.injections,
                    stopped_early_at=stopped_early_at,
                    injections_saved=saved,
                )
                if summary.strata:
                    run_span.attrs["strata"] = {
                        s.name: s.injections for s in summary.strata
                    }
                if summary.estimate is not None:
                    run_span.attrs["estimate_p_hat"] = summary.estimate.p_hat
                    run_span.attrs["estimate_half_width"] = (
                        summary.estimate.half_width
                    )

        return self._transient_result(results, adaptive=summary)

    def run_permanent(
        self, sites: list[PermanentParams] | None = None
    ) -> PermanentCampaignResult:
        """One injection per executed opcode, outcomes weighted by dynamic count."""
        if self.profile is None:
            self.run_profile()
        if sites is None:
            sites = self.select_permanent()
        indices = range(len(sites))
        try:
            by_index = self._inject(sites, CampaignKind.PERMANENT.value, indices)
        except CampaignInterrupted:
            # Per-injection checkpoints are already on disk; exit cleanly.
            raise KeyboardInterrupt from None
        results = [by_index[index] for index in indices]
        tally = OutcomeTally()
        for item in results:
            tally.add(item.outcome, weight=item.weight)
        return PermanentCampaignResult(
            results=results,
            tally=tally,
            golden_time=self.golden_time,
            median_injection_time=_median(r.wall_time for r in results),
        )

    def run_intermittent(
        self, sites: list[IntermittentParams]
    ) -> list[PermanentResult]:
        """Intermittent-fault runs (§V extension), through the same executor."""
        if self.golden is None:
            self.run_golden()
        indices = range(len(sites))
        results = self._inject(sites, CampaignKind.INTERMITTENT.value, indices)
        return [results[index] for index in indices]

    # -- the one injection loop -------------------------------------------------

    def _inject(
        self,
        sites: Sequence,
        kind: str,
        indices: Sequence[int],
        stop: threading.Event | None = None,
        resume: bool = True,
    ) -> dict[int, object]:
        """Run the ``indices`` of ``sites``; return their results by index.

        Every entry point injects through this loop.  Indices whose
        results are already stored do not run again.  A campaign
        (``resume``) runs the tail ``range(start, len(sites))`` of its
        plan: it loads those stored results, emits their ``injection``
        events with ``resumed`` set, and reports progress as ``start``
        plus its results so far.  A shard (``resume=False``) skips
        them, and its progress goes on from the injections this engine
        has already run.

        Each run's result is classified, saved, counted and traced as it
        arrives, so an interrupted campaign loses at most the runs in
        flight: ``KeyboardInterrupt`` raises :class:`CampaignInterrupted`
        carrying the results so far.  Once ``stop`` is set, no further
        task starts.  Tasks the harness could not complete (worker
        raised, died or hung past every retry) arrive as
        :class:`TaskFailure` records; per ``config.retry.on_failure``
        they abort the campaign or are *quarantined*: a synthesized DUE
        result, saved like any other (so a resume skips it) and surfaced
        by an ``injection_quarantined`` event and the
        ``engine.quarantined`` counter.
        """
        stored, load, save = self._stored(kind)
        tasks = self._tasks(
            sites, kind, [index for index in indices if index not in stored]
        )
        results: dict[int, object] = {}
        self.metrics.injections_total = len(sites)
        if resume:
            for index in indices:
                if index in stored:
                    results[index] = load(index)
                    if results[index].params != sites[index]:
                        raise ReproError(
                            f"stored injection {index} was produced by "
                            "different campaign parameters; use a fresh "
                            "study directory"
                        )
            self.metrics.injections_loaded += len(results)
            done, total = len(sites) - len(indices), len(sites)
        else:
            done, total = self.metrics.injections_done, len(tasks)
        policy = self.config.retry
        base_seconds = self.metrics.inject_seconds
        started = time.perf_counter()
        with self.tracer.span(
            "inject",
            kind=kind,
            total=total,
            fresh=len(tasks),
            batch=getattr(self.executor, "batch_executor", False),
        ):
            for index in sorted(results):
                self._count_outcome(results[index])
                self._emit_injection_event(
                    index, results[index], kind, resumed=True
                )
            runs = self.executor.run(
                tasks,
                app=self.app,
                tracer=self.tracer,
                retry=policy,
                on_retry=self._make_on_retry(kind),
            )
            if stop is not None:
                runs = _stop_when(runs, stop)
            try:
                for output in runs:
                    index = output.index
                    instructions = 0
                    if isinstance(output, InjectionOutput):
                        instructions = output.artifacts.instructions_executed
                        self.tracer.ingest(output.events)
                        self._record_run_metrics(
                            output.artifacts,
                            injection=True,
                            batch=output.batch,
                            batch_shared=output.batch_shared,
                        )
                    elif policy.on_failure == "raise":
                        raise ReproError(
                            f"injection task {index} failed after "
                            f"{output.attempts} attempt(s) "
                            f"[{output.reason}]: {output.error}"
                        )
                    else:
                        self.registry.counter("engine.quarantined").inc()
                        if self.tracer.enabled:
                            self.tracer.event(
                                "injection_quarantined",
                                index=index,
                                kind=kind,
                                attempts=output.attempts,
                                reason=output.reason,
                                error=output.error,
                            )
                    item = results[index] = self._result(kind, sites[index], output)
                    if save is not None:
                        save(index, item)
                    self._emit_injection_event(index, item, kind, instructions)
                    self._count_outcome(item)
                    self.metrics.injections_done += 1
                    self.metrics.inject_seconds = (
                        base_seconds + time.perf_counter() - started
                    )
                    self.hooks.on_injection(
                        index,
                        item.outcome,
                        done + len(results),
                        len(sites),
                        self.metrics.tally,
                    )
            except KeyboardInterrupt:
                # Everything in ``results`` is already checkpointed; hand it
                # to the caller, which may write a partial results.csv.
                raise CampaignInterrupted(results, len(sites)) from None
        self._phase("inject", time.perf_counter() - started)
        return results

    def _stored(self, kind: str) -> tuple[set[int], Callable | None, Callable | None]:
        """The store's completed indices of ``kind``, and its load and save.

        Intermittent runs are never stored.
        """
        store = self.store
        if store is None or kind == CampaignKind.INTERMITTENT.value:
            return set(), None, None
        if kind == CampaignKind.TRANSIENT.value:
            return (
                set(store.completed_injections()),
                store.load_injection,
                store.save_injection,
            )
        return (
            set(store.completed_permanent_injections()),
            store.load_permanent_injection,
            store.save_permanent_injection,
        )

    def _result(
        self, kind: str, site, output: InjectionOutput | TaskFailure
    ) -> TransientResult | PermanentResult:
        """The result of one run of ``site``, of any kind.

        A task that failed gets the quarantine outcome and only
        deterministic fields, so campaigns containing failures still
        produce byte-identical results.csv files across serial, parallel
        and resumed execution.
        """
        failed = isinstance(output, TaskFailure)
        if failed:
            outcome, wall_time = quarantine_outcome(output), 0.0
        else:
            outcome = classify(self.app, self.golden, output.artifacts)
            wall_time = output.artifacts.wall_time
        if kind == CampaignKind.TRANSIENT.value:
            return TransientResult(
                params=site,
                record=InjectionRecord(injected=False) if failed else output.record,
                outcome=outcome,
                wall_time=wall_time,
                instructions=0 if failed else output.artifacts.instructions_executed,
            )
        fault = getattr(site, "permanent", site)  # an intermittent site's fault
        opcode = opcode_by_id(fault.opcode_id).name
        weight = 1.0
        if kind == CampaignKind.PERMANENT.value:
            weight = self.profile.opcode_count(opcode) / max(
                self.profile.total_count(), 1
            )
        return PermanentResult(
            params=fault,
            opcode=opcode,
            weight=weight,
            activations=0 if failed else output.activations,
            outcome=outcome,
            wall_time=wall_time,
        )

    def _tasks(
        self, sites: Sequence, kind: str, indices: Iterable[int]
    ) -> list[InjectionTask]:
        """Frozen, executor-ready tasks for ``indices`` of ``sites``.

        Every task carries its fast-forward reference.  Tasks are grouped
        by target launch (a targetless one sorts first), so neighbours
        share the replay log's page cache.  Results are keyed by index, so
        the ordering cannot change results.csv.
        """
        spec = self._injection_spec()
        tasks = [
            InjectionTask(
                index,
                self.app.name,
                kind,
                sites[index],
                spec,
                replay=self._replay_ref_for(sites[index]),
            )
            for index in indices
        ]
        tasks.sort(
            key=lambda t: (
                -1
                if t.replay is None or t.replay.stop_launch is None
                else t.replay.stop_launch,
                t.index,
            )
        )
        return tasks

    def _make_on_retry(self, kind: str) -> OnRetry:
        """The retry-accounting callback handed to the executor."""

        def on_retry(failure: TaskFailure, delay: float) -> None:
            self.registry.counter("engine.retries").inc()
            if self.tracer.enabled:
                self.tracer.event(
                    "injection_retry",
                    index=failure.index,
                    kind=kind,
                    attempt=failure.attempts,
                    reason=failure.reason,
                    error=failure.error,
                    delay=delay,
                )

        return on_retry

    # -- observability plumbing --------------------------------------------------

    def _emit_injection_event(
        self,
        index: int,
        item,
        kind: str,
        instructions: int = 0,
        resumed: bool = False,
    ) -> None:
        """One point event per classified injection (params + outcome + count).

        ``instructions`` is the run's count, for results that do not
        carry their own (permanent ones).
        """
        if not self.tracer.enabled:
            return
        attrs = {
            "index": index,
            "kind": kind,
            "resumed": resumed,
            "outcome": item.outcome.outcome.value,
            "symptom": item.outcome.symptom,
            "potential_due": item.outcome.potential_due,
            "weight": getattr(item, "weight", 1.0),
            "instructions": getattr(item, "instructions", instructions),
        }
        attrs.update(_params_attrs(getattr(item, "params", None)))
        record = getattr(item, "record", None)
        if record is not None:
            attrs["injected"] = record.injected
            if record.injected:
                attrs["opcode"] = record.opcode
                attrs["sm_id"] = record.sm_id
                attrs["pc"] = record.pc
        self.tracer.event("injection", **attrs)

    def _count_outcome(self, item) -> None:
        """Add one result to the running tally and the outcome counters."""
        weight = getattr(item, "weight", 1.0)
        self.metrics.tally.add(item.outcome, weight=weight)
        self.registry.counter(
            f"campaign.outcome.{item.outcome.outcome.value}"
        ).inc(weight)
        if item.outcome.potential_due:
            self.registry.counter("campaign.outcome.potential_due").inc(weight)

    def _record_run_metrics(
        self,
        artifacts: RunArtifacts,
        injection: bool = False,
        batch: bool = False,
        batch_shared: bool = False,
    ) -> None:
        """Fold one sandboxed run's device counters into the registry."""
        reg = self.registry
        reg.counter("sandbox.runs").inc()
        if batch:
            # The run was serviced by an in-launch overlay fork child: the
            # batched pass counted this run's target launch and forked at
            # its instruction_count instead of re-simulating the prefix.
            reg.counter("engine.snapshot.forks").inc()
            reg.counter("engine.batch.checkpoints").inc()
        if batch_shared:
            # One per batch group: its target launch was simulated once
            # for every sibling fault.
            reg.counter("engine.batch.launches_shared").inc()
        reg.counter("gpusim.instructions_retired").inc(
            artifacts.instructions_executed
        )
        reg.counter("gpusim.cycles").inc(artifacts.cycles)
        reg.counter("gpusim.warps_launched").inc(artifacts.warps_launched)
        reg.gauge("gpusim.divergence_depth_high_water").set_max(
            artifacts.divergence_depth_high_water
        )
        if artifacts.replay_launches_skipped:
            reg.counter("engine.replay.hits").inc()
            reg.counter("engine.replay.launches_skipped").inc(
                artifacts.replay_launches_skipped
            )
        if artifacts.replay_tail_skipped:
            # Tail fast-forward: this run's fault went architecturally dead
            # and the remaining launches replayed from the golden tape.
            reg.counter("engine.replay.tail_hits").inc()
            reg.counter("engine.replay.tail_launches_skipped").inc(
                artifacts.replay_tail_skipped
            )
        if artifacts.replay_converged_at >= 0:
            reg.histogram(
                "engine.replay.converged_at_launch", LAUNCH_BUCKETS
            ).observe(artifacts.replay_converged_at)
        if getattr(artifacts, "blockc_blocks_compiled", 0):
            reg.counter("engine.blockc.blocks_compiled").inc(
                artifacts.blockc_blocks_compiled
            )
            reg.counter("engine.blockc.compile_seconds").inc(
                artifacts.blockc_compile_seconds
            )
        if getattr(artifacts, "blockc_block_hits", 0):
            reg.counter("engine.blockc.block_hits").inc(
                artifacts.blockc_block_hits
            )
        if injection:
            reg.histogram(
                "campaign.injection.instructions", INSTRUCTION_BUCKETS
            ).observe(artifacts.instructions_executed)
            reg.histogram("campaign.injection.seconds").observe(artifacts.wall_time)

    # -- configuration helpers --------------------------------------------------

    def device_num_sms(self) -> int:
        """SM count of the configured device (explicit or the family's)."""
        sandbox = self.config.sandbox
        if sandbox.num_sms is not None:
            return sandbox.num_sms
        return arch_by_name(sandbox.family).num_sms

    def _sandbox_config(self) -> SandboxConfig:
        return self.config.sandbox.clone()

    def injection_config(self) -> SandboxConfig:
        """The sandbox of an injection run: the campaign's, with the hang
        budget scaled from the golden run once there is one."""
        config = self._sandbox_config()
        if self.golden is not None:
            config.instruction_budget = hang_budget(
                self.golden, factor=self.config.hang_budget_factor
            )
        return config

    def _injection_spec(self) -> SandboxSpec:
        return self.injection_config().spec()

    def active_sm_ids(self) -> list[int]:
        """SMs that actually ran blocks in the golden run.

        A permanent fault pinned to an idle SM can never activate; real
        campaigns target populated SMs, so site selection draws from the
        golden run's active set, falling back to every SM of the configured
        device.
        """
        if self.golden is not None and self.golden.active_sms:
            return list(self.golden.active_sms)
        return list(range(self.device_num_sms()))

    def _phase(self, name: str, seconds: float) -> None:
        self.metrics.add_phase_seconds(name, seconds)
        self.hooks.on_phase(name, seconds)


def _params_attrs(params) -> dict:
    """Flatten an injection-parameter record into JSON-friendly event attrs."""
    if isinstance(params, TransientParams):
        return {
            "group": params.group.name,
            "model": params.model.name,
            "kernel": params.kernel_name,
            "kernel_count": params.kernel_count,
            "instruction_count": params.instruction_count,
        }
    if isinstance(params, PermanentParams):
        return {
            "sm_id_target": params.sm_id,
            "lane_id": params.lane_id,
            "bit_mask": params.bit_mask,
            "opcode_id": params.opcode_id,
        }
    if isinstance(params, IntermittentParams):
        attrs = _params_attrs(params.permanent)
        attrs.update(process=params.process,
                     activation_probability=params.activation_probability)
        return attrs
    return {}
