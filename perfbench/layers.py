"""Per-layer spans for the benchmark's traced run.

:class:`LayerTrace` wraps each layer's public entry points where their
callers look them up (``repro.core.engine.run_app``, not only
``repro.runner.sandbox.run_app``), records one span per call (id, name,
start, end, parent) and puts every original back on exit.  Calls nest
on a single stack, so a span's self time is its duration minus the
durations of its direct children, and the self times of all spans under
the campaign's root add up to the root's duration.

Only the calling thread is traced.  Forked children (pool workers, batch
overlays) inherit the wrappers, but their spans die with them: in the fork
and pool workloads child work shows up as ``engine.executor_next``.
"""

from __future__ import annotations

import functools
import statistics
import threading
from time import perf_counter

# Recorded in the per-layer totals but not stored one by one: profiling
# fires one instrumentation callback per dynamic instruction.
AGGREGATE_ONLY = frozenset({"nvbit.callback"})
MAX_STORED_SPANS = 200_000

ROOT = "campaign"


def _targets():
    """``(owner, attribute, span name)`` for every wrapped entry point."""
    from repro.core import batch_injector, engine, snapshot, store
    from repro.gpusim import blockc, multifault, replay, sm
    from repro.nvbit import jit
    from repro.runner import golden

    cursors = (replay.ReplayCursor, multifault.SweepCursor)
    targets = [
        (engine.CampaignEngine, "run_golden", "engine.golden"),
        (engine.CampaignEngine, "run_profile", "engine.profile"),
        (engine.CampaignEngine, "select_sites", "engine.select"),
        (engine.CampaignEngine, "select_permanent", "engine.select"),
        (engine, "classify", "outcomes.classify"),
        (blockc, "compiled_for", "blockc.compile"),
        (sm, "compiled_for", "blockc.compile"),
        (replay.ReplayCursor, "apply", "replay.apply"),
        (replay, "load_replay_log", "replay.tape_load"),
        (snapshot, "load_replay_log", "replay.tape_load"),
        (batch_injector, "load_replay_log", "replay.tape_load"),
        (engine, "save_replay_log", "replay.tape_save"),
        (snapshot, "save_replay_log", "replay.tape_save"),
        (snapshot.ReplayCache, "store", "replay.tape_save"),
        (snapshot.ReplayCache, "lookup", "cache.lookup"),
        (snapshot.ReplayCache, "lookup_profile", "cache.lookup"),
        (jit.JitCache, "compile", "nvbit.jit"),
        (multifault.OverlayForker, "fork_overlay", "fork.fork_overlay"),
        (multifault.OverlayForker, "drain", "fork.drain"),
        (store.CampaignStore, "save_injection", "store.save"),
        (store.CampaignStore, "save_permanent_injection", "store.save"),
        (store.CampaignStore, "save_results_csv", "store.results_csv"),
    ]
    targets += [
        (module, "run_app", "runner.run_app")
        for module in (engine, snapshot, batch_injector, golden)
    ]
    for cursor in cursors:
        targets += [
            (cursor, attr, name)
            for attr, name in (
                ("consult", "replay.consult"),
                ("begin_simulated_launch", "replay.track"),
                ("end_simulated_launch", "replay.track"),
            )
            if attr in vars(cursor)
        ]
    return targets


class LayerTrace:
    """Span recorder plus the wrappers that feed it.

    Use as a context manager around one campaign, with the campaign
    itself bracketed by a :data:`ROOT` span::

        with LayerTrace() as trace:
            root = trace.begin(ROOT)
            ...  # plan and run the campaign
            trace.end(root)
        metrics = layer_metrics(trace.summary(counters, injections))
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        #: name -> [calls, outermost inclusive seconds, self seconds]
        self.stats: dict[str, list] = {}
        self.dropped = 0
        self.run_app_seconds: list[float] = []
        self.warp_instructions = 0
        self._stack: list[list] = []  # [id, name, start, child seconds]
        self._open: dict[str, int] = {}
        self._next_id = 0
        self._thread = threading.get_ident()
        self._patched: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------------

    def begin(self, name: str) -> list:
        frame = [self._next_id, name, perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        self._open[name] = self._open.get(name, 0) + 1
        return frame

    def end(self, frame: list) -> float:
        end = perf_counter()
        stack = self._stack
        stack.pop()  # wrappers end their span in ``finally``: always the top
        span_id, name, start, children = frame
        duration = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        stat[0] += 1
        stat[2] += duration - children
        self._open[name] -= 1
        if not self._open[name]:
            stat[1] += duration
        if stack:
            stack[-1][3] += duration
        if name not in AGGREGATE_ONLY:
            if len(self.spans) < MAX_STORED_SPANS:
                parent = stack[-1][0] if stack else -1
                self.spans.append((span_id, name, start, end, parent))
            else:
                self.dropped += 1
        return duration

    # -- wrappers ---------------------------------------------------------------

    def wrap(self, name: str, fn):
        trace = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != trace._thread:
                return fn(*args, **kwargs)
            frame = trace.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = trace.end(frame)
                if name == "runner.run_app":
                    trace.run_app_seconds.append(duration)

        return traced

    def wrap_iter(self, name: str, iterable):
        """Yield from ``iterable``, one span per ``next()``."""
        it = iter(iterable)
        try:
            while True:
                frame = self.begin(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.end(frame)
                yield item
        finally:
            close = getattr(it, "close", None)
            if close is not None:
                close()

    def _wrap_launch(self, launch):
        trace = self

        @functools.wraps(launch)
        def traced_launch(device, kernel, grid, block, params=None,
                          shared_bytes=0, hooks=None):
            if threading.get_ident() != trace._thread:
                return launch(device, kernel, grid, block, params,
                              shared_bytes, hooks)
            # The same split the device makes: hooks-free launches take the
            # block-compiled fast path, hooked ones step every instruction.
            name = "gpusim.launch_hooked" if hooks else "gpusim.launch_plain"
            before = device.instructions_executed
            frame = trace.begin(name)
            try:
                return launch(device, kernel, grid, block, params,
                              shared_bytes, hooks)
            finally:
                trace.end(frame)
                trace.warp_instructions += device.instructions_executed - before

        return traced_launch

    def _wrap_insert_call(self, insert_call):
        trace = self

        @functools.wraps(insert_call)
        def traced_insert_call(instr, fn, *args, **kwargs):
            return insert_call(
                instr, trace.wrap("nvbit.callback", fn), *args, **kwargs
            )

        return traced_insert_call

    def install(self) -> None:
        from repro.gpusim.device import Device
        from repro.nvbit.instr import Instr

        for owner, attr, name in _targets():
            self._patch(owner, attr, self.wrap(name, vars(owner)[attr]))
        self._patch(Device, "launch", self._wrap_launch(Device.launch))
        self._patch(Instr, "insert_call",
                    self._wrap_insert_call(Instr.insert_call))

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTrace":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    # -- results ----------------------------------------------------------------

    def summary(self, counters: dict, injections: int) -> dict:
        """What :func:`layer_metrics` needs, in a JSON-friendly, mergeable form."""
        return {
            "stats": self.stats,
            "counters": counters,
            "injections": injections,
            "run_app_seconds": self.run_app_seconds,
            "warp_instructions": self.warp_instructions,
            "phases": {
                "golden": _phase_seconds(self, "engine.golden", ()),
                "profile": _phase_seconds(
                    self, "engine.profile", ("engine.golden",)
                ),
                "select": _phase_seconds(
                    self, "engine.select", ("engine.golden", "engine.profile")
                ),
            },
        }

    def dump(self) -> dict:
        """Stored spans and per-name totals, for writing out at the end."""
        return {
            "fields": ["id", "name", "start", "end", "parent"],
            "spans": self.spans,
            "dropped": self.dropped,
            "totals": {
                name: {"calls": s[0], "seconds": s[1], "self_seconds": s[2]}
                for name, s in sorted(self.stats.items())
            },
        }


def merge(summaries: list[dict]) -> dict:
    """One summary for several campaigns (the perm-suite's four programs)."""
    stats: dict[str, list] = {}
    counters: dict[str, float] = {}
    phases: dict[str, float] = {}
    for part in summaries:
        for name, stat in part["stats"].items():
            total = stats.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                total[i] += stat[i]
        for name, value in part["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for name, value in part["phases"].items():
            phases[name] = phases.get(name, 0.0) + value
    return {
        "stats": stats,
        "counters": counters,
        "injections": sum(part["injections"] for part in summaries),
        "run_app_seconds": [
            s for part in summaries for s in part["run_app_seconds"]
        ],
        "warp_instructions": sum(p["warp_instructions"] for p in summaries),
        "phases": phases,
    }


def accounting(summary: dict, campaign_s: float) -> dict:
    """Self time per layer, and how far their sum is from ``campaign_s``.

    ``engine.self_s`` is the root span's self time: what the campaign
    spent outside every wrapped layer (the engine's own loop, task
    building, metrics).  Summed with every layer's self time it must give
    the root span's duration, and the root span starts and ends inside the
    timer that measures ``campaign_s``.
    """
    stats = summary["stats"]
    layers = {name: s[2] for name, s in sorted(stats.items()) if name != ROOT}
    root_self = stats[ROOT][2] if ROOT in stats else 0.0
    total = sum(layers.values()) + root_self
    return {
        "campaign_s": campaign_s,
        "engine.self_s": root_self,
        "layer_self_s": layers,
        "sum_s": total,
        "error_s": total - campaign_s,
    }


def layer_metrics(summary: dict) -> dict:
    """The per-layer metrics of one traced sample (see README.md)."""
    stats = summary["stats"]
    counters = summary["counters"]
    injections = summary["injections"]

    def calls(name):
        return stats[name][0] if name in stats else 0

    def seconds(name, self_time=False):
        if name not in stats:
            return 0.0
        return stats[name][2] if self_time else stats[name][1]

    def c(name):
        return counters.get(name, 0)

    launch_s = seconds("gpusim.launch_plain") + seconds("gpusim.launch_hooked")
    checkpoints = c("engine.batch.checkpoints")
    shared = c("engine.batch.launches_shared")
    run_app = summary["run_app_seconds"]
    return {
        "engine.golden_s": summary["phases"]["golden"],
        "engine.profile_s": summary["phases"]["profile"],
        "engine.select_s": summary["phases"]["select"],
        "engine.executor_next_s": seconds("engine.executor_next"),
        "engine.self_s": seconds(ROOT, self_time=True),
        "runner.runs": calls("runner.run_app"),
        "runner.run_app_s": seconds("runner.run_app"),
        "runner.run_app_p50_ms": _percentile(run_app, 50) * 1e3,
        "runner.run_app_p90_ms": _percentile(run_app, 90) * 1e3,
        "runner.host_self_s": seconds("runner.run_app", self_time=True),
        "gpusim.launches_plain": calls("gpusim.launch_plain"),
        "gpusim.launch_plain_s": seconds("gpusim.launch_plain"),
        "gpusim.launches_hooked": calls("gpusim.launch_hooked"),
        "gpusim.launch_hooked_s": seconds("gpusim.launch_hooked"),
        "gpusim.winstr_per_s": (
            summary["warp_instructions"] / launch_s if launch_s else 0.0
        ),
        "blockc.compile_s": seconds("blockc.compile"),
        "blockc.blocks_compiled": c("engine.blockc.blocks_compiled"),
        "blockc.block_hits": c("engine.blockc.block_hits"),
        "replay.applied": calls("replay.apply"),
        "replay.apply_s": seconds("replay.apply"),
        "replay.consult_s": seconds("replay.consult"),
        "replay.track_s": seconds("replay.track"),
        "replay.tape_load_s": seconds("replay.tape_load"),
        "replay.tape_save_s": seconds("replay.tape_save"),
        "replay.launches_skipped": c("engine.replay.launches_skipped"),
        "replay.tail_launches_skipped": c("engine.replay.tail_launches_skipped"),
        "replay.converged_share": (
            c("engine.replay.tail_hits") / injections if injections else 0.0
        ),
        "nvbit.jit_n": calls("nvbit.jit"),
        "nvbit.jit_s": seconds("nvbit.jit"),
        "nvbit.callbacks": calls("nvbit.callback"),
        "nvbit.callback_s": seconds("nvbit.callback"),
        "fork.forks": c("engine.snapshot.forks"),
        "fork.fork_overlay_s": seconds("fork.fork_overlay"),
        "fork.drain_s": seconds("fork.drain"),
        "batch.checkpoints": checkpoints,
        "batch.launches_shared": shared,
        "batch.faults_per_pass": checkpoints / shared if shared else 0.0,
        "cache.hits": c("engine.cache.hits"),
        "cache.misses": c("engine.cache.misses"),
        "cache.profile_hits": c("engine.cache.profile_hits"),
        "cache.lookup_s": seconds("cache.lookup"),
        "outcomes.classified": calls("outcomes.classify"),
        "outcomes.classify_s": seconds("outcomes.classify"),
        "store.saves": calls("store.save"),
        "store.save_s": seconds("store.save"),
        "store.results_csv_s": seconds("store.results_csv"),
        "engine.retries": c("engine.retries"),
        "engine.quarantined": c("engine.quarantined"),
        "gpusim.instructions_retired": c("gpusim.instructions_retired"),
        "gpusim.cycles": c("gpusim.cycles"),
    }


def _phase_seconds(trace: LayerTrace, outer: str, inner: tuple[str, ...]) -> float:
    """Time in ``outer`` spans minus the ``inner`` phase spans they contain.

    The plan phases nest (``select_sites`` profiles on demand, and
    profiling runs the golden run first), so each phase's time is its
    span minus the earlier phases it triggered.
    """
    outer_s = trace.stats[outer][1] if outer in trace.stats else 0.0
    if not inner:
        return outer_s
    by_id = {span[0]: span for span in trace.spans}
    total = 0.0
    for span_id, name, start, end, parent in trace.spans:
        if name not in inner:
            continue
        ancestor = by_id.get(parent)
        while ancestor is not None and ancestor[1] not in inner:
            if ancestor[1] == outer:
                total += end - start
                break
            ancestor = by_id.get(ancestor[4])
    return outer_s - total


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def patch_points() -> list[tuple[object, str]]:
    """Every ``(owner, attribute)`` that :meth:`LayerTrace.install` replaces."""
    from repro.gpusim.device import Device
    from repro.nvbit.instr import Instr

    points = [(owner, attr) for owner, attr, _ in _targets()]
    return points + [(Device, "launch"), (Instr, "insert_call")]
