"""The campaign benchmark: times fault-injection campaigns end to end.

    python3 perfbench/run.py --workload bt-serial --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  Each timed campaign runs in a fresh
process (``campaign.py``) with the ``REPRO_*`` environment cleared and the
cache home pointed at a scratch directory under ``.bench_build/``.  The
run repeats campaigns, cycling through the campaign seeds ``--seed``
derives (see ``Workload.campaign_seed``), until ``--seconds`` is used up
(at least one), checks every campaign's output against the reference,
and prints one JSON object as the last line of standard output:

* ``--trace 0``: the end-to-end metrics of BENCHMARK.json, each the
  median over the run's campaigns;
* ``--trace 1``: the per-layer metrics, from campaigns run under the
  wrappers of ``layers.py``, alternating with untraced ones so the
  tracing overhead is measured in the same run.

A human-readable summary, the machine shape and ``failed_frac`` go to
standard error; a JSON record of every campaign goes under
``.bench_build/perfbench/results/``.  ``--faults N`` shrinks the
transient workloads and ``--programs`` the permanent suite for smoke
runs; those sizes are checked for consistency only (no checked-in
reference).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS, Workload  # noqa: E402

# Setup-time samples per run: campaigns that fit in --seconds count, and
# plan-only campaigns make up the rest (set-up is sub-second on bt-*).
SETUP_SAMPLES = 5
# Traced runs: the layer self times plus engine.self_s must add up to the
# traced campaign_s within this share of it.
ACCOUNTING_TOLERANCE = 0.01
# Every run must end within 180 s; a child that would overrun is killed.
RUN_DEADLINE_S = 170.0
MIN_CPUS = 2


class BenchError(Exception):
    """The benchmark could not run (not a failed injection)."""


def machine_shape(root: Path) -> dict:
    import numpy

    cpus = len(os.sched_getaffinity(0))
    return {
        "usable_cpus": cpus,
        "under_provisioned": cpus < MIN_CPUS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(root),
        "src_sha256": _tree_hash(root / "src"),
    }


def _commit(root: Path) -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _tree_hash(root: Path) -> str:
    """Content hash of a source tree: identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def child_env(home: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(HOME=str(home), TMPDIR=str(home), XDG_CACHE_HOME=str(home))
    return env


class Bench:
    """One benchmark run of one workload and seed."""

    def __init__(self, root: Path, workload: Workload, seed: int,
                 faults: int | None = None,
                 programs: tuple[str, ...] | None = None) -> None:
        self.root = root
        self.seed = seed
        sized = faults is not None or programs is not None
        if faults is not None:
            workload = dataclasses.replace(workload, faults=faults)
        if programs is not None:
            workload = dataclasses.replace(workload, programs=programs)
        self.workload = workload
        # Smoke sizes get their own reference namespace (never checked in).
        self.reference_key = workload.reference + (
            f"-f{workload.faults}-" + "+".join(workload.programs) if sized else ""
        )
        self.work = root / ".bench_build" / "perfbench"
        # Recorded outputs are only valid for the code that produced them.
        code = _tree_hash(root / "src") + _tree_hash(HERE)
        self.refs = self.work / "refs" / hashlib.sha256(code.encode()).hexdigest()[:16]
        self.run_dir = self.work / f"run-{os.getpid()}"
        self.started = time.monotonic()
        self._children = 0
        self._caches: dict[int, Path] = {}

    # -- child processes --------------------------------------------------------

    def child(self, program: str, seed: int, workload: Workload | None = None,
              setup_only: bool = False, traced: bool = False) -> dict:
        workload = workload or self.workload
        self._children += 1
        tag = f"c{self._children:04d}"
        store = self.run_dir / tag
        out = self.run_dir / f"{tag}.json"
        cmd = [
            sys.executable, str(HERE / "campaign.py"),
            "--workload", workload.name, "--program", program,
            "--seed", str(seed), "--store", str(store), "--out", str(out),
        ]
        if workload.kind == "transient":
            cmd += ["--faults", str(workload.faults)]
        if workload.warm_cache:
            cmd += ["--cache", str(self._cache(seed))]
        if setup_only:
            cmd.append("--setup-only")
        if traced:
            cmd.append("--traced")
        timeout = RUN_DEADLINE_S - (time.monotonic() - self.started)
        if timeout <= 0:
            raise BenchError("out of time before a campaign could start")
        proc = subprocess.Popen(
            cmd, cwd=self.root, env=child_env(self.run_dir / "home"),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            _, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{tag} ({program}) exceeded the run deadline")
        if proc.returncode != 0:
            raise BenchError(
                f"{tag} ({program}) exited {proc.returncode}:\n"
                + stderr.decode(errors="replace")[-4000:]
            )
        record = json.loads(out.read_text())
        spans = out.with_suffix(".spans.json")
        if spans.exists():
            traces = self.work / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            name = f"{self.workload.name}-seed{seed}-{program}-{tag}.json"
            os.replace(spans, traces / name)
        shutil.rmtree(store, ignore_errors=True)
        return record

    def _cache(self, seed: int) -> Path:
        """The replay cache of one campaign seed, warmed on first use.

        The repeat-campaign case: an untimed plan-only pass fills a cache
        private to this run before the seed's first timed campaign.
        """
        cache = self._caches.get(seed)
        if cache is None:
            cache = self._caches[seed] = self.run_dir / f"replay-cache-{seed}"
            for program in self.workload.programs:
                self.child(program, seed, setup_only=True)
        return cache

    def sample(self, seed: int, traced: bool = False,
               workload: Workload | None = None) -> dict:
        """One timed campaign of every program in the workload, summed."""
        workload = workload or self.workload
        parts = [
            self.child(program, seed, workload, traced=traced)
            for program in workload.programs
        ]
        sample = {
            "traced": traced,
            "seed": seed,
            "campaign_s": sum(p["campaign_s"] for p in parts),
            "setup_s": sum(p["setup_s"] for p in parts),
            "injections": sum(p["injections"] for p in parts),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
            "retried_or_quarantined": sum(
                p["retried_or_quarantined"] for p in parts
            ),
            "output": {p["program"]: p["output"] for p in parts},
            "injections_by_program": {
                p["program"]: p["injections"] for p in parts
            },
        }
        sample["injections_per_s"] = sample["injections"] / (
            sample["campaign_s"] - sample["setup_s"]
        )
        if traced:
            from layers import merge

            sample["trace"] = merge([p["trace"] for p in parts])
        return sample

    def setup_sample(self, seed: int) -> float:
        return sum(
            self.child(program, seed, setup_only=True)["setup_s"]
            for program in self.workload.programs
        )

    # -- references -------------------------------------------------------------

    def reference(self, seed: int) -> dict | None:
        """The expected outputs of campaign seed ``seed``, or ``None`` if the
        first campaign of this run sets them.

        ``reference.json`` holds the serial campaign's outputs for the
        campaign seeds of run seeds 0-31.  For any other seed the serial
        campaign is still the reference: bt-serial and perm-suite record
        their first campaign's outputs, and the other bt-* workloads run an
        untimed bt-serial campaign when none are recorded yet.
        """
        checked_in = json.loads((HERE / "reference.json").read_text())
        ref = checked_in.get(self.reference_key, {}).get(str(seed))
        if ref is not None:
            return ref
        path = self._reference_path(seed)
        if path.exists():
            return json.loads(path.read_text())
        if self.workload.executor == "serial":
            return None
        serial = dataclasses.replace(
            WORKLOADS["bt-serial"], faults=self.workload.faults,
            programs=self.workload.programs,
        )
        ref = self.sample(seed, workload=serial)["output"]
        self.save_reference(seed, ref)
        return ref

    def _reference_path(self, seed: int) -> Path:
        return self.refs / f"{self.reference_key}-seed{seed}.json"

    def save_reference(self, seed: int, output: dict) -> None:
        path = self._reference_path(seed)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(output, sort_keys=True))
        os.replace(tmp, path)

    # -- the run ----------------------------------------------------------------

    def run(self, seconds: float, trace: bool) -> dict:
        self.run_dir.mkdir(parents=True, exist_ok=True)
        try:
            return self._run(seconds, trace)
        finally:
            shutil.rmtree(self.run_dir, ignore_errors=True)

    def _run(self, seconds: float, trace: bool) -> dict:
        samples: list[dict] = []
        measured = 0.0  # seconds in timed campaigns (not reference runs)
        for index in itertools.count():
            seed = self.workload.campaign_seed(self.seed, index)
            if self.workload.warm_cache:
                self._cache(seed)  # fill before the clock starts
            before = time.monotonic()
            batch = [self.sample(seed)]
            if trace:
                batch.append(self.sample(seed, traced=True))
            last = time.monotonic() - before
            measured += last
            for s in batch:
                reference = self.reference(s["seed"])
                if reference is None:
                    reference = s["output"]
                    self.save_reference(s["seed"], reference)
                s["failed"] = check_outputs(s, reference)
            samples += batch
            if measured + last > seconds:
                break
        setup = [s["setup_s"] for s in samples if not s["traced"]]
        while not trace and len(setup) < SETUP_SAMPLES:
            setup.append(self.setup_sample(
                self.workload.campaign_seed(self.seed, len(setup))
            ))
        return {"samples": samples, "setup_s": setup}


def check_outputs(sample: dict, reference: dict) -> int:
    """Injections of ``sample`` that count as failed.

    Retried and quarantined injections fail; so does every injection of a
    program whose outputs differ from the reference (results.csv sha256
    and simulated counters for transient campaigns, per-run rows and
    counters for permanent ones).
    """
    failed = sample["retried_or_quarantined"]
    for program, injections in sample["injections_by_program"].items():
        if sample["output"].get(program) != reference.get(program):
            failed += injections
    return min(failed, sample["injections"])


def end_to_end(result: dict) -> dict:
    timed = [s for s in result["samples"] if not s["traced"]]
    return {
        "campaign_s": statistics.median(s["campaign_s"] for s in timed),
        "setup_s": statistics.median(result["setup_s"]),
        "injections_per_s": statistics.median(
            s["injections_per_s"] for s in timed
        ),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in timed),
    }


def per_layer(result: dict) -> tuple[dict, list[dict]]:
    """Median per-layer metrics over the traced samples, the tracing
    overhead, and each traced sample's time accounting."""
    from layers import accounting, layer_metrics

    traced = [s for s in result["samples"] if s["traced"]]
    plain = [s for s in result["samples"] if not s["traced"]]
    per_sample = [layer_metrics(s["trace"]) for s in traced]
    metrics = {
        name: statistics.median(m[name] for m in per_sample)
        for name in per_sample[0]
    }
    metrics["obs.trace_overhead"] = (
        statistics.median(s["campaign_s"] for s in traced)
        / statistics.median(s["campaign_s"] for s in plain)
        - 1.0
    )
    checks = [accounting(s["trace"], s["campaign_s"]) for s in traced]
    return metrics, checks


def declared_metrics(root: Path, trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def declared_seconds(root: Path) -> float:
    """The run length BENCHMARK.json gates (``run_seconds``)."""
    return float(json.loads((root / "BENCHMARK.json").read_text())["run_seconds"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="run length (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--faults", type=int, help="smoke size (transient)")
    parser.add_argument("--programs", help="smoke size (permanent), comma-separated")
    parser.add_argument("--record", type=Path,
                        help="also write the run's JSON record to this file")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro source tree under {root / 'src'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = declared_seconds(root)
    shape = machine_shape(root)
    print(f"machine: {json.dumps(shape)}", file=sys.stderr)
    if shape["under_provisioned"]:
        print(f"warning: {shape['usable_cpus']} usable CPU(s); bt-batch-warm "
              f"and bt-pool assume {MIN_CPUS}", file=sys.stderr)

    programs = tuple(args.programs.split(",")) if args.programs else None
    bench = Bench(root, WORKLOADS[args.workload], args.seed,
                  faults=args.faults, programs=programs)
    try:
        result = bench.run(args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    samples = result["samples"]
    attempted = sum(s["injections"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    correct = failed == 0
    if args.trace:
        values, checks = per_layer(result)
        for check in checks:
            share = abs(check["error_s"]) / check["campaign_s"]
            if share > ACCOUNTING_TOLERANCE:
                correct = False
                print(f"error: layer self times sum to {check['sum_s']:.4f}s, "
                      f"traced campaign_s is {check['campaign_s']:.4f}s "
                      f"({share:.2%} > {ACCOUNTING_TOLERANCE:.0%})",
                      file=sys.stderr)
    else:
        values, checks = end_to_end(result), []
    units = declared_metrics(root, bool(args.trace))
    if set(values) != set(units):
        print(f"error: measured metrics {sorted(set(values) ^ set(units))} "
              "do not match BENCHMARK.json", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": shape, "correct": correct,
        "metrics": values, "failed_frac": failed / attempted,
        "accounting": checks,
        "samples": [
            {k: v for k, v in s.items() if k not in ("trace", "output")}
            for s in samples
        ],
        "setup_samples": result["setup_s"],
    }
    results_dir = bench.work / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    text = json.dumps(record, indent=1)
    (results_dir / f"{args.workload}-seed{args.seed}-t{args.trace}-{stamp}.json"
     ).write_text(text)
    if args.record is not None:
        args.record.write_text(text)

    timed = sum(1 for s in samples if not s["traced"])
    print(f"{args.workload} seed={args.seed}: {timed} timed campaign(s), "
          f"{len(samples) - timed} traced, {len(result['setup_s'])} setup "
          f"sample(s); failed_frac={failed / attempted:.4f} "
          f"({failed}/{attempted})", file=sys.stderr)
    for name, value in values.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}", file=sys.stderr)
    for check in checks:
        print(f"  accounting: layers + engine.self_s = {check['sum_s']:.4f}s, "
              f"campaign_s = {check['campaign_s']:.4f}s", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
