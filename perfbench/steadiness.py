"""Steadiness record: every workload, once per seed, in two sets of runs.

    python3 perfbench/steadiness.py [--seeds 1-10] [--sets 2] [--out FILE]

Run from the root of a checkout, with nothing else running on the box.
Every run is ``run.py --trace 0`` at BENCHMARK.json's ``run_seconds``, the
length the bounds gate.  Seeds run in the outer loop and workloads in the
inner one, so drift in the box's speed reaches every workload alike; the
whole seed range then runs again for the next set.

For each set, workload and end-to-end metric the record holds the values,
their median and quartiles (``statistics.quantiles(values, n=4)``) and the
spread: the distance between the quartiles as a share of the median.
For each later set it holds how far its median moved from the first set's
in the metric's worse direction, as a share of the first.  BENCHMARK.json's
bounds come from these spreads and moves: each is checked against the
bound, and a spread above a third of it is flagged.  Last, one
``--trace 1`` run per workload records the per-layer metrics and the time
accounting of its traced campaigns.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import DEFAULT_SEED, machine_shape  # noqa: E402

RUN_TIMEOUT_S = 180


def seeds(spec: str) -> list[int]:
    first, _, last = spec.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {
        "values": values, "median": median, "q1": q1, "q3": q3,
        "spread": spread, "bound": bound,
        "spread_within_bound": spread <= bound,
        "spread_within_third": spread <= bound / 3,
    }


def bench(workload: str, seed: int, seconds: int, trace: int,
          record: Path | None = None) -> tuple[dict | None, float, str]:
    """One ``run.py`` run: its result line (or ``None``), wall time, stderr."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if record is not None:
        cmd += ["--record", str(record)]
    started = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    wall = time.monotonic() - started
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    return result, wall, done.stderr


def moved(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--traced-seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", type=Path, default=HERE / "steadiness.json")
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    record = {
        "machine": machine_shape(root),
        "seeds": args.seeds,
        "seconds": seconds,
        "failures": [],
        "wall_s": {w: [] for w in workloads},
        "sets": [],
        "median_moves": [],
        "traced": {},
    }

    def save() -> None:
        args.out.write_text(json.dumps(record, indent=1) + "\n")

    for _ in range(args.sets):
        values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
        for seed in seeds(args.seeds):
            for workload in workloads:
                result, wall, stderr = bench(workload, seed, seconds, 0)
                record["wall_s"][workload].append(wall)
                if result is None or not result["correct"]:
                    record["failures"].append(
                        {"workload": workload, "seed": seed,
                         "stderr": stderr[-2000:]}
                    )
                    save()
                    continue
                for name, metric in result["metrics"].items():
                    values[workload].setdefault(name, []).append(metric["value"])
                print(f"{workload} seed={seed} wall={wall:.1f}s " + " ".join(
                    f"{n}={m['value']:.4g}"
                    for n, m in result["metrics"].items()
                ), file=sys.stderr)
        record["sets"].append({
            w: {name: summarize(v, metrics[name]["bound"])
                for name, v in by_metric.items()}
            for w, by_metric in values.items()
        })
        save()

    first = record["sets"][0]
    for later in record["sets"][1:]:
        record["median_moves"].append({
            w: {
                name: {
                    "worse_by": (share := moved(
                        first[w][name]["median"], s["median"],
                        metrics[name]["better"],
                    )),
                    "within_bound": share <= metrics[name]["bound"],
                }
                for name, s in by_metric.items() if name in first[w]
            }
            for w, by_metric in later.items()
        })
    save()

    traced_dir = root / ".bench_build" / "perfbench"
    traced_dir.mkdir(parents=True, exist_ok=True)
    for workload in workloads:
        path = traced_dir / f"steadiness-traced-{workload}.json"
        result, wall, stderr = bench(workload, args.traced_seed, seconds, 1,
                                     record=path)
        if result is None:
            record["failures"].append({"workload": workload, "traced": True,
                                       "stderr": stderr[-2000:]})
            continue
        run = json.loads(path.read_text())
        record["traced"][workload] = {
            "seed": args.traced_seed, "wall_s": wall,
            "correct": result["correct"],
            "failed_frac": run["failed_frac"],
            "accounting": [
                {k: c[k] for k in ("campaign_s", "engine.self_s", "sum_s",
                                   "error_s")}
                for c in run["accounting"]
            ],
            "metrics": run["metrics"],
        }
        save()

    for index, by_workload in enumerate(record["sets"]):
        for w, by_metric in by_workload.items():
            for name, s in by_metric.items():
                flag = "" if s["spread_within_third"] else (
                    "  > bound/3" if s["spread_within_bound"] else "  > bound"
                )
                print(f"set {index + 1} {w:14s} {name:18s} "
                      f"median={s['median']:10.4f} spread={s['spread']:.3f}"
                      f"{flag}", file=sys.stderr)
    for moves in record["median_moves"]:
        for w, by_metric in moves.items():
            for name, m in by_metric.items():
                print(f"moved {w:14s} {name:18s} worse_by={m['worse_by']:+.3f}"
                      + ("" if m["within_bound"] else "  > bound"),
                      file=sys.stderr)
    return 1 if record["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
