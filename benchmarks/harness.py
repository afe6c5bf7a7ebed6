"""Shared infrastructure for the paper-reproduction benchmarks.

Environment knobs:

* ``REPRO_INJECTIONS`` — transient injections per program (default 30; the
  paper used 100, which the harness fully supports — see EXPERIMENTS.md for
  the confidence-interval implications of the default).
* ``REPRO_QUICK=1``   — restrict to four representative programs with 6
  injections each (smoke mode).
* ``REPRO_SEED``      — campaign seed (default 2021, the paper's year).

Every benchmark writes its rendered table/figure to
``benchmarks/results/<name>.txt`` in addition to printing it, and the
trajectory benchmarks write their repo-root ``BENCH_*.json``.  Every such
write goes through :func:`write_output`: in quick mode it lands at the
same relative path under ``.bench_build/quick/`` (ignored by git), so a
smoke run never replaces a recorded full-size result.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.core.campaign import Campaign, CampaignConfig
from repro.core.profiler import ProfilingMode
from repro.workloads import WORKLOAD_CLASSES, get_workload

ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = ROOT / "benchmarks" / "results"
QUICK_DIR = ROOT / ".bench_build" / "quick"

_QUICK_SUBSET = ("303.ostencil", "314.omriq", "352.ep", "360.ilbdc")


def quick_mode() -> bool:
    return os.environ.get("REPRO_QUICK", "") == "1"


def num_injections() -> int:
    if quick_mode():
        return 6
    return int(os.environ.get("REPRO_INJECTIONS", "30"))


def campaign_seed() -> int:
    return int(os.environ.get("REPRO_SEED", "2021"))


def workload_names() -> list[str]:
    if quick_mode():
        return list(_QUICK_SUBSET)
    return [cls.name for cls in WORKLOAD_CLASSES]


def make_campaign(name: str, profiling: ProfilingMode = ProfilingMode.EXACT,
                  injections: int | None = None) -> Campaign:
    config = CampaignConfig(
        num_transient=injections if injections is not None else num_injections(),
        seed=campaign_seed(),
        profiling=profiling,
    )
    return Campaign(get_workload(name), config)


def output_path(path: Path) -> Path:
    """Where a benchmark output recorded at ``path`` is written: ``path``
    itself, or in quick mode its twin under :data:`QUICK_DIR`."""
    if not quick_mode():
        return path
    return QUICK_DIR / Path(path).resolve().relative_to(ROOT)


def write_output(path: Path, text: str) -> Path:
    """Write a benchmark output (see :func:`output_path`); return where."""
    target = output_path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text)
    return target


def emit(name: str, text: str) -> None:
    """Print a rendered table/figure and persist it under results/."""
    write_output(RESULTS_DIR / f"{name}.txt", text + "\n")
    print()
    print(text)
