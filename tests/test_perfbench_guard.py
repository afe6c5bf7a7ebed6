"""The names the campaign benchmark uses still exist.

``perfbench/layers.py`` wraps entry points of the package where their
callers look them up, and ``perfbench/campaign.py`` builds each
workload's engine through the public API.  Both are loaded here the way
``perfbench/run.py`` loads them (the ``perfbench`` directory first on
``sys.path``, bare module names), so a change that drops one of those
names fails tier-1 instead of only the slow benchmark self-tests.  No
campaign runs.
"""

from __future__ import annotations

import importlib
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.core.batch_injector import BatchExecutor
from repro.core.engine import ParallelExecutor, SerialExecutor
from repro.obs import MetricsRegistry

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BARE_NAMES = ("workloads", "layers", "campaign")
EXECUTORS = {
    "serial": SerialExecutor,
    "batch": BatchExecutor,
    "pool": ParallelExecutor,
}


@contextmanager
def _loaded():
    """The benchmark's modules, with ``sys.path`` and ``sys.modules``
    put back as they were afterwards."""
    saved_path = list(sys.path)
    saved_modules = {name: sys.modules.pop(name, None) for name in BARE_NAMES}
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield {name: importlib.import_module(name) for name in BARE_NAMES}
    finally:
        sys.path[:] = saved_path
        for name, module in saved_modules.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


@pytest.fixture
def perfbench():
    with _loaded() as modules:
        yield modules


def test_every_patch_point_resolves(perfbench):
    points = perfbench["layers"].patch_points()
    assert points
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr in points
        if attr not in vars(owner)
    ]
    assert missing == []


def test_every_workload_builds_its_engine(perfbench, tmp_path):
    build_engine = perfbench["campaign"].build_engine
    workloads = perfbench["workloads"].WORKLOADS
    assert workloads
    for name, workload in workloads.items():
        for program in workload.programs:
            engine = build_engine(
                workload, program, 0, tmp_path / name / program,
                tmp_path / "cache", MetricsRegistry(),
            )
            assert engine.app.name == program
            assert type(engine.executor) is EXECUTORS[workload.executor], name


def test_loading_leaves_sys_path_and_modules_as_found():
    path = list(sys.path)
    modules = {name: sys.modules.get(name) for name in BARE_NAMES}
    with _loaded() as loaded:
        assert Path(loaded["campaign"].__file__).parent == PERFBENCH
    assert sys.path == path
    assert {name: sys.modules.get(name) for name in BARE_NAMES} == modules
