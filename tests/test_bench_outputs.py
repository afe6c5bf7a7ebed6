"""Benchmark outputs: a smoke run never replaces a recorded result.

The trajectory files (repo-root ``BENCH_*.json``) and the rendered tables
(``benchmarks/results/*.txt``) are checked in from full-size runs.  Every
benchmark writes them through :func:`benchmarks.harness.write_output`,
which sends a ``REPRO_QUICK=1`` write under ``.bench_build/quick/``.
"""

from __future__ import annotations

import pytest

from benchmarks import harness


@pytest.fixture
def quick(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_QUICK", "1")
    monkeypatch.setattr(harness, "QUICK_DIR", tmp_path / "quick")
    return tmp_path / "quick"


@pytest.mark.parametrize(
    "recorded",
    ["BENCH_campaign.json", "BENCH_gpusim.json", "BENCH_adaptive.json",
     "benchmarks/results/campaign_wall_clock.txt"],
)
def test_quick_write_leaves_the_checked_in_file_alone(quick, recorded):
    path = harness.ROOT / recorded
    before = path.read_bytes()
    written = harness.write_output(path, '{"quick": true}\n')
    assert path.read_bytes() == before
    assert written == quick / recorded
    assert written.read_text() == '{"quick": true}\n'


def test_quick_emit_goes_under_the_quick_dir(quick, capsys):
    path = harness.RESULTS_DIR / "fig4_overheads.txt"
    before = path.read_bytes()
    harness.emit("fig4_overheads", "a quick table")
    assert path.read_bytes() == before
    assert (quick / "benchmarks/results/fig4_overheads.txt").read_text() == (
        "a quick table\n"
    )
    assert "a quick table" in capsys.readouterr().out


def test_full_size_write_goes_to_the_recorded_path(monkeypatch):
    monkeypatch.delenv("REPRO_QUICK", raising=False)
    path = harness.ROOT / "BENCH_campaign.json"
    assert harness.output_path(path) == path
