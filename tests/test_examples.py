"""Every example under ``examples/`` runs to completion.

Each runs in a fresh interpreter, as a reader would run it, from a
temporary directory with ``TMPDIR`` pointed there too, so what an
example writes stays out of the checkout.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.slow
@pytest.mark.parametrize("example", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(example, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(example)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=240,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
