"""The per-test hang guard of ``tests/conftest.py``."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

_HANGING_TEST = """
import threading
import time

import tests.conftest


tests.conftest.HANG_LIMIT_S = 1


def test_hangs():
    threading.Thread(target=time.sleep, args=(60,), daemon=True).start()
    time.sleep(60)
"""


def test_hung_test_dumps_every_thread_and_ends_the_run(tmp_path):
    (tmp_path / "test_hung.py").write_text(_HANGING_TEST)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), str(REPO), env.get("PYTHONPATH", "")]
    )
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-p", "tests.conftest", str(tmp_path / "test_hung.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=50,
    )
    assert done.returncode != 0
    assert "Timeout (0:00:01)!" in done.stderr
    assert done.stderr.count("Thread 0x") >= 2
    assert "in test_hangs" in done.stderr
