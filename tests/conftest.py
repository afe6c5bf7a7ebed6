"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import faulthandler
import os
import sys

import numpy as np
import pytest

from repro.gpusim import Device
from repro.sass import assemble

# Wall-clock limit of one test, setup and teardown included.  The slowest
# tier-1 test takes under 10 s on a 2-CPU box.
HANG_LIMIT_S = 300

# The terminal's stderr, duplicated while output capture is suspended, so
# a hang's stack dump is not lost in a capture file.
_stderr_fd: int | None = None


def pytest_configure(config) -> None:
    global _stderr_fd
    _stderr_fd = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config) -> None:
    if _stderr_fd is not None:
        os.close(_stderr_fd)


@pytest.fixture(autouse=True)
def _hang_guard():
    """End the run if one test hangs, with every thread's stack on stderr.

    pytest's own ``faulthandler_timeout`` dumps the stacks but keeps
    hanging; here the process exits, so a CI job fails at once instead of
    at its time cap.
    """
    faulthandler.dump_traceback_later(
        HANG_LIMIT_S, exit=True,
        file=sys.stderr if _stderr_fd is None else _stderr_fd,
    )
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def device() -> Device:
    """A small simulated GPU suitable for unit tests."""
    return Device(num_sms=4, global_mem_bytes=4 * 1024 * 1024)


def run_kernel(
    device: Device,
    text: str,
    kernel_name: str,
    grid,
    block,
    params: list[int],
    hooks=None,
):
    """Assemble and launch one kernel on ``device``."""
    kernel = assemble(text).get(kernel_name)
    device.launch(kernel, grid, block, params, hooks=hooks)
    return kernel


def read_f32(device: Device, address: int, count: int) -> np.ndarray:
    return np.frombuffer(
        device.global_mem.read_bytes(address, 4 * count), dtype=np.float32
    )


def read_u32(device: Device, address: int, count: int) -> np.ndarray:
    return np.frombuffer(
        device.global_mem.read_bytes(address, 4 * count), dtype=np.uint32
    )


def write_f32(device: Device, address: int, values: np.ndarray) -> None:
    device.global_mem.write_bytes(address, values.astype(np.float32).tobytes())


def write_u32(device: Device, address: int, values: np.ndarray) -> None:
    device.global_mem.write_bytes(address, values.astype(np.uint32).tobytes())
