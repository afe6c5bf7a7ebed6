"""Golden-replay unit tests: recording, on-disk round-trip, cursor states.

Campaign-level parity (serial/parallel/resumed ``results.csv`` bytes) lives
in ``tests/core/test_fast_forward.py``; this file exercises the subsystem
directly: delta capture under realloc/free, the binary format, and the
cursor's transitions between its golden, diverged and off states.
"""

import numpy as np
import pytest

from repro.core.bitflip import BitFlipModel
from repro.core.groups import InstructionGroup
from repro.core.injector import TransientInjectorTool
from repro.core.params import TransientParams
from repro.errors import ReproError
from repro.gpusim import replay
from repro.gpusim.device import Device
from repro.gpusim.replay import (
    ReplayCursor,
    ReplayRecorder,
    ReplayRef,
    load_replay_log,
    save_replay_log,
)
from repro.mem.memory import PAGE_SIZE
from repro.runner.app import AppContext, Application
from repro.runner.sandbox import SandboxConfig, run_app

_MODULE = """
.kernel fill
.params 2
    S2R R1, SR_TID.X ;
    MOV R2, c[0x0][0x0] ;
    MOV R3, c[0x0][0x4] ;
    SHL R4, R1, 2 ;
    IADD R4, R4, R2 ;
    IADD R5, R1, R3 ;
    STG [R4], R5 ;
    EXIT ;

.kernel bump
.params 1
    S2R R1, SR_TID.X ;
    MOV R2, c[0x0][0x0] ;
    SHL R4, R1, 2 ;
    IADD R4, R4, R2 ;
    LDG R5, [R4] ;
    IADD R5, R5, 1 ;
    STG [R4], R5 ;
    EXIT ;
"""


class ReallocApp(Application):
    """Launches across an alloc → free → realloc sequence.

    The second allocation reuses (part of) the freed address range, so a
    replay that mishandled allocator churn would restore stale bytes.
    """

    name = "replay_realloc_app"

    def run(self, ctx: AppContext) -> None:
        cuda = ctx.cuda
        module = cuda.load_module(_MODULE)
        fill = cuda.get_function(module, "fill")
        bump = cuda.get_function(module, "bump")

        first = cuda.alloc(64, dtype=np.int32)
        cuda.launch(fill, 2, 32, first.address, 100)
        cuda.launch(bump, 2, 32, first.address)
        first.free()

        second = cuda.alloc(96, dtype=np.int32)
        cuda.launch(fill, 3, 32, second.address, 500)
        cuda.launch(bump, 3, 32, second.address)
        result = second.to_host()
        ctx.print("sum", int(result.sum()))
        second.free()


def _record(app, config=None) -> tuple:
    recorder = ReplayRecorder()
    artifacts = run_app(app, config=config, recorder=recorder)
    log = recorder.log()
    assert log is not None
    return artifacts, log


class TestRecording:
    def test_one_delta_per_launch(self):
        _, log = _record(ReallocApp())
        assert [(rec.kernel_name, rec.instance) for rec in log.launches] == [
            ("fill", 0), ("bump", 0), ("fill", 1), ("bump", 1),
        ]
        assert all(rec.pages.size > 0 for rec in log.launches)

    def test_counter_deltas_sum_to_run_totals(self):
        artifacts, log = _record(ReallocApp())
        assert (
            sum(rec.instructions for rec in log.launches)
            == artifacts.instructions_executed
        )
        assert sum(rec.warps for rec in log.launches) == artifacts.warps_launched

    def test_faulted_launch_aborts_recording(self):
        class Crashing(Application):
            name = "replay_crash_app"

            def run(self, ctx: AppContext) -> None:
                module = ctx.cuda.load_module(_MODULE)
                bump = ctx.cuda.get_function(module, "bump")
                ctx.cuda.launch(bump, 1, 32, 0)  # unmapped address

        recorder = ReplayRecorder()
        artifacts = run_app(Crashing(), recorder=recorder)
        # The driver absorbs the device fault into a sticky CUDA error; the
        # recording must still be discarded (partial writes happened).
        assert artifacts.cuda_errors
        assert recorder.log() is None

    def test_stop_launch_lookup(self):
        _, log = _record(ReallocApp())
        assert log.stop_launch_for("fill", 0) == 0
        assert log.stop_launch_for("bump", 1) == 3
        assert log.stop_launch_for("fill", 7) is None
        assert log.stop_launch_for("nope", 0) is None


class TestRoundTrip:
    def test_save_load_round_trip(self, tmp_path):
        _, log = _record(ReallocApp())
        path = tmp_path / "replay.bin"
        save_replay_log(log, path)
        loaded = load_replay_log(path)
        assert loaded.mem_size == log.mem_size
        assert len(loaded.launches) == len(log.launches)
        for original, thawed in zip(log.launches, loaded.launches):
            assert thawed.kernel_name == original.kernel_name
            assert thawed.instance == original.instance
            assert thawed.grid == original.grid
            assert thawed.block == original.block
            assert thawed.args == original.args
            assert thawed.instructions == original.instructions
            assert thawed.cycles == original.cycles
            assert np.array_equal(thawed.pages, original.pages)
            assert np.array_equal(thawed.data, original.data)

    def test_load_is_cached_per_process(self, tmp_path):
        _, log = _record(ReallocApp())
        path = tmp_path / "replay.bin"
        save_replay_log(log, path)
        assert load_replay_log(path) is load_replay_log(path)

    def test_overwritten_log_reloaded(self, tmp_path):
        _, log = _record(ReallocApp())
        path = tmp_path / "replay.bin"
        save_replay_log(log, path)
        first = load_replay_log(path)
        import os

        save_replay_log(log, path)
        os.utime(path, ns=(1, 1))  # force a different mtime
        assert load_replay_log(path) is not first

    def test_rewrite_preserving_mtime_and_size_reloaded(self, tmp_path):
        """Regression: the per-process cache used to key on (path, mtime,
        size) alone, serving a stale log when replay.bin was rewritten
        with both preserved (same-length tape + ``os.utime`` restore).
        The header-embedded content digest in the key catches that."""
        import os

        _, log = _record(ReallocApp())
        path = tmp_path / "replay.bin"
        save_replay_log(log, path)
        first = load_replay_log(path)
        stat = os.stat(path)

        mutated = log.launches[0].data.copy()
        mutated[0] ^= 1
        log.launches[0].data = mutated
        save_replay_log(log, path)  # same length: sizes match
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        reloaded = load_replay_log(path)
        assert os.stat(path).st_mtime_ns == stat.st_mtime_ns
        assert os.stat(path).st_size == stat.st_size
        assert reloaded is not first
        assert reloaded.launches[0].data[0] == mutated[0]

    def test_tampered_blob_fails_content_validation(self, tmp_path):
        _, log = _record(ReallocApp())
        path = tmp_path / "replay.bin"
        save_replay_log(log, path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # flip a tape byte past the header
        path.write_bytes(bytes(blob))
        with pytest.raises(ReproError, match="content validation"):
            load_replay_log(path)

    def test_pre_digest_log_still_loads(self, tmp_path):
        """Logs written before the sha256 header field must stay loadable
        (they simply skip content validation)."""
        import json
        import struct

        from repro.gpusim.replay import _MAGIC

        _, log = _record(ReallocApp())
        path = tmp_path / "replay.bin"
        save_replay_log(log, path)
        raw = path.read_bytes()
        offset = len(_MAGIC)
        (header_len,) = struct.unpack_from("<I", raw, offset)
        header = json.loads(raw[offset + 4 : offset + 4 + header_len])
        del header["sha256"]
        stripped = json.dumps(header, separators=(",", ":")).encode()
        legacy = tmp_path / "legacy.bin"
        legacy.write_bytes(
            _MAGIC + struct.pack("<I", len(stripped)) + stripped
            + raw[offset + 4 + header_len:]
        )
        loaded = load_replay_log(legacy)
        assert loaded.content_hash is None
        assert len(loaded.launches) == len(log.launches)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "not_a_log.bin"
        path.write_bytes(b"garbage that is not a replay log")
        with pytest.raises(ReproError, match="bad magic"):
            load_replay_log(path)

    def test_unreadable_ref_degrades_to_none(self, tmp_path):
        ref = ReplayRef(path=str(tmp_path / "missing.bin"), stop_launch=2)
        assert ref.cursor() is None


class TestCursorReplay:
    def _replay_run(self, stop_launch: int, tmp_path):
        """One recorded golden + one fast-forwarded re-run of ReallocApp."""
        golden, log = _record(ReallocApp())
        path = tmp_path / "replay.bin"
        save_replay_log(log, path)
        cursor = ReplayRef(path=str(path), stop_launch=stop_launch).cursor()
        replayed = run_app(ReallocApp(), replay=cursor)
        return golden, replayed, cursor

    @pytest.mark.parametrize("stop_launch", [1, 2, 3, 4])
    def test_replayed_run_is_bit_identical(self, stop_launch, tmp_path):
        golden, replayed, cursor = self._replay_run(stop_launch, tmp_path)
        assert replayed.stdout == golden.stdout
        assert replayed.instructions_executed == golden.instructions_executed
        assert replayed.cycles == golden.cycles
        assert replayed.warps_launched == golden.warps_launched
        assert replayed.exit_status == 0 and not replayed.crashed
        assert cursor.skipped == stop_launch
        assert replayed.replay_launches_skipped == stop_launch

    def test_disarms_at_stop_launch(self, tmp_path):
        _, _, cursor = self._replay_run(2, tmp_path)
        assert cursor.state == "off"  # reached the target, simulated from there

    def test_instrumented_launch_never_replayed(self, tmp_path):
        """The divergence guard: any instrumented launch (the injection
        target and anything after it) must simulate, even inside the
        replay window."""
        _, log = _record(ReallocApp())
        path = tmp_path / "replay.bin"
        save_replay_log(log, path)
        cursor = ReplayRef(path=str(path), stop_launch=4).cursor()
        device = Device(global_mem_bytes=64 * 1024 * 1024)
        rec = cursor.consult(
            device,
            log.launches[0].kernel_name,
            log.launches[0].grid,
            log.launches[0].block,
            log.launches[0].args,
            log.launches[0].shared_bytes,
            instrumented=True,
        )
        assert rec is None and cursor.state == "off"

    def test_metadata_mismatch_disarms(self, tmp_path):
        _, log = _record(ReallocApp())
        path = tmp_path / "replay.bin"
        save_replay_log(log, path)
        cursor = ReplayRef(path=str(path), stop_launch=4).cursor()
        device = Device(global_mem_bytes=64 * 1024 * 1024)
        rec = cursor.consult(
            device,
            "some_other_kernel",
            log.launches[0].grid,
            log.launches[0].block,
            log.launches[0].args,
            log.launches[0].shared_bytes,
            instrumented=False,
        )
        assert rec is None and cursor.state == "off"

    def test_mem_size_mismatch_disarms(self, tmp_path):
        _, log = _record(ReallocApp())
        path = tmp_path / "replay.bin"
        save_replay_log(log, path)
        cursor = ReplayRef(path=str(path), stop_launch=4).cursor()
        small = Device(global_mem_bytes=1 << 20)
        first = log.launches[0]
        rec = cursor.consult(
            small, first.kernel_name, first.grid, first.block, first.args,
            first.shared_bytes, instrumented=False,
        )
        assert rec is None and cursor.state == "off"

    def test_stop_launch_clamped_to_log(self, tmp_path):
        _, log = _record(ReallocApp())
        path = tmp_path / "replay.bin"
        save_replay_log(log, path)
        cursor = ReplayRef(path=str(path), stop_launch=99).cursor()
        assert cursor.stop_launch == len(log.launches)


class TestDirtyPageTracking:
    def test_atomics_tracked(self):
        """Atomics mutate memory bypassing store32; the recorder must still
        see their pages (this bit 354.cg's reduction kernels)."""
        module = """
.kernel atomic_inc
.params 1
    MOV R2, c[0x0][0x0] ;
    MOV R3, 1 ;
    ATOM R4, [R2], R3 ;
    EXIT ;
"""

        class AtomicApp(Application):
            name = "replay_atomic_app"

            def run(self, ctx: AppContext) -> None:
                mod = ctx.cuda.load_module(module)
                func = ctx.cuda.get_function(mod, "atomic_inc")
                buf = ctx.cuda.alloc(4, dtype=np.int32)
                buf.from_host(np.zeros(4, dtype=np.int32))
                ctx.cuda.launch(func, 1, 32, buf.address)
                ctx.print("count", int(buf.to_host()[0]))

        _, log = _record(AtomicApp())
        assert log.launches[0].pages.size > 0

    def test_host_writes_outside_window_untracked(self):
        device = Device(global_mem_bytes=1 << 20)
        mem = device.global_mem
        address = mem.alloc(PAGE_SIZE)
        mem.write_bytes(address, b"x" * 16)  # no window open: untracked
        mem.begin_write_tracking()
        pages = mem.end_write_tracking()
        assert pages.size == 0


# -- tail fast-forward ----------------------------------------------------------


class TailApp(Application):
    """fill, bump (the injection target), fill-overwrite, bump, bump.

    The second ``fill`` rewrites the whole buffer, so any fault confined to
    it is architecturally dead by launch 3 — the canonical re-convergence
    shape the tail cursor must detect.
    """

    name = "replay_tail_app"

    def run(self, ctx: AppContext) -> None:
        cuda = ctx.cuda
        module = cuda.load_module(_MODULE)
        fill = cuda.get_function(module, "fill")
        bump = cuda.get_function(module, "bump")
        buf = cuda.alloc(64, dtype=np.int32)
        cuda.launch(fill, 2, 32, buf.address, 100)
        cuda.launch(bump, 2, 32, buf.address)
        self.mid(ctx, buf)
        cuda.launch(fill, 2, 32, buf.address, 500)
        cuda.launch(bump, 2, 32, buf.address)
        cuda.launch(bump, 2, 32, buf.address)
        ctx.print("sum", int(buf.to_host().sum()))
        buf.free()

    def mid(self, ctx: AppContext, buf) -> None:
        """Hook between the target launch and the overwrite (default: none)."""


class TailReadMidApp(TailApp):
    """Reads the (divergent) buffer between the target and the overwrite."""

    name = "replay_tail_readmid_app"

    def mid(self, ctx: AppContext, buf) -> None:
        ctx.print("mid", int(buf.to_host().sum()))


class TailDivergentApp(Application):
    """fill then three bumps: no overwrite, so an SDC never re-converges."""

    name = "replay_tail_divergent_app"

    def run(self, ctx: AppContext) -> None:
        cuda = ctx.cuda
        module = cuda.load_module(_MODULE)
        fill = cuda.get_function(module, "fill")
        bump = cuda.get_function(module, "bump")
        buf = cuda.alloc(64, dtype=np.int32)
        cuda.launch(fill, 2, 32, buf.address, 100)
        cuda.launch(bump, 2, 32, buf.address)
        cuda.launch(bump, 2, 32, buf.address)
        cuda.launch(bump, 2, 32, buf.address)
        ctx.print("sum", int(buf.to_host().sum()))
        buf.free()


class TailHtoDApp(Application):
    """fill, bump (target), host upload overwriting the buffer, bump, bump.

    Convergence here happens through ``cuMemcpyHtoD``: the upload is
    identical in the golden and injected runs, so the cursor must mirror it
    into the shadow — otherwise live memory and the shadow disagree forever
    and the tail never re-arms.
    """

    name = "replay_tail_htod_app"

    def run(self, ctx: AppContext) -> None:
        cuda = ctx.cuda
        module = cuda.load_module(_MODULE)
        fill = cuda.get_function(module, "fill")
        bump = cuda.get_function(module, "bump")
        buf = cuda.alloc(64, dtype=np.int32)
        cuda.launch(fill, 2, 32, buf.address, 100)
        cuda.launch(bump, 2, 32, buf.address)
        buf.from_host(np.arange(700, 764, dtype=np.int32))
        cuda.launch(bump, 2, 32, buf.address)
        cuda.launch(bump, 2, 32, buf.address)
        ctx.print("sum", int(buf.to_host().sum()))
        buf.free()


def _injector(**overrides) -> TransientInjectorTool:
    """A deterministic single-bit-flip injector into ``bump`` instance 0.

    ``bit_pattern_value=0.05`` flips a low thread-id bit in the S2R result:
    the thread reads/writes a neighbouring element — silent data corruption
    with no CUDA error, exactly the divergence shape the tail tracks.
    ``bit_pattern_value=0.2`` flips an address-forming bit instead and the
    launch dies with ``ERROR_ILLEGAL_ADDRESS``.
    """
    params = dict(
        group=InstructionGroup.G_GP,
        model=BitFlipModel.FLIP_SINGLE_BIT,
        kernel_name="bump",
        kernel_count=0,
        instruction_count=0,
        dest_reg_selector=0.0,
        bit_pattern_value=0.05,
    )
    params.update(overrides)
    return TransientInjectorTool(TransientParams(**params))


def _assert_run_parity(tailed, full) -> None:
    """The tail-replayed injection run is bit-identical to the full one."""
    assert tailed.stdout == full.stdout
    assert tailed.files == full.files
    assert tailed.exit_status == full.exit_status
    assert tailed.crashed == full.crashed
    assert tailed.cuda_errors == full.cuda_errors
    assert tailed.dmesg == full.dmesg
    assert tailed.instructions_executed == full.instructions_executed
    assert tailed.cycles == full.cycles
    assert tailed.warps_launched == full.warps_launched
    assert tailed.active_sms == full.active_sms


class TestTailFastForward:
    def _tail_run(self, app_cls, tmp_path, stop_launch=1, tail=True, **inj):
        """Golden-record ``app_cls``, then run the same injection twice:
        fully simulated, and with a tail cursor.  Returns both artifact
        sets plus the cursor for state assertions."""
        _, log = _record(app_cls())
        path = tmp_path / "replay.bin"
        save_replay_log(log, path)
        full = run_app(app_cls(), preload=[_injector(**inj)])
        cursor = ReplayRef(
            path=str(path), stop_launch=stop_launch, tail=tail
        ).cursor()
        tailed = run_app(app_cls(), preload=[_injector(**inj)], replay=cursor)
        return full, tailed, cursor, log

    def test_converged_fault_rearms_and_replays_tail(self, tmp_path):
        """The overwrite at launch 2 kills the fault: the cursor re-arms at
        the launch-3 boundary and replays the remaining two launches."""
        full, tailed, cursor, log = self._tail_run(TailApp, tmp_path)
        _assert_run_parity(tailed, full)
        assert not full.cuda_errors  # the fault really was silent
        assert cursor.skipped == 1  # pre-target: launch 0
        assert cursor.converged_at == 3
        assert cursor.tail_skipped == 2  # launches 3 and 4 off the tape
        assert tailed.replay_launches_skipped == 1
        assert tailed.replay_tail_skipped == 2
        assert tailed.replay_converged_at == 3

    def test_persistent_divergence_never_rearms(self, tmp_path):
        """No overwrite: the corrupted page differs from golden at every
        boundary, so everything after the target simulates."""
        full, tailed, cursor, log = self._tail_run(TailDivergentApp, tmp_path)
        _assert_run_parity(tailed, full)
        assert cursor.skipped == 1
        assert cursor.converged_at is None
        assert cursor.tail_skipped == 0
        # The final to_host of the corrupted buffer turned the cursor off
        # (the divergence became host-visible) — the conservative rule fired.
        assert cursor.state == "off"
        assert tailed.replay_converged_at == -1
        # The SDC is host-visible in both runs, identically.
        golden, _ = _record(TailDivergentApp())
        assert tailed.stdout != golden.stdout

    def test_host_read_of_divergent_page_disarms(self, tmp_path):
        """A DtoH overlapping the divergence set makes the fault
        host-visible: the tail must turn off even though the buffer is
        later overwritten."""
        full, tailed, cursor, _ = self._tail_run(TailReadMidApp, tmp_path)
        _assert_run_parity(tailed, full)
        assert cursor.tail_skipped == 0
        assert cursor.converged_at is None
        # The mid read really observed the corruption.
        golden, _ = _record(TailReadMidApp())
        assert tailed.stdout != golden.stdout

    def test_host_write_mirrored_into_shadow(self, tmp_path):
        """Convergence via HtoD: the upload must land in the shadow too,
        or live-vs-shadow comparison would report divergence forever."""
        full, tailed, cursor, _ = self._tail_run(TailHtoDApp, tmp_path)
        _assert_run_parity(tailed, full)
        assert cursor.converged_at == 3
        assert cursor.tail_skipped == 1  # only the final bump replays

    def test_faulted_target_launch_disarms(self, tmp_path):
        """``bit_pattern_value=0.2`` corrupts an address: the target launch
        dies with a CUDA error, which both aborts tracking (partial writes)
        and poisons the tail via the driver's error hook."""
        full, tailed, cursor, _ = self._tail_run(
            TailApp, tmp_path, bit_pattern_value=0.2
        )
        _assert_run_parity(tailed, full)
        assert tailed.cuda_errors  # the fault really raised
        assert cursor.tail_skipped == 0
        assert cursor.converged_at is None

    def test_instrumented_post_target_launch_disarms_replaying(self, tmp_path):
        """A cursor whose target comes before the instrumented launch: the
        clean launch 1 converges trivially (golden again at 2), then the
        instrumented launch 3 leaves the tape: it simulates and is tracked,
        and the final read of its corruption turns the cursor off."""
        full, tailed, cursor, _ = self._tail_run(
            TailApp, tmp_path, kernel_count=1
        )
        _assert_run_parity(tailed, full)
        assert cursor.skipped == 1
        assert cursor.converged_at == 2
        assert cursor.tail_skipped == 1  # launch 2 replayed off the tape
        assert cursor.state == "off"

    def test_low_patience_keeps_results_identical(self, tmp_path, monkeypatch):
        """Patience only forfeits speedup, never changes results: even a
        zero-patience cursor keeps byte parity on a persistent SDC."""
        monkeypatch.setattr(replay, "TAIL_PATIENCE", 0)
        _, log = _record(TailDivergentApp())
        path = tmp_path / "replay.bin"
        save_replay_log(log, path)
        full = run_app(TailDivergentApp(), preload=[_injector()])
        cursor = ReplayCursor(load_replay_log(path), stop_launch=1, tail=True)
        tailed = run_app(
            TailDivergentApp(), preload=[_injector()], replay=cursor
        )
        _assert_run_parity(tailed, full)
        assert cursor.state == "off"
        assert cursor.converged_at is None
        assert cursor.tail_skipped == 0

    def test_tail_disabled_cursor_stops_at_target(self, tmp_path):
        """``tail=False`` (the PR-4 cursor): nothing after the target is
        ever replayed, whatever the divergence set would have said."""
        full, tailed, cursor, _ = self._tail_run(TailApp, tmp_path, tail=False)
        _assert_run_parity(tailed, full)
        assert cursor.skipped == 1
        assert cursor.tail_skipped == 0
        assert cursor.converged_at is None


class TailErrorApp(TailApp):
    """A host upload past the end of device memory between launch 1 and
    the overwrite: a CUDA error that no launch raised, in golden too."""

    name = "replay_tail_error_app"

    def mid(self, ctx: AppContext, buf) -> None:
        driver = ctx.cuda.driver
        driver.cuMemcpyHtoD(driver.device.global_mem.size, b"\0" * 4)


class TailPeekCleanApp(TailApp):
    """Reads four bytes of the page after the buffer between launch 1 and
    the overwrite: host traffic that never touches the buffer's page."""

    name = "replay_tail_peek_clean_app"

    def mid(self, ctx: AppContext, buf) -> None:
        ctx.cuda.driver.cuMemcpyDtoH(buf.address + PAGE_SIZE, 4)


class TailPeekStraddleApp(TailApp):
    """Reads the last byte of the page before the buffer and the buffer's
    first byte between launch 1 and the overwrite."""

    name = "replay_tail_peek_straddle_app"

    def mid(self, ctx: AppContext, buf) -> None:
        ctx.cuda.driver.cuMemcpyDtoH(buf.address - 1, 2)


class _TracedCursor(ReplayCursor):
    """Logs every launch (``R`` replayed, ``S`` simulated) and every host
    event, each with the cursor state it left behind."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.trace: list[str] = []

    def consult(self, device, *launch, instrumented):
        rec = super().consult(device, *launch, instrumented=instrumented)
        step = "R" if rec is not None else "S"
        self.trace.append(f"{device.launch_count}{step}:{self.state}")
        return rec

    def note_host_read(self, address, nbytes):
        super().note_host_read(address, nbytes)
        self.trace.append(f"read:{self.state}")

    def note_cuda_error(self):
        super().note_cuda_error()
        self.trace.append(f"error:{self.state}")

    def launch_faulted(self, device):
        super().launch_faulted(device)
        self.trace.append(f"fault:{self.state}")


def _row(row_id, expected, app=TailApp, tape=None, keep=None, stop=1,
         tail=True, inject=None, mem=None):
    """One transition row: run ``app`` against a cursor on ``tape``'s
    golden recording (cut to ``keep`` launches) and expect ``expected``."""
    setup = dict(app=app, tape=tape or app, keep=keep, stop=stop, tail=tail,
                 inject=inject, mem=mem)
    return pytest.param(setup, expected, id=row_id)


_SDC = {}  # the default `_injector()`: bump instance 0 (launch 1), silent
_SDC_LAUNCH_3 = {"kernel_count": 1}
_CRASH = {"bit_pattern_value": 0.2}  # launch 1 dies with ERROR_ILLEGAL_ADDRESS

_TRANSITIONS = [
    _row("replay-while-golden", "0R:golden 1R:golden 2R:golden 3S:off "
         "4S:off read:off", stop=3, tail=False),
    _row("target-snapshots-shadow", "0R:golden 1S:diverged 2R:golden "
         "3R:golden 4R:golden read:golden"),
    _row("convergence-reenters-golden", "0R:golden 1S:diverged "
         "2S:diverged 3R:golden 4R:golden read:golden", inject=_SDC),
    _row("patience-runs-out", "0R:golden 1S:diverged 2S:diverged 3S:off "
         "read:off", app=TailDivergentApp, inject=_SDC),
    _row("host-read-of-divergent-page", "0R:golden 1S:diverged read:off "
         "2S:off 3S:off 4S:off read:off", app=TailReadMidApp, inject=_SDC),
    _row("host-read-straddling-divergent-page", "0R:golden "
         "1S:diverged read:off 2S:off 3S:off 4S:off read:off",
         app=TailPeekStraddleApp, inject=_SDC),
    _row("host-read-of-clean-page", "0R:golden 1S:diverged read:diverged "
         "2S:diverged 3R:golden 4R:golden read:golden", app=TailPeekCleanApp,
         inject=_SDC),
    _row("cuda-error-before-target", "0R:golden 1R:golden error:golden "
         "2R:golden 3S:off 4S:off read:off", app=TailErrorApp, stop=3),
    _row("cuda-error-after-target", "0R:golden 1S:diverged error:off "
         "2S:off 3S:off 4S:off read:off", app=TailErrorApp),
    _row("off-tape", "0R:golden 1R:golden 2R:golden 3S:off 4S:off read:off",
         keep=3, stop=None),
    _row("metadata-mismatch", "0R:golden 1R:golden 2S:off 3S:off read:off",
         app=TailDivergentApp, tape=TailApp, stop=None),
    _row("memory-size-mismatch", "0S:off 1S:off 2S:off 3S:off 4S:off "
         "read:off", mem=32 * 1024 * 1024),
    _row("faulted-launch", "0R:golden 1S:diverged fault:off error:off "
         "2S:off 3S:off 4S:off read:off", inject=_CRASH),
    _row("instrumented-before-target", "0R:golden 1S:diverged 2S:diverged "
         "3S:diverged 4R:golden read:golden", stop=3, inject=_SDC),
    _row("instrumented-after-target", "0R:golden 1S:diverged 2R:golden "
         "3S:diverged 4S:diverged read:off", inject=_SDC_LAUNCH_3),
    _row("targetless-replays-every-launch", "0R:golden 1R:golden 2R:golden "
         "3R:golden 4R:golden read:golden", stop=None),
]


class TestCursorTransitions:
    """Every cursor transition, driven through real runs.

    ``TAIL_PATIENCE`` is 1 here, so two divergent boundaries in a row turn
    the cursor off.  The rows of instrumented launches other than the
    target are ones no tool produces today.
    """

    @pytest.mark.parametrize("setup, expected", _TRANSITIONS)
    def test_transition(self, setup, expected, monkeypatch):
        monkeypatch.setattr(replay, "TAIL_PATIENCE", 1)
        _, log = _record(setup["tape"]())
        if setup["keep"] is not None:
            log.launches = log.launches[: setup["keep"]]
        config = None
        if setup["mem"] is not None:
            config = SandboxConfig(global_mem_bytes=setup["mem"])

        def tools():
            inject = setup["inject"]
            return None if inject is None else [_injector(**inject)]

        full = run_app(setup["app"](), preload=tools(), config=config)
        cursor = _TracedCursor(log, setup["stop"], tail=setup["tail"])
        traced = run_app(
            setup["app"](), preload=tools(), config=config, replay=cursor
        )
        assert " ".join(cursor.trace) == expected
        _assert_run_parity(traced, full)
