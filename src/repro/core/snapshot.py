"""The persistent cross-campaign replay-tape cache.

:class:`ReplayCache` stores each golden replay tape and the
instruction profile counted against it (default
``~/.cache/repro/replay/``, override with the ``replay_cache`` knob or
``$REPRO_REPLAY_CACHE``).  Keys combine the workload id, the sandbox
config fingerprint and the code version; the tape format embeds a sha256
content hash that is validated on load, so a corrupt or stale entry
degrades to re-recording instead of wrong results.  ``repro serve``
points every scheduler worker at a DB-adjacent cache dir, so one worker
records golden and the rest replay it.

Forking injection runs off a replayed checkpoint lives in
:mod:`repro.core.batch_injector`.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from pathlib import Path

from repro.errors import ReproError
from repro.gpusim.replay import (
    PAGE_SIZE,
    ReplayLog,
    load_replay_log,
    save_replay_log,
)
from repro.runner.sandbox import SandboxConfig
from repro.runner.sandbox import run_app  # noqa: F401  (perfbench patch point)

#: Bump when the cache key derivation or tape semantics change in a way
#: that must invalidate previously cached entries.
_CACHE_FORMAT = 1


def default_cache_root() -> Path:
    """``$REPRO_REPLAY_CACHE`` or ``~/.cache/repro/replay``."""
    env = os.environ.get("REPRO_REPLAY_CACHE")
    if env:
        return Path(env).expanduser()
    return Path("~/.cache/repro/replay").expanduser()


class ReplayCache:
    """Persistent cross-campaign replay-tape cache.

    One entry per (workload, sandbox fingerprint, code version): the tape
    itself as ``<key>.bin`` (the standard replay-log format, whose header
    embeds a sha256 over the blob section) plus a human-readable
    ``<key>.json`` sidecar.  Entries are written atomically; concurrent
    writers racing on the same key produce identical bytes (recording is
    deterministic), so last-rename-wins is safe.

    Invalidation is entirely key- and content-driven: changing the
    workload, any outcome-relevant sandbox knob, the tape page size, the
    package version, or :data:`_CACHE_FORMAT` derives a different key;
    a tampered or torn file fails its embedded content hash and is
    treated as a miss.
    """

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        self.root = Path(root).expanduser() if root else default_cache_root()

    @staticmethod
    def resolve(setting: bool | str | os.PathLike | None) -> "ReplayCache | None":
        """Build a cache from a config knob value.

        ``None``/``False`` disable caching, ``True`` selects the default
        root, a string/path selects an explicit directory.
        """
        if setting is None or setting is False:
            return None
        if setting is True:
            return ReplayCache()
        return ReplayCache(setting)

    def key(self, workload: str, config: SandboxConfig) -> str:
        """Cache key: workload id + sandbox fingerprint + code version."""
        from repro import __version__

        parts = [
            "replay-cache",
            str(_CACHE_FORMAT),
            __version__,
            str(PAGE_SIZE),
            workload,
            str(config.seed),
            str(config.instruction_budget),
            config.family,
            str(config.num_sms),
            str(config.global_mem_bytes),
            json.dumps(sorted((config.extra_env or {}).items())),
        ]
        return hashlib.sha256("\x1f".join(parts).encode()).hexdigest()[:32]

    def path_for(self, workload: str, config: SandboxConfig) -> Path:
        return self.root / f"{self.key(workload, config)}.bin"

    def lookup(self, workload: str, config: SandboxConfig) -> ReplayLog | None:
        """The cached tape for this (workload, config), or ``None``.

        The load validates the embedded content hash and the recorded
        workload id; any failure is a miss, never an error.
        """
        path = self.path_for(workload, config)
        try:
            log = load_replay_log(path)
        except (OSError, ReproError):
            return None
        if log.workload and log.workload != workload:
            return None
        return log

    def store(self, workload: str, config: SandboxConfig, log: ReplayLog) -> Path:
        """Persist ``log`` for this (workload, config); returns the path."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(workload, config)
        save_replay_log(log, path)
        meta = {
            "workload": workload,
            "seed": config.seed,
            "family": config.family,
            "num_sms": config.num_sms,
            "launches": len(log),
            "sha256": log.content_hash,
            "created": time.time(),
        }
        self._write_json(path.with_suffix(".json"), meta)
        return path

    # -- instruction profiles ----------------------------------------------------
    #
    # The profiling pass is the one plan phase a cached tape cannot
    # fast-forward: counting dynamic instructions requires simulating
    # every launch under instrumentation.  Its output is a pure function
    # of the same key the tape hashes to, so it is cached alongside the
    # tape — validated against the tape's content hash, because a profile
    # is only as good as the golden run it counted.

    def profile_path_for(
        self, workload: str, config: SandboxConfig, mode: str
    ) -> Path:
        return self.root / f"{self.key(workload, config)}.{mode}.profile"

    def lookup_profile(
        self, workload: str, config: SandboxConfig, mode: str, tape_sha: str | None
    ):
        """The cached instruction profile, or ``None``.

        A profile recorded against a different tape (``sha256`` mismatch),
        an unreadable file, or a malformed payload is a miss, never an
        error.
        """
        from repro.core.profile_data import ProgramProfile
        from repro.errors import ProfileError

        if not tape_sha:
            return None
        path = self.profile_path_for(workload, config, mode)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            if payload.get("workload") != workload:
                return None
            if payload.get("tape_sha256") != tape_sha:
                return None
            profile = ProgramProfile.from_text(payload["profile"])
            counters = {
                str(k): int(v)
                for k, v in dict(payload.get("counters", {})).items()
            }
            return profile, counters
        except (OSError, ValueError, KeyError, TypeError, ProfileError):
            return None

    def store_profile(
        self,
        workload: str,
        config: SandboxConfig,
        mode: str,
        tape_sha: str | None,
        profile,
        counters: dict[str, int] | None = None,
    ) -> Path | None:
        """Persist ``profile`` next to the tape it was counted against.

        ``counters`` carries the profiling run's device totals (cycles,
        instructions, warps) so a cache hit can fold the same numbers
        into the metrics registry — mirroring how replayed launches
        re-report recorded cycle deltas instead of dropping them.
        """
        if not tape_sha:
            return None
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.profile_path_for(workload, config, mode)
        self._write_json(
            path,
            {
                "workload": workload,
                "mode": mode,
                "tape_sha256": tape_sha,
                "profile": profile.to_text(),
                "counters": counters or {},
                "created": time.time(),
            },
        )
        return path

    @staticmethod
    def _write_json(path: Path, payload: dict) -> None:
        # Unique per process *and* thread: `repro serve` coordinators
        # write shared-cache entries concurrently from threads of one
        # process.
        tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        os.replace(tmp, path)
