"""Campaign persistence: the on-disk layout of a fault-injection study.

Mirrors the real package's campaign directory (``logs/``, golden outputs,
one parameter file + one outcome record per injection) so a campaign can
be stopped, resumed, audited or re-analysed later:

    <campaign_dir>/
      golden/stdout.txt           the fault-free reference
      golden/files/<name>         golden output files
      profile.txt                 the instruction profile
      injections/run_00042/
        params.txt                the 7-line Table II parameter file
        record.txt                what the injector actually did (round-trips)
        outcome.txt               the Table V classification
      permanent/run_00003/        same layout for permanent-fault runs
      results.csv                 one row per completed injection

``results.csv`` contains only deterministic fields (simulated instruction
counts rather than host wall-clock), so serial, parallel and resumed runs
of the same campaign produce byte-identical files.

Every file is written whole (:func:`repro.utils.atomic.write_atomic`:
a temporary name, then a rename), so a killed writer never leaves one
torn, and a temporary file it leaves behind is never read as data.
``outcome.txt`` is a run's completion marker: it is written last, and the
resume scan counts a run as done only when its marker holds every key
its kind writes.  A damaged marker (torn, truncated or emptied) is
reported with a warning and its run runs again; unrecognised entries
under ``injections/`` are skipped with a warning too, instead of
crashing the scan.
"""

from __future__ import annotations

import json
import re
import warnings
from pathlib import Path

from repro.core.campaign import (
    PermanentResult,
    TransientCampaignResult,
    TransientResult,
)
from repro.core.injector import InjectionRecord
from repro.core.kinds import CampaignKind
from repro.core.result_store import render_results_csv
from repro.core.outcomes import Outcome, OutcomeRecord
from repro.core.params import PermanentParams, TransientParams
from repro.core.profile_data import ProgramProfile
from repro.core.report import OutcomeTally
from repro.errors import ReproError
from repro.runner.artifacts import RunArtifacts
from repro.utils.atomic import is_temp, write_atomic

_RUN_DIR = re.compile(r"^run_(\d+)$")

# The ``key=value`` lines each kind's ``outcome.txt`` holds after its two
# positional lines (outcome and symptom).
_TRANSIENT_KEYS = ("kind", "potential_due", "wall_time", "instructions")
_PERMANENT_KEYS = (
    "kind", "potential_due", "wall_time", "opcode", "weight", "activations",
)


class CampaignStore:
    """Reads and writes one campaign directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    # -- golden ------------------------------------------------------------

    def save_golden(self, golden: RunArtifacts) -> None:
        golden_dir = self.root / "golden"
        (golden_dir / "files").mkdir(parents=True, exist_ok=True)
        write_atomic(golden_dir / "stdout.txt", golden.stdout.encode())
        for name, payload in golden.files.items():
            write_atomic(golden_dir / "files" / name, payload)

    def load_golden(self) -> RunArtifacts:
        golden_dir = self.root / "golden"
        if not golden_dir.exists():
            raise ReproError(f"no golden run stored under {self.root}")
        files = {
            path.name: path.read_bytes()
            for path in sorted((golden_dir / "files").iterdir())
            if not is_temp(path.name)
        }
        return RunArtifacts(
            stdout=(golden_dir / "stdout.txt").read_text(), files=files
        )

    # -- replay log ----------------------------------------------------------

    def replay_path(self) -> Path:
        """Where the golden run's replay log lives (``replay.bin``).

        The log rides next to the golden artifacts so a resumed campaign
        re-records it with the (deterministic) golden re-run; see
        :mod:`repro.gpusim.replay`.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        return self.root / "replay.bin"

    # -- adaptive state --------------------------------------------------------

    def save_adaptive_state(self, state: dict) -> None:
        """Persist the adaptive drive loop's decision tape (``adaptive.json``).

        Written after every batch, next to the injections it covers, so a
        resumed campaign can verify it is continuing the *same* decision
        sequence (same plan, rule, seed and batch allocations) instead of
        silently re-sizing the campaign.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        write_atomic(
            self.root / "adaptive.json", (json.dumps(state, indent=2) + "\n").encode()
        )

    def load_adaptive_state(self) -> dict | None:
        """The stored decision tape, or ``None`` for non-adaptive campaigns."""
        path = self.root / "adaptive.json"
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ReproError(
                f"malformed adaptive state in {path}: {exc}"
            ) from None

    # -- profile -------------------------------------------------------------

    def save_profile(self, profile: ProgramProfile) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        write_atomic(self.root / "profile.txt", profile.to_text().encode())

    def load_profile(self) -> ProgramProfile:
        path = self.root / "profile.txt"
        if not path.exists():
            raise ReproError(f"no profile stored under {self.root}")
        return ProgramProfile.from_text(path.read_text())

    # -- transient injections ----------------------------------------------------

    def save_injection(self, index: int, result: TransientResult) -> None:
        run_dir = self.root / "injections" / f"run_{index:05d}"
        run_dir.mkdir(parents=True, exist_ok=True)
        write_atomic(run_dir / "params.txt", result.params.to_text().encode())
        write_atomic(run_dir / "record.txt", result.record.to_text().encode())
        write_atomic(
            run_dir / "outcome.txt",
            f"{result.outcome.outcome.value}\n{result.outcome.symptom}\n"
            f"kind={CampaignKind.TRANSIENT.value}\n"
            f"potential_due={result.outcome.potential_due}\n"
            f"wall_time={result.wall_time!r}\n"
            f"instructions={result.instructions}\n".encode(),
        )

    def completed_injections(self) -> list[int]:
        return self._scan_runs(self.root / "injections", _TRANSIENT_KEYS)

    def load_injection(self, index: int) -> TransientResult:
        run_dir = self.root / "injections" / f"run_{index:05d}"
        if not run_dir.exists():
            raise ReproError(f"injection {index} not stored under {self.root}")
        params = TransientParams.from_text((run_dir / "params.txt").read_text())
        outcome, wall_time, instructions, _ = self._read_outcome(run_dir)
        record = InjectionRecord.from_text((run_dir / "record.txt").read_text())
        return TransientResult(params, record, outcome, wall_time, instructions)

    # -- permanent injections ----------------------------------------------------

    def save_permanent_injection(self, index: int, result: PermanentResult) -> None:
        run_dir = self.root / "permanent" / f"run_{index:05d}"
        run_dir.mkdir(parents=True, exist_ok=True)
        write_atomic(run_dir / "params.txt", result.params.to_text().encode())
        write_atomic(
            run_dir / "outcome.txt",
            f"{result.outcome.outcome.value}\n{result.outcome.symptom}\n"
            f"kind={CampaignKind.PERMANENT.value}\n"
            f"potential_due={result.outcome.potential_due}\n"
            f"wall_time={result.wall_time!r}\n"
            f"opcode={result.opcode}\n"
            f"weight={result.weight!r}\n"
            f"activations={result.activations}\n".encode(),
        )

    def completed_permanent_injections(self) -> list[int]:
        return self._scan_runs(self.root / "permanent", _PERMANENT_KEYS)

    def load_permanent_injection(self, index: int) -> PermanentResult:
        run_dir = self.root / "permanent" / f"run_{index:05d}"
        if not run_dir.exists():
            raise ReproError(
                f"permanent injection {index} not stored under {self.root}"
            )
        params = PermanentParams.from_text((run_dir / "params.txt").read_text())
        outcome, wall_time, _, extras = self._read_outcome(run_dir)
        return PermanentResult(
            params=params,
            opcode=extras.get("opcode", ""),
            weight=float(extras.get("weight", "1.0")),
            activations=int(extras.get("activations", "0")),
            outcome=outcome,
            wall_time=wall_time,
        )

    # -- shared run-directory plumbing -------------------------------------------

    @staticmethod
    def _scan_runs(runs_dir: Path, keys: tuple[str, ...]) -> list[int]:
        """Indices of completed runs: those whose ``outcome.txt`` is whole.

        A whole marker ends its last line and holds every one of ``keys``.
        Stray entries are skipped, and runs with a damaged marker left to
        run again, each with a warning.
        """
        if not runs_dir.exists():
            return []
        indices = []
        for run_dir in sorted(runs_dir.iterdir()):
            match = _RUN_DIR.match(run_dir.name)
            if match is None or not run_dir.is_dir():
                warnings.warn(
                    f"ignoring unrecognised entry {run_dir} in campaign store",
                    stacklevel=3,
                )
                continue
            marker = run_dir / "outcome.txt"
            if not marker.exists():
                continue
            text = marker.read_text()
            written = {
                line.split("=", 1)[0]
                for line in text.splitlines()[2:]
                if "=" in line
            }
            if not text.endswith("\n") or not written >= set(keys):
                warnings.warn(
                    f"{marker} is incomplete; its run will run again",
                    stacklevel=3,
                )
                continue
            indices.append(int(match.group(1)))
        return indices

    @staticmethod
    def _read_outcome(
        run_dir: Path,
    ) -> tuple[OutcomeRecord, float, int, dict[str, str]]:
        """Parse ``outcome.txt``: two positional lines, then ``key=value``."""
        lines = (run_dir / "outcome.txt").read_text().splitlines()
        if len(lines) < 2:
            raise ReproError(f"malformed outcome record in {run_dir}")
        extras: dict[str, str] = {}
        for line in lines[2:]:
            if "=" in line:
                key, value = line.split("=", 1)
                extras[key] = value
        outcome = OutcomeRecord(
            outcome=Outcome(lines[0]),
            symptom=lines[1],
            potential_due=extras.get("potential_due") == "True",
        )
        wall_time = float(extras.get("wall_time", "0.0"))
        instructions = int(extras.get("instructions", "0"))
        return outcome, wall_time, instructions, extras

    # -- aggregate results ----------------------------------------------------------

    def save_results_csv(self, result: TransientCampaignResult) -> None:
        """One deterministic row per injection.

        Durations are reported as simulated instruction counts, not host
        wall-clock (see DESIGN.md): the simulator is deterministic, so
        serial, parallel and resumed campaigns write identical bytes.
        Quarantined injections (harness DUEs) carry only deterministic
        fields too, so campaigns containing failures keep this property.
        """
        self._write_results_csv(enumerate(result.results))

    def save_partial_results_csv(self, by_index: dict[int, TransientResult]) -> None:
        """A clean, sorted ``results.csv`` for an interrupted campaign.

        Rows cover exactly the injections completed (and therefore
        checkpointed) before the interrupt; re-running the campaign against
        the same store resumes past them and rewrites the full file.
        """
        self._write_results_csv(sorted(by_index.items()))

    def _write_results_csv(self, rows) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        write_atomic(self.root / "results.csv", render_results_csv(rows).encode())

    def load_tally(self) -> OutcomeTally:
        """Rebuild the outcome tally from stored per-injection records."""
        tally = OutcomeTally()
        for index in self.completed_injections():
            tally.add(self.load_injection(index).outcome)
        return tally

    def save_campaign(
        self,
        golden: RunArtifacts,
        profile: ProgramProfile,
        result: TransientCampaignResult,
    ) -> None:
        """Persist everything in one call."""
        self.save_golden(golden)
        self.save_profile(profile)
        for index, item in enumerate(result.results):
            self.save_injection(index, item)
        self.save_results_csv(result)

