"""Campaign resilience: retries, quarantine and interrupt checkpoints.

NVBitFI's campaign scripts are robust by construction: every injection
runs in its own monitored process with a wall-clock timeout, so a hung or
crashed run is *data* — a Table V DUE under "Monitor detection" — never a
harness failure.  This module gives :class:`~repro.core.engine.CampaignEngine`
the same shape:

* :class:`RetryPolicy` — how often a failed injection task is re-attempted
  (exponential backoff with deterministic seeded jitter, a parent-side
  wall-clock deadline per task, and the terminal action: quarantine or
  raise);
* :class:`TaskFailure` — the record an executor yields when a task has
  exhausted every attempt; the engine synthesizes a DUE outcome from it
  (:func:`quarantine_outcome`) so the campaign always produces N results
  for N planned injections;
* :class:`CampaignInterrupted` — raised out of the injection loop on
  ``KeyboardInterrupt`` after completed work has been checkpointed, so the
  engine can write a clean partial ``results.csv`` before re-raising.

Everything here is deterministic on purpose: backoff jitter is seeded from
``(seed, task index, attempt)``, and a quarantined result carries no
wall-clock-dependent fields, so serial, parallel and resumed campaigns
containing failures still produce byte-identical ``results.csv`` files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.outcomes import Outcome, OutcomeRecord
from repro.errors import ReproError

# The Table V row a harness-detected failure maps onto (paper §IV-A: the
# campaign monitor detecting a misbehaving run is a DUE, "Monitor detection").
HARNESS_FAILURE_SYMPTOM = "Harness: worker failure (Monitor detection)"

# Terminal actions for a task that failed every attempt.
ON_FAILURE_QUARANTINE = "quarantine"
ON_FAILURE_RAISE = "raise"
_ON_FAILURE_CHOICES = (ON_FAILURE_QUARANTINE, ON_FAILURE_RAISE)


@dataclass(frozen=True)
class RetryPolicy:
    """How the engine treats injection tasks that fail in the harness.

    ``max_attempts`` counts *total* tries (1 = no retries).  Backoff for
    attempt *n* is ``backoff_base * backoff_factor**(n-1)``, capped at
    ``backoff_max`` and stretched by up to ``jitter`` (a fraction) using a
    generator seeded from ``(seed, task index, attempt)`` — deterministic,
    but de-synchronised across tasks.  ``task_timeout`` is the parent-side
    wall-clock deadline (seconds) per task; it complements the in-sim
    instruction budget by catching workers that hang *outside* simulated
    execution.  ``on_failure`` decides what happens after the final
    attempt: ``"quarantine"`` (synthesize a DUE, keep going — the default)
    or ``"raise"`` (abort the campaign).
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.1
    seed: int = 0
    task_timeout: float | None = None
    on_failure: str = ON_FAILURE_QUARANTINE

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ReproError("RetryPolicy.max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_factor < 1 or self.backoff_max < 0:
            raise ReproError("RetryPolicy backoff knobs must be non-negative "
                             "(factor >= 1)")
        if not 0.0 <= self.jitter <= 1.0:
            raise ReproError("RetryPolicy.jitter must lie in [0, 1]")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ReproError("RetryPolicy.task_timeout must be positive")
        if self.on_failure not in _ON_FAILURE_CHOICES:
            raise ReproError(
                f"RetryPolicy.on_failure must be one of {_ON_FAILURE_CHOICES}, "
                f"got {self.on_failure!r}"
            )

    def should_retry(self, attempt: int) -> bool:
        """May a task that just failed its ``attempt``-th try run again?"""
        return attempt < self.max_attempts

    def delay(self, attempt: int, key: int = 0) -> float:
        """Backoff before re-running a task that failed attempt ``attempt``.

        Deterministic: the jitter draw is seeded from ``(seed, key,
        attempt)``, so a resumed or re-run campaign sleeps the same
        schedule, while distinct tasks never thunder in lockstep.
        """
        base = min(
            self.backoff_base * (self.backoff_factor ** max(attempt - 1, 0)),
            self.backoff_max,
        )
        if not self.jitter or not base:
            return base
        # One integer mixing (seed, key, attempt); random.Random only seeds
        # from scalars, and int hashing is stable across processes.
        rng = random.Random(self.seed * 1_000_003 + key * 1_009 + attempt)
        return base * (1.0 + self.jitter * rng.random())


@dataclass(frozen=True)
class TaskFailure:
    """An injection task that failed all its attempts in the harness.

    ``reason`` is one of ``"exception"`` (the task raised in its worker),
    ``"worker-death"`` (the worker process died and broke the pool) or
    ``"timeout"`` (the parent-side wall-clock deadline expired).  ``error``
    is the formatted terminal error.  Executors yield these in place of an
    :class:`~repro.core.engine.InjectionOutput`; the engine quarantines or
    raises according to the :class:`RetryPolicy`.
    """

    index: int
    attempts: int
    error: str
    reason: str = "exception"


def quarantine_outcome(failure: TaskFailure) -> OutcomeRecord:
    """The synthesized Table V classification for a quarantined task.

    A run the harness could not complete is exactly what the paper's
    campaign monitor calls a DUE: detected by the monitor, unrecoverable by
    the application.  The symptom string is fixed
    (:data:`HARNESS_FAILURE_SYMPTOM`) so tallies, traces and stored
    outcomes agree byte-for-byte across serial, parallel and resumed runs.
    """
    return OutcomeRecord(Outcome.DUE, HARNESS_FAILURE_SYMPTOM)


class CampaignInterrupted(ReproError):
    """The injection loop was interrupted (SIGINT) after checkpointing.

    Carries the results completed before the interrupt, keyed by site
    index, so callers can persist a clean partial ``results.csv`` and then
    re-raise ``KeyboardInterrupt`` to exit with conventional status.
    """

    def __init__(self, completed: dict[int, object], total: int) -> None:
        super().__init__(
            f"campaign interrupted after {len(completed)}/{total} injections"
        )
        self.completed = dict(completed)
        self.total = total


def format_error(exc: BaseException) -> str:
    """One-line ``Type: message`` rendering used in failure records."""
    return f"{type(exc).__name__}: {exc}"
