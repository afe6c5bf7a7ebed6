"""Campaign statistics: outcome fractions and binomial confidence intervals.

The paper (§IV-B, citing [24], [25]) notes that 100 injections give 90%
confidence with ±8% error margins and 1000 injections give 95% with ±3%;
:func:`confidence_interval` reproduces those margins (normal approximation
at worst-case p = 0.5).

This module also reads campaign traces (the JSONL files written by
``--trace``): :func:`phase_breakdown` and :func:`render_phase_breakdown`
turn phase spans into a per-phase time table, and :func:`tally_from_trace`
rebuilds the campaign's :class:`OutcomeTally` from its per-injection
events — the two views are defined to agree exactly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist

from repro.core.outcomes import Outcome, OutcomeRecord
from repro.errors import ReproError
from repro.obs import injection_events, load_trace, phase_durations


def z_value(confidence: float) -> float:
    """Two-sided z for any confidence level in (0, 1).

    Historically a four-entry table lookup (0.80/0.90/0.95/0.99) that made
    e.g. 0.85 or 0.975 raise; now the exact inverse normal, pinned against
    the paper's table values (1.6449 at 90%, 1.9600 at 95%, ...) by
    regression tests so the §IV-B ±8%/±3% numbers stay exact.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(
            f"confidence level must lie strictly between 0 and 1, "
            f"got {confidence}"
        )
    return NormalDist().inv_cdf((1.0 + confidence) / 2.0)


def confidence_interval(
    p_hat: float, n: int, confidence: float = 0.95
) -> tuple[float, float]:
    """Normal-approximation binomial CI for an outcome fraction."""
    if n <= 0:
        raise ValueError("sample size must be positive")
    if not 0.0 <= p_hat <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    margin = z_value(confidence) * math.sqrt(p_hat * (1.0 - p_hat) / n)
    return max(0.0, p_hat - margin), min(1.0, p_hat + margin)


def error_margin(n: int, confidence: float = 0.90, p_hat: float = 0.5) -> float:
    """Worst-case half-width of the CI (the paper's ±8% / ±3% numbers)."""
    if n <= 0:
        raise ValueError("sample size must be positive")
    return z_value(confidence) * math.sqrt(p_hat * (1.0 - p_hat) / n)


@dataclass
class OutcomeTally:
    """Aggregated outcome counts, optionally weighted.

    ``total`` is the weight sum the fractions divide by; ``samples`` counts
    the records added, unweighted, and is the sample size of every
    confidence interval.  The two differ for weighted (permanent) tallies,
    whose weights sum to about 1.
    """

    counts: dict[Outcome, float] = field(
        default_factory=lambda: {o: 0.0 for o in Outcome}
    )
    potential_due: float = 0.0
    total: float = 0.0
    samples: int = 0

    def add(self, record: OutcomeRecord, weight: float = 1.0) -> None:
        self.counts[record.outcome] += weight
        if record.potential_due:
            self.potential_due += weight
        self.total += weight
        self.samples += 1

    def fraction(self, outcome: Outcome) -> float:
        if self.total == 0:
            return 0.0
        return self.counts[outcome] / self.total

    def fractions(self) -> dict[str, float]:
        return {outcome.value: self.fraction(outcome) for outcome in Outcome}

    def potential_due_fraction(self) -> float:
        return self.potential_due / self.total if self.total else 0.0

    def merge(self, other: "OutcomeTally") -> "OutcomeTally":
        merged = OutcomeTally()
        for outcome in Outcome:
            merged.counts[outcome] = self.counts[outcome] + other.counts[outcome]
        merged.potential_due = self.potential_due + other.potential_due
        merged.total = self.total + other.total
        merged.samples = self.samples + other.samples
        return merged

    def report(self, confidence: float = 0.90, samples: int | None = None) -> str:
        """One-line report with confidence intervals.

        A zero-sample tally (an interrupted campaign's empty partial
        results, say) renders ``n/a`` instead of raising out of
        :func:`confidence_interval`.
        """
        n = self.samples if samples is None else int(samples)
        if n <= 0:
            return "  ".join(f"{outcome.value}=n/a" for outcome in Outcome)
        parts = []
        for outcome in Outcome:
            frac = self.fraction(outcome)
            low, high = confidence_interval(frac, n, confidence)
            parts.append(
                f"{outcome.value}={frac * 100:.1f}% "
                f"[{low * 100:.1f}, {high * 100:.1f}]"
            )
        if self.potential_due:
            parts.append(f"potentialDUE={self.potential_due_fraction() * 100:.1f}%")
        return "  ".join(parts)


def summarize_tally(tally: OutcomeTally, confidence: float = 0.95) -> dict:
    """A JSON-friendly summary of a tally: counts, fractions, intervals.

    The ``repro serve`` status endpoint's payload shape — everything a
    client needs to render live campaign progress without parsing the
    human-readable :meth:`OutcomeTally.report` line.  A zero-sample tally
    yields empty intervals rather than raising.
    """
    n = tally.samples
    summary = {
        "n": n,
        "counts": {o.value: tally.counts[o] for o in Outcome},
        "fractions": tally.fractions(),
        "potential_due_fraction": tally.potential_due_fraction(),
        "confidence": confidence,
        "ci": {},
    }
    if n > 0:
        for outcome in Outcome:
            low, high = confidence_interval(
                tally.fraction(outcome), n, confidence
            )
            summary["ci"][outcome.value] = [low, high]
    return summary


# -- results.csv analysis (the ``repro report`` surface) ----------------------


def read_results_csv(source: str | Path) -> list[dict]:
    """Rows of a campaign's ``results.csv`` (a store directory or the file).

    Accepts a partial file from an interrupted campaign — any prefix of the
    rows is a valid result set — and an empty (header-only) file, which
    downstream renderers must turn into ``n/a`` rather than a crash.
    """
    path = Path(source)
    if path.is_dir():
        path = path / "results.csv"
    if not path.exists():
        raise ReproError(f"no results.csv under {source}")
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


def tally_from_results(rows: list[dict]) -> OutcomeTally:
    """Rebuild an :class:`OutcomeTally` from ``results.csv`` rows."""
    tally = OutcomeTally()
    for row in rows:
        tally.add(
            OutcomeRecord(
                outcome=Outcome(row["outcome"]),
                symptom=row.get("symptom", ""),
                potential_due=row.get("potential_due") == "True",
            )
        )
    return tally


def stratum_tallies_from_results(rows: list[dict]) -> dict[str, OutcomeTally]:
    """Per-stratum (static kernel) tallies from ``results.csv`` rows."""
    tallies: dict[str, OutcomeTally] = {}
    for row in rows:
        tally = tallies.setdefault(row["kernel"], OutcomeTally())
        tally.add(
            OutcomeRecord(
                outcome=Outcome(row["outcome"]),
                symptom=row.get("symptom", ""),
                potential_due=row.get("potential_due") == "True",
            )
        )
    return tallies


def _ci_cell(tally: OutcomeTally, outcome: Outcome, confidence: float) -> str:
    n = tally.samples
    if n <= 0:
        return "n/a"
    frac = tally.fraction(outcome)
    low, high = confidence_interval(frac, n, confidence)
    return f"{frac * 100:5.1f}% [{low * 100:5.1f}, {high * 100:5.1f}]"


def render_ci_report(source, confidence: float = 0.95) -> str:
    """The ``repro report ci`` view: per-outcome fractions with intervals,
    overall and per stratum (static kernel), from a campaign's results.csv.

    Zero-sample inputs — a header-only partial file from an interrupted
    campaign — render ``n/a`` cells rather than raising.
    """
    rows = read_results_csv(source) if isinstance(source, (str, Path)) else source
    overall = tally_from_results(rows)
    strata = stratum_tallies_from_results(rows)
    names = ["(all)"] + sorted(strata)
    tallies = {"(all)": overall, **strata}
    width = max(len(name) for name in names)
    header = f"{'stratum':<{width}}  {'n':>5}  " + "  ".join(
        f"{outcome.value:>22}" for outcome in Outcome
    )
    lines = [f"confidence level: {confidence:.0%}", header]
    for name in names:
        tally = tallies[name]
        cells = "  ".join(
            f"{_ci_cell(tally, outcome, confidence):>22}" for outcome in Outcome
        )
        lines.append(f"{name:<{width}}  {tally.samples:>5}  {cells}")
    if overall.samples == 0:
        lines.append(
            "no completed injections yet (partial or empty results.csv)"
        )
    return "\n".join(lines) + "\n"


# -- trace-file analysis (the JSONL files written by ``--trace``) -------------


def phase_breakdown(trace) -> dict[str, float]:
    """Per-phase wall seconds from a trace (path, or loaded event list).

    Sums every span of each pipeline phase name, so resumed campaigns (two
    ``inject`` spans across two trace files concatenated) aggregate
    naturally.  Phases appear in pipeline order.
    """
    return phase_durations(load_trace(trace))


def tally_from_trace(trace) -> OutcomeTally:
    """Rebuild the campaign's :class:`OutcomeTally` from its trace.

    Every classified injection — including ones resumed from a store —
    emits exactly one ``injection`` event carrying its outcome and weight,
    so this reconstruction matches the campaign result's tally exactly.
    """
    tally = OutcomeTally()
    for event in injection_events(load_trace(trace)):
        attrs = event.get("attrs", {})
        record = OutcomeRecord(
            outcome=Outcome(attrs["outcome"]),
            symptom=attrs.get("symptom", ""),
            potential_due=bool(attrs.get("potential_due", False)),
        )
        tally.add(record, weight=float(attrs.get("weight", 1.0)))
    return tally


def render_phase_breakdown(trace) -> str:
    """Human-readable per-phase time table for a trace file."""
    events = load_trace(trace)
    phases = phase_breakdown(events)
    if not phases:
        return "no phase spans in trace\n"
    total = sum(phases.values())
    width = max(len(name) for name in phases)
    lines = [f"{'phase':<{width}}  {'seconds':>9}  {'share':>6}"]
    for name, seconds in phases.items():
        share = seconds / total if total else 0.0
        lines.append(f"{name:<{width}}  {seconds:>9.3f}  {share:>5.1%}")
    lines.append(f"{'total':<{width}}  {total:>9.3f}  {'':>6}")
    injections = injection_events(events)
    if injections:
        tally = tally_from_trace(events)
        lines.append("")
        lines.append(f"{len(injections)} injection event(s): {tally.report()}")
    return "\n".join(lines) + "\n"
