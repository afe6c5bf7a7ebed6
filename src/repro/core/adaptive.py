"""Adaptive campaign sizing: CI-driven early stopping + stratified sampling.

The paper sizes every campaign with a fixed N (§IV-B: 100 injections give
90% confidence with ±8% margins, 1000 give 95% ±3%) — both numbers are the
worst-case (p = 0.5) inversion of the binomial confidence interval in
:mod:`repro.core.report`.  ZOFI's insight is that the worst case rarely
happens: compute the interval *during* the campaign and stop as soon as the
error bar for the outcome you care about is tight enough.  This module is
that loop's brain; :class:`~repro.core.engine.CampaignEngine` is its body.

Three pieces:

* :class:`StoppingRule` — "stop once the ``confidence`` CI of the
  ``target_outcome`` fraction is narrower than ``half_width``", evaluated
  at batch boundaries from the running tallies via the same
  :func:`~repro.core.report.confidence_interval` machinery the final report
  uses;
* :class:`SamplingPlan` — how each batch's sites are drawn: ``uniform``
  (the paper's Monte Carlo; the default), ``stratified`` (allocate across
  static kernels proportionally to their dynamic instruction share, with a
  cumulative-deficit largest-remainder rule so small strata are never
  starved) or ``importance`` (re-allocate every batch toward the strata
  with the highest observed target-outcome rate, Laplace-smoothed);
* :class:`AdaptiveState` — the deterministic decision sequence: per-stratum
  tallies, batch allocations, the combined (weighted) estimate and the
  per-site weights that keep the final tally unbiased.

Unbiasedness: under stratified *and* importance sampling the estimator is
the classic stratified mean p̂ = Σ_h W_h·p̂_h, where W_h is stratum *h*'s
share of the dynamic instruction population and p̂_h its observed outcome
fraction.  Recording weight ``W_h / n_h`` per site makes the weighted
tally's fractions equal that estimator regardless of how the budget was
steered — allocation changes the variance, never the expectation.  Its
half-width comes from Var(p̂) = Σ_h W_h²·p̂_h(1−p̂_h)/n_h.

Every decision is a pure function of (seed, profile, plan, rule, outcomes
so far), and the simulator is deterministic, so the same seed always stops
at the same injection — serial, parallel or resumed.  See
``docs/statistics.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.outcomes import Outcome, OutcomeRecord
from repro.core.report import OutcomeTally, z_value
from repro.errors import ParamError

SAMPLING_MODES = ("uniform", "stratified", "importance")

# A stratum must have this many observations before a stopping rule may
# fire in stratified/importance mode: a variance term estimated from one
# sample says nothing about the stratum.
MIN_STRATUM_SAMPLES = 2


@dataclass(frozen=True)
class StoppingRule:
    """Stop once the target outcome's CI half-width is tight enough.

    ``target_outcome`` accepts an :class:`~repro.core.outcomes.Outcome` or
    its string value (``"SDC"``, ``"DUE"``, ``"Masked"``).
    ``min_injections`` keeps the rule from firing on the degenerate
    intervals of tiny samples (p̂ = 0 at n = 3 has zero width).
    """

    target_outcome: Outcome = Outcome.SDC
    confidence: float = 0.95
    half_width: float = 0.05
    min_injections: int = 20

    def __post_init__(self) -> None:
        object.__setattr__(self, "target_outcome", Outcome(self.target_outcome))
        try:
            z_value(self.confidence)
        except ValueError as exc:
            raise ParamError(str(exc)) from None
        if not 0.0 < self.half_width < 0.5:
            raise ParamError(
                f"half-width must lie in (0, 0.5), got {self.half_width}"
            )
        if self.min_injections < 1:
            raise ParamError("min_injections must be >= 1")

    def fixed_n(self) -> int:
        """The fixed-N equivalent: worst-case (p = 0.5) sample size.

        This is how the paper's §IV-B table is produced (0.90/±8% → ~100,
        0.95/±3% → ~1000); an adaptive campaign can only stop at or under
        it, and stops much earlier whenever the observed rate is far from
        0.5.
        """
        z = z_value(self.confidence)
        return math.ceil((z / self.half_width) ** 2 * 0.25)

    def fingerprint(self) -> dict:
        return {
            "target_outcome": self.target_outcome.value,
            "confidence": self.confidence,
            "half_width": self.half_width,
            "min_injections": self.min_injections,
        }


@dataclass(frozen=True)
class SamplingPlan:
    """How each batch's fault sites are drawn.

    ``uniform`` reproduces the paper's Monte Carlo draw; ``stratified``
    keeps every static kernel sampled proportionally to its dynamic
    instruction share; ``importance`` steers each batch toward the strata
    with the highest observed target-outcome rate (the final estimate
    stays unbiased through per-site weights — see the module docstring).
    """

    mode: str = "uniform"
    batch_size: int = 25

    def __post_init__(self) -> None:
        if self.mode not in SAMPLING_MODES:
            raise ParamError(
                f"unknown sampling mode {self.mode!r}; "
                f"choose from {list(SAMPLING_MODES)}"
            )
        if self.batch_size < 1:
            raise ParamError("batch size must be >= 1")

    def fingerprint(self) -> dict:
        return {"mode": self.mode, "batch_size": self.batch_size}


@dataclass(frozen=True)
class Estimate:
    """A point estimate with its CI half-width (``None`` when n = 0)."""

    p_hat: float
    half_width: float | None
    n: int

    @property
    def low(self) -> float:
        return max(0.0, self.p_hat - (self.half_width or 0.0))

    @property
    def high(self) -> float:
        return min(1.0, self.p_hat + (self.half_width or 0.0))

    def describe(self) -> str:
        if self.half_width is None:
            return "n/a (no samples)"
        return (
            f"{self.p_hat * 100:.1f}% ±{self.half_width * 100:.1f} "
            f"[{self.low * 100:.1f}, {self.high * 100:.1f}] (n={self.n})"
        )


@dataclass
class StratumSummary:
    """One stratum's share of the campaign (for reports and span attrs)."""

    name: str
    weight: float  # population share W_h of the instruction group
    injections: int  # n_h actually drawn
    tally: OutcomeTally
    site_weight: float  # W_h / n_h (0.0 while unsampled)


@dataclass
class AdaptiveSummary:
    """What the adaptive drive loop decided, attached to the campaign result."""

    mode: str
    batch_size: int
    rule: StoppingRule | None
    budget: int
    injections: int
    batches: int
    stopped_early_at: int | None  # injection count at the stop, None if exhausted
    estimate: Estimate | None  # combined estimate of the rule's target outcome
    strata: list[StratumSummary] | None  # None in uniform mode
    weighted_tally: OutcomeTally | None  # stratified estimator; None in uniform

    @property
    def injections_saved(self) -> int:
        return self.budget - self.injections

    def describe(self) -> str:
        lines = [
            f"sampling={self.mode} batch_size={self.batch_size} "
            f"batches={self.batches} injections={self.injections}/{self.budget}"
        ]
        if self.rule is not None:
            verdict = (
                f"stopped early at {self.stopped_early_at} "
                f"({self.injections_saved} injections saved)"
                if self.stopped_early_at is not None
                else "budget exhausted before the rule was satisfied"
            )
            lines.append(
                f"rule: {self.rule.target_outcome.value} half-width "
                f"<= {self.rule.half_width} at {self.rule.confidence:.0%} "
                f"-> {verdict}"
            )
            if self.estimate is not None:
                lines.append(
                    f"{self.rule.target_outcome.value} estimate: "
                    f"{self.estimate.describe()}"
                )
        if self.strata:
            per = "  ".join(
                f"{s.name}={s.injections}" for s in self.strata
            )
            lines.append(f"per-stratum injections: {per}")
        return "\n".join(lines)


def _largest_remainder(quotas: dict[str, float], size: int) -> dict[str, int]:
    """Apportion ``size`` integer slots to real-valued quotas, deterministically.

    Classic largest-remainder: floor everything, then hand the leftover
    slots to the largest fractional parts (ties broken by quota order, which
    callers keep in profile launch order) — so the allocation is a pure
    function of its inputs.
    """
    total = sum(quotas.values())
    if total <= 0:
        names = list(quotas)
        return {
            name: size // len(names) + (1 if i < size % len(names) else 0)
            for i, name in enumerate(names)
        }
    scaled = {name: size * q / total for name, q in quotas.items()}
    alloc = {name: int(s) for name, s in scaled.items()}
    leftover = size - sum(alloc.values())
    order = sorted(
        scaled,
        key=lambda name: (scaled[name] - alloc[name], -list(scaled).index(name)),
        reverse=True,
    )
    for name in order[:leftover]:
        alloc[name] += 1
    return alloc


class AdaptiveState:
    """The deterministic decision sequence of one adaptive campaign.

    ``strata`` maps stratum name (static kernel) → dynamic instruction
    count of the campaign's instruction group, in profile launch order;
    pass ``None`` for uniform sampling.  Feed completed batches through
    :meth:`record` in index order; :meth:`allocate` and :meth:`should_stop`
    then depend only on the seed-deterministic history, so serial, parallel
    and resumed campaigns walk the identical decision sequence.
    """

    def __init__(
        self,
        plan: SamplingPlan,
        rule: StoppingRule | None,
        strata: dict[str, int] | None,
    ) -> None:
        self.plan = plan
        self.rule = rule
        total = sum(strata.values()) if strata else 0
        self.weights: dict[str, float] | None = (
            {name: count / total for name, count in strata.items()}
            if strata
            else None
        )
        self.tallies: dict[str, OutcomeTally] = (
            {name: OutcomeTally() for name in strata} if strata else {}
        )
        self.counts: dict[str, int] = (
            {name: 0 for name in strata} if strata else {}
        )
        self.overall = OutcomeTally()
        self.batches: list[dict] = []

    # -- allocation -------------------------------------------------------------

    @property
    def drawn(self) -> int:
        return self.overall.samples

    def allocate(self, size: int) -> dict[str, int] | None:
        """Slots per stratum for the next batch (``None`` = uniform draw)."""
        if self.weights is None:
            return None
        if self.plan.mode == "importance" and self.batches:
            return self._allocate_importance(size)
        return self._allocate_proportional(size)

    def _allocate_proportional(self, size: int) -> dict[str, int]:
        """Cumulative-deficit proportional allocation.

        Targeting ``W_h * (drawn + size)`` cumulative samples per stratum
        (rather than ``W_h * size`` per batch) self-corrects rounding:
        a stratum short-changed in one batch accumulates deficit and is
        repaid in the next, so even tiny strata get sampled eventually.
        """
        target_total = self.drawn + size
        deficits = {
            name: max(0.0, weight * target_total - self.counts[name])
            for name, weight in self.weights.items()
        }
        return _largest_remainder(deficits, size)

    def _allocate_importance(self, size: int) -> dict[str, int]:
        """Steer the batch toward strata with the highest observed rate.

        Score = W_h · (s_h + 1)/(n_h + 2): the Laplace-smoothed observed
        target-outcome rate times the population share, so a stratum twice
        as SDC-prone gets roughly twice the budget while unobserved strata
        keep a non-zero prior.  Unsampled strata are seeded with one slot
        first — an estimator term can't stay unknown forever.
        """
        target = (self.rule or StoppingRule()).target_outcome
        alloc = {name: 0 for name in self.weights}
        remaining = size
        for name in self.weights:
            if remaining == 0:
                break
            if self.counts[name] == 0:
                alloc[name] += 1
                remaining -= 1
        if remaining:
            scores = {}
            for name, weight in self.weights.items():
                n_h = self.counts[name] + alloc[name]
                s_h = self.tallies[name].counts[target]
                scores[name] = weight * (s_h + 1.0) / (n_h + 2.0)
            extra = _largest_remainder(scores, remaining)
            for name, slots in extra.items():
                alloc[name] += slots
        return {name: slots for name, slots in alloc.items()}

    # -- recording --------------------------------------------------------------

    def record(self, kernel_name: str, outcome: OutcomeRecord) -> None:
        """Fold one classified injection (in index order) into the tallies."""
        self.overall.add(outcome)
        if self.weights is not None:
            if kernel_name not in self.tallies:
                raise ParamError(
                    f"injection targeted kernel {kernel_name!r} outside the "
                    "campaign's strata; the profile and plan disagree"
                )
            self.tallies[kernel_name].add(outcome)
            self.counts[kernel_name] += 1

    def record_batch(
        self, start: int, size: int, allocation: dict[str, int] | None
    ) -> dict:
        entry = {"start": start, "size": size, "allocation": allocation}
        self.batches.append(entry)
        return entry

    # -- estimation -------------------------------------------------------------

    def estimate(self, outcome: Outcome, confidence: float) -> Estimate:
        """Combined estimate of ``outcome``'s fraction with its CI half-width."""
        n = self.drawn
        if n == 0:
            return Estimate(p_hat=0.0, half_width=None, n=0)
        z = z_value(confidence)
        if self.weights is None:
            p_hat = self.overall.fraction(outcome)
            half = z * math.sqrt(p_hat * (1.0 - p_hat) / n)
            return Estimate(p_hat=p_hat, half_width=half, n=n)
        # Stratified estimator over the sampled strata; unsampled strata
        # fall back to the overall mean for the point estimate and to the
        # worst case (p(1-p) = 0.25 at one pseudo-sample) for the variance,
        # so an unseen stratum widens the interval instead of vanishing.
        overall_p = self.overall.fraction(outcome)
        p_hat = 0.0
        variance = 0.0
        for name, weight in self.weights.items():
            n_h = self.counts[name]
            if n_h:
                p_h = self.tallies[name].fraction(outcome)
                p_hat += weight * p_h
                variance += weight**2 * p_h * (1.0 - p_h) / n_h
            else:
                p_hat += weight * overall_p
                variance += weight**2 * 0.25
        return Estimate(
            p_hat=p_hat, half_width=z * math.sqrt(variance), n=n
        )

    def should_stop(self) -> bool:
        """Is the stopping rule satisfied at this batch boundary?"""
        if self.rule is None:
            return False
        if self.drawn < self.rule.min_injections:
            return False
        if self.weights is not None and any(
            n_h < MIN_STRATUM_SAMPLES for n_h in self.counts.values()
        ):
            return False
        current = self.estimate(
            self.rule.target_outcome, self.rule.confidence
        )
        return (
            current.half_width is not None
            and current.half_width <= self.rule.half_width
        )

    # -- final accounting -------------------------------------------------------

    def site_weights(self) -> dict[str, float] | None:
        """Per-site weight by stratum: W_h / n_h (``None`` in uniform mode).

        Weighting every site in stratum *h* by ``W_h / n_h`` makes the
        weighted tally's fractions equal the stratified estimator
        Σ_h W_h·p̂_h — the allocation (however steered) cancels out, which
        is what keeps importance sampling unbiased.
        """
        if self.weights is None:
            return None
        return {
            name: (self.weights[name] / n_h if n_h else 0.0)
            for name, n_h in self.counts.items()
        }

    def summary(
        self, budget: int, stopped_early_at: int | None
    ) -> AdaptiveSummary:
        strata = None
        weighted = None
        if self.weights is not None:
            site_weights = self.site_weights() or {}
            strata = [
                StratumSummary(
                    name=name,
                    weight=weight,
                    injections=self.counts[name],
                    tally=self.tallies[name],
                    site_weight=site_weights[name],
                )
                for name, weight in self.weights.items()
            ]
            weighted = OutcomeTally()
            for name, tally in self.tallies.items():
                weight = site_weights[name]
                for outcome in Outcome:
                    weighted.counts[outcome] += weight * tally.counts[outcome]
                weighted.potential_due += weight * tally.potential_due
                weighted.total += weight * tally.total
                weighted.samples += tally.samples
        estimate = None
        if self.rule is not None and self.drawn:
            estimate = self.estimate(
                self.rule.target_outcome, self.rule.confidence
            )
        return AdaptiveSummary(
            mode=self.plan.mode,
            batch_size=self.plan.batch_size,
            rule=self.rule,
            budget=budget,
            injections=self.drawn,
            batches=len(self.batches),
            stopped_early_at=stopped_early_at,
            estimate=estimate,
            strata=strata,
            weighted_tally=weighted,
        )

    def fingerprint(
        self, budget: int, seed: int, group: str, model: str
    ) -> dict:
        """What a resumed campaign must match to continue this decision tape."""
        return {
            "plan": self.plan.fingerprint(),
            "rule": self.rule.fingerprint() if self.rule else None,
            "budget": budget,
            "seed": seed,
            "group": group,
            "model": model,
            "strata": list(self.weights) if self.weights else None,
        }


@dataclass
class AdaptiveCheckpoint:
    """The persisted adaptive state (``adaptive.json`` in a campaign store).

    Every decision is re-derivable from the seed and the stored outcomes,
    so the checkpoint's role is *verification*: a resumed campaign replays
    its decision sequence and cross-checks each batch against the stored
    tape, failing loudly if the configuration drifted instead of silently
    producing a differently-sized campaign.
    """

    fingerprint: dict
    batches: list[dict] = field(default_factory=list)
    stopped_early_at: int | None = None

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "batches": self.batches,
            "stopped_early_at": self.stopped_early_at,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "AdaptiveCheckpoint":
        return cls(
            fingerprint=doc.get("fingerprint", {}),
            batches=list(doc.get("batches", [])),
            stopped_early_at=doc.get("stopped_early_at"),
        )
