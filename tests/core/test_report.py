"""Statistics tests: confidence intervals (the paper's §IV-B claims)."""

import pytest

from repro.core.outcomes import Outcome, OutcomeRecord
from repro.core.report import (
    OutcomeTally,
    confidence_interval,
    error_margin,
    read_results_csv,
    render_ci_report,
    stratum_tallies_from_results,
    summarize_tally,
    tally_from_results,
    z_value,
)
from repro.errors import ReproError


class TestPaperClaims:
    def test_100_injections_90_confidence_8_percent(self):
        """'100 injections provide results with 90% confidence intervals and
        +-8% error margins' (paper §IV-B)."""
        assert error_margin(100, confidence=0.90) == pytest.approx(0.08, abs=0.003)

    def test_1000_injections_95_confidence_3_percent(self):
        """'1000 injections are necessary to obtain results with 95%
        confidence intervals and +-3% error margins'."""
        assert error_margin(1000, confidence=0.95) == pytest.approx(0.03, abs=0.002)


class TestConfidenceInterval:
    def test_interval_contains_estimate(self):
        low, high = confidence_interval(0.3, 100)
        assert low < 0.3 < high

    def test_interval_clipped_to_unit_range(self):
        low, _ = confidence_interval(0.01, 10)
        _, high = confidence_interval(0.99, 10)
        assert low == 0.0 and high == 1.0

    def test_narrower_with_more_samples(self):
        low_small, high_small = confidence_interval(0.5, 100)
        low_big, high_big = confidence_interval(0.5, 10_000)
        assert high_big - low_big < high_small - low_small

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            confidence_interval(0.5, 0)
        with pytest.raises(ValueError):
            confidence_interval(1.5, 10)
        with pytest.raises(ValueError):
            confidence_interval(0.5, 10, confidence=0.0)
        with pytest.raises(ValueError):
            confidence_interval(0.5, 10, confidence=1.0)
        with pytest.raises(ValueError):
            confidence_interval(0.5, 10, confidence=1.5)


class TestZValue:
    def test_paper_table_values_pinned(self):
        """Regression for the exact inverse normal: the historic four-entry
        table's values must reproduce to 4 decimal places."""
        assert z_value(0.80) == pytest.approx(1.2816, abs=5e-5)
        assert z_value(0.90) == pytest.approx(1.6449, abs=5e-5)
        assert z_value(0.95) == pytest.approx(1.9600, abs=5e-5)
        assert z_value(0.99) == pytest.approx(2.5758, abs=5e-5)

    def test_arbitrary_levels_now_supported(self):
        """Regression: 0.85 / 0.975 used to raise out of the table lookup."""
        assert z_value(0.85) == pytest.approx(1.4395, abs=5e-5)
        assert z_value(0.975) == pytest.approx(2.2414, abs=5e-5)
        assert z_value(0.90) < z_value(0.911) < z_value(0.95)

    def test_out_of_range_rejected(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError, match="strictly between"):
                z_value(bad)


class TestOutcomeTally:
    def _record(self, outcome, potential=False):
        return OutcomeRecord(outcome, "x", potential_due=potential)

    def test_fractions(self):
        tally = OutcomeTally()
        for _ in range(3):
            tally.add(self._record(Outcome.SDC))
        tally.add(self._record(Outcome.DUE))
        for _ in range(6):
            tally.add(self._record(Outcome.MASKED))
        assert tally.fraction(Outcome.SDC) == 0.3
        assert tally.fraction(Outcome.DUE) == 0.1
        assert tally.fraction(Outcome.MASKED) == 0.6

    def test_weighted_add(self):
        tally = OutcomeTally()
        tally.add(self._record(Outcome.SDC), weight=0.1)
        tally.add(self._record(Outcome.DUE), weight=0.2)
        assert tally.fraction(Outcome.DUE) == pytest.approx(2 / 3)

    def test_potential_due_tracked(self):
        tally = OutcomeTally()
        tally.add(self._record(Outcome.MASKED, potential=True))
        tally.add(self._record(Outcome.MASKED))
        assert tally.potential_due_fraction() == 0.5

    def test_merge(self):
        a, b = OutcomeTally(), OutcomeTally()
        a.add(self._record(Outcome.SDC))
        b.add(self._record(Outcome.MASKED))
        merged = a.merge(b)
        assert merged.total == 2
        assert merged.fraction(Outcome.SDC) == 0.5

    def test_empty_tally(self):
        tally = OutcomeTally()
        assert tally.fraction(Outcome.SDC) == 0.0
        assert tally.potential_due_fraction() == 0.0

    def test_report_text(self):
        tally = OutcomeTally()
        for _ in range(10):
            tally.add(self._record(Outcome.SDC))
        text = tally.report(samples=10)
        assert "SDC=100.0%" in text
        assert "[" in text  # confidence bounds present

    def test_empty_tally_reports_na(self):
        """Regression: a zero-sample tally (an interrupted campaign's empty
        partial results) used to raise out of confidence_interval."""
        text = OutcomeTally().report()
        assert text == "SDC=n/a  DUE=n/a  Masked=n/a"

    def test_report_with_explicit_zero_samples(self):
        tally = OutcomeTally()
        tally.add(self._record(Outcome.SDC))
        assert "n/a" in tally.report(samples=0)

    @pytest.mark.parametrize("last_weight", [0.2499, 0.25])
    def test_weighted_tally_intervals_use_sample_count(self, last_weight):
        """Regression: a permanent campaign's weights sum to about 1, and
        n used to be int(weight sum) — 0.9999 gave n = 0 and an all-n/a
        report, exactly 1.0 gave n = 1.  n is the number of runs."""
        tally = OutcomeTally()
        for outcome, weight in (
            (Outcome.SDC, 0.25), (Outcome.MASKED, 0.25),
            (Outcome.MASKED, 0.25), (Outcome.DUE, last_weight),
        ):
            tally.add(self._record(outcome), weight=weight)
        assert tally.samples == 4
        low, high = confidence_interval(tally.fraction(Outcome.SDC), 4, 0.90)
        assert (
            f"SDC={tally.fraction(Outcome.SDC) * 100:.1f}% "
            f"[{low * 100:.1f}, {high * 100:.1f}]"
        ) in tally.report()
        summary = summarize_tally(tally, confidence=0.90)
        assert summary["n"] == 4
        assert summary["ci"]["SDC"] == [low, high]

    def test_merge_sums_samples(self):
        a, b = OutcomeTally(), OutcomeTally()
        a.add(self._record(Outcome.SDC), weight=0.6)
        b.add(self._record(Outcome.MASKED), weight=0.3999)
        b.add(self._record(Outcome.MASKED), weight=0.0001)
        assert a.merge(b).samples == 3


_CSV_HEADER = (
    "index,kernel,kernel_count,instruction_count,group,model,outcome,"
    "symptom,potential_due,injected,instructions\n"
)


def _write_results(tmp_path, rows=""):
    path = tmp_path / "results.csv"
    path.write_text(_CSV_HEADER + rows)
    return path


_ROWS = (
    "0,heat_step,0,10,G_GP,FLIP_SINGLE_BIT,SDC,output diff,False,True,100\n"
    "1,heat_step,1,20,G_GP,FLIP_SINGLE_BIT,Masked,,True,True,100\n"
    "2,field_copy,0,30,G_GP,FLIP_SINGLE_BIT,DUE,trap,False,True,50\n"
)


class TestResultsCsvReaders:
    def test_reads_file_or_store_directory(self, tmp_path):
        path = _write_results(tmp_path, _ROWS)
        assert len(read_results_csv(path)) == 3
        assert len(read_results_csv(tmp_path)) == 3  # directory resolves

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ReproError, match="no results.csv"):
            read_results_csv(tmp_path / "nowhere")

    def test_tally_from_results(self, tmp_path):
        rows = read_results_csv(_write_results(tmp_path, _ROWS))
        tally = tally_from_results(rows)
        assert tally.total == 3
        assert tally.fraction(Outcome.SDC) == pytest.approx(1 / 3)
        assert tally.potential_due == 1

    def test_stratum_tallies_keyed_by_kernel(self, tmp_path):
        rows = read_results_csv(_write_results(tmp_path, _ROWS))
        strata = stratum_tallies_from_results(rows)
        assert set(strata) == {"heat_step", "field_copy"}
        assert strata["heat_step"].total == 2
        assert strata["field_copy"].fraction(Outcome.DUE) == 1.0


class TestRenderCiReport:
    def test_overall_and_per_stratum_rows(self, tmp_path):
        _write_results(tmp_path, _ROWS)
        out = render_ci_report(tmp_path, confidence=0.95)
        assert "confidence level: 95%" in out
        assert "(all)" in out
        assert "heat_step" in out and "field_copy" in out
        assert "[" in out  # intervals rendered

    def test_empty_results_render_na_not_crash(self, tmp_path):
        """Regression: n == 0 partial tallies must render n/a, not raise."""
        _write_results(tmp_path)
        out = render_ci_report(tmp_path)
        assert "n/a" in out
        assert "no completed injections" in out
