"""Tests for the §6.1 predictors on synthetic drifting hourly series."""

import math

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads.generator import HPCloudWorkloadGenerator
from oracles import predictors as scalar
from repro.workloads.predictability import (
    HOURS_PER_DAY,
    PREDICTORS,
    _relative_error,
    evaluate_predictability,
    predict,
)


class TestPredictorFunctions:
    def test_previous_hour_is_last_value(self):
        series = [10.0, 20.0, 40.0]
        assert predict(series[:2], "previous-hour") == 20.0
        assert predict(series[:1], "previous-hour") == 10.0

    def test_previous_hour_has_no_history_at_zero(self):
        assert predict([], "previous-hour") is None
        assert predict([], "combined") is None

    def test_time_of_day_averages_same_hour_of_prior_days(self):
        # Hour 50 is hour 2 of day 2; prior same-hour samples are hours 2
        # and 26.
        series = [0.0] * 72
        series[2] = 10.0
        series[26] = 30.0
        assert predict(series[:50], "time-of-day") == pytest.approx(20.0)

    def test_time_of_day_needs_a_full_day(self):
        assert predict([1.0] * 5, "time-of-day") is None

    def test_combined_is_mean_of_both(self):
        series = [0.0] * 72
        series[2] = 10.0
        series[26] = 30.0
        series[49] = 6.0
        # previous-hour at 50 is series[49] = 6, time-of-day is 20.
        assert predict(series[:50], "combined") == pytest.approx(13.0)

    def test_combined_falls_back_to_available_component(self):
        # No full day of history: only the previous-hour component exists.
        assert predict([10.0, 20.0], "combined") == pytest.approx(20.0)

    def test_matrices_predict_entry_by_entry(self):
        """A history of matrices forecasts each entry as its own series."""
        rng = np.random.default_rng(4)
        stack = rng.lognormal(18.0, 2.0, size=(3 * HOURS_PER_DAY + 5, 2, 3))
        for name in PREDICTORS:
            for n in (1, 23, 24, 25, len(stack)):
                got = predict(list(stack[:n]), name)
                if got is None:  # time-of-day within the first day
                    assert predict(stack[:n, 0, 0], name) is None
                    continue
                for i in range(2):
                    for j in range(3):
                        assert got[i, j] == predict(stack[:n, i, j], name), (name, n)

    def test_unknown_predictor_is_refused_by_name(self):
        for name in ("stale", "oracle"):
            with pytest.raises(WorkloadError, match=name):
                predict([1.0], name)

    #: Nine days and a bit: the time-of-day mean reaches nine values.
    HOURS = HOURS_PER_DAY * 9 + 6
    #: The last hour whose time-of-day mean reads at most seven values, the
    #: regime where ``np.mean`` sums left to right.
    LAST_SEQUENTIAL_HOUR = 8 * HOURS_PER_DAY - 1

    def test_every_prefix_equals_the_scalar_predictors(self):
        """``predict`` on a list and on a 1-D array is ``==`` the scalar
        predictors of ``tests/oracles/predictors.py`` on every prefix,
        also past hour 191, where eight or nine same-hour values are
        summed and only a left-to-right sum agrees."""
        rng = np.random.default_rng(5)
        for scale in (1e-3, 1.0, 1e9):
            series = (rng.lognormal(sigma=2.0, size=self.HOURS) * scale).tolist()
            as_array = np.array(series)
            for hour in range(self.HOURS + 1):
                for name in PREDICTORS:
                    expected = scalar.PREDICTORS[name](series, hour)
                    assert predict(series[:hour], name) == expected, (name, hour)
                    assert predict(as_array[:hour], name) == expected, (name, hour)

    def test_the_oracle_is_np_mean_through_epoch_191(self):
        """The scalar oracle equals ``np.mean`` for every forecast through
        hour 191 (at most seven same-hour values).  Hour 192 reads eight,
        where ``np.mean`` sums pairwise and the two may part by an ulp."""
        rng = np.random.default_rng(11)
        for scale in (1e-3, 1.0, 1e9):
            series = (rng.lognormal(sigma=2.0, size=9 * HOURS_PER_DAY) * scale).tolist()
            for hour in range(1, self.LAST_SEQUENTIAL_HOUR + 1):
                same_hour = series[hour % HOURS_PER_DAY : hour : HOURS_PER_DAY]
                if not same_hour:
                    continue
                time_of_day = scalar.time_of_day_predictor(series, hour)
                assert time_of_day == float(np.mean(same_hour)), hour
                assert scalar.combined_predictor(series, hour) == float(
                    np.mean([series[hour - 1], time_of_day])
                )
        assert len(range(0, self.LAST_SEQUENTIAL_HOUR + 1, HOURS_PER_DAY)) == 8
        eight = [1e16] + [1.0] * 7
        assert scalar._mean(eight) != float(np.mean(eight))


class TestRelativeErrorDistributions:
    def test_hand_computed_errors_on_a_tiny_series(self):
        # Two days plus two hours; warmup of one day leaves hours 24..25.
        series = list(range(HOURS_PER_DAY)) + [100.0, 50.0]
        reports = evaluate_predictability([series], warmup_hours=HOURS_PER_DAY)

        # hour 24: actual 100, prev-hour predicts series[23] = 23 -> 0.77;
        # hour 25: actual 50, prev-hour predicts 100 -> 1.0.
        assert reports["previous-hour"].relative_errors == pytest.approx(
            [0.77, 1.0]
        )
        # hour 24: time-of-day predicts series[0] = 0 -> 1.0;
        # hour 25: predicts series[1] = 1 -> |50-1|/50 = 0.98.
        assert reports["time-of-day"].relative_errors == pytest.approx(
            [1.0, 0.98]
        )
        # combined: (23+0)/2 = 11.5 -> 0.885; (100+1)/2 = 50.5 -> 0.01.
        assert reports["combined"].relative_errors == pytest.approx(
            [0.885, 0.01]
        )
        assert reports["combined"].median_error == pytest.approx(0.4475)
        assert reports["combined"].mean_error == pytest.approx(0.4475)
        assert reports["combined"].fraction_within(0.5) == pytest.approx(0.5)

    def test_zero_traffic_hours_do_not_divide_by_zero(self):
        series = [0.0] * (HOURS_PER_DAY + 2)
        reports = evaluate_predictability([series])
        assert reports["previous-hour"].relative_errors == [0.0, 0.0]

    def test_short_series_are_skipped(self):
        reports = evaluate_predictability([[1.0, 2.0]])
        assert reports["combined"].n_predictions == 0

    def test_warmup_must_be_positive(self):
        with pytest.raises(WorkloadError):
            evaluate_predictability([[1.0] * 48], warmup_hours=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_bad_hourly_bytes_are_refused_by_series_and_hour(self, bad):
        """One NaN hour used to turn every report's median and mean into
        NaN; a negative hour passed silently."""
        good = [1e9] * 30
        series = list(good)
        series[27] = bad
        with pytest.raises(WorkloadError, match=r"series 1 hour 27 holds"):
            evaluate_predictability([good, series])

    def test_reports_equal_the_scalar_predictors(self):
        """On the 7-day dataset every relative error is the one the scalar
        predictors of ``tests/oracles/predictors.py`` give, in order."""
        data = HPCloudWorkloadGenerator(seed=3).generate_hourly_dataset(
            n_applications=4, n_hours=7 * HOURS_PER_DAY
        )
        reports = evaluate_predictability(data)
        for name, predictor in scalar.PREDICTORS.items():
            expected = [
                _relative_error(series[hour], predictor(series, hour))
                for series in data
                for hour in range(HOURS_PER_DAY, len(series))
            ]
            assert reports[name].relative_errors == expected, name


class TestCombinedBeatsComponentsOnDiurnalSeries:
    """The paper's claim: on diurnal traffic with noise, averaging the two
    predictors beats either alone (both median and mean relative error)."""

    @pytest.mark.parametrize("seed", [0, 7])
    def test_combined_wins_on_generated_dataset(self, seed):
        gen = HPCloudWorkloadGenerator(seed=seed)
        data = gen.generate_hourly_dataset(n_applications=12, n_hours=7 * 24)
        reports = evaluate_predictability(data)
        combined = reports["combined"]
        for other in ("previous-hour", "time-of-day"):
            assert combined.median_error < reports[other].median_error
            assert combined.mean_error < reports[other].mean_error

    def test_previous_hour_tracks_a_random_walk_best(self):
        # On a driftless random walk the time-of-day structure is absent, so
        # the previous hour alone is the better component.
        rng = np.random.default_rng(3)
        series = [1e9]
        for _ in range(6 * 24 - 1):
            series.append(max(series[-1] * float(rng.lognormal(0.0, 0.3)), 1.0))
        reports = evaluate_predictability([series])
        assert (
            reports["previous-hour"].median_error
            < reports["time-of-day"].median_error
        )
