"""Tests for the §6.1 predictors on synthetic drifting hourly series."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads.generator import HPCloudWorkloadGenerator
from repro.workloads.predictability import (
    HOURS_PER_DAY,
    combined_predictor,
    evaluate_predictability,
    previous_hour_predictor,
    time_of_day_predictor,
)


class TestPredictorFunctions:
    def test_previous_hour_is_last_value(self):
        series = [10.0, 20.0, 40.0]
        assert previous_hour_predictor(series, 2) == 20.0
        assert previous_hour_predictor(series, 1) == 10.0

    def test_previous_hour_has_no_history_at_zero(self):
        assert previous_hour_predictor([10.0], 0) is None

    def test_time_of_day_averages_same_hour_of_prior_days(self):
        # Hour 50 is hour 2 of day 2; prior same-hour samples are hours 2
        # and 26.
        series = [0.0] * 72
        series[2] = 10.0
        series[26] = 30.0
        assert time_of_day_predictor(series, 50) == pytest.approx(20.0)

    def test_time_of_day_needs_a_full_day(self):
        assert time_of_day_predictor([1.0] * 10, 5) is None

    def test_combined_is_mean_of_both(self):
        series = [0.0] * 72
        series[2] = 10.0
        series[26] = 30.0
        series[49] = 6.0
        # previous-hour at 50 is series[49] = 6, time-of-day is 20.
        assert combined_predictor(series, 50) == pytest.approx(13.0)

    def test_combined_falls_back_to_available_component(self):
        series = [10.0, 20.0, 30.0]
        # No full day of history: only the previous-hour component exists.
        assert combined_predictor(series, 2) == pytest.approx(20.0)

    def test_short_histories_equal_np_mean_to_the_last_bit(self):
        """One- and two-element histories skip ``np.mean``; the value must
        be the very float ``np.mean`` returns (sessions are compared by
        digest), across magnitudes and for the longer histories too."""
        rng = np.random.default_rng(0)
        for scale in (1e-3, 1.0, 1e9):
            series = (rng.lognormal(sigma=2.0, size=4 * HOURS_PER_DAY) * scale).tolist()
            for hour in range(1, len(series)):
                same_hour = series[hour % HOURS_PER_DAY : hour : HOURS_PER_DAY]
                time_of_day = time_of_day_predictor(series, hour)
                if not same_hour:
                    assert time_of_day is None
                    assert combined_predictor(series, hour) == series[hour - 1]
                    continue
                assert time_of_day == float(np.mean(same_hour))
                assert combined_predictor(series, hour) == float(
                    np.mean([series[hour - 1], time_of_day])
                )
        pairs = rng.lognormal(sigma=3.0, size=(20_000, 2)) * 1e6
        for a, b in pairs.tolist():
            assert combined_predictor([a] * HOURS_PER_DAY + [b], 25) == float(
                np.mean([b, a])
            )


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
