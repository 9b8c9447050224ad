"""Unit tests for the simulation clock: the step grid and the wake rule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.clock import (
    HOUR,
    MINUTE,
    SECONDS_PER_DAY,
    SECONDS_PER_WEEK,
    SimClock,
    reached,
    step_time,
)


class TestConstants:
    def test_minute(self):
        assert MINUTE == 60

    def test_hour(self):
        assert HOUR == 3600

    def test_day(self):
        assert SECONDS_PER_DAY == 86400

    def test_week(self):
        assert SECONDS_PER_WEEK == 7 * 86400


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock(60.0, 10.0).time(0) == 0.0

    def test_custom_start(self):
        assert SimClock(60.0, 10.0, start=100.0).time(0) == 100.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError, match="start"):
            SimClock(60.0, 10.0, start=-1.0)

    def test_hour_property(self):
        clock = SimClock(HOUR, MINUTE, start=2.5 * HOUR)
        assert clock.hour(0) == 2

    def test_hour_of_day_wraps(self):
        # The step's hour counts on past midnight; its hour of day,
        # the remainder controllers read, wraps.
        clock = SimClock(3 * HOUR, HOUR, start=22 * HOUR)
        hours = [clock.hour(i) for i in range(clock.n)]
        assert hours == [22, 23, 24]
        assert [hour % 24 for hour in hours] == [22, 23, 0]

    def test_day_property(self):
        clock = SimClock(HOUR, MINUTE, start=3 * SECONDS_PER_DAY + 5)
        assert clock.day(0) == 3

    def test_repr_mentions_day_and_hour(self):
        clock = SimClock(HOUR, MINUTE, start=SECONDS_PER_DAY + 3 * HOUR)
        text = repr(clock)
        assert "day=1" in text
        assert "hour_of_day=3" in text


class TestNonFiniteTime:
    """NaN compares False with everything, so ``start < 0`` lets it
    through; infinity is no time either."""

    @pytest.mark.parametrize("start", [float("nan"), float("inf")])
    def test_non_finite_start_rejected(self, start):
        with pytest.raises(ValueError, match="start"):
            SimClock(60.0, 10.0, start=start)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_duration_and_step_rejected(self, bad):
        with pytest.raises(ValueError, match="duration_seconds"):
            SimClock(bad, 10.0)
        with pytest.raises(ValueError, match="step_seconds"):
            SimClock(60.0, bad)


class TestStepGrid:
    def test_step_time_is_start_plus_index_times_step(self):
        assert step_time(3, 0.1) == 3 * 0.1
        assert step_time(3, 0.1, start=0.2) == 0.2 + 3 * 0.1
        assert step_time(np.arange(4), 0.1, start=0.2).tolist() == [
            step_time(i, 0.1, start=0.2) for i in range(4)
        ]

    def test_times_equal_index_times_step_not_a_running_sum(self):
        clock = SimClock(1.0, 0.1)
        # A running sum reaches 0.9999999999999999 on step 10, short of
        # the end: the grid has no such step.
        assert clock.n == 10
        assert np.array_equal(clock.times(), 0.1 * np.arange(10))

    def test_partial_last_step_counts(self):
        assert SimClock(25.0, 10.0).n == 3
        assert SimClock(30.0, 10.0).n == 3

    def test_count_from_a_nonzero_start(self):
        # 0.2 + 7 * 0.3 rounds to the end itself, so step 7 is not in
        # the run.
        clock = SimClock(2.1, 0.3, start=0.2)
        assert clock.n == 7
        assert clock.times().tolist() == [clock.time(i) for i in range(7)]

    def test_whole_second_grid_is_the_running_sum(self):
        clock = SimClock(48 * HOUR, 300.0, start=600.0)
        now, times = 600.0, []
        while now < 600.0 + 48 * HOUR:
            times.append(now)
            now += 300.0
        assert clock.times().tolist() == times

    @given(
        duration=st.floats(min_value=1e-3, max_value=1e5),
        step=st.floats(min_value=1e-2, max_value=1e4),
        start=st.floats(min_value=0.0, max_value=1e6),
    )
    @settings(max_examples=200, deadline=None)
    def test_count_is_the_grid_times_before_the_end(
        self, duration, step, start
    ):
        clock = SimClock(duration, step, start)
        end = start + duration
        assert clock.n == 0 or clock.time(clock.n - 1) < end
        assert clock.time(clock.n) >= end


class TestReached:
    def test_tolerance(self):
        assert reached(10.0, 10.0)
        assert reached(10.0 - 1e-10, 10.0)
        assert not reached(10.0 - 1e-8, 10.0)
        assert not reached(10.0, float("inf"))

    def test_vector_matches_scalar(self):
        at = np.array([0.0, 0.3, 0.3 + 5e-10, 0.3 + 2e-9, np.inf, -np.inf])
        t = 0.1 + 0.2
        assert reached(t, at).tolist() == [reached(t, a) for a in at.tolist()]
        assert reached(t, at).tolist() == [True, True, True, False, False, True]
