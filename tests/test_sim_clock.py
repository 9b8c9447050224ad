"""Unit tests for the simulation clock."""

import pytest

from repro.sim.clock import HOUR, MINUTE, SECONDS_PER_DAY, SECONDS_PER_WEEK, SimClock


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
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(100.0).now == 100.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(-1.0)

    def test_advance_moves_forward(self):
        clock = SimClock()
        clock.advance(30.0)
        assert clock.now == 30.0

    def test_advance_returns_new_time(self):
        clock = SimClock(10.0)
        assert clock.advance(5.0) == 15.0

    def test_advance_rejects_negative(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.advance(-1.0)

    def test_advance_zero_is_allowed(self):
        clock = SimClock(5.0)
        clock.advance(0.0)
        assert clock.now == 5.0

    def test_hour_property(self):
        clock = SimClock(2.5 * HOUR)
        assert clock.hour == 2

    def test_hour_of_day_wraps(self):
        clock = SimClock(26 * HOUR)
        assert clock.hour_of_day == 2

    def test_day_property(self):
        clock = SimClock(3 * SECONDS_PER_DAY + 5)
        assert clock.day == 3

    def test_repr_mentions_day_and_hour(self):
        clock = SimClock(SECONDS_PER_DAY + 3 * HOUR)
        text = repr(clock)
        assert "day=1" in text
        assert "hour_of_day=3" in text


class TestNonFiniteTime:
    """NaN compares False with everything, so ``start < 0`` and
    ``seconds < 0`` let it through; infinity is no time either."""

    @pytest.mark.parametrize("start", [float("nan"), float("inf")])
    def test_non_finite_start_rejected(self, start):
        with pytest.raises(ValueError, match="start"):
            SimClock(start)

    @pytest.mark.parametrize("seconds", [float("nan"), float("inf")])
    def test_non_finite_advance_rejected(self, seconds):
        clock = SimClock(5.0)
        with pytest.raises(ValueError, match="seconds"):
            clock.advance(seconds)
        assert clock.now == 5.0
