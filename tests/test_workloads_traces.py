"""Unit tests for the synthetic traces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.clock import HOUR
from repro.workloads.request_mix import CASSANDRA_UPDATE_HEAVY
from repro.workloads.traces import (
    DAYS_PER_WEEK,
    HOTMAIL_LEVELS,
    HOTMAIL_SURGE_LOAD,
    HOURS_PER_DAY,
    MESSENGER_LEVELS,
    TRACE_HOURS,
    DaySchedule,
    LoadTrace,
    synthetic_hotmail_trace,
    synthetic_messenger_trace,
)

MIX = CASSANDRA_UPDATE_HEAVY


class TestDaySchedule:
    def test_level_indices_cover_day(self):
        schedule = DaySchedule(segments=((0, 0), (6, 1), (20, 0)))
        levels = schedule.level_indices()
        assert levels.shape == (24,)
        assert list(levels[:6]) == [0] * 6
        assert list(levels[6:20]) == [1] * 14
        assert list(levels[20:]) == [0] * 4

    def test_must_start_at_midnight(self):
        with pytest.raises(ValueError):
            DaySchedule(segments=((1, 0),))

    def test_starts_must_increase(self):
        with pytest.raises(ValueError):
            DaySchedule(segments=((0, 0), (5, 1), (3, 2)))

    def test_shifted_moves_boundary(self):
        schedule = DaySchedule(segments=((0, 0), (6, 1), (20, 0)))
        shifted = schedule.shifted({1: 2})
        assert shifted.segments[1] == (8, 1)

    def test_shifted_clamps_to_increasing(self):
        schedule = DaySchedule(segments=((0, 0), (6, 1), (7, 2)))
        shifted = schedule.shifted({1: 5})
        starts = [s for s, _ in shifted.segments]
        assert starts == sorted(set(starts))

    def test_shift_of_segment_zero_rejected(self):
        schedule = DaySchedule(segments=((0, 0), (6, 1)))
        with pytest.raises(ValueError):
            schedule.shifted({0: 1})


class TestLoadTrace:
    def test_week_length(self):
        trace = synthetic_messenger_trace(MIX)
        assert trace.hours == DAYS_PER_WEEK * HOURS_PER_DAY

    def test_load_at_is_piecewise_constant(self):
        trace = synthetic_messenger_trace(MIX)
        assert trace.load_at(0.0) == trace.load_at(HOUR - 1.0)

    def test_load_at_beyond_trace_rejected(self):
        trace = synthetic_messenger_trace(MIX)
        with pytest.raises(ValueError):
            trace.load_at(trace.duration_seconds + 1.0)

    def test_negative_time_rejected(self):
        trace = synthetic_messenger_trace(MIX)
        with pytest.raises(ValueError):
            trace.load_at(-1.0)

    def test_workload_at_scales_by_peak_clients(self):
        trace = synthetic_messenger_trace(MIX, peak_clients=500.0)
        workload = trace.workload_at(0.0)
        assert workload.volume == pytest.approx(trace.load_at(0.0) * 500.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected_by_name(self, t):
        trace = synthetic_messenger_trace(MIX)
        for read in (trace.load_at, trace.workload_at):
            with pytest.raises(ValueError, match="non-finite trace time"):
                read(t)

    def test_day_slice_shape(self):
        trace = synthetic_messenger_trace(MIX)
        assert trace.day_slice(0).shape == (24,)

    def test_day_slice_out_of_range(self):
        trace = synthetic_messenger_trace(MIX)
        with pytest.raises(ValueError):
            trace.day_slice(7)

    def test_hourly_workloads(self):
        trace = synthetic_messenger_trace(MIX)
        workloads = trace.hourly_workloads(0)
        assert len(workloads) == 24

    def test_negative_load_rejected(self):
        with pytest.raises(ValueError):
            LoadTrace(name="bad", hourly_load=np.array([-0.1]), mix=MIX)


class TestMessengerTrace:
    def test_deterministic_given_seed(self):
        a = synthetic_messenger_trace(MIX, seed=3)
        b = synthetic_messenger_trace(MIX, seed=3)
        assert np.allclose(a.hourly_load, b.hourly_load)

    def test_different_seeds_differ(self):
        a = synthetic_messenger_trace(MIX, seed=3)
        b = synthetic_messenger_trace(MIX, seed=4)
        assert not np.allclose(a.hourly_load, b.hourly_load)

    def test_normalized_to_peak_one(self):
        trace = synthetic_messenger_trace(MIX)
        assert trace.hourly_load.max() <= 1.0

    def test_learning_day_has_four_levels(self):
        # Day 0 must expose all four plateaus so learning sees them.
        day0 = synthetic_messenger_trace(MIX, jitter_sd=0.0).day_slice(0)
        assert set(np.round(day0, 2)) == set(np.round(MESSENGER_LEVELS, 2))

    def test_peak_hour_is_rare_on_learning_day(self):
        day0 = synthetic_messenger_trace(MIX, jitter_sd=0.0).day_slice(0)
        assert np.sum(day0 == 1.0) == 1

    def test_days_differ_in_phase(self):
        # The transition-based generator must not produce identical days
        # (otherwise Autopilot would be optimal).
        trace = synthetic_messenger_trace(MIX)
        day1 = trace.day_slice(1)
        day2 = trace.day_slice(2)
        assert not np.allclose(day1, day2, atol=0.05)


class TestHotmailTrace:
    def test_three_levels_on_learning_day(self):
        day0 = synthetic_hotmail_trace(MIX, jitter_sd=0.0).day_slice(0)
        assert set(np.round(day0, 2)) == set(np.round(HOTMAIL_LEVELS, 2))

    def test_surge_is_present_on_day_four(self):
        trace = synthetic_hotmail_trace(MIX)
        day3 = trace.day_slice(3)
        assert np.sum(day3 == HOTMAIL_SURGE_LOAD) == 3

    def test_surge_exceeds_learned_levels(self):
        assert HOTMAIL_SURGE_LOAD > HOTMAIL_LEVELS.max() * 1.2

    def test_no_surge_on_learning_day(self):
        trace = synthetic_hotmail_trace(MIX)
        assert trace.day_slice(0).max() < HOTMAIL_SURGE_LOAD

    def test_anomaly_on_learning_day_rejected(self):
        with pytest.raises(ValueError):
            synthetic_hotmail_trace(MIX, anomaly_day=0)

    def test_anomaly_day_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            synthetic_hotmail_trace(MIX, anomaly_day=9)

    def test_custom_anomaly_hours(self):
        trace = synthetic_hotmail_trace(MIX, anomaly_hours=(5,))
        assert np.sum(trace.day_slice(3) == HOTMAIL_SURGE_LOAD) == 1


class TestWorkloadCache:
    """``workload_at`` builds each hour's workload once and shares it."""

    @pytest.mark.parametrize(
        "make", [synthetic_messenger_trace, synthetic_hotmail_trace]
    )
    def test_every_hour_matches_the_formula_and_is_shared(self, make):
        trace = make(MIX, peak_clients=731.0)
        for hour in range(trace.hours):
            start = hour * HOUR
            first = trace.workload_at(start)
            # The workload the uncached formula builds, bit for bit.
            assert first.volume == (
                float(trace.hourly_load[hour]) * trace.peak_clients
            )
            assert first.mix is trace.mix
            for t in (start + 1.0, start + HOUR / 2, start + HOUR - 1e-6):
                assert trace.workload_at(t) is first

    def test_cache_keeps_the_range_checks(self):
        trace = synthetic_hotmail_trace(MIX)
        trace.workload_at(0.0)
        with pytest.raises(ValueError, match="negative"):
            trace.workload_at(-1.0)
        with pytest.raises(ValueError, match="beyond"):
            trace.workload_at(trace.hours * HOUR)


class TestStudyLengthTraces:
    """A trace built for its first ``n_days`` days is the full week cut
    short: fleet studies build only the days they simulate."""

    @given(
        hotmail=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_days=st.integers(min_value=1, max_value=DAYS_PER_WEEK),
    )
    @settings(max_examples=40, deadline=None)
    def test_truncated_trace_is_a_prefix_of_the_week(self, hotmail, seed, n_days):
        make = synthetic_hotmail_trace if hotmail else synthetic_messenger_trace
        week = make(MIX, seed=seed)
        days = make(MIX, seed=seed, n_days=n_days)
        assert days.hours == HOURS_PER_DAY * n_days
        np.testing.assert_array_equal(
            days.hourly_load, week.hourly_load[: days.hours], strict=True
        )
        if hotmail:
            # Jittered plateaus clip at 1.0, so only the surge reaches
            # HOTMAIL_SURGE_LOAD; it is written only if day 3 is held.
            assert (HOTMAIL_SURGE_LOAD in days.hourly_load) == (n_days > 3)

    @pytest.mark.parametrize("n_days", [0, DAYS_PER_WEEK + 1])
    @pytest.mark.parametrize(
        "make", [synthetic_messenger_trace, synthetic_hotmail_trace]
    )
    def test_day_count_is_checked(self, make, n_days):
        with pytest.raises(ValueError, match="n_days"):
            make(MIX, n_days=n_days)

    def test_paper_setups_keep_the_full_week(self):
        from repro.experiments.setup import (
            build_scaleout_setup,
            build_scaleup_setup,
        )

        assert build_scaleout_setup().trace.hours == TRACE_HOURS
        assert build_scaleup_setup().trace.hours == TRACE_HOURS

    @pytest.mark.parametrize(
        ("hours", "days"), [(0.5, 1), (24.0, 1), (24.5, 2), (168.0, 7)]
    )
    def test_fleet_lanes_build_the_simulated_days(self, hours, days):
        from repro.core.repository import AllocationRepository
        from repro.experiments.multiplexing_study import (
            FleetConfig,
            _build_lane,
        )
        from repro.telemetry.streams import TelemetryStreams

        config = FleetConfig(n_lanes=2, hours=hours, mix="mixed", seed=4)
        for lane in range(2):
            setup = _build_lane(
                config, TelemetryStreams(4), AllocationRepository(), lane
            )
            assert setup.trace.hours == HOURS_PER_DAY * days
