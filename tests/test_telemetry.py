"""Unit tests for the telemetry substrate."""

import numpy as np
import pytest

from repro.telemetry.counters import (
    HARDWARE_REGISTERS,
    CounterReading,
    HPCSampler,
)
from repro.telemetry.events import (
    ACTIVITY_DIMS,
    EVENT_CATALOGUE,
    TABLE1_EVENTS,
    HPCEvent,
    event_by_name,
    event_names,
)
from repro.telemetry.monitor import Monitor
from repro.telemetry.xentop import XENTOP_METRICS, XentopSampler
from repro.workloads.request_mix import CASSANDRA_UPDATE_HEAVY, RUBIS_BIDDING, Workload

WORKLOAD = Workload(volume=300.0, mix=CASSANDRA_UPDATE_HEAVY)


class TestEventCatalogue:
    def test_has_sixty_events(self):
        # "up to 60 different events can be monitored" on the X5472.
        assert len(EVENT_CATALOGUE) == 60

    def test_names_unique(self):
        names = event_names()
        assert len(set(names)) == len(names)

    def test_table1_events_present(self):
        for name in TABLE1_EVENTS:
            assert event_by_name(name) is not None

    def test_table1_has_eight_events(self):
        assert len(TABLE1_EVENTS) == 8

    def test_unknown_event_rejected(self):
        with pytest.raises(KeyError):
            event_by_name("no_such_event")

    def test_event_weight_arity_enforced(self):
        with pytest.raises(ValueError):
            HPCEvent(name="bad", weights=(1.0,), baseline=0.0, noise_sd=0.1)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            HPCEvent(
                name="bad",
                weights=tuple([0.0] * len(ACTIVITY_DIMS)),
                baseline=0.0,
                noise_sd=-0.1,
            )

    def test_rate_is_linear_in_intensity(self):
        event = event_by_name("cpu_clk_unhalted")
        activity = np.asarray(CASSANDRA_UPDATE_HEAVY.activity_vector())
        low = event.rate(activity, 1.0)
        high = event.rate(activity, 2.0)
        assert high - event.baseline == pytest.approx(2 * (low - event.baseline))


class TestHPCSampler:
    def test_full_catalogue_by_default(self):
        assert len(HPCSampler().monitored) == 60

    def test_multiplexing_flag(self):
        assert HPCSampler().multiplexed
        few = HPCSampler(events=list(TABLE1_EVENTS[:HARDWARE_REGISTERS]))
        assert not few.multiplexed

    def test_sample_returns_all_events(self):
        readings = HPCSampler().sample(WORKLOAD, 10.0)
        assert set(readings) == set(event_names())

    def test_counts_scale_with_window(self):
        sampler = HPCSampler(events=["cpu_clk_unhalted"], seed=1)
        short = sampler.sample(WORKLOAD, 1.0)["cpu_clk_unhalted"]
        long = sampler.sample(WORKLOAD, 100.0)["cpu_clk_unhalted"]
        assert long.count > short.count * 50

    def test_rate_normalization(self):
        reading = CounterReading(event="x", count=500.0, duration_seconds=10.0)
        assert reading.rate == pytest.approx(50.0)

    def test_rate_of_bad_window_rejected(self):
        reading = CounterReading(event="x", count=1.0, duration_seconds=0.0)
        with pytest.raises(ValueError):
            _ = reading.rate

    def test_zero_window_rejected(self):
        with pytest.raises(ValueError):
            HPCSampler().sample(WORKLOAD, 0.0)

    def test_interference_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            HPCSampler().sample(WORKLOAD, 10.0, interference=1.0)

    def test_interference_inflates_memory_events(self):
        clean_sampler = HPCSampler(events=["l2_ads"], seed=5)
        noisy_sampler = HPCSampler(events=["l2_ads"], seed=5)
        clean = np.mean(
            [clean_sampler.sample(WORKLOAD, 10.0)["l2_ads"].rate for _ in range(20)]
        )
        noisy = np.mean(
            [
                noisy_sampler.sample(WORKLOAD, 10.0, interference=0.2)["l2_ads"].rate
                for _ in range(20)
            ]
        )
        assert noisy > clean * 1.05

    def test_empty_event_list_rejected(self):
        with pytest.raises(ValueError):
            HPCSampler(events=[])

    def test_deterministic_given_seed(self):
        a = HPCSampler(seed=9).sample(WORKLOAD, 10.0)
        b = HPCSampler(seed=9).sample(WORKLOAD, 10.0)
        assert a["l2_st"].count == b["l2_st"].count


class TestXentop:
    def test_metric_names(self):
        sample = XentopSampler().sample(WORKLOAD)
        assert set(sample) == set(XENTOP_METRICS)

    def test_cpu_capped_at_100(self):
        sample = XentopSampler(capacity_units=0.5).sample(WORKLOAD)
        assert sample["xentop_cpu_percent"] <= 102.0  # cap + 2% noise

    def test_io_scales_with_volume(self):
        sampler = XentopSampler(seed=2)
        small = sampler.sample(Workload(volume=50.0, mix=RUBIS_BIDDING))
        big = sampler.sample(Workload(volume=500.0, mix=RUBIS_BIDDING))
        assert big["xentop_vbd_io_ops"] > small["xentop_vbd_io_ops"] * 5

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            XentopSampler(capacity_units=0.0)


class TestMonitor:
    def test_collect_merges_sources(self):
        metrics = Monitor().collect(WORKLOAD)
        assert set(metrics) == set(event_names()) | set(XENTOP_METRICS)

    def test_metric_names_order_stable(self):
        monitor = Monitor()
        assert monitor.metric_names() == monitor.metric_names()

    def test_default_window_is_papers_ten_seconds(self):
        # The ~10 s adaptation time is the signature collection window.
        assert Monitor().window_seconds == 10.0

    def test_normalization_makes_windows_comparable(self):
        # Sec. 3.3: values are normalized by sampling time, so a 5 s
        # and a 50 s collection yield comparable signatures.
        monitor = Monitor(hpc=HPCSampler(seed=3))
        short = monitor.collect(WORKLOAD, window_seconds=5.0)
        long = monitor.collect(WORKLOAD, window_seconds=50.0)
        assert short["cpu_clk_unhalted"] == pytest.approx(
            long["cpu_clk_unhalted"], rel=0.15
        )

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            Monitor(window_seconds=0.0)


#: Windows beyond the zero and negative ones the samplers must refuse:
#: a NaN window makes 60 of a collection's 65 readings NaN.
BAD_WINDOWS = [float("nan"), float("inf")]


@pytest.mark.parametrize("window", BAD_WINDOWS)
class TestNonFiniteWindow:
    def test_monitor_construction(self, window):
        with pytest.raises(ValueError, match="positive and finite"):
            Monitor(window_seconds=window)

    def test_collect(self, window):
        with pytest.raises(ValueError, match="positive and finite"):
            Monitor().collect(WORKLOAD, window_seconds=window)

    def test_collect_matrix(self, window):
        monitor = Monitor()
        with pytest.raises(ValueError, match="positive and finite"):
            monitor.collect_matrix(
                [WORKLOAD], monitors=[monitor], window_seconds=window
            )

    def test_sampler(self, window):
        with pytest.raises(ValueError, match="positive and finite"):
            HPCSampler().sample(WORKLOAD, window)

    def test_reading_rate(self, window):
        reading = CounterReading(event="x", count=1.0, duration_seconds=window)
        with pytest.raises(ValueError, match="positive and finite"):
            _ = reading.rate
