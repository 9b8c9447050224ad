"""Unit tests for the cloud provider."""

import pickle

import pytest

from repro.cloud.instance_types import EXTRA_LARGE, LARGE
from repro.cloud.provider import Allocation, CloudProvider


class TestAllocation:
    def test_capacity_units(self):
        assert Allocation(count=4, itype=LARGE).capacity_units == 4.0

    def test_capacity_units_xlarge(self):
        alloc = Allocation(count=2, itype=EXTRA_LARGE)
        assert alloc.capacity_units == pytest.approx(3.8)

    def test_hourly_cost(self):
        assert Allocation(count=3, itype=LARGE).hourly_cost == pytest.approx(1.02)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            Allocation(count=-1)

    def test_ordering_by_capacity(self):
        assert Allocation(count=1, itype=LARGE) < Allocation(count=2, itype=LARGE)

    def test_str(self):
        assert str(Allocation(count=5, itype=LARGE)) == "5xm1.large"


class TestApply:
    def test_initial_allocation_is_empty(self):
        provider = CloudProvider(max_instances=10)
        assert provider.current_allocation == Allocation(count=0)

    def test_apply_starts_vms(self):
        provider = CloudProvider(max_instances=10)
        provider.apply(Allocation(count=3, itype=LARGE), now=0.0)
        assert provider.current_allocation.count == 3

    def test_warmup_delays_serving(self):
        provider = CloudProvider(max_instances=10)
        provider.apply(Allocation(count=3, itype=LARGE), now=0.0)
        assert provider.serving_capacity(0.0) == 0.0
        assert provider.serving_capacity(30.0) == pytest.approx(3.0)

    def test_scale_down_is_immediate(self):
        provider = CloudProvider(max_instances=10)
        provider.apply(Allocation(count=5, itype=LARGE), now=0.0)
        provider.tick(100.0)
        provider.apply(Allocation(count=2, itype=LARGE), now=100.0)
        assert provider.serving_capacity(100.0) == pytest.approx(2.0)

    def test_scale_up_keeps_existing_serving(self):
        provider = CloudProvider(max_instances=10)
        provider.apply(Allocation(count=2, itype=LARGE), now=0.0)
        provider.tick(100.0)
        provider.apply(Allocation(count=5, itype=LARGE), now=100.0)
        # Old 2 still serve while 3 more warm up.
        assert provider.serving_capacity(100.0) == pytest.approx(2.0)
        assert provider.serving_capacity(200.0) == pytest.approx(5.0)

    def test_type_switch_stops_old_pool(self):
        provider = CloudProvider(max_instances=5)
        provider.apply(Allocation(count=5, itype=LARGE), now=0.0)
        provider.tick(100.0)
        provider.apply(Allocation(count=5, itype=EXTRA_LARGE), now=100.0)
        provider.tick(200.0)
        assert provider.serving_capacity(200.0) == pytest.approx(5 * 1.9)

    def test_over_pool_rejected(self):
        provider = CloudProvider(max_instances=4)
        with pytest.raises(ValueError):
            provider.apply(Allocation(count=5, itype=LARGE), now=0.0)

    def test_unknown_type_rejected(self):
        provider = CloudProvider(max_instances=4, instance_types=(LARGE,))
        with pytest.raises(ValueError):
            provider.apply(Allocation(count=1, itype=EXTRA_LARGE), now=0.0)

    def test_last_change_tracked(self):
        provider = CloudProvider(max_instances=4)
        assert provider.last_change_at is None
        provider.apply(Allocation(count=1, itype=LARGE), now=42.0)
        assert provider.last_change_at == 42.0

    def test_equal_instance_type_copy_deploys(self):
        # An unpickled allocation carries an equal copy of the instance
        # type, not the module constant; it must start the same VMs.
        provider = CloudProvider(max_instances=4)
        copy = pickle.loads(pickle.dumps(LARGE))
        provider.apply(Allocation(count=2, itype=copy), now=0.0)
        assert provider.serving_capacity(10_000.0) == pytest.approx(2.0)

    def test_noop_apply_does_not_update_change_time(self):
        provider = CloudProvider(max_instances=4)
        provider.apply(Allocation(count=1, itype=LARGE), now=10.0)
        provider.apply(Allocation(count=1, itype=LARGE), now=20.0)
        assert provider.last_change_at == 10.0


class TestBilling:
    def test_billing_accumulates(self):
        provider = CloudProvider(max_instances=10)
        provider.apply(Allocation(count=2, itype=LARGE), now=0.0)
        provider.tick(3600.0)
        assert provider.meter.total_dollars == pytest.approx(2 * 0.34)

    def test_billing_follows_allocation_changes(self):
        provider = CloudProvider(max_instances=10)
        provider.apply(Allocation(count=2, itype=LARGE), now=0.0)
        provider.apply(Allocation(count=4, itype=LARGE), now=1800.0)
        provider.tick(3600.0)
        expected = 2 * 0.34 * 0.5 + 4 * 0.34 * 0.5
        assert provider.meter.total_dollars == pytest.approx(expected)

    def test_time_reversal_rejected(self):
        provider = CloudProvider(max_instances=10)
        provider.tick(100.0)
        with pytest.raises(ValueError):
            provider.tick(50.0)

    def test_empty_allocation_costs_nothing(self):
        provider = CloudProvider(max_instances=10)
        provider.tick(3600.0)
        assert provider.meter.total_dollars == 0.0


class TestProjectedCapacity:
    def test_projection_does_not_mutate(self):
        provider = CloudProvider(max_instances=10)
        provider.apply(Allocation(count=3, itype=LARGE), now=0.0)
        assert provider.capacity_at(100.0) == pytest.approx(3.0)
        # Billing was not advanced by the projection.
        assert provider.meter.total_dollars == 0.0

    def test_projection_respects_warmup(self):
        provider = CloudProvider(max_instances=10)
        provider.apply(Allocation(count=3, itype=LARGE), now=0.0)
        assert provider.capacity_at(0.0) == 0.0

    def test_full_capacity_helper(self):
        provider = CloudProvider(max_instances=7)
        assert provider.full_capacity() == Allocation(count=7, itype=LARGE)
