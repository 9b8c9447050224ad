"""The service row hooks grade many instances exactly like the scalar
path.

:func:`~repro.services.base.performance_rows` feeds the fleet family
observers, and :func:`~repro.services.base.slo_met_rows` is the batched
landing pass's post-deploy SLO pre-check
(:meth:`~repro.core.manager.DejaVuManager.post_deploy_slo_met`): a lane
it passes never runs the scalar check, so every element must equal
``service.slo_met(service.performance(...))``, boundaries included.
"""

from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.services.base import performance_rows, slo_met_rows
from repro.services.cassandra import CassandraService
from repro.services.specweb import SpecWebService
from repro.workloads.request_mix import (
    CASSANDRA_UPDATE_HEAVY,
    SPECWEB_SUPPORT,
    Workload,
)

NOW = 10_000.0

#: One client per capacity unit, so a lane's demand is its volume.
UNIT_MIXES = {
    "cassandra": replace(CASSANDRA_UPDATE_HEAVY, demand_per_client=1.0),
    "specweb": replace(SPECWEB_SUPPORT, demand_per_client=1.0),
}

#: Per lane: (volume, capacity, interference, seconds since the last
#: resize or None for never, re-partitioning peak in ms).
lanes = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=20.0),
        st.floats(min_value=0.05, max_value=40.0),
        st.floats(min_value=0.0, max_value=0.9),
        st.one_of(st.none(), st.floats(min_value=-600.0, max_value=6000.0)),
        st.sampled_from([12.0, 20.0]),
    ),
    min_size=1,
    max_size=8,
)

#: Latency exactly at the 60 ms bound: rho 0.5 gives 40 ms of queueing,
#: and a resize at ``NOW`` adds the full 20 ms re-partitioning peak.
AT_LATENCY_BOUND = [(1.0, 2.0, 0.0, 0.0, 20.0)]

#: QoS exactly at the 95% floor: rho 0.775 on the SPECweb curve.
AT_QOS_FLOOR = [(1.9375, 2.5, 0.0, None, 12.0)]

#: One family holding each shape of the re-partitioning transient: a
#: lane never resized, a lane resized after ``now`` (no penalty yet),
#: a live transient 30 s old, one exactly at ``now`` and one decayed
#: for an hour.
TRANSIENT_SHAPES = [
    (4.0, 8.0, 0.1, None, 12.0),
    (4.0, 8.0, 0.1, -120.0, 12.0),
    (4.0, 8.0, 0.1, 30.0, 20.0),
    (4.0, 8.0, 0.1, 0.0, 12.0),
    (4.0, 8.0, 0.1, 3600.0, 20.0),
]


def build(family: str, lanes):
    services, workloads = [], []
    for volume, _capacity, _theft, since, peak in lanes:
        if family == "cassandra":
            service = CassandraService(repartition_peak_ms=peak)
            if since is not None:
                service.notify_allocation_change(NOW - since)
        else:
            service = SpecWebService()
        services.append(service)
        workloads.append(Workload(volume=volume, mix=UNIT_MIXES[family]))
    capacities = np.array([lane[1] for lane in lanes])
    thefts = np.array([lane[2] for lane in lanes])
    return services, workloads, capacities, thefts


def scalar_samples(services, workloads, capacities, thefts):
    return [
        service.performance(
            workload, float(capacity), interference=float(theft), now=NOW
        )
        for service, workload, capacity, theft in zip(
            services, workloads, capacities, thefts
        )
    ]


def check_family(family: str, lanes) -> None:
    services, workloads, capacities, thefts = build(family, lanes)
    demands = np.array([w.demand_units for w in workloads])
    samples = scalar_samples(services, workloads, capacities, thefts)
    latency, qos = performance_rows(services, demands, capacities, thefts, NOW)
    penalties = services[0].latency_penalty_rows(services, NOW)
    if family == "cassandra":
        # The family's penalties are each instance's scalar transient.
        assert penalties.tolist() == [
            service.repartition_penalty_ms(NOW) for service in services
        ]
    else:
        assert penalties is None
    assert latency.tolist() == [s.latency_ms for s in samples]
    assert qos.tolist() == [s.qos_percent for s in samples]
    met = slo_met_rows(services, demands, capacities, thefts, NOW)
    assert met.tolist() == [
        service.slo_met(sample) for service, sample in zip(services, samples)
    ]


@given(lanes=lanes)
@example(lanes=AT_LATENCY_BOUND)
@example(lanes=TRANSIENT_SHAPES)
@settings(max_examples=200, deadline=None)
def test_cassandra_rows_equal_the_scalar_check(lanes):
    check_family("cassandra", lanes)


@given(lanes=lanes)
@example(lanes=AT_QOS_FLOOR)
@settings(max_examples=200, deadline=None)
def test_specweb_rows_equal_the_scalar_check(lanes):
    check_family("specweb", lanes)


def test_the_examples_sit_exactly_on_the_bounds():
    """The explicit examples above really grade at the SLO bound, with
    a live re-partitioning penalty on the latency one, and the scalar
    path calls the bound met (the examples then pin the rows to it)."""
    for family, case in (("cassandra", AT_LATENCY_BOUND), ("specweb", AT_QOS_FLOOR)):
        services, workloads, capacities, thefts = build(family, case)
        (sample,) = scalar_samples(services, workloads, capacities, thefts)
        (service,) = services
        assert service.slo_met(sample)
        if family == "cassandra":
            assert service.repartition_penalty_ms(NOW) == 20.0
            assert sample.latency_ms == service.slo.bound_ms == 60.0
        else:
            assert sample.qos_percent == service.slo.floor_percent == 95.0


def test_the_transient_example_holds_every_penalty_shape():
    """Never resized and resized after ``now`` read 0; a live transient
    reads between 0 and its peak; one resized at ``now`` reads its
    peak."""
    services, _w, _c, _t = build("cassandra", TRANSIENT_SHAPES)
    never, later, live, now, decayed = (
        service.repartition_penalty_ms(NOW) for service in services
    )
    assert never == later == 0.0
    assert 0.0 < decayed < live < 20.0
    assert now == 12.0


def test_row_keys_separate_what_one_vector_cannot_share():
    assert CassandraService().row_key() == CassandraService().row_key()
    assert SpecWebService().row_key() == SpecWebService().row_key()
    assert SpecWebService(qos_knee=0.6).row_key() != SpecWebService().row_key()
    assert CassandraService().row_key() != SpecWebService().row_key()
