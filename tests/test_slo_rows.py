"""The service row hooks grade many instances exactly like the scalar
path.

:func:`~repro.services.base.performance_rows` feeds the fleet family
observers, and :func:`~repro.services.base.slo_met_rows` is the deploy
pass's post-deploy SLO pre-check
(:meth:`~repro.sim.fleet.FleetEngine._precheck_landed`): a lane it
passes never runs the scalar check, so every element must equal
``service.slo_met(service.performance(...))``, boundaries included.

The row hooks take shortcuts the scalar path does not: the queueing
curve and the QoS curve evaluate one branch when every utilization is
below the knee, and Cassandra's re-partitioning transients are read off
columns that ``notify_allocation_change`` writes.  The draws below pin
each shortcut to the scalar ``latency_ms`` / ``_qos_percent`` /
``performance`` bit for bit.
"""

import copy
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cloud.provider import Allocation, CloudProvider
from repro.core.profiler import ProductionEnvironment
from repro.services.base import performance_rows, slo_met_rows
from repro.services.cassandra import CassandraService
from repro.services.perf_model import QueueingModel
from repro.services.rubis import RubisService
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


#: One instance per queueing model (Cassandra's, SPECweb's, RUBiS's, and
#: a custom one whose timeout cap lies far above its knee, so the linear
#: and overload branches show) and per QoS curve (the default knee,
#: SPECweb's, and a custom one).
CURVES = {
    "cassandra": CassandraService(),
    "rubis": RubisService(),
    "specweb": SpecWebService(),
    "specweb-custom": SpecWebService(
        model=QueueingModel(smoothing_rho=0.9, max_latency_ms=2000.0),
        qos_knee=0.6,
        qos_slope=40.0,
    ),
}

#: Utilizations on every branch: below both knees, between them, past
#: saturation and deep into overload, half of them drawn near the knees.
utilizations = st.lists(
    st.one_of(
        st.floats(min_value=0.0, max_value=4.0),
        st.floats(min_value=0.55, max_value=1.05),
    ),
    max_size=12,
)


def check_curves(service, rho_values) -> None:
    """The service's row curves equal its scalar ``latency_ms`` and
    ``_qos_percent`` element by element.  With capacity 1 and no
    interference the scalar utilization is ``rho`` itself."""
    rho = np.array(rho_values, dtype=float)
    model = service.model
    latency = model.latency_rows(rho)
    qos = service._qos_rows(rho)
    assert latency.shape == qos.shape == rho.shape
    assert latency.tolist() == [model.latency_ms(r, 1.0) for r in rho_values]
    assert qos.tolist() == [service._qos_percent(r) for r in rho_values]


@given(
    name=st.sampled_from(sorted(CURVES)),
    fractions=st.lists(
        st.floats(min_value=0.0, max_value=1.0, exclude_max=True), max_size=12
    ),
    past=st.one_of(st.none(), st.integers(min_value=1, max_value=10**9)),
    which=st.sampled_from(["smoothing_rho", "qos_knee"]),
)
@example(name="cassandra", fractions=[0.5], past=4, which="qos_knee")
@example(name="specweb", fractions=[0.5], past=4, which="qos_knee")
@example(name="specweb-custom", fractions=[0.5], past=1, which="smoothing_rho")
@settings(max_examples=300, deadline=None)
def test_families_below_the_knees_equal_the_scalar_curves(
    name, fractions, past, which
):
    """Every utilization below both knees (the one-branch shortcuts),
    or all but one, which sits ``past`` ulps beyond one of them."""
    service = CURVES[name]
    knees = {
        "smoothing_rho": service.model.smoothing_rho,
        "qos_knee": service._qos_knee,
    }
    rho = [f * min(knees.values()) for f in fractions]
    if past is not None:
        rho.append(knees[which] + past * math.ulp(knees[which]))
    check_curves(service, rho)


@given(name=st.sampled_from(sorted(CURVES)), rho=utilizations)
@example(name="cassandra", rho=[0.97])
@example(name="cassandra", rho=[0.5, 0.97, 0.2])
@example(name="specweb-custom", rho=[0.9, 0.3])
@example(name="cassandra", rho=[0.72, 0.72])
@example(name="cassandra", rho=[0.1, 0.725])
@example(name="rubis", rho=[0.72, 0.1])
@example(name="specweb", rho=[0.7, 0.7])
@example(name="specweb-custom", rho=[0.6, 0.1])
@example(name="specweb-custom", rho=[1.0, 1.5, 0.95, 4.0])
@settings(max_examples=300, deadline=None)
def test_mixed_families_equal_the_scalar_curves(name, rho):
    """Families across the knees, including utilizations exactly at
    ``smoothing_rho`` (the curve's linear branch), exactly at each QoS
    knee (still 99.5) and above saturation."""
    check_curves(CURVES[name], rho)


def test_the_boundary_examples_sit_on_the_branch_points():
    """At ``smoothing_rho`` the scalar curve has left the ``1/(1-rho)``
    branch (on the custom model, whose cap lies above the knee, it
    reads the knee latency), and at a QoS knee it still reads 99.5;
    past saturation the overload slope applies."""
    model = CURVES["specweb-custom"].model
    knee = model.base_latency_ms / (1.0 - model.smoothing_rho)
    assert knee < model.max_latency_ms
    assert model.latency_ms(model.smoothing_rho, 1.0) == knee
    assert model.latency_ms(1.5, 1.0) > model.latency_ms(1.0, 1.0) > knee
    assert model.latency_ms(1.5, 1.0) < model.max_latency_ms
    for name, rho in (("cassandra", 0.72), ("specweb", 0.7), ("specweb-custom", 0.6)):
        service = CURVES[name]
        assert service._qos_knee == rho
        assert service._qos_percent(rho) == 99.5
        assert service._qos_percent(rho + 0.01) < 99.5


def test_empty_families_grade_to_empty_vectors():
    for service in CURVES.values():
        check_curves(service, [])


#: Cassandra lanes deployed through ``ProductionEnvironment``.
N_LANES = 5

#: Events of a resize sequence: ``("apply", lane, instances, gap)``
#: deploys an allocation ``gap`` seconds after the previous event;
#: ``("grade", lanes, offset)`` grades a family of lanes at ``offset``
#: seconds from the last event (negative: some resizes lie ahead).
events = st.lists(
    st.one_of(
        st.tuples(
            st.just("apply"),
            st.integers(min_value=0, max_value=N_LANES - 1),
            st.integers(min_value=0, max_value=4),
            st.floats(min_value=0.0, max_value=1800.0),
        ),
        st.tuples(
            st.just("grade"),
            st.lists(
                st.integers(min_value=0, max_value=N_LANES - 1),
                min_size=1,
                max_size=N_LANES,
                unique=True,
            ),
            st.floats(min_value=-900.0, max_value=3600.0),
        ),
    ),
    max_size=24,
)


def grade_family(services, resized_at, now: float) -> None:
    """A family's row penalties and performance equal the transient
    the test tracked and the scalar path, element by element."""
    expected = [
        0.0
        if (resized := resized_at[service]) is None or now - resized < 0
        else service._peak_ms * math.exp(-(now - resized) / service._tau)
        for service in services
    ]
    penalties = services[0].latency_penalty_rows(services, now)
    assert penalties.tolist() == expected
    assert expected == [service.repartition_penalty_ms(now) for service in services]
    workloads = [
        Workload(volume=2.0 + j, mix=UNIT_MIXES["cassandra"])
        for j in range(len(services))
    ]
    demands = np.array([w.demand_units for w in workloads])
    capacities = np.full(len(services), 8.0)
    thefts = np.zeros(len(services))
    latency, qos = performance_rows(services, demands, capacities, thefts, now)
    samples = [
        service.performance(workload, 8.0, now=now)
        for service, workload in zip(services, workloads)
    ]
    assert latency.tolist() == [s.latency_ms for s in samples]
    assert qos.tolist() == [s.qos_percent for s in samples]


@given(
    peaks=st.lists(st.sampled_from([0.0, 12.0, 20.0]), min_size=N_LANES, max_size=N_LANES),
    taus=st.lists(st.sampled_from([60.0, 600.0, 1800.0]), min_size=N_LANES, max_size=N_LANES),
    sequence=events,
)
# Lane 1 leaves the block of family (0, 1, 2) for one shared with lane
# 3 and resizes there; the family, graded again, must not read the
# block it left.
@example(
    peaks=[12.0] * N_LANES,
    taus=[600.0] * N_LANES,
    sequence=[
        ("grade", [0, 1, 2], 0.0),
        ("grade", [1, 3], 0.0),
        ("apply", 1, 2, 10.0),
        ("grade", [0, 1, 2], 5.0),
    ],
)
@settings(max_examples=200, deadline=None)
def test_column_transients_follow_resizes_through_production(peaks, taus, sequence):
    """Resizes deployed through ``ProductionEnvironment.apply`` reach
    the transient columns, whichever families graded the lanes before
    (grading moves the lanes' columns into shared blocks)."""
    productions = [
        ProductionEnvironment(
            CassandraService(repartition_peak_ms=peak, repartition_tau_seconds=tau),
            CloudProvider(max_instances=4),
        )
        for peak, tau in zip(peaks, taus)
    ]
    services = [production.service for production in productions]
    resized_at = dict.fromkeys(services)
    t = 0.0
    for event in sequence:
        if event[0] == "apply":
            _kind, lane, count, gap = event
            t += gap
            production = productions[lane]
            allocation = Allocation(count)
            if allocation != production.provider.current_allocation:
                resized_at[production.service] = t
            production.apply(allocation, t)
        else:
            _kind, lanes, offset = event
            grade_family([services[j] for j in lanes], resized_at, t + offset)
    grade_family(services, resized_at, t + 60.0)


def test_subsets_read_their_familys_columns():
    """A family graded once holds one block; its subsets (the
    pre-check's) read that block in place, and grading the family again
    moves nothing."""
    services = [CassandraService() for _ in range(6)]
    for j, service in enumerate(services):
        service.notify_allocation_change(NOW - 100.0 * j)
    for family in (services, services[1:5], services[::2], services):
        penalties = family[0].latency_penalty_rows(family, NOW)
        assert penalties.tolist() == [s.repartition_penalty_ms(NOW) for s in family]
        block = services[0]._transient
        assert all(service._transient is block for service in services)
        assert block.members == services


def test_a_copied_instance_keeps_its_transient_apart():
    """Pickling or copying one member of a shared block takes its
    transient along, and the copy's resizes leave the original alone."""
    services = [CassandraService(repartition_peak_ms=20.0) for _ in range(4)]
    for j, service in enumerate(services):
        service.notify_allocation_change(NOW - 60.0 * j)
    services[0].latency_penalty_rows(services, NOW)
    original = services[2]
    for clone in (copy.deepcopy(original), pickle.loads(pickle.dumps(original))):
        assert clone.repartition_penalty_ms(NOW) == original.repartition_penalty_ms(NOW)
        clone.notify_allocation_change(NOW)
        assert clone.repartition_penalty_ms(NOW) == 20.0
        assert original.repartition_penalty_ms(NOW) < 20.0
        assert clone.latency_penalty_rows([clone], NOW).tolist() == [20.0]
