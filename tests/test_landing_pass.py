"""The batched landing pass lands exactly what the per-lane poll would.

:meth:`~repro.sim.fleet.FleetEngine._land_deployments` deploys every
idle lane whose queue-delayed decision is due on an accepted, unrevised
grant (the lane table's :meth:`~repro.sim.fleet._LaneTable.landable`),
pre-checks the post-deploy SLO of all of them as vectors, and runs the
scalar check only where the pre-check fails.  These tests pin the two
rules that keep it equal to one ``poll_pending_deployment`` per lane: a
revised grant is left to the poll (which deploys at the revised start,
not the stale ``apply_at``), and the pre-check passes a lane exactly
when the scalar check's first attempt would stop there.
"""

import pytest

from repro.cloud.provider import Allocation
from repro.core.manager import DejaVuManager, _PendingDeployment
from repro.experiments.multiplexing_study import run_fleet_multiplexing_study
from repro.experiments.setup import build_scaleout_setup, observe_scaleout
from repro.sim.fleet import FleetEngine, FleetLane, _LaneTable
from repro.sim.profiling_queue import ProfilingGrant
from tests.test_batched_golden import CASES


def pending_setup(revised: bool):
    """A trained lane serving 2 instances, with a queue-delayed decision
    for 6 due at t=100 on a grant that starts at 100, or, revised by the
    queue, at 200."""
    setup = build_scaleout_setup(trace_seed=1)
    manager = setup.manager
    manager.learn(setup.trace.hourly_workloads(day=0))
    setup.production.apply(Allocation(2), 0.0)
    grant = ProfilingGrant(
        requested_at=0.0,
        start_at=200.0 if revised else 100.0,
        finish_at=210.0 if revised else 110.0,
        revised=revised,
    )
    manager.pending_deployment = _PendingDeployment(
        apply_at=100.0,
        allocation=Allocation(6),
        workload=setup.trace.workload_at(0.0),
        workload_class=0,
        run_interference_check=False,
        grant=grant,
    )
    return setup


def lane_table(manager) -> _LaneTable:
    """A one-row lane table over ``manager``, read as a run starts."""
    table = _LaneTable([manager], [0])
    table.reset()
    return table


def one_lane_engine(setup) -> FleetEngine:
    """A batched one-lane engine over ``setup``, its lane table read as
    a run starts."""
    engine = FleetEngine(
        [
            FleetLane(
                workload_fn=setup.trace,
                controller=setup.manager,
                observe_fn=observe_scaleout(setup),
            )
        ]
    )
    engine._table.reset()
    return engine


def test_an_unrevised_grant_lands_at_its_apply_time():
    setup = pending_setup(revised=False)
    engine = one_lane_engine(setup)
    table = engine._table
    assert table.landable(99.0, [0]) == []
    assert table.landable(120.0, [0]) == [0]
    landed = setup.manager.pending_deployment
    engine._land_deployments(120.0, [0])
    assert landed is not None and setup.manager.pending_deployment is None
    assert setup.provider.current_allocation == Allocation(6)
    assert setup.provider.last_change_at == 100.0


def check_left_to_the_poll(revised_after_read: bool) -> None:
    """The queue pushed the signature back to t=200: the landing pass
    must not deploy at the stale apply_at, and the poll deploys at the
    revised start."""
    setup = pending_setup(revised=not revised_after_read)
    manager = setup.manager
    table = lane_table(manager)
    if revised_after_read:
        grant = manager.pending_deployment.grant
        grant.start_at, grant.finish_at, grant.revised = 200.0, 210.0, True
    for t in (120.0, 200.0):
        assert table.landable(t, [0]) == []
        assert manager.pending_deployment is not None
    manager.poll_pending_deployment(150.0)
    assert setup.provider.current_allocation == Allocation(2)
    manager.poll_pending_deployment(200.0)
    assert manager.pending_deployment is None
    assert setup.provider.current_allocation == Allocation(6)
    assert setup.provider.last_change_at == 200.0


def test_a_revised_grant_is_left_to_the_poll():
    check_left_to_the_poll(revised_after_read=False)


def test_a_grant_revised_after_its_row_was_read_is_left_to_the_poll():
    """The table re-checks the grant when it lands, so a revision
    after the row was read is caught too."""
    check_left_to_the_poll(revised_after_read=True)


@pytest.mark.parametrize(
    "case", ["hosts-escalation-fifo", "hosts-escalation-priority"]
)
def test_precheck_passes_exactly_the_lanes_the_scalar_check_stops_on(
    monkeypatch, case
):
    """On host-coupled fleets, every pre-check verdict equals the
    scalar check's first attempt, and each failing lane runs the scalar
    check.  On the FIFO fleet some landed deployments do violate the
    SLO (the priority fleet escalates outside the landing pass)."""
    verdicts, scalar_checks = [], []
    precheck = FleetEngine._precheck_landed
    post_deploy_check = DejaVuManager.post_deploy_check

    def spy_precheck(self, t, rows, decisions):
        failed = precheck(self, t, rows, decisions)
        for k, decision in zip(rows, decisions):
            if not decision.owes_check:
                continue
            ok = k not in failed
            manager = self._table.controllers[k]
            check_t = t + manager.config.settle_delay_seconds
            production = manager.production
            capacity = production.provider.capacity_at(check_t)
            service = production.service
            expected = capacity <= 0 or service.slo_met(
                service.performance(
                    decision.workload,
                    capacity,
                    interference=production.interference_at(check_t),
                    now=check_t,
                )
            )
            verdicts.append((ok, expected))
            if not ok:
                scalar_checks.append(("expected", id(decision)))
        return failed

    def spy_check(self, t, landed):
        scalar_checks.append(("ran", id(landed)))
        return post_deploy_check(self, t, landed)

    monkeypatch.setattr(FleetEngine, "_precheck_landed", spy_precheck)
    monkeypatch.setattr(DejaVuManager, "post_deploy_check", spy_check)
    run_fleet_multiplexing_study(**CASES[case])
    assert verdicts
    assert all(ok == expected for ok, expected in verdicts)
    failing = [k for kind, k in scalar_checks if kind == "expected"]
    if case == "hosts-escalation-fifo":
        assert failing, "no landed deployment failed the pre-check"
    # Each failing lane runs the scalar check right after the pre-check.
    ran = [k for kind, k in scalar_checks if kind == "ran"]
    assert set(failing) <= set(ran)
