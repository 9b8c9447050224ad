"""Discrete-time simulation substrate.

The paper's evaluation runs real services on EC2 for a simulated week of
trace time.  We reproduce the same structure in a stepped simulator: a
:class:`~repro.sim.clock.SimClock` advances in fixed steps, controllers
observe the service and adjust allocations, and a
:class:`~repro.sim.result.TimeSeries` records everything the paper plots
(cost, latency, QoS, allocation, SLO state).
"""

from repro.sim.clock import HOUR, MINUTE, SECONDS_PER_DAY, SimClock
from repro.sim.engine import SimulationEngine, StepContext
from repro.sim.fleet import FleetEngine, FleetLane, FleetResult
from repro.sim.hosts import MAX_THEFT, HostInterferenceFeed, HostMap, SimHost
from repro.sim.placement import (
    PLACEMENT_POLICIES,
    BestFitPlacement,
    BlockPlacement,
    FirstFitDecreasingPlacement,
    MigrationPolicy,
    PlacementPolicy,
    RoundRobinPlacement,
    build_host_map,
    make_policy,
)
from repro.sim.profiling_queue import ProfilingGrant, ProfilingQueue
from repro.sim.result import SimulationResult, TimeSeries

__all__ = [
    "HOUR",
    "MINUTE",
    "SECONDS_PER_DAY",
    "SimClock",
    "SimulationEngine",
    "StepContext",
    "FleetEngine",
    "FleetLane",
    "FleetResult",
    "HostInterferenceFeed",
    "HostMap",
    "SimHost",
    "MAX_THEFT",
    "PLACEMENT_POLICIES",
    "BestFitPlacement",
    "BlockPlacement",
    "FirstFitDecreasingPlacement",
    "MigrationPolicy",
    "PlacementPolicy",
    "RoundRobinPlacement",
    "build_host_map",
    "make_policy",
    "ProfilingGrant",
    "ProfilingQueue",
    "SimulationResult",
    "TimeSeries",
]
