"""Discrete-time simulation substrate.

The paper's evaluation runs real services on EC2 for a simulated week of
trace time.  We reproduce the same structure in a stepped simulator: a
:class:`~repro.sim.clock.SimClock` advances in fixed steps, controllers
observe the service and adjust allocations, and a
:class:`~repro.sim.result.TimeSeries` records everything the paper plots
(cost, latency, QoS, allocation, SLO state).
"""
