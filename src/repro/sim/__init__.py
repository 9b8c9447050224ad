"""Discrete-time simulation substrate.

The paper's evaluation runs real services on EC2 for a simulated week of
trace time.  We reproduce the same structure in a stepped simulator: a
:class:`~repro.sim.clock.SimClock` puts a run's steps on one grid (step
``i`` at ``start + i * step``), controllers observe the service and
adjust allocations, and the fleet engine records everything the paper
plots (cost, latency, QoS, allocation, SLO state) as one matrix per
series, read back as :class:`~repro.sim.result.TimeSeries` columns.
"""
