"""EC2-like cloud substrate.

The paper evaluates DejaVu on Amazon EC2 with *large* and *extra-large*
instances, scaling out (1–10 identical instances) and scaling up (large ↔
extra-large at fixed count).  This package simulates exactly that surface:
an instance-type catalogue with July-2011 prices, VM lifecycle with boot /
warm-up delays, a provider that owns pre-created VM pools (the paper
pre-creates and stops VMs so scaling is "ready for instant use, except
for a short warm-up time"), and a cost meter.
"""
