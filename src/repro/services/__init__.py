"""Service substrate.

The paper evaluates DejaVu on three real services: Cassandra under the
YCSB update-heavy workload (scale-out, Figs. 6–8, 11), SPECweb2009
support (scale-up, Figs. 9–10), and RUBiS (motivation Fig. 1 and the
proxy-overhead study, Sec. 4.4).  We replace each with a calibrated
queueing-theoretic performance model exposing exactly the quantities the
evaluation consumes: response latency, QoS (fraction of downloads meeting
the SPECweb rate target), and post-reconfiguration stabilization
transients (Cassandra re-partitioning).
"""
