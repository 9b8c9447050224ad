"""Telemetry substrate: hardware performance counters and xentop metrics.

DejaVu identifies workloads purely from low-level metrics: per-VM
resource consumption as reported by ``xentop`` and hardware performance
counters read around VM context switches (Xenoprof-style, Sec. 3.3).
This package simulates both sources.  Counter readings are generated as
a projection of the workload's hidden activity vector (request mix ×
intensity) through per-event weights, plus noise — which is exactly the
structure that makes a small subset of events a reliable signature
(paper Fig. 4) while most of the 60 monitorable events carry little or
redundant information (Sec. 3.3).
"""
