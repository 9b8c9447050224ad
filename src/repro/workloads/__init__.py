"""Workload substrate.

The paper drives its services with (1) real week-long HotMail and Windows
Live Messenger load traces at 1-hour granularity, (2) a sine wave for the
motivating RUBiS experiment (Fig. 1), and (3) benchmark-specific request
mixes (Cassandra update-heavy 95/5, SPECweb support/banking/e-commerce,
the RUBiS 26-interaction transition mix).

We do not have the Microsoft traces, so :mod:`repro.workloads.traces`
synthesizes week-long diurnal traces with the statistical properties the
paper relies on: repeating daily patterns with a handful of load plateaus
(so clustering finds 3–4 classes), day-to-day jitter and weekend dips (so
Autopilot's blind time-of-day replay misfires), and one day-4 HotMail
anomaly (so DejaVu's low-confidence fallback triggers).  See DESIGN.md.
"""
