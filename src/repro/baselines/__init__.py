"""Comparator policies from the paper's evaluation.

* :mod:`repro.baselines.overprovision` — the fixed maximum allocation
  DejaVu's savings are measured against.
* :mod:`repro.baselines.autopilot` — "a time-based controller which
  attempts to leverage the re-occurring patterns in the workload by
  repeating the resource allocations determined during the learning
  phase at appropriate times" (Sec. 4).
* :mod:`repro.baselines.rightscale` — the RightScale threshold-voting
  autoscaler, reproduced from public documentation (Sec. 4.1).
* :mod:`repro.baselines.online_tuning` — state-of-the-art
  experiment-driven tuning that re-runs the tuner on every workload
  change (the Fig. 1 motivation).
* :mod:`repro.baselines.oracle` — clairvoyant minimum-cost allocation,
  a lower bound no online system can beat.
"""
