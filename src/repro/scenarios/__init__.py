"""Declarative scenarios: validated study configs, runner, bench gate.

The layer that turns the hand-wired experiment scripts into data: small
YAML/JSON documents under ``scenarios/`` describe fleet studies and
placement frontiers (:mod:`repro.scenarios.schema`), a runner expands
each into a grid of study runs emitting JSONL records
(:mod:`repro.scenarios.runner`), and a regression gate diffs those
records against tracked ``BENCH_*.json`` baselines
(:mod:`repro.scenarios.gate`).  Exposed via ``repro.cli scenario
run|list`` and ``scripts/check_bench.py``.
"""
