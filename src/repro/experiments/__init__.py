"""Experiment runners: one per table/figure in the paper's evaluation.

Each runner assembles the substrates, runs the simulation, and returns
both the raw time series (what the figure plots) and the scalar
aggregates (what the text quotes).  Benchmarks, examples, and the
integration tests all call into this package so the reproduced numbers
come from a single code path.
"""
