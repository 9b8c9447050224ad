"""Co-located tenant interference substrate.

Sec. 4.3 mimics a co-located tenant "by injecting into each VM a
microbenchmark which occupies a varying amount (either 10% or 20%) of
the VM's CPU and memory over time".  This package provides the
microbenchmark model and a per-time schedule injecting it into the
production environment.
"""
