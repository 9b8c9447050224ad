"""Golden digests of the paper experiments' raw results.

The benchmarks under ``benchmarks/`` check the paper's claims as
thresholds ("min gap / spread >= 0.8", "saving in 35-60%"), which a
change to the telemetry noise can pass while moving every number.
These digests pin the experiments behind ``repro.cli run`` bit for
bit: each case runs one experiment function at the CLI's default seed
and hashes its whole result — every dataclass field, time series,
matrix and scalar.

Floats enter the digest through ``repr``, which round-trips exactly, so
a change in the last bit of any reported number changes the digest.
``run summary`` is not pinned separately: it is arithmetic over the
four scaling comparisons pinned here.  Run this module as a script to
print the current digests.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json

import numpy as np
import pytest

from repro.sim.result import TimeSeries

SEED = 0


def canonical(value):
    """A JSON-able, bit-exact rendering of an experiment result."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.ndarray):
        return {"dtype": str(value.dtype), "values": canonical(value.tolist())}
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, TimeSeries):
        return {
            "name": value.name,
            "times": canonical(value.times.tolist()),
            "values": canonical(value.values.tolist()),
        }
    if dataclasses.is_dataclass(value):
        return {
            "type": type(value).__name__,
            **{
                field.name: canonical(getattr(value, field.name))
                for field in dataclasses.fields(value)
            },
        }
    if isinstance(value, dict):
        return [[canonical(k), canonical(v)] for k, v in sorted(value.items())]
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    raise TypeError(f"no canonical form for {type(value).__name__}")


def _fig1():
    from repro.experiments.motivation import run_motivation_experiment

    return run_motivation_experiment()


def _fig4(benchmark):
    from repro.experiments.signatures import run_separability

    return lambda: run_separability(benchmark, seed=SEED)


def _table1():
    from repro.experiments.signatures import run_table1_selection

    return run_table1_selection(seed=SEED)


def _fig5(trace):
    from repro.experiments.signatures import run_fig5_clustering

    return lambda: run_fig5_clustering(trace, seed=SEED)


def _scaleout(trace):
    from repro.experiments.scaling import run_scaleout_comparison

    return lambda: run_scaleout_comparison(trace, seed=SEED)


def _scaleup(trace):
    from repro.experiments.scaling import run_scaleup_comparison

    return lambda: run_scaleup_comparison(trace, seed=SEED)


def _fig8():
    from repro.experiments.adaptation_study import (
        run_dejavu_adaptation,
        run_rightscale_adaptation,
    )

    return [
        run_dejavu_adaptation(),
        run_rightscale_adaptation(180.0),
        run_rightscale_adaptation(900.0),
    ]


def _fig11():
    from repro.experiments.interference_study import run_interference_study

    return run_interference_study(seed=SEED)


def _overhead():
    from repro.experiments.overhead import (
        run_latency_overhead,
        run_network_overhead,
    )

    return [run_network_overhead(100, seed=SEED), run_latency_overhead()]


def _multiplexing():
    from repro.experiments.multiplexing_study import run_multiplexing_study

    return run_multiplexing_study(seed=SEED)


#: Each case reproduces what ``repro.cli run <name>`` computes.
EXPERIMENTS = {
    "fig1": _fig1,
    "fig4-specweb": _fig4("specweb"),
    "fig4-rubis": _fig4("rubis"),
    "fig4-cassandra": _fig4("cassandra"),
    "table1": _table1,
    "fig5-messenger": _fig5("messenger"),
    "fig5-hotmail": _fig5("hotmail"),
    "fig6": _scaleout("messenger"),
    "fig7": _scaleout("hotmail"),
    "fig8": _fig8,
    "fig9": _scaleup("hotmail"),
    "fig10": _scaleup("messenger"),
    "fig11": _fig11,
    "overhead": _overhead,
    "multiplexing": _multiplexing,
}

#: Recorded before the telemetry noise streams were unified behind one
#: interface; that refactor must reproduce every one of them.
GOLDEN = {
    "fig1": "ede419932db12bd5",
    "fig4-specweb": "b53285b66c4b8693",
    "fig4-rubis": "f6633aaafb831f8a",
    "fig4-cassandra": "a78bcbc7c6401536",
    "table1": "0d7cd6c6c7ac7fe2",
    "fig5-messenger": "a3eda156718738e5",
    "fig5-hotmail": "edd9da81a1660126",
    "fig6": "f2c69597736f55ff",
    "fig7": "f7d127e1b555f666",
    "fig8": "3d60ac453a7664a2",
    "fig9": "8e619b72c83f738c",
    "fig10": "98844a5245dcaa98",
    "fig11": "3d8767cdc1a7a796",
    "overhead": "1a6a1362eb64502b",
    "multiplexing": "b9dd169482b80f51",
}


def result_digest(name: str) -> str:
    text = json.dumps(canonical(EXPERIMENTS[name]()), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_experiment_matches_golden_digest(name):
    assert result_digest(name) == GOLDEN[name]


def test_canonical_rejects_unknown_types():
    with pytest.raises(TypeError, match="object"):
        canonical(object())


if __name__ == "__main__":
    for name in EXPERIMENTS:
        print(f'    "{name}": "{result_digest(name)}",')
