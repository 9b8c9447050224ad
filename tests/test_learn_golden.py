"""Golden digests of the trained state one learning day produces.

``DejaVuManager.learn`` is a pure function of its workloads and the
profiler's noise streams; every fleet pin and tracked scenario metric
rests on it producing the same model bit for bit.  Each case below
learns one family leader (scale-out or scale-up, at a seed and a
demand factor, on counter-mode or legacy telemetry) and hashes:

* the persisted learned state (``manager_state_to_dict``),
* the :class:`~repro.core.manager.LearningReport`,
* the class representatives (clustering indices and workloads),
* each profiler stream's position after learning (a counter stream's
  pass counter, ``None`` for a sequential stream; the next collection
  it would produce, for both kinds).

Floats enter the digest through ``repr``/``json``, which round-trip
exactly, so any change in the last bit of any learned number changes
the digest.  Run this module as a script to print the current digests.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.persistence import manager_state_to_dict
from repro.experiments.setup import (
    DEFAULT_PEAK_DEMAND,
    SCALE_UP_PEAK_DEMAND,
    build_scaleout_setup,
    build_scaleup_setup,
    counter_monitor,
)
from repro.telemetry.streams import CounterStream, TelemetryStreams

KINDS = ("scaleout", "scaleup")
SEEDS = (0, 6, 11)
FACTORS = (1.0, 1.6)
MODES = ("counter", "legacy")

#: Recorded before the learning pipeline was vectorized; the rewrite
#: must reproduce every one of them.
GOLDEN = {
    ("scaleout", 0, 1.0, "counter"): "a65e12a95261b67a",
    ("scaleout", 0, 1.0, "legacy"): "0027343155a2810b",
    ("scaleout", 0, 1.6, "counter"): "136d7bb5ec1a09ef",
    ("scaleout", 0, 1.6, "legacy"): "336e99ac2396db04",
    ("scaleout", 6, 1.0, "counter"): "685b8424046ae8a4",
    ("scaleout", 6, 1.0, "legacy"): "fec7fed23263658b",
    ("scaleout", 6, 1.6, "counter"): "b27ff5aa77f0fab9",
    ("scaleout", 6, 1.6, "legacy"): "08923a2ad14f463b",
    ("scaleout", 11, 1.0, "counter"): "e5ba722aab65e36e",
    ("scaleout", 11, 1.0, "legacy"): "7c57dde828e122aa",
    ("scaleout", 11, 1.6, "counter"): "2aed5e565b207524",
    ("scaleout", 11, 1.6, "legacy"): "0c36d694de5d3aa7",
    ("scaleup", 0, 1.0, "counter"): "6dd9afe404612228",
    ("scaleup", 0, 1.0, "legacy"): "beaad37c1cb894d1",
    ("scaleup", 0, 1.6, "counter"): "c5f68d83e547a3df",
    ("scaleup", 0, 1.6, "legacy"): "69e55a30b6dad4b2",
    ("scaleup", 6, 1.0, "counter"): "1396b4750f6f1a78",
    ("scaleup", 6, 1.0, "legacy"): "6ab6421c33d038cb",
    ("scaleup", 6, 1.6, "counter"): "48b580b152ed4aef",
    ("scaleup", 6, 1.6, "legacy"): "ab7efa3ff67ec6db",
    ("scaleup", 11, 1.0, "counter"): "865ed74095e0848e",
    ("scaleup", 11, 1.0, "legacy"): "3ce1de486733fbc6",
    ("scaleup", 11, 1.6, "counter"): "1bc4a315d1cbd90b",
    ("scaleup", 11, 1.6, "legacy"): "d8ce1e85f7bac328",
}


def learned_leader(kind: str, seed: int, factor: float, mode: str):
    """One family leader, built the way a fleet study builds lane 1
    (``lane_key = 1``) and trained on its learning day."""
    lane_key = 1
    if kind == "scaleout":
        builder, peak = build_scaleout_setup, DEFAULT_PEAK_DEMAND
    else:
        builder, peak = build_scaleup_setup, SCALE_UP_PEAK_DEMAND["messenger"]
    kwargs = dict(
        trace_name="messenger",
        trace_seed=seed + lane_key,
        peak_demand=peak * factor,
    )
    if mode == "counter":
        kwargs["monitor"] = counter_monitor(TelemetryStreams(seed), lane_key)
    else:
        kwargs["seed"] = seed
    setup = builder(**kwargs)
    setup.manager.learn(setup.trace.hourly_workloads(day=0))
    return setup


def trained_state_digest(setup) -> str:
    manager = setup.manager
    report = manager.model.learning_report
    monitor = manager.profiler.monitor
    document = {
        "state": manager_state_to_dict(manager),
        "report": {
            "n_workloads": report.n_workloads,
            "n_classes": report.n_classes,
            "selected_metrics": list(report.selected_metrics),
            "tuning_invocations": report.tuning_invocations,
            "tuning_seconds_total": report.tuning_seconds_total,
            "class_allocations": sorted(
                [cluster, band, allocation.count, allocation.itype.name]
                for (cluster, band), allocation in report.class_allocations.items()
            ),
        },
        "representatives": list(manager.model.clustering.representatives),
        "class_workloads": sorted(
            [cluster, workload.volume, workload.mix.name]
            for cluster, workload in manager.model.class_workloads.items()
        ),
        "draws": [
            sampler.stream.draws
            if isinstance(sampler.stream, CounterStream)
            else None
            for sampler in (monitor.hpc, monitor.xentop)
        ],
        "next_collection": monitor.collect_matrix(
            [setup.trace.workload_at(0.0)], monitors=[monitor]
        )[0].tolist(),
    }
    text = json.dumps(document, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


CASES = [
    (kind, seed, factor, mode)
    for kind in KINDS
    for seed in SEEDS
    for factor in FACTORS
    for mode in MODES
]


@pytest.mark.parametrize("case", CASES, ids=lambda c: "-".join(map(str, c)))
def test_trained_state_matches_golden_digest(case):
    assert trained_state_digest(learned_leader(*case)) == GOLDEN[case]


def test_counter_streams_advance_one_pass_per_trial():
    """A learning day consumes ``n_workloads x trials_per_workload``
    passes of each profiler stream, and nothing more."""
    setup = learned_leader("scaleout", 6, 1.0, "counter")
    manager = setup.manager
    report = manager.model.learning_report
    passes = report.n_workloads * manager.config.trials_per_workload
    monitor = manager.profiler.monitor
    assert monitor.hpc.stream.draws == passes
    assert monitor.xentop.stream.draws == passes


if __name__ == "__main__":
    for case in CASES:
        kind, seed, factor, mode = case
        digest = trained_state_digest(learned_leader(*case))
        print(f'    ("{kind}", {seed}, {factor}, "{mode}"): "{digest}",')
