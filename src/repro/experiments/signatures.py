"""Signature studies: Fig. 4, Table 1, and Fig. 5.

* **Fig. 4** — show that a low-level metric separates workloads by type
  (read/write ratio) and intensity: for each benchmark, sample a chosen
  counter 5 times per (volume, mix) condition and verify the per-
  condition spreads are small compared to the gaps between conditions.
* **Table 1** — run CFS feature selection on a RUBiS profiling dataset
  that varies both volume and interaction mix, and report the selected
  HPC events (the paper's eight: busq_empty, cpu_clk_unhalted, l2_ads,
  l2_reject_busq, l2_st, load_block, store_block, page_walks).
* **Fig. 5** — cluster the 24 hourly HotMail learning workloads and
  recover a handful of classes (paper: 4 clusters from the day-long
  trace, the peak hour a singleton).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.clustering import ClusteringModel, auto_cluster
from repro.core.feature_selection import CfsSubsetSelector, SelectionResult
from repro.telemetry.counters import HPCSampler
from repro.telemetry.events import TABLE1_EVENTS
from repro.telemetry.monitor import Monitor
from repro.telemetry.xentop import XentopSampler
from repro.workloads.request_mix import (
    CASSANDRA_UPDATE_HEAVY,
    RUBIS_BIDDING,
    SPECWEB_BANKING,
    SPECWEB_ECOMMERCE,
    SPECWEB_SUPPORT,
    RequestMix,
    Workload,
)

#: Fig. 4 per-benchmark conditions: the counter plotted and the
#: (volume, mix) grid.  SPECweb varies workload type across the three
#: benchmarks; RUBiS and Cassandra vary volume and read/write ratio.
FIG4_BENCHMARKS: dict[str, dict] = {
    "specweb": {
        "counter": "flops_retired",
        "mixes": (SPECWEB_BANKING, SPECWEB_ECOMMERCE, SPECWEB_SUPPORT),
        "volumes": (100.0, 200.0, 300.0),
    },
    "rubis": {
        "counter": "load_block",
        "mixes": (RUBIS_BIDDING, RUBIS_BIDDING.with_read_fraction(0.6)),
        "volumes": (150.0, 300.0, 500.0),
    },
    "cassandra": {
        "counter": "l2_st",
        "mixes": (
            CASSANDRA_UPDATE_HEAVY,
            CASSANDRA_UPDATE_HEAVY.with_read_fraction(0.5),
        ),
        "volumes": (100.0, 250.0, 400.0),
    },
}


@dataclass(frozen=True)
class SeparabilityResult:
    """Fig. 4 data for one benchmark."""

    benchmark: str
    counter: str
    conditions: tuple[str, ...]
    trial_values: dict[str, np.ndarray]
    """Per condition, the 5 per-trial normalized counter readings."""

    @property
    def min_gap_over_spread(self) -> float:
        """Separation quality of the counter, as Fig. 4 claims it.

        For every pair of conditions that differ in exactly one factor
        (same mix at different volumes, or different mixes at the same
        volume), the between-condition gap is divided by the pair's
        combined trial spread.  The minimum over pairs is returned;
        > 1 means "once we change either workload type or intensity, a
        large gap between counter values appears" while trials of one
        condition stay close.  Pairs differing in *both* factors are not
        compared — two unrelated conditions may legitimately collide on
        a single counter (the remaining signature metrics disambiguate,
        as the paper notes about noise).
        """
        worst = float("inf")
        for cond_a, values_a in self.trial_values.items():
            mix_a, vol_a = cond_a.rsplit("@", 1)
            for cond_b, values_b in self.trial_values.items():
                if cond_b <= cond_a:
                    continue
                mix_b, vol_b = cond_b.rsplit("@", 1)
                if (mix_a == mix_b) == (vol_a == vol_b):
                    continue  # both factors differ (or identical pair)
                gap = abs(float(values_a.mean()) - float(values_b.mean()))
                spread = float(values_a.max() - values_a.min()) + float(
                    values_b.max() - values_b.min()
                )
                ratio = float("inf") if spread == 0.0 else gap / spread
                worst = min(worst, ratio)
        return worst


def run_separability(
    benchmark: str, trials: int = 5, seed: int = 0
) -> SeparabilityResult:
    """Generate one Fig. 4 panel's data."""
    if benchmark not in FIG4_BENCHMARKS:
        raise ValueError(
            f"unknown benchmark {benchmark!r}; known: {sorted(FIG4_BENCHMARKS)}"
        )
    spec = FIG4_BENCHMARKS[benchmark]
    sampler = HPCSampler(seed=seed)
    values: dict[str, np.ndarray] = {}
    conditions = []
    for mix in spec["mixes"]:
        for volume in spec["volumes"]:
            condition = f"{mix.name}@{volume:.0f}"
            conditions.append(condition)
            readings = []
            for _ in range(trials):
                sample = sampler.sample(Workload(volume=volume, mix=mix), 10.0)
                readings.append(sample[spec["counter"]].rate)
            values[condition] = np.asarray(readings)
    return SeparabilityResult(
        benchmark=benchmark,
        counter=spec["counter"],
        conditions=tuple(conditions),
        trial_values=values,
    )


def rubis_profiling_dataset(
    trials: int = 5, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """A labeled RUBiS profiling dataset for Table 1's feature selection.

    Varies volume and interaction mix (read/write ratio), matching the
    conditions under which the paper derived the RUBiS signature.
    """
    monitor = Monitor(hpc=HPCSampler(seed=seed), xentop=XentopSampler(seed=seed + 1))
    # RUBiS's 26 interactions span browsing (read-only), bidding
    # (read-write), search (CPU/FLOPS-heavy full-text matching) and
    # checkout (write- and I/O-heavy) behaviours; the transition tables
    # blend them into distinct mixes.  Varying the blend as well as the
    # read ratio exercises every hidden activity dimension, which is
    # what lets CFS justify a multi-event signature (Table 1 has eight).
    search_mix = RequestMix(
        name="rubis-search",
        read_fraction=0.98,
        cpu_intensity=0.75,
        memory_intensity=0.50,
        io_intensity=0.30,
        flops_intensity=0.55,
        demand_per_client=0.010,
    )
    checkout_mix = RequestMix(
        name="rubis-checkout",
        read_fraction=0.70,
        cpu_intensity=0.55,
        memory_intensity=0.70,
        io_intensity=0.60,
        flops_intensity=0.20,
        demand_per_client=0.011,
    )
    from repro.workloads.request_mix import RUBIS_BROWSING

    mixes: list[RequestMix] = [
        RUBIS_BROWSING,
        RUBIS_BIDDING,
        RUBIS_BIDDING.with_read_fraction(0.60),
        search_mix,
        checkout_mix,
    ]
    volumes = (100.0, 200.0, 300.0, 400.0, 500.0)
    names = monitor.metric_names()
    rows, labels = [], []
    label = 0
    for mix in mixes:
        for volume in volumes:
            for _ in range(trials):
                metrics = monitor.collect(Workload(volume=volume, mix=mix))
                rows.append([metrics[n] for n in names])
                labels.append(label)
            label += 1
    return np.asarray(rows), np.asarray(labels), names


def run_table1_selection(
    trials: int = 5, seed: int = 0, max_features: int = 12
) -> SelectionResult:
    """Run CFS on the RUBiS dataset (Table 1 reproduction).

    Table 1 lists "the HPC counters chosen to serve as the workload
    signature ... (the xentop metrics are excluded from the table)", so
    selection here runs over the hardware events only.
    """
    from repro.telemetry.xentop import XENTOP_METRICS

    X, y, names = rubis_profiling_dataset(trials=trials, seed=seed)
    hpc_columns = [j for j, n in enumerate(names) if n not in XENTOP_METRICS]
    hpc_names = [names[j] for j in hpc_columns]
    selector = CfsSubsetSelector(max_features=max_features)
    return selector.select(X[:, hpc_columns], y, hpc_names)


def table1_overlap(selection: SelectionResult) -> set[str]:
    """Selected metrics that are among the paper's Table 1 events."""
    return set(selection.selected) & set(TABLE1_EVENTS)


@dataclass(frozen=True)
class ClusteringFigure:
    """Fig. 5 outputs."""

    model: ClusteringModel
    points_2d: np.ndarray
    n_workloads: int

    @property
    def n_classes(self) -> int:
        return self.model.n_classes


def run_fig5_clustering(
    trace_name: str = "hotmail", seed: int = 0
) -> ClusteringFigure:
    """Cluster one learning day's hourly workloads (Fig. 5).

    The paper's figure uses the day-long HotMail trace: "DejaVu
    collected a set of 24 workloads (an instance per hour), and it
    identified only four different workload classes".  Our synthetic
    HotMail trace yields 3 classes and Messenger 4; either way the
    24-to-few reduction that drives the tuning-overhead savings is
    reproduced.
    """
    from repro.experiments.setup import build_scaleout_setup

    setup = build_scaleout_setup(trace_name, seed=seed)
    manager = setup.manager
    manager.learn(setup.trace.hourly_workloads(day=0))
    model = manager.model
    workloads = setup.trace.hourly_workloads(day=0)
    points = []
    for workload in workloads:
        metrics = setup.profiler.collect_metrics(workload)
        x = model.schema.vector_from(metrics)
        points.append(model.standardizer.transform(x[None, :])[0])
    points = np.asarray(points)
    # Project to the first two signature metrics for the 2-D view the
    # figure shows ("each workload is projected onto the two-dimensional
    # space for clarity").
    points_2d = points[:, :2] if points.shape[1] >= 2 else points
    return ClusteringFigure(
        model=model.clustering,
        points_2d=points_2d,
        n_workloads=len(workloads),
    )
