"""The DejaVu manager: learning phase plus the online adaptation loop.

This is the controller the paper's Figure 3 sketches:

* **Training** — profile the learning-period workloads, select the
  signature metrics, cluster into workload classes, tune one
  representative per class, populate the repository, train the runtime
  classifier.
* **Reuse** — on every workload change, collect a signature (~10 s),
  classify it, and redeploy the cached allocation on a hit; fall back to
  full capacity on a low-certainty miss; detect interference from the
  production/isolation performance gap and escalate to the matching
  interference band.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.cloud.instance_types import InstanceType
from repro.cloud.provider import Allocation
from repro.core.batch import BatchClassifier
from repro.core.classifiers import C45DecisionTree
from repro.core.clustering import auto_cluster
from repro.core.feature_selection import CfsSubsetSelector
from repro.core.grouping import group_means
from repro.core.interference import InterferenceEstimator
from repro.core.model import LearningReport, TrainedModel
from repro.core.profiler import ProductionEnvironment, ProfilingEnvironment
from repro.core.repository import AllocationRepository
from repro.core.signature import SignatureSchema, Standardizer
from repro.core.tuner import LinearSearchTuner
from repro.sim.clock import HOUR
from repro.sim.engine import StepContext
from repro.sim.profiling_queue import (
    PRIORITY_ADAPTATION,
    PRIORITY_ESCALATION,
    PRIORITY_RELEARN,
    PRIORITY_ROUTINE,
    ProfilingGrant,
)
from repro.workloads.request_mix import Workload

#: Sentinel distinguishing "no prefetched repository entry" from a
#: prefetched lookup that legitimately resolved to None.
_UNRESOLVED = object()


@dataclass(frozen=True)
class DejaVuConfig:
    """Tunables of the DejaVu framework (paper defaults)."""

    certainty_threshold: float = 0.6
    """Classifications below this certainty deploy full capacity."""

    novelty_radius_factor: float = 1.5
    """A signature farther than ``factor * cluster radius`` from its
    assigned centroid is treated as an unforeseen workload."""

    novelty_certainty: float = 0.2
    """Certainty assigned to novel signatures (below the threshold)."""

    trials_per_workload: int = 5
    """Profiling trials per learning workload (Fig. 4 uses 5 trials per
    volume).  Five also keeps the classifier's Laplace-smoothed leaf
    confidence above the certainty threshold for singleton classes like
    the daily peak hour."""

    check_interval_seconds: float = HOUR
    """How often the online loop re-profiles (the traces are hourly)."""

    max_signature_metrics: int | None = 12
    """Cap on the CFS-selected signature length."""

    k_min: int = 2
    k_max: int = 8
    """Workload-class count range for automatic clustering."""

    pretune_bands: tuple[int, ...] = (0,)
    """Interference bands tuned during learning; band 0 is isolation.
    The Fig. 11 experiment pretunes (0, 1, 2), modeling "historically
    collected interference information" (Sec. 3.1)."""

    enable_interference_detection: bool = True
    """Fig. 11 disables this for the comparison run."""

    relearn_after_misses: int = 4
    """Consecutive low-certainty classifications before flagging that
    re-clustering is needed (Sec. 3.5)."""

    auto_relearn: bool = False
    """When the re-learn flag is raised and enough recent workloads
    have been observed, re-run the clustering/tuning pipeline
    automatically ("DejaVu can then initiate the clustering and tuning
    process once again", Sec. 3.5).  Off by default: the paper's
    evaluation lets the administrator decide."""

    history_size: int = 48
    """Recent workloads retained for re-learning (two trace days)."""

    min_relearn_history: int = 24
    """Minimum observed workloads before an automatic re-learn."""

    settle_delay_seconds: float = 300.0
    """How long after deployment the post-deploy SLO check looks
    (covers VM warm-up and lets service-internal transients such as
    Cassandra re-partitioning decay, so they are not mistaken for
    interference)."""

    adapt_on_violation: bool = False
    """Also adapt immediately when production violates the SLO
    mid-interval ("on-demand, e.g. upon a violation of an SLO",
    Sec. 3.3).  Used by the adaptation-time study."""

    resignature_every_seconds: float | None = None
    """Charge a routine background re-signature against the shared
    profiling queue every this many seconds — accounting-only traffic
    at the lowest priority class, modeling the fleet's steady
    signature-refresh load on the clone VMs.  A priority queue sheds
    or evicts these first; on a contended FIFO queue they delay SLO
    -driven work behind them.  None (the default) disables the stream;
    the scalar/batched bit-identity pins rely on the default, because
    steps where only part of a fleet is due an adaptation order this
    traffic differently around the batched wave."""

    profiling_retry_limit: int = 0
    """How many times a queue-delayed decision whose in-flight signature
    run was *revoked* by a profiler outage is re-charged against the
    queue before being abandoned.  0 (the default) abandons immediately
    — the no-recovery baseline a fault study compares against."""

    profiling_retry_backoff_seconds: float = 600.0
    """Base of the exponential backoff between revocation retries: the
    k-th retry waits ``backoff * 2**k`` seconds after the revocation
    before re-charging the queue (bounded, so a flapping profiler can
    never wedge the adaptation loop)."""

    degraded_fallback: bool = False
    """When a revoked decision exhausts its retries, deploy the
    last-known-good repository allocation the decision already resolved
    (DejaVu's Sec. 3 claim: the cached repository keeps serving when
    fresh profiling is unavailable) instead of dropping the adaptation
    outright."""

    seed: int = 0

    def __post_init__(self) -> None:
        # Learning settings that would otherwise fail only after a
        # profiling sweep, or silently never fire.
        problems = []
        if self.k_min < 2:
            problems.append(f"k_min must be at least 2, got {self.k_min}")
        if self.k_max < self.k_min:
            problems.append(
                f"k_max must be at least k_min ({self.k_min}), got {self.k_max}"
            )
        if self.trials_per_workload < 1:
            problems.append(
                "trials_per_workload must be at least 1, "
                f"got {self.trials_per_workload}"
            )
        if self.max_signature_metrics is not None and self.max_signature_metrics < 1:
            problems.append(
                "max_signature_metrics must be None or at least 1, "
                f"got {self.max_signature_metrics}"
            )
        if self.relearn_after_misses < 1:
            problems.append(
                "relearn_after_misses must be at least 1, "
                f"got {self.relearn_after_misses}"
            )
        if self.min_relearn_history > self.history_size:
            problems.append(
                f"min_relearn_history ({self.min_relearn_history}) must not "
                f"exceed history_size ({self.history_size}), or an automatic "
                "re-learn can never fire"
            )
        # Timing settings, NaN included: a NaN check interval silently
        # stops the periodic adaptations.
        periods = [("check_interval_seconds", self.check_interval_seconds)]
        if self.resignature_every_seconds is not None:
            periods.append(
                ("resignature_every_seconds", self.resignature_every_seconds)
            )
        for name, value in periods:
            if not 0.0 < value < math.inf:
                problems.append(f"{name} must be positive and finite, got {value}")
        for name, value in (
            ("settle_delay_seconds", self.settle_delay_seconds),
            ("profiling_retry_backoff_seconds", self.profiling_retry_backoff_seconds),
        ):
            if not 0.0 <= value < math.inf:
                problems.append(
                    f"{name} must be non-negative and finite, got {value}"
                )
        if self.profiling_retry_limit < 0:
            problems.append(
                "profiling_retry_limit must be at least 0, "
                f"got {self.profiling_retry_limit}"
            )
        if math.isnan(self.certainty_threshold):
            problems.append("certainty_threshold must be a number, got nan")
        if problems:
            raise ValueError("invalid DejaVuConfig: " + "; ".join(problems))


class AdaptationEvent(NamedTuple):
    """One reaction to a (potential) workload change.

    ``duration_seconds`` is the decision latency: the signature
    collection itself plus any time the request spent queued on a
    contended shared profiler.

    A named tuple: immutable, and cheap to build, which matters at one
    event per adaptation.
    """

    t: float
    duration_seconds: float
    cache_hit: bool
    workload_class: int | None
    certainty: float
    allocation: Allocation


class _PendingDeployment:
    """A decision made on a queue-delayed signature, not yet deployed.

    When the shared profiler is contended, the signature that drove an
    adaptation only finishes collecting ``wait`` seconds after the
    check fired — so the resulting allocation deploys late by the
    queue's residency time, and the previous allocation keeps serving
    until then (ROADMAP: "stale signatures delay adaptation").

    ``grant`` is the signature run the decision waits on.  A priority
    queue can revise the grant's schedule after the decision (later
    high bidders push it back) or evict it outright; the flush re-reads
    the grant so deployment follows true queue residency.  ``retries``
    counts the revocation retries already charged (profiler-outage
    recovery), ``retry_at`` is when the next one may be charged
    (backoff gate), and ``owes_check`` says whether landing the
    decision runs the post-deploy SLO check.
    """

    __slots__ = (
        "apply_at",
        "allocation",
        "workload",
        "workload_class",
        "run_interference_check",
        "grant",
        "retries",
        "retry_at",
        "owes_check",
    )

    def __init__(
        self,
        apply_at: float,
        allocation: Allocation,
        workload: Workload,
        workload_class: int | None,
        run_interference_check: bool,
        grant: ProfilingGrant | None = None,
        retries: int = 0,
        retry_at: float | None = None,
    ) -> None:
        self.apply_at = apply_at
        self.allocation = allocation
        self.workload = workload
        self.workload_class = workload_class
        self.run_interference_check = run_interference_check
        self.grant = grant
        self.retries = retries
        self.retry_at = retry_at
        self.owes_check = run_interference_check and workload_class is not None


class DejaVuManager:
    """DejaVu as an engine-drivable controller.

    Parameters
    ----------
    profiler:
        The clone-VM sandbox (signatures + isolated performance).
    production:
        The live deployment being provisioned.
    tuner:
        Linear-search tuner over this experiment's candidate allocations.
    config:
        Framework tunables.
    classifier_factory:
        Builds a fresh classifier; defaults to the paper's C4.5 tree.
    full_capacity_type:
        Instance type of the full-capacity fallback allocation.
    repository:
        The allocation cache.  Defaults to a private repository; a fleet
        of co-hosted services may pass one shared instance so tuned
        allocations (and hit/miss accounting) are amortized across
        services — the paper's Sec. 5 multiplexing argument.
    """

    def __init__(
        self,
        profiler: ProfilingEnvironment,
        production: ProductionEnvironment,
        tuner: LinearSearchTuner,
        config: DejaVuConfig | None = None,
        classifier_factory=C45DecisionTree,
        estimator: InterferenceEstimator | None = None,
        full_capacity_type: InstanceType | None = None,
        repository: AllocationRepository | None = None,
    ) -> None:
        self.profiler = profiler
        self.production = production
        self.tuner = tuner
        self.config = config if config is not None else DejaVuConfig()
        self._classifier_factory = classifier_factory
        self.estimator = estimator if estimator is not None else InterferenceEstimator()
        self._full_capacity_type = full_capacity_type

        self.repository = repository if repository is not None else AllocationRepository()
        self._repository_external = repository is not None
        self._repository_fleet_shared = False
        self.model: TrainedModel | None = None

        self.adaptation_events: list[AdaptationEvent] = []
        self.workload_history: deque[tuple[float, Workload]] = deque(
            maxlen=self.config.history_size
        )
        self.relearn_count = 0
        # Automatic re-learns abandoned because learning raised.
        self.failed_relearns = 0
        self.relearn_requested = False
        self._consecutive_misses = 0
        self._next_check = 0.0
        self._last_adapt = float("-inf")
        self._deployed_band: int | None = None
        self._deployed_class: int | None = None

        self.profiling_queue = None
        self.deferred_adaptations = 0
        self.superseded_deployments = 0
        self.evicted_adaptations = 0
        self.resignature_requests = 0
        self.profiling_retries = 0
        self.revoked_adaptations = 0
        self.degraded_adaptations = 0
        self.pending_deployment: _PendingDeployment | None = None
        # (model, novelty settings, BatchClassifier, signature columns):
        # valid while the first two are unchanged.
        self._batch_cache: tuple | None = None
        # Relearn gating: a re-learned (model, repository) computed
        # while its learning sweep is still queued is *staged* — the
        # old model keeps serving until the burst's last grant finishes.
        self._staged_model: tuple[TrainedModel, AllocationRepository] | None = None
        self._staged_burst: tuple[ProfilingGrant, ...] = ()
        self._next_resignature = (
            0.0
            if self.config.resignature_every_seconds is not None
            else math.inf
        )

    # ------------------------------------------------------------------
    # Learning phase (Sec. 3.3-3.4)
    # ------------------------------------------------------------------

    def learn(self, workloads: list[Workload], now: float = 0.0) -> LearningReport:
        """Profile, select features, cluster, tune, and train.

        ``workloads`` are the learning-period observations (e.g. the
        24 hourly workloads of the trace's first day).  Calling this on
        an already-trained manager re-learns from scratch: the previous
        clustering's repository entries are invalidated (class numbers
        are not comparable across clusterings).

        The profiling sweep consumes exactly ``len(workloads) *
        trials_per_workload`` passes of each profiler noise stream, the
        same as collecting every trial one at a time, so the manager's
        online signatures do not depend on how learning was computed.
        Raises ``ValueError`` before the sweep when the workloads hold
        fewer than ``config.k_min`` distinct ones (repeated copies of
        one workload leave only profiler noise to cluster); after it,
        naming any metric with a non-finite value, or when no feature
        separates the workloads or no clustering is viable.  A learn
        that raises leaves the serving model (and the re-learn request)
        as it was, though a failed sweep's stream draws stay consumed.
        """
        if self._repository_fleet_shared or (
            self._repository_external and len(self.repository) > 0
        ):
            # Other managers serve from this repository — adopted, or
            # supplied at construction and already filled by another
            # learner.  Clearing it (or storing entries keyed by a fresh
            # clustering's class numbers) would corrupt the fleet:
            # detach onto a private cache instead.  An external
            # repository still empty is filled in place.
            repository = AllocationRepository()
        else:
            repository = self.repository
        self._install(self._train(workloads, now, repository), repository)
        return self.model.learning_report

    def _train(
        self,
        workloads: list[Workload],
        now: float,
        repository: AllocationRepository,
    ) -> TrainedModel:
        """Build a model from ``workloads`` on the side, filling
        ``repository`` (cleared first) with its tuned allocations.

        Every step that can raise (too few distinct workloads, a
        non-finite metric, no feature separating the workloads, no
        viable clustering) runs before ``repository`` is touched, and
        nothing here changes the serving model.
        """
        if len(workloads) < 2:
            raise ValueError("learning needs at least two workloads")
        self._check_distinct(workloads)
        # The profiling sweep: trials_per_workload isolated passes of
        # each workload, workload-major — one pass of each profiler
        # stream per trial.
        monitor = self.profiler.monitor
        metric_names = monitor.metric_names()
        trials = self.config.trials_per_workload
        X_all = monitor.collect_block(workloads, trials)
        y_workload = np.repeat(np.arange(len(workloads)), trials)

        selector = CfsSubsetSelector(max_features=self.config.max_signature_metrics)
        selection = selector.select(X_all, y_workload, metric_names)
        columns = [metric_names.index(name) for name in selection.selected]
        standardizer = Standardizer()
        Xz = standardizer.fit_transform(X_all[:, columns])

        # Cluster per-workload mean signatures (one point per workload,
        # as in Fig. 5's 24 hourly points).
        means, _ = group_means(Xz, y_workload, len(workloads))
        clustering = auto_cluster(
            means,
            k_min=self.config.k_min,
            k_max=self.config.k_max,
            seed=self.config.seed,
        )

        class_workloads = {}
        tuned = []
        tuning_seconds = 0.0
        for cluster in range(clustering.n_classes):
            representative = workloads[clustering.representatives[cluster]]
            class_workloads[cluster] = representative
            for band in self.config.pretune_bands:
                theft = self.estimator.assumed_theft(band)
                outcome = self.tuner.tune(representative, assumed_interference=theft)
                tuning_seconds += outcome.tuning_seconds
                tuned.append((cluster, band, outcome.allocation))

        # Train the runtime classifier on all trials, labeled by cluster.
        cluster_labels = clustering.labels[y_workload]
        classifier = self._classifier_factory().fit(Xz, cluster_labels)

        # Novelty radii from the *individual* trials, not the per-workload
        # means: runtime signatures are single (noisy) collections, so the
        # in-class radius must reflect single-collection spread.
        distances = np.linalg.norm(Xz - clustering.centroids[cluster_labels], axis=1)
        novelty_radii = np.full(clustering.n_classes, -np.inf)
        np.maximum.at(novelty_radii, cluster_labels, distances)

        repository.clear()
        report = LearningReport(
            n_workloads=len(workloads),
            n_classes=clustering.n_classes,
            selected_metrics=selection.selected,
            tuning_invocations=len(tuned),
            tuning_seconds_total=tuning_seconds,
        )
        for cluster, band, allocation in tuned:
            entry = repository.store(cluster, band, allocation, tuned_at=now)
            report.class_allocations[(cluster, band)] = entry.allocation
        return TrainedModel(
            schema=SignatureSchema(metric_names=selection.selected),
            standardizer=standardizer,
            clustering=clustering,
            classifier=classifier,
            novelty_radii=novelty_radii,
            class_workloads=class_workloads,
            learning_report=report,
        )

    def _install(
        self,
        model: TrainedModel,
        repository: AllocationRepository,
        *,
        fleet_shared: bool = False,
    ) -> None:
        """Serve ``model`` from ``repository``: the one way a model
        arrives (:meth:`learn`, a staged re-learn whose sweep drained,
        :meth:`adopt_trained_state`, and
        :func:`~repro.core.persistence.restore_manager_state`).

        What belonged to the replaced model goes with it: its miss
        streak, a raised re-learn request, and a re-learned model still
        staged behind its sweep (whose grants stay charged: the profiler
        runs them either way).  The repository is this manager's own to
        clear on its next learn unless ``fleet_shared`` (adopted: other
        managers serve from it too).
        """
        self.model = model
        self.repository = repository
        self._repository_external = False
        self._repository_fleet_shared = fleet_shared
        self.relearn_requested = False
        self._consecutive_misses = 0
        self._staged_model = None
        self._staged_burst = ()

    def adopt_trained_state(self, leader: "DejaVuManager") -> None:
        """Reuse another manager's learned model instead of re-learning.

        The paper amortizes one profiling environment and one signature
        repository across many co-hosted services (Sec. 5): replicas of
        the same service do not each pay the learning day.  Adopting
        serves the leader's model object itself (nothing refits a
        trained model, so sharing it is safe) from the leader's
        repository object, so tuned allocations and hit/miss accounting
        are fleet-wide.  Once shared, the repository is marked
        fleet-shared on *both* sides: re-clustering renumbers workload
        classes, so a manager that re-learns first detaches onto a
        private repository rather than clearing (or re-keying) the
        fleet's shared cache under everyone else.
        """
        if not leader.is_trained:
            raise ValueError("cannot adopt state from an untrained manager")
        if leader is self:
            raise ValueError("a manager cannot adopt its own state")
        self._install(leader.model, leader.repository, fleet_shared=True)
        leader._repository_fleet_shared = True

    # ------------------------------------------------------------------
    # Online loop (Sec. 3.5-3.6)
    # ------------------------------------------------------------------

    @property
    def is_trained(self) -> bool:
        return self.model is not None

    def attach_profiling_queue(self, queue) -> None:
        """Route this manager's profiling through a shared queue.

        Every signature collection — per-adaptation, post-relearn
        re-classification, interference-escalation probes, and the
        auto-relearn learning sweep — is then charged against the
        queue's slots.  Queue feedback is real, not accounting-only: a
        rejected request defers the adaptation to the next step, and a
        waited-for request delays the deployment by the queue residency
        (see :class:`_PendingDeployment`).
        """
        self.profiling_queue = queue

    def _charge_profiling(
        self,
        t: float,
        *,
        bounded: bool = True,
        priority: int = PRIORITY_ADAPTATION,
        kind: str = "adapt",
    ) -> ProfilingGrant | None:
        """Charge one profiling run; returns the grant, or None if the
        bounded queue turned the request away (rejected or shed).

        Without a queue the run is free and instantaneous: a synthetic
        zero-wait grant is returned so callers need no special case.
        """
        if self.profiling_queue is None:
            return ProfilingGrant(
                requested_at=t,
                start_at=t,
                finish_at=t,
                priority=priority,
                kind=kind,
            )
        grant = self.profiling_queue.request(
            t, bounded=bounded, priority=priority, kind=kind
        )
        if not grant.accepted:
            return None
        return grant

    def _flush_pending_deployment(self, t: float) -> None:
        """Deploy a queue-delayed decision once its signature is in."""
        pending = self.pending_deployment
        if pending is None:
            return
        grant = pending.grant
        if grant is not None and grant.outcome == "revoked":
            # A profiler outage destroyed the signature run this
            # decision waited on.  Bounded retry-with-backoff: after the
            # backoff elapses, re-charge the queue; once retries are
            # exhausted either serve the last-known-good repository
            # allocation the decision already resolved (degraded mode)
            # or abandon the adaptation (the no-recovery baseline).
            if pending.retries < self.config.profiling_retry_limit:
                if pending.retry_at is None:
                    backoff = self.config.profiling_retry_backoff_seconds
                    pending.retry_at = t + backoff * (2.0 ** pending.retries)
                    return
                if t + 1e-9 < pending.retry_at:
                    return
                self.profiling_retries += 1
                retry = self._charge_profiling(
                    t, priority=PRIORITY_ADAPTATION, kind="retry"
                )
                pending.retries += 1
                pending.retry_at = None
                if retry is not None:
                    pending.grant = retry
                    pending.apply_at = retry.start_at
                # Otherwise the queue turned the retry away (bounded
                # reject / shed): the attempt is burnt, back off again.
                return
            self.pending_deployment = None
            if self.config.degraded_fallback and self.is_trained:
                self.degraded_adaptations += 1
                self.production.apply(pending.allocation, t)
                self.mark_deployed(pending)
            else:
                self.revoked_adaptations += 1
            return
        if grant is not None and grant.outcome == "evicted":
            # The signature run this decision waited on was displaced
            # by a higher bidder: the decision never lands, the old
            # allocation keeps serving until the next periodic check.
            self.pending_deployment = None
            self.evicted_adaptations += 1
            return
        apply_at = pending.apply_at
        if grant is not None and grant.revised:
            # Priority scheduling moved the signature after the
            # decision was made; deploy at the revised finish-of-wait.
            apply_at = grant.start_at
        if t + 1e-9 < apply_at:
            return
        self.production.apply(pending.allocation, apply_at)
        self.mark_deployed(pending)
        if pending.owes_check:
            self.post_deploy_check(t, pending)

    def mark_deployed(self, decision: _PendingDeployment) -> None:
        """Record that ``decision``'s allocation is now in production:
        it no longer waits (when it was the pending one), and its class
        serves at interference band 0.

        The scalar flush calls this after its own deploy; the batched
        wave deploys in the engine's one deploy pass
        (``FleetEngine._deploy``), which calls it for every row —
        those whose allocation was already deployed included.
        """
        if decision is self.pending_deployment:
            self.pending_deployment = None
        workload_class = decision.workload_class
        self._deployed_class = workload_class
        self._deployed_band = None if workload_class is None else 0

    def post_deploy_check(
        self, t: float, landed: _PendingDeployment
    ) -> Allocation:
        """The scalar post-deploy SLO check of a deployed decision;
        returns the allocation finally deployed.

        It runs from the step that noticed the deployment; escalation
        probes are charged at this step's time (queue time is
        monotone).
        """
        return self._interference_check(
            t, landed.workload, landed.workload_class, landed.allocation
        )

    def finish_landing(
        self, t: float, failed: _PendingDeployment | None
    ) -> None:
        """The rest of a landed lane's step, in lane order: the scalar
        post-deploy check of a decision that ``failed`` the vectorized
        pre-check (None when it passed or owes no check), then routine
        re-signature traffic — the order :meth:`poll_pending_deployment`
        charges the queue in."""
        if failed is not None:
            self.post_deploy_check(t, failed)
        self._maybe_resignature(t)

    def poll_pending_deployment(self, t: float) -> None:
        """Per-step housekeeping for steps the engine handles itself.

        The batched fleet engine calls this on steps where it bypasses
        :meth:`on_step` (it runs the periodic check itself): land any
        due queue-delayed deployment, swap in a staged re-learned model
        once its sweep drains, and keep routine re-signature traffic
        flowing.
        """
        self._poll_staged_model(t)
        if self.pending_deployment is not None:
            self._flush_pending_deployment(t)
        self._maybe_resignature(t)

    def _maybe_resignature(self, t: float) -> None:
        """Charge routine background re-signature traffic (lowest bid).

        Accounting-only: the grant's outcome does not change behavior —
        its role is to occupy (or be shed from) the shared profiler so
        SLO-driven work has something to outbid.
        """
        every = self.config.resignature_every_seconds
        if every is None or t + 1e-9 < self._next_resignature:
            return
        self._next_resignature = t + every
        if self.profiling_queue is None:
            return
        self.profiling_queue.request(
            t, priority=PRIORITY_ROUTINE, kind="resignature"
        )
        self.resignature_requests += 1

    def on_step(self, ctx: StepContext) -> None:
        """Engine hook: adapt periodically, and on SLO violations when
        ``adapt_on_violation`` is set.

        An adaptation whose profiling request was rejected by a bounded
        shared queue returns no event; the check is then retried on the
        next step instead of waiting a full interval.  Violation
        -triggered adaptations bid at :data:`PRIORITY_ESCALATION` — the
        SLO is already burning, so they outrank periodic work on a
        priority queue.
        """
        self._poll_staged_model(ctx.t)
        self._flush_pending_deployment(ctx.t)
        self._maybe_resignature(ctx.t)
        if ctx.t + 1e-9 >= self._next_check:
            if self.adapt(ctx) is not None:
                self._next_check = ctx.t + self.config.check_interval_seconds
                self._last_adapt = ctx.t
            return
        if not (self.config.adapt_on_violation and self.is_trained):
            return
        cooldown = 2.0 * self.profiler.signature_seconds
        if ctx.t - self._last_adapt < cooldown:
            return
        sample = self.production.performance_at(ctx.workload, ctx.t)
        if not self.production.service.slo_met(sample):
            if self.adapt(ctx, priority=PRIORITY_ESCALATION) is not None:
                self._next_check = ctx.t + self.config.check_interval_seconds
                self._last_adapt = ctx.t

    def classify(self, workload: Workload) -> tuple[int, float, np.ndarray]:
        """Collect a signature and classify it.

        One lane's adaptation is the one-row case of the batched wave:
        a one-row :meth:`~repro.telemetry.monitor.Monitor.collect_matrix`
        pass over the schema's :meth:`signature_columns`, classified by
        :meth:`batch_classifier`.

        Returns
        -------
        (label, certainty, signature_z):
            Certainty combines the classifier's posterior confidence
            with a novelty check against the assigned cluster's radius.
        """
        _model, _novelty, batch, columns = self._batch_state()
        monitor = self.profiler.monitor
        X = monitor.collect_matrix(
            [workload], monitors=[monitor], columns=columns
        )
        result = batch.classify_matrix(X)
        return (
            int(result.labels[0]),
            float(result.certainties[0]),
            result.signatures_z[0],
        )

    def relearn(self, now: float, workloads: list[Workload] | None = None) -> LearningReport:
        """Re-run clustering and tuning on recent workloads (Sec. 3.5).

        "If the repository repeatedly outputs low certainty levels, it
        most likely means that the workload has changed over time and
        that the current clustering is no longer relevant."  By default
        the retained :attr:`workload_history` is used.

        Raises
        ------
        ValueError
            If no (or too little) history is available and no workload
            list was supplied, or if the workloads hold fewer than
            ``config.k_min`` distinct ones (checked before the sweep is
            charged to the profiling queue); otherwise as :meth:`learn`.
        """
        if workloads is None:
            workloads = [w for _t, w in self.workload_history]
        if len(workloads) < 2:
            raise ValueError(
                "re-learning needs recent workloads; none were observed"
            )
        self._check_distinct(workloads)
        burst = self._charge_relearn_sweep(now, len(workloads))
        if burst:
            report = self._stage_relearn(now, workloads, burst)
        else:
            report = self.learn(workloads, now=now)
        self.relearn_count += 1
        return report

    def _check_distinct(self, workloads: list[Workload]) -> None:
        distinct = len(set(workloads))
        if distinct < self.config.k_min:
            raise ValueError(
                f"learning needs at least k_min = {self.config.k_min} "
                f"distinct workloads; the history holds {distinct}"
            )

    def _charge_relearn_sweep(
        self, now: float, n_workloads: int
    ) -> tuple[ProfilingGrant, ...]:
        """Charge a re-learn's profiling burst to the shared queue.

        The sweep re-profiles every retained workload
        ``trials_per_workload`` times — a burst that previously bypassed
        the :class:`~repro.sim.profiling_queue.ProfilingQueue` entirely,
        making reported contention a lower bound.  The burst is a scheduled
        sweep, not an online arrival, so it stacks past any
        ``max_pending`` bound instead of being rejected; under a
        priority queue it bids at :data:`PRIORITY_RELEARN`, so later
        SLO-driven arrivals overtake its unstarted remainder.

        Returns the burst's grants (empty without a queue): their queue
        residency gates the re-learned model's availability.
        """
        if self.profiling_queue is None:
            return ()
        return tuple(
            self.profiling_queue.request(
                now, bounded=False, priority=PRIORITY_RELEARN, kind="relearn"
            )
            for _ in range(n_workloads * self.config.trials_per_workload)
        )

    @property
    def relearn_pending(self) -> bool:
        """A re-learned model is staged behind its queued sweep."""
        return self._staged_model is not None

    @property
    def model_available_at(self) -> float:
        """When the staged re-learned model's sweep drains (0.0 when
        none is staged).  Re-read from the burst's grants: a priority
        queue may push their projected finishes later as higher bidders
        arrive."""
        return max((g.finish_at for g in self._staged_burst), default=0.0)

    def _stage_relearn(
        self,
        now: float,
        workloads: list[Workload],
        burst: tuple[ProfilingGrant, ...],
    ) -> LearningReport:
        """Compute the new model but withhold it until the sweep drains.

        The learning sweep occupies real queue residency; installing
        the re-learned model the instant it is trained would mean the
        profiler produced a model before running its trials.  The new
        model and its private repository are computed eagerly (the
        clustering is deterministic given the workloads) but *staged*:
        the old model keeps serving — classifications, batch grouping,
        repository lookups all against the pre-relearn state — until
        the burst's last grant finishes, when :meth:`_poll_staged_model`
        installs it.  The re-learn request is answered now, so the miss
        streak that raised it starts over.
        """
        repository = AllocationRepository()
        model = self._train(workloads, now, repository)
        self._staged_model = (model, repository)
        self._staged_burst = burst
        self.relearn_requested = False
        self._consecutive_misses = 0
        return model.learning_report

    def _poll_staged_model(self, t: float) -> None:
        """Install a staged re-learned model once its sweep drains."""
        if self._staged_model is not None and t + 1e-9 >= self.model_available_at:
            self._install(*self._staged_model)

    def _maybe_auto_relearn(self, t: float) -> bool:
        """Run an automatic re-learn when flagged and enough history."""
        if not (self.config.auto_relearn and self.relearn_requested):
            return False
        if self._staged_model is not None:
            # A previous re-learn's model is still gated behind its
            # sweep; don't stack another burst on top of it.
            return False
        if len(self.workload_history) < self.config.min_relearn_history:
            return False
        try:
            self.relearn(now=t)
        except ValueError:
            # The history cannot be learned from (near-identical
            # workloads leave no feature that separates them): keep
            # serving the old model and ask again only after another
            # relearn_after_misses misses.  A queued sweep stays charged:
            # the profiler ran it before its data was found wanting.
            self.relearn_requested = False
            self._consecutive_misses = 0
            self.failed_relearns += 1
            return False
        return True

    def adapt(
        self, ctx: StepContext, priority: int | None = None
    ) -> AdaptationEvent | None:
        """One adaptation: profile, classify, redeploy (Sec. 3.5).

        With a shared profiling queue attached, the signature collection
        is charged first: a rejected request defers the whole adaptation
        (returns None), and a waited-for request delays the deployment
        by the wait (the decision is made on a stale signature).
        ``priority`` is the queue bid; periodic checks use the default
        :data:`PRIORITY_ADAPTATION`, violation-triggered callers pass
        :data:`PRIORITY_ESCALATION`.
        """
        self.workload_history.append((ctx.t, ctx.workload))
        grant = self._charge_profiling(
            ctx.t,
            priority=PRIORITY_ADAPTATION if priority is None else priority,
        )
        if grant is None:
            self.deferred_adaptations += 1
            return None
        label, certainty, _xz = self.classify(ctx.workload)
        return self._finish_adapt(ctx.t, ctx.workload, label, certainty, grant)

    def _finish_adapt(
        self,
        t: float,
        workload: Workload,
        label: int,
        certainty: float,
        grant: ProfilingGrant,
        prefetched=_UNRESOLVED,
        deployed: _PendingDeployment | None = None,
        failed: bool = False,
    ) -> AdaptationEvent:
        """Everything after classification: lookup, deploy, escalate.

        Shared by the scalar path (:meth:`adapt`) and the batched fleet
        path (:meth:`complete_batched_adapt`).  ``grant`` is the
        signature run the decision was made on; the wait it quoted when
        issued delays the deployment (a batched wave finishes a lane
        after later lanes charged the queue, which may have revised the
        grant since).  ``prefetched`` carries the batched wave's
        repository lookup for this lane, whose hit/miss statistics the
        wave has already charged.

        A decision that deploys at once is deployed here and then
        checked (:meth:`_interference_check`) — unless the batched
        wave's deploy pass has already ``deployed`` it (its
        :meth:`at_once_deployment`) and pre-checked it, so only a
        decision that ``failed`` that pre-check runs the check
        (:meth:`post_deploy_check`).
        """
        config = self.config
        wait = grant.quoted_wait
        hit = certainty >= config.certainty_threshold
        if hit:
            self._consecutive_misses = 0
            entry = (
                prefetched
                if prefetched is not _UNRESOLVED
                else self.repository.lookup(label, 0)
            )
            if entry is None:
                # A class without a band-0 entry should not happen after
                # learning, but fall back safely.
                allocation = self._full_capacity()
                hit = False
            else:
                allocation = entry.allocation
        else:
            self._consecutive_misses += 1
            self.repository.stats.misses += 1
            allocation = self._full_capacity()
            if self._consecutive_misses >= config.relearn_after_misses:
                self.relearn_requested = True
                if self._maybe_auto_relearn(t) and self._staged_model is None:
                    # The relearn was immediate (no queue): classify
                    # this workload against the fresh model before
                    # deploying.  The extra collection is charged like
                    # any other; if the queue rejects it, deploy the
                    # full-capacity fallback without re-classifying.
                    # When the new model is *staged* behind its queued
                    # sweep instead, the old model keeps serving and
                    # this adaptation deploys the fallback as-is.
                    extra = self._charge_profiling(
                        t, priority=PRIORITY_RELEARN, kind="reclassify"
                    )
                    if extra is not None:
                        wait += extra.quoted_wait
                        label, certainty, _xz = self.classify(workload)
                        if certainty >= config.certainty_threshold:
                            entry = self.repository.lookup(label, 0)
                            if entry is not None:
                                hit = True
                                allocation = entry.allocation
        if wait > 0.0:
            # The signature finishes collecting `wait` seconds from now:
            # the decision deploys late, and the previous allocation
            # keeps serving until then.  A queue wait longer than the
            # check interval means the *previous* delayed decision never
            # landed before this fresher one replaced it — count the
            # supersession (its event stays on the books but its
            # allocation never served).
            if self.pending_deployment is not None:
                self.superseded_deployments += 1
            self.pending_deployment = _PendingDeployment(
                t + wait,
                allocation,
                workload,
                label if hit else None,
                hit and config.enable_interference_detection,
                grant,
            )
        elif deployed is None:
            self.production.apply(allocation, t)
            self._deployed_class = label if hit else None
            self._deployed_band = 0 if hit else None
            if hit and config.enable_interference_detection:
                allocation = self._interference_check(
                    t, workload, label, allocation
                )
        elif failed:
            allocation = self.post_deploy_check(t, deployed)
        # Positional: one event per adaptation.
        event = AdaptationEvent(
            t,
            self.profiler.signature_seconds + wait,
            hit,
            label if hit else None,
            certainty,
            allocation,
        )
        self.adaptation_events.append(event)
        return event

    def _full_capacity(self) -> Allocation:
        itype = self._full_capacity_type
        if itype is None:
            return self.production.provider.full_capacity()
        return self.production.provider.full_capacity(itype)

    def _interference_check(
        self, t: float, workload: Workload, label: int, allocation: Allocation
    ) -> Allocation:
        """Post-deploy SLO check and interference escalation (Sec. 3.6).

        Returns the finally deployed allocation.  The batched wave's
        deploy pass evaluates this check's first attempt for all of a
        step's deployments, landed and at-once, as vectors
        (``FleetEngine._precheck_landed``) and calls it, through
        :meth:`post_deploy_check`, only for the lanes whose SLO fails
        there; on the others it would stop at once.
        """
        service = self.production.service
        for _attempt in range(self.estimator.n_bands - 1):
            check_t = t + self.config.settle_delay_seconds
            capacity = self.production.provider.capacity_at(check_t)
            if capacity <= 0:
                break
            prod = service.performance(
                workload,
                capacity,
                interference=self.production.interference_at(check_t),
                now=check_t,
            )
            if service.slo_met(prod):
                break
            # Workload changes are excluded as the cause: the class was
            # just identified in isolation.  Blame interference (Eq. 2).
            # The isolated run is a real profiling pass on the clone:
            # charge it to the shared queue.  A rejection means the
            # profiler is saturated and blame cannot be attributed now —
            # the escalation attempt is abandoned, not free.  Probes bid
            # at the top class: an un-attributed interference band keeps
            # violating the SLO every step it goes undiagnosed.
            probe = self._charge_profiling(
                t, priority=PRIORITY_ESCALATION, kind="probe"
            )
            if probe is None:
                break
            iso = self.profiler.isolated_performance(workload, allocation)
            estimate = self.estimator.estimate(
                service.slo,
                prod.slo_metric(service.slo),
                iso.slo_metric(service.slo),
            )
            deployed = self._deployed_band or 0
            if estimate.index < self.estimator.first_edge:
                # The gap is too small to be co-located tenants; most
                # likely an internal transient — leave the allocation.
                break
            band = estimate.band if estimate.band > deployed else deployed + 1
            band = min(band, self.estimator.n_bands - 1)
            if band == deployed:
                break
            entry = self.repository.lookup(label, band)
            if entry is None:
                outcome = self.tuner.tune(
                    self.model.class_workloads.get(label, workload),
                    assumed_interference=self.estimator.assumed_theft(band),
                )
                entry = self.repository.store(
                    label, band, outcome.allocation, tuned_at=t
                )
            self.production.apply(entry.allocation, t)
            allocation = entry.allocation
            self._deployed_band = band
        return allocation

    # ------------------------------------------------------------------
    # Batched fleet control plane (repro.core.batch + FleetEngine)
    # ------------------------------------------------------------------

    def batch_group_key(self) -> tuple | None:
        """Identity of the trained state this manager classifies with.

        Lanes whose managers return equal keys share one trained model
        (one ``adopt_trained_state`` family) *and* one repository, so
        the fleet engine may classify their signatures as one matrix
        and resolve their lookups in one batch.  Installing a model
        replaces the model object, so a re-learned or restored manager
        falls out of its old group automatically.
        """
        if not self.is_trained:
            return None
        return (
            id(self.model),
            id(self.repository),
            self.config.novelty_radius_factor,
            self.config.novelty_certainty,
        )

    def batch_classifier(self) -> BatchClassifier:
        """The cached vectorized classify path over this trained model."""
        return self._batch_state()[2]

    def signature_columns(self) -> np.ndarray:
        """Schema metric positions within the monitor's full vector:
        ``collect_matrix(columns=...)`` collects signatures directly,
        and ``matrix[:, columns]`` slices full metric rows down to
        them."""
        return self._batch_state()[3]

    def _batch_state(self) -> tuple:
        """The batched-path cache, rebuilt on access when the model (by
        identity) or the novelty settings (by equality) it was built
        from have changed: a newly installed model, or a replaced
        ``config``."""
        model = self.model
        if model is None:
            raise RuntimeError("DejaVu used online before learning")
        novelty = (
            self.config.novelty_radius_factor,
            self.config.novelty_certainty,
        )
        cache = self._batch_cache
        if cache is None or cache[0] is not model or cache[1] != novelty:
            names = self.profiler.monitor.metric_names()
            columns = np.array(
                [names.index(name) for name in model.schema.metric_names],
                dtype=int,
            )
            batch = BatchClassifier(model, *novelty)
            cache = self._batch_cache = (model, novelty, batch, columns)
        return cache

    def begin_batched_adapt(
        self, t: float, workload: Workload
    ) -> ProfilingGrant | None:
        """Phase 1a of a batched adaptation: the gate, without collection.

        Mirrors :meth:`on_step` and :meth:`adapt` up to (but excluding)
        the signature collection: the step's housekeeping, then record
        the workload and charge the shared profiling queue.  Returns the
        signature run's grant, for :meth:`complete_batched_adapt`, or
        None when a bounded queue rejected the request (the adaptation
        is deferred; the engine retries next step).  The engine then
        collects the gated lanes' signatures in one
        :meth:`~repro.telemetry.monitor.Monitor.collect_matrix` pass
        over the signature columns per shared-model group (phase 1b),
        consuming each monitor's noise streams exactly as the scalar
        path would.
        """
        if self.model is None:
            raise RuntimeError("DejaVu used online before learning")
        if self._staged_model is not None:
            self._poll_staged_model(t)
        if self.pending_deployment is not None:
            self._flush_pending_deployment(t)
        if t + 1e-9 >= self._next_resignature:
            self._maybe_resignature(t)
        self.workload_history.append((t, workload))
        queue = self.profiling_queue
        # _charge_profiling(t), with the queue called directly: one
        # gate per due lane per wave.
        grant = self._charge_profiling(t) if queue is None else queue.request(t)
        if grant.outcome != "accepted":
            self.deferred_adaptations += 1
            return None
        return grant

    def at_once_deployment(
        self,
        t: float,
        workload: Workload,
        label: int,
        certainty: float,
        prefetched,
        grant: ProfilingGrant,
    ) -> _PendingDeployment | None:
        """The deployment :meth:`complete_batched_adapt` will make at
        once for these arguments, without making it, so the engine's
        deploy pass can make and pre-check it before the lane-order
        finish (which is then told so).

        None when the decision will not deploy at once — the grant
        quoted a wait, so it is queue-delayed — or its allocation is
        known only after the finish: a miss that can re-learn on the
        spot and re-classify (an automatic re-learn with no queue
        attached; with one, a re-learned model is staged behind its
        sweep and the miss deploys the fallback).  Otherwise this is
        :meth:`_finish_adapt`'s choice: the prefetched band-0 entry of
        a certain classification, else the full-capacity fallback.
        """
        if grant.quoted_wait > 0.0:
            return None
        config = self.config
        certain = certainty >= config.certainty_threshold
        if certain and prefetched is not None:
            return _PendingDeployment(
                t,
                prefetched.allocation,
                workload,
                label,
                config.enable_interference_detection,
            )
        if (
            not certain
            and config.auto_relearn
            and self.profiling_queue is None
            and self._consecutive_misses + 1 >= config.relearn_after_misses
        ):
            return None
        return _PendingDeployment(t, self._full_capacity(), workload, None, False)

    def complete_batched_adapt(
        self,
        t: float,
        workload: Workload,
        label: int,
        certainty: float,
        prefetched,
        grant: ProfilingGrant,
        deployed: _PendingDeployment | None = None,
        failed: bool = False,
    ) -> AdaptationEvent:
        """Phase 2: finish an adaptation whose classification (and
        band-0 lookup, for hits) the engine computed in one batch, on
        the ``grant`` :meth:`begin_batched_adapt` returned.

        ``deployed`` is this decision's :meth:`at_once_deployment` when
        the engine's deploy pass has already made it, and ``failed``
        says it failed the pass's post-deploy pre-check, so the scalar
        check runs here, at the lane's place in lane order.  Advances
        the periodic check exactly as :meth:`on_step` does after a
        scalar adaptation.
        """
        event = self._finish_adapt(
            t,
            workload,
            int(label),
            float(certainty),
            grant,
            prefetched,
            deployed,
            failed,
        )
        self._next_check = t + self.config.check_interval_seconds
        self._last_adapt = t
        return event

    # ------------------------------------------------------------------
    # Introspection used by the analysis layer
    # ------------------------------------------------------------------

    def mean_adaptation_seconds(self) -> float:
        """Average reaction time over all adaptations (Fig. 8's bar)."""
        if not self.adaptation_events:
            raise ValueError("no adaptations recorded")
        return float(
            np.mean([e.duration_seconds for e in self.adaptation_events])
        )

    def miss_events(self) -> list[AdaptationEvent]:
        return [e for e in self.adaptation_events if not e.cache_hit]
