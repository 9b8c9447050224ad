"""DejaVu core: the paper's contribution.

The pipeline (Sec. 3, Fig. 3):

1. :mod:`repro.core.profiler` — profile workloads in isolation via the
   proxy/clone, collecting candidate metrics.
2. :mod:`repro.core.feature_selection` — pick the signature metrics
   (CfsSubsetEval + GreedyStepwise equivalent).
3. :mod:`repro.core.clustering` — identify workload classes (simple
   k-means, automatic k).
4. :mod:`repro.core.tuner` — find the cheapest SLO-meeting allocation
   per class (linear search, Sec. 3.4).
5. :mod:`repro.core.repository` — the DejaVu cache: (class,
   interference band) → allocation.
6. :mod:`repro.core.classifiers` — runtime cache lookup (C4.5/J48-style
   tree or naive Bayes) with certainty levels.
7. :mod:`repro.core.interference` — the interference index (Eq. 2).
8. :mod:`repro.core.manager` — ties it all together as a controller.
"""
