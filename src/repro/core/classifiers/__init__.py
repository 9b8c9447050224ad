"""Runtime workload classifiers.

"We have experimented with numerous classifier implementations from the
WEKA package and observe that both Bayesian models and decision trees
work well ... We use the C4.5 decision tree in our evaluation (its open
source Java implementation — J48)" (Sec. 3.5).  Both families are
implemented here from scratch, plus the nearest-centroid classifier used
as an ablation baseline.
"""

from repro.core.classifiers.base import BatchPrediction, Classifier
from repro.core.classifiers.decision_tree import C45DecisionTree
from repro.core.classifiers.naive_bayes import GaussianNaiveBayes
from repro.core.classifiers.nearest_centroid import NearestCentroid

__all__ = [
    "BatchPrediction",
    "Classifier",
    "C45DecisionTree",
    "GaussianNaiveBayes",
    "NearestCentroid",
]
