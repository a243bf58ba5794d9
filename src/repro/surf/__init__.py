"""SURF — Search Using Random Forest (the paper's Section V).

Model-based search over the TCR parameter space: sample a batch, evaluate,
fit a surrogate (extremely randomized trees over binarized categorical
features), then iterate predict → select the most promising batch →
evaluate → retrain, up to ``nmax`` evaluations (Algorithm 2).

scikit-learn is not available in this environment, so the surrogate
(:mod:`repro.surf.forest`) is implemented from scratch on numpy, following
Geurts, Ernst & Wehenkel's "Extremely randomized trees" (the paper's [12]).
"""

from repro.surf.binarize import FeatureBinarizer, OrdinalEncoder
from repro.surf.forest import ExtraTreesRegressor, PoolRouter, pool_codes
from repro.surf.pool import GrowableArray, MaterializedPool, SpacePool, as_pool
from repro.surf.search import SURFSearch, SearchResult
from repro.surf.random_search import RandomSearch
from repro.surf.exhaustive import ExhaustiveSearch
from repro.surf.separable import SeparableExhaustiveSearch
from repro.surf.evaluator import BatchEvaluator, ConfigurationEvaluator, EvalOutcome
from repro.surf.telemetry import BatchRecord, SearchTelemetry
from repro.surf.faults import FaultSpec
from repro.surf.checkpoint import CheckpointManager, SearchCheckpointer

__all__ = [
    "FeatureBinarizer",
    "OrdinalEncoder",
    "ExtraTreesRegressor",
    "PoolRouter",
    "pool_codes",
    "GrowableArray",
    "MaterializedPool",
    "SpacePool",
    "as_pool",
    "SURFSearch",
    "SearchResult",
    "RandomSearch",
    "ExhaustiveSearch",
    "SeparableExhaustiveSearch",
    "BatchEvaluator",
    "ConfigurationEvaluator",
    "EvalOutcome",
    "BatchRecord",
    "SearchTelemetry",
    "FaultSpec",
    "CheckpointManager",
    "SearchCheckpointer",
]
