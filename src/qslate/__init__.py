"""Offline tabular Q-learning recommender for 3x3 purchase slates."""

from .clustering import (
    ClusterModel,
    DbscanModel,
    KMeansModel,
    fit_dbscan,
    fit_kmeans,
    merge_small_clusters,
)
from .errors import (
    ComponentCollapseError,
    DataError,
    FitError,
    ModelFileError,
    QslateError,
    TrainError,
)
from .features import (
    FeatureMatrix,
    SparseComponents,
    build_raw_features,
    fit_sparse_pca,
    transform,
)
from .ingest import (
    ItemCatalog,
    SessionRecord,
    SessionTable,
    SyntheticConfig,
    TransitionTable,
    UserTable,
    generate_synthetic,
    parse_items,
    parse_sessions,
    parse_users,
    serialize_items,
    serialize_sessions,
    sessions_to_transitions,
)
from .metric import MetricConfig, ScoreReport, holdout_split, score, tune
from .pipeline import PipelineParams, fit_pipeline, recommend_for_sessions
from .qlearning import QTableBank, TrainConfig, train

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
