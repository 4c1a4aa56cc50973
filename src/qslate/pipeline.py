"""End-to-end model fitting: features -> clustering -> Q-tables.

Shared by the train and tune entry points so a hyperparameter grid cell and
a production fit run exactly the same code.  ``fit_pipeline`` runs every
stage in order through ``build_raw_features``, ``fit_components`` and
``fit_on_reduced``; ``tune`` calls those three itself so that it can build
features once and fit sparse PCA once for cells that share it.

Features, sparse PCA and clustering work on distinct user states, each
weighted by its session count; cluster labels are then scattered back to
sessions through ``FeatureMatrix.rows``, and everything after (transitions,
support counts, training) counts sessions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, TypeVar

import numpy as np

from .clustering import (
    ClusterModel,
    cluster_model_fields,
    cluster_model_from,
    fit_dbscan,
    fit_kmeans,
    merge_small_clusters,
)
from .errors import (DataError, ModelFileError, json_column, json_scalar, read_model_file,
                     write_model_file)
from .features import (
    FeatureMatrix,
    SparseComponents,
    build_raw_features,
    fit_sparse_pca,
    transform,
)
from .ingest import (
    ItemCatalog,
    SessionTable,
    TransitionTable,
    UserTable,
    sessions_to_transitions,
)
from .qlearning import QTableBank, TrainConfig, export_policies, train

DEFAULT_MIN_CLUSTER_SUPPORT = 500

T = TypeVar("T")


def timed(timings: list[tuple[str, float]], name: str, fn: Callable[[], T]) -> T:
    """Run ``fn()``, append ``(name, wall seconds)`` to ``timings``, return its result."""
    start = time.perf_counter()
    result = fn()
    timings.append((name, time.perf_counter() - start))
    return result


@dataclass(frozen=True)
class PipelineParams:
    """Every knob of the fit, with the documented defaults."""

    k_features: int = 16
    l1_penalty: float = 0.1
    cluster: Mapping[str, Any] = field(default_factory=lambda: {"method": "kmeans", "k": 8})
    alpha: float = 0.1
    gamma: float = 0.9
    epochs: int = 10
    min_visits: int = 3
    min_cluster_support: int = DEFAULT_MIN_CLUSTER_SUPPORT
    seed: int = 0
    threads: int = 1
    deterministic: bool = False


@dataclass
class PipelineModel:
    """What serving reads: the components and the cluster model that map a
    state to a cluster id, and each cluster's policy row (``n_clusters × 9``
    int64, as :func:`export_policies` gave it at ``min_visits``)."""

    components: SparseComponents
    cluster_model: ClusterModel
    policies: np.ndarray
    min_visits: int


@dataclass
class FitStats:
    """A fit's report, with the trained Q-tables (``bank``) and each policy
    row's fallback layer per step (``layers``, indices into
    :data:`~qslate.qlearning.POLICY_LAYERS`)."""

    timings: list[tuple[str, float]]
    n_clusters: int
    n_clusters_before_merge: int
    cluster_sizes: list[int]
    n_transitions: int
    workers_requested: int
    workers_used: int
    bank: QTableBank
    layers: np.ndarray

    def to_dict(self) -> dict:
        return {
            "timings": [{"stage": name, "seconds": secs} for name, secs in self.timings],
            "n_clusters": self.n_clusters,
            "n_clusters_before_merge": self.n_clusters_before_merge,
            "cluster_sizes": self.cluster_sizes,
            "n_transitions": self.n_transitions,
            "table_cells": self.bank.n_cells(),
            "workers_requested": self.workers_requested,
            "workers_used": self.workers_used,
        }


def _fit_cluster_model(
    Z: np.ndarray, rows: np.ndarray, spec: Mapping[str, Any], seed: int
) -> ClusterModel:
    method = spec.get("method")
    if method == "kmeans":
        return fit_kmeans(Z, k=int(spec["k"]), seed=seed, rows=rows)
    if method == "dbscan":
        return fit_dbscan(Z, eps=float(spec["eps"]), min_pts=int(spec["min_pts"]), rows=rows)
    raise DataError(f"unknown cluster method {method!r}")


def _stage_seeds(seed: int) -> tuple[int, int]:
    """Independent seeds for sparse PCA and for clustering."""
    seed_pca, seed_cluster = np.random.SeedSequence(seed).generate_state(2)
    return int(seed_pca), int(seed_cluster)


def fit_components(raw: FeatureMatrix, params: PipelineParams) -> SparseComponents:
    """The sparse PCA stage, seeded from ``params.seed``."""
    return fit_sparse_pca(
        raw,
        k=params.k_features,
        l1_penalty=params.l1_penalty,
        seed=_stage_seeds(params.seed)[0],
    )


def fit_pipeline(
    sessions: SessionTable, catalog: ItemCatalog, params: PipelineParams
) -> tuple[PipelineModel, FitStats]:
    """Fit the full pipeline on the given sessions."""
    if not sessions:
        raise DataError("cannot fit on zero sessions")
    timings: list[tuple[str, float]] = []
    raw = timed(timings, "build_features", lambda: build_raw_features(sessions, catalog))
    components = timed(timings, "fit_sparse_pca", lambda: fit_components(raw, params))
    reduced = timed(timings, "transform", lambda: transform(raw, components))
    return fit_on_reduced(
        components,
        reduced,
        raw.rows,
        lambda: sessions_to_transitions(sessions, catalog),
        catalog,
        params,
        timings,
    )


def fit_on_reduced(
    components: SparseComponents,
    reduced: np.ndarray,
    rows: np.ndarray,
    make_transitions: Callable[[], TransitionTable],
    catalog: ItemCatalog,
    params: PipelineParams,
    timings: list[tuple[str, float]],
) -> tuple[PipelineModel, FitStats]:
    """The stages after ``transform``: cluster, assign, merge and train;
    then the policy rows of ``catalog``'s items, exported from the trained
    bank at ``params.min_visits``.

    ``reduced`` holds the distinct training states projected on
    ``components`` and ``rows`` each session's state, as in
    :class:`FeatureMatrix`; clusters are fit on the states, each weighted by
    its session count, and their labels scattered back to the sessions.
    ``make_transitions`` returns the sessions' transition table when that
    stage runs.  The ``merge`` stage counts each cluster's transitions and folds
    clusters below ``min_cluster_support`` into their neighbors.  Stage
    timings are appended to ``timings``.  The stats report the training
    workers asked for (``threads``) and used (:meth:`TrainConfig.workers`).
    """
    seed_cluster = _stage_seeds(params.seed)[1]
    cluster_model = timed(
        timings,
        "fit_clusters",
        lambda: _fit_cluster_model(reduced, rows, params.cluster, seed_cluster),
    )
    assignments = timed(timings, "assign", lambda: cluster_model.assign_many(reduced)[rows])
    transitions = timed(timings, "transitions", make_transitions)

    n_before = cluster_model.n_clusters

    def merge() -> tuple[ClusterModel, np.ndarray]:
        counts = np.bincount(assignments[transitions.session_ref], minlength=n_before)
        return merge_small_clusters(cluster_model, counts, params.min_cluster_support)

    cluster_model, remap = timed(timings, "merge", merge)
    assignments = remap[assignments]

    bank = QTableBank(cluster_model.n_clusters)
    cfg = TrainConfig(
        alpha=params.alpha,
        gamma=params.gamma,
        epochs=params.epochs,
        threads=params.threads,
        deterministic=params.deterministic,
    )
    timed(timings, "train", lambda: train(bank, transitions, assignments, cfg))
    policies, layers = export_policies(bank, catalog, params.min_visits, return_layers=True)

    sizes = np.bincount(assignments, minlength=cluster_model.n_clusters)
    stats = FitStats(
        timings=timings,
        n_clusters=cluster_model.n_clusters,
        n_clusters_before_merge=n_before,
        cluster_sizes=[int(v) for v in sizes],
        n_transitions=len(transitions),
        workers_requested=params.threads,
        workers_used=cfg.workers(assignments[transitions.session_ref], transitions.terminal),
        bank=bank,
        layers=layers,
    )
    return PipelineModel(
        components=components,
        cluster_model=cluster_model,
        policies=policies,
        min_visits=params.min_visits,
    ), stats


def recommend_for_sessions(
    model: PipelineModel, sessions: SessionTable | UserTable, catalog: ItemCatalog
) -> np.ndarray:
    """Batch recommendation: an n×9 int64 array, row ``i`` the policy of
    session or user ``i``'s cluster; only their states are read."""
    raw = build_raw_features(sessions, catalog)
    reduced = transform(raw, model.components)
    cluster_ids = model.cluster_model.assign_many(reduced)[raw.rows]
    return model.policies[cluster_ids]


COMPONENTS_FILE = "components.json"
CLUSTERS_FILE = "clusters.json"
QTABLES_FILE = "qtables.json"
CLUSTERS_FORMAT = "qslate-clusters"
CLUSTERS_VERSION = 4


def save_models(model: PipelineModel, model_dir: str | Path, stamp: str,
                bank: QTableBank) -> None:
    """Write the model files: ``components.json``; ``clusters.json``, the
    cluster model with each cluster's policy row and their ``min_visits``;
    and ``qtables.json``, the ``bank`` they were exported from, as a record
    that no command reads back."""
    model_dir = Path(model_dir)
    model_dir.mkdir(parents=True, exist_ok=True)
    model.components.save(model_dir / COMPONENTS_FILE, stamp=stamp)
    write_model_file(model_dir / CLUSTERS_FILE, CLUSTERS_FORMAT, CLUSTERS_VERSION, stamp, {
        **cluster_model_fields(model.cluster_model),
        "policies": model.policies.tolist(),
        "min_visits": model.min_visits,
    })
    bank.save(model_dir / QTABLES_FILE, stamp=stamp)


def _clusters(payload: dict) -> tuple[ClusterModel, np.ndarray, int]:
    rows = payload["policies"]
    policies = json_column(rows, np.int64, "an item of cluster {}'s policy row")
    min_visits = json_scalar(payload["min_visits"], np.int64, "min_visits")
    return cluster_model_from(payload), policies.reshape(len(rows), 9), min_visits


def load_models(model_dir: str | Path, min_visits: int) -> tuple[PipelineModel, str]:
    """Load ``components.json`` and ``clusters.json``, requiring a common
    version stamp, one state dimension (the cluster model clusters vectors
    of the components' ``k``), a policy row for exactly the ids that the
    cluster model assigns, and rows exported at ``min_visits``."""
    model_dir = Path(model_dir)
    components, stamp = SparseComponents.load(model_dir / COMPONENTS_FILE)
    (cluster_model, policies, stored), stamp_b = read_model_file(
        model_dir / CLUSTERS_FILE, CLUSTERS_FORMAT, CLUSTERS_VERSION, _clusters
    )
    if stamp != stamp_b or stamp is None:
        raise ModelFileError(model_dir,
                             f"model files carry mismatched stamps ({stamp!r}, {stamp_b!r})")
    if components.k != cluster_model.dim:
        raise ModelFileError(
            model_dir,
            f"{COMPONENTS_FILE} holds {components.k} components, but {CLUSTERS_FILE} "
            f"clusters vectors of dim {cluster_model.dim}",
        )
    ids = cluster_model.cluster_ids()
    if ids != set(range(len(policies))):
        raise ModelFileError(
            model_dir / CLUSTERS_FILE,
            f"the cluster model assigns ids {sorted(ids)} but the file stores "
            f"{len(policies)} policy rows",
        )
    if stored != min_visits:
        raise ModelFileError(
            model_dir / CLUSTERS_FILE,
            f"the policy rows were exported at min_visits {stored}, not {min_visits}",
        )
    return PipelineModel(components, cluster_model, policies, min_visits), stamp
