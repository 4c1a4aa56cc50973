"""User clustering over the reduced state space.

Two interchangeable models: k-means (k-means++ seeding, Lloyd iterations)
and DBSCAN.  Both expose a total ``assign``: k-means maps to the nearest
centroid with ties broken toward the lowest cluster id; DBSCAN maps to the
cluster of the nearest core point regardless of ``eps``, because every user
must receive some policy even if they would be noise under the training-time
rule.  Fitting is single-threaded and deterministic for a fixed seed.

Both fits take an optional ``rows`` index for training points that repeat
(the sessions of one user state): the training points are ``Z[rows]``, but
each distinct row of ``Z`` is measured once and weighted by its count in
``rows``.  Such a fit equals the fit of ``Z[rows]``: k-means++ draws the same
training points from the same random stream, and Lloyd's means, the inertia
and DBSCAN's eps-ball counts are weighted sums over the distinct rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

import numpy as np

from .errors import DataError, FitError, ModelFileError

CLUSTERS_FORMAT = "qslate-clusters"
CLUSTERS_VERSION = 1

# Rows per distance block: DBSCAN holds block x n distances at a time.
_BLOCK = 256


def _sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    aa = (A * A).sum(axis=1)[:, None]
    bb = (B * B).sum(axis=1)[None, :]
    d2 = aa + bb - 2.0 * (A @ B.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


@dataclass
class KMeansModel:
    """Fitted k-means: centroids plus an optional small-cluster merge map."""

    centroids: np.ndarray
    merge_map: tuple[int, ...] = field(default=())
    inertia_history: tuple[float, ...] = field(default=(), repr=False)
    labels_: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not self.merge_map:
            self.merge_map = tuple(range(len(self.centroids)))

    @property
    def n_clusters(self) -> int:
        return len(set(self.merge_map))

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]

    def assign_many(self, Z: np.ndarray) -> np.ndarray:
        Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
        if Z.shape[1] != self.dim:
            raise DataError(f"vector dim {Z.shape[1]} != model dim {self.dim}")
        raw = _sq_dists(Z, self.centroids).argmin(axis=1)
        mapper = np.asarray(self.merge_map)
        return mapper[raw]

    def assign(self, z: np.ndarray) -> int:
        return int(self.assign_many(np.asarray(z)[None, :])[0])


@dataclass
class DbscanModel:
    """Fitted DBSCAN: core points with their cluster labels."""

    eps: float
    min_pts: int
    core_points: np.ndarray
    core_labels: np.ndarray
    n_clusters: int
    n_noise: int = 0
    labels_: np.ndarray | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.core_points.shape[1]

    def assign_many(self, Z: np.ndarray) -> np.ndarray:
        Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
        if Z.shape[1] != self.dim:
            raise DataError(f"vector dim {Z.shape[1]} != model dim {self.dim}")
        out = np.empty(len(Z), dtype=np.int64)
        for start in range(0, len(Z), _BLOCK):
            block = slice(start, min(start + _BLOCK, len(Z)))
            nearest = _sq_dists(Z[block], self.core_points).argmin(axis=1)
            out[block] = self.core_labels[nearest]
        return out

    def assign(self, z: np.ndarray) -> int:
        return int(self.assign_many(np.asarray(z)[None, :])[0])


ClusterModel = Union[KMeansModel, DbscanModel]


def _training_rows(Z: np.ndarray, rows: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The row of each training point (default: one per row) and each row's count."""
    if rows is None:
        return np.arange(len(Z)), np.ones(len(Z), dtype=np.int64)
    weights = np.bincount(rows, minlength=len(Z))
    if len(weights) != len(Z) or not weights.all():
        raise FitError("rows must index every row of Z, and only rows of Z")
    return rows, weights


def _kmeanspp_init(
    Z: np.ndarray, rows: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding that draws training points ``Z[rows]``.

    Distances are computed once per distinct row and read through ``rows``,
    so the draws are those of an unweighted seeding on ``Z[rows]``.
    """
    first = rows[int(rng.integers(len(rows)))]
    centroids = [Z[first]]
    d2 = _sq_dists(Z, Z[first][None, :])[:, 0]
    while len(centroids) < k:
        point_d2 = d2[rows]
        total = float(point_d2.sum())
        if total <= 0.0:
            distinct = len(np.unique(Z, axis=0))
            raise FitError(f"k={k} exceeds the {distinct} distinct rows available")
        nxt = rows[int(rng.choice(len(rows), p=point_d2 / total))]
        centroids.append(Z[nxt])
        d2 = np.minimum(d2, _sq_dists(Z, Z[nxt][None, :])[:, 0])
    return np.array(centroids)


def fit_kmeans(
    Z: np.ndarray,
    k: int,
    seed: int = 0,
    max_iter: int = 100,
    rows: np.ndarray | None = None,
) -> KMeansModel:
    """Lloyd's algorithm from a k-means++ seeding.

    Iterates until the assignment stabilizes or ``max_iter`` is reached;
    clusters that empty out are re-seeded at the point farthest from its
    assigned centroid.  ``inertia_history`` records the within-cluster sum
    of squares at every assignment step (non-increasing by construction).
    With ``rows`` the training points are ``Z[rows]`` (see the module
    docstring); ``labels_`` then labels the rows of ``Z``.
    """
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or len(Z) == 0:
        raise FitError("Z must be a nonempty 2-d array")
    if k < 1:
        raise FitError("k must be >= 1")
    if max_iter < 1:
        raise FitError("max_iter must be >= 1")
    rows, weights = _training_rows(Z, rows)
    n = len(Z)
    rng = np.random.default_rng(seed)
    centroids = _kmeanspp_init(Z, rows, k, rng)

    history: list[float] = []
    labels: np.ndarray | None = None
    for _ in range(max_iter):
        d2 = _sq_dists(Z, centroids)
        new_labels = d2.argmin(axis=1)
        history.append(float((weights * d2[np.arange(n), new_labels]).sum()))
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        updated = centroids.copy()
        empties = []
        for c in range(k):
            members = labels == c
            if members.any():
                w = weights[members]
                updated[c] = (Z[members] * w[:, None]).sum(axis=0) / w.sum()
            else:
                empties.append(c)
        if empties:
            dist = d2[np.arange(n), labels].copy()
            for c in empties:
                far = int(dist.argmax())
                updated[c] = Z[far]
                dist[far] = -1.0
        centroids = updated
    else:
        d2 = _sq_dists(Z, centroids)
        labels = d2.argmin(axis=1)
        history.append(float((weights * d2[np.arange(n), labels]).sum()))

    return KMeansModel(
        centroids=centroids,
        inertia_history=tuple(history),
        labels_=labels,
    )


def fit_dbscan(
    Z: np.ndarray, eps: float, min_pts: int, rows: np.ndarray | None = None
) -> DbscanModel:
    """Density clustering; raises :class:`FitError` when every point is noise.

    A point is core when its eps-ball (itself included) holds at least
    ``min_pts`` training points.  Core points within eps of each other share
    a cluster; every other point takes the cluster of its nearest core point
    when one lies within eps, otherwise it is noise.  The nearest-core rule
    (rather than expansion order) keeps the partition invariant under row
    permutation.  With ``rows`` the training points are ``Z[rows]`` (see the
    module docstring): eps-balls and ``n_noise`` count training points, while
    core points and ``labels_`` stay one per row of ``Z``.
    """
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or len(Z) == 0:
        raise FitError("Z must be a nonempty 2-d array")
    if eps <= 0:
        raise FitError("eps must be positive")
    if min_pts < 1:
        raise FitError("min_pts must be >= 1")
    weights = _training_rows(Z, rows)[1]
    n = len(Z)
    eps2 = eps * eps

    counts = np.zeros(n, dtype=np.int64)
    for start in range(0, n, _BLOCK):
        block = slice(start, min(start + _BLOCK, n))
        counts[block] = (_sq_dists(Z[block], Z) <= eps2) @ weights
    core_mask = counts >= min_pts
    core_rows = np.flatnonzero(core_mask)
    if len(core_rows) == 0:
        raise FitError("no clusters formed: every point is noise (eps/min_pts mismatch)")

    core_Z = Z[core_rows]
    m = len(core_rows)
    core_labels = np.full(m, -1, dtype=np.int64)
    next_label = 0
    for start in range(m):
        if core_labels[start] >= 0:
            continue
        queue = [start]
        core_labels[start] = next_label
        while queue:
            c = queue.pop()
            d2row = ((core_Z - core_Z[c]) ** 2).sum(axis=1)
            for nb in np.flatnonzero(d2row <= eps2):
                if core_labels[nb] < 0:
                    core_labels[nb] = next_label
                    queue.append(nb)
        next_label += 1

    labels = np.full(n, -1, dtype=np.int64)
    for start in range(0, n, _BLOCK):
        block = slice(start, min(start + _BLOCK, n))
        d2 = _sq_dists(Z[block], core_Z)
        nearest = d2.argmin(axis=1)
        within = d2[np.arange(d2.shape[0]), nearest] <= eps2
        blk = np.where(within, core_labels[nearest], -1)
        labels[block] = blk

    return DbscanModel(
        eps=eps,
        min_pts=min_pts,
        core_points=core_Z,
        core_labels=core_labels,
        n_clusters=next_label,
        n_noise=int(weights[labels == -1].sum()),
        labels_=labels,
    )


def _base_cluster_distances(model: ClusterModel) -> np.ndarray:
    """Pairwise distance between base clusters (before any merge map)."""
    if isinstance(model, KMeansModel):
        return np.sqrt(_sq_dists(model.centroids, model.centroids))
    k = model.n_clusters
    dist = np.full((k, k), np.inf)
    for a in range(k):
        pa = model.core_points[model.core_labels == a]
        for b in range(a + 1, k):
            pb = model.core_points[model.core_labels == b]
            d = float(np.sqrt(_sq_dists(pa, pb).min()))
            dist[a, b] = dist[b, a] = d
    np.fill_diagonal(dist, 0.0)
    return dist


def merge_small_clusters(
    model: ClusterModel, counts: np.ndarray, min_support: int
) -> tuple[ClusterModel, np.ndarray]:
    """Merge clusters with fewer than ``min_support`` transitions.

    Each undersupported cluster is folded into its nearest neighbor cluster
    (single-linkage over base clusters) until every surviving cluster meets
    the support threshold or only one remains.  Returns the updated model
    and the old-id -> new-id relabeling.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if isinstance(model, KMeansModel):
        n_base = len(model.centroids)
        base_to_group = np.asarray(model.merge_map, dtype=np.int64)
    else:
        n_base = model.n_clusters
        base_to_group = np.arange(n_base)
    n_groups = len(set(base_to_group.tolist()))
    if len(counts) != n_groups:
        raise DataError(f"expected {n_groups} counts, got {len(counts)}")
    if min_support < 1 or n_groups == 1:
        return model, np.arange(n_groups)

    base_dist = _base_cluster_distances(model)
    # Groups of base clusters, keyed by the smallest surviving group id.
    group_members: dict[int, set[int]] = {}
    for base, g in enumerate(base_to_group):
        group_members.setdefault(int(g), set()).add(int(base))
    group_counts = {g: int(counts[g]) for g in group_members}

    while len(group_members) > 1:
        lacking = [g for g in group_members if group_counts[g] < min_support]
        if not lacking:
            break
        small = min(lacking, key=lambda g: (group_counts[g], g))
        best, best_d = -1, np.inf
        for other in group_members:
            if other == small:
                continue
            d = min(base_dist[a, b] for a in group_members[small] for b in group_members[other])
            if d < best_d or (d == best_d and other < best):
                best, best_d = other, d
        key = min(small, best)
        merged_members = group_members.pop(small) | group_members.pop(best)
        merged_count = group_counts.pop(small) + group_counts.pop(best)
        group_members[key] = merged_members
        group_counts[key] = merged_count

    final_ids = {g: i for i, g in enumerate(sorted(group_members))}
    old_to_new = np.empty(n_groups, dtype=np.int64)
    base_final = np.empty(n_base, dtype=np.int64)
    for key, members in group_members.items():
        for base in members:
            base_final[base] = final_ids[key]
            old_to_new[int(base_to_group[base])] = final_ids[key]

    if isinstance(model, KMeansModel):
        merged_model: ClusterModel = KMeansModel(
            centroids=model.centroids,
            merge_map=tuple(int(v) for v in base_final),
            inertia_history=model.inertia_history,
            labels_=None,
        )
    else:
        merged_model = DbscanModel(
            eps=model.eps,
            min_pts=model.min_pts,
            core_points=model.core_points,
            core_labels=base_final[model.core_labels],
            n_clusters=len(group_members),
            n_noise=model.n_noise,
            labels_=None,
        )
    return merged_model, old_to_new


def save_cluster_model(model: ClusterModel, path: str | Path, stamp: str | None = None) -> None:
    if isinstance(model, KMeansModel):
        payload = {
            "format": CLUSTERS_FORMAT,
            "version": CLUSTERS_VERSION,
            "stamp": stamp,
            "method": "kmeans",
            "centroids": model.centroids.tolist(),
            "merge_map": list(model.merge_map),
        }
    else:
        payload = {
            "format": CLUSTERS_FORMAT,
            "version": CLUSTERS_VERSION,
            "stamp": stamp,
            "method": "dbscan",
            "eps": model.eps,
            "min_pts": model.min_pts,
            "core_points": model.core_points.tolist(),
            "core_labels": model.core_labels.tolist(),
            "n_clusters": model.n_clusters,
            "n_noise": model.n_noise,
        }
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n")


def load_cluster_model(path: str | Path) -> tuple[ClusterModel, str | None]:
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelFileError(path, f"cannot read cluster file: {exc}") from None
    if payload.get("format") != CLUSTERS_FORMAT:
        raise ModelFileError(path, "not a cluster model file")
    if payload.get("version") != CLUSTERS_VERSION:
        raise ModelFileError(path, f"unsupported version {payload.get('version')}")
    method = payload.get("method")
    if method == "kmeans":
        model: ClusterModel = KMeansModel(
            centroids=np.asarray(payload["centroids"], dtype=np.float64),
            merge_map=tuple(int(v) for v in payload["merge_map"]),
        )
    elif method == "dbscan":
        model = DbscanModel(
            eps=float(payload["eps"]),
            min_pts=int(payload["min_pts"]),
            core_points=np.asarray(payload["core_points"], dtype=np.float64),
            core_labels=np.asarray(payload["core_labels"], dtype=np.int64),
            n_clusters=int(payload["n_clusters"]),
            n_noise=int(payload["n_noise"]),
        )
    else:
        raise ModelFileError(path, f"unknown cluster method {method!r}")
    return model, payload.get("stamp")
