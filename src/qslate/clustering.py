"""User clustering over the reduced state space.

Two interchangeable models: k-means (k-means++ seeding, Lloyd iterations)
and DBSCAN.  Both assign rows with a total ``assign_many``: k-means maps
each row to the nearest centroid with ties broken toward the lowest cluster
id; DBSCAN maps it to the cluster of the nearest core point regardless of
``eps``, because every user must receive some policy even if they would be
noise under the training-time rule.  Fitting is single-threaded and
deterministic for a fixed seed.

Both fits take a ``rows`` index for training points that repeat (the
sessions of one user state): the training points are ``Z[rows]``, but each
distinct row of ``Z`` is measured once and weighted by its count in
``rows``.  Such a fit equals the fit of ``Z[rows]``: k-means++ draws the same
training points from the same random stream, and Lloyd's means, the inertia
and DBSCAN's eps-ball counts are weighted sums over the distinct rows.

Every distance goes through ``_blocks``, which measures a set of rows
against a set of points a block of rows at a time, at most ``_CELLS``
distances (at least one row) per block, with the points' squared norms
computed once per pass.  ``_nearest`` reads each row's nearest point from
those blocks; both models' ``assign_many``, Lloyd's assignment step,
k-means++ seeding and DBSCAN's noise labels use it.  So no pass holds more
than a block of distances, however many rows it measures.  DBSCAN's clusters
are the connected components of the core graph (core points within eps of
each other), found with a vectorised union-find over each block's edges.
The support merge measures single linkage on demand: each merge takes the
blocked distances from the small cluster's base points (DBSCAN core points,
or k-means centroids) to all base points and reduces each column to its
current cluster, so a merge costs the small cluster's points times all base
points, and no distance outlives its merge.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Union

import numpy as np

from .errors import DataError, FitError, json_column, json_scalar

# Distances per block: a float64 block of _sq_dists holds 1 MiB.
_CELLS = 2**17
# Lloyd iterations at most, in case the assignment never stabilizes.
_MAX_ITER = 100


def _sq_norms(B: np.ndarray) -> np.ndarray:
    return (B * B).sum(axis=1)


def _sq_dists(A: np.ndarray, B: np.ndarray, bb: np.ndarray) -> np.ndarray:
    """Squared distances from each row of ``A`` to each row of ``B``, whose
    squared norms are ``bb``."""
    d2 = _sq_norms(A)[:, None] + bb - 2.0 * (A @ B.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def _blocks(
    A: np.ndarray, B: np.ndarray, bb: np.ndarray
) -> Iterator[tuple[slice, np.ndarray]]:
    """Each block of ``A``'s rows, as a slice, with its squared distances to
    ``B``: at most ``_CELLS`` distances and at least one row per block.
    ``bb`` is ``_sq_norms(B)``."""
    step = max(1, _CELLS // max(len(B), 1))
    for start in range(0, len(A), step):
        rows = slice(start, start + step)
        yield rows, _sq_dists(A[rows], B, bb)


def _nearest(A: np.ndarray, B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of ``A``'s nearest row of ``B`` (lowest index on ties) and its ``d^2``."""
    nearest = np.empty(len(A), dtype=np.int64)
    d2 = np.empty(len(A))
    for rows, block in _blocks(A, B, _sq_norms(B)):
        nearest[rows] = block.argmin(axis=1)
        d2[rows] = block[np.arange(len(block)), nearest[rows]]
    return nearest, d2


def _check_points(points: np.ndarray, name: str) -> None:
    """Refuse base points that are not a finite 2-D array."""
    if points.ndim != 2:
        raise DataError(f"{name} must be a 2-D array, not of shape {points.shape}")
    if not np.isfinite(points).all():
        raise DataError(f"{name} must be finite")


def _join(parent: np.ndarray, start: int, adjacent: np.ndarray) -> None:
    """Union the components joined by the true cells of ``adjacent``.

    Cell ``(r, c)`` is the edge between nodes ``start + r`` and ``c`` of the
    forest ``parent``, which enters and leaves compressed (each node points
    at its root); each root is the smallest index of its component.  Every
    round hooks the larger root of each edge that spans two components to
    the smallest root it meets, then jumps pointers until each node points
    at a root again.
    """
    i, j = np.nonzero(adjacent)
    i += start
    while True:
        ri, rj = parent[i], parent[j]
        spans = ri != rj
        if not spans.any():
            return
        i, j, ri, rj = i[spans], j[spans], ri[spans], rj[spans]
        np.minimum.at(parent, np.maximum(ri, rj), np.minimum(ri, rj))
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent[:] = up


@dataclass
class KMeansModel:
    """Fitted k-means: centroids plus an optional small-cluster merge map.

    Construction raises :class:`DataError` unless the centroids are a finite
    2-D array and the merge map a flat list of one cluster id per centroid.
    """

    centroids: np.ndarray
    merge_map: tuple[int, ...] = field(default=())
    inertia_history: tuple[float, ...] = field(default=(), repr=False)
    labels_: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        _check_points(self.centroids, "centroids")
        if not self.merge_map:
            self.merge_map = tuple(range(len(self.centroids)))
        if np.ndim(self.merge_map) != 1:
            raise DataError("merge_map must be a flat list of cluster ids")
        if len(self.merge_map) != len(self.centroids):
            raise DataError(f"merge_map lists {len(self.merge_map)} cluster ids "
                            f"for {len(self.centroids)} centroids")

    @property
    def n_clusters(self) -> int:
        return len(set(self.merge_map))

    def cluster_ids(self) -> set[int]:
        """The ids that ``assign_many`` can return."""
        return set(self.merge_map)

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]

    def assign_many(self, Z: np.ndarray) -> np.ndarray:
        Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
        if Z.shape[1] != self.dim:
            raise DataError(f"vector dim {Z.shape[1]} != model dim {self.dim}")
        return np.asarray(self.merge_map)[_nearest(Z, self.centroids)[0]]


@dataclass
class DbscanModel:
    """Fitted DBSCAN: core points with their cluster labels.

    ``n_clusters`` counts the distinct labels.  Construction raises
    :class:`DataError` unless the core points are a finite 2-D array and
    the labels a flat list of one label per core point.
    """

    core_points: np.ndarray
    core_labels: np.ndarray
    n_noise: int = 0
    labels_: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        _check_points(self.core_points, "core_points")
        if self.core_labels.ndim != 1:
            raise DataError("core_labels must be a flat list of labels")
        if len(self.core_labels) != len(self.core_points):
            raise DataError(f"core_labels lists {len(self.core_labels)} labels "
                            f"for {len(self.core_points)} core points")

    @property
    def n_clusters(self) -> int:
        return len(self.cluster_ids())

    @property
    def dim(self) -> int:
        return self.core_points.shape[1]

    def cluster_ids(self) -> set[int]:
        """The ids that ``assign_many`` can return."""
        return set(self.core_labels.tolist())

    def assign_many(self, Z: np.ndarray) -> np.ndarray:
        Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
        if Z.shape[1] != self.dim:
            raise DataError(f"vector dim {Z.shape[1]} != model dim {self.dim}")
        return self.core_labels[_nearest(Z, self.core_points)[0]]


ClusterModel = Union[KMeansModel, DbscanModel]


def _row_weights(Z: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """How many training points ``Z[rows]`` each row of ``Z`` is."""
    weights = np.bincount(rows, minlength=len(Z))
    if len(weights) != len(Z) or not weights.all():
        raise FitError("rows must index every row of Z, and only rows of Z")
    return weights


def _kmeanspp_init(
    Z: np.ndarray, rows: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding that draws training points ``Z[rows]``.

    Distances are computed once per distinct row and read through ``rows``,
    so the draws are those of an unweighted seeding on ``Z[rows]``.
    """
    first = rows[int(rng.integers(len(rows)))]
    centroids = [Z[first]]
    d2 = _nearest(Z, Z[first][None, :])[1]
    while len(centroids) < k:
        point_d2 = d2[rows]
        total = float(point_d2.sum())
        if total <= 0.0:
            distinct = len(np.unique(Z, axis=0))
            raise FitError(f"k={k} exceeds the {distinct} distinct rows available")
        nxt = rows[int(rng.choice(len(rows), p=point_d2 / total))]
        centroids.append(Z[nxt])
        d2 = np.minimum(d2, _nearest(Z, Z[nxt][None, :])[1])
    return np.array(centroids)


def fit_kmeans(Z: np.ndarray, k: int, rows: np.ndarray, seed: int = 0) -> KMeansModel:
    """Lloyd's algorithm from a k-means++ seeding.

    Iterates until the assignment stabilizes or for ``_MAX_ITER`` steps;
    clusters that empty out are re-seeded at the point farthest from its
    assigned centroid.  ``inertia_history`` records the within-cluster sum
    of squares at every assignment step (non-increasing by construction).
    The training points are ``Z[rows]`` (see the module docstring), and
    ``labels_`` labels the rows of ``Z``.
    """
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or len(Z) == 0:
        raise FitError("Z must be a nonempty 2-d array")
    if k < 1:
        raise FitError("k must be >= 1")
    weights = _row_weights(Z, rows)
    rng = np.random.default_rng(seed)
    centroids = _kmeanspp_init(Z, rows, k, rng)

    history: list[float] = []
    labels: np.ndarray | None = None
    for _ in range(_MAX_ITER):
        new_labels, d2 = _nearest(Z, centroids)
        history.append(float((weights * d2).sum()))
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
            dist = d2.copy()
            for c in empties:
                far = int(dist.argmax())
                updated[c] = Z[far]
                dist[far] = -1.0
        centroids = updated
    else:
        labels, d2 = _nearest(Z, centroids)
        history.append(float((weights * d2).sum()))

    return KMeansModel(
        centroids=centroids,
        inertia_history=tuple(history),
        labels_=labels,
    )


def fit_dbscan(Z: np.ndarray, eps: float, min_pts: int, rows: np.ndarray) -> DbscanModel:
    """Density clustering; raises :class:`FitError` when every point is noise.

    A point is core when its eps-ball (itself included) holds at least
    ``min_pts`` training points.  The clusters are the connected components
    of the core graph, whose edges join core points within eps of each
    other.  The eps-balls are counted in blocks of rows with ``_CELLS``
    distances at most, and once a block's rows are counted, its core rows'
    edges to earlier core rows go into a union-find whose roots are the
    smallest index of their component; clusters are numbered in the order
    of their roots, which is the order of their first core point.  Every
    other point takes the cluster of its nearest core point when one lies
    within eps, otherwise it is noise.  The nearest-core rule (rather than
    expansion order) keeps the partition invariant under row permutation.
    The training points are ``Z[rows]`` (see the module docstring):
    eps-balls and ``n_noise`` count training points, while core points and
    ``labels_`` stay one per row of ``Z``.  The model keeps
    neither ``eps`` nor ``min_pts``: the manifest's ``params.cluster`` does.
    """
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 or len(Z) == 0:
        raise FitError("Z must be a nonempty 2-d array")
    if not eps > 0:
        raise FitError("eps must be positive")
    if min_pts < 1:
        raise FitError("min_pts must be >= 1")
    weights = _row_weights(Z, rows)
    n = len(Z)
    eps2 = eps * eps

    counts = np.zeros(n, dtype=np.int64)
    parent = np.arange(n)
    for block, d2 in _blocks(Z, Z, _sq_norms(Z)):
        start, stop = block.start, block.start + len(d2)
        near = d2 <= eps2
        counts[start:stop] = near @ weights
        # The block's rows and every earlier row now know whether they are
        # core, so the core graph gains its edges (i, j) with j < i here.
        core = counts[:stop] >= min_pts
        _join(parent, start, np.tril(near[:, :stop] & core & core[start:, None], start - 1))
    core_rows = np.flatnonzero(counts >= min_pts)
    if len(core_rows) == 0:
        raise FitError("no clusters formed: every point is noise (eps/min_pts mismatch)")

    core_Z = Z[core_rows]
    root_rows = core_rows[parent[core_rows] == core_rows]
    core_labels = np.searchsorted(root_rows, parent[core_rows])

    nearest, d2 = _nearest(Z, core_Z)
    labels = np.where(d2 <= eps2, core_labels[nearest], -1)

    return DbscanModel(
        core_points=core_Z,
        core_labels=core_labels,
        n_noise=int(weights[labels == -1].sum()),
        labels_=labels,
    )


def merge_small_clusters(
    model: ClusterModel, counts: np.ndarray, min_support: int
) -> tuple[ClusterModel, np.ndarray]:
    """Merge clusters with fewer than ``min_support`` transitions.

    Until every surviving cluster meets the support threshold or only one
    remains, the cluster with the fewest transitions (then the lowest id) is
    folded into its nearest neighbor (then the lowest id) under single
    linkage over base points (k-means centroids or DBSCAN core points), and
    the pair keeps the lower id.  Each merge measures only the small
    cluster's base points against all base points, in blocks of at most
    ``_CELLS`` distances, and reduces each column to the minimum per current
    cluster, so it costs the small cluster's points times all base points
    and holds no distances between merges.  Returns the updated model and
    the old-id -> new-id relabeling.
    """
    counts = np.asarray(counts, dtype=np.int64)
    # Each base point (centroid or core point) and the cluster it belongs to.
    if isinstance(model, KMeansModel):
        points, base_to_group = model.centroids, np.asarray(model.merge_map, dtype=np.int64)
    else:
        points, base_to_group = model.core_points, model.core_labels
    n_groups = model.n_clusters
    if len(counts) != n_groups:
        raise DataError(f"expected {n_groups} counts, got {len(counts)}")
    if min_support < 1 or n_groups == 1:
        return model, np.arange(n_groups)

    # Each base point's surviving id: the lowest id of the groups merged with its own.
    group_of = base_to_group.copy()
    bb = _sq_norms(points)
    support = counts.copy()
    alive = np.ones(n_groups, dtype=bool)
    for _ in range(n_groups - 1):
        lacking = np.flatnonzero(alive & (support < min_support))
        if len(lacking) == 0:
            break
        small = int(lacking[np.argmin(support[lacking])])
        members = np.flatnonzero(group_of == small)
        d2 = np.full(n_groups, np.inf)
        for _, block in _blocks(points[members], points, bb):
            np.minimum.at(d2, group_of, block.min(axis=0))
        d2[small] = np.inf
        # Ties are on distances: distinct squares can share a root, and the lowest id wins.
        best = int(np.argmin(np.sqrt(d2)))
        key, gone = min(small, best), max(small, best)
        group_of[group_of == gone] = key
        support[key] += support[gone]
        alive[gone] = False

    survivors = np.flatnonzero(alive)
    base_final = np.searchsorted(survivors, group_of)
    old_to_new = np.empty(n_groups, dtype=np.int64)
    old_to_new[base_to_group] = base_final

    if isinstance(model, KMeansModel):
        merged = replace(model, merge_map=tuple(int(v) for v in base_final), labels_=None)
    else:
        merged = replace(model, core_labels=base_final, labels_=None)
    return merged, old_to_new


def cluster_model_fields(model: ClusterModel) -> dict:
    """The fields of ``clusters.json`` that hold ``model``."""
    if isinstance(model, KMeansModel):
        return {
            "method": "kmeans",
            "centroids": model.centroids.tolist(),
            "merge_map": list(model.merge_map),
        }
    return {
        "method": "dbscan",
        "core_points": model.core_points.tolist(),
        "core_labels": model.core_labels.tolist(),
        "n_noise": model.n_noise,
    }


def cluster_model_from(payload: dict) -> ClusterModel:
    """The model that the fields of :func:`cluster_model_fields` hold."""
    method = payload.get("method")
    if method == "kmeans":
        merge_map = json_column(payload["merge_map"], np.int64, "merge_map entry {}")
        return KMeansModel(
            centroids=json_column(payload["centroids"], np.float64, "an entry of centroids row {}"),
            merge_map=tuple(merge_map.tolist()),
        )
    if method == "dbscan":
        return DbscanModel(
            core_points=json_column(payload["core_points"], np.float64,
                                    "an entry of core_points row {}"),
            core_labels=json_column(payload["core_labels"], np.int64, "core_labels entry {}"),
            n_noise=json_scalar(payload["n_noise"], np.int64, "n_noise"),
        )
    raise DataError(f"unknown cluster method {method!r}")
