"""User clustering over the reduced state space.

One served model, fit two ways: k-means (k-means++ seeding, Lloyd
iterations) and DBSCAN.  A :class:`ClusterModel` holds base points with a
cluster id each, k-means centroids or DBSCAN core points, and its total
``assign_many`` maps each row to the cluster of its nearest point, ties
broken toward the lowest point index.  For DBSCAN that ignores ``eps``,
because every user must receive some policy even if they would be noise
under the training-time rule.  Fitting is single-threaded and deterministic
for a fixed seed.

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
those blocks; ``assign_many``, Lloyd's assignment step, k-means++ seeding
and DBSCAN's noise labels use it.  So no pass holds more than a block of
distances, however many rows it measures.  DBSCAN's clusters are the
connected components of the core graph (core points within eps of each
other), found with a vectorised union-find over each block's edges.
The support merge measures single linkage on demand: each merge takes the
blocked distances from the small cluster's base points (DBSCAN core points,
or k-means centroids) to all base points and reduces each column to its
current cluster, so a merge costs the small cluster's points times all base
points, and no distance outlives its merge.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator

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
class ClusterModel:
    """A fitted cluster model: base points (k-means centroids or DBSCAN core
    points), the cluster id of each point, and the fit's labels of its rows.

    A row is assigned the cluster of its nearest point, the lowest index on
    ties.  Construction raises :class:`DataError` unless the points are a
    finite 2-D array and ``point_labels`` a flat list of one id per point.
    """

    points: np.ndarray
    point_labels: np.ndarray
    labels_: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.points.ndim != 2:
            raise DataError(f"points must be a 2-D array, not of shape {self.points.shape}")
        if not np.isfinite(self.points).all():
            raise DataError("points must be finite")
        if self.point_labels.ndim != 1:
            raise DataError("point_labels must be a flat list of cluster ids")
        if len(self.point_labels) != len(self.points):
            raise DataError(f"point_labels lists {len(self.point_labels)} cluster ids "
                            f"for {len(self.points)} points")

    @property
    def n_clusters(self) -> int:
        return len(self.cluster_ids())

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def cluster_ids(self) -> set[int]:
        """The ids that ``assign_many`` can return."""
        return set(self.point_labels.tolist())

    def assign_many(self, Z: np.ndarray) -> np.ndarray:
        Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
        if Z.shape[1] != self.dim:
            raise DataError(f"vector dim {Z.shape[1]} != model dim {self.dim}")
        return self.point_labels[_nearest(Z, self.points)[0]]


@dataclass
class KMeansModel(ClusterModel):
    """Fitted k-means: the points are the centroids, one cluster each until a merge."""

    inertia_history: tuple[float, ...] = field(default=(), repr=False)

    # Bound here too: perfbench's tracer looks methods up in the class's own vars.
    assign_many = ClusterModel.assign_many


@dataclass
class DbscanModel(ClusterModel):
    """Fitted DBSCAN: the points are the core points; ``n_noise`` counts the
    training points that the fit left as noise."""

    n_noise: int = 0

    # Bound here too: perfbench's tracer looks methods up in the class's own vars.
    assign_many = ClusterModel.assign_many


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
        points=centroids,
        point_labels=np.arange(k),
        labels_=labels,
        inertia_history=tuple(history),
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
    point_labels = np.searchsorted(root_rows, parent[core_rows])

    nearest, d2 = _nearest(Z, core_Z)
    labels = np.where(d2 <= eps2, point_labels[nearest], -1)

    return DbscanModel(
        points=core_Z,
        point_labels=point_labels,
        labels_=labels,
        n_noise=int(weights[labels == -1].sum()),
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
    points = model.points
    n_groups = model.n_clusters
    if len(counts) != n_groups:
        raise DataError(f"expected {n_groups} counts, got {len(counts)}")
    if min_support < 1 or n_groups == 1:
        return model, np.arange(n_groups)

    # Each base point's surviving id: the lowest id of the groups merged with its own.
    group_of = model.point_labels.copy()
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
    old_to_new[model.point_labels] = base_final
    return replace(model, point_labels=base_final, labels_=None), old_to_new


def cluster_model_fields(model: ClusterModel) -> dict:
    """The fields of ``clusters.json`` that hold ``model``."""
    fields = {"method": "kmeans", "points": model.points.tolist(),
              "point_labels": model.point_labels.tolist()}
    if isinstance(model, DbscanModel):
        fields.update(method="dbscan", n_noise=model.n_noise)
    return fields


def cluster_model_from(payload: dict) -> ClusterModel:
    """The model that the fields of :func:`cluster_model_fields` hold."""
    method = payload.get("method")
    if method not in ("kmeans", "dbscan"):
        raise DataError(f"unknown cluster method {method!r}")
    points = json_column(payload["points"], np.float64, "an entry of points row {}")
    point_labels = json_column(payload["point_labels"], np.int64, "point_labels entry {}")
    if method == "kmeans":
        return KMeansModel(points, point_labels)
    return DbscanModel(points, point_labels,
                       n_noise=json_scalar(payload["n_noise"], np.int64, "n_noise"))
