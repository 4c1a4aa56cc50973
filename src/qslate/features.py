"""User state construction and sparse principal component extraction.

The raw state of a session is its 10 portrait values followed by one 0/1
click indicator per catalog item (ascending item id), giving
``num_items + 10`` columns.  Sessions of one user repeat that state, so the
feature matrix holds one row per distinct state with an integer weight, its
session count, and an index from each session back to its row.  Sparse PCA
compresses that wide, sparse state: portrait columns are z-scored, click
indicators are centered but not variance-scaled (scaling would blow up
rare-click columns), and components are extracted one at a time by power
iteration with soft-thresholded loadings.

The fit iterates on whichever exact form of the covariance is smaller.  The
standardized data ``R`` has ``u`` distinct rows with weights ``w`` summing to
``n``, and ``p`` columns, and ``C = R^T diag(w) R / n = F^T F`` for the
weighted rows ``F = sqrt(w / n) R``.  With fewer rows than columns
(``u < p``, as on a corpus of few users with many sessions each) the fit
keeps ``F``: a power step ``(F v) F`` costs ``2up``, and deflation projects
the rows, ``F <- F - (F v) v^T``.  Otherwise it reduces ``F`` once to ``C``,
summing ``B^T B`` over blocks ``B`` of ``_BLOCK`` rows of ``F``, each built
from the raw states: a step ``C v`` costs ``p^2``, and deflation is the
closed form ``C <- C - b v^T - v b^T`` with ``b = C v - (v^T C v) v / 2``,
so the rows are never revisited.  Both give the same components up to
rounding.  Because deflation is greedy, the first ``j`` components of a fit
do not depend on how many more follow: a ``k = 8`` fit equals the first 8
rows of a ``k = 16`` fit with the same seed.

The raw state matrix ``FeatureMatrix.values`` is the only ``u x p`` array:
the click scatter, the covariance and ``transform`` work in blocks of
states or one column at a time, so every other working array is bounded by
a block, by ``p^2`` (the covariance, or ``F`` when ``u < p``) or by the
``k x p`` loadings.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import (ComponentCollapseError, DataError, FitError, json_column, read_model_file,
                     write_model_file)
from .ingest import N_PORTRAITS, ItemCatalog, SessionTable, UserTable

COMPONENTS_FORMAT = "qslate-components"
COMPONENTS_VERSION = 3

# Power steps per component at most, and the step length that ends them.
_MAX_ITER = 200
_TOL = 1e-7
# States per block where a pass over the raw matrix needs working arrays:
# the click scatter and the covariance's rank-k updates.
_BLOCK = 256


@dataclass
class FeatureMatrix:
    """Raw states, one row per distinct state.

    ``values`` is ``u x p``: ``N_PORTRAITS`` portrait columns, then one
    click column per catalog item in the order of the catalog's ``ids``.
    ``weights[j]`` counts the records whose state is row ``j``, and
    ``rows[i]`` is the row of record ``i``, so ``values[rows]`` is the
    one-row-per-record matrix.
    """

    values: np.ndarray
    weights: np.ndarray
    rows: np.ndarray

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


def build_raw_features(table: SessionTable | UserTable, catalog: ItemCatalog) -> FeatureMatrix:
    """Stack portraits and one-hot click indicators, one row per distinct state.

    The rows are the table's numbered states, so ``rows`` is its ``state``
    column.  The clicks are scattered ``_BLOCK`` states at a time, so the
    index arrays stay a block's size whatever the total click count.  A
    clicked item missing from the catalog raises :class:`DataError` naming
    the first such click.
    """
    if len(catalog) == 0:
        raise DataError("catalog is empty")
    rows, clicks = table.state, table.clicks
    values = np.zeros((len(clicks), N_PORTRAITS + len(catalog)))
    values[:, :N_PORTRAITS] = table.portraits
    for start in range(0, len(clicks), _BLOCK):
        block = clicks[start : start + _BLOCK]
        counts = np.fromiter(map(len, block), np.int64, len(block))
        items = np.fromiter(chain.from_iterable(block), np.int64, counts.sum())
        at, known = catalog.index(items)
        if not known.all():
            raise DataError(f"clicked item {items[known.argmin()]} not in catalog")
        values[np.repeat(np.arange(start, start + len(block)), counts), N_PORTRAITS + at] = 1.0
    return FeatureMatrix(
        values=values,
        weights=np.bincount(rows, minlength=len(clicks)),
        rows=rows,
    )


@dataclass
class SparseComponents:
    """Fitted extractor: loadings plus the standardization that fed them.

    Each loading row has unit norm, or is all zero when the requested k
    exceeded the numeric rank of the data; a component zeroed by
    soft-thresholding itself raises instead.  ``n_iter[j]`` counts the power
    steps component ``j`` took, and ``converged[j]`` is False when it
    stopped at ``_MAX_ITER`` steps before its step fell below ``_TOL``; a
    zero row takes no step and counts as converged.

    Construction raises :class:`DataError` unless the loadings are a finite
    2-D array, the means and scales hold one finite value per column with
    every scale positive, and each per-component field lists one value per
    loading row, the explained variances finite.
    """

    loadings: np.ndarray
    column_means: np.ndarray
    column_scales: np.ndarray
    explained_variance: np.ndarray
    n_iter: tuple[int, ...]
    converged: tuple[bool, ...]

    def __post_init__(self) -> None:
        if self.loadings.ndim != 2:
            raise DataError(f"loadings must be a 2-D array, not of shape {self.loadings.shape}")
        k, p = self.loadings.shape
        for name in ("column_means", "column_scales"):
            column = getattr(self, name)
            if column.shape != (p,) or not np.isfinite(column).all():
                raise DataError(f"{name} must hold {p} finite values, one per loading column")
        if not (self.column_scales > 0.0).all():
            raise DataError("column_scales must be positive")
        for name in ("explained_variance", "n_iter", "converged"):
            if (n := len(getattr(self, name))) != k:
                raise DataError(f"{name} lists {n} values for {k} components")
        for name in ("loadings", "explained_variance"):
            if not np.isfinite(getattr(self, name)).all():
                raise DataError(f"{name} must be finite")

    @property
    def k(self) -> int:
        return len(self.loadings)

    @property
    def n_cols(self) -> int:
        return self.loadings.shape[1]

    def leading(self, k: int) -> "SparseComponents":
        """The first ``k`` components.

        Deflation is greedy, so this equals a fit with ``k`` components
        under the same seed, bit for bit.
        """
        return dataclasses.replace(
            self,
            loadings=self.loadings[:k],
            explained_variance=self.explained_variance[:k],
            n_iter=self.n_iter[:k],
            converged=self.converged[:k],
        )

    def report(self) -> list[dict]:
        """Per-component fit facts: iterations, convergence, variance, nonzeros."""
        return [
            {
                "component": j,
                "n_iter": self.n_iter[j],
                "converged": self.converged[j],
                "explained_variance": float(self.explained_variance[j]),
                "nnz": int(np.count_nonzero(self.loadings[j])),
            }
            for j in range(self.k)
        ]

    def save(self, path: str | Path, stamp: str | None = None) -> None:
        write_model_file(path, COMPONENTS_FORMAT, COMPONENTS_VERSION, stamp, {
            "column_means": self.column_means.tolist(),
            "column_scales": self.column_scales.tolist(),
            "loadings": self.loadings.tolist(),
            "explained_variance": self.explained_variance.tolist(),
            "n_iter": list(self.n_iter),
            "converged": list(self.converged),
        })

    @classmethod
    def load(cls, path: str | Path) -> tuple["SparseComponents", str | None]:
        return read_model_file(path, COMPONENTS_FORMAT, COMPONENTS_VERSION, lambda payload: cls(
            loadings=json_column(payload["loadings"], np.float64, "an entry of loadings row {}"),
            column_means=json_column(payload["column_means"], np.float64, "column_means entry {}"),
            column_scales=json_column(payload["column_scales"], np.float64,
                                      "column_scales entry {}"),
            explained_variance=json_column(payload["explained_variance"], np.float64,
                                           "explained_variance entry {}"),
            n_iter=tuple(json_column(payload["n_iter"], np.int64, "n_iter entry {}").tolist()),
            converged=tuple(
                json_column(payload["converged"], np.bool_, "converged entry {}").tolist()),
        ))


def _column_stats(
    values: np.ndarray, weights: np.ndarray, zscore_mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    n = weights.sum()
    means = weights @ values / n
    scales = np.ones(values.shape[1])
    if zscore_mask.any():
        stds = np.sqrt(weights @ (values[:, zscore_mask] - means[zscore_mask]) ** 2 / n)
        stds[stds == 0.0] = 1.0  # constant columns contribute zero after centering
        scales[zscore_mask] = stds
    return means, scales


def _weighted_rows(
    values: np.ndarray, means: np.ndarray, scales: np.ndarray, root_w: np.ndarray
) -> np.ndarray:
    """Rows of ``F``: ``values`` standardized, each row scaled by ``root_w``."""
    rows = values - means
    rows /= scales
    rows *= root_w[:, None]
    return rows


def _covariance(
    values: np.ndarray, means: np.ndarray, scales: np.ndarray, root_w: np.ndarray
) -> np.ndarray:
    """``C = F^T F``, summed over blocks of ``_BLOCK`` rows of ``F``."""
    p = values.shape[1]
    cov, update = np.zeros((p, p)), np.empty((p, p))
    for start in range(0, len(values), _BLOCK):
        stop = start + _BLOCK
        block = _weighted_rows(values[start:stop], means, scales, root_w[start:stop])
        # BLAS computes B^T B as an exactly symmetric rank-k update, so the
        # sum stays exactly symmetric.
        np.matmul(block.T, block, out=update)
        cov += update
        del block  # before the next block is built
    return cov


def fit_sparse_pca(
    X: FeatureMatrix | np.ndarray,
    k: int,
    l1_penalty: float = 0.0,
    seed: int = 0,
    zscore_mask: np.ndarray | None = None,
) -> SparseComponents:
    """Fit ``k`` sparse components by thresholded power iteration.

    ``l1_penalty`` is relative: at each iteration, loading entries whose
    magnitude is at most ``l1_penalty`` times the largest magnitude are
    soft-thresholded away, so 0 recovers ordinary PCA and values approaching
    1 keep almost nothing.  Components are extracted in sequence from the
    covariance ``C`` of the standardized data, deflating it after each one;
    a component's explained variance is ``v^T C v``.  Each component runs
    until its step ``||v_new - v||`` falls below ``_TOL`` (``converged``) or
    for ``_MAX_ITER`` steps.  Deterministic for a fixed seed.

    The column statistics and ``C`` weight each row of a
    :class:`FeatureMatrix` by its session count, so the fit is that of the
    one-row-per-session matrix ``X.values[X.rows]``, and the range of ``k``
    counts those session rows; a plain array has unit weights.

    Power steps run on the weighted rows ``F``, with ``C = F^T F``, when
    there are fewer distinct rows than columns, and on ``C`` otherwise,
    accumulated over ``_BLOCK``-row blocks of ``F`` so that no ``u x p`` copy
    of the data is made (see the module docstring).  Once the deflated
    ``trace(C)`` (``||F||_F^2`` in row form) is at most ``1e-10`` times its
    starting value, what remains is rounding (about ``eps * trace(C)``,
    possibly negative): the requested k exceeds the data rank, and the
    remaining components are zero rows.

    When ``X`` is a :class:`FeatureMatrix` only the portrait columns are
    z-scored; a plain array has all columns z-scored unless ``zscore_mask``
    says otherwise.
    """
    if isinstance(X, FeatureMatrix):
        values = X.values
        weights = X.weights
        if zscore_mask is None:
            zscore_mask = np.zeros(values.shape[1], dtype=bool)
            zscore_mask[:N_PORTRAITS] = True
    else:
        values = np.asarray(X, dtype=np.float64)
        weights = np.ones(len(values))
        if zscore_mask is None:
            zscore_mask = np.ones(values.shape[1], dtype=bool)
    n, p = int(weights.sum()), values.shape[1]
    if k < 1 or k > min(n, p):
        raise FitError(f"k={k} out of range [1, {min(n, p)}]")
    if not l1_penalty >= 0:  # also rejects NaN
        raise FitError(f"l1_penalty must be nonnegative, got {l1_penalty}")

    means, scales = _column_stats(values, weights, zscore_mask)
    root_w = np.sqrt(weights / n)
    row_form = len(values) < p
    op = (
        _weighted_rows(values, means, scales, root_w)
        if row_form
        else _covariance(values, means, scales, root_w)
    )

    def trace() -> float:
        return float(np.vdot(op, op) if row_form else np.trace(op))

    rng = np.random.default_rng(seed)
    rank_floor = 1e-10 * trace()

    loadings = np.zeros((k, p))
    explained = np.zeros(k)
    n_iter: list[int] = []
    converged: list[bool] = []
    w, scratch = np.empty(p), np.empty(p)
    for j in range(k):
        if trace() <= rank_floor:
            n_iter.append(0)
            converged.append(True)
            continue
        v = rng.normal(size=p)
        v /= math.sqrt(v @ v)
        done = False
        for step in range(1, _MAX_ITER + 1):
            if row_form:
                np.matmul(op @ v, op, out=w)
            else:
                np.matmul(op, v, out=w)
            if l1_penalty > 0.0:
                # Soft threshold: w <- sign(w) * max(|w| - level, 0).
                np.abs(w, out=scratch)
                level = l1_penalty * scratch.max(initial=0.0)
                np.subtract(scratch, level, out=scratch)
                np.maximum(scratch, 0.0, out=scratch)
                np.copysign(scratch, w, out=w)
            norm = math.sqrt(w @ w)
            if norm == 0.0:
                if l1_penalty > 0.0:
                    raise ComponentCollapseError(
                        f"component {j} collapsed to zero: l1_penalty={l1_penalty} too large",
                        component=j,
                    )
                v = np.zeros(p)
                done = True
                break
            w /= norm
            np.subtract(w, v, out=scratch)
            delta = math.sqrt(scratch @ scratch)
            v, w = w, v
            if delta < _TOL:
                done = True
                break
        if v.any():
            # Canonical orientation: largest-magnitude entry positive.
            pivot = int(np.argmax(np.abs(v)))
            if v[pivot] < 0:
                v = -v
        # Deflate: F <- F - (F v) v^T, or C <- C - b v^T - v b^T.
        y = op @ v
        explained[j] = float(y @ y if row_form else v @ y)
        if not row_form:
            y -= 0.5 * explained[j] * v  # b
            op -= np.outer(v, y)
        op -= np.outer(y, v)
        loadings[j] = v
        n_iter.append(step)
        converged.append(done)

    return SparseComponents(
        loadings=loadings,
        column_means=means,
        column_scales=scales,
        explained_variance=explained,
        n_iter=tuple(n_iter),
        converged=tuple(converged),
    )


def transform(X: FeatureMatrix | np.ndarray, components: SparseComponents) -> np.ndarray:
    """Project rows onto the fitted components.

    The projection accumulates column by column in a fixed order so a row
    transforms to bit-identical values whether passed alone or inside any
    batch (a plain matmul would let BLAS blocking change the summation
    order).  Each column is standardized as it is added, so the working
    arrays are one column and one ``n x k`` term.
    """
    values = X.values if isinstance(X, FeatureMatrix) else np.asarray(X, dtype=np.float64)
    if values.ndim == 1:
        values = values[None, :]
    if values.shape[1] != components.n_cols:
        raise DataError(
            f"feature matrix has {values.shape[1]} columns, components expect {components.n_cols}"
        )
    out = np.zeros((values.shape[0], components.k))
    term = np.empty_like(out)
    loadings_t = components.loadings.T  # (p, k)
    for col, (mean, scale) in enumerate(zip(components.column_means, components.column_scales)):
        standardized = (values[:, col] - mean) / scale
        np.multiply(standardized[:, None], loadings_t[col], out=term)
        out += term
    return out
