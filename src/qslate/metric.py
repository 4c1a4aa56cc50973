"""Weighted revenue scoring, holdout splitting, and grid-search tuning.

The score credits a recommended item when the validation session actually
purchased that item somewhere in its log (identity matching, not position)
and the item's location permits the step it was recommended on; credited
items contribute their price.  Per-step revenue totals are combined as

    score = (1/N) * sum_st weight[st] * value[st]

with weights rising by step, because later steps mean the player kept
buying.  Recommendations are n×9 int64 arrays, as ``recommend_for_sessions``
returns them: row ``i`` holds session ``i``'s 3 items per step, in step order.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ComponentCollapseError, DataError, FitError, QslateError
from .features import FeatureMatrix, SparseComponents, build_raw_features, transform
from .ingest import ItemCatalog, SessionTable, TransitionTable, sessions_to_transitions
from .pipeline import PipelineParams, fit_components, fit_on_reduced
from .qlearning import export_policies


@dataclass(frozen=True)
class MetricConfig:
    step_weights: tuple[float, float, float] = (1.0, 2.0, 3.0)

    def validate(self) -> None:
        if len(self.step_weights) != 3:
            raise DataError("step_weights must have exactly 3 entries")
        if not (np.isfinite(self.step_weights).all() and min(self.step_weights) >= 0):
            raise DataError("step weights must be finite and nonnegative")
        if not any(w > 0 for w in self.step_weights):
            raise DataError("at least one step weight must be positive")


@dataclass
class ScoreReport:
    score: float
    per_step_value: tuple[float, float, float]
    n_sessions: int

    def to_dict(self) -> dict:
        return {
            "score": self.score,
            "per_step_value": list(self.per_step_value),
            "n_sessions": self.n_sessions,
        }


def _recommendations(recommendations, n: int) -> np.ndarray:
    """``recommendations`` as an n×9 int64 array, or :class:`DataError`."""
    try:
        recs = np.asarray(recommendations)
    except ValueError as exc:  # ragged rows
        raise DataError(f"recommendations must be an n×9 integer array: {exc}") from None
    if recs.ndim != 2 or recs.shape[1] != 9 or not np.issubdtype(recs.dtype, np.integer):
        raise DataError(
            f"recommendations must be an n×9 integer array, got shape {recs.shape} "
            f"of {recs.dtype}"
        )
    if len(recs) != n:
        raise DataError(f"{n} sessions but {len(recs)} recommendations")
    return recs.astype(np.int64, copy=False)


def score(
    recommendations,
    sessions: SessionTable,
    catalog: ItemCatalog,
    cfg: MetricConfig = MetricConfig(),
) -> ScoreReport:
    """Score recommendations against logged purchases.

    ``recommendations`` is an n×9 int64 array, or anything that
    ``np.asarray`` makes into an n×9 integer array, such as a list of 9-item
    rows.  Row ``i`` belongs to ``sessions`` row ``i`` and lists 3 items per
    step, in step order; any other input raises :class:`DataError`.  Each
    step's value sums its credited prices session by session, each
    session's in ascending item order.
    """
    cfg.validate()
    n = len(sessions)
    if n == 0:
        raise DataError("cannot score zero sessions")
    recs = _recommendations(recommendations, n)
    # Whether session i bought its recommended item j at any slate position.
    bought = (sessions.slate[:, None, :] == recs[:, :, None]) & sessions.labels[:, None, :]
    session, slot = np.nonzero(bought.any(axis=2))
    # The bought items in the order of the sums: session, step, then item.
    group, items = 3 * session + slot // 3, recs[session, slot]
    order = np.lexsort((items, group))
    group, items = group[order], items[order]
    at, known = catalog.index(items)
    if not known.all():
        raise DataError(f"unknown item_id {items[known.argmin()]}")
    step = group % 3
    credited = catalog.locations[at] == step + 1
    # An item listed twice for one step is credited once.
    credited[1:] &= (group[1:] != group[:-1]) | (items[1:] != items[:-1])
    value = [
        # One running total per step from 0.0, added to in order.
        float(np.cumsum(np.append(0.0, catalog.prices[at[credited & (step == st)]]))[-1])
        for st in range(3)
    ]
    total = sum(w * v for w, v in zip(cfg.step_weights, value)) / n
    return ScoreReport(
        score=total,
        per_step_value=(value[0], value[1], value[2]),
        n_sessions=n,
    )


def holdout_split(
    sessions: SessionTable, train_fraction: float, seed: int
) -> tuple[SessionTable, SessionTable]:
    """Deterministic shuffled split into disjoint train and validation sets."""
    if not 0.0 < train_fraction < 1.0:
        raise DataError("train_fraction must be in (0, 1)")
    n = len(sessions)
    if n < 2:
        raise DataError("need at least 2 sessions to split")
    order = np.random.default_rng(seed).permutation(n)
    n_train = min(max(int(round(train_fraction * n)), 1), n - 1)
    return sessions.take(order[:n_train]), sessions.take(order[n_train:])


@dataclass
class GridCellResult:
    index: int
    params: dict
    report: ScoreReport | None = None
    n_clusters: int | None = None
    error: str | None = None


@dataclass
class TuneResult:
    best_index: int
    cells: list[GridCellResult]
    train_size: int
    validation_size: int

    @property
    def best(self) -> GridCellResult:
        return self.cells[self.best_index]


#: Grid keys tune understands and the kind of their values; others are rejected.
GRID_KEYS = {
    "k_features": int,
    "l1_penalty": float,
    "cluster": dict,
    "alpha": float,
    "gamma": float,
    "epochs": int,
    "min_visits": int,
}
_EXPECTED = {
    int: "an integer",
    float: "a number",
    dict: 'an object {"method": "kmeans", "k": integer >= 1} '
    'or {"method": "dbscan", "eps": number, "min_pts": integer}',
}


def _is(kind: type, value) -> bool:
    """Whether ``value`` is of ``kind``: an integer, a number or a cluster spec."""
    if kind is dict:
        method = value.get("method") if isinstance(value, dict) else None
        if method == "kmeans":
            return _is(int, value.get("k")) and value["k"] >= 1
        dbscan = method == "dbscan" and _is(float, value.get("eps"))
        return dbscan and _is(int, value.get("min_pts"))
    return isinstance(value, (int, kind)) and not isinstance(value, bool)


def expand_grid(grid: Mapping[str, Sequence]) -> list[dict]:
    """Cartesian product of the grid, in the mapping's key order."""
    if not grid:
        raise DataError("empty hyperparameter grid")
    for key, values in grid.items():
        if key not in GRID_KEYS:
            raise DataError(f"unknown grid key {key!r}; expected one of {tuple(GRID_KEYS)}")
        if not isinstance(values, (list, tuple)) or len(values) == 0:
            raise DataError(f"grid key {key!r} must map to a nonempty list")
        for value in values:
            if not _is(GRID_KEYS[key], value):
                raise DataError(
                    f"grid key {key!r}: bad value {value!r}; expected {_EXPECTED[GRID_KEYS[key]]}"
                )
    keys = list(grid)
    return [dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))]


def select_best(cells: list[GridCellResult]) -> int:
    """Argmax score; ties prefer fewer features, then fewer clusters."""
    valid = [c for c in cells if c.report is not None]
    if not valid:
        raise FitError("every grid cell failed; nothing to select")
    chosen = min(
        valid,
        key=lambda c: (
            -c.report.score,
            c.params.get("k_features", 0),
            c.n_clusters if c.n_clusters is not None else 0,
            c.index,
        ),
    )
    return chosen.index


def _groups(cells: list[GridCellResult], key: Callable) -> list[list[GridCellResult]]:
    """``cells`` split by equal ``key(cell)``, in order of first appearance."""
    groups: list[tuple[object, list[GridCellResult]]] = []
    for cell in cells:
        value = key(cell)
        for seen, members in groups:
            if seen == value:
                members.append(cell)
                break
        else:
            groups.append((value, [cell]))
    return [members for _, members in groups]


def _fail(cells: list[GridCellResult], exc: QslateError) -> None:
    for cell in cells:
        cell.error = str(exc)


def _shared_components(
    cells: list[GridCellResult], params: list[PipelineParams], raw: FeatureMatrix
) -> tuple[SparseComponents | None, list[GridCellResult]]:
    """Fit sparse PCA once for cells that share ``l1_penalty``.

    The fit runs at the largest ``k_features`` among the cells.  A cell that
    fit cannot serve fails with the message its own fit would give: a
    collapse at component ``j`` fails the cells with ``k_features > j``, any
    other error the cells at that k, and the fit is retried for the rest.
    Returns the components and the cells they serve.
    """
    def k_of(cell: GridCellResult) -> int:
        return params[cell.index].k_features

    while cells:
        k = max(map(k_of, cells))
        try:
            return fit_components(raw, replace(params[cells[0].index], k_features=k)), cells
        except QslateError as exc:
            limit = exc.component if isinstance(exc, ComponentCollapseError) else k - 1
            _fail([c for c in cells if k_of(c) > limit], exc)
        cells = [c for c in cells if k_of(c) <= limit]
    return None, []


@dataclass
class _ReducedGroup:
    """Cells that share ``l1_penalty``, with their fit and projected states.

    ``rows`` and ``validation_rows`` map each session of the two splits to
    its state, as ``FeatureMatrix.rows`` does.
    """

    cells: list[GridCellResult]
    components: SparseComponents
    reduced: np.ndarray
    reduced_validation: np.ndarray
    rows: np.ndarray
    validation_rows: np.ndarray

    def leading(self, k: int) -> tuple[SparseComponents, np.ndarray, np.ndarray]:
        """The first ``k`` components and reduced columns.

        transform builds each output column on its own, so the first k
        columns are bit-identical to a transform by the first k components.
        """
        return (
            self.components.leading(k),
            np.ascontiguousarray(self.reduced[:, :k]),
            np.ascontiguousarray(self.reduced_validation[:, :k]),
        )


def _reduce(
    cells: list[GridCellResult],
    params: list[PipelineParams],
    train_set: SessionTable,
    validation: SessionTable,
    catalog: ItemCatalog,
) -> list[_ReducedGroup]:
    """Fit sparse PCA once per ``l1_penalty`` and project both splits.

    The fits and transforms keep no ``u x p`` array of their own (see
    :mod:`qslate.features`), so the training matrix is the one raw matrix
    live while they run; it is released before the validation matrix is
    built.  A failure to build either matrix fails every cell it would
    reach.
    """
    try:
        raw = build_raw_features(train_set, catalog)
    except QslateError as exc:
        _fail(cells, exc)
        return []
    fits = [
        _shared_components(l1_cells, params, raw)
        for l1_cells in _groups(cells, lambda c: params[c.index].l1_penalty)
    ]
    fits = [(components, fit_cells) for components, fit_cells in fits if fit_cells]
    reduced = [transform(raw, components) for components, _ in fits]
    rows = raw.rows
    del raw
    try:
        raw_validation = build_raw_features(validation, catalog)
    except QslateError as exc:
        _fail([cell for _, fit_cells in fits for cell in fit_cells], exc)
        return []
    return [
        _ReducedGroup(
            fit_cells,
            components,
            Z,
            transform(raw_validation, components),
            rows,
            raw_validation.rows,
        )
        for (components, fit_cells), Z in zip(fits, reduced)
    ]


def _score_model_cells(
    cells: list[GridCellResult],
    params: list[PipelineParams],
    group: _ReducedGroup,
    transitions: Callable[[], TransitionTable],
    validation: SessionTable,
    catalog: ItemCatalog,
    cfg: MetricConfig,
) -> None:
    """Fit one model for cells that differ only in ``min_visits``; score each."""
    cell_params = params[cells[0].index]
    components, Z, Z_validation = group.leading(cell_params.k_features)
    try:
        model, stats = fit_on_reduced(
            components, Z, group.rows, transitions, catalog, cell_params, []
        )
        cluster_ids = model.cluster_model.assign_many(Z_validation)[group.validation_rows]
    except QslateError as exc:
        _fail(cells, exc)
        return
    for cell in cells:
        try:
            policies = export_policies(stats.bank, catalog, params[cell.index].min_visits)
            cell.report = score(policies[cluster_ids], validation, catalog, cfg)
            cell.n_clusters = stats.n_clusters
        except QslateError as exc:
            cell.error = str(exc)


def tune(
    grid: Mapping[str, Sequence],
    sessions: SessionTable,
    catalog: ItemCatalog,
    cfg: MetricConfig = MetricConfig(),
    *,
    train_fraction: float = 0.8,
    seed: int = 0,
    base_params: PipelineParams | None = None,
) -> TuneResult:
    """Fit and score every grid cell on one shared holdout split.

    A cell whose pipeline fails at any stage is recorded with the failure
    message and excluded from selection.  Each cell's result equals a
    ``fit_pipeline`` -> ``recommend_for_sessions`` -> ``score`` run of that
    cell on the same split, but work that cells share is done once: the
    features and the transition table, sparse PCA for each
    ``l1_penalty`` (at the largest ``k_features`` and sliced for smaller
    ones, which greedy deflation makes exact), and the clusters and
    Q-tables for cells that differ only in ``min_visits``.  One model is
    held at a time.
    """
    cfg.validate()
    cells_params = expand_grid(grid)
    train_set, validation = holdout_split(sessions, train_fraction, seed)
    base = base_params or PipelineParams(seed=seed)

    cells = [GridCellResult(index=i, params=o) for i, o in enumerate(cells_params)]
    params = [replace(base, **overrides) for overrides in cells_params]
    # Built on first use, after the first clustering, as fit_pipeline does,
    # and then shared; a failure is raised again for each model.
    transitions = functools.cache(lambda: sessions_to_transitions(train_set, catalog))
    for group in _reduce(cells, params, train_set, validation, catalog):
        for model_cells in _groups(
            group.cells, lambda c: replace(params[c.index], min_visits=0)
        ):
            _score_model_cells(
                model_cells,
                params,
                group,
                transitions,
                validation,
                catalog,
                cfg,
            )

    best_index = select_best(cells)
    return TuneResult(
        best_index=best_index,
        cells=cells,
        train_size=len(train_set),
        validation_size=len(validation),
    )
