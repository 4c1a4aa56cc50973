"""Per-cluster tabular Q-learning over 3-item action slates.

One sparse table per (cluster, step); an absent cell reads as 0, which makes
the sparse map equivalent to a dense all-zero-initialized table while the
step-wise action space (~9.2 million slates per location at catalog scale)
stays out of memory.  Each update applies

    Q(s,a) += alpha * (r + gamma * max(0, max_a' Q(s',a')) - Q(s,a))

where the inner max ranges over the stored next-step actions of the same
cluster and transitions into the terminal state use the target ``r`` alone.

A table's maximum is read only by the non-terminal transitions of the step
before in the same cluster, so the trainer, ``_train_serial``, folds one
step at a time, from 3 down to 1, epoch by epoch.  Each step's cells fold
their targets by occurrence rank, vectorised across cells.  A non-terminal
target reads the next step's table maximum after that table's last update
before it: an interval-stabbing maximum over the table's cell values, each
of which holds from its update until the cell's next update or the table's
end (a stored value holds from the table's start).  A step's updates read
only the step after it, so the fold gives the tables, bit for bit and in
insertion order, that one loop over every update in stream order gives.
``train`` takes the columns of a transition table as one stream, which both
of its drivers read as it is:

* in process (used when ``deterministic``, or when the threads or the
  stream's clusters number one);
* a process pool with one job per cluster, largest stream volume first.
  Clusters never share cells and read only their own tables, so each job
  trains its cluster's transitions in input order and the merged result is
  bit-identical to a serial run.  The cyclic GC is paused while the pool
  runs: unpickling the trained tables allocates many objects and no cycles.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .errors import DataError, TrainError, read_model_file, write_model_file
from .ingest import STEPS, ItemCatalog, TransitionTable

QTABLES_FORMAT = "qslate-qtables"
QTABLES_VERSION = 1

Slate = tuple[int, int, int]


def make_slate(
    items, catalog: ItemCatalog | None = None, step: int | None = None
) -> Slate:
    """Build a validated action slate: 3 distinct ids, sorted ascending."""
    slate = tuple(sorted(int(i) for i in items))
    if len(slate) != 3:
        raise DataError(f"a slate holds exactly 3 items, got {slate}")
    if len(set(slate)) != 3:
        raise DataError(f"slate {slate} contains duplicate items")
    if catalog is not None:
        locs = {catalog.location(i) for i in slate}
        if len(locs) != 1:
            raise DataError(f"slate {slate} mixes locations {sorted(locs)}")
        if step is not None and locs != {step}:
            raise DataError(f"slate {slate} has location {locs.pop()}, expected step {step}")
    return slate


@dataclass(frozen=True)
class TrainConfig:
    alpha: float = 0.1
    gamma: float = 0.9
    epochs: int = 10
    threads: int = 1
    deterministic: bool = False
    backend: str = "process"  # the only parallel backend; kept for callers that name it

    def validate(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise DataError("alpha must be in (0, 1]")
        if not 0.0 <= self.gamma < 1.0:
            raise DataError("gamma must be in [0, 1)")
        if self.epochs < 1:
            raise DataError("epochs must be >= 1")
        if self.threads < 1:
            raise DataError("threads must be >= 1")
        if self.backend != "process":
            raise DataError(f"unknown backend {self.backend!r}")


class QTableBank:
    """Sparse action-value tables: (cluster, step) -> {slate: [q, visits]}."""

    def __init__(self, n_clusters: int):
        if n_clusters < 1:
            raise DataError("bank needs at least one cluster")
        self.n_clusters = n_clusters
        self.tables: dict[tuple[int, int], dict[Slate, list]] = {
            (c, s): {} for c in range(n_clusters) for s in STEPS
        }

    def q_value(self, cluster_id: int, step: int, action: Slate) -> float:
        cell = self.tables[self._key(cluster_id, step)].get(tuple(action))
        return float(cell[0]) if cell is not None else 0.0

    def visit_count(self, cluster_id: int, step: int, action: Slate) -> int:
        cell = self.tables[self._key(cluster_id, step)].get(tuple(action))
        return int(cell[1]) if cell is not None else 0

    def n_cells(self) -> int:
        return sum(len(t) for t in self.tables.values())

    def cells(self):
        """Yield (cluster_id, step, slate, q, visits) over every stored cell."""
        for (c, s), tab in self.tables.items():
            for slate, (q, visits) in tab.items():
                yield c, s, slate, q, visits

    def _key(self, cluster_id: int, step: int) -> tuple[int, int]:
        key = (cluster_id, step)
        if key not in self.tables:
            raise DataError(f"no table for cluster {cluster_id}, step {step}")
        return key

    def save(self, path: str | Path, stamp: str | None = None) -> None:
        tables = {}
        for (c, s), tab in sorted(self.tables.items()):
            step_map = tables.setdefault(str(c), {})
            step_map[str(s)] = {
                "-".join(str(i) for i in slate): [cell[0], cell[1]]
                for slate, cell in sorted(tab.items())
            }
        body = {"n_clusters": self.n_clusters, "tables": tables}
        write_model_file(path, QTABLES_FORMAT, QTABLES_VERSION, stamp, body)

    @classmethod
    def load(cls, path: str | Path) -> tuple["QTableBank", str | None]:
        """Read a saved bank; a cell whose slate is not 3 strictly ascending
        ints, whose q is not a finite JSON number or whose visits are not a
        JSON integer of at least 1 raises :class:`ModelFileError` naming
        ``path``."""
        def build(payload: dict) -> "QTableBank":
            bank = cls(int(payload["n_clusters"]))
            for c_str, steps in payload["tables"].items():
                for s_str, cells in steps.items():
                    tab = bank.tables[bank._key(int(c_str), int(s_str))]
                    for slate_str, (q, visits) in cells.items():
                        slate = tuple(int(i) for i in slate_str.split("-"))
                        if not (len(slate) == 3 and slate[0] < slate[1] < slate[2]):
                            make_slate(slate)  # names a wrong count or a repeated item
                            raise DataError(f"cell {slate_str!r} does not list its items in order")
                        # A JSON true is a bool, which the type tests exclude.
                        if type(q) not in (int, float) or type(visits) is not int:
                            raise DataError(
                                f"cell {slate_str!r} holds q {q!r} and visits {visits!r}, "
                                "not a number and an integer"
                            )
                        q = float(q)
                        if not math.isfinite(q) or visits < 1:
                            raise DataError(f"cell {slate_str!r} has q {q}, visits {visits}")
                        tab[slate] = [q, visits]
            return bank

        return read_model_file(path, QTABLES_FORMAT, QTABLES_VERSION, build)


# ---------------------------------------------------------------------------
# Training drivers

# Table (cluster, step) has id cluster * _WIDTH + step, so the table that a
# non-terminal transition reads is its own table's id + 1.
_WIDTH = STEPS[-1] + 1


@dataclass(frozen=True)
class _Stream:
    """The prepared transitions as columns, one row per transition."""

    tid: np.ndarray  # int64 table id
    action: np.ndarray  # int64, n×3: each transition's own slate
    reward: np.ndarray  # float64
    terminal: np.ndarray  # bool

    def take(self, rows) -> "_Stream":
        """The rows that a mask or an index array selects, in that order."""
        return _Stream(self.tid[rows], self.action[rows], self.reward[rows], self.terminal[rows])


def _prepare_stream(
    bank: QTableBank, transitions: TransitionTable, session_clusters
) -> _Stream:
    """The table's columns as a stream, shared and not copied.  Each check in
    turn raises :class:`TrainError` naming the first transition that fails it."""
    ref, step, reward, terminal = (
        transitions.session_ref, transitions.step, transitions.reward, transitions.terminal
    )
    clusters = np.asarray(session_clusters)
    if clusters.size and clusters.dtype.kind not in "iu":
        raise TrainError(f"cluster ids must be integers, got dtype {clusters.dtype}")
    clusters = clusters.astype(np.int64, copy=False)

    def first(bad: np.ndarray) -> int | None:
        return int(bad.argmax()) if bad.any() else None

    if (i := first((ref < 0) | (ref >= len(clusters)))) is not None:
        raise TrainError(f"no cluster assignment for session {ref[i]}")
    cid = clusters[ref]
    if (i := first((cid < 0) | (cid >= bank.n_clusters))) is not None:
        raise TrainError(f"transition references unknown cluster {cid[i]}")
    if (i := first(~np.isfinite(reward))) is not None:
        raise TrainError(f"non-finite reward in session {ref[i]}")
    if (i := first((step < STEPS[0]) | (step > STEPS[-1]))) is not None:
        raise TrainError(f"transition at unknown step {step[i]} in session {ref[i]}")
    if (i := first(~terminal & (step == STEPS[-1]))) is not None:
        raise TrainError(f"transition continues past step {step[i]} in session {ref[i]}")
    return _Stream(cid * _WIDTH + step, transitions.action, reward, terminal)


class _IntervalMax:
    """Each of ``size`` points' maximum over 0.0 and the values of the
    fixed intervals ``[lo, hi)`` that contain it.

    The intervals are covered once by the nodes of a bottom-up segment tree
    (node ``i`` has children ``2i`` and ``2i + 1``; point ``p`` is leaf
    ``size + p``), so a call with new values costs one gather over the
    covering nodes and one downward pass per tree level.  A maximum does no
    arithmetic, so it is exact.  The nodes, about ``2 log2(size)`` per
    interval, are int32 when their ids fit, to halve the memory they hold.
    """

    def __init__(self, lo: np.ndarray, hi: np.ndarray, size: int):
        self.size = size
        dtype = np.int32 if max(2 * size, len(lo)) < 2**31 else np.int64
        src = np.flatnonzero(lo < hi).astype(dtype)
        lo, hi = (lo[src] + size).astype(dtype), (hi[src] + size).astype(dtype)
        nodes, srcs = [src[:0]], [src[:0]]  # empty arrays, for when no interval holds a point
        while len(src):
            odd = (lo & 1).astype(np.bool_)
            nodes.append(lo[odd])
            srcs.append(src[odd])
            lo = (lo + odd) >> 1
            odd = (hi & 1).astype(np.bool_)
            nodes.append(hi[odd] - 1)
            srcs.append(src[odd])
            hi = hi >> 1
            keep = lo < hi
            lo, hi, src = lo[keep], hi[keep], src[keep]
        self.nodes, self.src = np.concatenate(nodes), np.concatenate(srcs)

    def __call__(self, values: np.ndarray) -> np.ndarray:
        tree = np.zeros(2 * self.size)
        np.maximum.at(tree, self.nodes, values[self.src])
        level = 2
        while level < 2 * self.size:
            child = tree[level : 2 * level].reshape(-1, 2)
            np.maximum(child, tree[level // 2 : level // 2 + len(child), None], out=child)
            level *= 2
        return tree[self.size :]


def _cells(keys: np.ndarray, n: int):
    """Number the distinct rows of ``keys`` in sorted order.

    Returns the distinct keys and each row's cell; then, for each of the
    first ``n`` rows, its occurrence rank within its cell and the cell's
    next row (n if none among the first ``n``); then each cell's first row
    (n likewise).  Rows sort stably, so ranks follow row order.
    """
    by_cell = np.lexsort(keys.T[::-1])
    sorted_keys = keys[by_cell]
    opens = np.ones(len(keys), np.bool_)
    opens[1:] = (sorted_keys[1:] != sorted_keys[:-1]).any(axis=1)
    distinct = sorted_keys[opens]
    del sorted_keys  # as large as ``keys``; freed, it stays off the peak
    cell, rank, nxt = (np.empty(len(keys), np.int64) for _ in range(3))
    cell[by_cell] = np.cumsum(opens) - 1
    at = np.arange(len(keys))
    rank[by_cell] = at - np.maximum.accumulate(np.where(opens, at, 0))
    nxt[by_cell] = np.minimum(np.where(np.append(opens[1:], True), n, np.roll(by_cell, -1)), n)
    return distinct, cell, rank[:n], nxt[:n], np.minimum(by_cell[opens], n)


def _train_serial(tables, stream: _Stream, alpha: float, gamma: float, epochs: int):
    """Apply ``epochs`` passes over ``stream`` to ``tables`` and return
    ``tables``: all of a bank's, or one cluster's in a pool job.

    Each epoch folds step 3, then 2, then 1: a step's cells fold their
    targets by occurrence rank, vectorised across cells.  A non-terminal
    target reads the next step's table maximum after that table's last
    update before it, an interval-stabbing maximum over the latest values of
    the table's cells, which the next step's fold of the same epoch records.
    """
    base = min(c for c, _ in tables)  # ids count from the lowest cluster
    n_ids = _WIDTH * (1 + max(c for c, _ in tables) - base)
    tabs = [tables.get((base + t // _WIDTH, t % _WIDTH)) for t in range(n_ids)]
    tid, n = stream.tid - _WIDTH * base, len(stream.tid)
    # A cell is the (table, action) key of a stream row or of a stored cell.
    held = [(t, a, cell) for t, tab in enumerate(tabs) if tab for a, cell in tab.items()]
    cell_key, cell, rank, nxt, first = _cells(np.concatenate([
        np.column_stack([tid, stream.action]),
        np.array([(t, *a) for t, a, _ in held], np.int64).reshape(-1, 4),
    ]), n)
    n_cells = len(cell_key)
    counts = np.bincount(cell[:n], minlength=n_cells)
    q0, visits, fresh = np.zeros(n_cells), counts * epochs, np.ones(n_cells, np.bool_)
    q0[cell[n:]] = [c[0] for _, _, c in held]
    visits[cell[n:]] += np.array([c[1] for _, _, c in held], np.int64)
    fresh[cell[n:]] = False

    # Cells are labelled step by step and by falling count within a step, so
    # that a step's cells with a k-th occurrence in an epoch are a run of
    # labels; rows fold by step, then occurrence rank, then label.
    step, cell_step = tid % _WIDTH, cell_key[:, 0] % _WIDTH
    labelled = np.lexsort((-counts, cell_step))
    label = np.empty(n_cells, np.int64)
    label[labelled] = np.arange(n_cells)
    fold = np.argsort((step * n + rank[:n]) * n_cells + label[cell[:n]])
    q, fresh, target = q0[labelled], fresh[labelled], stream.reward[fold]
    step_f = step[fold]
    plan = []
    for s in STEPS[::-1]:
        j0, j1 = np.searchsorted(step_f, [s, s + 1]).tolist()
        c0 = int(np.searchsorted(cell_step[labelled], s))
        plan.append((s, c0, j0, np.bincount(rank[fold[j0:j1]]).tolist()))
    # Interval i holds values[i], at positions table * n + row, for the
    # tables that a step reads: steps 2 and 3, which start at label c2 and
    # fold position j2.  First come their cells, by label: a cell's value at
    # the epoch's start holds from its table's start to its first update.
    # Then their updates, by fold position: the value after one holds until
    # the cell's next update or the table's end.
    c2 = int(np.searchsorted(cell_step[labelled], STEPS[1]))
    j2 = int(np.searchsorted(step_f, STEPS[1]))
    cells, rows = labelled[c2:], fold[j2:]
    lo = np.concatenate([cell_key[cells, 0] * n, tid[rows] * n + rows])
    hi = np.concatenate([cell_key[cells, 0] * n + first[cells], tid[rows] * n + nxt[rows]])
    values, v0 = np.empty(len(lo)), n_cells - c2 - j2
    # The epochs need none of the set-up arrays; freed, they stay off the peak.
    del cell, rank, nxt, step, cells, rows
    reads = {}
    for s in STEPS[1:]:
        # Step s - 1's non-terminal rows read step s's tables as points
        # ordered by (read table, row).
        nt = np.flatnonzero((step_f == s - 1) & ~stream.terminal[fold])
        key = (tid[fold[nt]] + 1) * n + fold[nt]
        order = np.argsort(key)
        nt, key = nt[order], key[order]
        stab = _IntervalMax(np.searchsorted(key, lo), np.searchsorted(key, hi), len(key))
        reads[s] = (nt, target[nt], stab)
    del fold, step_f, lo, hi
    for epoch in range(epochs):
        values[: n_cells - c2] = q[c2:]
        for s, c0, j, widths in plan:
            for k, w in enumerate(widths):
                qw, tw = q[c0 : c0 + w], target[j : j + w]
                if epoch == 0 and k == 0:
                    # A new cell's first update is alpha * target, which keeps -0.0.
                    qw[:] = np.where(fresh[c0 : c0 + w], alpha * tw, qw + alpha * (tw - qw))
                else:
                    qw += alpha * (tw - qw)
                if s in reads:
                    values[v0 + j : v0 + j + w] = qw
                j += w
            if s in reads:
                nt, reward, stab = reads[s]
                nm = stab(values)
                target[nt] = np.where(nm > 0.0, reward + gamma * nm, reward)

    # Write the trained cells back; new cells go in first-appearance order.
    live = np.flatnonzero(counts)
    live = live[np.argsort(first[live])]
    for t, a, qv, v in zip(cell_key[live, 0].tolist(), zip(*cell_key[live, 1:].T.tolist()),
                           q[label[live]].tolist(), visits[live].tolist()):
        tabs[t][a] = [qv, v]
    return tables


def _train_processes(bank, stream: _Stream, alpha, gamma, epochs, workers) -> None:
    """Train each cluster as one pool job, largest stream volume first."""
    cid = stream.tid // _WIDTH
    volumes = np.bincount(cid).tolist()
    # A stable sort keeps each cluster's rows in stream order.
    rows = np.split(np.argsort(cid, kind="stable"), np.cumsum(volumes)[:-1])
    order = sorted((c for c, v in enumerate(volumes) if v), key=lambda c: -volumes[c])
    tables = [{(c, s): bank.tables[(c, s)] for s in STEPS} for c in order]
    job = partial(_train_serial, alpha=alpha, gamma=gamma, epochs=epochs)
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        ctx = multiprocessing.get_context("spawn")
    # Forked workers inherit the pause.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            for trained in pool.map(job, tables, [stream.take(rows[c]) for c in order]):
                bank.tables.update(trained)
    finally:
        if gc_was_enabled:
            gc.enable()


def train(
    bank: QTableBank,
    transitions: TransitionTable,
    session_clusters,
    cfg: TrainConfig,
) -> QTableBank:
    """Run ``cfg.epochs`` update passes over the transition stream.

    The stream shares the columns of ``transitions`` without copying them.
    ``session_clusters`` is a list or array of integers that maps each
    session ref to a cluster id; any other dtype raises :class:`TrainError`.
    Both drivers run the step-wise fold of ``_train_serial``, whose tables
    equal those of applying every update in input order.  Each cluster is
    one job, largest stream volume first, for ``cfg.threads`` worker
    processes, but no more than the stream has clusters, and the cyclic GC
    is paused while the pool runs.  With ``deterministic`` set, or when that
    leaves one worker, the fold runs in this process: a pool would only add
    a fork and a pickle round trip.  Clusters never share a cell, so both
    drivers produce bit-identical tables.
    """
    cfg.validate()
    stream = _prepare_stream(bank, transitions, session_clusters)
    if not len(stream.tid):
        return bank
    clusters = len(np.unique(stream.tid // _WIDTH))
    workers = 1 if cfg.deterministic else min(cfg.threads, clusters)
    if workers == 1:
        _train_serial(bank.tables, stream, cfg.alpha, cfg.gamma, cfg.epochs)
    else:
        _train_processes(bank, stream, cfg.alpha, cfg.gamma, cfg.epochs, workers)
    return bank


# ---------------------------------------------------------------------------
# Policies

def _best(entries) -> Slate:
    """Highest q wins; ties go to the lexicographically smallest slate."""
    return min(entries, key=lambda e: (-e[1], e[0]))[0]


def greedy_policy(
    bank: QTableBank, cluster_id: int, catalog: ItemCatalog, min_visits: int = 3
) -> list[Slate]:
    """Greedy slate per step, restricted to sufficiently visited actions.

    Eligibility falls back in layers so the policy is total: the cluster's
    own cells with at least ``min_visits`` visits, then the union of every
    cluster's qualifying cells for that step, then any stored cell at all.
    A step with no stored cell reads 0 everywhere, as a dense zero table
    would, so it takes the smallest slate: the 3 smallest item ids at its
    location.  Raises :class:`TrainError` for such a step without a
    ``catalog`` or when the location holds fewer than 3 items.
    """
    if not 0 <= cluster_id < bank.n_clusters:
        raise DataError(f"unknown cluster {cluster_id}")
    slates: list[Slate] = []
    for step in STEPS:
        own = bank.tables[(cluster_id, step)]
        entries = [(slate, cell[0]) for slate, cell in own.items() if cell[1] >= min_visits]
        if not entries:
            entries = [
                (slate, cell[0])
                for c in range(bank.n_clusters)
                for slate, cell in bank.tables[(c, step)].items()
                if cell[1] >= min_visits
            ]
        if not entries:
            entries = [
                (slate, cell[0])
                for c in range(bank.n_clusters)
                for slate, cell in bank.tables[(c, step)].items()
            ]
        if not entries:
            if catalog is None or len(catalog.by_location[step]) < 3:
                raise TrainError(f"no trained action exists for step {step}")
            entries = [(catalog.by_location[step][:3], 0.0)]
        best = _best(entries)
        if catalog is not None:
            make_slate(best, catalog=catalog, step=step)
        slates.append(best)
    return slates


def export_policies(
    bank: QTableBank, catalog: ItemCatalog, min_visits: int = 3
) -> dict[int, tuple[int, ...]]:
    """Flattened 9-item recommendation per cluster, in step order."""
    out = {}
    for c in range(bank.n_clusters):
        steps = greedy_policy(bank, c, catalog, min_visits)
        out[c] = tuple(i for slate in steps for i in slate)
    return out
