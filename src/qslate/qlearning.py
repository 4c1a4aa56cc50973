"""Per-cluster tabular Q-learning over 3-item action slates.

One sparse table per (cluster, step); an absent cell reads as 0, which makes
the sparse map equivalent to a dense all-zero-initialized table while the
step-wise action space (~9.2 million slates per location at catalog scale)
stays out of memory.  A :class:`QTableBank` holds the stored cells of every
table as columns sorted by table and then slate.  Each update applies

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
end (a value from the epoch before holds from the table's start).  A
step's updates read only the step after it, so the fold gives the tables,
bit for bit, that one loop over every update in stream order gives.
``train`` fills an empty bank: it takes the columns of a transition table
as one stream, and the fold returns the trained cells as columns, which the
bank then holds.  The fold runs:

* in process (used when ``deterministic``, where ``fork`` is unavailable,
  when the threads, the stream's clusters or the usable cores number one,
  or when the stream is too small for a pool to beat the fold: its
  non-terminal transitions times the epochs, each an update that reads
  the next step's table, fall below ``_POOL_MIN_READS``);
* across workers: this process and a pool of processes forked from it.
  The stream sits in a module global that the forked workers inherit, so
  no part of it is pickled.  The clusters are dealt, largest stream volume
  first, to the least-loaded worker, and each worker runs one fold over its
  clusters' rows; the forked ones return their trained columns.  Clusters
  never share cells and read only their own tables, so the merged columns
  are bit-identical to the serial fold's.  The cyclic GC is paused while
  the pool runs, and the forked workers inherit the pause.

Every integer sort of training goes through ``_order``: where the key
columns' spans allow, it packs each key row and its row number into one
unique int64 and runs one ``np.sort``; keys too wide for that, such as item
ids that span millions, take ``np.lexsort``.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .errors import (DataError, TrainError, json_column, json_scalar, read_model_file,
                     write_model_file)
from .ingest import STEPS, ItemCatalog, TransitionTable, slate_faults

QTABLES_FORMAT = "qslate-qtables"
QTABLES_VERSION = 3

#: The fallback layers of a greedy policy, in the order they are tried.
POLICY_LAYERS = ("own", "union", "any", "zero")

# Table (cluster, step) has id cluster * _WIDTH + step, so the table that a
# non-terminal transition reads is its own table's id + 1.
_WIDTH = STEPS[-1] + 1

_CAN_FORK = "fork" in multiprocessing.get_all_start_methods()

# Below this many next-step reads (non-terminal transitions times epochs)
# the fold runs in process: a 2-worker pool on 2 cores broke even near it
# for shallow and deep streams alike at 8 to 16 epochs.  The sweep is
# recorded in CHANGES.md.
_POOL_MIN_READS = 250_000


def _usable_cores() -> int:
    """The cores that this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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

    def workers(self, clusters: np.ndarray, terminal: np.ndarray) -> int:
        """The workers that train a stream whose transitions have these
        cluster ids and terminal flags: ``threads``, capped at the clusters
        that the stream reaches and at the usable cores, or 1 (in process)
        when ``deterministic``, where ``fork`` is unavailable, or when the
        stream's next-step reads (its non-terminal transitions times
        ``epochs``) fall below the pool's break-even."""
        if (self.deterministic or not _CAN_FORK
                or np.count_nonzero(~terminal) * self.epochs < _POOL_MIN_READS):
            return 1
        return int(min(self.threads, np.count_nonzero(np.bincount(clusters)), _usable_cores()))


class QTableBank:
    """Sparse action-value tables, one per (cluster, step), as columns.

    Each stored cell is one row of ``tid`` (its table's id,
    ``cluster * _WIDTH + step``), ``slate`` (n×3 item ids), ``q`` and
    ``visits``.  The rows are sorted by table and then slate, and the
    columns are read-only; ``train`` replaces them.
    """

    def __init__(self, n_clusters: int):
        if n_clusters < 1:
            raise DataError("bank needs at least one cluster")
        self.n_clusters = n_clusters
        self._hold(np.empty(0, np.int64), np.empty((0, 3), np.int64), np.empty(0),
                   np.empty(0, np.int64))

    @classmethod
    def from_columns(cls, n_clusters: int, cluster, step, slate, q, visits) -> "QTableBank":
        """A bank of the cells given as columns, in any order: each cell's
        cluster and step, its slate (n×3, or its items flat), q and visits.
        Raises :class:`DataError` naming the first failing cell when a column
        holds a value of another kind (a bool, a string, or a float where
        integers belong, refused rather than cast), when a column but the
        slate is not flat or the columns differ in length, or when a cell
        lies outside the bank's tables, has a non-finite q or visits below
        1, has a slate whose items do not strictly ascend, or stores its
        slate twice in one table."""
        bank = cls(n_clusters)
        cluster = json_column(cluster, np.int64, "the cluster of cell {}")
        step = json_column(step, np.int64, "the step of cell {}")
        slate = json_column(slate, np.int64, "an item of cell {}'s slate", width=3)
        q = json_column(q, np.float64, "the q of cell {}")
        visits = json_column(visits, np.int64, "the visit count of cell {}")
        if not cluster.shape == step.shape == q.shape == visits.shape == (slate.size / 3,):
            raise DataError(f"bank columns differ in length: {len(cluster)} cluster, "
                            f"{len(step)} step, {len(q)} q and {len(visits)} visits values, "
                            f"and {slate.size} slate items")
        slate = slate.reshape(-1, 3)
        bad = (cluster < 0) | (cluster >= n_clusters) | (step < STEPS[0]) | (step > STEPS[-1])
        if bad.any():
            i = int(bad.argmax())
            raise DataError(f"no table for cluster {cluster[i]}, step {step[i]}")
        ascending = (slate[:, 0] < slate[:, 1]) & (slate[:, 1] < slate[:, 2])
        for ok, fault in ((np.isfinite(q) & (visits >= 1), "has q {q}, visits {v}"),
                          (ascending, "does not list its items in strictly ascending order")):
            if not ok.all():
                i = int(ok.argmin())
                raise DataError(f"the cell {tuple(slate[i].tolist())} of cluster {cluster[i]}, "
                                f"step {step[i]} " + fault.format(q=q[i], v=visits[i]))
        tid = cluster * _WIDTH + step
        order, opens = _order(np.column_stack([tid, slate]))
        tid, slate, q, visits = tid[order], slate[order], q[order], visits[order]
        if not opens.all():
            i = int(opens.argmin()) - 1
            c, s = divmod(int(tid[i]), _WIDTH)
            raise DataError(f"slate {tuple(slate[i].tolist())} is stored twice in the table "
                            f"of cluster {c}, step {s}")
        bank._hold(tid, slate, q, visits)
        return bank

    def _hold(self, tid, slate, q, visits) -> None:
        for column in (tid, slate, q, visits):
            column.flags.writeable = False
        self.tid, self.slate, self.q, self.visits = tid, slate, q, visits

    @property
    def tables(self):
        """A read-only view, built on each access: (cluster, step) ->
        {slate: (q, visits)} for every table, stored cells or none."""
        tables = {(c, s): {} for c in range(self.n_clusters) for s in STEPS}
        for c, s, slate, q, visits in self.cells():
            tables[(c, s)][slate] = (q, visits)
        return MappingProxyType({key: MappingProxyType(tab) for key, tab in tables.items()})

    def n_cells(self) -> int:
        return len(self.tid)

    def cells(self):
        """Iterate (cluster_id, step, slate, q, visits) over every stored
        cell, by table and then slate."""
        cluster, step = np.divmod(self.tid, _WIDTH)
        return zip(cluster.tolist(), step.tolist(), map(tuple, self.slate.tolist()),
                   self.q.tolist(), self.visits.tolist())

    def report(self, epochs: int) -> list[dict]:
        """For each (cluster, step): its stored cells, and how many of them
        were observed once (or never), 2–4 times and 5 or more times, where
        a cell's observations are its visits // ``epochs``: exactly its
        transitions in the stream, for a bank that ``train`` filled."""
        bins = np.searchsorted([2, 5], self.visits // epochs, side="right")
        counts = np.bincount(self.tid * 3 + bins, minlength=self.n_clusters * _WIDTH * 3)
        counts = counts.reshape(-1, 3).tolist()
        return [
            {"cluster": c, "step": s, "cells": sum(counts[c * _WIDTH + s]),
             "observations": dict(zip(("1", "2-4", "5+"), counts[c * _WIDTH + s]))}
            for c in range(self.n_clusters) for s in STEPS
        ]

    def save(self, path: str | Path, stamp: str | None = None) -> None:
        """Write ``qtables.json`` version 3, a record of the learned values in
        the bank's own column order: ``cells`` counts the stored cells of each
        (cluster, step) table, by cluster and then step, and the flat
        ``slate`` (3 items a cell), ``q`` and ``visits`` columns hold them."""
        counts = np.bincount(self.tid, minlength=self.n_clusters * _WIDTH).reshape(-1, _WIDTH)
        body = {
            "n_clusters": self.n_clusters,
            "cells": counts[:, STEPS[0]:].ravel().tolist(),
            "slate": self.slate.ravel().tolist(),
            "q": self.q.tolist(),
            "visits": self.visits.tolist(),
        }
        write_model_file(path, QTABLES_FORMAT, QTABLES_VERSION, stamp, body)

    @classmethod
    def load(cls, path: str | Path) -> tuple["QTableBank", str | None]:
        """Read back a bank that :meth:`save` wrote, for analysis; no command
        reads it.  Every check of :meth:`from_columns` applies, and a failure
        raises :class:`ModelFileError` naming ``path``.  Other versions are
        refused as unsupported."""
        def build(payload: dict) -> "QTableBank":
            counts = json_column(payload["cells"], np.int64, "the cell count of table {}")
            cluster, step = np.divmod(np.repeat(np.arange(len(counts)), counts), len(STEPS))
            n_clusters = json_scalar(payload["n_clusters"], np.int64, "n_clusters")
            return cls.from_columns(n_clusters, cluster, step + STEPS[0], payload["slate"],
                                    payload["q"], payload["visits"])

        return read_model_file(path, QTABLES_FORMAT, QTABLES_VERSION, build)


# ---------------------------------------------------------------------------
# Training drivers


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


def _order(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable order of the rows of the int64 matrix ``keys``, first
    column most significant, and whether each sorted row opens a run of
    equal rows.

    Where the product of the columns' spans times the row count fits in
    int64, each row and its row number pack into one unique key, so one
    ``np.sort`` gives the order whatever algorithm it runs; wider keys take
    ``np.lexsort``.
    """
    n = len(keys)
    if n == 0:
        return np.empty(0, np.int64), np.empty(0, np.bool_)
    # Per column: a reduction over axis 0 of a narrow matrix is far slower.
    low = [int(column.min()) for column in keys.T]
    spans = [int(column.max()) - lo + 1 for column, lo in zip(keys.T, low)]
    if math.prod(spans) * n < 2**63:
        # Every partial key is at most the full one, so none overflows.
        packed = keys[:, 0] - low[0]
        for column, lo, span in zip(keys.T[1:], low[1:], spans[1:]):
            packed *= span
            packed += column - lo
        packed *= n
        packed += np.arange(n)
        packed.sort()
        packed, order = np.divmod(packed, n)
        differs = packed[1:] != packed[:-1]
    else:
        order = np.lexsort(keys.T[::-1])
        ordered = keys[order]
        differs = (ordered[1:] != ordered[:-1]).any(axis=1)
    return order, np.append(True, differs)


def _cells(keys: np.ndarray):
    """Number the distinct rows of ``keys`` in sorted order.

    Returns the distinct keys; then, for each row, its cell, its occurrence
    rank within its cell and the cell's next row (the row count if none);
    then each cell's first row.  Rows sort stably, so ranks follow row order.
    """
    n = len(keys)
    by_cell, opens = _order(keys)
    first = by_cell[opens]
    cell, rank, nxt = (np.empty(n, np.int64) for _ in range(3))
    cell[by_cell] = np.cumsum(opens) - 1
    at = np.arange(n)
    rank[by_cell] = at - np.maximum.accumulate(np.where(opens, at, 0))
    nxt[by_cell] = np.where(np.append(opens[1:], True), n, np.roll(by_cell, -1))
    return keys[first], cell, rank, nxt, first


def _train_serial(stream: _Stream, alpha: float, gamma: float, epochs: int):
    """Apply ``epochs`` passes over ``stream`` to tables that start empty,
    and return the trained cells as columns of table id, slate, q and
    visits, sorted by table and then slate.

    Each epoch folds step 3, then 2, then 1: a step's cells fold their
    targets by occurrence rank, vectorised across cells.  A non-terminal
    target reads the next step's table maximum after that table's last
    update before it, an interval-stabbing maximum over the latest values of
    the table's cells, which the next step's fold of the same epoch records.
    """
    tid, n = stream.tid, len(stream.tid)
    # A cell is the (table, action) key of a stream row.
    cell_key, cell, rank, nxt, first = _cells(np.column_stack([tid, stream.action]))
    n_cells = len(cell_key)
    counts = np.bincount(cell, minlength=n_cells)

    # Cells are labelled step by step and by falling count within a step, so
    # that a step's cells with a k-th occurrence in an epoch are a run of
    # labels; rows fold by step, then occurrence rank, then label.
    step, cell_step = tid % _WIDTH, cell_key[:, 0] % _WIDTH
    labelled = _order(np.column_stack([cell_step, -counts]))[0]
    label = np.empty(n_cells, np.int64)
    label[labelled] = np.arange(n_cells)
    fold = _order(np.column_stack([step, rank, label[cell]]))[0]
    q, target = np.zeros(n_cells), stream.reward[fold]
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
        order = _order(key[:, None])[0]
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
                    # A cell's first update is alpha * target, which keeps -0.0.
                    qw[:] = alpha * tw
                else:
                    qw += alpha * (tw - qw)
                if s in reads:
                    values[v0 + j : v0 + j + w] = qw
                j += w
            if s in reads:
                nt, reward, stab = reads[s]
                nm = stab(values)
                target[nt] = np.where(nm > 0.0, reward + gamma * nm, reward)
    return cell_key[:, 0].copy(), cell_key[:, 1:].copy(), q[label], counts * epochs


# The stream of a pool run, which forked workers inherit.
_FORKED: _Stream | None = None


def _deal(volumes: np.ndarray, workers: int) -> list[list[int]]:
    """The clusters of nonzero stream volume, dealt largest first (the lower
    id on a tie) to the least-loaded worker (the lower-numbered on a tie)."""
    jobs, loads = [[] for _ in range(workers)], [0] * workers
    for c in sorted(np.flatnonzero(volumes).tolist(), key=lambda c: -volumes[c]):
        w = loads.index(min(loads))
        jobs[w].append(c)
        loads[w] += int(volumes[c])
    return jobs


def _train_job(clusters: list[int], alpha: float, gamma: float, epochs: int) -> tuple:
    """One worker's fold over the inherited stream rows of ``clusters``;
    returns their trained columns."""
    rows = np.isin(_FORKED.tid // _WIDTH, clusters)
    return _train_serial(_FORKED.take(rows), alpha, gamma, epochs)


def _train_processes(stream: _Stream, alpha, gamma, epochs, workers) -> tuple:
    """Fold the dealt clusters in ``workers`` jobs, the first in this process
    and the others in forked ones, and merge their columns."""
    global _FORKED
    jobs = _deal(np.bincount(stream.tid // _WIDTH), workers)
    job = partial(_train_job, alpha=alpha, gamma=gamma, epochs=epochs)
    _FORKED = stream
    # Forked workers inherit the pause.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        with ProcessPoolExecutor(max_workers=workers - 1,
                                 mp_context=multiprocessing.get_context("fork")) as pool:
            forked = [pool.submit(job, clusters) for clusters in jobs[1:]]
            parts = [job(jobs[0])] + [future.result() for future in forked]
    finally:
        _FORKED = None
        if gc_was_enabled:
            gc.enable()
    tid, slate, q, visits = (np.concatenate(cols) for cols in zip(*parts))
    # Each part is sorted and holds whole tables, so a stable sort by table suffices.
    order = _order(tid[:, None])[0]
    return tid[order], slate[order], q[order], visits[order]


def train(
    bank: QTableBank,
    transitions: TransitionTable,
    session_clusters,
    cfg: TrainConfig,
) -> QTableBank:
    """Fill the empty ``bank`` with ``cfg.epochs`` update passes over the
    transition stream; a bank that holds cells raises :class:`TrainError`
    and is left as it is.

    The stream shares the columns of ``transitions`` without copying them.
    ``session_clusters`` is a list or array of integers that maps each
    session ref to a cluster id; any other dtype raises :class:`TrainError`.
    Both drivers run the step-wise fold of ``_train_serial``, whose tables
    equal those of applying every update in input order.  The clusters are
    dealt, largest stream volume first, to the workers of
    :meth:`TrainConfig.workers`: ``cfg.threads``, but no more than the
    stream has clusters or the process has usable cores, this process and
    forked ones.  The cyclic GC is paused while the pool runs.  With
    ``deterministic`` set, where ``fork`` is unavailable, when that leaves
    one worker, or when the stream's next-step reads fall below the pool's
    break-even, the fold runs in this process.  Clusters never share a
    cell, so both drivers produce bit-identical tables.
    """
    cfg.validate()
    if bank.n_cells():
        raise TrainError(f"train fills an empty bank; this one holds {bank.n_cells()} cells")
    stream = _prepare_stream(bank, transitions, session_clusters)
    if not len(stream.tid):
        return bank
    workers = cfg.workers(stream.tid // _WIDTH, stream.terminal)
    if workers == 1:
        trained = _train_serial(stream, cfg.alpha, cfg.gamma, cfg.epochs)
    else:
        trained = _train_processes(stream, cfg.alpha, cfg.gamma, cfg.epochs, workers)
    bank._hold(*trained)
    return bank


# ---------------------------------------------------------------------------
# Policies

def _greedy(bank: QTableBank, catalog: ItemCatalog, min_visits: int):
    """Every cluster's greedy slate and fallback layer at each step, not yet
    checked: an n×3×3 array of slates and an n×3 array of indices into
    :data:`POLICY_LAYERS`.  A step with no stored cell takes the zero
    table's slate where the catalog has one."""
    cluster, step = np.divmod(bank.tid, _WIDTH)
    # One order serves every layer: by step, then highest q, then smallest slate.
    order = np.lexsort((bank.slate[:, 2], bank.slate[:, 1], bank.slate[:, 0], -bank.q, step))
    bounds = np.searchsorted(step[order], [*STEPS, STEPS[-1] + 1]).tolist()
    slates = np.empty((bank.n_clusters, len(STEPS), 3), np.int64)
    layers = np.empty((bank.n_clusters, len(STEPS)), np.int64)
    for k, s in enumerate(STEPS):
        ranked = order[bounds[k] : bounds[k + 1]]
        if not len(ranked):
            layers[:, k] = POLICY_LAYERS.index("zero")
            if len(catalog.by_location[s]) >= 3:
                slates[:, k] = catalog.by_location[s][:3]
            continue
        # Each layer overrides the one after it wherever it has a cell.
        layers[:, k], slates[:, k] = POLICY_LAYERS.index("any"), bank.slate[ranked[0]]
        eligible = ranked[bank.visits[ranked] >= min_visits]
        if len(eligible):
            layers[:, k], slates[:, k] = POLICY_LAYERS.index("union"), bank.slate[eligible[0]]
            own, best = np.unique(cluster[eligible], return_index=True)
            layers[own, k], slates[own, k] = POLICY_LAYERS.index("own"), bank.slate[eligible[best]]
    return slates, layers


def export_policies(
    bank: QTableBank, catalog: ItemCatalog, min_visits: int = 3,
    *, return_layers: bool = False,
):
    """Every cluster's 9-item recommendation, as an ``n_clusters × 9`` int64
    array: row ``c`` holds cluster ``c``'s greedy slate at each step, in step
    order, from one ranking of the bank's cells.

    Eligibility falls back in layers, :data:`POLICY_LAYERS`, so the policy
    is total: the cluster's own cells with at least ``min_visits`` visits,
    then the union of every cluster's qualifying cells for that step, then
    any stored cell at all.  Within a layer the highest q wins, and ties go
    to the lexicographically smallest slate.  A step with no stored cell
    reads 0 everywhere, as a dense zero table would, so it takes the
    smallest slate: the 3 smallest item ids at its location.  Raises
    :class:`TrainError` for such a step when the location holds fewer than
    3 items, and :class:`DataError` naming the first cluster and step whose
    slate breaks :func:`~qslate.ingest.slate_faults`' rule.  With
    ``return_layers``, also the ``n_clusters × 3`` array of each cluster's
    layer per step, as indices into :data:`POLICY_LAYERS`.
    """
    slates, layers = _greedy(bank, catalog, min_visits)
    zero = (layers == POLICY_LAYERS.index("zero")).any(axis=0)
    for step in np.asarray(STEPS)[zero].tolist():
        if len(catalog.by_location[step]) < 3:
            raise TrainError(f"no trained action exists for step {step}")
    policies = slates.reshape(bank.n_clusters, 3 * len(STEPS))
    check_policies(policies, catalog)
    return (policies, layers) if return_layers else policies


def check_policies(policies: np.ndarray, catalog: ItemCatalog) -> None:
    """Raise :class:`DataError` naming the first cluster and step whose slate
    in the ``n_clusters × 9`` int64 ``policies`` breaks
    :func:`~qslate.ingest.slate_faults`' rule."""
    faults = np.argwhere(slate_faults(policies, catalog))
    if len(faults):
        c, k = faults[0].tolist()
        slate = tuple(policies[c].reshape(len(STEPS), 3)[k].tolist())
        raise DataError(f"cluster {c}'s slate {slate} at step {STEPS[k]} holds an unknown "
                        "item, an item of another location or a repeated item")
