"""Per-cluster tabular Q-learning over 3-item action slates.

One sparse table per (cluster, step); an absent cell reads as 0, which makes
the sparse map equivalent to a dense all-zero-initialized table while the
step-wise action space (~9.2 million slates per location at catalog scale)
stays out of memory.  Each update applies

    Q(s,a) += alpha * (r + gamma * max(0, max_a' Q(s',a')) - Q(s,a))

where the inner max ranges over the stored next-step actions of the same
cluster and transitions into the terminal state use the target ``r`` alone.

A table's maximum is read only by the non-terminal transitions of the step
before in the same cluster.  A table that some transition reads is *read*;
every other table (every step-1 table among them) is a *leaf*.  The trainer,
``_train_serial``, runs in two phases, epoch by epoch:

1. the updates of read tables, in stream order, through one loop that keeps
   each table's running maximum incrementally (rescanning only when the
   maximal cell decreases) and records it after every update;
2. the leaf updates: a non-terminal leaf target reads the recorded maximum
   of the next step's table at its last update before the leaf update, and
   each leaf cell folds its targets in order, vectorised across cells.

A leaf table's updates read nothing that phase 2 lacks and are read by
nothing, so the two phases give the tables, bit for bit and in insertion
order, that one loop over every update in stream order gives.  ``train``
takes the columns of a transition table as one stream, which both of its
drivers read as it is:

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
import multiprocessing
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
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
        raise DataError(f"a slate holds exactly 3 items, got {len(slate)}")
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
        def build(payload: dict) -> "QTableBank":
            bank = cls(int(payload["n_clusters"]))
            for c_str, steps in payload["tables"].items():
                for s_str, cells in steps.items():
                    tab = bank.tables[bank._key(int(c_str), int(s_str))]
                    for slate_str, (q, visits) in cells.items():
                        slate = tuple(int(i) for i in slate_str.split("-"))
                        tab[slate] = [float(q), int(visits)]
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
    action: np.ndarray  # object: each transition's own slate tuple
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


class _LeafFold:
    """Phase 2: the updates of every table that no transition reads.

    A leaf item's target reads at most the next step's table, which is read
    and so trained in phase 1; phase 1 records that table's maximum after
    each of its updates.  What does not depend on those maxima (the cells,
    the fold order, the record each lookup lands on) is fixed here once, so
    an epoch costs one gather and one vector step per occurrence rank.
    """

    def __init__(self, tabs, stream: _Stream, is_read: np.ndarray, alpha: float, gamma: float):
        self.alpha, self.gamma = alpha, gamma
        n, tid = len(stream.tid), stream.tid
        leaf_at, inner_at = np.flatnonzero(~is_read), np.flatnonzero(is_read)
        leaves = stream.take(leaf_at)
        # Cells number table by table, each table's in first-appearance order.
        self.ids: list[dict[Slate, int]] = [{} for _ in tabs]
        local = np.fromiter(
            (self.ids[t].setdefault(a, len(self.ids[t]))
             for t, a in zip(leaves.tid.tolist(), leaves.action.tolist())),
            np.int64, len(leaf_at),
        )
        offset = np.cumsum([0] + [len(d) for d in self.ids])
        cell = offset[leaves.tid] + local
        n_cells = int(offset[-1])
        counts = np.bincount(cell, minlength=n_cells)
        self.counts = counts.tolist()
        # Label cells by falling count, so that the cells with a k-th
        # occurrence in an epoch are labels 0 .. widths[k]-1.
        self.label = np.empty(n_cells, np.int64)
        self.label[np.argsort(-counts, kind="stable")] = np.arange(n_cells)
        rank = np.empty(len(cell), np.int64)
        rank[np.argsort(cell, kind="stable")] = np.arange(len(cell)) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        self.widths = np.bincount(rank).tolist()
        fold = np.lexsort((self.label[cell], rank))

        reward = leaves.reward[fold]
        self.targets = reward  # terminal targets; the others are set each epoch
        self.nt_pos = np.flatnonzero(~leaves.terminal[fold])
        self.nt_reward = reward[self.nt_pos]
        nt_at = leaf_at[fold[self.nt_pos]]
        self.nt_read = tid[nt_at] + 1
        # Each lookup's record: the read table's last update before the item
        # in the same epoch, if it has one.
        inner_key = tid[inner_at] * n + inner_at
        perm = np.argsort(inner_key, kind="stable")
        before = np.searchsorted(inner_key[perm], self.nt_read * n + nt_at) - 1
        self.found = before >= 0
        self.found[self.found] = inner_key[perm[before[self.found]]] >= self.nt_read[self.found] * n
        self.src = perm[before[self.found]]

        self.q = np.zeros(n_cells)
        self.fresh = np.ones(n_cells, np.bool_)
        self.first = True
        for tab, ids, base in zip(tabs, self.ids, offset.tolist()):
            for a, k in ids.items():
                old = tab.get(a)
                if old is not None:
                    self.q[self.label[base + k]] = old[0]
                    self.fresh[self.label[base + k]] = False

    def epoch(self, start: list[float], seen: array) -> None:
        """Fold one epoch: ``start`` holds every table's maximum before the
        epoch, ``seen`` the maxima that phase 1 recorded during it."""
        alpha, q, t = self.alpha, self.q, self.targets
        if len(self.nt_pos):
            nm = np.array(start)[self.nt_read]
            nm[self.found] = np.asarray(seen)[self.src]
            t[self.nt_pos] = np.where(nm > 0.0, self.nt_reward + self.gamma * nm, self.nt_reward)
        lo = 0
        for w in self.widths:
            qw, tw = q[:w], t[lo : lo + w]
            if self.first:
                # A new cell's first update is alpha * target, which keeps -0.0.
                qw[:] = np.where(self.fresh, alpha * tw, qw + alpha * (tw - qw))
                self.first = False
            else:
                qw += alpha * (tw - qw)
            lo += w

    def store(self, tabs, epochs: int) -> None:
        """Write the folded cells back; new cells go in first-appearance order."""
        q = self.q[self.label].tolist()
        k = 0
        for tab, ids in zip(tabs, self.ids):
            for a in ids:
                old = tab.get(a)
                tab[a] = [q[k], self.counts[k] * epochs + (old[1] if old is not None else 0)]
                k += 1


def _train_serial(tables, stream: _Stream, alpha: float, gamma: float, epochs: int):
    """Apply ``epochs`` passes over ``stream`` to ``tables``, in two phases,
    and return ``tables``: all of a bank's, or one cluster's in a pool job.

    Phase 1 runs every update of the tables that some transition reads, in
    stream order, keeping each table's running maximum and recording it after
    every update; phase 2 folds every other cell from those records.
    """
    base = min(c for c, _ in tables)  # ids count from the lowest cluster
    n_ids = _WIDTH * (1 + max(c for c, _ in tables) - base)
    tabs = [tables.get((base + t // _WIDTH, t % _WIDTH)) for t in range(n_ids)]
    stream = replace(stream, tid=stream.tid - _WIDTH * base)
    read = np.zeros(n_ids, np.bool_)
    read[stream.tid[~stream.terminal] + 1] = True
    is_read = read[stream.tid]
    leaves = _LeafFold(tabs, stream, is_read, alpha, gamma)
    inner = stream.take(is_read)
    columns = [col.tolist() for col in (inner.tid, inner.action, inner.reward, inner.terminal)]
    tmax = [max((cell[0] for cell in tab.values()), default=0.0) if tab else 0.0 for tab in tabs]
    for _ in range(epochs):
        start = tmax.copy()
        seen = array("d")
        record = seen.append
        for tid, action, reward, terminal in zip(*columns):
            if terminal:
                target = reward
            else:
                nm = tmax[tid + 1]
                target = reward + gamma * nm if nm > 0.0 else reward
            tab = tabs[tid]
            cell = tab.get(action)
            if cell is None:
                q_old = 0.0
                q_new = alpha * target
                tab[action] = [q_new, 1]
            else:
                q_old = cell[0]
                q_new = q_old + alpha * (target - q_old)
                cell[0] = q_new
                cell[1] += 1
            cur = tmax[tid]
            if q_new >= cur:
                cur = tmax[tid] = q_new
            elif q_old >= cur:
                cur = tmax[tid] = max(c[0] for c in tab.values())
            record(cur)
        leaves.epoch(start, seen)
    leaves.store(tabs, epochs)
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
    Each cluster is one job, largest stream volume first, for
    ``cfg.threads`` worker processes, but no more than the stream has
    clusters; a job applies its cluster's updates in input order, and the
    cyclic GC is paused while the pool runs.  With ``deterministic`` set,
    or when that leaves one worker, updates apply in input order in this
    process: a pool would only add a fork and a pickle round trip.
    Clusters never share a cell, so both drivers produce bit-identical
    tables.
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
    Raises :class:`TrainError` only when no action was ever trained for a
    step.
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
            raise TrainError(f"no trained action exists for step {step}")
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
