"""Per-cluster tabular Q-learning over 3-item action slates.

One sparse table per (cluster, step); an absent cell reads as 0, which makes
the sparse map equivalent to a dense all-zero-initialized table while the
step-wise action space (~9.2 million slates per location at catalog scale)
stays out of memory.  Each update applies

    Q(s,a) += alpha * (r + gamma * max(0, max_a' Q(s',a')) - Q(s,a))

where the inner max ranges over the stored next-step actions of the same
cluster and transitions into the terminal state use the target ``r`` alone.

One update loop, ``_train_serial``, has two drivers:

* in process, in input order (used when ``deterministic``, or when the
  threads or the stream's clusters number one);
* a process pool sharded by cluster.  Clusters never share cells, so each
  worker runs the same loop over its clusters' transitions in input order
  and the merged result is bit-identical to a serial run.

Each table's running maximum is maintained incrementally (rescanning only
when the maximal cell decreases); a full scan per update would make training
quadratic in table size.
"""

from __future__ import annotations

import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError, TrainError, read_model_file, write_model_file
from .ingest import STEPS, ItemCatalog, Transition

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

# A prepared stream item: (cluster_id, step, slate, reward, terminal).
_StreamItem = tuple[int, int, Slate, float, bool]


def _prepare_stream(
    bank: QTableBank, transitions: list[Transition], session_clusters
) -> list[_StreamItem]:
    stream: list[_StreamItem] = []
    for t in transitions:
        try:
            cid = int(session_clusters[t.session_ref])
        except (KeyError, IndexError):
            raise TrainError(f"no cluster assignment for session {t.session_ref}") from None
        if not 0 <= cid < bank.n_clusters:
            raise TrainError(f"transition references unknown cluster {cid}")
        if not math.isfinite(t.reward):
            raise TrainError(f"non-finite reward in session {t.session_ref}")
        stream.append((cid, t.step, t.action, t.reward, t.next_step is None))
    return stream


def _init_maxes(tables) -> dict[tuple[int, int], float]:
    return {
        key: (max(cell[0] for cell in tab.values()) if tab else 0.0)
        for key, tab in tables.items()
    }


def _train_serial(tables, stream, alpha: float, gamma: float, epochs: int) -> None:
    tmax = _init_maxes(tables)
    for _ in range(epochs):
        for cid, step, action, reward, terminal in stream:
            if terminal:
                target = reward
            else:
                nm = tmax[(cid, step + 1)]
                target = reward + gamma * nm if nm > 0.0 else reward
            key = (cid, step)
            tab = tables[key]
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
            cur = tmax[key]
            if q_new >= cur:
                tmax[key] = q_new
            elif q_old >= cur:
                tmax[key] = max(c[0] for c in tab.values())


def _process_worker(args):
    tables, packed, alpha, gamma, epochs = args
    cids, steps, a1, a2, a3, rewards, terminals = (col.tolist() for col in packed)
    stream = list(zip(cids, steps, zip(a1, a2, a3), rewards, terminals))
    _train_serial(tables, stream, alpha, gamma, epochs)
    return tables


def _train_processes(bank, stream, alpha, gamma, epochs, workers) -> None:
    # Shard whole clusters across workers, largest stream volume first.
    volumes: dict[int, int] = {}
    for item in stream:
        volumes[item[0]] = volumes.get(item[0], 0) + 1
    order = sorted(volumes, key=lambda c: (-volumes[c], c))
    bins: list[list[int]] = [[] for _ in range(workers)]
    load = [0] * workers
    for cid in order:
        slot = min(range(workers), key=lambda i: (load[i], i))
        bins[slot].append(cid)
        load[slot] += volumes[cid]

    cid_of = np.fromiter((it[0] for it in stream), np.int64, len(stream))
    step_of = np.fromiter((it[1] for it in stream), np.int64, len(stream))
    a_of = np.array([it[2] for it in stream], dtype=np.int64).reshape(len(stream), 3)
    r_of = np.fromiter((it[3] for it in stream), np.float64, len(stream))
    t_of = np.fromiter((it[4] for it in stream), np.bool_, len(stream))

    jobs = []
    for members in bins:
        mask = np.isin(cid_of, np.asarray(members, dtype=np.int64))
        # Tables pickle with their tuple keys; arrays pickle as raw buffers
        # and workers expand them to lists locally.
        tables = {(cid, s): bank.tables[(cid, s)] for cid in members for s in STEPS}
        packed = (
            cid_of[mask],
            step_of[mask],
            a_of[mask, 0],
            a_of[mask, 1],
            a_of[mask, 2],
            r_of[mask],
            t_of[mask],
        )
        jobs.append((tables, packed, alpha, gamma, epochs))

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:
        ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        for tables in pool.map(_process_worker, jobs):
            bank.tables.update(tables)


def train(
    bank: QTableBank,
    transitions: list[Transition],
    session_clusters,
    cfg: TrainConfig,
) -> QTableBank:
    """Run ``cfg.epochs`` update passes over the transition stream.

    ``session_clusters`` maps ``Transition.session_ref`` to a cluster id
    (any indexable: list, array, or dict).  Whole clusters are sharded across
    ``cfg.threads`` worker processes, but no more than the stream has
    clusters, each applying its clusters' updates in input order.  With
    ``deterministic`` set, or when that leaves one worker, updates apply in
    input order in this process: a pool would only add a fork and a pickle
    round trip.  Clusters never share a cell, so both drivers produce
    bit-identical tables.
    """
    cfg.validate()
    stream = _prepare_stream(bank, transitions, session_clusters)
    if not stream:
        return bank
    workers = 1 if cfg.deterministic else min(cfg.threads, len({item[0] for item in stream}))
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
