"""Span tracing of qslate's layers from outside the package.

The tracer replaces each public function of a layer module with a wrapper on
every qslate module attribute that refers to it, so calls between layers
(``qslate.cli.parse_sessions``, ``qslate.pipeline.fit_sparse_pca``, ...) go
through the wrapper.  A few methods that carry a layer's work on model
objects are wrapped on their classes.  Nothing under ``src/`` is edited, and
``uninstall`` puts every original object back.

Spans are kept in memory with the id of their parent span, so a layer's
self time is its spans' durations minus the durations of their children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

#: The layers, one per qslate module.
LAYERS = ("ingest", "features", "clustering", "qlearning", "pipeline", "metric", "cli")

#: Methods wrapped on their classes, as (layer, class, method).
METHODS = (
    ("features", "SparseComponents", "save"),
    ("features", "SparseComponents", "load"),
    ("clustering", "KMeansModel", "assign_many"),
    ("clustering", "DbscanModel", "assign_many"),
    ("qlearning", "QTableBank", "save"),
    ("qlearning", "QTableBank", "load"),
)

def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _train_counts(args, kwargs, result) -> dict:
    transitions = _arg(args, kwargs, 1, "transitions")
    cfg = _arg(args, kwargs, 3, "cfg")
    parallel = not (cfg.deterministic or cfg.threads == 1)
    return {
        "q_updates": len(transitions) * cfg.epochs,
        "table_cells": result.n_cells(),
        "parallel": float(parallel),
        "workers": float(cfg.threads if parallel else 1),
    }


def _merge_counts(args, kwargs, result) -> dict:
    counts = _arg(args, kwargs, 1, "counts")
    return {"clusters_before": len(counts), "clusters_after": result[0].n_clusters}


def _dbscan_counts(args, kwargs, result) -> dict:
    n = len(_arg(args, kwargs, 0, "Z"))
    return {"noise_share": result.n_noise / n if n else 0.0}


#: Counts read from a call's arguments and result once its span has ended.
COUNTS: dict[str, Callable] = {
    "ingest.sessions_to_transitions": lambda a, k, r: {"transitions": len(r)},
    "features.build_raw_features": lambda a, k, r: {"raw_matrix_mb": r.values.nbytes / 2**20},
    "clustering.fit_kmeans": lambda a, k, r: {"kmeans_iterations": len(r.inertia_history)},
    "clustering.fit_dbscan": _dbscan_counts,
    "clustering.merge_small_clusters": _merge_counts,
    "qlearning.train": _train_counts,
    "pipeline.save_models": lambda a, k, r: {"model_bytes": _dir_bytes(_arg(a, k, 1, "model_dir"))},
    "metric.tune": lambda a, k, r: {"cells": len(r.cells)},
}


@dataclass
class Span:
    id: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps qslate's layer functions and records spans while ``recording``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.recording = False
        self._stack: list[Span] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"qslate.{layer}") for layer in LAYERS}
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(layer, f"{layer}.{attr}", fn)
                for holder in modules.values():
                    if vars(holder).get(attr) is fn:
                        self._patch(holder, attr, wrapped)
        for layer, cls_name, method in METHODS:
            cls = getattr(modules[layer], cls_name)
            raw = vars(cls)[method]
            name = f"{layer}.{cls_name}.{method}"
            if isinstance(raw, classmethod):
                self._patch(cls, method, classmethod(self._wrap(layer, name, raw.__func__)))
            else:
                self._patch(cls, method, self._wrap(layer, name, raw))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans

    def _patch(self, holder, attr: str, value) -> None:
        self._restore.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, value)

    def _wrap(self, layer: str, name: str, fn):
        counts_of = COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            parent = self._stack[-1].id if self._stack else None
            span = Span(self._next_id, parent, layer, name, 0.0)
            self._next_id += 1
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self.spans.append(span)
            if counts_of is not None:
                span.counts.update(counts_of(args, kwargs, result))
            return result

        return wrapper


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the durations of its direct children."""
    own = {s.id: s.seconds for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.seconds
    return own


def outermost(spans: list[Span], names: set[str]) -> list[Span]:
    """Spans named in ``names`` that have no ancestor named in ``names``."""
    by_id = {s.id: s for s in spans}
    out = []
    for s in spans:
        if s.name not in names:
            continue
        up = by_id.get(s.parent)
        while up is not None and up.name not in names:
            up = by_id.get(up.parent)
        if up is None:
            out.append(s)
    return out


def layer_times(spans: list[Span]) -> dict[str, float]:
    """``<layer>.self_s`` and ``<layer>.inclusive_s`` for every layer."""
    own = self_seconds(spans)
    out = {}
    for layer in LAYERS:
        names = {s.name for s in spans if s.layer == layer}
        out[f"{layer}.self_s"] = sum(own[s.id] for s in spans if s.layer == layer)
        out[f"{layer}.inclusive_s"] = sum(s.seconds for s in outermost(spans, names))
    return out


#: Per-layer time metrics: summed duration of the outermost spans named.
TIMED = {
    "ingest.parse_sessions_s": ("ingest.parse_sessions",),
    "ingest.sessions_to_transitions_s": ("ingest.sessions_to_transitions",),
    "features.build_raw_features_s": ("features.build_raw_features",),
    "features.fit_sparse_pca_s": ("features.fit_sparse_pca",),
    "features.transform_s": ("features.transform",),
    "clustering.fit_s": ("clustering.fit_kmeans", "clustering.fit_dbscan"),
    "clustering.merge_s": ("clustering.merge_small_clusters",),
    "clustering.assign_many_s": (
        "clustering.KMeansModel.assign_many",
        "clustering.DbscanModel.assign_many",
    ),
    "qlearning.export_policies_s": ("qlearning.export_policies",),
    "pipeline.fit_pipeline_s": ("pipeline.fit_pipeline",),
    "pipeline.recommend_for_sessions_s": ("pipeline.recommend_for_sessions",),
    "pipeline.save_models_s": ("pipeline.save_models",),
    "pipeline.load_models_s": ("pipeline.load_models",),
    "metric.holdout_split_s": ("metric.holdout_split",),
    "metric.score_s": ("metric.score",),
    "metric.tune_s": ("metric.tune",),
    "cli.train_cmd_s": ("cli.cmd_train",),
    "cli.evaluate_cmd_s": ("cli.cmd_evaluate",),
}


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def op_metrics(spans: list[Span]) -> dict[str, float]:
    """Every per-layer metric of one traced operation; 0 where a layer idled."""
    out = layer_times(spans)
    for metric, names in TIMED.items():
        out[metric] = sum(s.seconds for s in outermost(spans, set(names)))

    def named(name: str) -> list[Span]:
        return [s for s in spans if s.name == name]

    def counts(name: str, key: str) -> list[float]:
        return [s.counts[key] for s in named(name) if key in s.counts]

    own = self_seconds(spans)
    out["ingest.transitions"] = sum(counts("ingest.sessions_to_transitions", "transitions"))
    out["features.fit_sparse_pca_calls"] = len(named("features.fit_sparse_pca"))
    out["features.raw_matrix_mb"] = max(
        counts("features.build_raw_features", "raw_matrix_mb"), default=0.0
    )
    out["clustering.clusters_before_merge"] = _mean(
        counts("clustering.merge_small_clusters", "clusters_before")
    )
    out["clustering.clusters_after_merge"] = _mean(
        counts("clustering.merge_small_clusters", "clusters_after")
    )
    out["clustering.noise_share"] = _mean(counts("clustering.fit_dbscan", "noise_share"))
    out["clustering.kmeans_iterations"] = _mean(counts("clustering.fit_kmeans", "kmeans_iterations"))

    trains = named("qlearning.train")
    serial = [s for s in trains if not s.counts.get("parallel")]
    parallel = [s for s in trains if s.counts.get("parallel")]
    serial_s = sum(s.seconds for s in serial)
    parallel_s = sum(s.seconds for s in parallel)
    serial_updates = sum(s.counts["q_updates"] for s in serial)
    parallel_updates = sum(s.counts["q_updates"] for s in parallel)
    workers = max((s.counts["workers"] for s in parallel), default=0.0)
    out["qlearning.train_serial_s"] = serial_s
    out["qlearning.train_parallel_s"] = parallel_s
    out["qlearning.q_updates"] = serial_updates + parallel_updates
    out["qlearning.serial_updates_per_s"] = _ratio(serial_updates, serial_s)
    out["qlearning.parallel_updates_per_s"] = _ratio(parallel_updates, parallel_s)
    out["qlearning.parallel_efficiency"] = (
        _ratio(serial_s / len(serial), workers * parallel_s / len(parallel))
        if serial and parallel
        else 0.0
    )
    out["qlearning.table_cells"] = _mean([s.counts["table_cells"] for s in trains])

    out["pipeline.fit_pipeline_calls"] = len(named("pipeline.fit_pipeline"))
    out["pipeline.model_bytes"] = max(counts("pipeline.save_models", "model_bytes"), default=0)
    tunes = named("metric.tune")
    out["metric.tune_cell_s"] = _ratio(
        sum(s.seconds for s in tunes), sum(s.counts.get("cells", 0) for s in tunes)
    )
    out["cli.train_self_s"] = sum(own[s.id] for s in named("cli.cmd_train"))
    out["cli.evaluate_self_s"] = sum(own[s.id] for s in named("cli.cmd_evaluate"))
    return out
