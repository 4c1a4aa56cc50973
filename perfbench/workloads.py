"""The benchmark's seeded workloads: set-up, one timed operation, output checks.

Each workload generates its inputs from a corpus seed with qslate's own
synthetic generator, so the program only ever sees generated files or
records.  ``run`` is the timed operation and calls qslate through module
attributes, which is where the tracer's wrappers sit.  ``check`` runs after
the timer stops and records every output check in the tally.

Why these three workloads, and which layer each one stresses, is written up
in README.md next to this file.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import pickle
import tracemalloc
from dataclasses import dataclass, field, fields
from pathlib import Path

from qslate import cli, ingest, metric, pipeline, qlearning
from qslate.ingest import STEPS, SessionRecord, SyntheticConfig

SLATE = 3 * len(STEPS)


@dataclass
class Tally:
    """Operations attempted and failed; a failed output check counts too."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


def distinct_state_ratio(records) -> float:
    """Distinct (clicks, portraits) user states per session row."""
    return len({(r.clicked_items, r.portraits) for r in records}) / len(records)


def slates_valid(recs, catalog) -> bool:
    """Every recommendation holds 9 catalog items, 3 per step's location."""
    for rec in recs:
        if len(rec) != SLATE:
            return False
        for pos, item in enumerate(rec):
            if item not in catalog or catalog.location(item) != pos // 3 + 1:
                return False
    return True


@dataclass
class Corpus:
    seed: int
    sessions: int
    distinct_ratio: float
    data: dict


class _CorpusPickler(pickle.Pickler):
    """Pickles session records as constructor calls.

    By default a dataclass instance is pickled with its ``__dict__``, and the
    unpickler keeps every such dict in its memo until the load ends: about
    14 MiB on train-stream's 60,000 sessions, which the program's own
    memory would then reuse unseen in `peak_rss_mb`.
    """

    def reducer_override(self, obj):
        if type(obj) is SessionRecord:
            return SessionRecord, tuple(getattr(obj, f.name) for f in fields(SessionRecord))
        return NotImplemented


def _dump_corpus(workload, seed: int, work: Path, path: Path) -> None:
    gc.disable()  # a short-lived child; collections would only add noise to set-up
    corpus = workload.setup(seed, work)
    with path.open("wb") as out:
        _CorpusPickler(out, protocol=pickle.HIGHEST_PROTOCOL).dump(corpus)


def build_corpus(workload, seed: int, work: Path):
    """Set one corpus up in a child process and load it into this one.

    The generator's temporaries then never count in this process's peak
    resident set, which holds only the corpus and the program's own memory,
    as a user's process would.
    """
    path = work / f"corpus-{seed}.pickle"
    # fork, not spawn, which would add an interpreter start and every import
    # to each set-up; the fork happens between operations, when no BLAS call
    # is running.
    child = multiprocessing.get_context("fork").Process(
        target=_dump_corpus, args=(workload, seed, work, path)
    )
    child.start()
    child.join()
    if child.exitcode != 0:
        raise RuntimeError(f"set-up of corpus {seed} exited with {child.exitcode}")
    # The load makes no cyclic garbage, so collections during it would only
    # rescan the objects it has built so far.
    gc.disable()
    try:
        with path.open("rb") as src:
            corpus = pickle.load(src)
    finally:
        gc.enable()
    path.unlink()
    return corpus


class FitRepeatUsers:
    """README-shaped corpus, ~50 session rows per user: `train` then `evaluate`."""

    name = "fit-repeat-users"
    items, users, sessions = 381, 100, 5000
    train_fraction = 0.8

    def setup(self, seed: int, work: Path) -> Corpus:
        corpus = ingest.generate_synthetic(
            SyntheticConfig(
                num_items=self.items, num_users=self.users, num_sessions=self.sessions, seed=seed
            )
        )
        root = work / f"corpus-{seed}"
        root.mkdir(parents=True)
        (root / "items.txt").write_text(ingest.serialize_items(corpus.catalog))
        (root / "sessions.txt").write_text(ingest.serialize_sessions(corpus.sessions))
        # The split `train` and `evaluate` make with their defaults, kept for
        # the checks so that they need not parse the files again.
        _, validation = metric.holdout_split(corpus.sessions, self.train_fraction, seed)
        return Corpus(
            seed,
            self.sessions,
            distinct_state_ratio(corpus.sessions),
            {"root": root, "catalog": corpus.catalog, "validation": validation},
        )

    def run(self, c: Corpus):
        root = c.data["root"]
        files = ["--items", str(root / "items.txt"), "--sessions", str(root / "sessions.txt"),
                 "--model-dir", str(root / "model")]
        train_rc = cli.main(["train", *files, "--cluster", "kmeans", "--k", "8",
                             "--seed", str(c.seed), "--deterministic"])
        evaluate_rc = cli.main(["evaluate", *files, "--report-dir", str(root / "report")])
        return train_rc, evaluate_rc

    def check(self, c: Corpus, out, tally: Tally) -> float | None:
        train_rc, evaluate_rc = out
        tally.record(train_rc == 0, f"train exited {train_rc}")
        if not tally.record(evaluate_rc == 0, f"evaluate exited {evaluate_rc}"):
            return None
        root = c.data["root"]
        catalog, validation = c.data["catalog"], c.data["validation"]
        manifest = json.loads((root / "model" / cli.MANIFEST_FILE).read_text())
        same_split = manifest["train_fraction"] == self.train_fraction and manifest["seed"] == c.seed
        if not tally.record(same_split, f"manifest split {manifest['train_fraction']}, "
                            f"seed {manifest['seed']}"):
            return None
        model, _ = pipeline.load_models(root / "model", int(manifest["params"]["min_visits"]))
        recs = pipeline.recommend_for_sessions(model, validation, catalog)
        tally.record(slates_valid(recs, catalog), "recommendation not 9 location-valid items")
        reports = [json.loads(line) for line in (root / "report" / "score_report.jsonl").open()]
        learned = next(r for r in reports if r["policy"] == "learned")["score"]
        recomputed = metric.score(recs, validation, catalog).score
        tally.record(learned == recomputed, f"evaluate scored {learned}, recomputed {recomputed}")
        return learned


def parse_heap_mb(corpus: Corpus) -> float:
    """Peak Python heap of parsing the corpus's session file; 0 without files.

    Measured with tracemalloc on a separate, untimed parse, because the
    allocator reuses memory freed by earlier operations, so the resident
    set barely moves during a parse in a warm process.
    """
    root = corpus.data.get("root")
    if root is None:
        return 0.0
    catalog = ingest.parse_items((root / "items.txt").read_text())
    text = (root / "sessions.txt").read_text()
    tracemalloc.start()
    try:
        ingest.parse_sessions(text, catalog)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


class TuneUniqueUsers:
    """Nearly every session its own user: an 8-cell `tune` grid with DBSCAN."""

    name = "tune-unique-users"
    items, sessions = 381, 2000
    users = 4 * sessions
    # eps 2.0 rather than the CLI default 0.5: in this corpus's reduced space
    # every point is DBSCAN noise at eps 0.5 with 16 features, which would
    # make half the grid fail.
    grid = {
        "k_features": [8, 16],
        "cluster": [
            {"method": "kmeans", "k": 8},
            {"method": "dbscan", "eps": 2.0, "min_pts": 5},
        ],
        "min_visits": [3, 30],
    }

    def setup(self, seed: int, work: Path) -> Corpus:
        # base_appeal 0.4, as in the criterion-7 corpus: with the default 0
        # some seeds leave no training session that reaches step 3, and then
        # every cell fails for want of a step-3 action.
        corpus = ingest.generate_synthetic(
            SyntheticConfig(
                num_items=self.items, num_users=self.users, num_sessions=self.sessions,
                seed=seed, base_appeal=0.4,
            )
        )
        return Corpus(
            seed,
            self.sessions,
            distinct_state_ratio(corpus.sessions),
            {"sessions": corpus.sessions, "catalog": corpus.catalog},
        )

    def run(self, c: Corpus):
        return metric.tune(
            self.grid,
            c.data["sessions"],
            c.data["catalog"],
            seed=c.seed,
            base_params=pipeline.PipelineParams(seed=c.seed, deterministic=True),
        )

    def check(self, c: Corpus, result, tally: Tally) -> float | None:
        for cell in result.cells:
            tally.record(cell.error is None, f"tune cell {cell.index} failed: {cell.error}")
        best = result.best
        ok = best.report is not None and best.error is None
        tally.record(ok, f"best tune cell {best.index} did not succeed")
        return best.report.score if ok else None


class TrainStream:
    """Criterion-7-shaped corpus on ground-truth clusters: serial and process training."""

    name = "train-stream"
    items, users, sessions, groups, epochs = 60, 1200, 60_000, 8, 16

    def __init__(self, workers: int) -> None:
        self.workers = workers

    def setup(self, seed: int, work: Path) -> Corpus:
        # base_appeal 0 rather than criterion 7's 0.4, whose transition count
        # swings by ~10% from seed to seed and would read as a speed change.
        corpus = ingest.generate_synthetic(
            SyntheticConfig(
                num_items=self.items, num_users=self.users, num_sessions=self.sessions,
                seed=seed, preference_scale=2.0, price_range=(1, 20), base_appeal=0.0,
                num_groups=self.groups,
            )
        )
        train, validation = metric.holdout_split(corpus.sessions, 0.8, seed)
        group = corpus.truth.user_groups
        return Corpus(
            seed,
            len(train),
            distinct_state_ratio(train),
            {
                "train": train,
                "train_clusters": [group[s.user_id] for s in train],
                "validation": validation,
                "validation_clusters": [group[s.user_id] for s in validation],
                "catalog": corpus.catalog,
            },
        )

    def run(self, c: Corpus):
        catalog = c.data["catalog"]
        transitions = ingest.sessions_to_transitions(c.data["train"], catalog)
        serial = qlearning.QTableBank(self.groups)
        qlearning.train(serial, transitions, c.data["train_clusters"],
                        qlearning.TrainConfig(epochs=self.epochs, threads=1, deterministic=True))
        parallel = qlearning.QTableBank(self.groups)
        qlearning.train(parallel, transitions, c.data["train_clusters"],
                        qlearning.TrainConfig(epochs=self.epochs, threads=self.workers,
                                              backend="process"))
        policies = qlearning.export_policies(parallel, catalog)
        return len(transitions), serial, parallel, policies

    def check(self, c: Corpus, out, tally: Tally) -> float | None:
        n_transitions, serial, parallel, policies = out
        tally.record(serial.tables == parallel.tables, "serial and process banks differ")
        visits = sum(v for _, _, _, _, v in serial.cells())
        tally.record(visits == n_transitions * self.epochs,
                     f"{visits} q-updates, expected {n_transitions} x {self.epochs}")
        catalog = c.data["catalog"]
        recs = [policies[g] for g in c.data["validation_clusters"]]
        if not tally.record(slates_valid(recs, catalog), "policy not 9 location-valid items"):
            return None
        return metric.score(recs, c.data["validation"], catalog).score


def make(name: str, workers: int):
    if name == TrainStream.name:
        return TrainStream(workers)
    return {w.name: w for w in (FitRepeatUsers, TuneUniqueUsers)}[name]()


NAMES = (FitRepeatUsers.name, TuneUniqueUsers.name, TrainStream.name)
