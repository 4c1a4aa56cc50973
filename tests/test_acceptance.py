"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they happen.  Criterion 7 measures a parallel speedup that requires
several physical cores; on smaller machines it reports the measured factor
and fails honestly rather than weakening the threshold.
"""

import contextlib
import json
import time

import numpy as np
import pytest

from oracles import (
    adjusted_rand_index,
    backward_ordered,
    expected_policy_score,
    naive_metric_score,
    oracle_score,
    q_value,
    toy_mdp,
    value_iteration,
)
from qslate.cli import main
from qslate.features import fit_sparse_pca
from qslate.ingest import SyntheticConfig, generate_synthetic, sessions_to_transitions
from qslate.metric import MetricConfig, holdout_split, score
from qslate.pipeline import PipelineParams, fit_pipeline, recommend_for_sessions
from qslate.qlearning import QTableBank, TrainConfig, export_policies, train
from test_clustering import three_blobs
from test_features import center_only, planted_sparse_data


@contextlib.contextmanager
def criterion(num: int, label: str):
    import conftest

    started = time.perf_counter()
    try:
        yield
    except BaseException:
        line = f"[FAIL] criterion {num}: {label} ({time.perf_counter() - started:.1f} s)"
        print(line)
        conftest.ACCEPTANCE_VERDICTS.append(line)
        raise
    line = f"[PASS] criterion {num}: {label} ({time.perf_counter() - started:.1f} s)"
    print(line)
    conftest.ACCEPTANCE_VERDICTS.append(line)


def test_criterion_1_bellman_fixpoint():
    with criterion(1, "Bellman fixpoint vs value-iteration oracle"):
        started = time.perf_counter()
        catalog, transitions, clusters, outcomes = toy_mdp(
            n_clusters=4, actions_per_step=10, repeats=5, seed=12
        )
        qstar = value_iteration(outcomes, gamma=0.9)

        ordered, order = backward_ordered(transitions)
        ordered_clusters = [clusters[j] for j in order]
        bank = QTableBank(4)
        train(bank, ordered, ordered_clusters,
              TrainConfig(alpha=1.0, gamma=0.9, epochs=1, deterministic=True))
        worst = max(abs(q_value(bank, c, s, a) - q) for (c, s, a), q in qstar.items())
        assert worst <= 1e-9, f"alpha=1 backward pass off by {worst}"

        bank_fwd = QTableBank(4)
        train(bank_fwd, transitions, clusters,
              TrainConfig(alpha=0.1, gamma=0.9, epochs=50, deterministic=True))
        worst_fwd = max(abs(q_value(bank_fwd, c, s, a) - q) for (c, s, a), q in qstar.items())
        assert worst_fwd <= 1e-4, f"alpha=0.1 x50 epochs off by {worst_fwd}"

        assert time.perf_counter() - started < 5.0


def test_criterion_2_metric_exactness():
    with criterion(2, "metric equals naive double-loop oracle exactly"):
        corpus = generate_synthetic(
            SyntheticConfig(num_items=30, num_users=150, num_sessions=1000, seed=91,
                            preference_scale=2.0, base_appeal=0.4)
        )
        weights = (1.0, 2.0, 3.0)
        arbitrary_policy = [s.exposed_slate for s in corpus.sessions[::-1]]
        report = score(arbitrary_policy, corpus.sessions, corpus.catalog, MetricConfig(weights))
        oracle_total, oracle_steps = naive_metric_score(
            arbitrary_policy, corpus.sessions, corpus.catalog, weights
        )
        assert report.score == oracle_total
        assert report.per_step_value == oracle_steps

        logged = [s.exposed_slate for s in corpus.sessions]
        logged_report = score(logged, corpus.sessions, corpus.catalog, MetricConfig(weights))
        transitions = sessions_to_transitions(corpus.sessions, corpus.catalog)
        revenue = sum(weights[step - 1] * reward for step, reward
                      in zip(transitions.step.tolist(), transitions.reward.tolist()))
        assert logged_report.score == revenue / len(corpus.sessions)


def test_criterion_3_sparse_recovery():
    with criterion(3, "planted sparse support recovery and monotone l1 sweep"):
        X, supports = planted_sparse_data(seed=123, p=391, k=4, nnz=10, n=800)
        comps = fit_sparse_pca(X, k=4, l1_penalty=0.25, seed=0, zscore_mask=center_only(391))
        matched = set()
        for j in range(4):
            recovered = set(np.flatnonzero(comps.loadings[j]).tolist())
            best = max(range(4), key=lambda t: len(recovered & set(supports[t].tolist())))
            overlap = len(recovered & set(supports[best].tolist())) / 10
            assert overlap >= 0.9, f"component {j} overlap {overlap}"
            matched.add(best)
        assert matched == {0, 1, 2, 3}

        fractions = []
        for lam in (0.0, 0.05, 0.1, 0.2, 0.35, 0.5, 0.7):
            sweep = fit_sparse_pca(X, k=4, l1_penalty=lam, seed=0, zscore_mask=center_only(391))
            fractions.append(float((sweep.loadings == 0.0).mean()))
        assert all(a <= b + 1e-12 for a, b in zip(fractions, fractions[1:])), fractions


def test_criterion_4_clustering_quality():
    with criterion(4, "kmeans blob recovery and dbscan planted partition"):
        from qslate.clustering import fit_dbscan, fit_kmeans

        Z, truth = three_blobs(seed=1, n_per=150, spread=0.1, sep=10.0)
        model = fit_kmeans(Z, k=3, seed=0)
        ari = adjusted_rand_index(truth.tolist(), model.labels_.tolist())
        assert ari >= 0.99, f"ARI {ari}"

        rng = np.random.default_rng(33)
        blob_a = rng.normal(size=(70, 2)) * 0.2
        blob_b = rng.normal(size=(70, 2)) * 0.2 + np.array([9.0, 0.0])
        noise = np.array([[50.0, 50.0], [-40.0, 10.0], [5.0, -45.0],
                          [60.0, -60.0], [-50.0, -50.0]])
        points = np.concatenate([blob_a, blob_b, noise])
        db = fit_dbscan(points, eps=1.0, min_pts=4)
        assert db.n_clusters == 2
        assert db.n_noise == 5
        assert (db.labels_[:70] == db.labels_[0]).all()
        assert (db.labels_[70:140] == db.labels_[70]).all()
        assert db.labels_[0] != db.labels_[70]
        assert (db.labels_[140:] == -1).all()


def test_criterion_5_parallel_correctness():
    with criterion(5, "parallel training matches serial training"):
        # Integer-exact fixture: deterministic per-cell outcomes, alpha = 1
        # (idempotent updates), dyadic gamma -> every update exact in floats.
        catalog, transitions, clusters, _ = toy_mdp(
            n_clusters=3, actions_per_step=6, repeats=4, seed=44
        )
        serial = QTableBank(3)
        train(serial, transitions, clusters,
              TrainConfig(alpha=1.0, gamma=0.5, epochs=4, deterministic=True))
        parallel = QTableBank(3)
        train(parallel, transitions, clusters,
              TrainConfig(alpha=1.0, gamma=0.5, epochs=4, threads=8))
        assert np.array_equal(export_policies(serial, catalog, 3),
                              export_policies(parallel, catalog, 3))

        # Float fixture: five 8-worker runs agree per cell within 1e-6.
        reference = QTableBank(3)
        train(reference, transitions, clusters,
              TrainConfig(alpha=0.3, gamma=0.9, epochs=60, deterministic=True))
        for _ in range(5):
            bank = QTableBank(3)
            train(bank, transitions, clusters,
                  TrainConfig(alpha=0.3, gamma=0.9, epochs=60, threads=8))
            tables = bank.tables
            for key, tab in reference.tables.items():
                for action, cell in tab.items():
                    assert abs(tables[key][action][0] - cell[0]) <= 1e-6

        # Process backend: cluster-sharded, therefore bit-identical even on
        # stochastic rewards.
        corpus = generate_synthetic(
            SyntheticConfig(num_items=18, num_users=80, num_sessions=1200, seed=52,
                            preference_scale=2.0, base_appeal=0.4)
        )
        stoch_trans = sessions_to_transitions(corpus.sessions, corpus.catalog)
        stoch_clusters = [corpus.truth.user_groups[s.user_id] for s in corpus.sessions]
        a = QTableBank(4)
        train(a, stoch_trans, stoch_clusters,
              TrainConfig(alpha=0.1, gamma=0.9, epochs=3, deterministic=True))
        b = QTableBank(4)
        train(b, stoch_trans, stoch_clusters,
              TrainConfig(alpha=0.1, gamma=0.9, epochs=3, threads=8, backend="process"))
        assert a.tables == b.tables


def test_criterion_6_end_to_end_lift():
    with criterion(6, "pipeline reaches >= 90% of enumerated optimum and beats the log"):
        started = time.perf_counter()
        weights = (1.0, 2.0, 3.0)
        corpus = generate_synthetic(
            SyntheticConfig(num_items=18, num_users=400, num_sessions=8000, seed=42,
                            preference_scale=3.0, price_range=(3, 5),
                            base_appeal=0.5, num_groups=4)
        )
        train_set, validation = holdout_split(corpus.sessions, 0.8, seed=0)
        params = PipelineParams(
            k_features=8, l1_penalty=0.1, cluster={"method": "kmeans", "k": 4},
            min_cluster_support=200, epochs=10, min_visits=20, gamma=0.95,
            seed=0, deterministic=True,
        )
        model, _ = fit_pipeline(train_set, corpus.catalog, params)
        recommendations = recommend_for_sessions(model, validation, corpus.catalog)

        pipeline_value = expected_policy_score(
            recommendations, validation, corpus.truth, corpus.catalog, weights
        )
        logged_value = expected_policy_score(
            [s.exposed_slate for s in validation], validation, corpus.truth,
            corpus.catalog, weights,
        )
        optimal_value = oracle_score(validation, corpus.truth, corpus.catalog, weights)
        ratio = pipeline_value / optimal_value
        print(f"  pipeline {pipeline_value:.2f} logged {logged_value:.2f} "
              f"optimal {optimal_value:.2f} ratio {ratio:.3f}")
        assert ratio >= 0.90, f"only {ratio:.3f} of the enumerated optimum"
        assert pipeline_value > logged_value
        assert time.perf_counter() - started < 120.0


def test_criterion_7_parallel_throughput():
    with criterion(7, "8-worker training is >= 3x faster than serial on 250k sessions"):
        corpus = generate_synthetic(
            SyntheticConfig(num_items=60, num_users=5000, num_sessions=250_000, seed=3,
                            preference_scale=2.0, price_range=(1, 20),
                            base_appeal=0.4, num_groups=8)
        )
        transitions = sessions_to_transitions(corpus.sessions, corpus.catalog)
        clusters = [corpus.truth.user_groups[s.user_id] for s in corpus.sessions]
        cfg = dict(alpha=0.1, gamma=0.9, epochs=16)

        serial_bank = QTableBank(8)
        t0 = time.perf_counter()
        train(serial_bank, transitions, clusters,
              TrainConfig(threads=1, deterministic=True, **cfg))
        serial_seconds = time.perf_counter() - t0

        parallel_bank = QTableBank(8)
        t0 = time.perf_counter()
        train(parallel_bank, transitions, clusters,
              TrainConfig(threads=8, backend="process", **cfg))
        parallel_seconds = time.perf_counter() - t0

        assert serial_bank.tables == parallel_bank.tables
        speedup = serial_seconds / parallel_seconds
        print(f"  serial {serial_seconds:.2f} s, 8-worker {parallel_seconds:.2f} s, "
              f"speedup {speedup:.2f}x on {len(transitions)} transitions")
        assert speedup >= 3.0, (
            f"measured {speedup:.2f}x; requires several physical cores "
            f"(this host exposes {__import__('os').cpu_count()})"
        )


def test_criterion_8_reproducibility(tmp_path):
    with criterion(8, "seeded generate/train/evaluate is byte-identical"):
        outputs = []
        for run_dir in (tmp_path / "run1", tmp_path / "run2"):
            data = run_dir / "data"
            models = run_dir / "models"
            reports = run_dir / "reports"
            assert main([
                "generate", "--items", "18", "--users", "120", "--sessions", "800",
                "--seed", "7", "--preference-scale", "3.0", "--price-min", "3",
                "--price-max", "5", "--out", str(data),
            ]) == 0
            assert main([
                "train", "--items", str(data / "items.txt"),
                "--sessions", str(data / "sessions.txt"), "--model-dir", str(models),
                "--k-features", "6", "--k", "4", "--min-support", "50",
                "--epochs", "5", "--seed", "7", "--deterministic",
            ]) == 0
            assert main([
                "evaluate", "--items", str(data / "items.txt"),
                "--sessions", str(data / "sessions.txt"), "--model-dir", str(models),
                "--report-dir", str(reports),
            ]) == 0
            outputs.append((data, models, reports))

        (data1, models1, reports1), (data2, models2, reports2) = outputs
        for name in ("items.txt", "sessions.txt", "ground_truth.jsonl"):
            assert (data1 / name).read_bytes() == (data2 / name).read_bytes(), name
        for name in ("components.json", "clusters.json", "qtables.json",
                     "manifest.json", "policy.txt"):
            assert (models1 / name).read_bytes() == (models2 / name).read_bytes(), name
        for name in ("score_report.txt", "score_report.jsonl"):
            assert (reports1 / name).read_bytes() == (reports2 / name).read_bytes(), name
