from dataclasses import replace

import numpy as np
import pytest

from qslate.errors import FitError, ModelFileError
from qslate.ingest import (
    SessionTable,
    SyntheticConfig,
    generate_synthetic,
    sessions_to_transitions,
)
from qslate.features import build_raw_features, transform
from qslate.pipeline import (
    PipelineParams,
    fit_pipeline,
    load_models,
    recommend_for_sessions,
    save_models,
)
from qslate.qlearning import export_policies


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic(
        SyntheticConfig(num_items=18, num_users=150, num_sessions=2000, seed=81,
                        preference_scale=3.0, price_range=(3, 5), base_appeal=0.5)
    )


def fit(corpus, **overrides):
    params = replace(PipelineParams(
        k_features=6, l1_penalty=0.1, cluster={"method": "kmeans", "k": 4},
        min_cluster_support=100, epochs=5, seed=2, deterministic=True,
    ), **overrides)
    return fit_pipeline(corpus.sessions, corpus.catalog, params)


def test_stats_report_every_stage(corpus):
    model, stats = fit(corpus)
    stages = [name for name, _ in stats.timings]
    assert stages == ["build_features", "fit_sparse_pca", "transform",
                      "fit_clusters", "assign", "transitions", "merge", "train"]
    assert stats.n_transitions > 2000  # every session emits step 1 at least
    assert stats.to_dict()["table_cells"] == stats.bank.n_cells() > 0
    assert np.array_equal(model.policies, export_policies(stats.bank, corpus.catalog, 3))
    assert len(stats.cluster_sizes) == stats.n_clusters


def test_merged_clusters_respect_support(corpus):
    model, stats = fit(corpus, cluster={"method": "kmeans", "k": 10},
                       min_cluster_support=400)
    transitions = sessions_to_transitions(corpus.sessions, corpus.catalog)
    raw = build_raw_features(corpus.sessions, corpus.catalog)
    assigned = model.cluster_model.assign_many(transform(raw, model.components))[raw.rows]
    counts = np.bincount(assigned[transitions.session_ref], minlength=stats.n_clusters)
    assert stats.n_clusters < 10 or (counts >= 400).all()
    if stats.n_clusters > 1:
        assert (counts >= 400).all()


def test_merge_stage_counts_transitions(corpus):
    model, stats = fit(corpus, min_cluster_support=1)
    assert stats.n_clusters == stats.n_clusters_before_merge == 4
    transitions = sessions_to_transitions(corpus.sessions, corpus.catalog)
    raw = build_raw_features(corpus.sessions, corpus.catalog)
    assigned = model.cluster_model.assign_many(transform(raw, model.components))[raw.rows]
    counts = np.bincount(assigned[transitions.session_ref], minlength=4)
    # Every cluster has fewer sessions than transitions, so a support of the
    # smallest transition count merges nothing only if transitions are counted.
    assert (np.array(stats.cluster_sizes) < counts).all()
    _, kept = fit(corpus, min_cluster_support=int(counts.min()))
    assert kept.n_clusters == 4
    _, merged = fit(corpus, min_cluster_support=int(counts.min()) + 1)
    assert merged.n_clusters < 4


def test_recommendations_align_with_sessions(corpus):
    model, _ = fit(corpus)
    recs = recommend_for_sessions(model, corpus.sessions.take(np.arange(25)), corpus.catalog)
    assert recs.shape == (25, 9) and recs.dtype == np.int64
    for rec in recs:
        assert [corpus.catalog.location(i) for i in rec] == [1, 1, 1, 2, 2, 2, 3, 3, 3]


@pytest.mark.parametrize("cluster", [
    {"method": "kmeans", "k": 4},
    {"method": "dbscan", "eps": 2.0, "min_pts": 10},
])
def test_recommendations_equal_per_session_pipeline(corpus, cluster):
    model, stats = fit(corpus, cluster=cluster, min_cluster_support=1)
    sessions = corpus.sessions.take(np.arange(400))
    assert sum(stats.cluster_sizes) == len(corpus.sessions)
    policies = export_policies(stats.bank, corpus.catalog, model.min_visits)
    expected = []
    for s in sessions:
        raw = build_raw_features(SessionTable.from_records([s]), corpus.catalog)
        z = transform(raw, model.components)
        expected.append(policies[model.cluster_model.assign_many(z)[0]])
    assert np.array_equal(recommend_for_sessions(model, sessions, corpus.catalog), expected)


def test_dbscan_variant_fits(corpus):
    model, stats = fit(corpus, cluster={"method": "dbscan", "eps": 2.0, "min_pts": 10},
                       min_cluster_support=1)
    assert stats.n_clusters >= 1
    recs = recommend_for_sessions(model, corpus.sessions.take(np.arange(5)), corpus.catalog)
    assert len(recs) == 5


def test_infeasible_k_features_propagates(corpus):
    with pytest.raises(FitError, match="out of range"):
        fit(corpus, k_features=10_000)


def test_save_load_round_trip(tmp_path, corpus):
    model, stats = fit(corpus)
    save_models(model, tmp_path, "deadbeef", stats.bank)
    loaded, stamp = load_models(tmp_path, min_visits=model.min_visits)
    assert stamp == "deadbeef"
    assert np.array_equal(loaded.policies, model.policies)
    before = recommend_for_sessions(model, corpus.sessions.take(np.arange(10)), corpus.catalog)
    after = recommend_for_sessions(loaded, corpus.sessions.take(np.arange(10)), corpus.catalog)
    assert np.array_equal(before, after)


def test_load_models_rejects_mixed_stamps(tmp_path, corpus):
    model, stats = fit(corpus)
    save_models(model, tmp_path, "aaaa", stats.bank)
    model.components.save(tmp_path / "components.json", stamp="bbbb")
    with pytest.raises(ModelFileError, match="stamps"):
        load_models(tmp_path, min_visits=3)


def test_load_models_requires_the_stored_min_visits(tmp_path, corpus):
    model, stats = fit(corpus)
    save_models(model, tmp_path, "aaaa", stats.bank)
    with pytest.raises(ModelFileError, match="exported at min_visits 3, not 4$") as raised:
        load_models(tmp_path, min_visits=4)
    assert raised.value.path == str(tmp_path / "clusters.json")


def test_load_models_reads_no_qtables(tmp_path, corpus):
    model, stats = fit(corpus)
    save_models(model, tmp_path, "aaaa", stats.bank)
    (tmp_path / "qtables.json").unlink()
    loaded, _ = load_models(tmp_path, min_visits=3)
    assert np.array_equal(loaded.policies, model.policies)
