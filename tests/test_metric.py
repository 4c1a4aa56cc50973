from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from conftest import catalog_rows, make_catalog, make_session
from oracles import naive_metric_score, row_step_values
from qslate import pipeline
from qslate.errors import ComponentCollapseError, DataError, FitError, QslateError
from qslate.ingest import (
    SessionTable,
    SyntheticConfig,
    generate_synthetic,
    sessions_to_transitions,
)
from qslate.metric import (
    GridCellResult,
    MetricConfig,
    ScoreReport,
    expand_grid,
    holdout_split,
    score,
    select_best,
    tune,
)
from qslate.pipeline import PipelineParams, fit_pipeline, recommend_for_sessions


# Prices whose sum depends on the order of addition.
FRACTIONAL_PRICES = st.one_of(
    st.sampled_from([0.1, 0.2, 0.3, 0.7, 1e16, 2.5]), st.floats(min_value=0.0, max_value=100.0)
)


@st.composite
def scored_sessions(draw):
    """Sessions on a catalog of fractional prices, and 9-item
    recommendations for them that repeat items and name items of other
    locations."""
    ids = draw(st.lists(st.integers(-30, 30), min_size=1, max_size=12, unique=True))
    catalog = catalog_rows(
        [(i, (0.0,) * 5, draw(FRACTIONAL_PRICES), draw(st.integers(1, 3))) for i in ids]
    )
    item = st.sampled_from(ids)
    sessions, recs = [], []
    for _ in range(draw(st.integers(1, 8))):
        labels = draw(st.lists(st.booleans(), min_size=9, max_size=9))
        sessions.append(make_session(labels, slate=draw(st.lists(item, min_size=9, max_size=9))))
        recs.append(draw(st.lists(item, min_size=9, max_size=9)))
    return recs, sessions, catalog


class TestScore:
    @given(scored_sessions())
    def test_matches_row_walk_bit_for_bit(self, case):
        recs, sessions, catalog = case
        table = SessionTable.from_records(sessions)
        report = score(recs, table, catalog, MetricConfig((1.0, 1.0, 1.0)))
        assert report.per_step_value == row_step_values(recs, sessions, catalog)

    def test_bought_item_missing_from_catalog_rejected(self, catalog9):
        session = make_session([1] * 9, slate=(1, 2, 3, 4, 5, 6, 7, 8, 99))
        sessions = SessionTable.from_records([session])
        rec = [1, 1, 1, 4, 4, 4, 99, 7, 7]
        with pytest.raises(DataError, match="unknown item_id 99"):
            score([rec], sessions, catalog9)
        rec = [1, 1, 1, 4, 4, 4, 7, 7, 7]
        assert score([rec], sessions, catalog9).per_step_value == (1.0, 4.0, 7.0)

    def test_direct_substitution_example(self):
        # One session: purchases worth 5 at step 1 and 4 at step 2 among our
        # recommendations, nothing at step 3 -> (1*5 + 2*4) / 1 = 13.
        catalog = make_catalog(prices={1: 5.0, 2: 1.0, 3: 1.0, 4: 4.0, 5: 1.0,
                                       6: 1.0, 7: 2.0, 8: 2.0, 9: 2.0})
        session = make_session([1, 0, 0, 1, 0, 0, 0, 0, 0])
        sessions = SessionTable.from_records([session])
        rec = [1, 2, 3, 4, 5, 6, 7, 8, 9]
        # exclude the step-3 purchased region: labels above purchase nothing at 3
        report = score([rec], sessions, catalog, MetricConfig((1.0, 2.0, 3.0)))
        assert report.score == 13.0
        assert report.per_step_value == (5.0, 4.0, 0.0)
        assert report.n_sessions == 1

    def test_disjoint_recommendations_score_zero(self, catalog9):
        session = make_session([1] * 9, slate=(1, 2, 3, 4, 5, 6, 7, 8, 9))
        rec = [3, 2, 1, 6, 5, 4, 9, 8, 7]  # same items, so instead use none purchased
        session_none = SessionTable.from_records([make_session([0] * 9)])
        assert score([rec], session_none, catalog9).score == 0.0

    def test_misplaced_location_scores_zero(self, catalog9):
        session = make_session([1] * 9)
        sessions = SessionTable.from_records([session])
        # item 1 (location 1) claimed at step 2: must contribute nothing there
        rec = [2, 3, 3, 1, 4, 4, 7, 8, 9]
        report = score([rec], sessions, catalog9, MetricConfig((1.0, 1.0, 1.0)))
        assert report.per_step_value[1] == 4.0  # item 1 ignored, item 4 counted

    def test_identity_matching_ignores_position_within_row(self, catalog9):
        session = make_session([1, 0, 0, 0, 0, 0, 0, 0, 0])
        sessions = SessionTable.from_records([session])
        rec = [3, 2, 1, 4, 5, 6, 7, 8, 9]  # purchased item 1 in a different slot
        assert score([rec], sessions, catalog9, MetricConfig((1.0, 0.1, 0.1))).score == 1.0

    def test_duplicate_recommended_items_count_once(self, catalog9):
        session = make_session([1] * 9)
        sessions = SessionTable.from_records([session])
        rec = [1] * 9  # and at steps 2 and 3, where its location 1 earns nothing
        report = score([rec], sessions, catalog9, MetricConfig((1.0, 1.0, 1.0)))
        assert report.per_step_value == (1.0, 0.0, 0.0)

    def test_rows_tuples_and_array_score_alike(self):
        corpus = generate_synthetic(
            SyntheticConfig(num_items=30, num_users=120, num_sessions=1000, seed=63,
                            preference_scale=2.0, base_appeal=0.4)
        )
        # A policy per planted group, as the train-stream benchmark scores it.
        policies = corpus.sessions.slate[:4]
        groups = [corpus.truth.user_groups[s.user_id] for s in corpus.sessions]
        array = policies[groups]
        assert array.shape == (1000, 9) and array.dtype == np.int64
        reports = [
            score(recs, corpus.sessions, corpus.catalog)
            for recs in ([tuple(row) for row in array.tolist()],
                         [policies[g] for g in groups],
                         array)
        ]
        assert reports[0].score > 0
        assert reports[0] == reports[1] == reports[2]

    def test_matches_naive_oracle_exactly_on_synthetic_corpus(self):
        corpus = generate_synthetic(
            SyntheticConfig(num_items=30, num_users=120, num_sessions=1000, seed=61,
                            preference_scale=2.0, base_appeal=0.4)
        )
        rng_rec = [s.exposed_slate for s in corpus.sessions][::-1]  # arbitrary policy
        weights = (1.0, 2.0, 3.0)
        report = score(rng_rec, corpus.sessions, corpus.catalog, MetricConfig(weights))
        oracle_total, oracle_steps = naive_metric_score(
            rng_rec, corpus.sessions, corpus.catalog, weights
        )
        assert report.score == oracle_total
        assert report.per_step_value == oracle_steps

    def test_logged_policy_equals_weighted_transition_revenue(self):
        corpus = generate_synthetic(
            SyntheticConfig(num_items=30, num_users=120, num_sessions=1000, seed=62,
                            preference_scale=2.0, base_appeal=0.4)
        )
        weights = (1.0, 2.0, 3.0)
        logged = [s.exposed_slate for s in corpus.sessions]
        report = score(logged, corpus.sessions, corpus.catalog, MetricConfig(weights))
        transitions = sessions_to_transitions(corpus.sessions, corpus.catalog)
        revenue = sum(weights[step - 1] * reward for step, reward
                      in zip(transitions.step.tolist(), transitions.reward.tolist()))
        expected = revenue / len(corpus.sessions)
        assert report.score == expected

    def test_errors(self, catalog9):
        session = make_session([1] * 9)
        sessions = SessionTable.from_records([session])
        with pytest.raises(DataError, match="zero sessions"):
            score([], SessionTable.from_records([]), catalog9)
        with pytest.raises(DataError):
            score([session.exposed_slate], sessions, catalog9, MetricConfig((1.0, 1.0)))
        with pytest.raises(DataError):
            score([session.exposed_slate], sessions, catalog9, MetricConfig((0.0, 0.0, 0.0)))

    @pytest.mark.parametrize("recs, message", [
        (None, r"n×9 integer array, got shape \(\) of object"),
        ([None], r"n×9 integer array, got shape \(1,\) of object"),
        ([list(range(1, 9))], r"n×9 integer array, got shape \(1, 8\) of int64"),
        ([list(range(1, 10)), list(range(1, 9))], "n×9 integer array: setting an array"),
        (np.arange(1.0, 10.0).reshape(1, 9), r"n×9 integer array, got shape \(1, 9\) of float64"),
        ([[True] * 9], r"n×9 integer array, got shape \(1, 9\) of bool"),
        (np.empty((0, 9), np.int64), "1 sessions but 0 recommendations"),
        ([list(range(1, 10))] * 2, "1 sessions but 2 recommendations"),
    ])
    def test_anything_but_one_nine_item_row_per_session_rejected(self, catalog9, recs, message):
        sessions = SessionTable.from_records([make_session([1] * 9)])
        with pytest.raises(DataError, match=message):
            score(recs, sessions, catalog9)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -1.0])
    def test_non_finite_or_negative_weight_rejected(self, catalog9, bad):
        session = make_session([True] * 9)
        sessions = SessionTable.from_records([session])
        with pytest.raises(DataError, match="step weights must be finite and nonnegative"):
            score([session.exposed_slate], sessions, catalog9, MetricConfig((bad, 1.0, 1.0)))

    @given(c=st.sampled_from([0.25, 0.5, 2.0, 4.0, 8.0]))
    def test_scale_linearity(self, c):
        catalog = make_catalog()
        sessions = SessionTable.from_records(
            [make_session([1, 0, 1, 1, 1, 1, 0, 1, 1]), make_session([1] * 9)]
        )
        recs = [s.exposed_slate for s in sessions]
        base = score(recs, sessions, catalog, MetricConfig((1.0, 2.0, 3.0)))
        scaled = score(recs, sessions, catalog, MetricConfig((c, 2.0 * c, 3.0 * c)))
        assert scaled.score == c * base.score  # dyadic scale: exact

    @given(
        labels=st.tuples(*[st.booleans()] * 9),
        rec=st.lists(st.integers(1, 9), min_size=9, max_size=9),
        slot=st.integers(0, 8),
        pick=st.integers(0, 2),
    )
    def test_swapping_in_a_bought_valid_item_never_decreases(self, labels, rec, slot, pick):
        # The session's slate is items 1-9, so it bought item i when labels[i - 1].
        catalog = make_catalog()
        sessions = SessionTable.from_records([make_session(labels)])
        step = slot // 3 + 1
        bought = [i for i in range(1, 10) if labels[i - 1] and catalog.location(i) == step]
        assume(bought and not labels[rec[slot] - 1])
        swapped = list(rec)
        swapped[slot] = bought[pick % len(bought)]
        cfg = MetricConfig((1.0, 2.0, 3.0))
        before = score([rec], sessions, catalog, cfg).score
        after = score([swapped], sessions, catalog, cfg).score
        assert after >= before


class TestHoldoutSplit:
    def test_sizes(self):
        sessions = SessionTable.from_records([make_session([0] * 9, user_id=u) for u in range(10)])
        train, val = holdout_split(sessions, 0.8, seed=0)
        assert len(train) == 8 and len(val) == 2

    def test_deterministic_and_seed_sensitive(self):
        sessions = SessionTable.from_records([make_session([0] * 9, user_id=u) for u in range(40)])
        a1 = holdout_split(sessions, 0.8, seed=3)
        a2 = holdout_split(sessions, 0.8, seed=3)
        b = holdout_split(sessions, 0.8, seed=4)
        assert [list(part) for part in a1] == [list(part) for part in a2]
        assert [s.user_id for s in a1[0]] != [s.user_id for s in b[0]]
        assert len(b[0]) == len(a1[0])

    @given(n=st.integers(min_value=2, max_value=60), seed=st.integers(0, 100))
    def test_union_is_the_input_multiset(self, n, seed):
        sessions = [make_session([0] * 9, user_id=u % 7, timestamp=u) for u in range(n)]
        train, val = holdout_split(SessionTable.from_records(sessions), 0.8, seed=seed)
        assert len(train) + len(val) == n
        assert len(train) >= 1 and len(val) >= 1
        assert sorted([*train, *val], key=lambda s: s.timestamp) == sessions

    def test_too_few_sessions(self):
        with pytest.raises(DataError, match="2 sessions"):
            holdout_split(SessionTable.from_records([make_session([0] * 9)]), 0.5, seed=0)

    def test_bad_fraction(self):
        sessions = SessionTable.from_records([make_session([0] * 9) for _ in range(4)])
        for frac in (0.0, 1.0, -0.2, 1.4):
            with pytest.raises(DataError):
                holdout_split(sessions, frac, seed=0)


class TestGrid:
    def test_expand_cartesian_in_key_order(self):
        grid = {"k_features": [4, 8], "alpha": [0.1, 0.5]}
        cells = expand_grid(grid)
        assert cells == [
            {"k_features": 4, "alpha": 0.1},
            {"k_features": 4, "alpha": 0.5},
            {"k_features": 8, "alpha": 0.1},
            {"k_features": 8, "alpha": 0.5},
        ]

    def test_rejects_unknown_key_and_empty(self):
        with pytest.raises(DataError, match="unknown grid key"):
            expand_grid({"learning_rate": [0.1]})
        with pytest.raises(DataError, match="empty"):
            expand_grid({})
        with pytest.raises(DataError, match="nonempty list"):
            expand_grid({"alpha": []})

    @pytest.mark.parametrize("grid", [
        {"cluster": ["kmeans"]},
        {"cluster": [{"method": "kmeans"}]},
        {"cluster": [{"method": "kmeans", "k": 0}]},
        {"cluster": [{"method": "kmeans", "k": 2.0}]},
        {"cluster": [{"method": "dbscan", "eps": 0.5}]},
        {"cluster": [{"method": "dbscan", "eps": "0.5", "min_pts": 5}]},
        {"cluster": [{"method": "ward", "k": 2}]},
        {"k_features": ["8"]},
        {"k_features": [8.0]},
        {"epochs": [True]},
        {"alpha": [0.1, None]},
    ])
    def test_rejects_malformed_values(self, grid):
        (key,) = grid
        with pytest.raises(DataError, match=f"grid key '{key}': bad value"):
            expand_grid(grid)

    def test_accepts_well_formed_values(self):
        grid = {
            "k_features": [4],
            "l1_penalty": [0, 0.5],
            "cluster": [{"method": "kmeans", "k": 3}, {"method": "dbscan", "eps": 1, "min_pts": 5}],
            "gamma": [0.9],
        }
        assert len(expand_grid(grid)) == 4

    def test_select_best_tie_breaks(self):
        def cell(i, sc, k_features, n_clusters):
            return GridCellResult(
                index=i,
                params={"k_features": k_features},
                report=ScoreReport(score=sc, per_step_value=(0, 0, 0), n_sessions=1),
                n_clusters=n_clusters,
            )

        cells = [
            cell(0, 10.0, 16, 4),
            cell(1, 10.0, 8, 6),   # same score, fewer features -> wins
            cell(2, 10.0, 8, 3),   # same score + features, fewer clusters -> wins
            GridCellResult(index=3, params={"k_features": 2}, error="collapsed"),
        ]
        assert select_best(cells) == 2

    def test_select_best_all_failed(self):
        cells = [GridCellResult(index=0, params={}, error="boom")]
        with pytest.raises(FitError, match="every grid cell failed"):
            select_best(cells)


@pytest.fixture(scope="module")
def small_corpus():
    return generate_synthetic(
        SyntheticConfig(num_items=18, num_users=150, num_sessions=1200, seed=71,
                        preference_scale=3.0, price_range=(3, 5), base_appeal=0.5)
    )


class TestTune:
    def base(self, seed=0):
        return PipelineParams(
            k_features=6, l1_penalty=0.1, cluster={"method": "kmeans", "k": 4},
            min_cluster_support=50, epochs=5, min_visits=10, gamma=0.95,
            seed=seed, deterministic=True,
        )

    def test_singleton_grid_returns_that_cell(self, small_corpus):
        result = tune(
            {"alpha": [0.2]}, small_corpus.sessions, small_corpus.catalog,
            base_params=self.base(),
        )
        assert result.best_index == 0
        assert result.best.params == {"alpha": 0.2}
        assert result.best.report is not None
        assert result.best.report.score >= 0.0
        assert result.train_size + result.validation_size == 1200

    def test_collapsing_cell_reported_failed_not_selected(self, small_corpus):
        result = tune(
            {"l1_penalty": [0.1, 1.0]}, small_corpus.sessions, small_corpus.catalog,
            base_params=self.base(),
        )
        good, bad = result.cells
        assert bad.error is not None and "too large" in bad.error
        assert bad.report is None
        assert result.best_index == good.index == 0

    def test_nan_l1_penalty_cell_fails_with_fit_message(self, small_corpus):
        result = tune(
            {"l1_penalty": [0.1, float("nan")]}, small_corpus.sessions, small_corpus.catalog,
            base_params=self.base(),
        )
        good, bad = result.cells
        assert bad.error == "l1_penalty must be nonnegative, got nan"
        assert bad.report is None
        assert result.best_index == good.index == 0

    def test_nan_eps_cell_fails_as_not_positive(self, small_corpus):
        result = tune(
            {"cluster": [{"method": "kmeans", "k": 2},
                         {"method": "dbscan", "eps": float("nan"), "min_pts": 5}]},
            small_corpus.sessions, small_corpus.catalog, base_params=self.base(),
        )
        good, bad = result.cells
        assert bad.error == "eps must be positive"
        assert bad.report is None
        assert result.best_index == good.index == 0

    def assert_cells_match_independent_runs(self, result, corpus, base):
        train_set, validation = holdout_split(corpus.sessions, 0.8, 0)
        for cell in result.cells:
            try:
                model, stats = fit_pipeline(train_set, corpus.catalog, replace(base, **cell.params))
                recs = recommend_for_sessions(model, validation, corpus.catalog)
                expected = (score(recs, validation, corpus.catalog).score, stats.n_clusters, None)
            except QslateError as exc:
                expected = (None, None, str(exc))
            got = (cell.report.score if cell.report else None, cell.n_clusters, cell.error)
            assert got == expected, cell.params

    @pytest.fixture
    def pca_calls(self, monkeypatch):
        calls = []
        real = pipeline.fit_sparse_pca

        def counting(raw, k, **kwargs):
            calls.append(k)
            return real(raw, k=k, **kwargs)

        monkeypatch.setattr(pipeline, "fit_sparse_pca", counting)
        return calls

    def test_cells_equal_independent_pipeline_runs(self, small_corpus, pca_calls):
        grid = {
            "k_features": [4, 8, 40],  # 40 exceeds the 28 feature columns
            "cluster": [
                {"method": "kmeans", "k": 4},
                {"method": "dbscan", "eps": 1.0, "min_pts": 5},
            ],
            "min_visits": [3, 30],
        }
        result = tune(grid, small_corpus.sessions, small_corpus.catalog,
                      base_params=self.base())
        # one failed attempt at k=40, then the shared fit at k=8
        assert pca_calls == [40, 8]
        assert [c.error is None for c in result.cells] == [True] * 8 + [False] * 4
        self.assert_cells_match_independent_runs(result, small_corpus, self.base())

    def test_part_way_collapse_fails_only_larger_k(self, small_corpus, pca_calls, monkeypatch):
        # A real fit collapses at component 0 (l1_penalty >= 1) or not at
        # all, since below 1 the largest loading survives the threshold; a
        # collapse at component 5 is injected for fits that reach it.
        counting = pipeline.fit_sparse_pca

        def collapsing(raw, k, l1_penalty, **kwargs):
            if k <= 5:
                return counting(raw, k=k, l1_penalty=l1_penalty, **kwargs)
            pca_calls.append(k)
            raise ComponentCollapseError(
                f"component 5 collapsed to zero: l1_penalty={l1_penalty} too large",
                component=5,
            )

        monkeypatch.setattr(pipeline, "fit_sparse_pca", collapsing)
        grid = {"k_features": [8, 4, 6, 5], "min_visits": [3, 30]}
        result = tune(grid, small_corpus.sessions, small_corpus.catalog,
                      base_params=self.base())
        assert pca_calls == [8, 5]
        for cell in result.cells:
            if cell.params["k_features"] > 5:
                assert cell.error == "component 5 collapsed to zero: l1_penalty=0.1 too large"
            else:
                assert cell.error is None
        self.assert_cells_match_independent_runs(result, small_corpus, self.base())

    def test_planted_group_count_selected(self):
        # 4 planted groups; the winning cluster count must be 4 in >= 8 of 10
        # seeded repetitions of the generate -> tune experiment.
        grid = {
            "cluster": [
                {"method": "kmeans", "k": 2},
                {"method": "kmeans", "k": 4},
                {"method": "kmeans", "k": 8},
            ]
        }
        wins = 0
        for rep in range(10):
            corpus = generate_synthetic(
                SyntheticConfig(num_items=30, num_users=400, num_sessions=3000,
                                seed=100 + rep, preference_scale=3.0,
                                price_range=(3, 5), base_appeal=0.4, num_groups=4)
            )
            base = PipelineParams(
                k_features=8, l1_penalty=0.1, min_cluster_support=500,
                epochs=10, min_visits=20, gamma=0.95, seed=rep, deterministic=True,
            )
            result = tune(grid, corpus.sessions, corpus.catalog,
                          train_fraction=0.7, seed=rep, base_params=base)
            wins += result.best.params["cluster"]["k"] == 4
        assert wins >= 8
