import dataclasses
import tracemalloc
from itertools import chain

import numpy as np
import pytest

from conftest import catalog_rows, heap_added, make_session
from oracles import as_features, one_shot_covariance, residual_sparse_pca, whole_matrix_transform
from qslate import features
from qslate.errors import ComponentCollapseError, DataError, FitError
from qslate.features import (
    FeatureMatrix,
    SparseComponents,
    build_raw_features,
    fit_sparse_pca,
    transform,
)
from qslate.ingest import (
    N_PORTRAITS,
    ItemCatalog,
    SessionTable,
    SyntheticConfig,
    generate_synthetic,
)


def planted_sparse_data(seed=123, p=391, k=4, nnz=10, n=800, noise=0.05):
    """Disjoint equal-magnitude supports with distinct component variances."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(p)
    supports = [perm[j * nnz : (j + 1) * nnz] for j in range(k)]
    loadings = np.zeros((k, p))
    for j, s in enumerate(supports):
        loadings[j, s] = rng.choice([-1.0, 1.0], size=nnz) / np.sqrt(nnz)
    scales = np.linspace(4.0, 1.5, k)
    latent = rng.normal(size=(n, k)) * scales
    X = latent @ loadings + noise * rng.normal(size=(n, p))
    return X, supports


def zero_rows(comps):
    """Whether each loading row is all zero: a component past the data's rank."""
    return tuple(not row.any() for row in comps.loadings)


def session_rows(fm):
    """``fm`` as one unit-weight row per session: the rows ``fm.values[fm.rows]``."""
    n = len(fm.rows)
    return FeatureMatrix(fm.values[fm.rows], np.ones(n, dtype=np.int64), np.arange(n))


def readme_shaped_features():
    """Raw features of a README-shaped corpus: 381 items, so 391 columns."""
    corpus = generate_synthetic(
        SyntheticConfig(num_items=381, num_users=300, num_sessions=1500, seed=7)
    )
    return build_raw_features(corpus.sessions, corpus.catalog)


def few_states_features(states, seed=21):
    """README-shaped columns (10 portraits, 381 clicks) over a few states,
    each the state of 2 to 9 sessions."""
    rng = np.random.default_rng(seed)
    values = np.hstack([rng.normal(size=(states, 10)), rng.random((states, 381)) < 0.1])
    rows = rng.permutation(np.repeat(np.arange(states), rng.integers(2, 10, size=states)))
    return FeatureMatrix(values.astype(np.float64), np.bincount(rows), rows)


class TestBuildRawFeatures:
    def test_empty_click_history(self, catalog9):
        s = make_session([False] * 9, clicks=())
        fm = build_raw_features(SessionTable.from_records([s]), catalog9)
        assert fm.n_cols == 9 + 10
        assert tuple(fm.values[0, :10]) == s.portraits
        assert not fm.values[0, 10:].any()

    def test_full_click_history(self, catalog9):
        s = make_session([False] * 9, clicks=tuple(range(1, 10)))
        fm = build_raw_features(SessionTable.from_records([s]), catalog9)
        assert (fm.values[0, 10:] == 1.0).all()

    def test_click_columns_are_binary_and_ordered(self, catalog9):
        s = make_session([False] * 9, clicks=(3, 7))
        fm = build_raw_features(SessionTable.from_records([s]), catalog9)
        cols = dict(zip(catalog9.ids.tolist(), fm.values[0, 10:].tolist()))
        assert cols[3] == 1.0 and cols[7] == 1.0
        assert sum(cols.values()) == 2.0

    def test_column_sums_match_click_counts(self):
        corpus = generate_synthetic(
            SyntheticConfig(num_items=30, num_users=50, num_sessions=400, seed=31)
        )
        fm = build_raw_features(corpus.sessions, corpus.catalog)
        for j, item_id in enumerate(corpus.catalog.ids.tolist()):
            count = sum(1 for s in corpus.sessions if item_id in s.clicked_items)
            assert fm.values[fm.rows, 10 + j].sum() == count

    def test_empty_catalog_rejected(self):
        with pytest.raises(DataError):
            build_raw_features(SessionTable.from_records([]), catalog_rows([]))

    def test_one_row_per_distinct_state(self):
        corpus = generate_synthetic(
            SyntheticConfig(num_items=30, num_users=50, num_sessions=400, seed=31)
        )
        sessions = corpus.sessions
        fm = build_raw_features(sessions, corpus.catalog)
        states = list(dict.fromkeys((s.clicked_items, s.portraits) for s in sessions))
        assert len(fm.values) == len(states) < len(sessions)
        assert fm.rows.tolist() == [states.index((s.clicked_items, s.portraits)) for s in sessions]
        assert fm.weights.tolist() == np.bincount(fm.rows).tolist()
        per_session = np.concatenate(
            [
                build_raw_features(SessionTable.from_records([s]), corpus.catalog).values
                for s in sessions
            ]
        )
        assert (fm.values[fm.rows] == per_session).all()

    def test_blocked_build_equals_one_block(self, monkeypatch):
        corpus = generate_synthetic(
            SyntheticConfig(num_items=30, num_users=50, num_sessions=400, seed=31)
        )
        monkeypatch.setattr(features, "_BLOCK", 10**9)
        whole = build_raw_features(corpus.sessions, corpus.catalog)
        monkeypatch.setattr(features, "_BLOCK", 7)
        blocked = build_raw_features(corpus.sessions, corpus.catalog)
        assert len(whole.values) > 7 and len(whole.values) % 7  # a partial last block
        assert np.array_equal(blocked.values, whole.values)
        assert np.array_equal(blocked.weights, whole.weights)
        assert np.array_equal(blocked.rows, whole.rows)

    @pytest.mark.parametrize("block", [10**9, 7])
    def test_blocked_build_names_the_first_unknown_click(self, monkeypatch, block):
        corpus = generate_synthetic(
            SyntheticConfig(num_items=90, num_users=50, num_sessions=400, seed=31)
        )
        clicks = corpus.sessions.clicks
        # A catalog of the items clicked in the first ten states, so the
        # first unknown click lies past the first block of seven.
        known = set(chain.from_iterable(clicks[:10]))
        first_bad_state = next(i for i, c in enumerate(clicks) if not c <= known)
        first_bad = next(i for i in chain.from_iterable(clicks) if i not in known)
        assert first_bad_state >= 10
        assert len(set(chain.from_iterable(clicks)) - known) > 1
        keep = np.isin(corpus.catalog.ids, sorted(known))
        catalog = ItemCatalog(*(getattr(corpus.catalog, name)[keep]
                                for name in ("ids", "features", "prices", "locations")))
        monkeypatch.setattr(features, "_BLOCK", block)
        with pytest.raises(DataError, match=f"^clicked item {first_bad} not in catalog$"):
            build_raw_features(corpus.sessions, catalog)


class TestFitSparsePca:
    def test_plain_pca_matches_dominant_singular_direction(self):
        rng = np.random.default_rng(4)
        u = rng.normal(size=60)
        w = rng.normal(size=12)
        X = np.outer(u, w) + 1e-6 * rng.normal(size=(60, 12))
        comps = fit_sparse_pca(as_features(X), k=1, l1_penalty=0.0, seed=0)
        Xs = (X - comps.column_means[N_PORTRAITS:]) / comps.column_scales[N_PORTRAITS:]
        _, _, vt = np.linalg.svd(Xs, full_matrices=False)
        v = vt[0]
        if v[np.argmax(np.abs(v))] < 0:
            v = -v
        assert np.linalg.norm(comps.loadings[0, N_PORTRAITS:] - v) < 1e-5

    def test_planted_support_recovery(self):
        X, supports = planted_sparse_data()
        comps = fit_sparse_pca(as_features(X), k=4, l1_penalty=0.25, seed=0)
        matched = set()
        for j in range(4):
            recovered = set(np.flatnonzero(comps.loadings[j, N_PORTRAITS:]).tolist())
            best = max(range(4), key=lambda t: len(recovered & set(supports[t].tolist())))
            overlap = len(recovered & set(supports[best].tolist())) / len(supports[best])
            assert overlap >= 0.9
            matched.add(best)
        assert matched == {0, 1, 2, 3}

    def test_zero_fraction_monotone_in_penalty(self):
        X, _ = planted_sparse_data()
        fractions = []
        for lam in (0.0, 0.05, 0.1, 0.2, 0.35, 0.5, 0.7):
            comps = fit_sparse_pca(as_features(X), k=4, l1_penalty=lam, seed=0)
            fractions.append(float((comps.loadings[:, N_PORTRAITS:] == 0.0).mean()))
        assert all(a <= b + 1e-12 for a, b in zip(fractions, fractions[1:]))
        assert fractions[0] == 0.0

    def test_deterministic_bit_for_bit(self):
        X, _ = planted_sparse_data(seed=5, p=60, n=120)
        a = fit_sparse_pca(as_features(X, zscore=True), k=3, l1_penalty=0.2, seed=9)
        b = fit_sparse_pca(as_features(X, zscore=True), k=3, l1_penalty=0.2, seed=9)
        assert (a.loadings == b.loadings).all()
        assert (a.explained_variance == b.explained_variance).all()

    def test_loading_rows_unit_or_zero(self):
        X, _ = planted_sparse_data(seed=5, p=60, n=120)
        comps = fit_sparse_pca(as_features(X, zscore=True), k=3, l1_penalty=0.3, seed=1)
        for row in comps.loadings:
            norm = np.linalg.norm(row)
            if norm:
                assert abs(norm - 1.0) < 1e-9

    def test_explained_variance_non_increasing_without_penalty(self):
        X, _ = planted_sparse_data(seed=8, p=80, n=200)
        comps = fit_sparse_pca(as_features(X), k=6, l1_penalty=0.0, seed=0)
        ev = comps.explained_variance
        assert all(a >= b - 1e-9 for a, b in zip(ev, ev[1:]))

    def test_k_out_of_range(self):
        X = as_features(np.random.default_rng(0).normal(size=(10, 6)), zscore=True)
        with pytest.raises(FitError, match=r"k=0 out of range \[1, 10\]"):
            fit_sparse_pca(X, k=0)
        with pytest.raises(FitError, match=r"k=11 out of range \[1, 10\]"):
            fit_sparse_pca(X, k=11)

    @pytest.mark.parametrize("l1", [-0.1, float("nan")])
    def test_negative_or_nan_l1_penalty_rejected(self, l1):
        X = as_features(np.random.default_rng(0).normal(size=(10, 6)), zscore=True)
        with pytest.raises(FitError, match=f"l1_penalty must be nonnegative, got {l1}"):
            fit_sparse_pca(X, k=2, l1_penalty=l1)

    def test_component_collapse_signals_penalty_too_large(self):
        X, _ = planted_sparse_data(seed=5, p=60, n=120)
        with pytest.raises(ComponentCollapseError, match="too large"):
            fit_sparse_pca(as_features(X, zscore=True), k=2, l1_penalty=1.0, seed=0)

    def test_rank_deficient_zero_penalty_flags_degenerate(self):
        rng = np.random.default_rng(2)
        base = rng.normal(size=(40, 2))
        X = base @ rng.normal(size=(2, 5))  # rank 2 in 5 columns
        comps = fit_sparse_pca(as_features(X), k=5, l1_penalty=0.0, seed=0)
        assert any(zero_rows(comps))

    def test_positive_rounding_past_rank_flags_degenerate(self):
        # On this rank-2 matrix the trace left after two deflations is a
        # positive 2e-17 of the starting trace: rounding the floor must catch.
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 2)) @ rng.normal(size=(2, 5))
        comps = fit_sparse_pca(as_features(X), k=5, l1_penalty=0.0, seed=0)
        assert zero_rows(comps) == (False, False, True, True, True)

    def test_full_rank_full_k_flags_nothing_degenerate(self):
        X = np.random.default_rng(12).normal(size=(60, 9))
        comps = fit_sparse_pca(as_features(X), k=9, l1_penalty=0.0, seed=0)
        assert not any(zero_rows(comps))
        assert (comps.explained_variance > 0).all()

    @pytest.mark.parametrize(
        "data, k, l1",
        [("planted", 4, 0.0), ("planted", 4, 0.25), ("readme", 16, 0.0), ("readme", 16, 0.1),
         ("few-states", 8, 0.0), ("few-states", 8, 0.1)],
    )
    def test_matches_residual_form_oracle(self, data, k, l1):
        if data == "planted":
            X = as_features(planted_sparse_data()[0])
        elif data == "readme":
            X = session_rows(readme_shaped_features())
        else:
            # Six weighted states in 391 columns run the row form; without a
            # penalty their deflated rows reach rank 5 before the 8th component.
            X = few_states_features(states=6)
        comps = fit_sparse_pca(X, k=k, l1_penalty=l1, seed=3)
        loadings, explained, degenerate, n_iter, converged = residual_sparse_pca(
            X.values[X.rows], k, l1, np.arange(X.n_cols) < N_PORTRAITS, seed=3
        )
        if data == "few-states" and l1 == 0.0:
            assert degenerate == (False,) * 5 + (True,) * 3
        assert ((comps.loadings == 0.0) == (loadings == 0.0)).all()
        assert zero_rows(comps) == degenerate
        assert (comps.n_iter, comps.converged) == (n_iter, converged)
        assert np.abs(comps.loadings - loadings).max() <= 1e-10
        assert np.abs(comps.explained_variance - explained).max() <= 1e-10

    @pytest.mark.parametrize(
        "data, k, l1",
        [("planted", 4, 0.0), ("planted", 4, 0.25), ("readme", 16, 0.0), ("readme", 16, 0.1)],
    )
    def test_weighted_fit_matches_expanded_rows(self, data, k, l1):
        if data == "planted":
            values, _ = planted_sparse_data(n=300)
            rng = np.random.default_rng(17)
            rows = rng.permutation(np.repeat(np.arange(300), rng.integers(1, 5, size=300)))
            fm = FeatureMatrix(values, np.bincount(rows), rows)
        else:
            fm = readme_shaped_features()
        assert fm.weights.max() > 1
        expanded = session_rows(fm)
        # The weighted fit runs in row form and the expanded one on the covariance.
        assert len(fm.values) < fm.n_cols <= len(expanded.values)
        weighted = fit_sparse_pca(fm, k=k, l1_penalty=l1, seed=3)
        reference = fit_sparse_pca(expanded, k=k, l1_penalty=l1, seed=3)
        assert ((weighted.loadings == 0.0) == (reference.loadings == 0.0)).all()
        assert zero_rows(weighted) == zero_rows(reference)
        assert np.abs(weighted.loadings - reference.loadings).max() <= 1e-10
        assert np.abs(weighted.explained_variance - reference.explained_variance).max() <= 1e-10
        assert np.abs(weighted.column_means - reference.column_means).max() <= 1e-12
        assert np.abs(weighted.column_scales - reference.column_scales).max() <= 1e-12

    @pytest.mark.parametrize(
        "data, k, l1",
        [("planted", 4, 0.0), ("planted", 4, 0.25), ("readme", 16, 0.0), ("readme", 16, 0.1)],
    )
    def test_blocked_covariance_matches_one_shot_oracle(self, monkeypatch, data, k, l1):
        if data == "planted":
            X = as_features(planted_sparse_data()[0], zscore=True)
        else:
            X = session_rows(readme_shaped_features())
        # 97-row blocks: several full ones and a partial last one, and the
        # fit runs on the covariance.
        monkeypatch.setattr(features, "_BLOCK", 97)
        rows = len(X.values)
        assert rows >= X.n_cols and rows > 2 * 97 and rows % 97
        blocked = fit_sparse_pca(X, k=k, l1_penalty=l1, seed=3)
        monkeypatch.setattr(features, "_covariance", one_shot_covariance)
        reference = fit_sparse_pca(X, k=k, l1_penalty=l1, seed=3)
        assert ((blocked.loadings == 0.0) == (reference.loadings == 0.0)).all()
        assert (zero_rows(blocked), blocked.n_iter, blocked.converged) == (
            zero_rows(reference), reference.n_iter, reference.converged
        )
        assert np.abs(blocked.loadings - reference.loadings).max() <= 1e-12
        assert (np.abs(blocked.explained_variance - reference.explained_variance).max()
                <= 1e-12 * reference.explained_variance.max())

    def test_row_form_never_holds_a_covariance(self):
        # With fewer distinct states than columns no p x p matrix is built:
        # the fit's heap peak stays below one.
        fm = few_states_features(states=100)
        tracemalloc.start()
        try:
            fit_sparse_pca(fm, k=16, l1_penalty=0.1, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < fm.n_cols * fm.n_cols * 8

    def test_rank_and_k_range_count_sessions(self):
        # Three distinct states in eight columns, each state the state of
        # three sessions: k may reach the nine session rows, and components
        # past the rank are flagged as on the expanded rows.
        values = as_features(np.random.default_rng(8).normal(size=(3, 8)), zscore=True).values
        rows = np.repeat(np.arange(3), 3)
        fm = FeatureMatrix(values, np.bincount(rows), rows)
        weighted = fit_sparse_pca(fm, k=8, seed=0)
        reference = fit_sparse_pca(session_rows(fm), k=8, seed=0)
        assert zero_rows(weighted) == zero_rows(reference) == (False,) * 2 + (True,) * 6
        fit_sparse_pca(fm, k=9, seed=0)
        with pytest.raises(FitError, match=r"\[1, 9\]"):
            fit_sparse_pca(fm, k=10)

    def test_smaller_k_is_prefix_of_larger_k(self):
        fm = readme_shaped_features()
        small = fit_sparse_pca(fm, k=8, l1_penalty=0.1, seed=5)
        large = fit_sparse_pca(fm, k=16, l1_penalty=0.1, seed=5)
        assert (small.loadings == large.loadings[:8]).all()
        assert (small.explained_variance == large.explained_variance[:8]).all()
        assert small.n_iter == large.n_iter[:8]
        sliced = large.leading(8)
        assert (sliced.loadings == small.loadings).all()
        assert sliced.k == 8
        assert (zero_rows(sliced), sliced.n_iter, sliced.converged) == (
            zero_rows(small), small.n_iter, small.converged
        )
        assert (transform(fm, small) == transform(fm, large)[:, :8]).all()

    def test_iteration_cap_reports_unconverged(self, monkeypatch):
        monkeypatch.setattr(features, "_MAX_ITER", 1)
        X, _ = planted_sparse_data(seed=5, p=60, n=120)
        comps = fit_sparse_pca(as_features(X, zscore=True), k=3, l1_penalty=0.2, seed=1)
        assert comps.n_iter == (1, 1, 1)
        assert comps.converged == (False, False, False)

    def test_planted_fit_converges(self):
        X, _ = planted_sparse_data()
        comps = fit_sparse_pca(as_features(X), k=4, l1_penalty=0.25, seed=0)
        assert all(comps.converged)
        assert all(0 < n < 200 for n in comps.n_iter)

    def test_constant_columns_get_unit_scale(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(30, N_PORTRAITS + 4))
        values[:, 2] = 7.0
        fm = FeatureMatrix(values, np.ones(30, dtype=np.int64), np.arange(30))
        comps = fit_sparse_pca(fm, k=2)
        assert (comps.column_scales > 0).all()
        assert comps.column_scales[2] == 1.0
        assert (comps.column_scales[:N_PORTRAITS] != 1.0).sum() == N_PORTRAITS - 1

    def test_feature_matrix_zscores_portraits_only(self, catalog9):
        sessions = [
            dataclasses.replace(
                make_session([False] * 9, user_id=u, clicks=(1,) if u % 2 else ()),
                portraits=(u * 10.0,) + (1.0,) * 9,  # a portrait with real variance
            )
            for u in range(1, 21)
        ]
        fm = build_raw_features(SessionTable.from_records(sessions), catalog9)
        comps = fit_sparse_pca(fm, k=2, seed=0)
        assert comps.column_scales[0] > 1.0  # z-scored portrait
        assert (comps.column_scales[10:] == 1.0).all()  # clicks centered only


class TestTransform:
    def test_rows_at_column_means_map_to_zero(self):
        X = np.random.default_rng(1).normal(size=(25, 8))
        comps = fit_sparse_pca(as_features(X), k=3, seed=0)
        z = transform(as_features(np.tile(comps.column_means[N_PORTRAITS:], (4, 1))), comps)
        assert np.abs(z).max() < 1e-12

    def test_full_basis_reconstruction(self):
        X = np.random.default_rng(6).normal(size=(50, 7))
        comps = fit_sparse_pca(as_features(X), k=7, l1_penalty=0.0, seed=0)
        Xs = (X - comps.column_means[N_PORTRAITS:]) / comps.column_scales[N_PORTRAITS:]
        Z = transform(as_features(X), comps)
        assert np.abs(Xs - Z @ comps.loadings[:, N_PORTRAITS:]).max() < 1e-8

    def test_single_row_identical_to_batch_row(self):
        X = np.random.default_rng(7).normal(size=(40, 12))
        comps = fit_sparse_pca(as_features(X, zscore=True), k=4, l1_penalty=0.1, seed=0)
        batch = transform(as_features(X), comps)
        for i in (0, 17, 39):
            single = transform(as_features(X[i : i + 1]), comps)
            assert (single[0] == batch[i]).all()

    def test_linearity_on_centered_data(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(30, 6))
        comps = fit_sparse_pca(as_features(X, zscore=True), k=3, seed=0)
        comps.column_means = np.zeros(N_PORTRAITS + 6)
        A = rng.normal(size=(5, 6))
        B = rng.normal(size=(5, 6))
        combined = transform(as_features(0.5 * A + 2.0 * B), comps)
        separate = 0.5 * transform(as_features(A), comps) + 2.0 * transform(as_features(B), comps)
        assert np.abs(combined - separate).max() < 1e-9

    def test_matches_whole_matrix_oracle(self):
        fm = readme_shaped_features()
        comps = fit_sparse_pca(fm, k=16, l1_penalty=0.1, seed=0)
        X = np.random.default_rng(7).normal(size=(40, 12))
        plain = fit_sparse_pca(as_features(X, zscore=True), k=4, l1_penalty=0.1, seed=0)
        row_5 = FeatureMatrix(fm.values[5:6], np.ones(1, dtype=np.int64), np.zeros(1, np.int64))
        for data, c in [(fm, comps), (session_rows(fm), comps), (row_5, comps),
                        (as_features(X), plain), (as_features(X[17:18]), plain)]:
            expected = whole_matrix_transform(data, c)
            assert transform(data, c).tobytes() == expected.tobytes()

    def test_dimension_mismatch(self):
        X = np.random.default_rng(1).normal(size=(10, 5))
        comps = fit_sparse_pca(as_features(X, zscore=True), k=2, seed=0)
        with pytest.raises(DataError, match="feature matrix has 14 columns, components expect 15"):
            transform(as_features(np.zeros((3, 4))), comps)

    def test_transform_is_idempotent_on_training_data(self):
        X = as_features(np.random.default_rng(11).normal(size=(20, 5)), zscore=True)
        comps = fit_sparse_pca(X, k=2, seed=0)
        assert (transform(X, comps) == transform(X, comps)).all()


class TestWorkingMemory:
    """The raw matrix is the only u x p array: each stage's other working
    arrays are bounded by a block, by p^2 or by the k x p loadings."""

    def test_build_adds_at_most_half_the_raw_matrix(self, wide_states):
        corpus, _ = wide_states
        fm, added = heap_added(lambda: build_raw_features(corpus.sessions, corpus.catalog))
        assert len(fm.values) >= 3000
        assert added <= fm.values.nbytes / 2

    def test_covariance_fit_adds_at_most_a_quarter_and_three_covariances(self, wide_states):
        _, fm = wide_states
        p = fm.n_cols
        assert len(fm.values) >= p  # the covariance form
        _, added = heap_added(lambda: fit_sparse_pca(fm, k=16, l1_penalty=0.1, seed=0))
        assert added <= fm.values.nbytes / 4 + 3 * p * p * 8

    def test_transform_adds_at_most_a_quarter_of_the_raw_matrix(self, wide_states):
        _, fm = wide_states
        comps = fit_sparse_pca(fm, k=16, l1_penalty=0.1, seed=0)
        _, added = heap_added(lambda: transform(fm, comps))
        assert added <= fm.values.nbytes / 4


class TestSerialization:
    def test_save_load_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setattr(features, "_MAX_ITER", 6)
        X, _ = planted_sparse_data(seed=14, p=40, n=90)
        comps = fit_sparse_pca(as_features(X, zscore=True), k=3, l1_penalty=0.2, seed=2)
        assert comps.converged == (False, False, True)
        path = tmp_path / "components.json"
        comps.save(path, stamp="abc123")
        loaded, stamp = SparseComponents.load(path)
        assert stamp == "abc123"
        assert (loaded.loadings == comps.loadings).all()
        assert (loaded.column_means == comps.column_means).all()
        assert (loaded.column_scales == comps.column_scales).all()
        assert zero_rows(loaded) == zero_rows(comps)
        assert loaded.k == comps.k
        assert (loaded.explained_variance == comps.explained_variance).all()
        assert loaded.n_iter == comps.n_iter
        assert loaded.converged == comps.converged

    def test_load_rejects_garbage(self, tmp_path):
        from qslate.errors import ModelFileError

        path = tmp_path / "components.json"
        path.write_text("{not json")
        with pytest.raises(ModelFileError, match="components.json"):
            SparseComponents.load(path)
