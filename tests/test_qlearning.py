import gc
import itertools
import json
import math
import multiprocessing
import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import catalog_rows, forced_pool, make_catalog
from oracles import (
    backward_ordered,
    bank_of,
    dict_greedy_policy,
    dict_tables,
    exponentially_weighted_value,
    q_value,
    single_phase_q_learning,
    table_rows,
    toy_mdp,
    transition_table,
    value_iteration,
    visit_count,
)
from qslate import qlearning
from qslate.errors import DataError, ModelFileError, TrainError
from qslate.ingest import (
    STEPS,
    ItemCatalog,
    SessionTable,
    SyntheticConfig,
    generate_synthetic,
    sessions_to_transitions,
)
from qslate.pipeline import PipelineParams, fit_pipeline, recommend_for_sessions
from qslate.qlearning import (
    POLICY_LAYERS,
    QTableBank,
    TrainConfig,
    check_policies,
    export_policies,
    train,
)


def reference_trainer(n_clusters, transitions, clusters, alpha, gamma, epochs):
    """Naive single-threaded trainer with a full max scan per update."""
    tables = {(c, s): {} for c in range(n_clusters) for s in (1, 2, 3)}
    for _ in range(epochs):
        for ref, step, action, reward, terminal in table_rows(transitions):
            cid = clusters[ref]
            if terminal:
                future = 0.0
            else:
                nxt = tables[(cid, step + 1)]
                future = max([cell[0] for cell in nxt.values()] + [0.0])
            target = reward + gamma * future
            tab = tables[(cid, step)]
            cell = tab.setdefault(action, [0.0, 0])
            cell[0] += alpha * (target - cell[0])
            cell[1] += 1
    return tables


SLATES = {1: [(1, 2, 3), (1, 2, 4), (2, 3, 4)], 2: [(5, 6, 7), (5, 6, 8)], 3: [(9, 10, 11)]}
VALUES = st.one_of(
    st.sampled_from([-0.0, 0.0, -2.5, -5e-324, 1.0, 7.0]),
    st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
)


@st.composite
def training_cases(draw):
    """An empty bank, a transition stream and a config that reach every
    case of the step-wise trainer: tables that some step reads and tables
    that none reads, reads before a table's first update and of tables never
    updated, negative and signed-zero targets."""
    n_clusters = draw(st.integers(1, 3))
    # Item ids above a drawn cut move up by about 2**40, in order.  A cut
    # among the ids spreads some key columns over about 2**40, which sends
    # most such cases past int64 to np.lexsort in ``_order``; the others
    # keep the packed sort, some of them with keys near 2**40.
    cut = draw(st.integers(0, 12))
    shift = draw(st.sampled_from([0, 2**40 + 3]))
    slates = {step: [tuple(i + shift * (i > cut) for i in slate) for slate in step_slates]
              for step, step_slates in SLATES.items()}
    # Each cluster logs some steps only, so a non-terminal item's next step
    # may never follow, and a table may be read in some clusters only.
    logged = [sorted(draw(st.sets(st.sampled_from(STEPS), min_size=1)))
              for _ in range(n_clusters)]
    picks = st.tuples(st.integers(0, n_clusters - 1), st.integers(0, 2), st.integers(0, 2),
                      VALUES, st.booleans())
    rows, clusters = [], []
    for c, step_pick, slate_pick, reward, terminal in draw(st.lists(picks, max_size=60)):
        step = logged[c][step_pick % len(logged[c])]
        slate = slates[step][slate_pick % len(slates[step])]
        rows.append((len(rows), step, slate, reward, terminal or step == STEPS[-1]))
        clusters.append(c)
    cfg = TrainConfig(
        alpha=draw(st.sampled_from([0.1, 0.3, 1.0])),
        gamma=draw(st.sampled_from([0.0, 0.5, 0.9])),
        epochs=draw(st.integers(1, 6)),
        **draw(st.sampled_from([{"deterministic": True}, {"threads": 2}])),
    )
    return QTableBank(n_clusters), transition_table(rows), clusters, cfg


def exact_cells(tables):
    """Every table's cells by slate, with each q as its repr."""
    return {key: sorted((slate, repr(q), visits) for slate, (q, visits) in tab.items())
            for key, tab in tables.items()}


class TestTrainConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": 0.0},
            {"alpha": 1.5},
            {"gamma": 1.0},
            {"gamma": -0.1},
            {"epochs": 0},
            {"threads": 0},
            {"backend": "gpu"},
            {"backend": "thread"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(DataError):
            TrainConfig(**kwargs).validate()

    def test_gamma_zero_allowed(self):
        TrainConfig(gamma=0.0).validate()


class TestTrain:
    def test_single_terminal_transition(self):
        bank = QTableBank(1)
        t = transition_table([(0, 3, (7, 8, 9), 10.0, True)])
        train(bank, t, [0], TrainConfig(alpha=0.1, gamma=0.9, epochs=1, deterministic=True))
        assert q_value(bank, 0, 3, (7, 8, 9)) == pytest.approx(1.0)
        assert visit_count(bank, 0, 3, (7, 8, 9)) == 1
        assert bank.n_cells() == 1

    def test_two_step_chain_bootstraps_from_next_table(self):
        bank = QTableBank(1)
        t = transition_table([(0, 2, (4, 5, 6), 5.0, True), (1, 1, (1, 2, 3), 2.0, False)])
        train(bank, t, [0, 0], TrainConfig(alpha=1.0, gamma=0.5, epochs=1, deterministic=True))
        assert q_value(bank, 0, 1, (1, 2, 3)) == pytest.approx(2.0 + 0.5 * 5.0)

    def test_bank_that_holds_cells_rejected_and_unchanged(self):
        bank = bank_of(1, [(0, 1, (1, 2, 3), 2.5, 4), (0, 2, (4, 5, 6), -1.0, 2)])
        before = {col: getattr(bank, col).tobytes() for col in ("tid", "slate", "q", "visits")}
        t = transition_table([(0, 1, (1, 2, 3), 1.0, False), (0, 2, (4, 5, 7), 3.0, True)])
        with pytest.raises(TrainError, match="train fills an empty bank; this one holds 2 cells"):
            train(bank, t, [0], TrainConfig(deterministic=True))
        assert {col: getattr(bank, col).tobytes() for col in before} == before

    def test_backward_alpha_one_matches_value_iteration(self):
        catalog, transitions, clusters, outcomes = toy_mdp()
        qstar = value_iteration(outcomes, gamma=0.9)
        ordered, order = backward_ordered(transitions)
        ordered_clusters = [clusters[j] for j in order]
        bank = QTableBank(3)
        train(bank, ordered, ordered_clusters,
              TrainConfig(alpha=1.0, gamma=0.9, epochs=1, deterministic=True))
        for (c, s, a), expected in qstar.items():
            assert q_value(bank, c, s, a) == pytest.approx(expected, abs=1e-9)

    def test_forward_low_alpha_converges(self):
        catalog, transitions, clusters, outcomes = toy_mdp()
        qstar = value_iteration(outcomes, gamma=0.9)
        bank = QTableBank(3)
        train(bank, transitions, clusters,
              TrainConfig(alpha=0.1, gamma=0.9, epochs=50, deterministic=True))
        for (c, s, a), expected in qstar.items():
            assert q_value(bank, c, s, a) == pytest.approx(expected, abs=1e-4)

    def test_second_alpha_one_epoch_is_a_fixpoint(self):
        _, transitions, clusters, _ = toy_mdp()
        ordered, order = backward_ordered(transitions)
        ordered_clusters = [clusters[j] for j in order]
        one = QTableBank(3)
        train(one, ordered, ordered_clusters,
              TrainConfig(alpha=1.0, gamma=0.9, epochs=1, deterministic=True))
        two = QTableBank(3)
        train(two, ordered, ordered_clusters,
              TrainConfig(alpha=1.0, gamma=0.9, epochs=2, deterministic=True))
        two_tables = two.tables
        for key, tab in one.tables.items():
            for action, cell in tab.items():
                assert two_tables[key][action][0] == cell[0]

    def test_matches_reference_trainer_on_random_cells(self):
        corpus = generate_synthetic(
            SyntheticConfig(num_items=18, num_users=60, num_sessions=800, seed=77,
                            preference_scale=2.0, base_appeal=0.4)
        )
        transitions = sessions_to_transitions(corpus.sessions, corpus.catalog)
        clusters = [corpus.truth.user_groups[s.user_id] for s in corpus.sessions]
        bank = QTableBank(4)
        train(bank, transitions, clusters,
              TrainConfig(alpha=0.2, gamma=0.8, epochs=3, deterministic=True))
        reference = reference_trainer(4, transitions, clusters, 0.2, 0.8, 3)
        rng = np.random.default_rng(0)
        tables = bank.tables
        cells = [(key, action) for key, tab in tables.items() for action in tab]
        for idx in rng.choice(len(cells), size=min(100, len(cells)), replace=False):
            key, action = cells[idx]
            assert tables[key][action][0] == pytest.approx(
                reference[key][action][0], abs=1e-12
            )
            assert tables[key][action][1] == reference[key][action][1]

    def test_update_locality(self):
        _, transitions, clusters, _ = toy_mdp(n_clusters=2)
        bank = QTableBank(4)  # two extra clusters never touched
        train(bank, transitions, clusters, TrainConfig(epochs=2, deterministic=True))
        touched = {(clusters[ref], step, action)
                   for ref, step, action, _, _ in table_rows(transitions)}
        stored = {(c, s, a) for c, s, a, _, _ in bank.cells()}
        assert stored == touched
        tables = bank.tables
        for s in (1, 2, 3):
            assert not tables[(2, s)]
            assert not tables[(3, s)]

    @given(
        rewards=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=40),
        alpha=st.sampled_from([0.1, 0.5, 1.0]),
        gamma=st.sampled_from([0.0, 0.5, 0.9]),
        epochs=st.integers(min_value=1, max_value=3),
    )
    def test_q_values_bounded(self, rewards, alpha, gamma, epochs):
        rng = np.random.default_rng(len(rewards))
        rows = []
        for i, r in enumerate(rewards):
            step = int(rng.integers(1, 4))
            base = {1: (1, 2, 3), 2: (4, 5, 6), 3: (7, 8, 9)}[step]
            terminal = step == 3 or bool(rng.integers(2))
            rows.append((i, step, base, float(r), terminal))
        transitions = transition_table(rows)
        bank = QTableBank(1)
        train(bank, transitions, [0] * len(transitions),
              TrainConfig(alpha=alpha, gamma=gamma, epochs=epochs, deterministic=True))
        r_max = max(rewards)
        bound = r_max / (1.0 - gamma) if gamma > 0 else r_max
        for _, _, _, q, _ in bank.cells():
            assert -1e-9 <= q <= bound + 1e-9

    def test_gamma_zero_is_exponentially_weighted_reward_average(self):
        rewards = [3.0, 7.0, 1.0, 9.0, 4.0]
        transitions = transition_table(
            (i, 1, (1, 2, 3), r, False) for i, r in enumerate(rewards)
        )
        bank = QTableBank(1)
        train(bank, transitions, [0] * len(rewards),
              TrainConfig(alpha=0.3, gamma=0.0, epochs=1, deterministic=True))
        expected = exponentially_weighted_value(rewards, 0.3)
        assert q_value(bank, 0, 1, (1, 2, 3)) == pytest.approx(expected, abs=1e-12)

    def test_unknown_cluster_rejected(self):
        bank = QTableBank(1)
        t = transition_table([(0, 1, (1, 2, 3), 1.0, True)])
        with pytest.raises(TrainError, match="cluster"):
            train(bank, t, [5], TrainConfig(deterministic=True))

    @pytest.mark.parametrize(
        "clusters",
        [[0.9, 1.7], np.array([0.0, 1.0]), np.array([True, False]), ["0", "1"]],
        ids=["float-list", "float-array", "bool-array", "str-list"],
    )
    def test_non_integer_clusters_rejected(self, clusters):
        bank = QTableBank(2)
        t = transition_table([(0, 1, (1, 2, 3), 1.0, True), (1, 1, (1, 2, 4), 1.0, True)])
        with pytest.raises(TrainError, match="cluster ids must be integers, got dtype"):
            train(bank, t, clusters, TrainConfig(deterministic=True))
        assert bank.n_cells() == 0

    @pytest.mark.parametrize(
        "clusters",
        [[0, 1], np.array([0, 1]), np.array([0, 1], np.int32), np.array([0, 1], np.uint8)],
        ids=["int-list", "int64-array", "int32-array", "uint8-array"],
    )
    def test_integer_clusters_accepted(self, clusters):
        bank = QTableBank(2)
        t = transition_table([(0, 1, (1, 2, 3), 1.0, True), (1, 1, (1, 2, 4), 1.0, True)])
        train(bank, t, clusters, TrainConfig(epochs=1, deterministic=True))
        assert visit_count(bank, 0, 1, (1, 2, 3)) == visit_count(bank, 1, 1, (1, 2, 4)) == 1

    def test_empty_stream_takes_an_empty_cluster_list(self):
        bank = QTableBank(1)
        train(bank, transition_table([]), [], TrainConfig(deterministic=True))
        assert bank.n_cells() == 0

    @pytest.mark.parametrize("ref", [2, -1])
    def test_missing_assignment_rejected(self, ref):
        bank = QTableBank(2)
        t = transition_table([(ref, 1, (1, 2, 3), 1.0, True)])
        with pytest.raises(TrainError, match=f"no cluster assignment for session {ref}$"):
            train(bank, t, [0, 1], TrainConfig(deterministic=True))
        assert bank.n_cells() == 0

    def test_non_finite_reward_rejected(self):
        bank = QTableBank(1)
        t = transition_table([(0, 1, (1, 2, 3), math.nan, True)])
        with pytest.raises(TrainError, match="finite"):
            train(bank, t, [0], TrainConfig(deterministic=True))

    # ``leads_to`` is the step that the transition leads to, None if terminal.
    @pytest.mark.parametrize(
        "step, leads_to, match",
        [(4, None, "unknown step 4"), (0, 1, "unknown step 0"), (3, 4, "past step 3")],
    )
    def test_transition_without_table_rejected(self, step, leads_to, match):
        t = transition_table([(0, step, (7, 8, 9), 1.0, leads_to is None)])
        with pytest.raises(TrainError, match=match):
            train(QTableBank(1), t, [0], TrainConfig(deterministic=True))

    def test_leaf_reads_only_its_own_clusters_next_table(self):
        # In each epoch cluster 1's step-1 item comes before any update of
        # its step-2 table, right after an update of cluster 0's.
        rows = [
            (0, 2, (5, 6, 7), 9.0, True),
            (1, 1, (1, 2, 3), 1.0, False),
            (2, 2, (5, 6, 8), 4.0, True),
            (3, 1, (1, 2, 4), 0.0, False),
        ]
        clusters = [0, 1, 1, 0]
        bank = QTableBank(2)
        train(bank, transition_table(rows), clusters,
              TrainConfig(alpha=0.5, epochs=3, deterministic=True))
        expected = dict_tables(QTableBank(2))
        single_phase_q_learning(
            expected, [(clusters[ref], *row) for ref, *row in rows], 0.5, 0.9, 3,
        )
        assert exact_cells(bank.tables) == exact_cells(expected)

    @settings(max_examples=150)
    @given(case=training_cases())
    def test_matches_single_phase_oracle_bit_for_bit(self, case):
        bank, transitions, clusters, cfg = case
        expected = dict_tables(bank)
        stream = [(clusters[ref], *row) for ref, *row in table_rows(transitions)]
        single_phase_q_learning(expected, stream, cfg.alpha, cfg.gamma, cfg.epochs)
        train(bank, transitions, clusters, cfg)
        assert exact_cells(bank.tables) == exact_cells(expected)


    @pytest.mark.parametrize("flags", [{"deterministic": True}, {"threads": 2}],
                             ids=["deterministic", "threads-2"])
    def test_deep_stream_bit_for_bit(self, flags):
        corpus = generate_synthetic(
            SyntheticConfig(num_items=18, num_users=90, num_sessions=2000, seed=61,
                            preference_scale=2.0, base_appeal=0.4)
        )
        transitions = sessions_to_transitions(corpus.sessions, corpus.catalog)
        clusters = [corpus.truth.user_groups[s.user_id] % 3 for s in corpus.sessions]
        assert (transitions.step == 3).sum() > 50 and len(set(clusters)) == 3
        bank = QTableBank(3)
        expected = dict_tables(bank)
        stream = [(clusters[ref], *row) for ref, *row in table_rows(transitions)]
        single_phase_q_learning(expected, stream, 0.3, 0.9, 5)
        with forced_pool() as started:
            train(bank, transitions, clusters,
                  TrainConfig(alpha=0.3, gamma=0.9, epochs=5, **flags))
        assert started == ([] if flags.get("deterministic") else [1])
        assert exact_cells(bank.tables) == exact_cells(expected)


def lexsorted(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable order of ``keys``' rows, first column most significant,
    and whether each sorted row differs from the one before, by lexsort."""
    order = np.lexsort(keys.T[::-1])
    ordered = keys[order].tolist()
    return order, np.array([i == 0 or ordered[i] != ordered[i - 1] for i in range(len(keys))],
                           np.bool_)


INT64 = st.integers(-(2**63), 2**63 - 1)


@st.composite
def order_keys(draw):
    """An int64 matrix of 0 to 40 rows and 1 to 4 columns, whose entries
    repeat so that rows tie, over spans from 1 to all of int64."""
    rows, width = draw(st.integers(0, 40)), draw(st.integers(1, 4))
    pool = draw(st.sampled_from([
        st.integers(-3, 3), st.integers(2**40 - 3, 2**40 + 3), st.integers(0, 2**62), INT64,
    ]))
    values = draw(st.lists(pool, min_size=1, max_size=4, unique=True))
    return np.array(draw(st.lists(st.lists(st.sampled_from(values), min_size=width,
                                           max_size=width),
                                  min_size=rows, max_size=rows)),
                    np.int64).reshape(rows, width)


class TestOrder:
    @settings(max_examples=300)
    @given(keys=order_keys())
    @example(keys=np.empty((0, 3), np.int64))
    @example(keys=np.array([[-(2**63)], [2**63 - 1], [-(2**63)]], np.int64))
    # A span of 2**62 over 2 rows packs to exactly 2**63: the first that lexsorts.
    @example(keys=np.array([[2**62 - 1], [0]], np.int64))
    @example(keys=np.array([[2**62 - 2], [0]], np.int64))
    # Its span fits in int64, but not times the 3 rows.
    @example(keys=np.array([[2**62], [0], [1]], np.int64))
    def test_equals_lexsort(self, keys):
        order, opens = qlearning._order(keys)
        expected_order, expected_opens = lexsorted(keys)
        assert order.tolist() == expected_order.tolist()
        assert opens.tolist() == expected_opens.tolist()

    @pytest.mark.parametrize("keys, lexsorts", [
        (np.zeros((0, 2), np.int64), False),
        (np.array([[5]], np.int64), False),
        (np.array([[2**62 - 2], [0]], np.int64), False),
        (np.array([[2**62 - 1], [0]], np.int64), True),
        (np.array([[0, 0], [2**30, 2**30], [0, 1]], np.int64), False),
        (np.array([[0, 0], [2**32, 2**32], [0, 1]], np.int64), True),
    ])
    def test_packs_keys_whose_spans_fit_and_lexsorts_the_others(self, keys, lexsorts,
                                                                monkeypatch):
        calls = []
        monkeypatch.setattr(np, "lexsort", lambda k, _sort=np.lexsort: calls.append(1) or _sort(k))
        qlearning._order(keys)
        assert bool(calls) is lexsorts


def stabbed_max(lo, hi, values, size):
    """Each point's maximum over 0.0 and the values of the intervals that
    contain it, by a double loop."""
    return [max([0.0] + [v for a, b, v in zip(lo, hi, values) if a <= p < b])
            for p in range(size)]


class TestIntervalMax:
    @settings(max_examples=300)
    @given(
        size=st.integers(0, 70),
        intervals=st.lists(st.tuples(st.integers(0, 70), st.integers(0, 70), VALUES),
                           max_size=40),
    )
    @example(size=0, intervals=[(0, 0, 1.0)])
    @example(size=1, intervals=[(0, 1, 3.0), (1, 1, 9.0)])
    @example(size=2, intervals=[(0, 2, 2.0), (1, 2, 1.0)])
    @example(size=37, intervals=[(0, 37, 1.0), (5, 5, 8.0), (3, 36, 2.0), (36, 37, 5.0)])
    def test_matches_brute_force(self, size, intervals):
        # Ends past ``size`` are clipped; empty and reversed intervals hold no point.
        lo = np.array([min(a, size) for a, _, _ in intervals], np.int64)
        hi = np.array([min(b, size) for _, b, _ in intervals], np.int64)
        values = np.array([v for _, _, v in intervals])
        stab = qlearning._IntervalMax(lo, hi, size)
        assert stab(values).tolist() == stabbed_max(lo, hi, values, size)
        # The covering nodes are found once; new values reuse them.
        assert stab(-values).tolist() == stabbed_max(lo, hi, -values, size)


class TestParallelTraining:
    def test_process_backend_bit_identical_to_serial(self):
        corpus = generate_synthetic(
            SyntheticConfig(num_items=18, num_users=80, num_sessions=1500, seed=55,
                            preference_scale=2.0, base_appeal=0.4)
        )
        transitions = sessions_to_transitions(corpus.sessions, corpus.catalog)
        clusters = [corpus.truth.user_groups[s.user_id] for s in corpus.sessions]
        serial = QTableBank(4)
        train(serial, transitions, clusters,
              TrainConfig(alpha=0.1, gamma=0.9, epochs=4, deterministic=True))
        parallel = QTableBank(4)
        with forced_pool() as started:
            train(parallel, transitions, clusters,
                  TrainConfig(alpha=0.1, gamma=0.9, epochs=4, threads=4, backend="process"))
        assert started == [3]
        assert exact_cells(serial.tables) == exact_cells(parallel.tables)

    @pytest.mark.parametrize("threads", [2, 3])
    def test_unequal_clusters_bit_identical_to_serial(self, threads):
        corpus = generate_synthetic(
            SyntheticConfig(num_items=18, num_users=80, num_sessions=1500, seed=58,
                            preference_scale=2.0, base_appeal=0.4)
        )
        transitions = sessions_to_transitions(corpus.sessions, corpus.catalog)
        # Five clusters of unequal volume, about 6:4:3:2:1 for clusters 2, 0,
        # 4, 1, 3: jobs outnumber workers and start out of cluster-id order.
        shares = [2] * 6 + [0] * 4 + [4] * 3 + [1] * 2 + [3]
        clusters = [shares[s.user_id % len(shares)] for s in corpus.sessions]
        volumes = np.bincount(np.array(clusters)[transitions.session_ref], minlength=5)
        assert np.all(np.diff(volumes[[2, 0, 4, 1, 3]]) < 0) and volumes.min() > 0
        serial = QTableBank(5)
        train(serial, transitions, clusters,
              TrainConfig(alpha=0.1, gamma=0.9, epochs=3, deterministic=True))
        parallel = QTableBank(5)
        with forced_pool() as started:
            train(parallel, transitions, clusters,
                  TrainConfig(alpha=0.1, gamma=0.9, epochs=3, threads=threads))
        assert started == [threads - 1]
        assert exact_cells(serial.tables) == exact_cells(parallel.tables)

    def test_single_cluster_trains_in_process(self):
        corpus = generate_synthetic(
            SyntheticConfig(num_items=18, num_users=40, num_sessions=300, seed=57,
                            base_appeal=0.4)
        )
        transitions = sessions_to_transitions(corpus.sessions, corpus.catalog)
        clusters = [1] * len(corpus.sessions)  # cluster 0 of 2 stays empty
        serial = QTableBank(2)
        train(serial, transitions, clusters,
              TrainConfig(alpha=0.1, gamma=0.9, epochs=3, deterministic=True))

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started for one cluster")

        parallel = QTableBank(2)
        with forced_pool(no_pool):
            train(parallel, transitions, clusters,
                  TrainConfig(alpha=0.1, gamma=0.9, epochs=3, threads=8))
        assert serial.n_cells() > 0
        assert exact_cells(serial.tables) == exact_cells(parallel.tables)


@st.composite
def pool_cases(draw):
    """A stream over 1-12 clusters, some of which log nothing, epochs and
    workers."""
    n_clusters = draw(st.integers(1, 12))
    used = sorted(draw(st.sets(st.integers(0, n_clusters - 1), min_size=min(2, n_clusters))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for i in range(draw(st.integers(1, 300))):
        step = int(rng.integers(1, 4))
        slate = tuple(np.sort(rng.choice(6, 3, replace=False) + 10 * step).tolist())
        rows.append((i, step, slate, float(rng.integers(-2, 5)), step == 3 or bool(rng.integers(2))))
    clusters = rng.choice(used, size=len(rows)).tolist()
    return (n_clusters, transition_table(rows), clusters,
            draw(st.integers(1, 4)), draw(st.sampled_from([2, 3])))


def same_columns(a: QTableBank, b: QTableBank) -> bool:
    return all(
        getattr(a, col).dtype == getattr(b, col).dtype
        and getattr(a, col).tobytes() == getattr(b, col).tobytes()
        for col in ("tid", "slate", "q", "visits")
    )


class TestPool:
    @settings(max_examples=25)
    @given(case=pool_cases())
    def test_pool_columns_bit_identical_to_serial_fold(self, case):
        n_clusters, transitions, clusters, epochs, workers = case
        serial, pooled = QTableBank(n_clusters), QTableBank(n_clusters)
        train(serial, transitions, clusters,
              TrainConfig(alpha=0.3, gamma=0.9, epochs=epochs, deterministic=True))
        with forced_pool() as started:
            train(pooled, transitions, clusters,
                  TrainConfig(alpha=0.3, gamma=0.9, epochs=epochs, threads=workers))
        used = min(workers, len(set(clusters)))
        assert started == ([used - 1] if used > 1 else [])
        assert same_columns(serial, pooled)

    def test_pool_pickles_no_stream(self, monkeypatch):
        _, transitions, clusters, _ = toy_mdp(n_clusters=3)
        serial = QTableBank(3)
        train(serial, transitions, clusters, TrainConfig(epochs=3, deterministic=True))

        def refuse(self):
            raise AssertionError("a transition stream was pickled")

        monkeypatch.setattr(qlearning._Stream, "__reduce__", refuse)
        pooled = QTableBank(3)
        with forced_pool() as started:
            train(pooled, transitions, clusters, TrainConfig(epochs=3, threads=3))
        assert started == [2]
        assert serial.n_cells() > 0 and same_columns(serial, pooled)

    def test_without_fork_trains_in_process(self, monkeypatch):
        _, transitions, clusters, _ = toy_mdp(n_clusters=3)
        serial = QTableBank(3)
        train(serial, transitions, clusters, TrainConfig(epochs=2, deterministic=True))

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was started without fork")

        monkeypatch.setattr(qlearning, "_CAN_FORK", False)
        unforked = QTableBank(3)
        with forced_pool(no_pool):
            train(unforked, transitions, clusters, TrainConfig(epochs=2, threads=3))
        assert serial.n_cells() > 0 and same_columns(serial, unforked)

    def test_pool_leaves_no_inherited_state(self):
        _, transitions, clusters, _ = toy_mdp(n_clusters=2)
        with forced_pool() as started:
            train(QTableBank(2), transitions, clusters, TrainConfig(epochs=1, threads=2))
        assert started == [1]
        assert qlearning._FORKED is None

    def test_pool_leaves_no_child_process(self):
        _, transitions, clusters, _ = toy_mdp(n_clusters=3)
        with forced_pool() as started:
            train(QTableBank(3), transitions, clusters, TrainConfig(epochs=1, threads=3))
        assert started == [2]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("volumes, workers, jobs", [
        ([5, 0, 9, 1, 9, 3], 2, [[2, 0], [4, 5, 3]]),
        ([4, 4, 4], 3, [[0], [1], [2]]),
        ([0, 7, 0, 2], 3, [[1], [3], []]),
    ])
    def test_deal_gives_the_largest_cluster_to_the_least_loaded_worker(
            self, volumes, workers, jobs):
        assert qlearning._deal(np.array(volumes), workers) == jobs


def refuse_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


def usable_cores(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


class TestPoolSelection:
    """A stream trains on the pool only where the pool can win: with more
    than one worker after the caps, and at or above the break-even."""

    def test_small_stream_folds_in_process(self, monkeypatch):
        _, transitions, clusters, _ = toy_mdp(n_clusters=3)
        assert np.count_nonzero(~transitions.terminal) * 2 < qlearning._POOL_MIN_READS
        serial = QTableBank(3)
        train(serial, transitions, clusters, TrainConfig(epochs=2, deterministic=True))
        usable_cores(monkeypatch, 2)
        monkeypatch.setattr(qlearning, "ProcessPoolExecutor", refuse_pool)
        small = QTableBank(3)
        train(small, transitions, clusters, TrainConfig(epochs=2, threads=2))
        assert serial.n_cells() > 0 and same_columns(serial, small)

    def test_one_usable_core_folds_in_process(self, monkeypatch):
        _, transitions, clusters, _ = toy_mdp(n_clusters=3)
        serial = QTableBank(3)
        train(serial, transitions, clusters, TrainConfig(epochs=2, deterministic=True))
        monkeypatch.setattr(qlearning, "_POOL_MIN_READS", 0)
        usable_cores(monkeypatch, 1)
        monkeypatch.setattr(qlearning, "ProcessPoolExecutor", refuse_pool)
        capped = QTableBank(3)
        train(capped, transitions, clusters, TrainConfig(epochs=2, threads=8))
        assert serial.n_cells() > 0 and same_columns(serial, capped)

    def test_workers_capped_at_the_usable_cores(self, monkeypatch):
        _, transitions, clusters, _ = toy_mdp(n_clusters=4)
        serial = QTableBank(4)
        train(serial, transitions, clusters, TrainConfig(epochs=2, deterministic=True))
        monkeypatch.setattr(qlearning, "_POOL_MIN_READS", 0)
        usable_cores(monkeypatch, 2)
        dealt = []
        monkeypatch.setattr(qlearning, "_deal", lambda volumes, workers, _deal=qlearning._deal:
                            dealt.append(workers) or _deal(volumes, workers))
        pooled = QTableBank(4)
        train(pooled, transitions, clusters, TrainConfig(epochs=2, threads=8))
        assert dealt == [2]
        assert same_columns(serial, pooled)

    @pytest.mark.parametrize("flags, clusters, below, workers", [
        ({"threads": 8}, 5, False, 2),
        ({"threads": 8}, 1, False, 1),
        ({"threads": 2}, 5, True, 1),
        ({"threads": 8, "deterministic": True}, 5, False, 1),
        ({"threads": 1}, 5, False, 1),
    ])
    def test_workers_on_two_cores(self, monkeypatch, flags, clusters, below, workers):
        usable_cores(monkeypatch, 2)
        # Two epochs over non-terminal transitions that read exactly the
        # break-even, or one transition fewer.
        n = qlearning._POOL_MIN_READS // 2 - below
        cfg = TrainConfig(epochs=2, **flags)
        assert cfg.workers(np.arange(n) % clusters, np.zeros(n, np.bool_)) == workers

    def test_usable_cores_fall_back_to_the_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert qlearning._usable_cores() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert qlearning._usable_cores() == 1


class TestTrainInput:
    """A bad transition stream raises one TrainError that names its first bad
    transition, and trains nothing."""

    @pytest.mark.parametrize(
        "ref, step, reward, terminal, clusters, match",
        [
            (-1, 1, 1.0, True, [0, 0], "no cluster assignment for session -1"),
            (1, 1, 1.0, True, [0, 5], "unknown cluster 5"),
            (1, 1, math.nan, True, [0, 0], "non-finite reward in session 1"),
            (1, 4, 1.0, True, [0, 0], "unknown step 4 in session 1"),
            (1, 3, 1.0, False, [0, 0], "continues past step 3 in session 1"),
        ],
    )
    def test_table_and_rows_raise_the_same_error(self, ref, step, reward, terminal,
                                                  clusters, match):
        table = transition_table([(0, 1, (1, 2, 3), 2.0, False),
                                  (ref, step, (7, 8, 9), reward, terminal)])
        bank = QTableBank(2)
        with pytest.raises(TrainError, match=match):
            train(bank, table, clusters, TrainConfig(deterministic=True))
        assert bank.n_cells() == 0


@pytest.fixture
def restore_gc():
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


class TestPoolPausesGc:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_train_leaves_gc_as_it_found_it(self, restore_gc, enabled):
        _, transitions, clusters, _ = toy_mdp(n_clusters=2)
        (gc.enable if enabled else gc.disable)()
        bank = QTableBank(2)
        with forced_pool() as started:
            train(bank, transitions, clusters, TrainConfig(epochs=1, threads=2))
        assert started == [1]
        assert bank.n_cells() > 0
        assert gc.isenabled() is enabled

    def test_gc_restored_when_the_pool_raises(self, restore_gc):
        _, transitions, clusters, _ = toy_mdp(n_clusters=2)
        paused = []

        def failing_pool(*args, **kwargs):
            paused.append(not gc.isenabled())
            raise RuntimeError("pool failed to start")

        gc.enable()
        with forced_pool(failing_pool) as started, \
                pytest.raises(RuntimeError, match="pool failed to start"):
            train(QTableBank(2), transitions, clusters, TrainConfig(epochs=1, threads=2))
        assert started == [1]
        assert paused == [True]
        assert gc.isenabled()


def catalog_at(*locations) -> ItemCatalog:
    """A catalog with the ids of ``locations[s - 1]`` at location s, each
    priced at its id."""
    return catalog_rows([
        (i, (0.1 * i, 0.2, 0.3, 0.4, 0.5), float(i), s)
        for s, ids in enumerate(locations, 1) for i in ids
    ])


def policy_slates(bank, cluster_id, catalog, min_visits):
    """One cluster's ``export_policies`` row as its three step slates."""
    row = export_policies(bank, catalog, min_visits)[cluster_id].tolist()
    return [tuple(row[0:3]), tuple(row[3:6]), tuple(row[6:9])]


def layer_names(layers):
    """``export_policies``' layer indices as a tuple of names per cluster."""
    return [tuple(POLICY_LAYERS[i] for i in row) for row in layers.tolist()]


class TestPolicies:
    # Items 1-4 are at location 1, 5-8 at 2 and 9-12 at 3.
    CATALOG = catalog_at(range(1, 5), range(5, 9), range(9, 13))

    def build_bank(self):
        return bank_of(2, [
            (0, 1, (1, 2, 3), 1.0, 5), (0, 1, (1, 2, 4), 3.0, 5),
            (0, 2, (5, 6, 7), 2.0, 5), (0, 2, (5, 6, 8), 2.0, 5),
            (0, 3, (9, 10, 11), 4.0, 1),
            (1, 3, (9, 10, 12), 1.5, 6),
        ])

    def test_argmax_and_lexicographic_tie_break(self):
        bank = self.build_bank()
        slates = policy_slates(bank, 0, self.CATALOG, min_visits=3)
        assert slates[0] == (1, 2, 4)  # argmax
        assert slates[1] == (5, 6, 7)  # tie -> lexicographically smaller

    def test_min_visits_forces_global_fallback(self):
        bank = self.build_bank()
        slates = policy_slates(bank, 0, self.CATALOG, min_visits=3)
        # own step-3 cell has 1 visit; cluster 1's cell qualifies globally
        assert slates[2] == (9, 10, 12)

    def test_last_resort_ignores_visit_filter(self):
        bank = bank_of(1, [(0, 1, (1, 2, 3), 1.0, 1), (0, 2, (4, 5, 6), 1.0, 1),
                           (0, 3, (7, 8, 9), 1.0, 1)])
        slates = policy_slates(bank, 0, make_catalog(), min_visits=99)
        assert slates == [(1, 2, 3), (4, 5, 6), (7, 8, 9)]

    def test_untrained_step_is_an_error(self):
        # Location 2 holds two items, too few for the zero table's slate.
        catalog = catalog_at((1, 2, 3), (4, 5), (6, 7, 8))
        bank = bank_of(1, [(0, 1, (1, 2, 3), 1.0, 1)])
        with pytest.raises(TrainError, match="step 2"):
            export_policies(bank, catalog, min_visits=1)

    def test_untrained_step_with_catalog_reads_as_zero_table(self):
        # Without a stored cell every slate of the step reads 0, and the
        # smallest slate wins the tie: the three smallest ids at its location.
        catalog = catalog_at((1, 2, 3), (4, 5, 6, 7), (8, 9, 10))
        bank = bank_of(2, [(0, 1, (1, 2, 3), -1.0, 5), (1, 2, (5, 6, 7), 2.0, 5)])
        assert policy_slates(bank, 0, catalog, min_visits=3) == [(1, 2, 3), (5, 6, 7), (8, 9, 10)]
        assert export_policies(bank, catalog, 3).tolist() == [
            [1, 2, 3, 5, 6, 7, 8, 9, 10], [1, 2, 3, 5, 6, 7, 8, 9, 10]
        ]

    def test_untrained_step_at_a_location_of_two_items_is_an_error(self):
        catalog = catalog_at((1, 2, 3), (4, 5, 6), (7, 8))
        bank = bank_of(1, [(0, 1, (1, 2, 3), 1.0, 5), (0, 2, (4, 5, 6), 1.0, 5)])
        with pytest.raises(TrainError, match="step 3"):
            export_policies(bank, catalog, min_visits=1)

    @pytest.mark.parametrize("slate", [(4, 5, 99), (4, 5, 7)],
                             ids=["unknown-item", "other-location"])
    def test_slate_that_breaks_the_slate_rule_is_named(self, slate):
        # Cluster 1's own step-2 cell wins its step and breaks the rule.
        bank = bank_of(2, [(0, 1, (1, 2, 3), 1.0, 5), (0, 2, (4, 5, 6), 1.0, 5),
                           (0, 3, (7, 8, 9), 1.0, 5), (1, 2, slate, 9.0, 5)])
        with pytest.raises(DataError, match=re.escape(f"cluster 1's slate {slate} at step 2 ")):
            export_policies(bank, make_catalog(), min_visits=3)

    def test_row_with_a_repeated_item_is_named(self):
        # A bank refuses such a slate, but a stored policy row can hold one.
        policies = np.array([[1, 2, 3, 4, 5, 6, 7, 8, 9], [1, 2, 3, 4, 4, 5, 7, 8, 9]])
        with pytest.raises(DataError, match=re.escape("cluster 1's slate (4, 4, 5) at step 2 ")):
            check_policies(policies, make_catalog())

    def test_policy_slates_come_from_observed_actions(self):
        corpus = generate_synthetic(
            SyntheticConfig(num_items=18, num_users=60, num_sessions=1200, seed=31,
                            preference_scale=2.0, base_appeal=0.4)
        )
        transitions = sessions_to_transitions(corpus.sessions, corpus.catalog)
        clusters = [corpus.truth.user_groups[s.user_id] for s in corpus.sessions]
        bank = QTableBank(4)
        train(bank, transitions, clusters, TrainConfig(epochs=2, deterministic=True))
        rows = table_rows(transitions)
        observed = {(clusters[ref], step, action) for ref, step, action, _, _ in rows}
        observed_any = {(step, action) for _, step, action, _, _ in rows}
        for cid in range(4):
            for step, slate in enumerate(policy_slates(bank, cid, corpus.catalog, 3), 1):
                assert ((cid, step, slate) in observed) or ((step, slate) in observed_any)

    def test_tables_view_reads_cells_and_refuses_writes(self):
        bank = bank_of(1, [(0, 1, (1, 2, 3), 2.5, 4)])
        tables = bank.tables
        assert tables[(0, 1)] == {(1, 2, 3): (2.5, 4)}
        assert not tables[(0, 2)]
        with pytest.raises(TypeError):
            tables[(0, 1)][(1, 2, 4)] = (1.0, 1)
        with pytest.raises(TypeError):
            tables[(0, 2)] = {}
        with pytest.raises(ValueError):
            bank.q[0] = 1.0
        assert q_value(bank, 0, 1, (1, 2, 3)) == 2.5
        assert q_value(bank, 0, 2, (4, 5, 6)) == 0.0


def wide_catalog() -> ItemCatalog:
    """Fifteen items, five per location: 1-5 at 1, 6-10 at 2, 11-15 at 3."""
    return catalog_at(range(1, 6), range(6, 11), range(11, 16))


@st.composite
def policy_banks(draw):
    """A bank over 1-4 clusters whose q values tie often and whose steps may
    store no cell, and a ``min_visits`` from below to above every count."""
    n_clusters = draw(st.integers(1, 4))
    slates = st.sampled_from(list(itertools.combinations(range(1, 6), 3)))
    cell = st.tuples(st.integers(0, n_clusters - 1), st.sampled_from(STEPS), slates,
                     st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0]), st.integers(1, 6))
    cells = {}
    for c, step, slate, q, visits in draw(st.lists(cell, max_size=25)):
        cells[(c, step, tuple(i + 5 * (step - 1) for i in slate))] = (q, visits)
    bank = bank_of(n_clusters, [(*key, *value) for key, value in cells.items()])
    return bank, draw(st.integers(1, 7))


class TestGreedyAgainstDictOracle:
    @settings(max_examples=200)
    @given(case=policy_banks())
    @example(case=(bank_of(2, [(0, 1, (1, 2, 3), 1.0, 5), (1, 1, (1, 2, 4), 1.0, 1),
                               (0, 2, (6, 7, 8), 0.0, 1), (1, 2, (6, 7, 9), -0.0, 2)]), 3))
    def test_columnar_policy_equals_dict_scan(self, case):
        bank, min_visits = case
        catalog, tables = wide_catalog(), dict_tables(bank)
        expected = [dict_greedy_policy(tables, bank.n_clusters, c, catalog, min_visits)
                    for c in range(bank.n_clusters)]
        for c, (slates, _) in enumerate(expected):
            assert policy_slates(bank, c, catalog, min_visits) == slates
        policies, layers = export_policies(bank, catalog, min_visits, return_layers=True)
        assert policies.dtype == layers.dtype == np.int64
        assert policies.shape == (bank.n_clusters, 9) and layers.shape == (bank.n_clusters, 3)
        assert policies.tolist() == [[i for slate in slates for i in slate]
                                     for slates, _ in expected]
        assert layer_names(layers) == [layers for _, layers in expected]
        assert np.array_equal(export_policies(bank, catalog, min_visits), policies)

    def test_example_reaches_every_layer(self):
        bank = bank_of(2, [(0, 1, (1, 2, 3), 1.0, 5), (1, 1, (1, 2, 4), 1.0, 1),
                           (0, 2, (6, 7, 8), 0.0, 1), (1, 2, (6, 7, 9), -0.0, 2)])
        _, layers = export_policies(bank, wide_catalog(), 3, return_layers=True)
        assert layer_names(layers) == [("own", "any", "zero"), ("union", "any", "zero")]


class TestReport:
    def test_counts_cells_and_observation_bins(self):
        bank = bank_of(2, [(0, 1, (1, 2, 3), 1.0, 10), (0, 1, (1, 2, 4), 1.0, 29),
                           (0, 1, (1, 3, 4), 1.0, 40), (0, 1, (2, 3, 4), 1.0, 50),
                           (1, 3, (7, 8, 9), 0.0, 99)])
        report = bank.report(epochs=10)
        assert [(r["cluster"], r["step"]) for r in report] == [
            (c, s) for c in range(2) for s in STEPS]
        assert report[0] == {"cluster": 0, "step": 1, "cells": 4,
                             "observations": {"1": 1, "2-4": 2, "5+": 1}}
        assert report[5] == {"cluster": 1, "step": 3, "cells": 1,
                             "observations": {"1": 0, "2-4": 0, "5+": 1}}
        assert all(r["cells"] == 0 for r in report[1:5])


@pytest.fixture(scope="module")
def fitted():
    corpus = generate_synthetic(
        SyntheticConfig(num_items=18, num_users=200, num_sessions=3000, seed=23,
                        preference_scale=3.0, price_range=(3, 5), base_appeal=0.5)
    )
    params = PipelineParams(
        k_features=6, l1_penalty=0.1, cluster={"method": "kmeans", "k": 4},
        min_cluster_support=100, epochs=5, seed=1, deterministic=True,
    )
    model, _ = fit_pipeline(corpus.sessions, corpus.catalog, params)
    return corpus, model


def recommend_one(model, record, catalog):
    """The batch inference path called on a single session."""
    (items,) = recommend_for_sessions(model, SessionTable.from_records([record]), catalog)
    return items


class TestRecommend:
    def test_nine_items_in_step_order(self, fitted):
        corpus, model = fitted
        items = recommend_one(model, next(iter(corpus.sessions)), corpus.catalog)
        assert len(items) == 9
        for pos, item in enumerate(items, 1):
            assert corpus.catalog.location(item) == (pos - 1) // 3 + 1

    def test_same_cluster_users_get_identical_output(self, fitted):
        corpus, model = fitted
        from qslate.features import build_raw_features, transform

        raw = build_raw_features(corpus.sessions.take(np.arange(50)), corpus.catalog)
        cids = model.cluster_model.assign_many(transform(raw, model.components))[raw.rows]
        outputs = {}
        for sess, cid in zip(corpus.sessions.take(np.arange(50)), cids):
            items = tuple(recommend_one(model, sess, corpus.catalog))
            outputs.setdefault(int(cid), set()).add(items)
        assert all(len(v) == 1 for v in outputs.values())

    def test_location_constraint_for_many_users(self, fitted):
        corpus, model = fitted
        for sess in corpus.sessions.take(np.arange(1000)):
            items = recommend_one(model, sess, corpus.catalog)
            assert [corpus.catalog.location(i) for i in items] == [1, 1, 1, 2, 2, 2, 3, 3, 3]


class TestBankSerialization:
    def test_round_trip(self, tmp_path):
        _, transitions, clusters, _ = toy_mdp()
        bank = QTableBank(3)
        train(bank, transitions, clusters, TrainConfig(epochs=2, deterministic=True))
        path = tmp_path / "qtables.json"
        bank.save(path, stamp="zz")
        loaded, stamp = QTableBank.load(path)
        assert stamp == "zz"
        assert loaded.n_clusters == 3
        assert loaded.tables == bank.tables

    @given(cells=st.dictionaries(
        st.tuples(st.integers(0, 2), st.sampled_from(STEPS),
                  st.sampled_from([(1, 2, 3), (1, 2, 4), (-7, 0, 2**62)])),
        st.tuples(st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300]),
                            st.floats(allow_nan=False, allow_infinity=False)),
                  st.integers(1, 2**63 - 1)),
        max_size=12,
    ))
    @example(cells={(0, 1, (1, 2, 3)): (-0.0, 1), (1, 3, (1, 2, 4)): (5e-324, 2**63 - 1),
                    (2, 2, (1, 2, 3)): (1e300, 3)})
    def test_round_trip_is_exact(self, tmp_path_factory, cells):
        bank = bank_of(3, [(*key, *cell) for key, cell in cells.items()])
        path = tmp_path_factory.mktemp("bank") / "qtables.json"
        bank.save(path, stamp="zz")
        loaded, _ = QTableBank.load(path)
        for column in ("tid", "slate", "q", "visits"):
            a, b = getattr(loaded, column), getattr(bank, column)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), column

    def test_load_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "qtables.json"
        path.write_text('{"format": "something-else", "version": 2}')
        with pytest.raises(ModelFileError):
            QTableBank.load(path)

    def test_load_refuses_version_1(self, tmp_path):
        path = tmp_path / "qtables.json"
        path.write_text(json.dumps({
            "format": "qslate-qtables", "version": 1, "stamp": "zz", "n_clusters": 1,
            "tables": {"0": {"1": {"1-2-3": [2.5, 4]}, "2": {}, "3": {}}},
        }))
        with pytest.raises(ModelFileError, match="unsupported version 1$"):
            QTableBank.load(path)

    def test_load_refuses_version_2(self, tmp_path):
        path = tmp_path / "qtables.json"
        path.write_text(json.dumps({
            "format": "qslate-qtables", "version": 2, "stamp": "zz", "n_clusters": 1,
            "tables": {"0": {"1": {"slates": [[1, 2, 3]], "q": [2.5], "visits": [4]}}},
        }))
        with pytest.raises(ModelFileError, match="unsupported version 2$"):
            QTableBank.load(path)

    def test_save_writes_columns_in_bank_order(self, tmp_path):
        path = tmp_path / "qtables.json"
        bank_of(2, [(1, 3, (7, 8, 9), 0.5, 1), (0, 1, (1, 2, 4), 2.5, 4),
                    (0, 1, (1, 2, 3), 1.0, 2)]).save(path, stamp="zz")
        payload = json.loads(path.read_text())
        assert payload["cells"] == [2, 0, 0, 0, 0, 1]
        assert payload["slate"] == [1, 2, 3, 1, 2, 4, 7, 8, 9]
        assert (payload["q"], payload["visits"]) == ([1.0, 2.5, 0.5], [2, 4, 1])

    @pytest.mark.parametrize(
        "slate, cell, reason",
        [
            ([1, 2, 3], [math.nan, 4], "the cell (1, 2, 3) of cluster 0, step 1 has q nan, "
             "visits 4"),
            ([1, 2, 3], [-math.inf, 4], "the cell (1, 2, 3) of cluster 0, step 1 has q -inf, "
             "visits 4"),
            ([1, 2, 3], [2.5, 0], "the cell (1, 2, 3) of cluster 0, step 1 has q 2.5, visits 0"),
            ([8, 5, 2], [2.5, 4], "the cell (8, 5, 2) of cluster 0, step 1 does not list its "
             "items in strictly ascending order"),
            ([3, 6], [2.5, 4], "bank columns differ in length: 2 cluster, 2 step, 2 q and "
             "2 visits values, and 5 slate items"),
            ([1, 1, 2], [2.5, 4], "the cell (1, 1, 2) of cluster 0, step 1 does not list its "
             "items in strictly ascending order"),
            ([1, 2, 3], [True, 2.7], "the q of cell 0 is True, not a number"),
            ([1, 2, 3], ["1e3", "5"], "the q of cell 0 is '1e3', not a number"),
            ([1, 2, 3], [1.0, 2.7], "the visit count of cell 0 is 2.7, not an integer"),
            ([1, 2, 3], [1.0, True], "the visit count of cell 0 is True, not an integer"),
            ([1, 2, 3], [10**400, 4], "int too large to convert to float"),
            ([True, 2, 3], [2.5, 4], "an item of cell 0's slate is True, not an integer"),
            (["1-2-3"], [2.5, 4], "an item of cell 0's slate is '1-2-3', not an integer"),
        ],
        ids=["nan-q", "inf-q", "zero-visits", "descending", "two-items", "repeated-item",
             "bool-q", "string-cell", "fractional-visits", "bool-visits", "huge-int-q",
             "bool-item", "string-slate"],
    )
    def test_load_rejects_malformed_cell(self, tmp_path, slate, cell, reason):
        path = tmp_path / "qtables.json"
        bank_of(1, [(0, 1, (1, 2, 3), 2.5, 4), (0, 2, (4, 5, 6), 1.0, 2)]).save(path, stamp="zz")
        payload = json.loads(path.read_text())
        payload["slate"][:3] = slate
        payload["q"][0], payload["visits"][0] = cell
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFileError, match=re.escape(reason) + "$") as raised:
            QTableBank.load(path)
        assert raised.value.path == str(path)

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda p: p["q"].append(2.5), "bank columns differ in length: 1 cluster, "
             "1 step, 2 q and 1 visits values, and 3 slate items"),
            (lambda p: p.update(cells=[0, 2, 0], slate=[4, 5, 6, 4, 5, 6], q=[1.0, 2.5],
                                visits=[2, 4]),
             "slate (4, 5, 6) is stored twice in the table of cluster 0, step 2"),
            (lambda p: p.update(visits=[2**70]), "Python int too large to convert to C long"),
            (lambda p: p.pop("q"), "lacks field 'q'"),
            (lambda p: p.update(cells=[0, 0, 0, 1]), "no table for cluster 1, step 1"),
            (lambda p: p.update(cells=[0, 1.0, 0]),
             "the cell count of table 1 is 1.0, not an integer"),
            (lambda p: p.update(q=[[1.0]]), "bank columns differ in length: 1 cluster, "
             "1 step, 1 q and 1 visits values, and 3 slate items"),
            (lambda p: p.update(n_clusters=4.0), "n_clusters is 4.0, not an integer"),
            (lambda p: p.update(n_clusters=[1]), "n_clusters is [1], not an integer"),
        ],
        ids=["ragged-columns", "repeated-slate", "huge-visits", "missing-q", "unknown-table",
             "fractional-count", "nested-q", "fractional-clusters", "listed-clusters"],
    )
    def test_load_rejects_malformed_table(self, tmp_path, edit, reason):
        path = tmp_path / "qtables.json"
        bank_of(1, [(0, 2, (4, 5, 6), 1.0, 2)]).save(path, stamp="zz")
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFileError, match=re.escape(reason) + "$"):
            QTableBank.load(path)
