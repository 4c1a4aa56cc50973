"""Independent oracles used by the test suite.

Everything here recomputes expected results from first principles (value
iteration, double loops, closed forms) without touching the implementation
paths under test.
"""

from __future__ import annotations

import itertools
import math
from math import comb

import numpy as np

from qslate.errors import DataError, TrainError
from qslate.features import FeatureMatrix
from qslate.ingest import (
    N_PORTRAITS,
    STEPS,
    GroundTruth,
    ItemCatalog,
    SessionRecord,
    TransitionTable,
)
from qslate.qlearning import QTableBank


def value_iteration(outcomes: dict, gamma: float) -> dict:
    """Exact Q* for an enumerable deterministic 3-step MDP.

    ``outcomes`` maps (cluster, step, action) -> (reward, continues); a
    non-continuing action ends the episode.
    """
    clusters = sorted({c for c, _, _ in outcomes})
    q: dict = {}
    v: dict = {}
    for step in (3, 2, 1):
        for (c, s, a), (reward, continues) in outcomes.items():
            if s != step:
                continue
            future = v.get((c, s + 1), 0.0) if continues else 0.0
            q[(c, s, a)] = reward + gamma * future
        for c in clusters:
            vals = [q[key] for key in q if key[0] == c and key[1] == step]
            if vals:
                v[(c, step)] = max(vals)
    return q


def by_id(catalog: ItemCatalog, column: str) -> dict:
    """The catalog's ``column`` as a dict from item id to value."""
    return dict(zip(catalog.ids.tolist(), getattr(catalog, column).tolist()))


def naive_metric_score(recommendations, sessions, catalog: ItemCatalog, weights):
    """Double-loop recomputation of the weighted revenue score."""
    price, location = by_id(catalog, "prices"), by_id(catalog, "locations")
    per_step = [0.0, 0.0, 0.0]
    for rec, sess in zip(recommendations, sessions):
        purchased = []
        for it, lab in zip(sess.exposed_slate, sess.purchase_labels):
            if lab:
                purchased.append(it)
        flat = list(rec)
        step_items = [flat[0:3], flat[3:6], flat[6:9]]
        for st in (1, 2, 3):
            for it in step_items[st - 1]:
                if it in purchased and location[it] == st:
                    per_step[st - 1] += price[it]
    total = sum(w * v for w, v in zip(weights, per_step)) / len(sessions)
    return total, tuple(per_step)


def row_step_values(recommendations, sessions, catalog: ItemCatalog) -> tuple[float, ...]:
    """Per-step credited revenue, walked session by session: each step's
    distinct recommended items in ascending order, each bought one of the
    step's location added to a running total from 0.0."""
    price = by_id(catalog, "prices")
    value = [0.0, 0.0, 0.0]
    for rec, sess in zip(recommendations, sessions):
        steps = (rec[0:3], rec[3:6], rec[6:9])
        purchased = {it for it, lab in zip(sess.exposed_slate, sess.purchase_labels) if lab}
        for st, items in enumerate(steps, 1):
            for it in sorted(set(items)):
                if it in purchased and catalog.location(it) == st:
                    value[st - 1] += price[it]
    return tuple(value)


TRANSITION_COLUMNS = ("session_ref", "step", "action", "reward", "terminal")


def transition_table(rows) -> TransitionTable:
    """The table of ``(session_ref, step, action, reward, terminal)`` tuples,
    each action a 3-tuple that becomes a row of the n×3 action column."""
    rows = list(rows)
    ref, step, action, reward, terminal = list(zip(*rows)) or [()] * len(TRANSITION_COLUMNS)
    return TransitionTable(
        np.array(ref, np.int64),
        np.array(step, np.int64),
        np.array(action, np.int64).reshape(-1, 3),
        np.array(reward, np.float64),
        np.array(terminal, np.bool_),
    )


def table_rows(table: TransitionTable) -> list[tuple]:
    """The table's ``(session_ref, step, action, reward, terminal)`` tuples,
    each value a Python object and each action a 3-tuple."""
    columns = [getattr(table, name).tolist() for name in TRANSITION_COLUMNS]
    columns[2] = map(tuple, columns[2])
    return list(zip(*columns))


def _row_floats(text: str, line_no: int) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != N_PORTRAITS:
        raise DataError(f"line {line_no}: expected {N_PORTRAITS} portraits, got {len(parts)}")
    try:
        values = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise DataError(f"line {line_no}: bad portraits value: {exc}") from None
    if not all(map(math.isfinite, values)):
        raise DataError(f"line {line_no}: non-finite portraits value in {text!r}")
    return values


def _row_ints(text: str, what: str, line_no: int) -> tuple[int, ...]:
    if text == "-":
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise DataError(f"line {line_no}: bad {what} value in {text!r}") from None


def _row_int64(text: str, what: str, line_no: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise DataError(f"line {line_no}: bad {what} {text!r}") from None
    if not -(2**63) <= value < 2**63:
        raise DataError(f"line {line_no}: {what} {value} outside the 64-bit range")
    return value


def row_parse_sessions(text: str, catalog: ItemCatalog) -> list[SessionRecord]:
    """Line-by-line parse of a session file, each line checked field by
    field and the first failing check raised."""
    sessions = []
    for line_no, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        fields = line.split(" ")
        if len(fields) != 6:
            raise DataError(f"line {line_no}: expected 6 fields, got {len(fields)}")
        user_id = _row_int64(fields[0], "user_id", line_no)
        clicks = _row_ints(fields[1], "click history", line_no)
        for c in clicks:
            if c not in catalog:
                raise DataError(f"line {line_no}: clicked item {c} not in catalog")
        portraits = _row_floats(fields[2], line_no)
        slate = _row_ints(fields[3], "exposed slate", line_no)
        if len(slate) != 9:
            raise DataError(f"line {line_no}: expected 9 slate items, got {len(slate)}")
        labels = _row_ints(fields[4], "labels", line_no)
        if len(labels) != 9:
            raise DataError(f"line {line_no}: expected 9 labels, got {len(labels)}")
        if any(v not in (0, 1) for v in labels):
            raise DataError(f"line {line_no}: labels must be 0 or 1")
        timestamp = _row_int64(fields[5], "timestamp", line_no)
        for pos, item_id in enumerate(slate, 1):
            if item_id not in catalog:
                raise DataError(f"line {line_no}: slate item {item_id} not in catalog")
            expected = (pos - 1) // 3 + 1
            actual = catalog.location(item_id)
            if actual != expected:
                raise DataError(
                    f"line {line_no}: slate position {pos} holds item {item_id} "
                    f"with location {actual}, expected {expected}"
                )
        for step in (1, 2, 3):
            if len(set(slate[(step - 1) * 3 : step * 3])) != 3:
                raise DataError(f"line {line_no}: duplicate item within step {step} row")
        sessions.append(
            SessionRecord(
                user_id, frozenset(clicks), portraits, slate, tuple(map(bool, labels)), timestamp
            )
        )
    return sessions


def row_serialize_sessions(sessions) -> str:
    """Record-by-record rendering of a session file: each row's clicks,
    portraits, slate and labels joined afresh."""
    lines = []
    for s in sessions:
        clicks = ",".join(str(c) for c in sorted(s.clicked_items)) or "-"
        portraits = ",".join(repr(float(p)) for p in s.portraits)
        slate = ",".join(str(i) for i in s.exposed_slate)
        labels = ",".join("1" if b else "0" for b in s.purchase_labels)
        lines.append(f"{s.user_id} {clicks} {portraits} {slate} {labels} {s.timestamp}")
    return "\n".join(lines) + ("\n" if lines else "")


def row_transitions(sessions, catalog: ItemCatalog) -> TransitionTable:
    """Session-by-session walk: step 1 always, each later step only after a
    fully purchased one; the reward sums the purchased prices with ``sum``."""
    price = by_id(catalog, "prices")
    rows = []
    for ref, s in enumerate(sessions):
        for step in (1, 2, 3):
            lo = (step - 1) * 3
            row = s.exposed_slate[lo : lo + 3]
            labels = s.purchase_labels[lo : lo + 3]
            reward = sum(price[it] for it, lab in zip(row, labels) if lab)
            all_purchased = all(labels)
            terminal = not all_purchased or step == 3
            rows.append((ref, step, tuple(sorted(row)), float(reward), terminal))
            if not all_purchased:
                break
    return transition_table(rows)


def adjusted_rand_index(labels_a, labels_b) -> float:
    labels_a = list(labels_a)
    labels_b = list(labels_b)
    n = len(labels_a)
    contingency: dict = {}
    for a, b in zip(labels_a, labels_b):
        contingency[(a, b)] = contingency.get((a, b), 0) + 1
    sum_cells = sum(comb(c, 2) for c in contingency.values())
    rows: dict = {}
    cols: dict = {}
    for (a, b), c in contingency.items():
        rows[a] = rows.get(a, 0) + c
        cols[b] = cols.get(b, 0) + c
    sum_rows = sum(comb(c, 2) for c in rows.values())
    sum_cols = sum(comb(c, 2) for c in cols.values())
    expected = sum_rows * sum_cols / comb(n, 2)
    max_index = (sum_rows + sum_cols) / 2
    return (sum_cells - expected) / (max_index - expected)


def exponentially_weighted_value(rewards, alpha: float) -> float:
    """Closed-form tabular value after in-order updates with gamma = 0."""
    q = 0.0
    for r in rewards:
        q = q + alpha * (r - q)
    return q


def single_phase_q_learning(tables, stream, alpha: float, gamma: float, epochs: int) -> None:
    """Bit-exact reference trainer: every update of every table in one loop.

    ``tables`` maps (cluster, step) to {slate: [q, visits]} and is updated in
    place; ``stream`` holds (cluster, step, slate, reward, terminal) items,
    replayed in order each epoch.  Each table's running maximum is kept
    incrementally, rescanning only when the maximal cell decreases.
    """
    tmax = {
        key: (max(cell[0] for cell in tab.values()) if tab else 0.0)
        for key, tab in tables.items()
    }
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


def bank_of(n_clusters: int, cells) -> QTableBank:
    """A bank of ``(cluster, step, slate, q, visits)`` cells, built through
    the bank's column constructor."""
    cells = list(cells)
    columns = [list(col) for col in zip(*cells)] or [[]] * 5
    return QTableBank.from_columns(n_clusters, *columns)


def dict_tables(bank: QTableBank) -> dict:
    """The bank as mutable dict tables, (cluster, step) -> {slate: [q, visits]},
    for every table, as ``single_phase_q_learning`` and
    ``dict_greedy_policy`` read them."""
    return {key: {slate: list(cell) for slate, cell in tab.items()}
            for key, tab in bank.tables.items()}


def q_value(bank: QTableBank, cluster: int, step: int, slate) -> float:
    """A cell's q; an absent cell reads 0."""
    return bank.tables[(cluster, step)].get(tuple(slate), (0.0, 0))[0]


def visit_count(bank: QTableBank, cluster: int, step: int, slate) -> int:
    """A cell's visits; an absent cell has none."""
    return bank.tables[(cluster, step)].get(tuple(slate), (0.0, 0))[1]


def dict_greedy_policy(tables: dict, n_clusters: int, cluster_id: int,
                       catalog: ItemCatalog, min_visits: int):
    """The greedy policy by a scan of every table per layer: the slates and,
    per step, the layer that chose each (own, union, any or zero).  Highest
    q wins; ties go to the lexicographically smallest slate."""
    def best(entries):
        return min(entries, key=lambda e: (-e[1], e[0]))[0]

    slates, layers = [], []
    for step in STEPS:
        own = [(slate, cell[0]) for slate, cell in tables[(cluster_id, step)].items()
               if cell[1] >= min_visits]
        union = [(slate, cell[0]) for c in range(n_clusters)
                 for slate, cell in tables[(c, step)].items() if cell[1] >= min_visits]
        stored = [(slate, cell[0]) for c in range(n_clusters)
                  for slate, cell in tables[(c, step)].items()]
        for layer, entries in (("own", own), ("union", union), ("any", stored)):
            if entries:
                slates.append(tuple(best(entries)))
                layers.append(layer)
                break
        else:
            if len(catalog.by_location[step]) < 3:
                raise TrainError(f"no trained action exists for step {step}")
            slates.append(tuple(catalog.by_location[step][:3]))
            layers.append("zero")
    return slates, tuple(layers)


# ---------------------------------------------------------------------------
# Ground-truth-model scoring (synthetic corpora only)


def _session_probs(truth: GroundTruth, catalog: ItemCatalog, user_id: int, items):
    return [truth.purchase_probability(user_id, catalog, i) for i in items]


def expected_session_value(
    truth: GroundTruth, catalog: ItemCatalog, user_id: int, flat_items, weights
) -> float:
    """Expected weighted revenue of one 9-item recommendation under the
    generator's model, honoring the purchase-gated step progression."""
    slates = [flat_items[0:3], flat_items[3:6], flat_items[6:9]]
    probs = [_session_probs(truth, catalog, user_id, slate) for slate in slates]
    price = by_id(catalog, "prices")
    values = [
        sum(price[i] * p for i, p in zip(slate, ps))
        for slate, ps in zip(slates, probs)
    ]
    reach2 = probs[0][0] * probs[0][1] * probs[0][2]
    reach3 = reach2 * probs[1][0] * probs[1][1] * probs[1][2]
    return weights[0] * values[0] + weights[1] * reach2 * values[1] + weights[2] * reach3 * values[2]


def expected_policy_score(recommendations, sessions, truth, catalog, weights) -> float:
    total = 0.0
    for rec, sess in zip(recommendations, sessions):
        total += expected_session_value(truth, catalog, sess.user_id, list(rec), weights)
    return total / len(sessions)


def best_group_slates(
    sessions: list[SessionRecord], truth: GroundTruth, catalog: ItemCatalog, weights
) -> dict:
    """Brute-force-enumerated optimal fixed slates per planted user group.

    Enumerates every location-valid slate per step; a dynamic-programming
    pass on group-mean probabilities seeds exact coordinate ascent over the
    full per-session objective, iterating each step's full slate enumeration
    until no single-step swap improves the expected score.
    """
    item_ids = catalog.ids
    prices = catalog.prices
    by_loc = [np.array(catalog.by_location[loc]) for loc in (1, 2, 3)]
    id_to_col = {int(i): j for j, i in enumerate(item_ids)}

    users = sorted({s.user_id for s in sessions})
    user_row = {u: r for r, u in enumerate(users)}
    probs = np.array(
        [
            [truth.purchase_probability(u, catalog, i) for i in item_ids.tolist()]
            for u in users
        ]
    )

    slates_per_step = []
    for loc_items in by_loc:
        combos = np.array(list(itertools.combinations(sorted(int(i) for i in loc_items), 3)))
        slates_per_step.append(combos)

    result = {}
    groups = sorted({truth.user_groups[s.user_id] for s in sessions})
    for g in groups:
        rows = np.array([user_row[s.user_id] for s in sessions if truth.user_groups[s.user_id] == g])
        p = probs[rows]  # (n_sessions_in_group, n_items)

        step_v = []
        step_r = []
        for combos in slates_per_step:
            cols = np.vectorize(id_to_col.get)(combos)  # (n_slates, 3)
            slate_p = p[:, cols]  # (n, n_slates, 3)
            step_v.append((prices[cols][None, :, :] * slate_p).sum(axis=2))  # (n, n_slates)
            step_r.append(slate_p.prod(axis=2))  # (n, n_slates)

        # DP seed on group means.
        v_mean = [v.mean(axis=0) for v in step_v]
        r_mean = [r.mean(axis=0) for r in step_r]
        s3 = int(np.argmax(weights[2] * v_mean[2]))
        s2 = int(np.argmax(weights[1] * v_mean[1] + r_mean[1] * weights[2] * v_mean[2][s3]))
        s1 = int(
            np.argmax(
                weights[0] * v_mean[0]
                + r_mean[0] * (weights[1] * v_mean[1][s2] + r_mean[1][s2] * weights[2] * v_mean[2][s3])
            )
        )

        def objective(i1, i2, i3):
            return (
                weights[0] * step_v[0][:, i1]
                + step_r[0][:, i1]
                * (weights[1] * step_v[1][:, i2] + step_r[1][:, i2] * weights[2] * step_v[2][:, i3])
            ).sum()

        for _ in range(20):
            tail = weights[1] * step_v[1][:, s2] + step_r[1][:, s2] * weights[2] * step_v[2][:, s3]
            cand1 = (weights[0] * step_v[0] + step_r[0] * tail[:, None]).sum(axis=0)
            new1 = int(np.argmax(cand1))
            gate1 = step_r[0][:, new1]
            cand2 = (
                weights[1] * step_v[1] * gate1[:, None]
                + step_r[1] * (gate1 * weights[2] * step_v[2][:, s3])[:, None]
            ).sum(axis=0)
            new2 = int(np.argmax(cand2))
            gate2 = gate1 * step_r[1][:, new2]
            cand3 = (weights[2] * step_v[2] * gate2[:, None]).sum(axis=0)
            new3 = int(np.argmax(cand3))
            if (new1, new2, new3) == (s1, s2, s3):
                break
            s1, s2, s3 = new1, new2, new3

        flat = (
            [int(i) for i in slates_per_step[0][s1]]
            + [int(i) for i in slates_per_step[1][s2]]
            + [int(i) for i in slates_per_step[2][s3]]
        )
        result[g] = (flat, float(objective(s1, s2, s3)) / len(rows))
    return result


def oracle_score(sessions, truth, catalog, weights) -> float:
    """Average expected score of the per-group optimal slates."""
    best = best_group_slates(sessions, truth, catalog, weights)
    total = 0.0
    for sess in sessions:
        flat = best[truth.user_groups[sess.user_id]][0]
        total += expected_session_value(truth, catalog, sess.user_id, flat, weights)
    return total / len(sessions)


# ---------------------------------------------------------------------------
# Deterministic toy MDP shared by the Q-learning tests


def toy_mdp(
    n_clusters: int = 3,
    actions_per_step: int = 4,
    repeats: int = 5,
    seed: int = 3,
    shuffle: bool = True,
):
    """Enumerable deterministic MDP rendered as a transition stream.

    Returns (catalog, transitions, cluster_of_session, outcomes) where
    ``outcomes`` is the exact MDP description for the value-iteration
    oracle.  Every (cluster, step, action) cell appears ``repeats`` times
    per epoch with one fixed outcome, so cell updates commute.
    """
    rng = np.random.default_rng(seed)
    n_items = 3 * actions_per_step  # actions_per_step items per location
    item_ids = np.arange(1, n_items + 1)
    catalog = ItemCatalog(
        item_ids, np.zeros((n_items, 5)), item_ids.astype(np.float64), (item_ids - 1) % 3 + 1
    )
    action_sets = {}
    for step in (1, 2, 3):
        members = sorted(catalog.by_location[step])
        combos = sorted(itertools.combinations(members, 3))
        idx = rng.choice(len(combos), size=min(actions_per_step, len(combos)), replace=False)
        action_sets[step] = [combos[i] for i in sorted(idx)]

    outcomes = {}
    for c in range(n_clusters):
        for step in (1, 2, 3):
            for a in action_sets[step]:
                reward = float(rng.integers(1, 21))
                continues = bool(step < 3 and rng.random() < 0.7)
                outcomes[(c, step, a)] = (reward, continues)

    rows = []
    clusters = []
    for _ in range(repeats):
        for (c, step, a), (reward, continues) in outcomes.items():
            rows.append((len(rows), step, a, reward, not continues))
            clusters.append(c)
    if shuffle:
        order = rng.permutation(len(rows))
        rows = [(i, *rows[j][1:]) for i, j in enumerate(order)]
        clusters = [clusters[j] for j in order]
    return catalog, transition_table(rows), clusters, outcomes


def backward_ordered(transitions: TransitionTable):
    """The table's rows by falling step, stable, with session refs
    renumbered in the new order; returns the table and the order."""
    rows = table_rows(transitions)
    order = sorted(range(len(rows)), key=lambda i: -rows[i][1])
    return transition_table((i, *rows[j][1:]) for i, j in enumerate(order)), order


def residual_sparse_pca(values, k, l1_penalty, zscore_mask, seed=0, max_iter=200, tol=1e-7):
    """Thresholded power iteration on the deflated standardized data itself.

    The reference for both forms of ``qslate.features.fit_sparse_pca``:
    every power step makes two passes over the ``n`` unweighted session
    rows, and each component is removed from the rows by projection.  The rank floor is the same
    ``1e-10`` of the starting ``trace(R^T R / n)``.  Returns loadings,
    explained variances, degenerate flags, iteration counts and convergence
    flags.
    """
    values = np.asarray(values, dtype=np.float64)
    n, p = values.shape
    means = values.mean(axis=0)
    scales = np.ones(p)
    if zscore_mask.any():
        stds = values[:, zscore_mask].std(axis=0)
        stds[stds == 0.0] = 1.0
        scales[zscore_mask] = stds
    residual = (values - means) / scales
    rng = np.random.default_rng(seed)
    rank_floor = 1e-10 * float((residual * residual).sum()) / n

    loadings = np.zeros((k, p))
    explained = np.zeros(k)
    degenerate, n_iter, converged = [], [], []
    for j in range(k):
        if float((residual * residual).sum()) / n <= rank_floor:
            degenerate.append(True)
            n_iter.append(0)
            converged.append(True)
            continue
        v = rng.normal(size=p)
        v /= np.linalg.norm(v)
        done = False
        for step in range(1, max_iter + 1):
            w = residual.T @ (residual @ v) / n
            if l1_penalty > 0.0:
                level = l1_penalty * np.abs(w).max(initial=0.0)
                w = np.sign(w) * np.maximum(np.abs(w) - level, 0.0)
            norm = np.linalg.norm(w)
            if norm == 0.0:
                assert l1_penalty == 0.0, f"component {j} collapsed"
                v = np.zeros(p)
                done = True
                break
            v_new = w / norm
            delta = float(np.linalg.norm(v_new - v))
            v = v_new
            if delta < tol:
                done = True
                break
        if v.any() and v[int(np.argmax(np.abs(v)))] < 0:
            v = -v
        scores = residual @ v
        explained[j] = float(scores @ scores) / n
        loadings[j] = v
        degenerate.append(not v.any())
        n_iter.append(step)
        converged.append(done)
        residual = residual - np.outer(scores, v)
    return loadings, explained, tuple(degenerate), tuple(n_iter), tuple(converged)


def one_shot_covariance(values, means, scales, root_w):
    """``C = F^T F`` from the whole weighted matrix ``F`` at once.

    The reference for ``qslate.features._covariance``, which sums the same
    product over row blocks: ``F`` is ``values`` standardized by ``means``
    and ``scales``, each row scaled by ``root_w``, built as one ``u x p``
    array, and BLAS reduces it in one exactly symmetric rank-k update.
    """
    rows = values - means
    rows /= scales
    rows *= root_w[:, None]
    return rows.T @ rows


def whole_matrix_transform(X, components):
    """Projection through one standardized copy of the whole matrix.

    The reference for ``qslate.features.transform``, which standardizes one
    column at a time: this builds the ``n x p`` standardized matrix first and
    then accumulates its columns in the same order, so the two agree bit for
    bit.
    """
    values = X.values if isinstance(X, FeatureMatrix) else np.asarray(X, dtype=np.float64)
    if values.ndim == 1:
        values = values[None, :]
    out = np.zeros((values.shape[0], components.k))
    standardized = (values - components.column_means) / components.column_scales
    loadings_t = components.loadings.T
    for col in range(components.n_cols):
        out += standardized[:, col : col + 1] * loadings_t[col]
    return out


def unweighted_kmeans(Z, k, seed=0, max_iter=100):
    """k-means++ and Lloyd with one training point per row and no weights.

    The reference for ``qslate.clustering.fit_kmeans`` without ``rows``,
    which must match it bit for bit: the same seeding draws, the same means
    and the same inertia sums.  Returns centroids, labels and the inertia
    history.
    """
    Z = np.asarray(Z, dtype=np.float64)
    n = len(Z)

    def sq_dists(A, B):
        d2 = (A * A).sum(axis=1)[:, None] + (B * B).sum(axis=1)[None, :] - 2.0 * (A @ B.T)
        np.maximum(d2, 0.0, out=d2)
        return d2

    rng = np.random.default_rng(seed)
    first = int(rng.integers(n))
    centroids = [Z[first]]
    d2 = sq_dists(Z, Z[first][None, :])[:, 0]
    while len(centroids) < k:
        nxt = int(rng.choice(n, p=d2 / float(d2.sum())))
        centroids.append(Z[nxt])
        d2 = np.minimum(d2, sq_dists(Z, Z[nxt][None, :])[:, 0])
    centroids = np.array(centroids)

    history, labels = [], None
    for _ in range(max_iter):
        d2 = sq_dists(Z, centroids)
        new_labels = d2.argmin(axis=1)
        history.append(float(d2[np.arange(n), new_labels].sum()))
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        updated = centroids.copy()
        empties = []
        for c in range(k):
            members = labels == c
            if members.any():
                updated[c] = Z[members].mean(axis=0)
            else:
                empties.append(c)
        dist = d2[np.arange(n), labels].copy()
        for c in empties:
            far = int(dist.argmax())
            updated[c] = Z[far]
            dist[far] = -1.0
        centroids = updated
    else:
        d2 = sq_dists(Z, centroids)
        labels = d2.argmin(axis=1)
        history.append(float(d2[np.arange(n), labels].sum()))
    return centroids, labels, history


def _matmul_sq_dists(A, B):
    d2 = (A * A).sum(axis=1)[:, None] + (B * B).sum(axis=1)[None, :] - 2.0 * (A @ B.T)
    np.maximum(d2, 0.0, out=d2)
    return d2


def expansion_dbscan(Z, eps, min_pts, rows=None):
    """DBSCAN grown breadth-first from each unlabeled core point in row order.

    The reference for the union-find core graph in
    ``qslate.clustering.fit_dbscan``: one distance pass per core point, in the
    direct ``sum((a - b)**2)`` form, labels each core point with the count of
    clusters started before its own.  Eps-ball counts and the final
    nearest-core labels use the ``|a|^2 + |b|^2 - 2ab`` form.  Returns a
    ``DbscanModel``, or None when no point is core; with ``rows`` the
    training points are ``Z[rows]``.
    """
    from qslate.clustering import DbscanModel

    Z = np.asarray(Z, dtype=np.float64)
    n = len(Z)
    weights = np.ones(n, dtype=np.int64) if rows is None else np.bincount(rows, minlength=n)
    eps2 = eps * eps
    counts = (_matmul_sq_dists(Z, Z) <= eps2) @ weights
    core_Z = Z[counts >= min_pts]
    m = len(core_Z)
    if m == 0:
        return None
    core_labels = np.full(m, -1, dtype=np.int64)
    next_label = 0
    for start in range(m):
        if core_labels[start] >= 0:
            continue
        queue = [start]
        core_labels[start] = next_label
        while queue:
            c = queue.pop()
            d2row = ((core_Z - core_Z[c]) ** 2).sum(axis=1)
            for nb in np.flatnonzero(d2row <= eps2):
                if core_labels[nb] < 0:
                    core_labels[nb] = next_label
                    queue.append(nb)
        next_label += 1

    d2 = _matmul_sq_dists(Z, core_Z)
    nearest = d2.argmin(axis=1)
    within = d2[np.arange(n), nearest] <= eps2
    labels = np.where(within, core_labels[nearest], -1)
    return DbscanModel(
        core_points=core_Z,
        core_labels=core_labels,
        n_noise=int(weights[labels == -1].sum()),
        labels_=labels,
    )


def pairwise_merge(model, counts, min_support):
    """Support merge that rescans member pairs of every group pair per merge.

    The reference for the on-demand merge in
    ``qslate.clustering.merge_small_clusters``: base-cluster distances are
    single linkage computed one pair of clusters at a time, and each merge
    takes the group with the fewest transitions (then the lowest id) into
    its nearest group (then the lowest id) by the minimum over all member
    pairs.  Returns the merged model and the old-id -> new-id map.
    """
    from qslate.clustering import DbscanModel, KMeansModel

    counts = np.asarray(counts, dtype=np.int64)
    if isinstance(model, KMeansModel):
        n_base = len(model.centroids)
        base_to_group = np.asarray(model.merge_map, dtype=np.int64)
        base_dist = np.sqrt(_matmul_sq_dists(model.centroids, model.centroids))
    else:
        n_base = model.n_clusters
        base_to_group = np.arange(n_base)
        base_dist = np.full((n_base, n_base), np.inf)
        for a in range(n_base):
            pa = model.core_points[model.core_labels == a]
            for b in range(a + 1, n_base):
                pb = model.core_points[model.core_labels == b]
                d = float(np.sqrt(_matmul_sq_dists(pa, pb).min()))
                base_dist[a, b] = base_dist[b, a] = d
        np.fill_diagonal(base_dist, 0.0)
    n_groups = len(set(base_to_group.tolist()))
    if min_support < 1 or n_groups == 1:
        return model, np.arange(n_groups)

    group_members: dict[int, set[int]] = {}
    for base, g in enumerate(base_to_group):
        group_members.setdefault(int(g), set()).add(int(base))
    group_counts = {g: int(counts[g]) for g in group_members}
    while len(group_members) > 1:
        lacking = [g for g in group_members if group_counts[g] < min_support]
        if not lacking:
            break
        small = min(lacking, key=lambda g: (group_counts[g], g))
        best, best_d = -1, np.inf
        for other in group_members:
            if other == small:
                continue
            d = min(base_dist[a, b] for a in group_members[small] for b in group_members[other])
            if d < best_d or (d == best_d and other < best):
                best, best_d = other, d
        key = min(small, best)
        merged_members = group_members.pop(small) | group_members.pop(best)
        merged_count = group_counts.pop(small) + group_counts.pop(best)
        group_members[key] = merged_members
        group_counts[key] = merged_count

    final_ids = {g: i for i, g in enumerate(sorted(group_members))}
    old_to_new = np.empty(n_groups, dtype=np.int64)
    base_final = np.empty(n_base, dtype=np.int64)
    for key, members in group_members.items():
        for base in members:
            base_final[base] = final_ids[key]
            old_to_new[int(base_to_group[base])] = final_ids[key]
    if isinstance(model, KMeansModel):
        merged = KMeansModel(
            centroids=model.centroids,
            merge_map=tuple(int(v) for v in base_final),
            inertia_history=model.inertia_history,
        )
    else:
        merged = DbscanModel(
            core_points=model.core_points,
            core_labels=base_final[model.core_labels],
            n_noise=model.n_noise,
        )
    return merged, old_to_new
