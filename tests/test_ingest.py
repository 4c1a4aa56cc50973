import dataclasses
import itertools
import math
import random
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from conftest import catalog_rows, make_catalog, make_session
from oracles import (
    TRANSITION_COLUMNS,
    by_id,
    row_parse_sessions,
    row_serialize_sessions,
    row_transitions,
    table_rows,
)
from qslate import ingest
from qslate.errors import DataError
from qslate.ingest import (
    GroundTruth,
    ItemCatalog,
    SessionTable,
    SyntheticConfig,
    TransitionTable,
    UserTable,
    generate_synthetic,
    parse_items,
    parse_sessions,
    parse_users,
    serialize_items,
    serialize_sessions,
    session_text_blocks,
    sessions_to_transitions,
)

# Prices whose sum depends on the order of addition, and a signed zero.
PRICES = st.one_of(
    st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.7, 0.3, 1.0, 1e16, 2.5]),
    st.floats(min_value=0.0, max_value=100.0),
)


@st.composite
def labelled_sessions(draw):
    """A catalog with non-contiguous, zero and negative ids, and sessions on
    it whose labels stop the episode at each step or never.  Each step row
    holds 3 distinct items, as ``parse_sessions`` requires."""
    ids = draw(st.lists(st.integers(-40, 40), min_size=3, max_size=12, unique=True))
    catalog = catalog_rows([(i, (0.0,) * 5, draw(PRICES), 1) for i in ids])
    sessions = []
    for _ in range(draw(st.integers(0, 6))):
        labels = draw(st.lists(st.booleans(), min_size=9, max_size=9))
        full_steps = draw(st.integers(0, 3))
        labels[: 3 * full_steps] = [True] * (3 * full_steps)
        if full_steps < 3:
            labels[3 * full_steps + draw(st.integers(0, 2))] = False
        row = st.lists(st.sampled_from(ids), min_size=3, max_size=3, unique=True)
        slate = [item for _ in range(3) for item in draw(row)]
        sessions.append(make_session(labels, slate=slate))
    return sessions, catalog


def priced_case(prices, labels):
    """One session over items 0, 1, 2, ... priced ``prices``, slate in id order."""
    catalog = catalog_rows([(i, (0.0,) * 5, p, 1) for i, p in enumerate(prices)])
    slate = [i % len(prices) for i in range(9)]
    return [make_session(labels, slate=slate)], catalog


ITEM_LINES = "1 0.5,1.0,-0.25,2.0,0.0 9.5 1\n2 0.1,0.2,0.3,0.4,0.5 3.0 2\n3 1,2,3,4,5 0.0 3\n"


class TestParseItems:
    def test_minimal_valid_file(self):
        catalog = parse_items(ITEM_LINES)
        assert len(catalog) == 3
        assert all(len(catalog.by_location[loc]) == 1 for loc in (1, 2, 3))
        assert catalog.ids.tolist() == [1, 2, 3] and catalog.prices[0] == 9.5
        assert catalog.location(3) == 3

    def test_empty_file_is_empty_catalog(self):
        assert len(parse_items("")) == 0

    @pytest.mark.parametrize(
        "line,needle",
        [
            ("1 0.5,1.0,-0.25,2.0 9.5 1", "content features"),
            ("1 0.5,nan,-0.25,2.0,0.0 9.5 1", "non-finite content features"),
            ("x 0.5,1.0,-0.25,2.0,0.0 9.5 1", "item_id"),
            ("9223372036854775808 0.5,1.0,-0.25,2.0,0.0 9.5 1", "item_id"),
            ("1 0.5,1.0,-0.25,2.0,0.0 -2 1", "price"),
            ("1 0.5,1.0,-0.25,2.0,0.0 9.5 4", "location"),
            ("1 0.5,1.0,-0.25,2.0,0.0 9.5", "fields"),
        ],
    )
    def test_malformed_line_reports_line_and_field(self, line, needle):
        with pytest.raises(DataError, match="line 2") as err:
            parse_items("1 0,0,0,0,0 1.0 1\n" + line + "\n")
        assert needle in str(err.value)

    def test_duplicate_item_id(self):
        with pytest.raises(DataError, match="line 2: duplicate item_id 1"):
            parse_items("1 0,0,0,0,0 1.0 1\n1 0,0,0,0,0 2.0 2\n")

    def test_full_scale_catalog_round_trip(self):
        corpus = generate_synthetic(
            SyntheticConfig(num_items=381, num_users=50, num_sessions=5, seed=8)
        )
        text = serialize_items(corpus.catalog)
        reparsed = parse_items(text)
        for name in ("ids", "features", "prices", "locations"):
            assert np.array_equal(getattr(reparsed, name), getattr(corpus.catalog, name)), name
        assert serialize_items(reparsed) == text


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


def catalog_of(ids) -> ItemCatalog:
    """A catalog of ``ids``, each at location ``id % 3 + 1``."""
    return catalog_rows([(i, (0.0,) * 5, 1.0, i % 3 + 1) for i in ids])


@st.composite
def catalog_ids(draw):
    """The item ids of a catalog: dense (or nearly) around 0, sparse over
    int64, at either edge of int64, or none."""
    kind = draw(st.sampled_from(["dense", "sparse", "edge", "empty"]))
    if kind == "empty":
        return []
    if kind == "sparse":
        return draw(st.lists(st.integers(INT64_MIN, INT64_MAX), min_size=1, max_size=12,
                             unique=True))
    offsets = draw(st.lists(st.integers(0, 30), min_size=1, max_size=16, unique=True))
    base = draw(st.integers(-100, 100) if kind == "dense"
                else st.sampled_from([INT64_MIN, -INT64_MAX, INT64_MAX - 30]))
    return [base + offset for offset in offsets]


@st.composite
def catalog_queries(draw):
    """A catalog's ids and int64 queries: its ids, and unknown ids below its
    range, above it, in its holes and at the edges of int64."""
    ids = draw(catalog_ids())
    lo, hi = (min(ids), max(ids)) if ids else (0, 0)
    unknown = [lo - 1, lo - 2**62, hi + 1, hi + 2**62, INT64_MIN, -INT64_MAX, INT64_MAX]
    unknown += [i for i in range(lo, min(hi, lo + 40)) if i not in ids]
    candidates = ids + [i for i in unknown if INT64_MIN <= i <= INT64_MAX]
    pick = st.one_of(st.sampled_from(candidates), st.integers(INT64_MIN, INT64_MAX))
    return ids, draw(st.lists(pick, max_size=30))


class TestCatalogIndex:
    @settings(max_examples=300)
    @given(case=catalog_queries())
    def test_matches_searchsorted(self, case):
        ids, queries = case
        catalog, items = catalog_of(ids), np.array(queries, np.int64)
        at, known = catalog.index(items)
        expected = np.searchsorted(np.array(sorted(ids), np.int64), items)
        assert known.tolist() == [i in set(ids) for i in queries]
        assert at[known].tolist() == expected[known].tolist()

    @settings(max_examples=300)
    @given(case=catalog_queries())
    def test_scalar_lookups_agree_with_index(self, case):
        ids, queries = case
        catalog = catalog_of(ids)
        at, known = catalog.index(np.array(ids + queries, np.int64))
        for item_id, i, held in zip(ids + queries, at.tolist(), known.tolist()):
            assert (item_id in catalog) == held
            if held:
                assert catalog.location(item_id) == catalog.locations[i] == item_id % 3 + 1
            else:
                with pytest.raises(DataError, match=f"unknown item_id {item_id}$"):
                    catalog.location(item_id)

    @given(ids=catalog_ids(), data=st.data())
    def test_columns_out_of_order_build_sorted_columns(self, ids, data):
        shuffled = data.draw(st.permutations(ids))
        rows = {i: ((i % 7, 0.5, -1.0, 2.0, i / 3), abs(i) % 101 / 4, i % 3 + 1) for i in ids}
        given_order = catalog_rows([(i, *rows[i]) for i in shuffled])
        sorted_order = catalog_rows([(i, *rows[i]) for i in sorted(ids)])
        for name in ("ids", "features", "prices", "locations", "positions"):
            assert np.array_equal(getattr(given_order, name), getattr(sorted_order, name)), name
        assert given_order.ids.tolist() == sorted(ids)
        assert given_order.by_location == sorted_order.by_location

    @given(ids=catalog_ids().filter(bool), data=st.data())
    def test_repeated_id_rejected(self, ids, data):
        repeated = data.draw(st.sampled_from(ids))
        order = data.draw(st.permutations(ids + [repeated]))
        with pytest.raises(DataError, match=f"duplicate item_id {repeated}$"):
            catalog_rows([(i, (0.0,) * 5, 1.0, 1) for i in order])

    @pytest.mark.parametrize("name, column, message", [
        ("features", np.zeros((2, 5)), "item column features has length 2, ids has length 3"),
        ("prices", np.ones(2), "item column prices has length 2, ids has length 3"),
        ("locations", np.ones(4, np.int64), "item column locations has length 4, ids has length 3"),
        ("features", np.zeros(15), "item column features is not an n×5 array"),
        ("prices", np.ones((3, 1)), "item column prices is not a 1-D array"),
        ("ids", np.ones(3), "item column ids has dtype float64, expected a signed integer dtype"),
        ("prices", np.ones(3, np.int64), "item column prices has dtype int64, expected a float"),
        ("locations", [1, 2, 3], "item column locations is not a 1-D array"),
    ])
    def test_bad_column_rejected(self, name, column, message):
        columns = dict(ids=np.array([3, 1, 2]), features=np.zeros((3, 5)), prices=np.ones(3),
                       locations=np.array([1, 2, 3]))
        columns[name] = column
        with pytest.raises(DataError, match=re.escape(message)):
            ItemCatalog(**columns)

    def test_dense_ids_get_a_position_table(self):
        dense = ingest._DENSE_SPAN * 2
        assert catalog_of([0, dense - 1]).positions.tolist() == [0] + [-1] * (dense - 2) + [1]
        assert catalog_of([0, dense]).positions is None
        assert catalog_of([0, 2**40]).positions is None
        assert catalog_of([]).positions is None

    def test_keeps_the_query_shape(self, catalog9):
        at, known = catalog9.index(np.array([[1, 9, 0], [5, 10, 2]], np.int64))
        assert at.shape == known.shape == (2, 3)
        assert at[known].tolist() == [0, 8, 4, 1]
        assert known.tolist() == [[True, True, False], [True, False, True]]

    def test_wrapped_offsets_never_alias_an_id(self):
        # INT64_MIN minus the first id wraps to 2, just past the span's end.
        top = catalog_of([INT64_MAX - 1, INT64_MAX])
        at, known = top.index(np.array([INT64_MIN, INT64_MIN + 1, INT64_MAX], np.int64))
        assert known.tolist() == [False, False, True] and at[2] == 1
        bottom = catalog_of([INT64_MIN, INT64_MIN + 1])
        at, known = bottom.index(np.array([INT64_MAX, INT64_MIN], np.int64))
        assert known.tolist() == [False, True] and at[1] == 0


class TestParseSessions:
    def test_minimal_valid_line(self, catalog9):
        line = "7 1,5 0,1,2,3,4,5,6,7,8,9 1,2,3,4,5,6,7,8,9 1,0,1,1,1,1,0,0,1 1700000000\n"
        sessions = parse_sessions(line, catalog9)
        [s] = sessions
        assert s.user_id == 7
        assert len(s.purchase_labels) == 9
        assert s.clicked_items == {1, 5}

    def test_empty_click_history_dash(self, catalog9):
        line = "7 - 0,1,2,3,4,5,6,7,8,9 1,2,3,4,5,6,7,8,9 0,0,0,0,0,0,0,0,0 5\n"
        [s] = parse_sessions(line, catalog9)
        assert s.clicked_items == frozenset()

    def test_location_mismatch_names_position(self, catalog9):
        # Position 4 must hold a location-2 item; item 1 has location 1.
        line = "7 - 0,1,2,3,4,5,6,7,8,9 1,2,3,1,5,6,7,8,9 0,0,0,0,0,0,0,0,0 5\n"
        with pytest.raises(DataError, match="slate position 4"):
            parse_sessions(line, catalog9)

    @pytest.mark.parametrize(
        "line,needle",
        [
            ("7 - 0,1,2,3,4,5,6,7,8,9 1,2,99,4,5,6,7,8,9 0,0,0,0,0,0,0,0,0 5", "99"),
            ("7 - 0,1,2 1,2,3,4,5,6,7,8,9 0,0,0,0,0,0,0,0,0 5", "portraits"),
            ("7 - 0,1,2,3,4,5,6,7,8,9 1,2,3,4,5,6,7,8 0,0,0,0,0,0,0,0,0 5", "slate"),
            ("7 - 0,1,2,3,4,5,6,7,8,9 1,2,3,4,5,6,7,8,9 0,0,0,0,0,0,0,0 5", "labels"),
            ("7 - 0,1,2,3,4,5,6,7,8,9 1,2,3,4,5,6,7,8,9 0,0,2,0,0,0,0,0,0 5", "labels"),
            ("7 99 0,1,2,3,4,5,6,7,8,9 1,2,3,4,5,6,7,8,9 0,0,0,0,0,0,0,0,0 5", "clicked"),
            ("7 - 0,1,2,3,4,5,6,7,8,9 1,1,3,4,5,6,7,8,9 0,0,0,0,0,0,0,0,0 5", "duplicate"),
            (
                f"{2**63} - 0,1,2,3,4,5,6,7,8,9 1,2,3,4,5,6,7,8,9 0,0,0,0,0,0,0,0,0 5",
                "user_id 9223372036854775808 outside the 64-bit range",
            ),
            (
                f"7 - 0,1,2,3,4,5,6,7,8,9 1,2,3,4,5,6,7,8,9 0,0,0,0,0,0,0,0,0 {-(2**63) - 1}",
                "timestamp -9223372036854775809 outside the 64-bit range",
            ),
            (
                f"7 {2**64} 0,1,2,3,4,5,6,7,8,9 1,2,3,4,5,6,7,8,9 0,0,0,0,0,0,0,0,0 5",
                "clicked item 18446744073709551616 not in catalog",
            ),
            (
                f"7 - 0,1,2,3,4,5,6,7,8,9 {2**64},2,3,4,5,6,7,8,9 0,0,0,0,0,0,0,0,0 5",
                "slate item 18446744073709551616 not in catalog",
            ),
            (
                f"7 - 0,1,2,3,4,5,6,7,8,9 1,2,3,4,5,6,7,8,9 0,{2**64},0,0,0,0,0,0,0 5",
                "labels must be 0 or 1",
            ),
        ],
    )
    def test_constraint_violations_rejected(self, catalog9, line, needle):
        with pytest.raises(DataError, match="line 1") as err:
            parse_sessions(line + "\n", catalog9)
        assert needle in str(err.value)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_portrait_rejected(self, catalog9, bad):
        tail = "1,2,3,4,5,6,7,8,9 0,0,0,0,0,0,0,0,0 5"
        text = f"7 - 0,1,2,3,4,5,6,7,8,9 {tail}\n8 - 0,1,{bad},3,4,5,6,7,8,9 {tail}\n"
        with pytest.raises(DataError, match="line 2: non-finite portraits value"):
            parse_sessions(text, catalog9)

    def test_file_order_preserved(self, catalog9):
        lines = "".join(
            f"{uid} - 0,1,2,3,4,5,6,7,8,9 1,2,3,4,5,6,7,8,9 1,1,1,0,0,0,0,0,0 {uid}\n"
            for uid in (3, 1, 2)
        )
        assert [s.user_id for s in parse_sessions(lines, catalog9)] == [3, 1, 2]

    def test_quarter_million_line_round_trip(self):
        corpus = generate_synthetic(
            SyntheticConfig(
                num_items=60, num_users=2000, num_sessions=250_000, seed=5,
                preference_scale=2.0, base_appeal=0.3,
            )
        )
        text = serialize_sessions(corpus.sessions)
        assert text.count("\n") == 250_000
        reparsed = parse_sessions(text, corpus.catalog)
        assert len(reparsed) == 250_000
        assert list(reparsed) == list(corpus.sessions)


class TestStateCache:
    TAIL = "1,2,3,4,5,6,7,8,9 1,0,1,1,1,1,0,0,1 1700000000"

    def test_equal_field_texts_share_one_object(self, catalog9):
        text = (
            f"7 1,5 0,1,2,3,4,5,6,7,8,9 {self.TAIL}\n"
            f"8 2 0,1,2,3,4,5,6,7,8,9 {self.TAIL}\n"
            f"9 1,5 0,1,2,3,4,5,6,7,8,9 {self.TAIL}\n"
        )
        table = parse_sessions(text, catalog9)
        assert table.state.tolist() == [0, 1, 0]
        first, other, again = table
        assert again.clicked_items is first.clicked_items
        assert again.portraits is first.portraits
        assert other.clicked_items == {2}
        assert other.portraits == first.portraits
        users = parse_users("4 2,3 0,1,2,3,4,5,6,7,8,9\n5 2,3 0,1,2,3,4,5,6,7,8,9\n", catalog9)
        assert users.state.tolist() == [0, 0]
        assert users.clicks == (frozenset({2, 3}),)
        assert users.portraits.shape == (1, 10)

    def test_bad_click_named_at_first_line_it_appears(self, catalog9):
        text = (
            f"7 1,5 0,1,2,3,4,5,6,7,8,9 {self.TAIL}\n"
            f"7 1,99 0,1,2,3,4,5,6,7,8,9 {self.TAIL}\n"
            f"7 1,99 0,1,2,3,4,5,6,7,8,9 {self.TAIL}\n"
        )
        with pytest.raises(DataError, match="line 2: clicked item 99 not in catalog"):
            parse_sessions(text, catalog9)
        with pytest.raises(DataError, match="line 3: clicked item 99 not in catalog"):
            parse_sessions(text.replace("1,99", "1,5", 1), catalog9)

    def test_generated_corpus_round_trips_with_shared_states(self):
        corpus = generate_synthetic(
            SyntheticConfig(num_items=30, num_users=40, num_sessions=2000, seed=12)
        )
        reparsed = parse_sessions(serialize_sessions(corpus.sessions), corpus.catalog)
        assert list(reparsed) == list(corpus.sessions)
        by_user = {}
        for user_id, state in zip(reparsed.user_id.tolist(), reparsed.state.tolist()):
            by_user.setdefault(user_id, set()).add(state)
        assert all(len(states) == 1 for states in by_user.values())
        assert len(reparsed.clicks) == len(by_user)


class TestSerializeSessions:
    @given(
        items=st.sampled_from([9, 12, 30, 381]),
        users=st.integers(4, 300),
        sessions=st.integers(1, 600),
        seed=st.integers(0, 2**16),
    )
    @example(items=30, users=50, sessions=2 * ingest._BLOCK + 1, seed=3)
    def test_matches_row_serializer(self, items, users, sessions, seed):
        """Byte for byte the text of the record-by-record serializer."""
        table = generate_synthetic(
            SyntheticConfig(num_items=items, num_users=users, num_sessions=sessions, seed=seed)
        ).sessions
        assert serialize_sessions(table) == row_serialize_sessions(table)

    def test_text_comes_in_blocks_of_whole_lines(self):
        table = generate_synthetic(
            SyntheticConfig(num_items=30, num_users=50, num_sessions=2 * ingest._BLOCK + 1, seed=3)
        ).sessions
        blocks = list(session_text_blocks(table))
        assert [block.count("\n") for block in blocks] == [ingest._BLOCK, ingest._BLOCK, 1]
        assert all(block.endswith("\n") for block in blocks)
        assert "".join(blocks) == serialize_sessions(table)
        assert list(session_text_blocks(SessionTable.from_records([]))) == []

    def test_hand_built_tables_match_row_serializer(self, catalog9):
        """An empty table, a state without clicks, extreme and signed-zero
        portraits, all-0 and all-1 label rows, and negative and extreme user
        ids and timestamps: the oracle's text, which parses back to the rows."""
        extreme = (-0.0, 5e-324, 1e300, -1e300, 0.1, -2.5, 0.0, 1.0, 1e-300, 3.0)
        records = [
            make_session([0] * 9, user_id=-5, timestamp=-(2**63)),
            make_session([1] * 9, user_id=-(2**63), clicks=(9, 1, 3), timestamp=2**63 - 1),
            dataclasses.replace(
                make_session([1, 0, 1, 0, 0, 0, 0, 0, 1], user_id=0, clicks=(2,), timestamp=0),
                portraits=extreme,
            ),
            make_session([0] * 9, user_id=-5, timestamp=-1),
        ]
        assert serialize_sessions(SessionTable.from_records([])) == ""
        for rows in (records[:1], records):
            text = serialize_sessions(SessionTable.from_records(rows))
            assert text == row_serialize_sessions(rows)
            assert list(parse_sessions(text, catalog9)) == rows
        assert " - " in text and "-0.0,5e-324,1e+300," in text
        assert " 0,0,0,0,0,0,0,0,0 " in text and " 1,1,1,1,1,1,1,1,1 " in text


def corrupt(line: str, kind: str, rnd) -> str:
    """``line`` of a session file with one more corruption of ``kind``.

    "respelled" keeps a valid line valid but writes its integers as ``int``
    reads them, with a sign or leading zeros.  Apply "field count" last, as
    the other kinds expect 6 fields.
    """
    if kind == "field count":
        return line.rsplit(" ", 1)[0] if rnd.random() < 0.5 else line + " 7"
    user, clicks, portraits, slate, labels, timestamp = line.split(" ")
    items, flags, values = slate.split(","), labels.split(","), portraits.split(",")
    if kind == "bad user_id":
        user = rnd.choice(["x", "1.5", ""])
    elif kind == "bad slate int":
        items[rnd.randrange(len(items))] = "x"
    elif kind == "bad label int":
        flags[rnd.randrange(len(flags))] = "0x1"
    elif kind == "bad timestamp":
        timestamp = "1e3"
    elif kind == "non-finite portrait":
        values[rnd.randrange(len(values))] = rnd.choice(["nan", "inf", "-inf"])
    elif kind == "unknown click":
        clicks = "999" if clicks == "-" else clicks + ",999"
    elif kind == "unknown slate item":
        items[rnd.randrange(len(items))] = "999"
    elif kind == "8 slate items":
        del items[rnd.randrange(len(items))]
    elif kind == "label 2":
        flags[rnd.randrange(len(flags))] = "2"
    elif kind == "location mismatch":
        i, j = rnd.sample(range(len(items)), 2)
        items[i], items[j] = items[j], items[i]
    elif kind == "duplicate in a step row":
        row = 3 * rnd.randrange(len(items) // 3)
        items[row + rnd.randrange(1, 3)] = items[row]
    elif kind == "int64 overflow":
        big = str(rnd.choice([2**63, -(2**63) - 1, 2**64]))
        where = rnd.randrange(4)
        if where == 0:
            user = big
        elif where == 1:
            timestamp = big
        elif where == 2:
            items[rnd.randrange(len(items))] = big
        else:
            clicks = big if clicks == "-" else f"{clicks},{big}"
    elif kind == "respelled":
        user, timestamp = "+" + user, "00" + timestamp
        items, flags = ["0" + i for i in items], ["+" + f for f in flags]
    return " ".join(
        [user, clicks, ",".join(values), ",".join(items), ",".join(flags), timestamp]
    )


CORRUPTIONS = (
    "field count", "bad user_id", "bad slate int", "bad label int", "bad timestamp",
    "non-finite portrait", "unknown click", "unknown slate item", "8 slate items", "label 2",
    "location mismatch", "duplicate in a step row", "int64 overflow", "respelled",
)


def assert_parses_like_oracle(text: str, catalog) -> None:
    """``parse_sessions`` gives the oracle's rows or raises its message."""
    try:
        expected = row_parse_sessions(text, catalog)
    except DataError as exc:
        with pytest.raises(DataError) as raised:
            parse_sessions(text, catalog)
        assert str(raised.value) == str(exc)
    else:
        assert list(parse_sessions(text, catalog)) == expected


class TestParseOracle:
    # Shrinking a failing corpus of a few hundred lines takes minutes; the
    # oracle's message already names the line and the check.
    @settings(phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(
        items=st.sampled_from([9, 12, 30]),
        users=st.integers(4, 400),
        extra=st.integers(6, 40),
        seed=st.integers(0, 2**16),
        blanks=st.lists(st.tuples(st.integers(0, 600), st.sampled_from(["", "  ", "\t"])), max_size=3),
        corruptions=st.lists(
            st.tuples(st.integers(-4, 3), st.sampled_from(CORRUPTIONS)), max_size=3
        ),
        rnd=st.randoms(use_true_random=False),
    )
    def test_matches_row_parse_oracle(self, items, users, extra, seed, blanks, corruptions, rnd):
        """Generated corpora, with blank lines and up to 3 corruptions on
        lines both sides of a block boundary, some on one line, parse to the
        oracle's rows or raise its message."""
        block = ingest._PARSE_BLOCK
        corpus = generate_synthetic(
            SyntheticConfig(num_items=items, num_users=users, num_sessions=block + extra, seed=seed)
        )
        lines = serialize_sessions(corpus.sessions).splitlines()
        for offset, kind in sorted(corruptions, key=lambda c: c[1] == "field count"):
            lines[block + offset] = corrupt(lines[block + offset], kind, rnd)
        for at, blank in blanks:
            lines.insert(min(at, len(lines)), blank)
        assert_parses_like_oracle("\n".join(lines) + "\n", corpus.catalog)

    def test_first_failing_check_of_a_line_matches_oracle(self):
        """Each corruption, alone and with each other one on the same line,
        raises the oracle's message: the line's first failing check."""
        corpus = generate_synthetic(
            SyntheticConfig(num_items=30, num_users=4, num_sessions=3, seed=1)
        )
        first, line, last = serialize_sessions(corpus.sessions).splitlines()
        cases = [(kind,) for kind in CORRUPTIONS] + list(itertools.permutations(CORRUPTIONS, 2))
        for kinds in cases:
            for seed in range(20 if len(kinds) == 1 else 3):
                rnd, bad = random.Random(seed), line
                for kind in sorted(kinds, key=lambda k: k == "field count"):
                    bad = corrupt(bad, kind, rnd)
                assert_parses_like_oracle(f"{first}\n{bad}\n{last}\n", corpus.catalog)


# Items 1-9 as in ``catalog9``, and -2 and 2**63 - 1, which a respelled
# slate or click history may hold.
GUARD_CATALOG = catalog_rows(
    [(i, (0.0,) * 5, 1.0, (i - 1) // 3 + 1) for i in range(1, 10)]
    + [(-2, (0.0,) * 5, 1.0, 1), (2**63 - 1, (0.0,) * 5, 1.0, 3)]
)
GUARD_PORTRAITS = "0.5,1.0,-0.25,2.0,0.0,1.5,3.0,-1.0,0.125,4.0"
# (field, text) respellings of a line's field that ``int`` reads but the C
# read must leave to it; then forms that ``int`` refuses or that leave 64 bits.
VALID_RESPELLINGS = {
    "1_000 user id": (0, "1_000"),
    "tab-padded timestamp": (5, "\t1700000000\t"),
    "non-ASCII digit": (3, "1,2,\u0663,4,5,6,7,8,9"),
    "-0 label": (4, "-0,1,0,0,0,0,0,0,1"),
    "negative user id": (0, "-7"),
    "negative timestamp": (5, "-1700000000"),
    "negative slate item": (3, "1,-2,3,4,5,6,7,8,9"),
    "negative click": (1, "4,-2"),
    "slate item 2**63-1": (3, f"1,2,3,4,5,6,7,8,{2**63 - 1}"),
    "click 2**63-1": (1, f"{2**63 - 1}"),
    "tab-padded click": (1, "4,\t5"),
}
INVALID_RESPELLINGS = {
    "trailing comma": (3, "1,2,3,4,5,6,7,8,9,"),
    "trailing comma user id": (0, "7,"),
    "trailing comma timestamp": (5, "1700000000,"),
    "empty token": (4, "0,,0,0,0,0,0,0,1"),
    "1-2 user id": (0, "1-2"),
    "2**63 user id": (0, str(2**63)),
    "2**63 timestamp": (5, str(2**63)),
    "2**63 slate item": (3, f"1,2,3,4,5,6,7,8,{2**63}"),
    "trailing comma click": (1, "4,"),
    "empty click token": (1, "4,,5"),
    "1-2 click": (1, "1-2"),
    "2**63 click": (1, str(2**63)),
}


def guard_lines() -> list[str]:
    """Two blocks and two lines of valid session lines on ``GUARD_CATALOG``."""
    return [
        f"{100 + i} 4,5 {GUARD_PORTRAITS} 1,2,3,4,5,6,7,8,9 1,0,1,1,1,1,0,0,1 {1700000000 + i}"
        for i in range(2 * ingest._PARSE_BLOCK + 2)
    ]


def user_text(lines) -> str:
    """A user file of the first three fields of each session line."""
    return "".join(" ".join(line.split(" ")[:3]) + "\n" for line in lines)


def assert_users_parse_like_oracle(users: str, sessions: str, catalog) -> None:
    """``parse_users`` of ``users``, the first three fields of the lines of
    ``sessions``, gives the oracle's user ids, clicks and portraits of those
    lines, or raises its message."""
    try:
        expected = row_parse_sessions(sessions, catalog)
    except DataError as exc:
        with pytest.raises(DataError) as raised:
            parse_users(users, catalog)
        assert str(raised.value) == str(exc)
    else:
        table = parse_users(users, catalog)
        assert table.user_id.tolist() == [s.user_id for s in expected]
        assert [table.clicks[k] for k in table.state.tolist()] == [
            s.clicked_items for s in expected
        ]
        assert list(map(tuple, table.portraits[table.state].tolist())) == [
            s.portraits for s in expected
        ]


class TestIntegerGuard:
    @pytest.mark.parametrize("name", [*VALID_RESPELLINGS, *INVALID_RESPELLINGS])
    @pytest.mark.parametrize("at", [-1, 0, 1])
    def test_respelled_field_parses_like_oracle(self, name, at):
        """A respelled field on the last line of a block, or the first or
        second of the next, parses like the oracle: as ``int`` reads it, or
        with its message.  ``parse_users`` reads the first three fields of
        the same lines as the oracle reads them."""
        field, respelled = {**VALID_RESPELLINGS, **INVALID_RESPELLINGS}[name]
        lines = guard_lines()
        fields = lines[ingest._PARSE_BLOCK + at].split(" ")
        fields[field] = respelled
        lines[ingest._PARSE_BLOCK + at] = " ".join(fields)
        text = "\n".join(lines) + "\n"
        if name in VALID_RESPELLINGS:
            row_parse_sessions(text, GUARD_CATALOG)
        assert_parses_like_oracle(text, GUARD_CATALOG)
        if field < 3:
            assert_users_parse_like_oracle(user_text(lines), text, GUARD_CATALOG)

    @pytest.mark.parametrize(
        "raw",
        [
            "1_000", "\t7", "7 ", "\u0663", "-0", "-7", "+1", "1-2", "0x1",
            "1,", ",1", "1,,2", "", f"{2**63 - 1}", f"{2**63}", f"1,{2**70}",
        ],
    )
    def test_c_read_refuses_what_it_could_misread(self, raw):
        assert ingest._c_ints(raw, raw.count(",") + 1) is None

    def test_c_read_takes_digits_and_commas(self):
        assert ingest._c_ints("0,7,007,123", 4).tolist() == [0, 7, 7, 123]
        assert ingest._c_ints(f"{2**63 - 2}", 1).tolist() == [2**63 - 2]
        assert ingest._c_ints("1,2", 3) is None
        assert ingest._c_ints("1,", 1) is None
        assert ingest._c_ints(",1", 1) is None
        assert ingest._c_ints("", 0).tolist() == []

    def test_partial_read_warning_is_a_miss(self, monkeypatch):
        """Older numpy warns rather than raises when it stops short."""
        def warn_partial(data, dtype, sep):
            warnings.warn("string or file could not be read to its end", DeprecationWarning)
            return np.array([1], np.int64)

        monkeypatch.setattr(ingest.np, "fromstring", warn_partial)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ingest._c_ints("1,2", 2) is None
            assert ingest._ints("1,2", 2).tolist() == [1, 2]


def test_text_layer_builds_no_records(monkeypatch):
    """Serializing and parsing sessions, and parsing users, never make a
    ``SessionRecord``."""
    corpus = generate_synthetic(
        SyntheticConfig(num_items=30, num_users=40, num_sessions=600, seed=4)
    )

    def refuse(*args, **kwargs):
        raise AssertionError("a SessionRecord was built")

    monkeypatch.setattr(SessionTable, "_records", refuse)
    monkeypatch.setattr(ingest, "SessionRecord", refuse)
    text = serialize_sessions(corpus.sessions)
    assert len(parse_sessions(text, corpus.catalog)) == 600
    assert len(parse_sessions("", corpus.catalog)) == 0
    assert len(parse_users(user_text(text.splitlines()), corpus.catalog)) == 600


class TestParseUsers:
    def test_user_line(self, catalog9):
        users = parse_users("4 2,3 0,1,2,3,4,5,6,7,8,9\n", catalog9)
        assert users.user_id.tolist() == [4]
        assert users.clicks[users.state[0]] == {2, 3}

    def test_bad_field_count(self, catalog9):
        with pytest.raises(DataError, match="3 fields"):
            parse_users("4 2,3\n", catalog9)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_portrait_rejected(self, catalog9, bad):
        text = f"4 2,3 0,1,2,3,4,5,6,7,8,9\n5 2,3 {bad},1,2,3,4,5,6,7,8,9\n"
        with pytest.raises(DataError, match="line 2: non-finite portraits value"):
            parse_users(text, catalog9)

    def test_user_id_outside_64_bits_rejected(self, catalog9):
        text = f"4 2,3 0,1,2,3,4,5,6,7,8,9\n{2**63} 2,3 0,1,2,3,4,5,6,7,8,9\n"
        with pytest.raises(DataError, match="^line 2: user_id 9223372036854775808 outside"):
            parse_users(text, catalog9)

    def test_unknown_clicked_item_rejected(self, catalog9):
        text = "4 2,3 0,1,2,3,4,5,6,7,8,9\n5 2,42 0,1,2,3,4,5,6,7,8,9\n"
        with pytest.raises(DataError, match="line 2: clicked item 42 not in catalog"):
            parse_users(text, catalog9)


class TestTransitions:
    def test_full_purchase_session(self, catalog9):
        s = make_session([True] * 9)
        trans = sessions_to_transitions(SessionTable.from_records([s]), catalog9)
        assert trans.reward.tolist() == [6.0, 15.0, 24.0]
        assert trans.terminal.tolist() == [False, False, True]
        assert trans.step.tolist() == [1, 2, 3]
        assert [row[2] for row in table_rows(trans)] == [(1, 2, 3), (4, 5, 6), (7, 8, 9)]

    def test_termination_at_first_step(self, catalog9):
        s = make_session([True, True, False] + [True] * 6)
        trans = sessions_to_transitions(SessionTable.from_records([s]), catalog9)
        assert len(trans) == 1
        assert trans.reward[0] == 1.0 + 2.0
        assert trans.terminal[0]

    def test_second_step_termination(self, catalog9):
        s = make_session([True] * 3 + [False, True, True] + [True] * 3)
        trans = sessions_to_transitions(SessionTable.from_records([s]), catalog9)
        assert len(trans) == 2
        assert trans.reward[1] == 5.0 + 6.0
        assert trans.terminal[1]

    def test_corpus_count_matches_brute_force(self):
        corpus = generate_synthetic(
            SyntheticConfig(
                num_items=30, num_users=100, num_sessions=2000, seed=13,
                preference_scale=2.0, base_appeal=0.4,
            )
        )
        trans = sessions_to_transitions(corpus.sessions, corpus.catalog)
        expected = 0
        for s in corpus.sessions:
            expected += 1
            if all(s.purchase_labels[0:3]):
                expected += 1
                if all(s.purchase_labels[3:6]):
                    expected += 1
        assert len(trans) == expected

    @given(labels=st.tuples(*[st.booleans()] * 9))
    def test_reward_conservation(self, labels):
        catalog = make_catalog()
        s = make_session(labels)
        trans = sessions_to_transitions(SessionTable.from_records([s]), catalog)
        price = by_id(catalog, "prices")
        prefix_end = 0
        for step in (1, 2, 3):
            prefix_end = step * 3
            if not all(labels[(step - 1) * 3 : step * 3]):
                break
        expected = sum(
            price[it]
            for it, lab in zip(s.exposed_slate[:prefix_end], labels[:prefix_end])
            if lab
        )
        assert sum(trans.reward.tolist()) == expected

    @given(case=labelled_sessions(), block=st.sampled_from([1, 2, 4096]))
    @example(case=priced_case([-0.0] * 3, [True] * 9), block=4096)
    @example(case=priced_case([0.1, 0.2, 0.7], [True] * 9), block=4096)
    @example(case=priced_case([0.7, 0.2, 0.1], [True] * 4 + [False] + [True] * 4), block=4096)
    @example(case=([], make_catalog()), block=4096)
    def test_table_rows_match_row_loop_oracle(self, case, block):
        sessions, catalog = case
        with mock.patch.object(ingest, "_BLOCK", block):
            table = sessions_to_transitions(SessionTable.from_records(sessions), catalog)
        expected = row_transitions(sessions, catalog)
        for name in TRANSITION_COLUMNS:
            column, oracle = getattr(table, name), getattr(expected, name)
            assert column.dtype == oracle.dtype, name
            # repr tells -0.0 from 0.0 and any last-bit difference of a sum.
            assert list(map(repr, column.tolist())) == list(map(repr, oracle.tolist())), name

    @pytest.mark.parametrize("block", [1, 4096])
    @pytest.mark.parametrize(
        "slate, labels, row, action",
        [
            ((5, 5, 6, 4, 5, 6, 7, 8, 9), [False] * 9, 3, (5, 5, 6)),  # step 1
            ((1, 2, 3, 6, 4, 4, 7, 8, 9), [True] * 3 + [False] * 6, 4, (4, 4, 6)),  # step 2
            ((1, 1, 1, 4, 5, 6, 7, 8, 9), [True] * 9, 3, (1, 1, 1)),  # one item thrice
        ],
    )
    def test_reached_row_repeating_an_item_rejected(self, catalog9, slate, labels, row,
                                                    action, block):
        # A full session first, so the bad row is named by its table index.
        sessions = [make_session([True] * 9), make_session(labels, slate=slate)]
        match = re.escape(f"transition row {row} has action {action}, not 3 strictly ascending")
        with mock.patch.object(ingest, "_BLOCK", block), pytest.raises(DataError, match=match):
            sessions_to_transitions(SessionTable.from_records(sessions), catalog9)

    @pytest.mark.parametrize(
        "slate, labels",
        [
            ((1, 2, 42, 4, 5, 6, 7, 8, 9), [True] * 9),  # purchased
            ((1, 2, 42, 4, 5, 6, 7, 8, 9), [True, True, False] + [True] * 6),  # not purchased
            ((1, 2, 3, 4, 5, 6, 7, 8, 42), [True, True, False] + [True] * 6),  # step not reached
        ],
    )
    def test_unknown_exposed_item_rejected(self, catalog9, slate, labels):
        with pytest.raises(DataError, match="unknown item_id 42$"):
            sessions_to_transitions(
                SessionTable.from_records([make_session(labels, slate=slate)]), catalog9
            )

    @pytest.mark.parametrize("block", [1, 4096])
    def test_first_unknown_item_named_in_session_then_slate_order(self, catalog9, block):
        sessions = [
            make_session([False] * 9, slate=(1, 2, 3, 4, 5, 6, 7, 8, 43)),
            make_session([False] * 9, slate=(42, 2, 3, 4, 5, 6, 7, 8, 9)),
        ]
        with mock.patch.object(ingest, "_BLOCK", block), \
                pytest.raises(DataError, match="unknown item_id 43$"):
            sessions_to_transitions(SessionTable.from_records(sessions), catalog9)

    def test_emitted_transitions_satisfy_invariants(self):
        corpus = generate_synthetic(
            SyntheticConfig(
                num_items=30, num_users=100, num_sessions=1500, seed=21,
                preference_scale=2.0, base_appeal=0.4,
            )
        )
        trans = sessions_to_transitions(corpus.sessions, corpus.catalog)
        price = by_id(corpus.catalog, "prices")
        records = list(corpus.sessions)
        for ref, step, action, reward, terminal in table_rows(trans):
            assert action == tuple(sorted(action))
            assert len(set(action)) == 3
            assert {corpus.catalog.location(i) for i in action} == {step}
            assert reward >= 0
            sess = records[ref]
            lo = (step - 1) * 3
            row_purchased = sum(
                price[it]
                for it, lab in zip(sess.exposed_slate[lo : lo + 3], sess.purchase_labels[lo : lo + 3])
                if lab
            )
            assert reward == row_purchased
            all_bought = all(sess.purchase_labels[lo : lo + 3])
            assert terminal == (not all_bought or step == 3)


def table_columns(**replaced):
    """The columns of a valid 3-row transition table, some replaced."""
    columns = dict(
        session_ref=np.array([0, 0, 1], np.int64),
        step=np.array([1, 2, 1], np.int64),
        action=np.array([(1, 2, 3), (4, 5, 6), (1, 2, 3)], np.int64),
        reward=np.array([6.0, 15.0, 0.0]),
        terminal=np.array([False, True, True]),
    )
    return {**columns, **replaced}


class TestTransitionTable:
    def test_valid_columns_accepted(self):
        assert len(TransitionTable(**table_columns())) == 3

    def test_short_column_does_not_broadcast(self):
        # Unchecked, a 1-row step column would train as three step-1 rows.
        with pytest.raises(DataError, match="column step has length 1, session_ref has length 3$"):
            TransitionTable(**table_columns(step=np.array([1], np.int64)))

    @pytest.mark.parametrize(
        "name, column, match",
        [
            ("session_ref", [0, 0, 1], "column session_ref is not a 1-D array"),
            ("reward", np.array([[6.0, 15.0, 0.0]]), "column reward is not a 1-D array"),
            ("terminal", np.array([False, True]), "column terminal has length 2, session_ref has"),
            ("session_ref", np.array([0.0, 0.0, 1.0]), "column session_ref has dtype float64"),
            ("step", np.array([1, 2, 1], np.uint64), "column step has dtype uint64"),
            ("action", np.array([1, 2, 3]), "column action is not an n×3 array"),
            ("action", np.fromiter([(1, 2, 3), (4, 5, 6), (1, 2, 3)], object, 3),
             "column action is not an n×3 array"),
            ("action", np.ones((3, 2), np.int64), "column action is not an n×3 array"),
            ("action", np.array([(1, 2, 3)] * 3, np.uint64), "column action has dtype uint64"),
            ("reward", np.array([6, 15, 0]), "column reward has dtype int64"),
            ("terminal", np.array([0, 1, 1]), "column terminal has dtype int64, expected bool"),
        ],
        ids=["list", "2-D", "short", "float-ref", "uint-step", "int-action", "tuple-action",
             "3x2-action", "uint-action", "int-reward", "int-terminal"],
    )
    def test_bad_column_rejected(self, name, column, match):
        with pytest.raises(DataError, match=match):
            TransitionTable(**table_columns(**{name: column}))

    @pytest.mark.parametrize("bad", [(3, 2, 1), (1, 1, 2), (1, 3, 2)])
    def test_action_rows_must_strictly_ascend(self, bad):
        action = np.array([(1, 2, 3), bad, bad], np.int64)
        match = re.escape(f"transition row 1 has action {bad}, not 3 strictly ascending items")
        with pytest.raises(DataError, match=match + "$"):
            TransitionTable(**table_columns(action=action))



def session_columns(**replaced):
    """The columns of a valid 3-session table over 2 states, some replaced."""
    columns = dict(
        user_id=np.array([7, 8, 7], np.int64),
        timestamp=np.array([5, 6, 7], np.int64),
        state=np.array([0, 1, 0], np.int64),
        slate=np.tile(np.arange(1, 10, dtype=np.int64), (3, 1)),
        labels=np.zeros((3, 9), np.bool_),
        clicks=(frozenset({1, 5}), frozenset()),
        portraits=np.arange(20, dtype=np.float64).reshape(2, 10),
    )
    return {**columns, **replaced}


def assert_same_table(table, expected):
    """``table`` equals ``expected`` column for column, dtypes included."""
    for f in dataclasses.fields(expected):
        column, other = getattr(table, f.name), getattr(expected, f.name)
        if isinstance(other, np.ndarray):
            assert column.dtype == other.dtype, f.name
            assert np.array_equal(column, other), f.name
        else:
            assert column == other, f.name


class TestSessionTable:
    def test_valid_columns_accepted(self):
        assert len(SessionTable(**session_columns())) == 3

    @pytest.mark.parametrize(
        "name, column, match",
        [
            ("user_id", [7, 8, 7], "session column user_id is not a 1-D array"),
            ("state", np.array([[0, 1, 0]]), "session column state is not a 1-D array"),
            ("timestamp", np.array([5.0, 6.0, 7.0]), "column timestamp has dtype float64"),
            ("state", np.array([0, 1, 0], np.uint64), "column state has dtype uint64"),
            ("slate", np.ones((3, 8), np.int64), "column slate is not an n×9 array"),
            ("slate", np.arange(1, 10), "column slate is not an n×9 array"),
            ("slate", np.ones((3, 9)), "column slate has dtype float64"),
            ("labels", np.zeros((3, 9), np.int64), "column labels has dtype int64, expected bool"),
            ("labels", np.zeros((2, 9), np.bool_), "labels has length 2, state has length 3$"),
            ("user_id", np.array([7, 8], np.int64), "user_id has length 2, state has length 3$"),
            ("portraits", np.zeros((2, 9)), "column portraits is not an n×10 array"),
            ("portraits", np.zeros((3, 10)), "column portraits has length 3, clicks has length 2$"),
            ("portraits", [[0.0] * 10] * 2, "column portraits is not an n×10 array"),
            ("portraits", np.zeros((2, 10), np.int64), "column portraits has dtype int64"),
            ("state", np.array([0, 2, 0], np.int64),
             re.escape("session column state holds a number outside [0, 2)") + "$"),
            ("state", np.array([0, 1, -1], np.int64),
             re.escape("session column state holds a number outside [0, 2)") + "$"),
        ],
        ids=["list-user", "2-D-state", "float-time", "uint-state", "9x8-slate", "1-D-slate",
             "float-slate", "int-labels", "short-labels", "short-user", "2x9-portraits",
             "3x10-portraits", "list-portraits", "int-portraits", "state-too-high",
             "state-negative"],
    )
    def test_bad_column_rejected(self, name, column, match):
        with pytest.raises(DataError, match=match):
            SessionTable(**session_columns(**{name: column}))

    def test_short_labels_column_rejected(self):
        # Unchecked, sessions_to_transitions would give the transitions of
        # the first 100 sessions only.
        table = generate_synthetic(
            SyntheticConfig(num_items=30, num_users=40, num_sessions=200, seed=4)
        ).sessions
        with pytest.raises(DataError, match="column labels has length 100, state has length 200$"):
            dataclasses.replace(table, labels=table.labels[:100])

    def test_shifted_state_column_rejected(self):
        # Unchecked, build_raw_features would weigh 21 states for 20 rows.
        table = generate_synthetic(
            SyntheticConfig(num_items=30, num_users=20, num_sessions=200, seed=4)
        ).sessions
        assert len(table.clicks) == 20
        with pytest.raises(DataError, match=re.escape("outside [0, 20)") + "$"):
            dataclasses.replace(table, state=table.state + 1)


def user_columns(**replaced):
    """The columns of a valid 2-user table over 1 state, some replaced."""
    columns = dict(
        user_id=np.array([4, 5], np.int64),
        state=np.array([0, 0], np.int64),
        clicks=(frozenset({2, 3}),),
        portraits=np.arange(10, dtype=np.float64).reshape(1, 10),
    )
    return {**columns, **replaced}


class TestUserTable:
    def test_valid_columns_accepted(self):
        assert len(UserTable(**user_columns())) == 2

    def test_parsed_table_equals_built_one(self, catalog9):
        users = parse_users("4 2,3 0,1,2,3,4,5,6,7,8,9\n5 2,3 0,1,2,3,4,5,6,7,8,9\n", catalog9)
        assert_same_table(users, UserTable(**user_columns()))

    def test_empty_file_is_empty_table(self, catalog9):
        users = parse_users("\n", catalog9)
        assert len(users) == 0
        assert users.user_id.dtype == np.int64
        assert users.portraits.shape == (0, 10)

    @pytest.mark.parametrize(
        "name, column, match",
        [
            ("user_id", np.array([4], np.int64), "user column user_id has length 1, state has"),
            ("user_id", np.array([4.0, 5.0]), "user column user_id has dtype float64"),
            ("state", (0, 0), "user column state is not a 1-D array"),
            ("state", np.array([0, 1], np.int64),
             re.escape("user column state holds a number outside [0, 1)") + "$"),
            ("portraits", np.zeros((2, 10)), "user column portraits has length 2, clicks has"),
            ("portraits", np.ones((1, 10), np.bool_), "user column portraits has dtype bool"),
        ],
        ids=["short-user", "float-user", "tuple-state", "state-too-high", "2x10-portraits",
             "bool-portraits"],
    )
    def test_bad_column_rejected(self, name, column, match):
        with pytest.raises(DataError, match=match):
            UserTable(**user_columns(**{name: column}))


class TestGenerator:
    def test_same_seed_byte_identical(self):
        cfg = SyntheticConfig(num_items=30, num_users=50, num_sessions=500, seed=99)
        a = generate_synthetic(cfg)
        b = generate_synthetic(cfg)
        assert serialize_items(a.catalog) == serialize_items(b.catalog)
        assert serialize_sessions(a.sessions) == serialize_sessions(b.sessions)
        assert a.truth.serialize() == b.truth.serialize()

    @pytest.mark.parametrize(
        "users, sessions, seed", [(40, 700, 3), (400, 300, 12), (4000, 2000, 99)]
    )
    def test_table_equals_table_of_its_records(self, users, sessions, seed):
        """Numbered as ``from_records`` numbers, one state per user; with
        more users than sessions, states of users without a session go."""
        table = generate_synthetic(
            SyntheticConfig(num_items=30, num_users=users, num_sessions=sessions, seed=seed)
        ).sessions
        assert_same_table(table, SessionTable.from_records(list(table)))
        by_user = {}
        for user_id, state in zip(table.user_id.tolist(), table.state.tolist()):
            by_user.setdefault(user_id, set()).add(state)
        assert all(len(states) == 1 for states in by_user.values())
        assert len(table.clicks) == len(by_user)

    def test_locations_balanced(self):
        corpus = generate_synthetic(
            SyntheticConfig(num_items=30, num_users=10, num_sessions=10, seed=1)
        )
        assert all(len(corpus.catalog.by_location[loc]) == 10 for loc in (1, 2, 3))

    def test_temperature_limit_labels_follow_utility_sign(self):
        cfg = SyntheticConfig(
            num_items=30, num_users=40, num_sessions=400, seed=17,
            purchase_temperature=1e-9, preference_scale=2.0,
        )
        corpus = generate_synthetic(cfg)
        beta = corpus.truth.price_penalty
        row_of = {it: j for j, it in enumerate(corpus.catalog.ids.tolist())}
        for s in corpus.sessions.take(np.arange(200)):
            pref = np.asarray(corpus.truth.user_preferences[s.user_id])
            reached = True
            for step in (1, 2, 3):
                row = s.exposed_slate[(step - 1) * 3 : step * 3]
                labels = s.purchase_labels[(step - 1) * 3 : step * 3]
                if not reached:
                    assert not any(labels)
                    continue
                for it, lab in zip(row, labels):
                    j = row_of[it]
                    utility = (
                        float(pref @ corpus.catalog.features[j]) - beta * corpus.catalog.prices[j]
                    )
                    assert lab == (utility > 0)
                reached = all(labels)

    def test_purchase_frequency_within_three_sigma(self):
        cfg = SyntheticConfig(
            num_items=30, num_users=200, num_sessions=10_000, seed=202,
            preference_scale=2.0, price_range=(1, 20), base_appeal=0.4,
        )
        corpus = generate_synthetic(cfg)
        expected = dict.fromkeys(corpus.catalog.ids.tolist(), 0.0)
        variance = dict.fromkeys(corpus.catalog.ids.tolist(), 0.0)
        observed = dict.fromkeys(corpus.catalog.ids.tolist(), 0)
        for s in corpus.sessions:
            labels = s.purchase_labels
            reached = [True, all(labels[0:3]), all(labels[0:3]) and all(labels[3:6])]
            for step in (1, 2, 3):
                if not reached[step - 1]:
                    break
                for pos in range((step - 1) * 3, step * 3):
                    it = s.exposed_slate[pos]
                    p = corpus.truth.purchase_probability(s.user_id, corpus.catalog, it)
                    expected[it] += p
                    variance[it] += p * (1 - p)
                    observed[it] += labels[pos]
        for it in corpus.catalog.ids.tolist():
            assert variance[it] > 0
            z = (observed[it] - expected[it]) / math.sqrt(variance[it])
            assert abs(z) <= 3.0

    def test_prices_are_whole_currency_units(self):
        corpus = generate_synthetic(
            SyntheticConfig(num_items=30, num_users=10, num_sessions=10, seed=2,
                            price_range=(1.0, 100.0))
        )
        for price in corpus.catalog.prices.tolist():
            assert price == int(price)
            assert 1 <= price <= 100

    @pytest.mark.parametrize(
        "price_max, valid",
        [
            (2**63 - 1, True),  # the exclusive bound 2**63 is the highest rng.integers takes
            (2**63, False),
            (float(2**63 - 1024), True),  # the largest float below 2**63
            (float(2**63), False),
        ],
    )
    def test_price_range_at_the_int64_edge(self, price_max, valid):
        config = SyntheticConfig(num_items=9, num_users=5, num_sessions=5, seed=0,
                                 price_range=(price_max - 4096, price_max))
        if valid:
            prices = generate_synthetic(config).catalog.prices
            assert (prices >= price_max - 4096).all() and (prices <= price_max).all()
        else:
            with pytest.raises(DataError, match="2\\*\\*63"):
                generate_synthetic(config)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_items": 0},
            {"num_items": 10},  # not divisible by 3
            {"num_users": 0},
            {"num_sessions": 0},
            {"latent_dim": 0},
            {"price_range": (5.0, 1.0)},
            {"purchase_temperature": 0.0},
            {"num_groups": 0},
            {"seed": -1},
            {"price_range": (1.0, math.inf)},
            {"price_range": (math.nan, 5.0)},
            {"purchase_temperature": math.nan},
            {"purchase_temperature": math.inf},
            {"preference_scale": math.nan},
            {"preference_scale": -math.inf},
            {"base_appeal": math.nan},
            {"base_appeal": math.inf},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        base = dict(num_items=9, num_users=10, num_sessions=10, seed=0)
        base.update(kwargs)
        with pytest.raises(DataError):
            generate_synthetic(SyntheticConfig(**base))

    def test_ground_truth_round_trip(self):
        corpus = generate_synthetic(
            SyntheticConfig(num_items=9, num_users=20, num_sessions=10, seed=6, latent_dim=3,
                            purchase_temperature=0.7, num_groups=3)
        )
        back = GroundTruth.parse(corpus.truth.serialize())
        assert dataclasses.asdict(back) == dataclasses.asdict(corpus.truth)
        assert back.click_bias == ingest._CLICK_BIAS

    @pytest.mark.parametrize("text, message", [
        ("", "empty"),
        ("\n\n", "empty"),
        ('{"record": "user", "user_id": 1, "group": 0, "preference": [1.0]}\n', "model record"),
        ("{not json\n", "line 1"),
        ('{"record": "model"}\n{"record": "user", "user_id": 1,\n', "line 2"),
        ('{"record":"model"}\n', "line 1: lacks field 'price_penalty'"),
        ('[1]\n', "line 1: expected a JSON object"),
        ('{"record": "model"}\n{"record": "user", "user_id": 1, "preference": [1.0]}\n',
         "line 2: lacks field 'group'"),
        ('{"record": "model"}\n7\n', "line 2: expected a JSON object"),
    ])
    def test_ground_truth_parse_errors(self, text, message):
        with pytest.raises(DataError, match=message):
            GroundTruth.parse(text)
