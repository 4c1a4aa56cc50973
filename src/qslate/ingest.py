"""Parsing, transition construction, and synthetic data generation.

Two line-oriented text formats are owned by this module:

* item file, one item per line::

    <item_id> <f1>,<f2>,<f3>,<f4>,<f5> <price> <location>

* session file, one session per line::

    <user_id> <click1,click2,...> <p1,...,p10> <i1,...,i9> <l1,...,l9> <timestamp>

Top-level fields are separated by a single space, list-valued fields by
commas.  An empty click history is written as ``-``.  Labels are 0/1.
Floats are written with ``repr`` so serialize -> parse round-trips exactly.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import DataError

N_PORTRAITS = 10
N_CONTENT = 5  # content features per item
SLATE_SIZE = 9
STEPS = (1, 2, 3)
_INT64 = np.iinfo(np.int64)  # ids and timestamps are held in int64 columns
# A catalog whose ids span at most this many times its size finds ids in a
# position table over that span; a sparser one searches its sorted ids.
_DENSE_SPAN = 4


@dataclass(eq=False)
class ItemCatalog:
    """All items of a dataset as columns sorted by id: int64 ``ids``, n×5
    float64 content ``features``, float64 ``prices`` and int64 ``locations``.

    Construction raises :class:`DataError` for a repeated id or, naming the
    column, for a column not of its shape, kind or length.  Array code finds
    items with :meth:`index`, through ``positions`` where the ids span at
    most ``_DENSE_SPAN`` times their count (each id's position in
    ``[ids[0], ids[-1]]``, -1 for a hole; otherwise None) or a search.
    Scalar ``in`` and :meth:`location` read a dict from id to location.
    """

    ids: np.ndarray
    features: np.ndarray
    prices: np.ndarray
    locations: np.ndarray
    by_location: dict[int, tuple[int, ...]] = field(init=False)
    positions: np.ndarray | None = field(init=False, repr=False)
    _location: dict[int, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _check_columns("item", self, _ITEM_COLUMNS, "ids")
        order = np.argsort(self.ids, kind="stable")
        for name, kind, _ in _ITEM_COLUMNS:
            setattr(self, name, getattr(self, name)[order].astype(f"{kind}8"))  # int64, float64
        repeated = self.ids[1:][self.ids[1:] == self.ids[:-1]]
        if len(repeated):
            raise DataError(f"duplicate item_id {repeated[0]}")
        self.by_location = {
            loc: tuple(self.ids[self.locations == loc].tolist()) for loc in STEPS
        }
        self._location = dict(zip(self.ids.tolist(), self.locations.tolist()))
        self.positions = None
        if len(self.ids):
            span = int(self.ids[-1]) - int(self.ids[0]) + 1
            if span <= _DENSE_SPAN * len(self.ids):
                self.positions = np.full(span, -1, np.int64)
                self.positions[self.ids - self.ids[0]] = np.arange(len(self.ids))

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, item_id: int) -> bool:
        return item_id in self._location

    def index(self, item_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Where each of the int64 ``item_ids`` sits in ``ids``, and whether
        the catalog holds it; the position of an id it does not hold is
        meaningless."""
        if self.positions is None:
            at = np.searchsorted(self.ids, item_ids)
            known = at < len(self.ids)
            known[known] = self.ids[at[known]] == item_ids[known]
            return at, known
        # Read unsigned, the offset of an id outside the span is at least the
        # span's length, even where the int64 subtraction wraps, so it never
        # aliases an id.
        offset = np.asarray(item_ids, np.int64) - self.ids[0]
        inside = offset.view(np.uint64) < len(self.positions)
        at = self.positions.take(offset, mode="clip")
        return at, inside & (at >= 0)

    def location(self, item_id: int) -> int:
        try:
            return self._location[item_id]
        except KeyError:
            raise DataError(f"unknown item_id {item_id}") from None


@dataclass(frozen=True)
class SessionRecord:
    """One logged session: 9 exposed items over 3 steps plus purchase labels.

    A :class:`SessionTable` gives its rows as these, and
    :meth:`SessionTable.from_records` makes a table of them.
    """

    user_id: int
    clicked_items: frozenset[int]
    portraits: tuple[float, ...]
    exposed_slate: tuple[int, ...]
    purchase_labels: tuple[bool, ...]
    timestamp: int


# Each dtype kind that a table column may have, in words.
_KINDS = {"i": "a signed integer dtype", "f": "a float dtype", "b": "bool"}


def _check_columns(noun: str, table, columns, first: str) -> None:
    """Raise :class:`DataError` naming the first of ``table``'s ``columns``,
    each a ``(name, dtype kind, row shape)``, that is not an array of that
    row shape and kind or not as long as ``table``'s field ``first``."""
    for name, kind, row in columns:
        column = getattr(table, name)
        if not isinstance(column, np.ndarray) or column.shape[1:] != row or column.ndim == 0:
            shape = f"an n×{row[0]}" if row else "a 1-D"
            raise DataError(f"{noun} column {name} is not {shape} array")
        if column.dtype.kind != kind:
            raise DataError(
                f"{noun} column {name} has dtype {column.dtype}, expected {_KINDS[kind]}"
            )
        n = len(getattr(table, first))
        if len(column) != n:
            raise DataError(
                f"{noun} column {name} has length {len(column)}, {first} has length {n}"
            )


def _check_table(noun: str, table, columns) -> None:
    """Raise :class:`DataError` naming the column unless ``table``'s
    ``columns`` are as long as its ``state`` column, its ``portraits`` hold
    a float row of 10 per click set, and ``state`` numbers click sets."""
    _check_columns(noun, table, columns, "state")
    _check_columns(noun, table, (("portraits", "f", (N_PORTRAITS,)),), "clicks")
    u = len(table.clicks)
    if len(table.state) and not 0 <= table.state.min() <= table.state.max() < u:
        raise DataError(f"{noun} column state holds a number outside [0, {u})")


# Each table and catalog column's name, numpy dtype kind and row shape.
_SESSION_COLUMNS = (
    ("state", "i", ()),
    ("user_id", "i", ()),
    ("timestamp", "i", ()),
    ("slate", "i", (SLATE_SIZE,)),
    ("labels", "b", (SLATE_SIZE,)),
)
_ITEM_COLUMNS = (
    ("ids", "i", ()), ("features", "f", (N_CONTENT,)), ("prices", "f", ()), ("locations", "i", ())
)


@dataclass(frozen=True, eq=False)
class SessionTable:
    """Logged sessions as numpy columns, one row per session.

    ``user_id``, ``timestamp`` and ``state`` are int64 columns; ``slate`` is
    n×9 int64 and ``labels`` n×9 bool, both in slate order.  ``state[i]``
    numbers session ``i``'s user state: its click history is
    ``clicks[state[i]]`` and its portraits are row ``state[i]`` of the
    u×10 ``portraits``.  Equal states share one number, every number is
    used, and numbers follow the order in which states first appear.

    Construction raises :class:`DataError`, naming the column, when a column
    is not an array of its shape and kind or length, or a state number is
    outside ``[0, u)``.

    Iterating, or indexing with an int, gives :class:`SessionRecord` rows;
    indexing with a slice gives a table.
    """

    user_id: np.ndarray
    timestamp: np.ndarray
    state: np.ndarray
    slate: np.ndarray
    labels: np.ndarray
    clicks: tuple[frozenset[int], ...]
    portraits: np.ndarray

    def __post_init__(self) -> None:
        _check_table("session", self, _SESSION_COLUMNS)

    @classmethod
    def from_records(cls, sessions: Sequence[SessionRecord]) -> "SessionTable":
        """``sessions`` as a table, each state numbered where it first
        appears.  A record whose slate or labels do not hold 9 values, or
        whose portraits do not hold 10, raises :class:`DataError`."""
        n = len(sessions)
        state, clicks, portraits = _number_states((s.clicked_items, s.portraits) for s in sessions)
        return cls(
            np.fromiter((s.user_id for s in sessions), np.int64, n),
            np.fromiter((s.timestamp for s in sessions), np.int64, n),
            state,
            _record_rows([s.exposed_slate for s in sessions], "slate items", np.int64),
            _record_rows([s.purchase_labels for s in sessions], "labels", np.bool_),
            clicks,
            portraits,
        )

    def __len__(self) -> int:
        return len(self.state)

    def take(self, rows: np.ndarray) -> "SessionTable":
        """The sessions at index array ``rows``, in that order, with the
        states they use renumbered by first appearance."""
        state = self.state[rows]
        kept, first = np.unique(state, return_index=True)
        kept = kept[np.argsort(first)]
        number = np.empty(len(self.clicks), np.int64)
        number[kept] = np.arange(len(kept))
        return SessionTable(
            self.user_id[rows],
            self.timestamp[rows],
            number[state],
            self.slate[rows],
            self.labels[rows],
            tuple(self.clicks[s] for s in kept.tolist()),
            self.portraits[kept],
        )

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.take(np.arange(len(self))[i])
        i = range(len(self))[i]
        return next(self._records(i, i + 1))

    def __iter__(self) -> Iterator[SessionRecord]:
        for lo in range(0, len(self), _BLOCK):
            yield from self._records(lo, lo + _BLOCK)

    def _records(self, lo: int, hi: int) -> Iterator[SessionRecord]:
        """Rows ``lo`` to ``hi`` as records; rows of one state share its
        click set and portrait tuple."""
        states = self.state[lo:hi].tolist()
        portraits = {s: tuple(self.portraits[s].tolist()) for s in dict.fromkeys(states)}
        for user_id, s, slate, labels, timestamp in zip(
            self.user_id[lo:hi].tolist(),
            states,
            self.slate[lo:hi].tolist(),
            self.labels[lo:hi].tolist(),
            self.timestamp[lo:hi].tolist(),
        ):
            yield SessionRecord(
                user_id, self.clicks[s], portraits[s], tuple(slate), tuple(labels), timestamp
            )


def _number_states(
    states: Iterable[tuple[frozenset[int], tuple[float, ...]]],
) -> tuple[np.ndarray, tuple[frozenset[int], ...], np.ndarray]:
    """The number of each ``(clicks, portraits)`` state, equal states sharing
    one, in order of first appearance; and each number's clicks and u×10
    portraits.  Portraits of other than 10 values raise :class:`DataError`."""
    number: dict[tuple[frozenset[int], tuple[float, ...]], int] = {}
    state = np.fromiter((number.setdefault(key, len(number)) for key in states), np.int64)
    for _, portraits in number:
        if len(portraits) != N_PORTRAITS:
            raise DataError(f"a record holds {len(portraits)} portraits, expected {N_PORTRAITS}")
    return state, *_state_values(number)


def _state_values(number: dict) -> tuple[tuple[frozenset[int], ...], np.ndarray]:
    """Each numbered ``(clicks, portraits)`` state's clicks, and all portraits as u×10."""
    portraits = np.array([p for _, p in number], np.float64).reshape(-1, N_PORTRAITS)
    return tuple(c for c, _ in number), portraits


def _record_rows(rows: list, what: str, dtype) -> np.ndarray:
    """Records' 9-value fields as one n×9 array."""
    for i, row in enumerate(rows):
        if len(row) != SLATE_SIZE:
            raise DataError(f"session {i} holds {len(row)} {what}, expected {SLATE_SIZE}")
    return np.array(rows, dtype).reshape(-1, SLATE_SIZE)


@dataclass(frozen=True, eq=False)
class UserTable:
    """Users to recommend for as numpy columns, one row per user: an int64
    ``user_id`` column and each user's ``state``, numbered into ``clicks``
    and the u×10 ``portraits`` and checked as in :class:`SessionTable`."""

    user_id: np.ndarray
    state: np.ndarray
    clicks: tuple[frozenset[int], ...]
    portraits: np.ndarray

    def __post_init__(self) -> None:
        _check_table("user", self, _SESSION_COLUMNS[:2])  # state and user_id

    def __len__(self) -> int:
        return len(self.state)


def _parse_float_list(text: str, expect: int, what: str, line_no: int) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != expect:
        raise DataError(f"line {line_no}: expected {expect} {what}, got {len(parts)}")
    try:
        values = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise DataError(f"line {line_no}: bad {what} value: {exc}") from None
    if not all(map(math.isfinite, values)):
        raise DataError(f"line {line_no}: non-finite {what} value in {text!r}")
    return values


def _parse_int(text: str, what: str, line_no: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise DataError(f"line {line_no}: bad {what} {text!r}") from None
    if not _INT64.min <= value <= _INT64.max:
        raise DataError(f"line {line_no}: {what} {value} outside the 64-bit range")
    return value


def _parse_int_list(text: str, what: str, line_no: int) -> tuple[int, ...]:
    if text == "-":
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise DataError(f"line {line_no}: bad {what} value in {text!r}") from None


def parse_items(text: str) -> ItemCatalog:
    """Parse an item file into a catalog.

    Raises :class:`DataError` naming the line number and field for any
    malformed line, id outside the signed 64-bit range, duplicate id,
    location outside {1,2,3}, or negative price.  An empty file yields an
    empty catalog.
    """
    rows: dict[int, tuple] = {}
    for line_no, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        fields = line.split(" ")
        if len(fields) != 4:
            raise DataError(f"line {line_no}: expected 4 fields, got {len(fields)}")
        item_id = _parse_int(fields[0], "item_id", line_no)
        features = _parse_float_list(fields[1], N_CONTENT, "content features", line_no)
        try:
            price = float(fields[2])
        except ValueError:
            raise DataError(f"line {line_no}: bad price {fields[2]!r}") from None
        if not math.isfinite(price) or price < 0:
            raise DataError(f"line {line_no}: negative or non-finite price {fields[2]}")
        try:
            location = int(fields[3])
        except ValueError:
            raise DataError(f"line {line_no}: bad location {fields[3]!r}") from None
        if location not in (1, 2, 3):
            raise DataError(f"line {line_no}: location {location} outside {{1,2,3}}")
        if item_id in rows:
            raise DataError(f"line {line_no}: duplicate item_id {item_id}")
        rows[item_id] = (features, price, location)
    features, prices, locations = zip(*rows.values()) if rows else ((), (), ())
    return ItemCatalog(np.array(list(rows), np.int64), np.reshape(features, (-1, N_CONTENT)),
                       np.array(prices, np.float64), np.array(locations, np.int64))


def serialize_items(catalog: ItemCatalog) -> str:
    columns = (catalog.ids, catalog.features, catalog.prices, catalog.locations)
    rows = zip(*(column.tolist() for column in columns))
    lines = [f"{i} {','.join(map(repr, feats))} {price!r} {loc}" for i, feats, price, loc in rows]
    return "\n".join(lines) + ("\n" if lines else "")


# Session and user files are parsed a block of lines at a time, so that only
# one block's split fields are live: split all at once, a 5,000-line file's
# fields peak at 2.6 times the heap of 256-line blocks.
_PARSE_BLOCK = 256
# The location that each slate position requires.
_SLATE_LOCATIONS = np.repeat(STEPS, 3)


def slate_faults(slates: np.ndarray, catalog: ItemCatalog) -> np.ndarray:
    """Which steps of each 9-item slate break the slate rule, as an n×3 bool
    mask: 1-based position ``p`` of an int64 row of ``slates`` (n×9) must
    hold a catalog item of location ⌈p/3⌉, and no item may repeat within a
    step's 3 positions."""
    at, known = catalog.index(slates)
    # An unknown item reads location 0, which no position requires.
    located = np.append(catalog.locations, 0)[np.where(known, at, -1)] == _SLATE_LOCATIONS
    ok = located.reshape(-1, len(STEPS), 3)
    a, b, c = slates.reshape(-1, len(STEPS), 3).transpose(2, 0, 1)
    return ~(ok[:, :, 0] & ok[:, :, 1] & ok[:, :, 2]) | (a == b) | (b == c) | (a == c)


def _line_blocks(text: str) -> Iterator[tuple[Sequence[int], Sequence[str]]]:
    """The non-blank lines of ``text``, up to ``_PARSE_BLOCK`` lines at a
    time, with their 1-based line numbers."""
    lines = text.splitlines()
    for lo in range(0, len(lines), _PARSE_BLOCK):
        block = lines[lo : lo + _PARSE_BLOCK]
        numbers = range(lo + 1, lo + 1 + len(block))
        if "" in block or any(map(str.isspace, block)):
            kept = [(no, line) for no, line in zip(numbers, block) if line and not line.isspace()]
            if not kept:
                continue
            numbers, block = zip(*kept)
        yield numbers, block


def _check_user_line(
    line_no: int, fields: list[str], catalog: ItemCatalog, width: int = 3
) -> None:
    """Raise the first fault of a line's field count, user id, click history
    and portraits, checked in that order."""
    if len(fields) != width:
        raise DataError(f"line {line_no}: expected {width} fields, got {len(fields)}")
    _parse_int(fields[0], "user_id", line_no)
    for c in _parse_int_list(fields[1], "click history", line_no):
        if c not in catalog:
            raise DataError(f"line {line_no}: clicked item {c} not in catalog")
    _parse_float_list(fields[2], N_PORTRAITS, "portraits", line_no)


def _check_session_line(line_no: int, fields: list[str], catalog: ItemCatalog) -> None:
    """Raise the first fault of a session line, its fields checked in order."""
    _check_user_line(line_no, fields, catalog, width=6)
    slate = _parse_int_list(fields[3], "exposed slate", line_no)
    if len(slate) != SLATE_SIZE:
        raise DataError(f"line {line_no}: expected {SLATE_SIZE} slate items, got {len(slate)}")
    labels = _parse_int_list(fields[4], "labels", line_no)
    if len(labels) != SLATE_SIZE:
        raise DataError(f"line {line_no}: expected {SLATE_SIZE} labels, got {len(labels)}")
    if any(v not in (0, 1) for v in labels):
        raise DataError(f"line {line_no}: labels must be 0 or 1")
    _parse_int(fields[5], "timestamp", line_no)
    for pos, item_id in enumerate(slate, 1):
        if item_id not in catalog:
            raise DataError(f"line {line_no}: slate item {item_id} not in catalog")
        expected_loc = (pos - 1) // 3 + 1
        actual_loc = catalog.location(item_id)
        if actual_loc != expected_loc:
            raise DataError(
                f"line {line_no}: slate position {pos} holds item {item_id} "
                f"with location {actual_loc}, expected {expected_loc}"
            )
    for step in STEPS:
        row = slate[(step - 1) * 3 : step * 3]
        if len(set(row)) != 3:
            raise DataError(f"line {line_no}: duplicate item within step {step} row")


class _BadBlock(Exception):
    """A block of lines fails a check; checking its lines one at a time
    names the line and the check."""


def _require(ok) -> None:
    if not ok:
        raise _BadBlock


def _fields(lines: Sequence[str], width: int) -> list[list[str]]:
    """The ``width`` fields of each of ``lines``, split at single spaces, as
    ``width`` columns."""
    _require(set(map(str.count, lines, repeat(" "))) == {width - 1})
    fields = " ".join(lines).split(" ")
    return [fields[i::width] for i in range(width)]


def _joined(texts: Sequence[str], width: int) -> str:
    """``texts``, comma-separated lists of ``width`` items each, joined by
    commas."""
    _require(set(map(str.count, texts, repeat(","))) == {width - 1})
    return ",".join(texts)


def _c_ints(raw: str, count: int) -> np.ndarray | None:
    """The ``count`` comma-separated integers of ``raw``, read in C; or None
    where that read could differ from ``int``'s.

    ``np.fromstring`` reads only ASCII digits and commas here, so signs,
    ``_``, whitespace and non-ASCII digits are left to ``int``.  Text of
    another number of commas than ``count`` tokens need is refused, since
    the read drops a trailing comma.  A read that stops short (a
    ``ValueError``, or a ``DeprecationWarning`` on older numpy) or gives
    another count, and a value saturated at the int64 maximum, are refused
    too.
    """
    if not raw.isascii():
        return None
    data = raw.encode("ascii")
    if data.translate(None, b"0123456789,") or data.count(b",") != max(count - 1, 0):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            values = np.fromstring(data, np.int64, sep=",")
    except (ValueError, DeprecationWarning):
        return None
    if len(values) != count or (values == _INT64.max).any():
        return None
    return values


def _ints(raw: str, count: int) -> np.ndarray:
    """The ``count`` comma-separated integers of ``raw``, read as ``int``
    reads them, into int64: in C where :func:`_c_ints` can, else token by
    token.  Another count, or a token that ``int`` refuses or that does not
    fit in 64 bits, raises :class:`_BadBlock`."""
    values = _c_ints(raw, count)
    if values is not None:
        return values
    tokens = raw.split(",")
    _require(len(tokens) == count)
    try:
        return np.fromiter(map(int, tokens), np.int64, count)
    except (ValueError, OverflowError):
        raise _BadBlock from None


class _StateIndex:
    """Numbers the user states of one file as its blocks are read.

    Each distinct clicks or portraits text is read once, in the block where
    it first appears.  Lines of equal clicks and portraits values share one
    state, and states are numbered in order of first appearance.
    """

    def __init__(self, catalog: ItemCatalog) -> None:
        self.catalog = catalog
        self.clicks: dict[str, frozenset[int]] = {}
        self.portraits: dict[str, tuple[float, ...]] = {}
        self.states: dict[tuple[frozenset[int], tuple[float, ...]], int] = {}
        self.text_states: dict[tuple[str, str], int] = {}

    def number(self, clicks: Sequence[str], portraits: Sequence[str]) -> np.ndarray:
        """The state of each line."""
        pairs = list(zip(clicks, portraits))
        new = [pair for pair in dict.fromkeys(pairs) if pair not in self.text_states]
        if new:
            self._read_clicks(list(dict.fromkeys(c for c, _ in new if c not in self.clicks)))
            self._read_portraits(
                list(dict.fromkeys(p for _, p in new if p not in self.portraits))
            )
            for c, p in new:
                value = (self.clicks[c], self.portraits[p])
                self.text_states[c, p] = self.states.setdefault(value, len(self.states))
        return np.fromiter(map(self.text_states.__getitem__, pairs), np.int64, len(pairs))

    def _read_clicks(self, texts: list[str]) -> None:
        ends = np.cumsum([0] + [0 if t == "-" else t.count(",") + 1 for t in texts]).tolist()
        items = _ints(",".join(t for t in texts if t != "-"), ends[-1])
        _require(self.catalog.index(items)[1].all())
        items = items.tolist()
        for text, lo, hi in zip(texts, ends, ends[1:]):
            self.clicks[text] = frozenset(items[lo:hi])

    def _read_portraits(self, texts: list[str]) -> None:
        if not texts:
            return
        try:
            values = np.fromiter(map(float, _joined(texts, N_PORTRAITS).split(",")), np.float64)
        except ValueError:
            raise _BadBlock from None
        _require(np.isfinite(values).all())
        self.portraits.update(zip(texts, map(tuple, values.reshape(-1, N_PORTRAITS).tolist())))


def _read_columns(text: str, catalog: ItemCatalog, read: Callable, check: Callable):
    """The columns that ``read`` reads from each block of ``text``'s lines,
    joined, or none for a file of no lines; and the file's states' clicks
    and portraits.

    ``read`` raises :class:`_BadBlock` when any line fails a check; then
    ``check`` checks the block's lines one at a time and raises the first
    bad line's first fault.
    """
    index = _StateIndex(catalog)
    blocks = []
    for numbers, lines in _line_blocks(text):
        try:
            blocks.append(read(lines, catalog, index))
        except _BadBlock:
            for line_no, line in zip(numbers, lines):
                check(line_no, line.split(" "), catalog)
            raise AssertionError("a block fails its checks but each of its lines passes") from None
    return [np.concatenate(column) for column in zip(*blocks)], _state_values(index.states)


def _session_block(lines: Sequence[str], catalog: ItemCatalog, index: _StateIndex) -> tuple:
    """One block's ``user_id``, ``timestamp``, ``state``, ``slate`` and
    ``labels`` columns."""
    n = len(lines)
    users, clicks, portraits, slates, labels, times = _fields(lines, 6)
    state = index.number(clicks, portraits)
    slate, label = (
        _ints(_joined(texts, SLATE_SIZE), n * SLATE_SIZE).reshape(-1, SLATE_SIZE)
        for texts in (slates, labels)
    )
    _require(((label == 0) | (label == 1)).all())
    _require(not slate_faults(slate, catalog).any())
    return _ints(",".join(users), n), _ints(",".join(times), n), state, slate, label == 1


def parse_sessions(text: str, catalog: ItemCatalog) -> SessionTable:
    """Parse a session file, validating every record against the catalog.

    Rejected lines raise :class:`DataError` stating the line number and the
    violated constraint; a slate item whose location does not match its row
    is reported by 1-based slate position.  Of several bad lines the first
    is named, with the first constraint it violates in the order of the
    fields.  A user id or timestamp must fit in 64 bits.
    """
    columns, states = _read_columns(text, catalog, _session_block, _check_session_line)
    if not columns:
        return SessionTable.from_records([])
    return SessionTable(*columns, *states)


def session_text_blocks(sessions: SessionTable) -> Iterator[str]:
    """The session file of ``sessions``, as :func:`parse_sessions` reads it,
    in pieces of up to ``_BLOCK`` lines each, so that a writer need not hold
    the whole text.

    Each state's clicks and portraits text is rendered once, and so is each
    of the 2**9 rows of labels; a line joins them with its other columns.
    """
    states = [
        f"{','.join(map(str, sorted(clicks))) or '-'} {','.join(map(repr, portraits))}"
        for clicks, portraits in zip(sessions.clicks, sessions.portraits.tolist())
    ]
    labels = [
        ",".join("1" if bits >> j & 1 else "0" for j in range(SLATE_SIZE))
        for bits in range(1 << SLATE_SIZE)
    ]
    patterns = sessions.labels @ (1 << np.arange(SLATE_SIZE))
    for lo in range(0, len(sessions), _BLOCK):
        rows = slice(lo, lo + _BLOCK)
        yield "".join(
            f"{user_id} {states[s]} {','.join(map(str, slate))} {labels[k]} {timestamp}\n"
            for user_id, s, slate, k, timestamp in zip(
                sessions.user_id[rows].tolist(),
                sessions.state[rows].tolist(),
                sessions.slate[rows].tolist(),
                patterns[rows].tolist(),
                sessions.timestamp[rows].tolist(),
            )
        )


def serialize_sessions(sessions: SessionTable) -> str:
    """The session file of ``sessions``: the join of :func:`session_text_blocks`."""
    return "".join(session_text_blocks(sessions))


def _user_block(lines: Sequence[str], catalog: ItemCatalog, index: _StateIndex) -> tuple:
    """One block's user ids and states."""
    users, clicks, portraits = _fields(lines, 3)
    return _ints(",".join(users), len(lines)), index.number(clicks, portraits)


def parse_users(text: str, catalog: ItemCatalog) -> UserTable:
    """Parse a user file: ``<user_id> <clicks or -> <p1,...,p10>`` per line.

    Checked as the same fields of a session file; users of equal click
    history and portraits share one state.
    """
    columns, states = _read_columns(text, catalog, _user_block, _check_user_line)
    return UserTable(*(columns or [np.empty(0, np.int64)] * 2), *states)


_TRANSITION_COLUMNS = (
    ("session_ref", "i", ()),
    ("step", "i", ()),
    ("action", "i", (3,)),
    ("reward", "f", ()),
    ("terminal", "b", ()),
)


@dataclass(frozen=True, eq=False)
class TransitionTable:
    """Training transitions as five columns of one length, one row per
    transition: ``action`` is n×3, each row a slate's items in ascending
    order, and the others are 1-D.  A terminal row ends its session's
    episode; any other row leads to the next step of the same session.

    Construction raises :class:`DataError`, naming the column, when a column
    is not an array of its shape and kind or not as long as ``session_ref``,
    and naming the first bad row when an action's items do not strictly
    ascend.
    """

    session_ref: np.ndarray  # signed integer
    step: np.ndarray  # signed integer
    action: np.ndarray  # signed integer, n×3
    reward: np.ndarray  # float
    terminal: np.ndarray  # bool

    def __post_init__(self) -> None:
        _check_columns("transition", self, _TRANSITION_COLUMNS, "session_ref")
        a = self.action
        # Column compares: a reduction over an axis of length 3 is far slower.
        ascends = (a[:, 0] < a[:, 1]) & (a[:, 1] < a[:, 2])
        if not ascends.all():
            i = int(ascends.argmin())
            raise DataError(
                f"transition row {i} has action {tuple(self.action[i].tolist())}, "
                "not 3 strictly ascending items"
            )

    def __len__(self) -> int:
        return len(self.step)


def sessions_to_transitions(sessions: SessionTable, catalog: ItemCatalog) -> TransitionTable:
    """Derive training transitions from logged sessions.

    A session contributes its step-1 transition always, step 2 only when all
    three step-1 items were purchased, and step 3 only when all six prior
    items were purchased.  The reward is the total price of the purchased
    items in the step, summed in slate order from 0.0; a transition is
    terminal when any of its three labels is false or when the step is 3.
    Anything logged after the first terminating step is discarded.  Rows
    come session by session, each session's in step order.

    Every exposed item must be in the catalog, reached or not: the first
    unknown one, in session then slate order, raises :class:`DataError`.
    """
    # At least one block, empty or not, so that every column has its dtype.
    blocks = [
        _block_transitions(sessions, lo, catalog)
        for lo in range(0, max(len(sessions), 1), _BLOCK)
    ]
    return TransitionTable(*(np.concatenate(column) for column in zip(*blocks)))


# Sessions per block of ``sessions_to_transitions``, ``session_text_blocks``
# and iterating a ``SessionTable``.  Blocks bound the n×9 temporaries: built for 48k sessions
# at once they peak at 13 MiB and raise the process's peak RSS.
_BLOCK = 4096


def _block_transitions(sessions: SessionTable, lo: int, catalog: ItemCatalog):
    """The ``TransitionTable`` columns of sessions ``lo`` to ``lo + _BLOCK``."""
    slates, labels = (
        column[lo : lo + _BLOCK].reshape(-1, len(STEPS), 3)
        for column in (sessions.slate, sessions.labels)
    )
    at, known = catalog.index(slates)
    if not known.all():
        raise DataError(f"unknown item_id {slates.flat[np.argmin(known)]}")
    full = labels[..., 0] & labels[..., 1] & labels[..., 2]
    reach = np.ones_like(full)
    reach[:, 1:] = np.logical_and.accumulate(full[:, :-1], axis=1)
    ref, at_step = np.nonzero(reach)
    paid = np.where(labels[ref, at_step], catalog.prices[at[ref, at_step]], 0.0)
    action = slates[ref, at_step]
    # Three compare-exchanges sort each row in place: exact for integers, and
    # a few times faster than ``np.sort`` on rows of 3.
    first, second, third = action.T
    for low, high in ((first, second), (second, third), (first, second)):
        least = np.minimum(low, high)
        np.maximum(low, high, out=high)
        low[...] = least
    return (
        ref + lo,
        at_step + STEPS[0],
        action,
        # The order of Python's sum over the purchased prices, bit for bit.
        ((0.0 + paid[:, 0]) + paid[:, 1]) + paid[:, 2],
        ~full[ref, at_step] | (at_step == len(STEPS) - 1),
    )


# ---------------------------------------------------------------------------
# Synthetic data generation


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of the synthetic corpus generator.

    ``num_groups`` plants that many user preference archetypes so the
    clustering stage has recoverable structure.  Prices are drawn as whole
    currency units so revenue sums are exact in floating point.
    """

    num_items: int
    num_users: int
    num_sessions: int
    latent_dim: int = 5
    price_range: tuple[float, float] = (1.0, 100.0)
    purchase_temperature: float = 1.0
    seed: int = 0
    num_groups: int = 4
    preference_scale: float = 1.0
    base_appeal: float = 0.0

    def validate(self) -> None:
        if self.num_items < 9 or self.num_items % 3 != 0:
            raise DataError("num_items must be >= 9 and divisible by 3")
        if self.num_users < 1:
            raise DataError("num_users must be positive")
        if self.num_sessions < 1:
            raise DataError("num_sessions must be positive")
        if self.latent_dim < 1:
            raise DataError("latent_dim must be positive")
        if self.seed < 0:
            raise DataError("seed must be non-negative")
        for name in ("price_range", "purchase_temperature", "preference_scale", "base_appeal"):
            if not np.isfinite(getattr(self, name)).all():
                raise DataError(f"{name} must be finite")
        if self.price_range[0] > self.price_range[1] or self.price_range[0] < 0:
            raise DataError("price_range must satisfy 0 <= min <= max")
        # Prices are drawn by rng.integers(ceil(min), floor(max) + 1), whose
        # exclusive bound may reach 2**63.
        if math.floor(self.price_range[1]) + 1 > 2**63:
            raise DataError("price_range max must be below 2**63 whole currency units")
        if self.purchase_temperature <= 0:
            raise DataError("purchase_temperature must be positive")
        if self.num_groups < 1 or self.num_groups > self.num_users:
            raise DataError("num_groups must be in [1, num_users]")


@dataclass
class GroundTruth:
    """The generator's exact purchase model, for oracle evaluation."""

    price_penalty: float
    purchase_temperature: float
    click_bias: float
    latent_dim: int
    num_groups: int
    user_groups: dict[int, int]
    user_preferences: dict[int, tuple[float, ...]]

    def purchase_probability(self, user_id: int, catalog: ItemCatalog, item_id: int) -> float:
        """The chance that ``user_id`` buys ``item_id`` of ``catalog`` when shown it."""
        (at,), (known,) = catalog.index(np.array([item_id], np.int64))
        if not known:
            raise DataError(f"unknown item_id {item_id}")
        pref = np.asarray(self.user_preferences[user_id])
        utility = float(pref @ catalog.features[at]) - self.price_penalty * catalog.prices[at]
        return float(_sigmoid(np.asarray(utility / self.purchase_temperature)))

    def serialize(self) -> str:
        head = {
            "record": "model",
            "price_penalty": self.price_penalty,
            "purchase_temperature": self.purchase_temperature,
            "click_bias": self.click_bias,
            "latent_dim": self.latent_dim,
            "num_groups": self.num_groups,
        }
        lines = [json.dumps(head, sort_keys=True)]
        for uid in sorted(self.user_groups):
            lines.append(
                json.dumps(
                    {
                        "record": "user",
                        "user_id": uid,
                        "group": self.user_groups[uid],
                        "preference": list(self.user_preferences[uid]),
                    },
                    sort_keys=True,
                )
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "GroundTruth":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise DataError("empty ground-truth file")
        head = _truth_record(lines[0], 1)
        if head.get("record") != "model":
            raise DataError("ground truth must start with a model record")
        groups: dict[int, int] = {}
        prefs: dict[int, tuple[float, ...]] = {}
        for line_no, ln in enumerate(lines[1:], 2):
            rec = _truth_record(ln, line_no)
            if rec.get("record") != "user":
                raise DataError(f"ground truth line {line_no}: expected user record")
            uid, group, pref = _truth_fields(rec, ("user_id", "group", "preference"), line_no)
            groups[uid] = group
            prefs[uid] = tuple(pref)
        penalty, temperature, bias, latent_dim, num_groups = _truth_fields(
            head,
            ("price_penalty", "purchase_temperature", "click_bias", "latent_dim", "num_groups"),
            1,
        )
        return cls(
            price_penalty=penalty,
            purchase_temperature=temperature,
            click_bias=bias,
            latent_dim=latent_dim,
            num_groups=num_groups,
            user_groups=groups,
            user_preferences=prefs,
        )


def _truth_record(line: str, line_no: int) -> dict:
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DataError(f"ground truth line {line_no}: {exc}") from None
    if not isinstance(rec, dict):
        raise DataError(f"ground truth line {line_no}: expected a JSON object")
    return rec


def _truth_fields(rec: dict, names, line_no: int) -> list:
    missing = [name for name in names if name not in rec]
    if missing:
        raise DataError(f"ground truth line {line_no}: lacks field {missing[0]!r}")
    return [rec[name] for name in names]


@dataclass
class SyntheticCorpus:
    catalog: ItemCatalog
    sessions: SessionTable
    truth: GroundTruth


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Stable for large |x|: never exponentiates a positive argument.
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


_SESSION_CHUNK = 32768
_TIMESTAMP_BASE = 1_600_000_000
# Utility lost per currency unit of price, and the logit offset that makes
# clicks rarer than an even chance; ``GroundTruth`` records both.
_PRICE_PENALTY = 0.01
_CLICK_BIAS = 1.0


def generate_synthetic(config: SyntheticConfig) -> SyntheticCorpus:
    """Generate a seeded corpus with a known purchase model.

    Users belong to ``num_groups`` preference archetypes; purchase labels for
    a slate item are Bernoulli with probability
    ``sigmoid((preference . features - _PRICE_PENALTY * price) / temperature)``
    and later steps are gated: once a step is not fully purchased, every
    subsequent label is 0.  Logged slates come from a behavior policy that is
    uniform over location-valid items with a mild popularity bias.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)

    n_items = config.num_items
    item_ids = np.arange(1, n_items + 1)
    locations = (item_ids - 1) % 3 + 1
    # base_appeal > 0 shifts both factors positive, raising the typical
    # purchase probability so sessions survive deeper into the slate.
    features = rng.normal(loc=config.base_appeal, size=(n_items, 5))
    lo = math.ceil(config.price_range[0])
    hi = math.floor(config.price_range[1])
    if hi < lo:
        raise DataError("price_range contains no whole currency unit")
    prices = rng.integers(lo, hi + 1, size=n_items).astype(np.float64)

    catalog = ItemCatalog(item_ids, features, prices, locations)

    if config.latent_dim == 5:
        mix = np.eye(5)
    else:
        mix = rng.normal(size=(5, config.latent_dim)) / math.sqrt(config.latent_dim)
    raw_dirs = rng.normal(size=(config.num_groups, config.latent_dim))
    if config.num_groups <= config.latent_dim:
        # Orthonormal group directions: planted groups stay uniformly
        # separated instead of depending on lucky random draws.
        q, _ = np.linalg.qr(raw_dirs.T)
        directions = q.T[: config.num_groups]
    else:
        directions = raw_dirs / np.linalg.norm(raw_dirs, axis=1, keepdims=True)
    archetypes = config.preference_scale * (directions + config.base_appeal)
    groups = np.arange(config.num_users) % config.num_groups
    latent = archetypes[groups] + 0.1 * config.preference_scale * rng.normal(
        size=(config.num_users, config.latent_dim)
    )
    prefs = latent @ mix.T

    portrait_map = rng.normal(size=(N_PORTRAITS, config.latent_dim))
    portraits = latent @ portrait_map.T + 0.05 * rng.normal(
        size=(config.num_users, N_PORTRAITS)
    )

    click_prob = _sigmoid(prefs @ features.T - _CLICK_BIAS)
    clicks_mask = rng.random(size=(config.num_users, n_items)) < click_prob
    user_clicks = [frozenset(item_ids[row].tolist()) for row in clicks_mask]
    user_state, state_clicks, state_portraits = _number_states(
        zip(user_clicks, map(tuple, portraits.tolist()))
    )

    popularity = 1.0 + rng.exponential(0.5, size=n_items)  # the mild popularity bias
    loc_members = [np.flatnonzero(locations == loc) for loc in STEPS]
    log_pop = [np.log(popularity[m]) for m in loc_members]

    user_of_session = rng.integers(0, config.num_users, size=config.num_sessions)
    gaps = rng.integers(1, 3600, size=config.num_sessions)
    timestamps = _TIMESTAMP_BASE + np.cumsum(gaps)

    slate_chunks, label_chunks = [], []
    beta = _PRICE_PENALTY
    temp = config.purchase_temperature
    for start in range(0, config.num_sessions, _SESSION_CHUNK):
        stop = min(start + _SESSION_CHUNK, config.num_sessions)
        n = stop - start
        users = user_of_session[start:stop]

        slate_cols = []
        for li in range(3):
            members = loc_members[li]
            keys = log_pop[li][None, :] + rng.gumbel(size=(n, len(members)))
            top3 = np.argpartition(keys, -3, axis=1)[:, -3:]
            order = np.argsort(np.take_along_axis(keys, top3, axis=1), axis=1)[:, ::-1]
            slate_cols.append(item_ids[members[np.take_along_axis(top3, order, axis=1)]])
        slates = np.concatenate(slate_cols, axis=1)

        idx = slates - 1
        utilities = np.einsum("cf,csf->cs", prefs[users], features[idx]) - beta * prices[idx]
        probs = _sigmoid(utilities / temp)
        sampled = rng.random(size=(n, SLATE_SIZE)) < probs

        ok1 = sampled[:, 0:3].all(axis=1)
        labels = sampled.copy()
        labels[:, 3:6] &= ok1[:, None]
        ok2 = ok1 & sampled[:, 3:6].all(axis=1)
        labels[:, 6:9] &= ok2[:, None]
        slate_chunks.append(slates)
        label_chunks.append(labels)

    # States are numbered by user; taking every session renumbers them by
    # first appearance and drops those of users who have no session.
    sessions = SessionTable(
        user_of_session + 1, timestamps, user_state[user_of_session],
        np.concatenate(slate_chunks), np.concatenate(label_chunks), state_clicks, state_portraits,
    ).take(np.arange(config.num_sessions))

    truth = GroundTruth(
        price_penalty=beta,
        purchase_temperature=temp,
        click_bias=_CLICK_BIAS,
        latent_dim=config.latent_dim,
        num_groups=config.num_groups,
        user_groups={u + 1: int(groups[u]) for u in range(config.num_users)},
        user_preferences={
            u + 1: tuple(float(v) for v in prefs[u]) for u in range(config.num_users)
        },
    )
    return SyntheticCorpus(catalog=catalog, sessions=sessions, truth=truth)
