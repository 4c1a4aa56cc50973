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
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import Sequence

import numpy as np

from .errors import DataError

N_PORTRAITS = 10
SLATE_SIZE = 9
STEPS = (1, 2, 3)
_ITEM_ID_RANGE = np.iinfo(np.int64)  # item ids are held in int64 columns


@dataclass(frozen=True)
class ItemRecord:
    """One catalog item: identity, 5 content features, price, slate row."""

    item_id: int
    content_features: tuple[float, ...]
    price: float
    location: int


@dataclass
class ItemCatalog:
    """All items of a dataset, indexed by id and grouped by location."""

    items: dict[int, ItemRecord]
    by_location: dict[int, tuple[int, ...]] = field(init=False)

    def __post_init__(self) -> None:
        groups: dict[int, list[int]] = {1: [], 2: [], 3: []}
        for rec in self.items.values():
            groups[rec.location].append(rec.item_id)
        self.by_location = {loc: tuple(sorted(ids)) for loc, ids in groups.items()}

    @classmethod
    def from_records(cls, records: list[ItemRecord]) -> "ItemCatalog":
        items: dict[int, ItemRecord] = {}
        for rec in records:
            if rec.item_id in items:
                raise DataError(f"duplicate item_id {rec.item_id}")
            items[rec.item_id] = rec
        return cls(items=items)

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, item_id: int) -> bool:
        return item_id in self.items

    @property
    def item_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.items))

    def lookup(self, item_id: int) -> ItemRecord:
        try:
            return self.items[item_id]
        except KeyError:
            raise DataError(f"unknown item_id {item_id}") from None

    def price(self, item_id: int) -> float:
        return self.lookup(item_id).price

    def location(self, item_id: int) -> int:
        return self.lookup(item_id).location


@dataclass(frozen=True)
class SessionRecord:
    """One logged session: 9 exposed items over 3 steps plus purchase labels."""

    user_id: int
    clicked_items: frozenset[int]
    portraits: tuple[float, ...]
    exposed_slate: tuple[int, ...]
    purchase_labels: tuple[bool, ...]
    timestamp: int


@dataclass(frozen=True)
class UserRecord:
    """A user to recommend for: click history and portraits, no slate."""

    user_id: int
    clicked_items: frozenset[int]
    portraits: tuple[float, ...]


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


def _parse_int_list(text: str, what: str, line_no: int) -> tuple[int, ...]:
    if text == "-":
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise DataError(f"line {line_no}: bad {what} value in {text!r}") from None


def _state_parser(catalog: ItemCatalog):
    """A parser of one file's clicks and portraits fields, cached by raw text.

    Sessions of one user repeat the same two fields, so each distinct text
    is parsed and checked once per file: on its first line, which is the
    line an error names.  Every line with equal click text shares one
    ``frozenset`` and every line with equal portrait text one tuple.
    """
    clicks_of: dict[str, frozenset[int]] = {}
    portraits_of: dict[str, tuple[float, ...]] = {}

    def parse(
        clicks_text: str, portraits_text: str, line_no: int
    ) -> tuple[frozenset[int], tuple[float, ...]]:
        clicks = clicks_of.get(clicks_text)
        if clicks is None:
            ids = _parse_int_list(clicks_text, "click history", line_no)
            for c in ids:
                if c not in catalog:
                    raise DataError(f"line {line_no}: clicked item {c} not in catalog")
            clicks = clicks_of[clicks_text] = frozenset(ids)
        portraits = portraits_of.get(portraits_text)
        if portraits is None:
            portraits = portraits_of[portraits_text] = _parse_float_list(
                portraits_text, N_PORTRAITS, "portraits", line_no
            )
        return clicks, portraits

    return parse


def parse_items(text: str) -> ItemCatalog:
    """Parse an item file into a catalog.

    Raises :class:`DataError` naming the line number and field for any
    malformed line, id outside the signed 64-bit range, duplicate id,
    location outside {1,2,3}, or negative price.  An empty file yields an
    empty catalog.
    """
    records: list[ItemRecord] = []
    for line_no, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        fields = line.split(" ")
        if len(fields) != 4:
            raise DataError(f"line {line_no}: expected 4 fields, got {len(fields)}")
        try:
            item_id = int(fields[0])
        except ValueError:
            raise DataError(f"line {line_no}: bad item_id {fields[0]!r}") from None
        if not _ITEM_ID_RANGE.min <= item_id <= _ITEM_ID_RANGE.max:
            raise DataError(f"line {line_no}: item_id {item_id} outside the 64-bit range")
        features = _parse_float_list(fields[1], 5, "content features", line_no)
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
        records.append(ItemRecord(item_id, features, price, location))
    return ItemCatalog.from_records(records)


def serialize_items(catalog: ItemCatalog) -> str:
    lines = []
    for item_id in catalog.item_ids:
        rec = catalog.items[item_id]
        feats = ",".join(repr(float(f)) for f in rec.content_features)
        lines.append(f"{rec.item_id} {feats} {float(rec.price)!r} {rec.location}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_sessions(text: str, catalog: ItemCatalog) -> list[SessionRecord]:
    """Parse a session file, validating every record against the catalog.

    Rejected lines raise :class:`DataError` stating the line number and the
    violated constraint; a slate item whose location does not match its row
    is reported by 1-based slate position.
    """
    parse_state = _state_parser(catalog)
    sessions: list[SessionRecord] = []
    for line_no, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        fields = line.split(" ")
        if len(fields) != 6:
            raise DataError(f"line {line_no}: expected 6 fields, got {len(fields)}")
        try:
            user_id = int(fields[0])
        except ValueError:
            raise DataError(f"line {line_no}: bad user_id {fields[0]!r}") from None
        clicks, portraits = parse_state(fields[1], fields[2], line_no)
        slate = _parse_int_list(fields[3], "exposed slate", line_no)
        if len(slate) != SLATE_SIZE:
            raise DataError(f"line {line_no}: expected {SLATE_SIZE} slate items, got {len(slate)}")
        labels_raw = _parse_int_list(fields[4], "labels", line_no)
        if len(labels_raw) != SLATE_SIZE:
            raise DataError(f"line {line_no}: expected {SLATE_SIZE} labels, got {len(labels_raw)}")
        if any(v not in (0, 1) for v in labels_raw):
            raise DataError(f"line {line_no}: labels must be 0 or 1")
        try:
            timestamp = int(fields[5])
        except ValueError:
            raise DataError(f"line {line_no}: bad timestamp {fields[5]!r}") from None
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
        sessions.append(
            SessionRecord(
                user_id=user_id,
                clicked_items=clicks,
                portraits=portraits,
                exposed_slate=slate,
                purchase_labels=tuple(bool(v) for v in labels_raw),
                timestamp=timestamp,
            )
        )
    return sessions


def serialize_sessions(sessions: list[SessionRecord]) -> str:
    lines = []
    for s in sessions:
        clicks = ",".join(str(c) for c in sorted(s.clicked_items)) or "-"
        portraits = ",".join(repr(float(p)) for p in s.portraits)
        slate = ",".join(str(i) for i in s.exposed_slate)
        labels = ",".join("1" if b else "0" for b in s.purchase_labels)
        lines.append(f"{s.user_id} {clicks} {portraits} {slate} {labels} {s.timestamp}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_users(text: str, catalog: ItemCatalog) -> list[UserRecord]:
    """Parse a user file: ``<user_id> <clicks or -> <p1,...,p10>`` per line."""
    parse_state = _state_parser(catalog)
    users: list[UserRecord] = []
    for line_no, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        fields = line.split(" ")
        if len(fields) != 3:
            raise DataError(f"line {line_no}: expected 3 fields, got {len(fields)}")
        try:
            user_id = int(fields[0])
        except ValueError:
            raise DataError(f"line {line_no}: bad user_id {fields[0]!r}") from None
        users.append(UserRecord(user_id, *parse_state(fields[1], fields[2], line_no)))
    return users


# Each ``TransitionTable`` column's name, numpy dtype kind, kind in words
# and row shape.
_TABLE_COLUMNS = (
    ("session_ref", "i", "a signed integer dtype", ()),
    ("step", "i", "a signed integer dtype", ()),
    ("action", "i", "a signed integer dtype", (3,)),
    ("reward", "f", "a float dtype", ()),
    ("terminal", "b", "bool", ()),
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
        for name, kind, what, row in _TABLE_COLUMNS:
            column = getattr(self, name)
            if not isinstance(column, np.ndarray) or column.shape[1:] != row or column.ndim == 0:
                shape = "an n×3" if row else "a 1-D"
                raise DataError(f"transition column {name} is not {shape} array")
            if column.dtype.kind != kind:
                raise DataError(f"transition column {name} has dtype {column.dtype}, expected {what}")
            # session_ref, checked first, sets the length.
            if len(column) != len(self.session_ref):
                raise DataError(
                    f"transition column {name} has length {len(column)}, "
                    f"session_ref has length {len(self.session_ref)}"
                )
        ascends = (np.diff(self.action, axis=1) > 0).all(axis=1)
        if not ascends.all():
            i = int(ascends.argmin())
            raise DataError(
                f"transition row {i} has action {tuple(self.action[i].tolist())}, "
                "not 3 strictly ascending items"
            )

    def __len__(self) -> int:
        return len(self.step)


def sessions_to_transitions(
    sessions: Sequence[SessionRecord], catalog: ItemCatalog
) -> TransitionTable:
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
    ids = np.array(catalog.item_ids, np.int64)
    prices = np.array([catalog.price(i) for i in ids.tolist()], np.float64)
    # At least one block, empty or not, so that every column has its dtype.
    blocks = [
        _block_transitions(sessions, lo, ids, prices)
        for lo in range(0, max(len(sessions), 1), _BLOCK)
    ]
    return TransitionTable(*(np.concatenate(column) for column in zip(*blocks)))


# Sessions per block of ``sessions_to_transitions``.  Blocks bound its n×9
# temporaries: built for 48k sessions at once they peak at 13 MiB and raise
# the process's peak RSS.
_BLOCK = 4096


def _block_transitions(sessions, lo: int, ids: np.ndarray, prices: np.ndarray):
    """The ``TransitionTable`` columns of sessions ``lo`` to ``lo + _BLOCK``,
    given the catalog's sorted ids and their prices."""
    block = sessions[lo : lo + _BLOCK]
    n = len(block)
    slates, labels = (
        np.fromiter(chain.from_iterable(map(attrgetter(name), block)), dtype, n * SLATE_SIZE)
        .reshape(n, len(STEPS), 3)
        for name, dtype in (("exposed_slate", np.int64), ("purchase_labels", np.bool_))
    )
    at = np.searchsorted(ids, slates)
    # The appended 0 is read only where ``at`` is past the end, a miss anyway.
    known = (at < len(ids)) & (np.append(ids, 0)[at] == slates)
    if not known.all():
        raise DataError(f"unknown item_id {slates.flat[np.argmin(known)]}")
    full = labels.all(axis=2)
    reach = np.ones_like(full)
    reach[:, 1:] = np.logical_and.accumulate(full[:, :-1], axis=1)
    ref, at_step = np.nonzero(reach)
    paid = np.where(labels[ref, at_step], prices[at[ref, at_step]], 0.0)
    return (
        ref + lo,
        at_step + STEPS[0],
        np.sort(slates[ref, at_step], axis=1),
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
    price_penalty: float = 0.01
    preference_scale: float = 1.0
    click_bias: float = 1.0
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
        if self.price_range[0] > self.price_range[1] or self.price_range[0] < 0:
            raise DataError("price_range must satisfy 0 <= min <= max")
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

    def purchase_probability(self, user_id: int, item: ItemRecord) -> float:
        pref = np.asarray(self.user_preferences[user_id])
        utility = float(pref @ np.asarray(item.content_features)) - self.price_penalty * item.price
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
    sessions: list[SessionRecord]
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


def generate_synthetic(config: SyntheticConfig) -> SyntheticCorpus:
    """Generate a seeded corpus with a known purchase model.

    Users belong to ``num_groups`` preference archetypes; purchase labels for
    a slate item are Bernoulli with probability
    ``sigmoid((preference . features - price_penalty * price) / temperature)``
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

    records = [
        ItemRecord(
            item_id=int(item_ids[i]),
            content_features=tuple(float(v) for v in features[i]),
            price=float(prices[i]),
            location=int(locations[i]),
        )
        for i in range(n_items)
    ]
    catalog = ItemCatalog.from_records(records)

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

    click_prob = _sigmoid(prefs @ features.T - config.click_bias)
    clicks_mask = rng.random(size=(config.num_users, n_items)) < click_prob
    user_clicks = [
        frozenset(int(i) for i in item_ids[clicks_mask[u]]) for u in range(config.num_users)
    ]

    popularity = 1.0 + rng.exponential(0.5, size=n_items)  # the mild popularity bias
    loc_members = [np.flatnonzero(locations == loc) for loc in STEPS]
    log_pop = [np.log(popularity[m]) for m in loc_members]

    user_of_session = rng.integers(0, config.num_users, size=config.num_sessions)
    gaps = rng.integers(1, 3600, size=config.num_sessions)
    timestamps = _TIMESTAMP_BASE + np.cumsum(gaps)

    sessions: list[SessionRecord] = []
    beta = config.price_penalty
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

        for i in range(n):
            uid = int(users[i]) + 1
            sessions.append(
                SessionRecord(
                    user_id=uid,
                    clicked_items=user_clicks[users[i]],
                    portraits=tuple(float(v) for v in portraits[users[i]]),
                    exposed_slate=tuple(int(v) for v in slates[i]),
                    purchase_labels=tuple(bool(v) for v in labels[i]),
                    timestamp=int(timestamps[start + i]),
                )
            )

    truth = GroundTruth(
        price_penalty=beta,
        purchase_temperature=temp,
        click_bias=config.click_bias,
        latent_dim=config.latent_dim,
        num_groups=config.num_groups,
        user_groups={u + 1: int(groups[u]) for u in range(config.num_users)},
        user_preferences={
            u + 1: tuple(float(v) for v in prefs[u]) for u in range(config.num_users)
        },
    )
    return SyntheticCorpus(catalog=catalog, sessions=sessions, truth=truth)
