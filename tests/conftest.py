import contextlib
import gc
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from qslate import qlearning
from qslate.features import build_raw_features
from qslate.ingest import ItemCatalog, SessionRecord, SyntheticConfig, generate_synthetic

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")

# Verdict lines recorded by the acceptance tests, echoed after the run.
ACCEPTANCE_VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


def catalog_rows(rows) -> ItemCatalog:
    """The catalog of ``(item_id, features, price, location)`` rows."""
    ids, features, prices, locations = zip(*rows) if rows else ((), (), (), ())
    return ItemCatalog(
        np.array(ids, np.int64),
        np.array(features, np.float64).reshape(-1, 5),
        np.array(prices, np.float64),
        np.array(locations, np.int64),
    )


def make_catalog(prices=None) -> ItemCatalog:
    """Nine items: 1-3 on location 1, 4-6 on 2, 7-9 on 3; price = id by default."""
    prices = prices or {i: float(i) for i in range(1, 10)}
    return catalog_rows([
        (i, (0.1 * i, 0.2, 0.3, 0.4, 0.5), prices[i], (i - 1) // 3 + 1) for i in range(1, 10)
    ])


def make_session(labels, user_id=1, slate=None, clicks=(), timestamp=1_700_000_000):
    slate = slate or tuple(range(1, 10))
    return SessionRecord(
        user_id=user_id,
        clicked_items=frozenset(clicks),
        portraits=tuple(float(i) for i in range(10)),
        exposed_slate=tuple(slate),
        purchase_labels=tuple(bool(b) for b in labels),
        timestamp=timestamp,
    )


@contextlib.contextmanager
def forced_pool(pool=None):
    """Train with the forked pool whatever a stream's size, as if 8 cores
    were usable, through ``pool`` (the real executor by default).
    Yields the ``max_workers`` of each pool started."""
    pool = pool or qlearning.ProcessPoolExecutor
    started = []

    def spy(*args, **kwargs):
        started.append(kwargs["max_workers"])
        return pool(*args, **kwargs)

    with mock.patch.object(qlearning, "_POOL_MIN_READS", 0), \
            mock.patch.object(qlearning, "_usable_cores", lambda: 8), \
            mock.patch.object(qlearning, "ProcessPoolExecutor", spy):
        yield started


def heap_added(call):
    """``call()``, and the heap it held at its peak beyond what is live once it
    returns (its inputs, its result and anything it kept), in bytes."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - current


@pytest.fixture(scope="session")
def wide_states():
    """Raw features of a tune-shaped corpus, nearly one user per session:
    381 items, so 391 columns, and 3,539 distinct states."""
    corpus = generate_synthetic(
        SyntheticConfig(num_items=381, num_users=16_000, num_sessions=4_000, seed=5)
    )
    return corpus, build_raw_features(corpus.sessions, corpus.catalog)


@pytest.fixture
def catalog9():
    return make_catalog()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(0)
