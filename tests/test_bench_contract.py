"""The benchmark's workloads run in-process with no failed check.

perfbench hands the library the session tables that the generator and
``holdout_split`` make, iterates them and pickles its corpora between
processes; these tests run each workload's set-up, operation and output
checks the same way, on a smaller train-stream corpus, so that a change to
those entry points fails here and not only in a benchmark run.  Nothing
under ``perfbench/`` is changed.
"""

import io
import pickle
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402
from qslate.ingest import SessionTable  # noqa: E402

# The sessions that each workload's set-up keeps for its operation and checks.
SESSION_KEYS = {
    "fit-repeat-users": ("validation",),
    "tune-unique-users": ("sessions",),
    "train-stream": ("train", "validation"),
}


class SmallStream(workloads.TrainStream):
    sessions, epochs = 3000, 2


def pickled(corpus):
    """``corpus`` after the pickle round trip that carries it out of its
    set-up process."""
    buffer = io.BytesIO()
    workloads._CorpusPickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(corpus)
    return pickle.loads(buffer.getvalue())


@pytest.mark.parametrize(
    # Only train-stream is shrunk.  On a tenth of their sessions the other two
    # fail on some seeds as a user's run would: with no training session
    # that reaches step 3, or with every point DBSCAN noise at eps 2.0.
    "workload",
    [workloads.FitRepeatUsers(), workloads.TuneUniqueUsers(), SmallStream(workers=2)],
    ids=lambda w: w.name,
)
def test_workload_runs_without_failure(workload, tmp_path):
    tally = workloads.Tally()
    corpus = pickled(workload.setup(3, tmp_path))
    for key in SESSION_KEYS[workload.name]:
        assert isinstance(corpus.data[key], SessionTable), key
    out = workload.run(corpus)
    score = workload.check(corpus, out, tally)
    assert tally.failures == []
    assert tally.attempted > 0
    assert score is not None
    assert 0 < corpus.distinct_ratio <= 1
    if isinstance(workload, workloads.FitRepeatUsers):
        assert workloads.parse_heap_mb(corpus) > 0
