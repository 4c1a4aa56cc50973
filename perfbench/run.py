"""Seeded end-to-end benchmark of qslate, with an optional traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fit-repeat-users --seed 1 --seconds 25 --trace 0

The run builds five corpora from seeds derived from ``--seed``, one at a
time: it sets one corpus up, repeats the workload's operation on it for a
fifth of ``--seconds`` and checks every output, then drops it before the
next set-up.  ``setup_s`` is the median of the five set-ups and the timings
are medians over the operations.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` the operations come in pairs, one untraced and one with every
layer wrapped, and the metrics are the per-layer ones.  The line before the
last one carries the run context and the samples behind each median.

qslate is imported from ``src/`` of the checkout; BLAS threads are capped at
the number of cores this process may run on, and the process backend uses
that many workers.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SETUPS = 5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cap_blas_threads(cores: int) -> int:
    """Cap BLAS threads at ``cores``; takes effect only before numpy loads."""
    for var in BLAS_ENV:
        try:
            current = int(os.environ.get(var, cores))
        except ValueError:
            current = cores
        os.environ[var] = str(max(1, min(current, cores)))
    return int(os.environ[BLAS_ENV[0]])


def git_sha(root: Path) -> str | None:
    """HEAD of the git repository at ``root``; None outside one or without git."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_context(cores: int, blas_threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "git_sha": git_sha(ROOT),
        "cpu_count": os.cpu_count(),
        "affinity_cores": cores,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": blas_threads,
        "process_workers": cores,
        "src_lines": src_lines,
    }


def benchmark_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_op(workload, corpus, tally, tracer=None) -> dict | None:
    """One timed operation and its output checks; None if it failed.

    With a tracer, its wrappers are installed only around this operation and
    outside the timer, so an untraced operation runs exactly the code users
    run.
    """
    gc.collect()
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            if tracer is not None:
                tracer.install()
                tracer.recording = True
            t0 = time.perf_counter()
            try:
                out = workload.run(corpus)
            finally:
                wall = time.perf_counter() - t0
                if tracer is not None:
                    tracer.recording = False
                    tracer.uninstall()
            spans = tracer.take() if tracer is not None else None
            score = workload.check(corpus, out, tally)
    except Exception:  # a crashed operation is a failed one; keep measuring
        tally.record(False, traceback.format_exc(limit=3))
        if tracer is not None:
            tracer.take()
        return None
    return {"wall_s": wall, "score": score, "spans": spans}


def measure(workload, corpus, seconds: float, tally, tracer=None,
            traced_first: bool = False) -> list[dict]:
    """Repeat the operation on ``corpus`` until ``seconds`` have passed, at least once.

    With a tracer, each sample is a pair ``{"untraced": op, "traced": op}``
    run back to back on the same corpus.  Which one goes first alternates,
    starting with the traced one if ``traced_first``, so a host that speeds
    up or slows down within a run favours neither.
    """
    samples = []
    started = time.perf_counter()
    tries = 0
    while tries == 0 or time.perf_counter() - started < seconds:
        tries += 1
        if tracer is None:
            op = run_op(workload, corpus, tally)
            if op is not None:
                samples.append(op)
            continue
        order = (tracer, None) if (tries + traced_first) % 2 == 0 else (None, tracer)
        pair = {("traced" if t else "untraced"): run_op(workload, corpus, tally, t) for t in order}
        if None not in pair.values():
            samples.append(pair)
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cores = usable_cores()
    blas_threads = cap_blas_threads(cores)
    src = ROOT / "src"
    if not (src / "qslate" / "__init__.py").is_file():
        print(f"perfbench: no qslate sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np
    import spans as spans_mod
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, cores)
    tally = workloads.Tally()
    context = run_context(cores, blas_threads)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    tracer = spans_mod.Tracer() if args.trace else None
    setup_times, samples, distinct, parse_heap = [], [], [], []
    measured = 0.0
    try:
        corpus_seeds = [int(s) for s in np.random.SeedSequence(args.seed).generate_state(SETUPS)]
        for i, corpus_seed in enumerate(corpus_seeds):
            # One corpus is alive at a time, as in a user's process.
            corpus = None
            gc.collect()
            t0 = time.perf_counter()
            corpus = workloads.build_corpus(workload, corpus_seed, work)
            setup_times.append(time.perf_counter() - t0)
            if i == 0:
                sessions = corpus.sessions
                setup_rss = peak_rss_mb()
            # Corpus i measures until the run has measured (i + 1) fifths of
            # --seconds, so an operation that runs over a fifth shortens the
            # next corpus's share rather than lengthening the run.
            t0 = time.perf_counter()
            samples += measure(workload, corpus, (i + 1) * args.seconds / SETUPS - measured,
                               tally, tracer, traced_first=i % 2 == 1)
            measured += time.perf_counter() - t0
            distinct.append(corpus.distinct_ratio)
            if args.trace:
                parse_heap.append(workloads.parse_heap_mb(corpus))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not samples:
        print(f"perfbench: no operation completed: {tally.failures[:3]}", file=sys.stderr)
        return 1

    ops = [op for s in samples for op in s.values()] if args.trace else samples
    scores = [op["score"] for op in ops if op["score"] is not None]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "context": context,
        "corpus_seeds": corpus_seeds,
        "corpus_sessions": sessions,
        "setup_s": setup_times,
        "setup_rss_mb": setup_rss,
        "holdout_score": scores,
        "failures": tally.failures,
    }
    if args.trace:
        traced = [s["traced"] for s in samples]
        untraced = [s["untraced"] for s in samples]
        per_op = [spans_mod.op_metrics(op["spans"]) for op in traced]
        values = {key: statistics.median(op[key] for op in per_op) for key in per_op[0]}
        values["ingest.distinct_state_ratio"] = statistics.mean(distinct)
        values["ingest.parse_heap_mb"] = max(parse_heap)
        values["metric.holdout_score"] = statistics.median(scores) if scores else 0.0
        values["trace.overhead_s"] = statistics.median(
            t["wall_s"] - u["wall_s"] for t, u in zip(traced, untraced)
        )
        detail["traced_wall_s"] = [op["wall_s"] for op in traced]
        detail["untraced_wall_s"] = [op["wall_s"] for op in untraced]
        units = benchmark_units("per_layer")
    else:
        wall = statistics.median(op["wall_s"] for op in samples)
        detail["wall_s"] = [op["wall_s"] for op in samples]
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "sessions_per_s": sessions / wall,
            "peak_rss_mb": peak_rss_mb(),
        }
        units = benchmark_units("end_to_end")
    print(json.dumps(detail))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]} for name in units
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
