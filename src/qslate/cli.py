"""Command-line pipeline: generate, train, evaluate, tune, recommend.

Exit codes: 0 success, 1 usage error, 2 data error (bad files, bad values,
corrupt or mismatched models), 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

from .errors import DataError, ModelFileError, QslateError, read_model_file, write_model_file
from .ingest import (
    N_PORTRAITS,
    STEPS,
    ItemCatalog,
    SyntheticConfig,
    generate_synthetic,
    parse_items,
    parse_sessions,
    parse_users,
    serialize_items,
    session_text_blocks,
)
from .metric import MetricConfig, TuneResult, holdout_split, score, tune
from .pipeline import (
    CLUSTERS_FILE,
    PipelineModel,
    PipelineParams,
    fit_pipeline,
    load_models,
    recommend_for_sessions,
    save_models,
    timed,
)
from .qlearning import POLICY_LAYERS, check_policies

MANIFEST_FILE = "manifest.json"
MANIFEST_FORMAT = "qslate-manifest"
MANIFEST_VERSION = 1


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we own the exit codes
        raise UsageError(message)


def _weights(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected three comma-separated weights")
    try:
        return tuple(float(p) for p in parts)  # type: ignore[return-value]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad weights {text!r}") from None


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _seed(text: str) -> int:
    seed = _int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed {seed} is negative")
    return seed


def _threads(text: str) -> int:
    threads = _int(text)
    if threads < 1:
        raise argparse.ArgumentTypeError(f"threads must be >= 1, got {threads}")
    return threads


def _read_text(path: str) -> tuple[str, str]:
    """The file's text, decoded as UTF-8, and the sha256 of its bytes."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    try:
        return data.decode(), hashlib.sha256(data).hexdigest()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _stamp(digests: dict, params: dict, train_fraction: float) -> str:
    """A model's stamp: its input digests, params and split.  ``threads`` and
    ``deterministic`` choose how training runs, not what it learns, so they
    stay out (the manifest still records them)."""
    learned = {key: value for key, value in params.items()
               if key not in ("threads", "deterministic")}
    digest = hashlib.sha256()
    for part in (digests["items"], digests["sessions"], json.dumps(learned, sort_keys=True),
                 str(train_fraction)):
        digest.update(part.encode())
        digest.update(b"\x00")
    return digest.hexdigest()[:16]


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k-features", type=int, default=16, help="extracted feature count")
    p.add_argument("--l1", type=float, default=0.1, help="relative sparsity penalty")
    p.add_argument("--cluster", choices=("kmeans", "dbscan"), default="kmeans")
    p.add_argument("--k", type=int, default=8, help="kmeans cluster count")
    p.add_argument("--eps", type=float, default=0.5, help="dbscan radius")
    p.add_argument("--min-pts", type=int, default=5, help="dbscan core threshold")
    p.add_argument("--alpha", type=float, default=0.1, help="learning rate")
    p.add_argument("--gamma", type=float, default=0.9, help="discount factor")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--min-visits", type=int, default=3, help="policy eligibility threshold")
    p.add_argument("--min-support", type=int, default=500, help="min transitions per cluster")
    p.add_argument("--train-frac", type=float, default=0.8)
    p.add_argument("--threads", type=_threads, default=1,
                   help="training workers, capped at the usable cores; a stream too "
                        "small for a pool to win trains in process")
    p.add_argument("--deterministic", action="store_true")
    p.add_argument("--seed", type=_seed, default=0)


def _params_from_args(args) -> PipelineParams:
    if args.cluster == "kmeans":
        cluster = {"method": "kmeans", "k": args.k}
    else:
        cluster = {"method": "dbscan", "eps": args.eps, "min_pts": args.min_pts}
    return PipelineParams(
        k_features=args.k_features,
        l1_penalty=args.l1,
        cluster=cluster,
        alpha=args.alpha,
        gamma=args.gamma,
        epochs=args.epochs,
        min_visits=args.min_visits,
        min_cluster_support=args.min_support,
        seed=args.seed,
        threads=args.threads,
        deterministic=args.deterministic,
    )


def cmd_generate(args) -> int:
    config = SyntheticConfig(
        num_items=args.items,
        num_users=args.users,
        num_sessions=args.sessions,
        latent_dim=args.latent_dim,
        price_range=(args.price_min, args.price_max),
        purchase_temperature=args.temperature,
        seed=args.seed,
        num_groups=args.groups,
        preference_scale=args.preference_scale,
    )
    corpus = generate_synthetic(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "items.txt").write_text(serialize_items(corpus.catalog))
    with (out / "sessions.txt").open("w") as sessions_file:
        sessions_file.writelines(session_text_blocks(corpus.sessions))
    (out / "ground_truth.jsonl").write_text(corpus.truth.serialize())
    purchased = int(corpus.sessions.labels.sum())
    print(
        f"wrote {len(corpus.catalog)} items, {len(corpus.sessions)} sessions "
        f"({purchased} purchases) to {out}"
    )
    return 0


def _parse_corpus(items_text: str, sessions_text: str):
    catalog = parse_items(items_text)
    return catalog, parse_sessions(sessions_text, catalog)


def cmd_train(args) -> int:
    items_text, items_digest = _read_text(args.items)
    sessions_text, sessions_digest = _read_text(args.sessions)
    timings: list[tuple[str, float]] = []
    catalog, sessions = timed(
        timings, "parse", lambda: _parse_corpus(items_text, sessions_text)
    )
    params = _params_from_args(args)

    train_sessions, _ = holdout_split(sessions, args.train_frac, args.seed)
    started = time.perf_counter()
    model, stats = fit_pipeline(train_sessions, catalog, params)
    wall = time.perf_counter() - started

    digests = {"items": items_digest, "sessions": sessions_digest}
    stamp = _stamp(digests, asdict(params), args.train_frac)
    model_dir = Path(args.model_dir)
    save_models(model, model_dir, stamp, stats.bank)

    write_model_file(model_dir / MANIFEST_FILE, MANIFEST_FORMAT, MANIFEST_VERSION, stamp, {
        "seed": args.seed,
        "train_fraction": args.train_frac,
        "params": asdict(params),
        "sha256": digests,
    })

    (model_dir / "policy.txt").write_text(_rows_text(range(len(model.policies)), model.policies))

    stats.timings[:0] = timings
    summary = {
        "stamp": stamp,
        "sessions_total": len(sessions),
        "sessions_train": len(train_sessions),
        "epochs": params.epochs,
        "wall_seconds": wall,
        **stats.to_dict(),
        "pca": model.components.report(),
        "qtables": [
            {**table, "layer": POLICY_LAYERS[stats.layers[table["cluster"], table["step"] - 1]]}
            for table in stats.bank.report(params.epochs)
        ],
    }
    (model_dir / "summary.json").write_text(json.dumps(summary, sort_keys=True) + "\n")

    for name, secs in stats.timings:
        print(f"stage {name:<16} {secs:8.3f} s")
    for step, layer in zip(STEPS, stats.layers[0]):
        if POLICY_LAYERS[layer] == "zero":
            print(f"warning: no training session reached step {step}; every policy takes "
                  f"the 3 smallest item ids at location {step}", file=sys.stderr)
    components = model.components
    unconverged = [j for j, ok in enumerate(components.converged) if not ok]
    if unconverged:
        label = "component" if len(unconverged) == 1 else "components"
        print(
            f"warning: sparse PCA {label} {', '.join(map(str, unconverged))} did not "
            f"converge in {components.n_iter[unconverged[0]]} iterations",
            file=sys.stderr,
        )
    print(
        f"trained {stats.n_clusters} clusters "
        f"({stats.n_clusters_before_merge} before support merge), "
        f"{stats.n_transitions} transitions, {stats.bank.n_cells()} q-cells, "
        f"{params.epochs} epochs, {wall:.3f} s total -> {model_dir}"
    )
    return 0


def _manifest(payload: dict) -> dict:
    """The manifest, whose fields must be those that ``train`` wrote: its
    digests, params and split hash to its stamp, and its seed is the
    params' seed."""
    params, fraction = payload["params"], payload["train_fraction"]
    if (type(fraction) is not float or type(payload["seed"]) is not int
            or payload["seed"] != params["seed"]
            or _stamp(payload["sha256"], params, fraction) != payload["stamp"]):
        raise DataError("its fields are not those that train wrote: they must hash to its "
                        "stamp, and seed must equal params.seed")
    return payload


def _check_digest(manifest: dict, name: str, path: str, digest: str) -> None:
    """Require the file at ``path``, whose sha256 is ``digest``, to be the
    ``name`` input of training."""
    if digest != manifest["sha256"][name]:
        raise DataError(
            f"{path}: not the {name} file the model was trained on (sha256 differs)"
        )


def _load_model(model_dir: Path, items_path: str) -> tuple[PipelineModel, dict, ItemCatalog]:
    """Load a model directory and its catalog, checked against its manifest."""
    items_text, items_digest = _read_text(items_path)
    catalog = parse_items(items_text)
    manifest, _ = read_model_file(
        model_dir / MANIFEST_FILE, MANIFEST_FORMAT, MANIFEST_VERSION, _manifest
    )
    model, stamp = load_models(model_dir, manifest["params"]["min_visits"])
    if stamp != manifest["stamp"]:
        raise DataError(
            f"{model_dir / MANIFEST_FILE}: manifest stamp {manifest['stamp']!r} "
            f"does not match model files ({stamp!r})"
        )
    n_items = model.components.n_cols - N_PORTRAITS
    if n_items != len(catalog):
        raise DataError(f"model expects {n_items} catalog items, data has {len(catalog)}")
    _check_digest(manifest, "items", items_path, items_digest)
    try:
        check_policies(model.policies, catalog)
    except DataError as exc:
        raise ModelFileError(model_dir / CLUSTERS_FILE, str(exc)) from None
    return model, manifest, catalog


def cmd_evaluate(args) -> int:
    model_dir = Path(args.model_dir)
    model, manifest, catalog = _load_model(model_dir, args.items)
    sessions_text, digest = _read_text(args.sessions)
    _check_digest(manifest, "sessions", args.sessions, digest)
    sessions = parse_sessions(sessions_text, catalog)
    _, validation = holdout_split(sessions, manifest["train_fraction"], manifest["seed"])

    cfg = MetricConfig(step_weights=args.weights)
    learned = score(recommend_for_sessions(model, validation, catalog), validation, catalog, cfg)
    logged = score(validation.slate, validation, catalog, cfg)

    report_dir = Path(args.report_dir)
    report_dir.mkdir(parents=True, exist_ok=True)
    records = [
        {"policy": "learned", "weights": list(args.weights), **learned.to_dict()},
        {"policy": "logged", "weights": list(args.weights), **logged.to_dict()},
    ]
    (report_dir / "score_report.jsonl").write_text(
        "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"
    )
    text_lines = [
        f"validation sessions: {learned.n_sessions}",
        f"step weights: {args.weights[0]}, {args.weights[1]}, {args.weights[2]}",
    ]
    for rec, rep in (("learned", learned), ("logged", logged)):
        text_lines.append(
            f"{rec} policy score: {rep.score} "
            f"(per-step value: {rep.per_step_value[0]}, {rep.per_step_value[1]}, "
            f"{rep.per_step_value[2]})"
        )
    (report_dir / "score_report.txt").write_text("\n".join(text_lines) + "\n")
    for line in text_lines:
        print(line)
    return 0


def _parse_grid_file(path: str) -> dict:
    text = _read_text(path)[0]
    try:
        grid = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: {exc}") from None
    if not isinstance(grid, dict):
        raise DataError(f"{path}: grid must be a JSON object of lists")
    return grid


def cmd_tune(args) -> int:
    items_text = _read_text(args.items)[0]
    catalog = parse_items(items_text)
    sessions = parse_sessions(_read_text(args.sessions)[0], catalog)
    if args.grid:
        grid = _parse_grid_file(args.grid)
    else:
        grid = {"k_features": [8, 16, 32, 64]}
    cfg = MetricConfig(step_weights=args.weights)
    base = _params_from_args(args)
    result = tune(
        grid,
        sessions,
        catalog,
        cfg,
        train_fraction=args.train_frac,
        seed=args.seed,
        base_params=base,
    )

    report_dir = Path(args.report_dir)
    report_dir.mkdir(parents=True, exist_ok=True)
    _write_grid_csv(report_dir / "tune_grid.csv", result, list(grid))
    best = result.best
    best_payload = {
        "index": best.index,
        "params": best.params,
        "score": best.report.score if best.report else None,
        "n_clusters": best.n_clusters,
        "train_size": result.train_size,
        "validation_size": result.validation_size,
    }
    (report_dir / "best_config.json").write_text(
        json.dumps(best_payload, sort_keys=True) + "\n"
    )
    print(
        f"evaluated {len(result.cells)} grid cells; best cell {best.index} "
        f"scored {best.report.score if best.report else 'n/a'} with {best.params}"
    )
    return 0


def _write_grid_csv(path: Path, result: TuneResult, grid_keys: list[str]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["index"]
            + grid_keys
            + ["n_clusters", "score", "value_step1", "value_step2", "value_step3", "error"]
        )
        for cell in result.cells:
            row = [cell.index]
            for key in grid_keys:
                value = cell.params.get(key)
                row.append(json.dumps(value) if isinstance(value, dict) else value)
            if cell.report is not None:
                row += [cell.n_clusters, cell.report.score, *cell.report.per_step_value, ""]
            else:
                row += ["", "", "", "", "", cell.error or ""]
            writer.writerow(row)


def _rows_text(ids, rows) -> str:
    """One line per row of the 2-D array ``rows``: its id, then its items."""
    return "".join(f"{i} {' '.join(map(str, row))}\n" for i, row in zip(ids, rows.tolist()))


def cmd_recommend(args) -> int:
    model, _, catalog = _load_model(Path(args.model_dir), args.items)
    users = parse_users(_read_text(args.users)[0], catalog)
    if not len(users):
        raise DataError(f"{args.users}: no users to recommend for")
    output = _rows_text(users.user_id.tolist(), recommend_for_sessions(model, users, catalog))
    if args.out:
        Path(args.out).write_text(output)
        print(f"wrote {len(users)} recommendations to {args.out}")
    else:
        sys.stdout.write(output)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="qslate", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic items/sessions corpus")
    p.add_argument("--items", type=int, required=True, help="catalog size (multiple of 3)")
    p.add_argument("--users", type=int, default=1000)
    p.add_argument("--sessions", type=int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--latent-dim", type=int, default=5)
    p.add_argument("--groups", type=int, default=4, help="planted user groups")
    p.add_argument("--price-min", type=float, default=1.0)
    p.add_argument("--price-max", type=float, default=100.0)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--preference-scale", type=float, default=1.0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="fit components, clusters, and q-tables")
    p.add_argument("--items", required=True, help="item file")
    p.add_argument("--sessions", required=True, help="session file")
    p.add_argument("--model-dir", required=True)
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score the trained policy against the log")
    p.add_argument("--items", required=True)
    p.add_argument("--sessions", required=True)
    p.add_argument("--model-dir", required=True)
    p.add_argument("--report-dir", required=True)
    p.add_argument("--weights", type=_weights, default=(1.0, 2.0, 3.0))
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("tune", help="grid-search hyperparameters by validation score")
    p.add_argument("--items", required=True)
    p.add_argument("--sessions", required=True)
    p.add_argument("--grid", help="JSON grid file; defaults to a k_features sweep")
    p.add_argument("--report-dir", required=True)
    p.add_argument("--weights", type=_weights, default=(1.0, 2.0, 3.0))
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("recommend", help="emit 9-item recommendations for a user file")
    p.add_argument("--items", required=True)
    p.add_argument("--model-dir", required=True)
    p.add_argument("--users", required=True, help="user file: id, clicks, portraits")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=cmd_recommend)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except QslateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # every read raises DataError, so this is a write
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
