import contextlib
import json

import pytest

from conftest import forced_pool
from qslate.cli import main
from qslate.ingest import parse_items, parse_sessions


def run(*argv):
    return main([str(a) for a in argv])


def generate_corpus(tmp_path, sessions=400, items=18, seed=5, **extra):
    out = tmp_path / "data"
    args = [
        "generate", "--items", items, "--users", 120, "--sessions", sessions,
        "--seed", seed, "--preference-scale", 3.0, "--price-min", 3, "--price-max", 5,
        "--out", out,
    ]
    for key, value in extra.items():
        args += [key, value]
    assert run(*args) == 0
    return out


def serve(command, data_dir, model_dir, out_dir):
    """Run ``evaluate`` (report in ``out_dir / "r"``) or ``recommend`` (one
    user, to ``out_dir / "recs.txt"``) on a trained model; the exit code."""
    users = out_dir / "users.txt"
    users.parent.mkdir(parents=True, exist_ok=True)
    users.write_text("1 - 0,0,0,0,0,0,0,0,0,0\n")
    inputs = {"evaluate": ["--sessions", data_dir / "sessions.txt", "--report-dir", out_dir / "r"],
              "recommend": ["--users", users, "--out", out_dir / "recs.txt"]}[command]
    return run(command, "--items", data_dir / "items.txt", "--model-dir", model_dir, *inputs)


def edit_model_file(path, edit):
    """Rewrite the JSON file at ``path`` after ``edit`` changes its payload."""
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload, sort_keys=True) + "\n")


def train_models(tmp_path, data_dir, **flags):
    model_dir = tmp_path / "models"
    args = [
        "train", "--items", data_dir / "items.txt", "--sessions", data_dir / "sessions.txt",
        "--model-dir", model_dir, "--k-features", 6, "--l1", 0.1, "--cluster", "kmeans",
        "--k", 4, "--epochs", 5, "--min-support", 50, "--seed", 1, "--deterministic",
    ]
    for key, value in flags.items():
        if value is None:
            args.append(key)
        else:
            args += [key, value]
    assert run(*args) == 0
    return model_dir


class TestGenerate:
    def test_writes_three_parsable_files(self, tmp_path):
        out = generate_corpus(tmp_path)
        catalog = parse_items((out / "items.txt").read_text())
        sessions = parse_sessions((out / "sessions.txt").read_text(), catalog)
        assert len(catalog) == 18
        assert len(sessions) == 400
        assert (out / "ground_truth.jsonl").read_text().startswith('{"click_bias"')

    def test_rerun_is_byte_identical(self, tmp_path):
        a = generate_corpus(tmp_path / "a", sessions=5000, items=381, seed=7)
        b = generate_corpus(tmp_path / "b", sessions=5000, items=381, seed=7)
        for name in ("items.txt", "sessions.txt", "ground_truth.jsonl"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_invalid_item_count_fails_with_message(self, tmp_path, capsys):
        code = run("generate", "--items", 0, "--sessions", 5, "--out", tmp_path / "x")
        assert code == 2
        assert "num_items" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, name", [
        ("--price-max", "inf", "price_range"),
        ("--price-max", "nan", "price_range"),
        ("--price-min", "-inf", "price_range"),
        ("--temperature", "nan", "purchase_temperature"),
        ("--temperature", "inf", "purchase_temperature"),
        ("--preference-scale", "nan", "preference_scale"),
        ("--preference-scale", "-inf", "preference_scale"),
    ])
    def test_non_finite_parameter_is_data_error(self, tmp_path, capsys, flag, value, name):
        out = tmp_path / "x"
        code = run("generate", "--items", 9, "--sessions", 5, f"{flag}={value}", "--out", out)
        assert code == 2
        assert f"{name} must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_price_range_beyond_int64_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "x"
        code = run("generate", "--items", 9, "--users", 5, "--sessions", 5,
                   "--price-max", "1e300", "--out", out)
        assert code == 2
        assert "price_range max must be below 2**63" in capsys.readouterr().err
        assert not out.exists()

    def test_tiny_corpus_trains(self, tmp_path):
        out = generate_corpus(tmp_path, sessions=40, items=9)
        train_models(tmp_path, out)


class TestTrain:
    def test_writes_models_policy_manifest_summary(self, tmp_path):
        data = generate_corpus(tmp_path)
        model_dir = train_models(tmp_path, data)
        names = {p.name for p in model_dir.iterdir()}
        assert {"components.json", "clusters.json", "qtables.json",
                "manifest.json", "policy.txt", "summary.json"} <= names
        manifest = json.loads((model_dir / "manifest.json").read_text())
        stamp = manifest["stamp"]
        for name in ("components.json", "clusters.json", "qtables.json"):
            assert json.loads((model_dir / name).read_text())["stamp"] == stamp
        summary = json.loads((model_dir / "summary.json").read_text())
        stages = [entry["stage"] for entry in summary["timings"]]
        assert stages[0] == "parse"
        assert {"build_features", "fit_sparse_pca", "fit_clusters", "train"} <= set(stages)
        pca = summary["pca"]
        assert [c["component"] for c in pca] == list(range(6))
        for c in pca:
            assert {"n_iter", "converged", "explained_variance", "nnz"} <= set(c)
        assert summary["n_clusters"] >= 1
        assert summary["wall_seconds"] > 0
        assert (summary["workers_requested"], summary["workers_used"]) == (1, 1)
        catalog = parse_items((data / "items.txt").read_text())
        for line in (model_dir / "policy.txt").read_text().splitlines():
            fields = line.split()
            assert len(fields) == 10
            items = [int(v) for v in fields[1:]]
            assert [catalog.location(i) for i in items] == [1, 1, 1, 2, 2, 2, 3, 3, 3]

    @pytest.mark.parametrize("forced", [False, True], ids=["below-break-even", "pool"])
    def test_summary_reports_the_workers_requested_and_used(self, tmp_path, forced):
        data = generate_corpus(tmp_path)
        model_dir = tmp_path / "models"
        with forced_pool() if forced else contextlib.nullcontext([]) as started:
            assert run(
                "train", "--items", data / "items.txt", "--sessions", data / "sessions.txt",
                "--model-dir", model_dir, "--k-features", 6, "--cluster", "kmeans",
                "--k", 4, "--epochs", 5, "--min-support", 50, "--seed", 1, "--threads", 3,
            ) == 0
        summary = json.loads((model_dir / "summary.json").read_text())
        assert summary["n_clusters"] >= 2
        used = min(3, summary["n_clusters"]) if forced else 1
        assert (summary["workers_requested"], summary["workers_used"]) == (3, used)
        assert started == ([used - 1] if forced else [])

    def test_summary_reports_each_table_and_its_policy_layer(self, tmp_path):
        data = generate_corpus(tmp_path)
        model_dir = train_models(tmp_path, data)
        summary = json.loads((model_dir / "summary.json").read_text())
        qtables = summary["qtables"]
        assert [(t["cluster"], t["step"]) for t in qtables] == [
            (c, s) for c in range(summary["n_clusters"]) for s in (1, 2, 3)]
        assert sum(t["cells"] for t in qtables) == summary["table_cells"]
        for t in qtables:
            assert set(t["observations"]) == {"1", "2-4", "5+"}
            assert sum(t["observations"].values()) == t["cells"]
            assert t["layer"] in ("own", "union", "any", "zero")
        assert any(t["layer"] == "own" for t in qtables)

    def test_one_cluster_above_every_visit_count_falls_back(self, tmp_path):
        data = generate_corpus(tmp_path)
        model_dir = train_models(tmp_path, data, **{"--k": 1, "--min-visits": 10**6})
        summary = json.loads((model_dir / "summary.json").read_text())
        assert summary["n_clusters"] == 1
        layers = [t["layer"] for t in summary["qtables"]]
        assert len(layers) == 3 and set(layers) <= {"union", "any"}

    def test_unconverged_components_named_on_stderr(self, tmp_path, capsys):
        data = generate_corpus(tmp_path)
        capsys.readouterr()
        model_dir = train_models(tmp_path, data, **{"--k-features": 16})
        summary = json.loads((model_dir / "summary.json").read_text())
        unconverged = [c["component"] for c in summary["pca"] if not c["converged"]]
        assert unconverged
        warnings = [line for line in capsys.readouterr().err.splitlines() if "converge" in line]
        assert len(warnings) == 1
        named = warnings[0].split("components ")[1].split(" did")[0]
        assert named == ", ".join(map(str, unconverged))

    def test_corpus_with_no_step_3_training_session_trains_and_evaluates(self, tmp_path, capsys):
        # 400 sessions of 100 users over 381 items, seed 5: none of the 320
        # training sessions reaches step 3, so no step-3 cell is ever stored.
        data = tmp_path / "data"
        assert run("generate", "--items", 381, "--users", 100, "--sessions", 400,
                   "--seed", 5, "--out", data) == 0
        files = ["--items", data / "items.txt", "--sessions", data / "sessions.txt",
                 "--model-dir", tmp_path / "models"]
        capsys.readouterr()
        assert run("train", *files, "--cluster", "kmeans", "--k", 8, "--seed", 5,
                   "--deterministic") == 0
        warnings = [line for line in capsys.readouterr().err.splitlines() if "step" in line]
        assert len(warnings) == 1 and "reached step 3;" in warnings[0]
        catalog = parse_items((data / "items.txt").read_text())
        zero_table_slate = [str(i) for i in catalog.by_location[3][:3]]
        for line in (tmp_path / "models" / "policy.txt").read_text().splitlines():
            assert line.split()[7:] == zero_table_slate
        assert run("evaluate", *files, "--report-dir", tmp_path / "report") == 0

    def test_deterministic_reruns_byte_identical(self, tmp_path):
        data = generate_corpus(tmp_path)
        m1 = train_models(tmp_path / "r1", data)
        m2 = train_models(tmp_path / "r2", data)
        for name in ("components.json", "clusters.json", "qtables.json",
                     "manifest.json", "policy.txt"):
            assert (m1 / name).read_bytes() == (m2 / name).read_bytes()

    def test_parallel_threads_match_serial_policies(self, tmp_path):
        data = generate_corpus(tmp_path)
        serial = train_models(tmp_path / "serial", data)
        parallel_dir = tmp_path / "parallel" / "models"
        with forced_pool() as started:
            code = run(
                "train", "--items", data / "items.txt", "--sessions", data / "sessions.txt",
                "--model-dir", parallel_dir, "--k-features", 6, "--l1", 0.1,
                "--cluster", "kmeans", "--k", 4, "--epochs", 5, "--min-support", 50,
                "--seed", 1, "--threads", 8,
            )
        assert code == 0
        workers = json.loads((parallel_dir / "summary.json").read_text())["workers_used"]
        assert workers > 1 and started == [workers - 1]
        assert (serial / "policy.txt").read_bytes() == (parallel_dir / "policy.txt").read_bytes()
        columns = ("n_clusters", "cells", "slate", "q", "visits")
        serial_bank = json.loads((serial / "qtables.json").read_text())
        parallel_bank = json.loads((parallel_dir / "qtables.json").read_text())
        assert [serial_bank[key] for key in columns] == [parallel_bank[key] for key in columns]

    def test_execution_settings_leave_stamp_and_models_unchanged(self, tmp_path):
        data = generate_corpus(tmp_path)
        deterministic = train_models(tmp_path / "deterministic", data)
        threaded = tmp_path / "threaded" / "models"
        code = run(
            "train", "--items", data / "items.txt", "--sessions", data / "sessions.txt",
            "--model-dir", threaded, "--k-features", 6, "--l1", 0.1,
            "--cluster", "kmeans", "--k", 4, "--epochs", 5, "--min-support", 50,
            "--seed", 1, "--threads", 2,
        )
        assert code == 0
        manifests = [json.loads((d / "manifest.json").read_text())
                     for d in (deterministic, threaded)]
        assert manifests[0]["stamp"] == manifests[1]["stamp"]
        assert (manifests[0]["params"]["threads"], manifests[1]["params"]["threads"]) == (1, 2)
        assert manifests[0]["params"]["deterministic"] is True
        assert manifests[1]["params"]["deterministic"] is False
        for name in ("components.json", "clusters.json", "qtables.json", "policy.txt"):
            assert (deterministic / name).read_bytes() == (threaded / name).read_bytes()

    def test_missing_input_file(self, tmp_path, capsys):
        code = run("train", "--items", tmp_path / "none.txt", "--sessions",
                   tmp_path / "none2.txt", "--model-dir", tmp_path / "m")
        assert code == 2
        assert "none.txt" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "evaluate", "recommend"])
    def test_non_utf8_items_file_is_data_error(self, tmp_path, capsys, command):
        data = generate_corpus(tmp_path)
        items = data / "items.txt"
        models = tmp_path / "m" if command == "train" else train_models(tmp_path, data)
        text = items.read_bytes()
        items.write_bytes(text[:7] + b"\xff" + text[8:])
        users = tmp_path / "users.txt"
        users.write_text("1 - 0,0,0,0,0,0,0,0,0,0\n")
        inputs = {
            "train": ["--sessions", data / "sessions.txt", "--model-dir", models],
            "evaluate": ["--sessions", data / "sessions.txt", "--model-dir", models,
                         "--report-dir", tmp_path / "r"],
            "recommend": ["--users", users, "--model-dir", models, "--out", tmp_path / "r"],
        }[command]
        code = run(command, "--items", items, *inputs)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {items}: not UTF-8 text: invalid start byte at byte 7\n"
        )
        assert not (tmp_path / "m").exists() and not (tmp_path / "r").exists()

    def test_non_finite_portrait_is_data_error(self, tmp_path, capsys):
        data = generate_corpus(tmp_path)
        lines = (data / "sessions.txt").read_text().splitlines(keepends=True)
        fields = lines[3].split(" ")
        fields[2] = "nan," + fields[2].split(",", 1)[1]
        lines[3] = " ".join(fields)
        (data / "sessions.txt").write_text("".join(lines))
        code = run("train", "--items", data / "items.txt", "--sessions", data / "sessions.txt",
                   "--model-dir", tmp_path / "m")
        assert code == 2
        assert "line 4: non-finite portraits value" in capsys.readouterr().err

    def test_nan_l1_penalty_is_fit_error(self, tmp_path, capsys):
        data = generate_corpus(tmp_path)
        code = run("train", "--items", data / "items.txt", "--sessions", data / "sessions.txt",
                   "--model-dir", tmp_path / "m", "--l1", "nan")
        assert code == 2
        assert "l1_penalty must be nonnegative, got nan" in capsys.readouterr().err
        assert not (tmp_path / "m" / "components.json").exists()

    def test_report_speedup_flag_is_usage_error(self, tmp_path, capsys):
        data = generate_corpus(tmp_path)
        code = run("train", "--items", data / "items.txt", "--sessions", data / "sessions.txt",
                   "--model-dir", tmp_path / "m", "--report-speedup")
        assert code == 1
        assert "--report-speedup" in capsys.readouterr().err

    def test_backend_flag_is_usage_error(self, tmp_path, capsys):
        data = generate_corpus(tmp_path)
        code = run("train", "--items", data / "items.txt", "--sessions", data / "sessions.txt",
                   "--model-dir", tmp_path / "m", "--backend", "process")
        assert code == 1
        assert "--backend" in capsys.readouterr().err


class TestEvaluate:
    def test_scores_learned_and_logged(self, tmp_path):
        data = generate_corpus(tmp_path)
        models = train_models(tmp_path, data)
        reports = tmp_path / "reports"
        code = run("evaluate", "--items", data / "items.txt", "--sessions",
                   data / "sessions.txt", "--model-dir", models, "--report-dir", reports)
        assert code == 0
        lines = (reports / "score_report.jsonl").read_text().splitlines()
        records = {json.loads(line)["policy"]: json.loads(line) for line in lines}
        assert set(records) == {"learned", "logged"}
        assert records["learned"]["score"] >= 0.0
        assert records["logged"]["score"] >= records["learned"]["score"] * 0  # finite
        text = (reports / "score_report.txt").read_text()
        assert "learned policy score" in text and "logged policy score" in text

    @pytest.mark.parametrize("weights", ["nan,1,1", "inf,1,1"])
    def test_non_finite_weights_are_data_errors(self, tmp_path, capsys, weights):
        data = generate_corpus(tmp_path)
        models = train_models(tmp_path, data)
        code = run("evaluate", "--items", data / "items.txt", "--sessions",
                   data / "sessions.txt", "--model-dir", models,
                   "--report-dir", tmp_path / "reports", "--weights", weights)
        assert code == 2
        assert "step weights must be finite and nonnegative" in capsys.readouterr().err

    def test_logged_score_matches_transition_revenue(self, tmp_path):
        from qslate.ingest import sessions_to_transitions
        from qslate.metric import holdout_split

        data = generate_corpus(tmp_path)
        models = train_models(tmp_path, data)
        reports = tmp_path / "reports"
        assert run("evaluate", "--items", data / "items.txt", "--sessions",
                   data / "sessions.txt", "--model-dir", models, "--report-dir", reports) == 0
        records = [json.loads(line) for line in (reports / "score_report.jsonl").read_text().splitlines()]
        logged = next(r for r in records if r["policy"] == "logged")
        catalog = parse_items((data / "items.txt").read_text())
        sessions = parse_sessions((data / "sessions.txt").read_text(), catalog)
        manifest = json.loads((models / "manifest.json").read_text())
        _, validation = holdout_split(sessions, manifest["train_fraction"], manifest["seed"])
        transitions = sessions_to_transitions(validation, catalog)
        revenue = sum((1.0, 2.0, 3.0)[step - 1] * reward for step, reward
                      in zip(transitions.step.tolist(), transitions.reward.tolist()))
        expected = revenue / len(validation)
        assert logged["score"] == expected

    def test_corrupted_model_file_names_it(self, tmp_path, capsys):
        data = generate_corpus(tmp_path)
        models = train_models(tmp_path, data)
        (models / "clusters.json").write_text("{broken")
        code = run("evaluate", "--items", data / "items.txt", "--sessions",
                   data / "sessions.txt", "--model-dir", models, "--report-dir", tmp_path / "r")
        assert code == 2
        assert "clusters.json" in capsys.readouterr().err

    @pytest.mark.parametrize("name, field", [
        ("components.json", "loadings"),
        ("clusters.json", "centroids"),
        ("clusters.json", "policies"),
        ("manifest.json", "seed"),
    ])
    def test_model_file_missing_field_names_it(self, tmp_path, capsys, name, field):
        data = generate_corpus(tmp_path)
        models = train_models(tmp_path, data)
        payload = json.loads((models / name).read_text())
        del payload[field]
        (models / name).write_text(json.dumps(payload, sort_keys=True) + "\n")
        code = run("evaluate", "--items", data / "items.txt", "--sessions",
                   data / "sessions.txt", "--model-dir", models, "--report-dir", tmp_path / "r")
        assert code == 2
        err = capsys.readouterr().err
        assert name in err and field in err

    @pytest.mark.parametrize("command", ["evaluate", "recommend"])
    @pytest.mark.parametrize("flags, name, corrupt, message", [
        ({}, "clusters.json", lambda p: p["merge_map"].pop(),
         "merge_map lists 3 cluster ids for 4 centroids"),
        ({"--cluster": "dbscan", "--eps": 3, "--min-pts": 3, "--min-support": 1},
         "clusters.json", lambda p: p["core_labels"].pop(), "labels for"),
        ({}, "components.json",
         lambda p: p.update(column_means=p["column_means"][:10],
                            column_scales=p["column_scales"][:10]),
         "column_means must hold"),
        ({}, "components.json", lambda p: p["column_scales"].__setitem__(0, 0),
         "column_scales must be positive"),
        ({}, "components.json",
         lambda p: p.update({key: p[key][:5] for key in (
             "loadings", "explained_variance", "n_iter", "converged")}),
         "components.json holds 5 components, but clusters.json clusters vectors of dim 6"),
        ({}, "clusters.json", lambda p: p["centroids"][1].__setitem__(0, float("nan")),
         "centroids must be finite"),
        ({"--cluster": "dbscan", "--eps": 3, "--min-pts": 3, "--min-support": 1},
         "clusters.json", lambda p: p["core_points"][0].__setitem__(2, float("inf")),
         "core_points must be finite"),
        ({}, "components.json", lambda p: p["loadings"][0].__setitem__(3, float("nan")),
         "loadings must be finite"),
        ({}, "components.json",
         lambda p: p["explained_variance"].__setitem__(1, float("-inf")),
         "explained_variance must be finite"),
        ({}, "clusters.json", lambda p: p.update(centroids=[row[0] for row in p["centroids"]]),
         "centroids must be a 2-D array, not of shape (4,)"),
        ({"--cluster": "dbscan", "--eps": 3, "--min-pts": 3, "--min-support": 1},
         "clusters.json",
         lambda p: p.update(core_points=[row[0] for row in p["core_points"]]),
         "core_points must be a 2-D array, not of shape ("),
        ({}, "clusters.json", lambda p: p.update(merge_map=[[v] for v in p["merge_map"]]),
         "merge_map must be a flat list of cluster ids"),
        ({"--cluster": "dbscan", "--eps": 3, "--min-pts": 3, "--min-support": 1},
         "clusters.json", lambda p: p.update(core_labels=[[v] for v in p["core_labels"]]),
         "core_labels must be a flat list of labels"),
    ], ids=["merge-map-short", "core-labels-short", "means-short", "scale-zero",
            "fewer-components", "nan-centroid", "inf-core-point", "nan-loading",
            "inf-explained-variance", "flat-centroids", "flat-core-points",
            "nested-merge-map", "nested-core-labels"])
    def test_model_file_arrays_that_disagree_name_it(self, tmp_path, capsys, command, flags,
                                                      name, corrupt, message):
        data = generate_corpus(tmp_path)
        models = train_models(tmp_path, data, **flags)
        payload = json.loads((models / name).read_text())
        corrupt(payload)
        (models / name).write_text(json.dumps(payload, sort_keys=True) + "\n")
        users = tmp_path / "users.txt"
        users.write_text("1 - 0,0,0,0,0,0,0,0,0,0\n")
        inputs = {"evaluate": ["--sessions", data / "sessions.txt", "--report-dir", tmp_path / "r"],
                  "recommend": ["--users", users, "--out", tmp_path / "recs.txt"]}[command]
        code = run(command, "--items", data / "items.txt", "--model-dir", models, *inputs)
        assert code == 2
        err = capsys.readouterr().err
        assert name in err and message in err

    def test_stamp_mismatch_detected(self, tmp_path, capsys):
        data = generate_corpus(tmp_path)
        models = train_models(tmp_path, data)
        payload = json.loads((models / "clusters.json").read_text())
        payload["stamp"] = "0" * 16
        (models / "clusters.json").write_text(json.dumps(payload, sort_keys=True) + "\n")
        code = run("evaluate", "--items", data / "items.txt", "--sessions",
                   data / "sessions.txt", "--model-dir", models, "--report-dir", tmp_path / "r")
        assert code == 2
        assert "stamp" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evaluate", "recommend"])
    @pytest.mark.parametrize("corrupt", [
        lambda p: p["merge_map"].__setitem__(-1, 99),  # an id without a policy row
        lambda p: p["policies"].pop(),  # one row too few
    ], ids=["merge-map", "row-missing"])
    def test_cluster_ids_must_match_policy_rows(self, tmp_path, capsys, command, corrupt):
        data = generate_corpus(tmp_path)
        models = train_models(tmp_path, data, **{"--min-support": 1})
        edit_model_file(models / "clusters.json", corrupt)
        assert serve(command, data, models, tmp_path) == 2
        err = capsys.readouterr().err
        assert str(models / "clusters.json") in err and "policy rows" in err

    @pytest.mark.parametrize("command", ["evaluate", "recommend"])
    @pytest.mark.parametrize("position, source, step", [
        (1, None, 1),  # an unknown item
        (3, 0, 2),  # an item of location 1 at step 2
        (7, 6, 3),  # an item repeated within step 3
    ], ids=["unknown-item", "other-location", "repeated-item"])
    def test_edited_policy_row_names_its_cluster(self, tmp_path, capsys, command, position,
                                                 source, step):
        data = generate_corpus(tmp_path)
        models = train_models(tmp_path, data, **{"--min-support": 1})

        def corrupt(payload):
            row = payload["policies"][-1]
            row[position] = 999 if source is None else row[source]

        edit_model_file(models / "clusters.json", corrupt)
        last = len(json.loads((models / "clusters.json").read_text())["policies"]) - 1
        assert serve(command, data, models, tmp_path) == 2
        err = capsys.readouterr().err
        assert "clusters.json" in err and f"cluster {last}'s slate (" in err
        assert f") at step {step} holds an unknown item" in err

    @pytest.mark.parametrize("command", ["evaluate", "recommend"])
    def test_serving_reads_no_qtables(self, tmp_path, command):
        data = generate_corpus(tmp_path)
        models = train_models(tmp_path, data)
        assert serve(command, data, models, tmp_path / "with") == 0
        (models / "qtables.json").unlink()
        assert serve(command, data, models, tmp_path / "without") == 0
        outputs = [path.relative_to(tmp_path / "with")
                   for path in (tmp_path / "with").rglob("*") if path.is_file()]
        assert outputs
        for name in outputs:
            assert (tmp_path / "with" / name).read_bytes() == (
                tmp_path / "without" / name).read_bytes()

    @pytest.mark.parametrize("command", ["evaluate", "recommend"])
    @pytest.mark.parametrize("name, edit, message", [
        ("components.json", lambda p: p["loadings"][0].__setitem__(0, "0.5"),
         "an entry of loadings row 0 is '0.5', not a number"),
        ("components.json", lambda p: p["loadings"][2].__setitem__(1, True),
         "an entry of loadings row 2 is True, not a number"),
        ("components.json", lambda p: p["converged"].__setitem__(1, "no"),
         "converged entry 1 is 'no', not a boolean"),
        ("clusters.json", lambda p: p["merge_map"].__setitem__(3, 0.9),
         "merge_map entry 3 is 0.9, not an integer"),
        ("clusters.json", lambda p: p["centroids"][1].__setitem__(0, "1e3"),
         "an entry of centroids row 1 is '1e3', not a number"),
        ("clusters.json", lambda p: p.update(min_visits=3.0),
         "min_visits is 3.0, not an integer"),
    ], ids=["string-loading", "bool-loading", "string-converged", "fractional-merge-map",
            "string-centroid", "fractional-min-visits"])
    def test_mistyped_model_field_names_it(self, tmp_path, capsys, command, name, edit, message):
        """The message names the file, and ``message`` names the field."""
        data = generate_corpus(tmp_path)
        models = train_models(tmp_path, data)
        edit_model_file(models / name, edit)
        assert serve(command, data, models, tmp_path) == 2
        err = capsys.readouterr().err
        assert str(models / name) in err and message in err

    @pytest.mark.parametrize("name", ["components.json", "clusters.json"])
    def test_model_file_version_2_refused(self, tmp_path, capsys, name):
        data = generate_corpus(tmp_path)
        models = train_models(tmp_path, data)
        edit_model_file(models / name, lambda p: p.update(version=2))
        assert serve("evaluate", data, models, tmp_path) == 2
        err = capsys.readouterr().err
        assert name in err and "unsupported version 2" in err

    def test_clusters_version_1_refused(self, tmp_path, capsys):
        data = generate_corpus(tmp_path)
        models = train_models(tmp_path, data)
        edit_model_file(models / "clusters.json", lambda p: p.update(version=1))
        assert serve("evaluate", data, models, tmp_path) == 2
        err = capsys.readouterr().err
        assert "clusters.json" in err and "unsupported version 1" in err

    @pytest.mark.parametrize("command", ["evaluate", "recommend"])
    @pytest.mark.parametrize("edit", [
        lambda p: p.update(train_fraction=0.5),
        lambda p: p["params"].update(min_visits=True),
        lambda p: p.update(seed=-1),
        lambda p: p.update(train_fraction="0.8"),
    ], ids=["train-fraction", "min-visits", "seed", "fraction-as-text"])
    def test_manifest_edited_after_training_refused(self, tmp_path, capsys, command, edit):
        out = tmp_path / "data"
        assert run("generate", "--items", 30, "--users", 50, "--sessions", 400, "--seed", 1,
                   "--out", out) == 0
        models = train_models(tmp_path, out, **{"--min-support": 1})
        edit_model_file(models / "manifest.json", edit)
        assert serve(command, out, models, tmp_path) == 2
        err = capsys.readouterr().err
        assert "manifest.json" in err and "hash to its stamp" in err

    def test_catalog_size_mismatch_detected(self, tmp_path, capsys):
        data = generate_corpus(tmp_path)
        models = train_models(tmp_path, data)
        other = generate_corpus(tmp_path / "other", items=30)
        code = run("evaluate", "--items", other / "items.txt", "--sessions",
                   other / "sessions.txt", "--model-dir", models, "--report-dir", tmp_path / "r")
        assert code == 2
        assert "catalog items" in capsys.readouterr().err

    def test_other_sessions_file_rejected(self, tmp_path, capsys):
        data = generate_corpus(tmp_path)
        models = train_models(tmp_path, data)
        other = generate_corpus(tmp_path / "other", seed=6)
        code = run("evaluate", "--items", data / "items.txt", "--sessions",
                   other / "sessions.txt", "--model-dir", models, "--report-dir", tmp_path / "r")
        assert code == 2
        err = capsys.readouterr().err
        assert str(other / "sessions.txt") in err and "sessions file" in err
        assert not (tmp_path / "r").exists()

    def test_manifest_without_digests_rejected(self, tmp_path, capsys):
        data = generate_corpus(tmp_path)
        models = train_models(tmp_path, data)
        manifest = json.loads((models / "manifest.json").read_text())
        assert set(manifest["sha256"]) == {"items", "sessions"}
        del manifest["sha256"]
        (models / "manifest.json").write_text(json.dumps(manifest))
        code = run("evaluate", "--items", data / "items.txt", "--sessions",
                   data / "sessions.txt", "--model-dir", models, "--report-dir", tmp_path / "r")
        assert code == 2
        err = capsys.readouterr().err
        assert "manifest.json" in err and "lacks field 'sha256'" in err

    def test_sessions_missing_their_last_line_rejected(self, tmp_path, capsys):
        data = generate_corpus(tmp_path)
        models = train_models(tmp_path, data)
        sessions = data / "sessions.txt"
        lines = sessions.read_text().splitlines(keepends=True)
        sessions.write_text("".join(lines[:-1]))
        code = run("evaluate", "--items", data / "items.txt", "--sessions", sessions,
                   "--model-dir", models, "--report-dir", tmp_path / "r")
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {sessions}: not the sessions file the model was trained on "
            "(sha256 differs)\n"
        )
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("command", ["evaluate", "recommend"])
    def test_items_changed_in_one_price_rejected(self, tmp_path, capsys, command):
        data = generate_corpus(tmp_path)
        models = train_models(tmp_path, data)
        items = data / "items.txt"
        first, rest = items.read_text().split("\n", 1)
        item_id, item_features, price, location = first.split()
        items.write_text(f"{item_id} {item_features} {float(price) + 1} {location}\n{rest}")
        users = tmp_path / "users.txt"
        users.write_text("1 - 0,0,0,0,0,0,0,0,0,0\n")
        inputs = {"evaluate": ["--sessions", data / "sessions.txt", "--report-dir", tmp_path / "r"],
                  "recommend": ["--users", users, "--out", tmp_path / "r"]}[command]
        code = run(command, "--items", items, "--model-dir", models, *inputs)
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {items}: not the items file the model was trained on (sha256 differs)\n"
        )
        assert not (tmp_path / "r").exists()


class TestTune:
    def test_singleton_grid(self, tmp_path):
        data = generate_corpus(tmp_path, sessions=300)
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps({"alpha": [0.2]}))
        reports = tmp_path / "reports"
        code = run("tune", "--items", data / "items.txt", "--sessions", data / "sessions.txt",
                   "--grid", grid_file, "--report-dir", reports, "--k-features", 6,
                   "--k", 2, "--min-support", 20, "--epochs", 3, "--deterministic")
        assert code == 0
        best = json.loads((reports / "best_config.json").read_text())
        assert best["index"] == 0 and best["params"] == {"alpha": 0.2}
        csv_lines = (reports / "tune_grid.csv").read_text().splitlines()
        assert csv_lines[0].startswith("index,alpha,n_clusters,score")
        assert len(csv_lines) == 2

    def test_default_grid_sweeps_k_features(self, tmp_path):
        data = generate_corpus(tmp_path, sessions=300)
        reports = tmp_path / "reports"
        code = run("tune", "--items", data / "items.txt", "--sessions", data / "sessions.txt",
                   "--report-dir", reports, "--k", 2, "--min-support", 20,
                   "--epochs", 3, "--deterministic")
        assert code == 0
        csv_lines = (reports / "tune_grid.csv").read_text().splitlines()
        assert len(csv_lines) == 5  # header + {8, 16, 32, 64}
        best = json.loads((reports / "best_config.json").read_text())
        # 18-item catalog has 28 raw columns: cells 32 and 64 fail, 8/16 compete
        assert best["params"]["k_features"] in (8, 16)
        assert any("out of range" in line for line in csv_lines[3:])

    def test_malformed_grid_reports_location(self, tmp_path, capsys):
        data = generate_corpus(tmp_path, sessions=60)
        grid_file = tmp_path / "grid.json"
        grid_file.write_text('{"alpha": [0.2,]}')
        code = run("tune", "--items", data / "items.txt", "--sessions", data / "sessions.txt",
                   "--grid", grid_file, "--report-dir", tmp_path / "r")
        assert code == 2
        err = capsys.readouterr().err
        assert "grid.json" in err and "line 1" in err

    @pytest.mark.parametrize("grid, key, value", [
        ({"cluster": ["kmeans"]}, "cluster", "'kmeans'"),
        ({"cluster": [{"method": "kmeans"}]}, "cluster", "{'method': 'kmeans'}"),
        ({"k_features": ["8"]}, "k_features", "'8'"),
    ])
    def test_malformed_grid_values_are_data_errors(self, tmp_path, capsys, grid, key, value):
        data = generate_corpus(tmp_path, sessions=60)
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps(grid))
        code = run("tune", "--items", data / "items.txt", "--sessions", data / "sessions.txt",
                   "--grid", grid_file, "--report-dir", tmp_path / "r")
        assert code == 2
        err = capsys.readouterr().err
        assert f"grid key {key!r}" in err and value in err

    def test_failed_cells_recorded_in_csv(self, tmp_path):
        data = generate_corpus(tmp_path, sessions=300)
        grid_file = tmp_path / "grid.json"
        grid_file.write_text(json.dumps({"l1_penalty": [0.1, 1.0]}))
        reports = tmp_path / "reports"
        code = run("tune", "--items", data / "items.txt", "--sessions", data / "sessions.txt",
                   "--grid", grid_file, "--report-dir", reports, "--k-features", 6,
                   "--k", 2, "--min-support", 20, "--epochs", 3, "--deterministic")
        assert code == 0
        csv_lines = (reports / "tune_grid.csv").read_text().splitlines()
        assert len(csv_lines) == 3
        assert "too large" in csv_lines[2]


class TestRecommend:
    def test_single_user_line(self, tmp_path):
        data = generate_corpus(tmp_path)
        models = train_models(tmp_path, data)
        users = tmp_path / "users.txt"
        users.write_text("42 1,4 0.5,0.1,0,0,0,0,0,0,0,0\n")
        out = tmp_path / "recs.txt"
        assert run("recommend", "--items", data / "items.txt", "--model-dir", models,
                   "--users", users, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1
        fields = lines[0].split()
        assert fields[0] == "42"
        catalog = parse_items((data / "items.txt").read_text())
        items = [int(v) for v in fields[1:]]
        assert [catalog.location(i) for i in items] == [1, 1, 1, 2, 2, 2, 3, 3, 3]

    def test_non_finite_portrait_is_data_error(self, tmp_path, capsys):
        data = generate_corpus(tmp_path)
        models = train_models(tmp_path, data)
        users = tmp_path / "users.txt"
        users.write_text("41 1,4 0.5,0.1,0,0,0,0,0,0,0,0\n42 1,4 nan,0.1,0,0,0,0,0,0,0,0\n")
        code = run("recommend", "--items", data / "items.txt", "--model-dir", models,
                   "--users", users, "--out", tmp_path / "recs.txt")
        assert code == 2
        assert "line 2: non-finite portraits value" in capsys.readouterr().err

    def test_duplicate_users_identical_lines(self, tmp_path):
        data = generate_corpus(tmp_path)
        models = train_models(tmp_path, data)
        users = tmp_path / "users.txt"
        users.write_text("7 2 1,2,3,4,5,6,7,8,9,10\n7 2 1,2,3,4,5,6,7,8,9,10\n")
        out = tmp_path / "recs.txt"
        assert run("recommend", "--items", data / "items.txt", "--model-dir", models,
                   "--users", users, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2 and lines[0] == lines[1]

    def test_thousand_users_all_location_valid(self, tmp_path):
        data = generate_corpus(tmp_path, sessions=1200)
        models = train_models(tmp_path, data)
        catalog = parse_items((data / "items.txt").read_text())
        sessions = parse_sessions((data / "sessions.txt").read_text(), catalog)
        users = tmp_path / "users.txt"
        lines = []
        for i, s in enumerate(sessions[:1000]):
            clicks = ",".join(str(c) for c in sorted(s.clicked_items)) or "-"
            portraits = ",".join(repr(p) for p in s.portraits)
            lines.append(f"{s.user_id} {clicks} {portraits}")
        users.write_text("\n".join(lines) + "\n")
        out = tmp_path / "recs.txt"
        assert run("recommend", "--items", data / "items.txt", "--model-dir", models,
                   "--users", users, "--out", out) == 0
        out_lines = out.read_text().splitlines()
        assert len(out_lines) == 1000
        for line in out_lines:
            items = [int(v) for v in line.split()[1:]]
            assert [catalog.location(i) for i in items] == [1, 1, 1, 2, 2, 2, 3, 3, 3]


    def test_catalog_size_mismatch_detected(self, tmp_path, capsys):
        data = generate_corpus(tmp_path)
        models = train_models(tmp_path, data)
        other = generate_corpus(tmp_path / "other", items=30)
        users = tmp_path / "users.txt"
        users.write_text("1 - 0,0,0,0,0,0,0,0,0,0\n")
        code = run("recommend", "--items", other / "items.txt", "--model-dir", models,
                   "--users", users)
        assert code == 2
        assert "catalog items" in capsys.readouterr().err

    def test_other_catalog_of_same_size_rejected(self, tmp_path, capsys):
        data = generate_corpus(tmp_path)
        models = train_models(tmp_path, data)
        other = generate_corpus(tmp_path / "other", seed=6)
        assert (other / "items.txt").read_text() != (data / "items.txt").read_text()
        users = tmp_path / "users.txt"
        users.write_text("1 - 0,0,0,0,0,0,0,0,0,0\n")
        code = run("recommend", "--items", other / "items.txt", "--model-dir", models,
                   "--users", users, "--out", tmp_path / "recs.txt")
        assert code == 2
        err = capsys.readouterr().err
        assert str(other / "items.txt") in err and "items file" in err
        assert not (tmp_path / "recs.txt").exists()


class TestOutputPaths:
    @pytest.mark.parametrize("command", ["generate", "train", "evaluate", "tune", "recommend"])
    def test_unwritable_output_is_data_error(self, tmp_path, capsys, command):
        data = generate_corpus(tmp_path, sessions=300)
        models = tmp_path / "models" if command == "train" else train_models(tmp_path, data)
        blocker = tmp_path / "blocker"
        blocker.mkdir() if command == "recommend" else blocker.write_text("")
        users = tmp_path / "users.txt"
        users.write_text("1 - 0,0,0,0,0,0,0,0,0,0\n")
        files = ["--items", data / "items.txt", "--sessions", data / "sessions.txt"]
        argv = {
            "generate": ["--items", 9, "--sessions", 5, "--out", blocker],
            "train": [*files, "--model-dir", blocker, "--k", 2, "--min-support", 20],
            "evaluate": [*files, "--model-dir", models, "--report-dir", blocker],
            "tune": [*files, "--report-dir", blocker, "--k-features", 6, "--k", 2,
                     "--min-support", 20, "--epochs", 3],
            "recommend": ["--items", data / "items.txt", "--model-dir", models,
                          "--users", users, "--out", blocker],
        }[command]
        assert run(command, *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(blocker) in err


class TestUsage:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run("frobnicate") == 1
        assert "usage error" in capsys.readouterr().err

    def test_bad_weights_format(self, tmp_path, capsys):
        code = run("evaluate", "--items", "x", "--sessions", "y", "--model-dir", "m",
                   "--report-dir", "r", "--weights", "1,2")
        assert code == 1
        assert "weights" in capsys.readouterr().err

    @pytest.mark.parametrize("command, required", [
        ("generate", ["--items", 9, "--sessions", 5, "--out", "data"]),
        ("train", ["--items", "items.txt", "--sessions", "sessions.txt", "--model-dir", "m"]),
        ("tune", ["--items", "items.txt", "--sessions", "sessions.txt", "--report-dir", "r"]),
    ])
    @pytest.mark.parametrize("seed, message", [("-1", "seed -1 is negative"),
                                               ("x", "invalid int value: 'x'")])
    def test_bad_seed_is_usage_error(self, tmp_path, monkeypatch, capsys, command, required,
                                     seed, message):
        monkeypatch.chdir(tmp_path)
        assert run(command, *required, "--seed", seed) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and message in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, required", [
        ("train", ["--model-dir", "m"]),
        ("tune", ["--report-dir", "r"]),
    ])
    @pytest.mark.parametrize("threads, message", [("0", "threads must be >= 1, got 0"),
                                                  ("-2", "threads must be >= 1, got -2"),
                                                  ("x", "invalid int value: 'x'")])
    def test_bad_threads_is_usage_error_before_any_work(self, tmp_path, monkeypatch, capsys,
                                                         command, required, threads, message):
        # The inputs exist and parse, so only the flag can stop the command.
        data = generate_corpus(tmp_path)
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        assert run(command, "--items", data / "items.txt", "--sessions",
                   data / "sessions.txt", *required, "--threads", threads) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and message in err
        assert sorted(tmp_path.rglob("*")) == before


def test_full_composition_smoke(tmp_path):
    data = generate_corpus(tmp_path, sessions=600)
    models = train_models(tmp_path, data)
    reports = tmp_path / "reports"
    assert run("evaluate", "--items", data / "items.txt", "--sessions", data / "sessions.txt",
               "--model-dir", models, "--report-dir", reports) == 0
    users = tmp_path / "users.txt"
    users.write_text("1 - 0,0,0,0,0,0,0,0,0,0\n")
    assert run("recommend", "--items", data / "items.txt", "--model-dir", models,
               "--users", users, "--out", tmp_path / "recs.txt") == 0
    assert (tmp_path / "recs.txt").read_text().count("\n") == 1
