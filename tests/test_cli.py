import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference_splits
from testkit import FIXTURES, in_child
from issuetriage import cli, evalkit, ingest, labelmap, learn
from issuetriage.corpus import load_corpus
from test_ingest import ISSUES_URL, REPO, FakeTransport, hydration_routes, issue_doc

PLANTED = FIXTURES / "planted_corpus.jsonl"


@pytest.fixture()
def workdir(tmp_path):
    shutil.copy(PLANTED, tmp_path / "corpus.jsonl")
    shutil.copy(str(PLANTED) + ".meta.json", tmp_path / "corpus.jsonl.meta.json")
    config = {
        "seed": 7,
        "model": {"classifier": "forest",
                  "hyperparams": {"n_trees": 10, "max_depth": 8}},
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    return tmp_path


def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def stage1_artifacts(tmp_path_factory):
    """Per stage-one kind, trained once: a ``train-objective`` model and a
    ``train-priority`` model whose assets hold that stage-one model."""
    d = tmp_path_factory.mktemp("stage1")
    corpus = d / "corpus.jsonl"
    shutil.copy(PLANTED, corpus)
    shutil.copy(f"{PLANTED}.meta.json", f"{corpus}.meta.json")
    config = d / "config.json"
    config.write_text(json.dumps({"seed": 7, "model": {
        "classifier": "forest", "hyperparams": {"n_trees": 2, "max_depth": 3}}}))
    paths = {}
    for stage1 in ("nb", "logreg"):
        for where, command in (("model", "train-objective"), ("assets", "train-priority")):
            paths[where, stage1] = d / f"{where}-{stage1}.json"
            assert run("--config", config, command, "--stage1", stage1, "--in", corpus,
                       "--model", paths[where, stage1]) == 0
    return paths


class TestUsage:
    def test_unknown_command_exits_one(self, capsys):
        assert run("frobnicate") == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_command_exits_one(self):
        assert run() == 1

    def test_unknown_flag_exits_one(self):
        assert run("preprocess", "--bogus") == 1

    def test_missing_input_exits_one(self, tmp_path, capsys):
        assert run("preprocess", "--in", tmp_path / "nope.jsonl",
                   "--out", tmp_path / "o.jsonl") == 1
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("as_config", [True, False], ids=["config", "in"])
    def test_directory_given_as_a_file_exits_one(self, tmp_path, capsys, as_config):
        config = ["--config", tmp_path] if as_config else []
        assert run(*config, "preprocess", "--in", PLANTED if as_config else tmp_path,
                   "--out", tmp_path / "o.jsonl") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "not found" in err[0], err


class TestPreprocess:
    def test_filters_and_reports(self, workdir):
        out = workdir / "filtered.jsonl"
        assert run("preprocess", "--in", workdir / "corpus.jsonl", "--out", out) == 0
        assert out.exists()
        report = json.loads((workdir / "filtered.jsonl.report.json").read_text())
        assert report["total_removed"] == 0  # fixture is already clean
        manifest = json.loads((workdir / "filtered.jsonl.manifest.json").read_text())
        assert manifest["command"] == "preprocess"
        assert str(workdir / "corpus.jsonl") in manifest["inputs"]

    @pytest.mark.parametrize("fault", ["array", "title", "utf-8"])
    def test_bad_record_is_a_warning_and_under_strict_exits_two(self, workdir, capsys, fault):
        corpus = workdir / "corpus.jsonl"
        record = json.loads(corpus.read_text().splitlines()[0])
        line = {"array": b"[1, 2]", "utf-8": b"\xff{",
                "title": json.dumps({**record, "id": "new", "title": 5}).encode()}[fault]
        corpus.write_bytes(corpus.read_bytes() + line + b"\n")
        out = workdir / "o.jsonl"
        assert run("preprocess", "--in", corpus, "--out", out) == 0
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"warning: {corpus}:201: "), err
        assert len(out.read_text().splitlines()) == 200
        assert run("--strict", "preprocess", "--in", corpus, "--out", out) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: line 201: "), err

    def test_deeply_nested_sidecar_exits_two(self, workdir, capsys):
        (workdir / "corpus.jsonl.meta.json").write_text("[" * 100_000)
        assert run("preprocess", "--in", workdir / "corpus.jsonl",
                   "--out", workdir / "o.jsonl") == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "cannot read schema sidecar" in err[0], err

    def test_corrupt_sidecar_exits_two(self, workdir, capsys):
        (workdir / "corpus.jsonl.meta.json").write_text("{bad")
        assert run("preprocess", "--in", workdir / "corpus.jsonl",
                   "--out", workdir / "o.jsonl") == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err


class TestFeaturesCommand:
    def test_matrix_dump(self, workdir):
        out = workdir / "matrix.tsv"
        assert run("--config", workdir / "config.json", "features",
                   "--in", workdir / "corpus.jsonl", "--out", out) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 201  # header + 200 issues
        header = lines[0].split("\t")
        assert header[0] == "issue_id"
        assert len([h for h in header if h.startswith("nf:")]) == 28
        assert len([h for h in header if h.startswith("lf:")]) == 66
        assert header[-1] == "tf"


class TestTrainPredict:
    def test_train_predict_roundtrip(self, workdir):
        model = workdir / "priority.model.json"
        preds = workdir / "preds.tsv"
        assert run("--config", workdir / "config.json", "train-priority",
                   "--in", workdir / "corpus.jsonl", "--model", model) == 0
        assert model.exists()
        assert Path(str(model) + ".assets.json").exists()
        assert run("--config", workdir / "config.json", "predict",
                   "--model", model, "--in", workdir / "corpus.jsonl",
                   "--out", preds) == 0
        lines = preds.read_text().splitlines()
        assert lines[0].split("\t") == ["issue_id", "predicted", "p_High",
                                        "p_Low", "model_fingerprint"]
        assert len(lines) == 201
        for line in lines[1:]:
            cells = line.split("\t")
            assert cells[1] in ("High", "Low")
            assert abs(float(cells[2]) + float(cells[3]) - 1.0) < 1e-9

    def test_predict_empty_corpus(self, workdir):
        model = workdir / "m.json"
        run("--config", workdir / "config.json", "train-priority",
            "--in", workdir / "corpus.jsonl", "--model", model)
        empty = workdir / "empty.jsonl"
        empty.write_text("")
        preds = workdir / "empty_preds.tsv"
        assert run("predict", "--model", model, "--in", empty, "--out", preds) == 0
        assert preds.read_text().splitlines()[0].startswith("issue_id")
        assert len(preds.read_text().splitlines()) == 1

    def test_checksum_mismatch_exits_two(self, workdir, capsys):
        model = workdir / "m.json"
        run("--config", workdir / "config.json", "train-priority",
            "--in", workdir / "corpus.jsonl", "--model", model)
        assets_path = Path(str(model) + ".assets.json")
        assets = json.loads(assets_path.read_text())
        assets["scaler"]["min"][0] -= 1.0  # tamper with the fitted scaler
        assets_path.write_text(json.dumps(assets))
        code = run("predict", "--model", model, "--in", workdir / "corpus.jsonl",
                   "--out", workdir / "p.tsv")
        assert code == 2
        assert "fingerprint" in capsys.readouterr().err

    def test_two_stage_probs_file_flow(self, workdir):
        obj_model = workdir / "objective.model.json"
        assert run("--config", workdir / "config.json", "train-objective",
                   "--in", workdir / "corpus.jsonl", "--model", obj_model) == 0
        probs = workdir / "objective_probs.tsv"
        assert run("predict", "--model", obj_model,
                   "--in", workdir / "corpus.jsonl", "--out", probs) == 0
        header = probs.read_text().splitlines()[0].split("\t")
        assert header == ["issue_id", "Bug", "Enhancement", "SupportDoc"]
        model = workdir / "m2.json"
        assert run("--config", workdir / "config.json", "train-priority",
                   "--in", workdir / "corpus.jsonl", "--model", model,
                   "--objective-probs", probs) == 0

    @pytest.mark.parametrize("row", ["x\t0.5\t0.5", "-0.5\t1.5\t0", "nan\tnan\tnan",
                                     "0.5\t0.5\t0.000002"])
    def test_bad_probability_cell_exits_one(self, workdir, capsys, row):
        probs = workdir / "bad_probs.tsv"
        probs.write_text("issue_id\tBug\tEnhancement\tSupportDoc\n"
                         "engine-1\t0.2\t0.3\t0.5\n"
                         f"engine-2\t{row}\n")
        capsys.readouterr()
        assert run("--config", workdir / "config.json", "train-priority",
                   "--in", workdir / "corpus.jsonl", "--model", workdir / "m.json",
                   "--objective-probs", probs) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {probs}:3: "), err

    def test_repeated_probability_id_exits_one(self, workdir, capsys):
        probs = workdir / "probs.tsv"
        probs.write_text("issue_id\tBug\tEnhancement\tSupportDoc\n"
                         "engine-1\t0.2\t0.3\t0.5\n"
                         "engine-2\t0.2\t0.3\t0.5\n"
                         "engine-1\t1\t0\t0\n")
        capsys.readouterr()
        assert run("--config", workdir / "config.json", "train-priority",
                   "--in", workdir / "corpus.jsonl", "--model", workdir / "m.json",
                   "--objective-probs", probs) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: {probs}:4: issue id 'engine-1' repeats line 2"], err

    @pytest.mark.parametrize("content", [None, b"issue_id\tBug\tEnhancement\tSupportDoc\n"
                                               b"engine-1\t1\t0\t0 \xff\n"],
                             ids=["missing", "not-utf-8"])
    @pytest.mark.parametrize("command", ["train-priority", "predict"])
    def test_unreadable_probability_file_exits_one(self, workdir, capsys, command, content):
        """A missing probabilities file, or one that is not UTF-8."""
        probs = workdir / "probs.tsv"
        if content is not None:
            probs.write_bytes(content)
        model = workdir / "m.json"
        if command == "predict":
            assert run("--config", workdir / "config.json", "train-priority", "--stage1",
                       "uniform", "--in", workdir / "corpus.jsonl", "--model", model) == 0
        capsys.readouterr()
        argv = (["train-priority", "--model", model] if command == "train-priority"
                else ["predict", "--model", model, "--out", workdir / "p.tsv"])
        assert run("--config", workdir / "config.json", *argv, "--in", workdir / "corpus.jsonl",
                   "--objective-probs", probs) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {probs}: cannot read"), err

    @pytest.mark.parametrize("command", ["train-priority", "predict"])
    def test_probability_row_within_the_file_tolerance_is_used(self, workdir, capsys,
                                                               command):
        """A row the file check accepts (off from 1 by 5e-7) is accepted by the
        feature vector too: one tolerance, ``features.PROB_SUM_TOLERANCE``."""
        corpus = workdir / "corpus.jsonl"
        ids = [issue.id for issue in load_corpus(corpus)[0].issues]
        probs = workdir / "probs.tsv"
        probs.write_text("issue_id\tBug\tEnhancement\tSupportDoc\n"
                         + "".join(f"{i}\t0.5\t0.5\t0.0000005\n" for i in ids))
        model = workdir / "m.json"
        assert run("--config", workdir / "config.json", "train-priority", "--stage1",
                   "uniform", "--classifier", "knn", "--in", corpus, "--model", model,
                   *(["--objective-probs", probs] if command == "train-priority" else [])) == 0
        assert run("predict", "--model", model, "--in", corpus, "--out", workdir / "p.tsv",
                   "--objective-probs", probs) == 0
        assert "error" not in capsys.readouterr().err

    def test_tuned_training_writes_trace(self, workdir):
        model = workdir / "tuned.json"
        assert run("--config", workdir / "config.json", "train-priority",
                   "--in", workdir / "corpus.jsonl", "--model", model,
                   "--tune", "2", "--cv-folds", "2") == 0
        trace = json.loads(Path(str(model) + ".search.json").read_text())
        assert len(trace["trace"]) == 2
        assert set(trace["best"]) <= {"n_trees", "max_depth", "min_leaf"}

    def test_tuning_fits_the_requested_classifier(self, workdir, monkeypatch):
        def no_forest(*args, **kwargs):
            raise AssertionError("a forest was fit for --classifier knn")

        monkeypatch.setattr(learn, "fit_random_forest", no_forest)
        model, config = workdir / "tuned_knn.json", workdir / "knn.json"
        config.write_text(json.dumps({"seed": 7, "search_space": {"k": [1, 3]}}))
        assert run("--config", config, "train-priority",
                   "--in", workdir / "corpus.jsonl", "--model", model,
                   "--tune", "2", "--cv-folds", "2", "--classifier", "knn") == 0
        assert json.loads(model.read_text())["kind"] == "knn"

    def test_tuning_what_the_classifier_ignores_exits_one(self, workdir, capsys):
        """The default search space is the forest's: NB would score one
        config however many were drawn."""
        model = workdir / "tuned_nb.json"
        capsys.readouterr()
        assert run("--config", workdir / "config.json", "train-priority",
                   "--in", workdir / "corpus.jsonl", "--model", model,
                   "--tune", "2", "--cv-folds", "2", "--classifier", "nb") == 1
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert errors == ["error: search space max_depth, min_leaf, n_trees: not read by "
                          "the nb classifier under weights balancing"]
        assert not list(workdir.glob("tuned_nb.json*"))

    def test_tuning_fits_no_discarded_forest(self, workdir, monkeypatch):
        calls = []
        real = learn.fit_random_forest

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(learn, "fit_random_forest", spy)
        assert run("--config", workdir / "config.json", "train-priority",
                   "--in", workdir / "corpus.jsonl", "--model", workdir / "t.json",
                   "--tune", "2", "--cv-folds", "2") == 0
        assert len(calls) == 5  # 2 configs x 2 folds, then the final model

    def test_tuning_refits_preprocessing_inside_each_fold(self, workdir, monkeypatch):
        calls = []
        real = evalkit.fit_preprocessing

        def spy(issues, *args, **kwargs):
            calls.append({i.id for i in issues})
            return real(issues, *args, **kwargs)

        monkeypatch.setattr(evalkit, "fit_preprocessing", spy)
        assert run("--config", workdir / "config.json", "train-priority",
                   "--in", workdir / "corpus.jsonl", "--model", workdir / "t.json",
                   "--tune", "2", "--cv-folds", "3") == 0
        corpus, _ = load_corpus(workdir / "corpus.jsonl")
        issues, labels = evalkit.labeled_issues(corpus.issues, labelmap.load_label_maps())
        ids = {i.id for i in issues}
        folds = reference_splits.stratified_kfold_indices(labels, 3, seed=7)
        *tune_calls, final = calls
        # one fit per fold on exactly its training side, then the final model
        assert tune_calls == [ids - {issues[i].id for i in test_idx} for test_idx in folds]
        assert final == ids


class TestArtifactErrors:
    """Model and assets files go through one checked reader: a missing
    --model file is a usage error, a corrupt or mismatched artifact a runtime
    failure, and either way the user sees one error line."""

    @pytest.fixture()
    def trained(self, workdir):
        model = workdir / "m.json"
        assert run("--config", workdir / "config.json", "train-priority",
                   "--in", workdir / "corpus.jsonl", "--model", model) == 0
        return model

    def _predict(self, workdir, model, capsys):
        capsys.readouterr()
        code = run("predict", "--model", model, "--in", workdir / "corpus.jsonl",
                   "--out", workdir / "p.tsv")
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        return code, err[0]

    def test_missing_model_exits_one(self, workdir, capsys):
        code, err = self._predict(workdir, workdir / "nope.json", capsys)
        assert code == 1 and "not found" in err

    def test_truncated_model_exits_two(self, workdir, trained, capsys):
        trained.write_bytes(trained.read_bytes()[:300])
        assert self._predict(workdir, trained, capsys)[0] == 2

    def test_unknown_model_version_exits_two(self, workdir, trained, capsys):
        doc = json.loads(trained.read_text())
        doc["version"] = 99
        trained.write_text(json.dumps(doc))
        code, err = self._predict(workdir, trained, capsys)
        assert code == 2 and "version 99" in err

    @pytest.mark.parametrize("suffix", ["", ".assets.json"])
    def test_version_one_artifact_exits_two(self, workdir, trained, capsys, suffix):
        """Version 1 stored derived floats (NB log likelihoods, idf, dense
        importances); no reader of it is kept."""
        path = Path(f"{trained}{suffix}")
        doc = json.loads(path.read_text())
        doc["version"] = 1
        path.write_text(json.dumps(doc))
        code, err = self._predict(workdir, trained, capsys)
        assert code == 2 and "unsupported" in err and "version 1" in err

    def test_wrong_format_assets_exits_two(self, workdir, trained, capsys):
        assets = Path(str(trained) + ".assets.json")
        doc = json.loads(assets.read_text())
        doc["format"] = "something-else"
        assets.write_text(json.dumps(doc))
        assert self._predict(workdir, trained, capsys)[0] == 2


    def test_assets_without_scaler_exits_two(self, workdir, trained, capsys):
        assets = Path(str(trained) + ".assets.json")
        doc = json.loads(assets.read_text())
        del doc["scaler"]
        assets.write_text(json.dumps(doc))
        code, err = self._predict(workdir, trained, capsys)
        assert code == 2 and "'scaler'" in err

    @pytest.mark.parametrize("block,key", [
        ("scaler", "min"), ("scaler", "max"),
        *(("tfidf_title", k) for k in ("vocabulary", "df", "n_docs", "max_features",
                                       "ngram_range")),
        ("tfidf_desc", "df")])
    def test_assets_block_without_key_exits_two(self, workdir, trained, capsys, block, key):
        assets = Path(str(trained) + ".assets.json")
        doc = json.loads(assets.read_text())
        del doc[block][key]
        assets.write_text(json.dumps(doc))
        code, err = self._predict(workdir, trained, capsys)
        assert code == 2 and repr(key) in err

    @pytest.mark.parametrize("block,key,value", [
        ("tfidf_title", "max_features", lambda b: "x"),
        ("tfidf_title", "vocabulary", lambda b: [1, 2]),
        ("tfidf_title", "vocabulary", lambda b: {t: i for i, t in enumerate(b["vocabulary"])}),
        ("tfidf_title", "vocabulary", lambda b: [b["vocabulary"][1], *b["vocabulary"][1:]]),
        ("tfidf_title", "vocabulary", lambda b: b["vocabulary"][:-1]),
        ("tfidf_desc", "df", lambda b: ["x", *b["df"][1:]]),
        ("tfidf_desc", "df", lambda b: [0, *b["df"][1:]]),
        ("tfidf_desc", "df", lambda b: [-2, *b["df"][1:]]),
        ("tfidf_desc", "df", lambda b: [b["n_docs"] + 1, *b["df"][1:]]),
        ("tfidf_desc", "df", lambda b: b["df"][:-1]),
        ("tfidf_desc", "n_docs", lambda b: 0),
        ("tfidf_desc", "n_docs", lambda b: "x"),
        ("scaler", "min", lambda b: [0.0, 0.0, 0.0]),
        ("scaler", "min", lambda b: [m + 1.0 for m in b["max"]]),
    ], ids=["max_features-x", "vocabulary-ints", "vocabulary-object", "vocabulary-repeated",
            "vocabulary-short", "df-x", "df-zero", "df-negative", "df-above-n_docs",
            "df-short", "n_docs-zero", "n_docs-x", "min-3-long", "min-above-max"])
    def test_assets_block_that_does_not_decode_exits_two(self, workdir, trained, capsys,
                                                         block, key, value):
        assets = Path(str(trained) + ".assets.json")
        doc = json.loads(assets.read_text())
        doc[block][key] = value(doc[block])
        assets.write_text(json.dumps(doc))
        code, err = self._predict(workdir, trained, capsys)
        assert code == 2 and repr(block) in err

    @pytest.mark.parametrize("block,value", [("tfidf_title", [1, 3]), ("tfidf_desc", [1, 1])])
    def test_assets_of_another_ngram_range_exit_two(self, workdir, trained, capsys, block,
                                                    value):
        """Refused as the block is decoded, before any fingerprint is
        compared: no other range is applied."""
        assets = Path(str(trained) + ".assets.json")
        doc = json.loads(assets.read_text())
        doc[block]["ngram_range"] = value
        assets.write_text(json.dumps(doc))
        code, err = self._predict(workdir, trained, capsys)
        assert code == 2 and f"block {block!r} ngram_range {value} is not [1, 2]" in err

    @pytest.mark.parametrize("key", ["kind", "params"])
    def test_model_without_key_exits_two(self, workdir, trained, capsys, key):
        doc = json.loads(trained.read_text())
        del doc[key]
        trained.write_text(json.dumps(doc))
        code, err = self._predict(workdir, trained, capsys)
        assert code == 2 and repr(key) in err


    def test_forest_without_trees_exits_two(self, workdir, trained, capsys):
        doc = json.loads(trained.read_text())
        doc["params"]["trees"] = []
        trained.write_text(json.dumps(doc))
        code, err = self._predict(workdir, trained, capsys)
        assert code == 2 and "no trees" in err

    @pytest.mark.parametrize("classes", ["HL", ["High"], ["High", "High"], ["High", 1], None])
    def test_model_with_bad_classes_exits_two(self, workdir, trained, capsys, classes):
        doc = json.loads(trained.read_text())
        doc["classes"] = classes
        trained.write_text(json.dumps(doc))
        code, err = self._predict(workdir, trained, capsys)
        assert code == 2 and "classes" in err

    def test_model_of_unknown_kind_exits_two(self, workdir, trained, capsys):
        doc = json.loads(trained.read_text())
        doc["kind"] = "svm"
        trained.write_text(json.dumps(doc))
        code, err = self._predict(workdir, trained, capsys)
        assert code == 2 and "'svm'" in err

    @staticmethod
    def _first_node(tree, split: bool):
        """The first split node (or leaf) of ``tree`` in a left-first walk."""
        stack = [tree]
        while stack:
            node = stack.pop()
            if ("leaf" not in node) == split:
                return node
            if "leaf" not in node:
                stack += (node["r"], node["l"])
        raise AssertionError("no such node")

    @pytest.mark.parametrize("fault", [
        "trees=5", "node={}", "f=x", "f=10**7", "f=-1", "f=true", "t=x",
        "leaf=3-long", "leaf=x", "no-n_features", "n_features=10**7",
        "importances-dense", "importances-index-out-of-range", "importances-index-repeated",
        "importances-index-x", "importances-value-nan", "importances-value-short",
        "importances-shape-long", "importances-shape-huge"])
    def test_malformed_forest_exits_two(self, workdir, trained, capsys, fault):
        doc = json.loads(trained.read_text())
        params = doc["params"]
        split = self._first_node(params["trees"][0], split=True)
        leaf = self._first_node(params["trees"][-1], split=False)
        if fault == "trees=5":
            params["trees"] = 5
        elif fault == "node={}":
            split["l"] = {}
        elif fault.startswith("f="):
            split["f"] = {"f=x": "x", "f=10**7": 10 ** 7, "f=-1": -1, "f=true": True}[fault]
        elif fault == "t=x":
            split["t"] = "x"
        elif fault == "leaf=3-long":
            leaf["leaf"] = [0.5, 0.25, 0.25]
        elif fault == "leaf=x":
            leaf["leaf"] = ["x", 1.0]
        elif fault == "n_features=10**7":  # a split past the width its assets give
            params["n_features"], split["f"] = 10 ** 7, 10 ** 6
        elif fault == "no-n_features":
            del params["n_features"]
        else:
            pairs = params["importances"]
            if fault == "importances-dense":  # the version-1 form
                params["importances"] = [0.0] * params["n_features"]
            elif fault == "importances-index-out-of-range":
                pairs["index"][-1] = params["n_features"]
            elif fault == "importances-index-repeated":
                pairs["index"][1] = pairs["index"][0]
            elif fault == "importances-index-x":
                pairs["index"][0] = "x"
            elif fault == "importances-value-nan":
                pairs["value"][0] = float("nan")
            elif fault == "importances-value-short":
                pairs["value"] = pairs["value"][:-1]
            elif fault == "importances-shape-long":
                pairs["shape"] = [params["n_features"] + 1]
            else:
                pairs["shape"] = [10 ** 12]
        trained.write_text(json.dumps(doc))
        code, err = self._predict(workdir, trained, capsys)
        assert code == 2 and "forest model artifact" in err

    def test_nb_params_that_do_not_decode_exit_two(self, workdir, capsys):
        model = workdir / "obj.json"
        assert run("--config", workdir / "config.json", "train-objective",
                   "--in", workdir / "corpus.jsonl", "--model", model) == 0
        doc = json.loads(model.read_text())
        name = sorted(doc["params"])[0]
        doc["params"][name] = "x"
        model.write_text(json.dumps(doc))
        code, err = self._predict(workdir, model, capsys)
        assert code == 2 and "does not decode" in err

    @pytest.mark.parametrize("stage1,name,cut", [
        ("nb", "term_counts", lambda v: v[:1]),
        ("nb", "class_counts", lambda v: v[:-1]),
        ("nb", "term_counts", None),
        ("logreg", "W", lambda v: [row[:1] for row in v]),
        ("logreg", "b", lambda v: [*v, 0.0]),
        ("logreg", "b", None),
        ("nb", "term_counts", lambda v: [row[:-1] for row in v]),
        ("logreg", "W", lambda v: v[:-1]),
        ("nb", "term_counts", lambda v: [[None, *v[0][1:]], *v[1:]]),
        ("nb", "term_counts", lambda v: [[float("nan"), *v[0][1:]], *v[1:]]),
        ("nb", "term_counts", lambda v: [[-1, *v[0][1:]], *v[1:]]),
        ("nb", "term_counts", lambda v: [[float("inf"), *v[0][1:]], *v[1:]]),
        ("nb", "class_counts", lambda v: [-1, *v[1:]]),
        ("nb", "class_counts", lambda v: [float("inf"), *v[1:]]),
        ("nb", "class_counts", None),
        ("nb", "alpha", None),
    ], ids=["nb-term-counts-one-row", "nb-class-counts-short", "nb-no-term-counts",
            "logreg-W-one-column", "logreg-b-long", "logreg-no-b",
            "nb-term-counts-column-cut", "logreg-W-row-cut", "nb-term-counts-null",
            "nb-term-counts-nan", "nb-term-counts-negative", "nb-term-counts-inf",
            "nb-class-counts-negative", "nb-class-counts-inf", "nb-no-class-counts",
            "nb-no-alpha"])
    @pytest.mark.parametrize("where", ["model", "assets"])
    def test_linear_params_that_do_not_fit_the_classes_exit_two(
            self, workdir, stage1_artifacts, capsys, where, stage1, name, cut):
        """A stage-one model whose parameters do not fit its classes is refused
        on load, both as a model file and as the assets' ``stage1_model``."""
        model = workdir / "m.json"
        for suffix in ("", ".assets.json"):
            shutil.copy(f"{stage1_artifacts[where, stage1]}{suffix}", f"{model}{suffix}")
        path = model if where == "model" else Path(f"{model}.assets.json")
        doc = json.loads(path.read_text())
        params = (doc if where == "model" else doc["stage1_model"])["params"]
        if cut is None:
            del params[name]
        else:
            params[name] = cut(params[name])
        path.write_text(json.dumps(doc))
        code, err = self._predict(workdir, model, capsys)
        assert code == 2 and f"{stage1} model artifact" in err and name in err

    @pytest.mark.parametrize("where", ["model", "assets"])
    def test_stage1_model_giving_nan_probabilities_exits_two(self, workdir, stage1_artifacts,
                                                             capsys, where):
        """Finite but extreme NB counts (every term count 1e308) decode, but
        each class's sum overflows, so every log likelihood is -inf and the
        objective probabilities are NaN, which are refused."""
        model = workdir / "m.json"
        for suffix in ("", ".assets.json"):
            shutil.copy(f"{stage1_artifacts[where, 'nb']}{suffix}", f"{model}{suffix}")
        path = model if where == "model" else Path(f"{model}.assets.json")
        doc = json.loads(path.read_text())
        params = (doc if where == "model" else doc["stage1_model"])["params"]
        params["term_counts"] = [[1e308] * len(row) for row in params["term_counts"]]
        path.write_text(json.dumps(doc))
        code, err = self._predict(workdir, model, capsys)
        assert code == 2 and "non-finite objective probabilities" in err

    def test_priority_model_giving_nan_probabilities_exits_two(self, workdir, capsys):
        """The same extreme counts in a stage-two NB model: refused, not
        written out as NaN probabilities with exit 0."""
        model = workdir / "m.json"
        assert run("--config", workdir / "config.json", "train-priority",
                   "--classifier", "nb", "--in", workdir / "corpus.jsonl",
                   "--model", model) == 0
        doc = json.loads(model.read_text())
        doc["params"]["term_counts"] = [
            [1e308] * len(row) for row in doc["params"]["term_counts"]]
        model.write_text(json.dumps(doc))
        code, err = self._predict(workdir, model, capsys)
        assert code == 2 and "non-finite probabilities" in err
        assert not (workdir / "p.tsv").exists()

    @pytest.mark.parametrize("checksums", [5, [1], {"objective": 3}])
    def test_label_checksums_not_an_object_of_strings_exit_two(self, workdir, trained,
                                                               capsys, checksums):
        assets = Path(f"{trained}.assets.json")
        doc = json.loads(assets.read_text())
        doc["label_checksums"] = checksums
        assets.write_text(json.dumps(doc))
        code, err = self._predict(workdir, trained, capsys)
        assert code == 2 and "label_checksums" in err

    @pytest.mark.parametrize("stage1", ["nb", "logreg"])
    def test_assets_stage1_model_over_other_classes_exits_two(self, workdir,
                                                              stage1_artifacts, capsys, stage1):
        """A stage-one model consistent in itself but over Bug and Enhancement
        only would shift every later feature block by one column."""
        model = workdir / "m.json"
        for suffix in ("", ".assets.json"):
            shutil.copy(f"{stage1_artifacts['assets', stage1]}{suffix}", f"{model}{suffix}")
        assets = Path(f"{model}.assets.json")
        doc = json.loads(assets.read_text())
        stage1_doc = doc["stage1_model"]
        stage1_doc["classes"] = stage1_doc["classes"][:2]
        params = stage1_doc["params"]
        if stage1 == "nb":
            params["class_counts"], params["term_counts"] = (
                params["class_counts"][:2], params["term_counts"][:2])
        else:
            params["b"], params["W"] = params["b"][:2], [row[:2] for row in params["W"]]
        assets.write_text(json.dumps(doc))
        code, err = self._predict(workdir, model, capsys)
        assert code == 2 and "stage1_model" in err and "classes" in err

    @pytest.mark.parametrize("fingerprints", [5, [1], {"scaler": 3}])
    def test_asset_fingerprints_not_an_object_of_strings_exit_two(self, workdir, trained,
                                                                  capsys, fingerprints):
        doc = json.loads(trained.read_text())
        doc["asset_fingerprints"] = fingerprints
        trained.write_text(json.dumps(doc))
        code, err = self._predict(workdir, trained, capsys)
        assert code == 2 and "asset_fingerprints" in err

    @pytest.mark.parametrize("fault", [
        "X-row-short", "X-rows-short", "X=x", "y=7", "X-dense", "X-index-repeated",
        "X-index-out-of-range", "X-value-short", "X-huge"])
    def test_malformed_knn_exits_two(self, workdir, capsys, fault):
        """Training rows that do not fit the width the assets give, a label
        outside the classes, or non-zeros that do not fit the matrix's shape
        are refused on load."""
        model = workdir / "knn.json"
        assert run("--config", workdir / "config.json", "train-priority", "--classifier",
                   "knn", "--in", workdir / "corpus.jsonl", "--model", model) == 0
        doc = json.loads(model.read_text())
        params = doc["params"]
        X = params["X"]
        n, d = X["shape"]
        if fault == "X-row-short":  # each row one column short
            X["shape"], X["index"] = [n, d - 1], [i - i // d for i in X["index"]]
        elif fault == "X-rows-short":
            X["shape"][0] = n - 1
        elif fault == "X=x":
            params["X"] = "x"
        elif fault == "y=7":
            params["y"][0] = 7
        elif fault == "X-dense":  # the version-1 form
            params["X"] = [[0.0] * d] * n
        elif fault == "X-index-repeated":
            X["index"][1] = X["index"][0]
        elif fault == "X-index-out-of-range":
            X["index"][-1] = n * d
        elif fault == "X-value-short":
            X["value"] = X["value"][:-1]
        else:
            X["shape"][1] = 10 ** 9
        model.write_text(json.dumps(doc))
        code, err = self._predict(workdir, model, capsys)
        assert code == 2 and "knn model artifact" in err

    def test_knn_with_k_below_one_exits_two(self, workdir, capsys):
        model = workdir / "knn.json"
        assert run("--config", workdir / "config.json", "train-priority", "--classifier",
                   "knn", "--in", workdir / "corpus.jsonl", "--model", model) == 0
        doc = json.loads(model.read_text())
        doc["params"]["k"] = 0
        model.write_text(json.dumps(doc))
        code, err = self._predict(workdir, model, capsys)
        assert code == 2 and "k 0" in err


def _command(workdir, command):
    """argv of ``command`` on the workdir corpus, writing into the workdir."""
    corpus = workdir / "corpus.jsonl"
    return {
        "train": ["train-priority", "--in", corpus, "--model", workdir / "m.json"],
        "tune": ["train-priority", "--in", corpus, "--model", workdir / "m.json",
                 "--tune", "1", "--cv-folds", "2"],
        "features": ["features", "--in", corpus, "--out", workdir / "f.tsv"],
        "evaluate": ["evaluate", "--in", corpus, "--mode", "cv", "--report", workdir / "r.json"],
        "preprocess": ["preprocess", "--in", corpus, "--out", workdir / "p.jsonl"],
        "fetch": ["fetch", "--out", workdir / "c.jsonl", "--cache-dir", workdir / "cache"],
        "agreement": ["agreement", "--ratings", FIXTURES / "ratings_grouped.csv",
                      "--report", workdir / "a.json"],
    }[command]


# (config, command, extra flags, what the one error line names)
BAD_SETTINGS = [
    ([1], "train", [], "JSON object"),
    ({"model": "x"}, "train", [], "model"),
    ({"model": {"hyperparams": [1]}}, "train", [], "hyperparams"),
    ({"model": {"bogus": 1}}, "train", [], "'bogus'"),
    ({"filter": {"bogus": 1}}, "preprocess", [], "'bogus'"),
    ({"model": {"hyperparams": {"ntrees": 2}}}, "train", [], "'ntrees'"),
    ({"model": {"hyperparams": {"n_trees": 0}}}, "train", [], "n_trees"),
    ({"model": {"hyperparams": {"k": 0}}}, "train", ["--classifier", "knn"], "k must"),
    ({"model": {"hyperparams": {"n_trees": "x"}}}, "train", [], "n_trees"),
    ({"model": {"hyperparams": {"n_trees": 2.5}}}, "train", [], "n_trees"),
    ({"model": {"hyperparams": {"max_features": "log2"}}}, "train", [], "max_features"),
    ({"model": {"hyperparams": {"max_features": None}}}, "train", [], "max_features"),
    ({"model": {"title_max_features": "x"}}, "train", [], "title_max_features"),
    ({"model": {"classifier": "bogus"}}, "train", [], "classifier"),
    ({"model": {"balancing": "bogus"}}, "evaluate", [], "balancing"),
    ({"model": {"stage1": "file"}}, "evaluate", [], "stage1"),
    ({}, "evaluate", ["--stage1", "file"], "--stage1"),
    ({"search_space": {"n_trees": {"low": 1}}}, "tune", [], "n_trees"),
    ({"search_space": {"n_trees": {"low": 5, "high": 1}}}, "tune", [], "n_trees"),
    ({"search_space": {"n_trees": []}}, "tune", [], "n_trees"),
    ({"search_space": {"n_tree": [1]}}, "tune", [], "'n_tree'"),
    ({}, "tune", ["--classifier", "nb"], "max_depth, min_leaf, n_trees: not read by the nb"),
    ({"search_space": {"smote_k": [1, 3]}}, "tune", ["--balancing", "weights"],
     "smote_k: not read by the forest classifier under weights balancing"),
    ({"filter": {"min_text_chars": "x"}}, "preprocess", [], "min_text_chars"),
    ({"filter": {"excluded_clusters": 5}}, "preprocess", [], "excluded_clusters"),
    ({"filter": {"non_english_threshold": 2}}, "preprocess", [], "non_english_threshold"),
    ({}, "train", ["--tune", "-1"], "--tune"),
    ({}, "fetch", ["--repo", "a/b", "--parallel", "0"], "parallel"),
    ({}, "fetch", ["--repo", "bad"], "repo"),
    ({"paths": {"cache": 5}}, "fetch", ["--repo", "a/b"], "paths.cache"),
    # a flag that only another command reads
    ({}, "train", ["--refresh"], "--refresh"),
    ({}, "evaluate", ["--emit-csv"], "--emit-csv"),
    ({}, "fetch", ["--repo", "a/b", "--strict"], "--strict"),
    ({}, "agreement", ["--strict"], "--strict"),
    ({}, "train", ["--cv-folds", "4"], "--cv-folds"),
    ({}, "train", ["--tune-metric", "macro-f1"], "--tune-metric"),
    ({}, "evaluate", ["--mode", "project", "--cv-folds", "3"], "--cv-folds"),
    ({}, "evaluate", ["--mode", "cross-project", "--cv-folds", "3"], "--cv-folds"),
]


class TestSettings:
    """Every setting is read and checked once, before any corpus is loaded:
    a bad value or an unknown key exits 1 with one error line naming it."""

    @pytest.mark.parametrize("config,command,extra,named", BAD_SETTINGS,
                             ids=[f"{command}-{named}" for _, command, _, named in BAD_SETTINGS])
    def test_bad_setting_exits_one(self, workdir, capsys, config, command, extra, named):
        path = workdir / "bad.json"
        path.write_text(json.dumps(config))
        capsys.readouterr()
        assert run("--config", path, *_command(workdir, command), *extra) == 1
        err = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
        errors = [line for line in err if line.startswith("error: ")]
        assert len(errors) == 1 and named in errors[0], err
        assert all(line.startswith(("error: ", "usage: ", "  ")) for line in err), err

    @pytest.mark.parametrize("flag,command,extra,error", [
        ("--strict", "fetch", ["--repo", "a/b"], "error: fetch does not read --strict"),
        ("--strict", "agreement", [], "error: agreement does not read --strict"),
        ("--emit-csv", "evaluate", [], "error: evaluate --mode cv does not read --emit-csv"),
        ("--refresh", "preprocess", [], "error: preprocess does not read --refresh"),
    ])
    def test_strict_before_the_command_exits_one(self, workdir, capsys, flag, command, extra,
                                                 error):
        capsys.readouterr()
        assert run(flag, *_command(workdir, command), *extra) == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error")]
        assert errors == [error]

    def test_no_corpus_is_loaded_when_a_setting_is_bad(self, workdir, monkeypatch):
        loads = []
        monkeypatch.setattr(cli, "load_corpus", lambda *a, **k: loads.append(a))
        path = workdir / "bad.json"
        for config, command, extra, _ in BAD_SETTINGS:
            path.write_text(json.dumps(config))
            # a bad config fails every command, not only the one that uses it
            for name in [command] if extra else ["tune", "features", "evaluate", "preprocess"]:
                assert run("--config", path, *_command(workdir, name), *extra) == 1
        assert loads == []

    @pytest.mark.parametrize("hyperparams,extra", [
        ({"n_trees": 3, "max_depth": None}, []),
        ({"n_trees": 3, "max_features": "sqrt"}, []),
        ({"n_trees": 3, "max_depth": 2, "k": 3}, ["--classifier", "knn"]),
    ])
    def test_still_accepted(self, workdir, hyperparams, extra):
        path = workdir / "ok.json"
        path.write_text(json.dumps({"model": {"hyperparams": hyperparams}}))
        assert run("--config", path, *_command(workdir, "train"), *extra) == 0


class TestReads:
    """``cli.READS`` cannot drift from the code: run on the planted fixture
    (``fetch`` through a canned transport), each key reads every flag in its
    entry on some path, and no other flag. ``main``'s own reads only check a
    value or pick the key, so they do not count, but for ``--config`` and
    ``--seed``, which ``main`` reads for every command."""

    def test_each_key_reads_its_flags_and_no_other(self, workdir, monkeypatch, stage1_artifacts):
        reads = set()

        class Recording(argparse.Namespace):
            def __getattribute__(self, name):
                if (name in object.__getattribute__(self, "__dict__")
                        and sys._getframe(1).f_code is not cli.main.__code__):
                    reads.add(name)
                return object.__getattribute__(self, name)

        build_parser = cli.build_parser

        def recording_parser():
            # records from the parsed namespace on, not argparse's own reads
            parser = build_parser()
            parse = parser.parse_args
            parser.parse_args = lambda argv: Recording(**vars(parse(argv)))
            return parser

        monkeypatch.setattr(cli, "build_parser", recording_parser)
        transport = FakeTransport()
        transport.add(ISSUES_URL, [issue_doc(1)])
        hydration_routes(transport)
        monkeypatch.setattr(ingest, "RequestsTransport", lambda: transport)
        corpus, out, config = workdir / "corpus.jsonl", workdir / "out", workdir / "config.json"
        train = ["--config", config, "train-priority", "--in", corpus, "--model", out]
        evaluate = ["--config", config, "evaluate", "--in", corpus, "--report", out]
        predict = ["predict", "--in", corpus, "--out", out, "--model"]
        runs = [
            ("fetch", ["fetch", "--repo", REPO, "--out", out, "--cache-dir", workdir / "cache"]),
            ("preprocess", ["preprocess", "--in", corpus, "--out", out]),
            ("features", ["features", "--in", corpus, "--out", out]),
            ("train-objective", ["train-objective", "--in", corpus, "--model", out]),
            ("train-priority --tune 0", train),
            ("train-priority --tune", [*train, "--tune", "1", "--cv-folds", "2"]),
            ("predict", [*predict, stage1_artifacts["assets", "nb"]]),
            ("predict", [*predict, stage1_artifacts["model", "nb"]]),
            ("evaluate --mode cv", [*evaluate, "--mode", "cv", "--cv-folds", "2"]),
            ("evaluate --mode project", [*evaluate, "--mode", "project"]),
            ("evaluate --mode cross-project", [*evaluate, "--mode", "cross-project"]),
            ("agreement", ["agreement", "--ratings", FIXTURES / "ratings_grouped.csv",
                           "--report", out]),
        ]
        read_by = {key: set() for key in cli.READS}
        for key, argv in runs:
            reads.clear()
            assert run(*argv) == 0, key
            flags = reads & cli.FLAGS.keys() | {"config", "seed"}
            assert flags <= cli.READS[key].keys(), (key, flags - cli.READS[key].keys())
            read_by[key] |= flags
        assert read_by == {key: set(dests) for key, dests in cli.READS.items()}


class TestValueValidation:
    """Bad values exit 1 with one error line, not a traceback."""

    def _run(self, capsys, *argv):
        capsys.readouterr()
        code = run(*argv)
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        return code, err[0]

    @pytest.mark.parametrize("value", ["0", "10", "12"])
    def test_weights_i_flag_out_of_grid(self, workdir, capsys, value):
        code, err = self._run(capsys, "train-priority", "--in", workdir / "corpus.jsonl",
                              "--model", workdir / "m.json", "--weights-i", value)
        assert code == 1 and "weights_i" in err

    @pytest.mark.parametrize("value", [12, "6", 6.5])
    def test_weights_i_config_out_of_grid(self, workdir, capsys, value):
        config = workdir / "w.json"
        config.write_text(json.dumps({"model": {"weights_i": value}}))
        code, err = self._run(capsys, "--config", config, "evaluate",
                              "--in", workdir / "corpus.jsonl", "--mode", "cross-project",
                              "--report", workdir / "r.json")
        assert code == 1 and "weights_i" in err

    @pytest.mark.parametrize("value", ["x", -1, 1.5, True])
    def test_bad_config_seed(self, workdir, capsys, value):
        config = workdir / "s.json"
        config.write_text(json.dumps({"seed": value}))
        code, err = self._run(capsys, "--config", config, "preprocess",
                              "--in", workdir / "corpus.jsonl", "--out", workdir / "o.jsonl")
        assert code == 1 and "seed" in err

    def test_negative_seed_flag(self, workdir, capsys):
        code, err = self._run(capsys, "--seed", "-1", "preprocess",
                              "--in", workdir / "corpus.jsonl", "--out", workdir / "o.jsonl")
        assert code == 1 and "seed" in err

    @pytest.mark.parametrize("command", ["evaluate", "train-priority"])
    def test_cv_folds_below_two(self, workdir, capsys, command):
        extra = (["--mode", "cv", "--report", workdir / "r.json"] if command == "evaluate"
                 else ["--model", workdir / "m.json", "--tune", "1"])
        code, err = self._run(capsys, command, "--in", workdir / "corpus.jsonl",
                              "--cv-folds", "1", *extra)
        assert code == 1 and "--cv-folds" in err
        assert not (workdir / "r.json").exists() and not (workdir / "m.json").exists()


class TestAssetsBundle:
    def test_stage1_model_round_trips(self, planted_corpus, maps, tmp_path):
        from issuetriage import evalkit, features

        issues = list(planted_corpus.issues)
        pipeline = features.fit_feature_pipeline(issues, maps, features.TITLE_MAX_FEATURES,
                                                 features.DESC_MAX_FEATURES)
        stage1 = evalkit.train_objective_model(issues, pipeline, evalkit.ModelSpec())
        path = tmp_path / "assets.json"
        cli.save_assets(path, pipeline, stage1)
        loaded_pipeline, loaded = cli.load_assets(path)
        assert loaded_pipeline.fingerprints() == pipeline.fingerprints()
        for name in ("tfidf_title", "tfidf_desc"):  # derived on load, by the fit's formula
            got, want = getattr(loaded_pipeline, name), getattr(pipeline, name)
            assert list(got.vocabulary.items()) == list(want.vocabulary.items())
            assert got.idf.tobytes() == want.idf.tobytes()
        for key in ("log_prior", "log_likelihood"):
            assert loaded.params[key].tobytes() == stage1.params[key].tobytes()
        X = np.vstack([pipeline.stage1_counts(i) for i in issues[:20]])
        assert loaded.predict_proba(X).tobytes() == stage1.predict_proba(X).tobytes()
        again = tmp_path / "again.json"
        cli.save_assets(again, loaded_pipeline, loaded)
        assert again.read_bytes() == path.read_bytes()


class TestStageOne:
    """``model.stage1`` picks the objective model of every command that fits one."""

    def _config(self, workdir, stage1):
        path = workdir / f"{stage1}.json"
        path.write_text(json.dumps({"model": {"stage1": stage1}}))
        return path

    def test_features_with_uniform_stage1_writes_thirds(self, workdir):
        out = workdir / "f.tsv"
        assert run("--config", self._config(workdir, "uniform"), "features",
                   "--in", workdir / "corpus.jsonl", "--out", out) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 200
        for row in rows:
            # the tf cell ends with the three objective probabilities
            probs = [pair.split(":")[1] for pair in row.split("\t")[-1].split()[-3:]]
            assert probs == [cli._format_float(1 / 3)] * 3, row

    def test_config_stage1_picks_the_train_objective_model(self, workdir):
        model = workdir / "o.json"
        assert run("--config", self._config(workdir, "logreg"), "train-objective",
                   "--in", workdir / "corpus.jsonl", "--model", model) == 0
        assert json.loads(model.read_text())["kind"] == "logreg"

    @pytest.mark.parametrize("how", ["flag", "config"])
    def test_train_objective_rejects_uniform_before_loading(self, workdir, monkeypatch,
                                                            capsys, how):
        loads = []
        monkeypatch.setattr(cli, "load_corpus", lambda *a, **k: loads.append(a))
        argv = (["train-objective", "--stage1", "uniform"] if how == "flag" else
                ["--config", self._config(workdir, "uniform"), "train-objective"])
        capsys.readouterr()
        assert run(*argv, "--in", workdir / "corpus.jsonl", "--model", workdir / "o.json") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "stage1" in err[0], err
        assert loads == [] and not (workdir / "o.json").exists()

    def test_predict_with_a_stage_one_model_rejects_objective_probs(self, workdir, capsys,
                                                                    stage1_artifacts):
        """The stage-one model makes the objective probabilities, so a valid
        file beside it is a usage error, not a file read and then ignored."""
        corpus = workdir / "corpus.jsonl"
        probs = workdir / "probs.tsv"
        probs.write_text("issue_id\tBug\tEnhancement\tSupportDoc\n"
                         + "".join(f"{issue.id}\t0.2\t0.3\t0.5\n"
                                   for issue in load_corpus(corpus)[0].issues))
        out = workdir / "p.tsv"
        capsys.readouterr()
        assert run("predict", "--model", stage1_artifacts["model", "nb"], "--in", corpus,
                   "--out", out, "--objective-probs", probs) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: --objective-probs "), err
        assert not out.exists()

    def test_train_objective_on_an_empty_corpus_exits_two(self, workdir, capsys):
        empty = workdir / "empty.jsonl"
        empty.write_text("")
        capsys.readouterr()
        assert run("train-objective", "--in", empty, "--model", workdir / "o.json") == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err


class TestManifest:
    """``write_manifest`` hashes each input a chunk at a time, never holding
    the whole file."""

    @pytest.mark.parametrize("size", [0, 1 << 20, (1 << 20) + 1],
                             ids=["empty", "one-mib", "one-mib-and-a-byte"])
    def test_digest_equals_sha256_of_the_bytes(self, tmp_path, monkeypatch, size):
        data = (bytes(range(256)) * (size // 256 + 1))[:size]
        path = tmp_path / "input.bin"
        path.write_bytes(data)

        def whole_file(self):
            raise AssertionError(f"{self} read whole")

        monkeypatch.setattr(Path, "read_bytes", whole_file)
        out = tmp_path / "out.txt"
        cli.write_manifest(out, "features", {}, 7, [path, tmp_path / "missing"], [out])
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["inputs"] == {str(path): hashlib.sha256(data).hexdigest()}


class TestDeterminism:
    def test_train_twice_byte_identical(self, workdir):
        m1, m2 = workdir / "a.json", workdir / "b.json"
        for m in (m1, m2):
            assert run("--config", workdir / "config.json", "train-priority",
                       "--in", workdir / "corpus.jsonl", "--model", m,
                       "--seed", "13") == 0
        assert m1.read_bytes() == m2.read_bytes()
        assert Path(str(m1) + ".assets.json").read_bytes() == \
            Path(str(m2) + ".assets.json").read_bytes()

    def test_evaluate_twice_byte_identical(self, workdir):
        r1, r2 = workdir / "r1.json", workdir / "r2.json"
        for r in (r1, r2):
            assert run("--config", workdir / "config.json", "evaluate",
                       "--in", workdir / "corpus.jsonl", "--mode", "cross-project",
                       "--report", r, "--seed", "5") == 0
        assert r1.read_bytes() == r2.read_bytes()


class TestEvaluateCommand:
    def test_project_mode_with_csv(self, workdir):
        report = workdir / "proj.json"
        assert run("--config", workdir / "config.json", "--emit-csv", "evaluate",
                   "--in", workdir / "corpus.jsonl", "--mode", "project",
                   "--report", report) == 0
        doc = json.loads(report.read_text())
        assert set(doc["per_repo"]) == {"acme/engine", "acme/dashboard",
                                        "blue/parser", "blue/notifier"}
        csv_lines = report.with_suffix(".csv").read_text().splitlines()
        assert len(csv_lines) == 5

    def test_cv_mode(self, workdir, capsys):
        report = workdir / "cv.json"
        assert run("--config", workdir / "config.json", "evaluate",
                   "--in", workdir / "corpus.jsonl", "--mode", "cv",
                   "--cv-folds", "2", "--report", report) == 0
        doc = json.loads(report.read_text())
        assert len(doc["folds"]) == 2
        assert "accuracy" in doc["mean"]

    @pytest.mark.parametrize("repo", ["acme/engine", None], ids=["one-repo", "empty"])
    def test_cross_project_on_fewer_than_two_repos_exits_two(self, workdir, capsys, repo):
        corpus = workdir / "corpus.jsonl"
        lines = [line for line in corpus.read_text().splitlines()
                 if json.loads(line)["repo"] == repo]
        corpus.write_text("".join(line + "\n" for line in lines))
        assert run("--config", workdir / "config.json", "evaluate", "--in", corpus,
                   "--mode", "cross-project", "--report", workdir / "x.json") == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: cross-project evaluation needs at least two repositories, "
                       f"got {1 if repo else 0}"], err


class TestNothingToScore:
    """A run that would score no issue exits 2 with one ``error:`` line and
    writes no output."""

    @staticmethod
    def rewrite(workdir, change):
        """The fixture corpus with each issue document ``change``d, and those
        it makes None dropped."""
        corpus = workdir / "corpus.jsonl"
        docs = [change(json.loads(line)) for line in corpus.read_text().splitlines()]
        corpus.write_text("".join(json.dumps(doc) + "\n" for doc in docs if doc is not None))
        return corpus

    @staticmethod
    def assert_one_error(capsys, code, message):
        err = capsys.readouterr().err.strip().splitlines()
        assert (code, err) == (2, [f"error: {message}"])

    def test_tune_that_scores_no_fold(self, workdir, capsys):
        """One High and one Low issue: each of two folds trains on one class."""
        priority = labelmap.load_label_maps().priority
        kept = {}

        def first_of_each_class(doc):
            cls = labelmap.priority_of(doc["labels"], priority)
            if cls is None or cls in kept:
                return None
            kept[cls] = doc
            return doc

        corpus = self.rewrite(workdir, first_of_each_class)
        model = workdir / "m.json"
        code = run("--config", workdir / "config.json", "train-priority", "--in", corpus,
                   "--model", model, "--tune", "2", "--cv-folds", "2")
        self.assert_one_error(capsys, code, "no usable folds")
        assert len(kept) == 2 and not list(workdir.glob("m.json*"))

    def test_project_mode_on_an_empty_corpus(self, workdir, capsys):
        corpus = self.rewrite(workdir, lambda doc: None)
        report = workdir / "p.json"
        code = run("--config", workdir / "config.json", "--emit-csv", "evaluate",
                   "--in", corpus, "--mode", "project", "--report", report)
        self.assert_one_error(capsys, code, "no repository can be evaluated (0 skipped)")
        assert not list(workdir.glob("p.*"))

    def test_cross_project_with_no_labeled_held_out_issue(self, workdir, capsys):
        """Seed 11 holds out blue/notifier, whose priority labels are removed."""
        priority = labelmap.load_label_maps().priority

        def unlabeled_notifier(doc):
            if doc["repo"] == "blue/notifier":
                doc["labels"] = [label for label in doc["labels"]
                                 if labelmap.priority_of([label], priority) is None]
            return doc

        corpus = self.rewrite(workdir, unlabeled_notifier)
        report = workdir / "x.json"
        code = run("--config", workdir / "config.json", "--seed", "11", "evaluate",
                   "--in", corpus, "--mode", "cross-project", "--report", report)
        self.assert_one_error(capsys, code, "the test side holds no priority-labeled issue")
        assert not list(workdir.glob("x.*"))


class TestForestWorkers:
    def test_a_failing_worker_exits_two(self, workdir, monkeypatch, capsys):
        def fault():
            raise MemoryError("planted in a worker")
        monkeypatch.setattr(learn, "_grow_tree", in_child(fault, workdir / "started"))
        monkeypatch.setattr(learn, "_cpus", lambda: 2)
        assert run("--config", workdir / "config.json", "train-priority",
                   "--in", workdir / "corpus.jsonl", "--model", workdir / "m.json") == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: forest worker process "), err
        assert err[0].endswith("failed: MemoryError: planted in a worker")
        with pytest.raises(ChildProcessError):  # the worker was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_piped_output_is_written_once(self, workdir):
        """A worker leaves without flushing the stdout buffer it inherited:
        with stdout a pipe, a line printed before the fits and every report
        line appear once."""
        code = ("import sys; from issuetriage import cli; print('before the fits'); "
                "sys.exit(cli.main(sys.argv[1:]))")
        src = Path(cli.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", code, "--config", str(workdir / "config.json"), "evaluate",
             "--in", str(workdir / "corpus.jsonl"), "--mode", "project",
             "--report", str(workdir / "proj.json")],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "before the fits" and lines[-1].startswith("mean accuracy: ")
        assert len(lines) == len(set(lines)) == 6, lines


class TestUnwritableOutput:
    """An output under a missing directory is a runtime failure of every
    command that writes one: exit 2 and one ``error:`` line naming it."""

    @pytest.mark.parametrize("command", ["preprocess", "features", "train-objective",
                                         "train-priority", "predict", "evaluate", "agreement"])
    def test_output_under_a_missing_directory_exits_two(self, workdir, stage1_artifacts,
                                                        capsys, command):
        missing = workdir / "missing"
        corpus = ["--in", workdir / "corpus.jsonl"]
        ratings = workdir / "ratings.csv"
        ratings.write_text("project,r1,r2\nweb,H,H\napi,L,H\n")
        argv = {"preprocess": ["preprocess", *corpus, "--out", missing / "o.jsonl"],
                "features": ["features", *corpus, "--out", missing / "f.tsv"],
                "train-objective": ["train-objective", *corpus, "--model", missing / "o.json"],
                "train-priority": ["train-priority", *corpus, "--model", missing / "m.json"],
                "predict": ["predict", "--model", stage1_artifacts["assets", "nb"], *corpus,
                            "--out", missing / "p.tsv"],
                "evaluate": ["evaluate", *corpus, "--mode", "cross-project",
                             "--report", missing / "r.json"],
                "agreement": ["agreement", "--ratings", ratings,
                              "--report", missing / "a.json"]}[command]
        assert run("--config", workdir / "config.json", *argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(missing) in err[0], err
        assert not missing.exists()


class TestAgreementCommand:
    def test_agreement_report(self, workdir, capsys):
        ratings = workdir / "ratings.csv"
        ratings.write_text("project,r1,r2,r3\nweb,H,H,H\nweb,H,H,L\napi,L,L,L\n")
        report = workdir / "agreement.json"
        assert run("agreement", "--ratings", ratings, "--report", report) == 0
        doc = json.loads(report.read_text())
        assert set(doc) == {"overall", "web", "api"}
        out = capsys.readouterr().out
        assert "percent agreement" in out
        assert "randolph kappa" in out

    def test_bad_rating_matrix_exits_two(self, workdir, capsys):
        ratings = workdir / "ratings.csv"
        ratings.write_text("project,r1,r2,r3\nweb,H,H\n")
        assert run("agreement", "--ratings", ratings, "--report", workdir / "a.json") == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "expected 4 cells" in err[0]

    def test_group_named_overall_exits_two(self, workdir, capsys):
        """Its report would replace the one over every item: percent agreement
        1.000 printed for items that agree 0.500."""
        ratings = workdir / "ratings.csv"
        ratings.write_text("project,r1,r2\noverall,H,H\noverall,L,L\nweb,H,L\nweb,L,H\n")
        report = workdir / "a.json"
        assert run("agreement", "--ratings", ratings, "--report", report) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith('error: group "overall"'), err
        assert captured.out == "" and not report.exists()

    def test_group_column_after_a_rater_exits_two(self, workdir, capsys):
        """Only a leading run of id and group columns is recognised, so
        alice's column is not dropped: the ``g1`` and ``g2`` cells are
        ratings, of an unknown category."""
        ratings = workdir / "ratings.csv"
        ratings.write_text("alice,group,bob,carol\nH,g1,H,H\nL,g2,H,H\nH,g1,L,L\n")
        report = workdir / "a.json"
        assert run("agreement", "--ratings", ratings, "--report", report) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "unknown category 'g1'" in err[0], err
        assert not report.exists()

    def test_header_without_rows_exits_two(self, workdir, capsys):
        ratings = workdir / "ratings.csv"
        ratings.write_text("r1,r2\n")
        assert run("agreement", "--ratings", ratings, "--report", workdir / "a.json") == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0] == "error: no items to rate", err

    def test_ratings_that_are_not_utf8_exit_two(self, workdir, capsys):
        ratings = workdir / "ratings.csv"
        ratings.write_bytes(b"project,r1,r2\nweb,H,\xff\n")
        assert run("agreement", "--ratings", ratings, "--report", workdir / "a.json") == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {ratings}: cannot read ratings file: ")
        assert "'utf-8' codec can't decode byte 0xff" in err[0]


class TestConfig:
    def test_config_seed_used(self, workdir):
        manifest_out = workdir / "f.jsonl"
        assert run("--config", workdir / "config.json", "preprocess",
                   "--in", workdir / "corpus.jsonl", "--out", manifest_out) == 0
        manifest = json.loads((workdir / "f.jsonl.manifest.json").read_text())
        assert manifest["seed"] == 7

    def test_flag_overrides_config_seed(self, workdir):
        out = workdir / "g.jsonl"
        run("--config", workdir / "config.json", "--seed", "99", "preprocess",
            "--in", workdir / "corpus.jsonl", "--out", out)
        manifest = json.loads((workdir / "g.jsonl.manifest.json").read_text())
        assert manifest["seed"] == 99

    def test_deeply_nested_config_exits_one(self, workdir, capsys):
        bad = workdir / "bad.json"
        bad.write_text("[" * 100_000)
        assert run("--config", bad, "preprocess",
                   "--in", workdir / "corpus.jsonl", "--out", workdir / "x.jsonl") == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: config file {bad} is not valid JSON")

    def test_malformed_config_exits_one(self, workdir):
        bad = workdir / "bad.json"
        bad.write_text("{nope")
        assert run("--config", bad, "preprocess",
                   "--in", workdir / "corpus.jsonl", "--out", workdir / "x.jsonl") == 1
