import functools
import random
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_splits as ref
from testkit import make_issue
from issuetriage import evalkit, labelmap, learn
from issuetriage.corpus import Corpus
from issuetriage.evalkit import (
    ModelSpec,
    cross_validate,
    evaluate_cross_project,
    evaluate_project_based,
    feature_importance,
    score,
    train_pipeline,
)


def pairs(counts):
    """(truth, predicted) holding ``counts[t][p]`` pairs of each (t, p)."""
    truth, predicted = [], []
    for t, row in counts.items():
        for p, count in row.items():
            truth += [t] * count
            predicted += [p] * count
    return truth, predicted


class TestConfusionAndMetrics:
    def test_symmetric_matrix(self):
        truth, pred = pairs({"X": {"X": 5, "other": 5}, "other": {"X": 5, "other": 5}})
        report = score(truth, pred, ("X", "other"))
        x = report["per_class"]["X"]
        assert (x["precision"], x["recall"], x["f1"]) == (0.5, 0.5, 0.5)
        assert report["accuracy"] == 0.5

    def test_hand_evaluated_counts(self):
        # TP=6, FP=1, FN=1, TN=4
        truth, pred = pairs({"X": {"X": 6, "other": 1}, "other": {"X": 1, "other": 4}})
        report = score(truth, pred, ("X", "other"))
        x = report["per_class"]["X"]
        assert x["precision"] == pytest.approx(6 / 7)
        assert x["recall"] == pytest.approx(6 / 7)
        assert x["f1"] == pytest.approx(6 / 7)
        assert report["accuracy"] == pytest.approx(10 / 12)

    def test_zero_denominator_flagged(self):
        truth, pred = pairs({"X": {"other": 3}, "other": {"other": 5}})
        report = score(truth, pred, ("X", "other"))
        assert report["per_class"]["X"]["precision"] == 0.0
        assert report["per_class"]["X"]["flags"] == ["zero_division:precision:X",
                                                      "zero_division:f1:X"]
        assert report["flags"] == ["zero_division:precision:X", "zero_division:f1:X"]

    def test_no_pairs_flag_every_ratio(self):
        report = score([], [], ("X",))
        assert report["flags"] == ["zero_division:precision:X", "zero_division:recall:X",
                                   "zero_division:f1:X", "zero_division:accuracy:X",
                                   "zero_division:accuracy"]
        assert (report["accuracy"], report["n"]) == (0.0, 0)

    def test_classes_none_takes_every_label_seen_sorted(self):
        report = score(["b", "c"], ["a", "c"], None)
        assert list(report["per_class"]) == ["a", "b", "c"]
        assert evalkit.macro_f1(["b", "c"], ["a", "c"]) == pytest.approx(1 / 3)

    def test_document_keys_and_metadata(self):
        report = score(["High", "Low"], ["High", "High"], learn.PRIORITY_CLASS_ORDER,
                       fold=2, seed=5)
        assert list(report) == ["accuracy", "n", "per_class", "flags", "metadata"]
        assert list(report["per_class"]["High"]) == ["precision", "recall", "f1",
                                                     "ovr_accuracy", "support", "flags"]
        assert report["metadata"] == {"fold": 2, "seed": 5}

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            score(["a"], [], None)

    def test_oracle_equivalence_on_random_pairs(self):
        rng = random.Random(12)
        classes = ("a", "b", "c")
        for _ in range(100):
            n = rng.randint(1, 40)
            truth = [rng.choice(classes) for _ in range(n)]
            pred = [rng.choice(classes) for _ in range(n)]
            report = score(truth, pred, classes)
            for cls in classes:
                tp = sum(1 for t, p in zip(truth, pred) if t == cls and p == cls)
                fp = sum(1 for t, p in zip(truth, pred) if t != cls and p == cls)
                fn = sum(1 for t, p in zip(truth, pred) if t == cls and p != cls)
                tn = n - tp - fp - fn
                r = report["per_class"][cls]
                assert r["precision"] == (tp / (tp + fp) if tp + fp else 0.0)
                assert r["recall"] == (tp / (tp + fn) if tp + fn else 0.0)
                pr = r["precision"] + r["recall"]
                assert r["f1"] == (2 * r["precision"] * r["recall"] / pr if pr else 0.0)
                assert r["ovr_accuracy"] == (tp + tn) / n
                assert r["support"] == tp + fn
            assert report["accuracy"] == sum(
                1 for t, p in zip(truth, pred) if t == p) / n

    def test_constant_prediction_on_60_40(self):
        truth = ["High"] * 60 + ["Low"] * 40
        report = score(truth, ["High"] * 100, learn.PRIORITY_CLASS_ORDER)
        assert report["accuracy"] == pytest.approx(0.6)


def labels_of(counts):
    """``counts[cls]`` labels of each class, class after class."""
    return [cls for cls, n in counts.items() for _ in range(n)]


@pytest.mark.parametrize("classifier,balancing,read", [
    ("forest", "weights", {"n_trees", "max_depth", "min_leaf", "max_features"}),
    ("forest", "smote", {"n_trees", "max_depth", "min_leaf", "max_features", "smote_k"}),
    ("logreg", "none", {"lr", "l2", "epochs"}),
    ("nb", "weights", {"alpha"}),
    ("knn", "smote", {"k", "smote_k"}),
])
def test_hyperparams_read(classifier, balancing, read):
    spec = ModelSpec(classifier=classifier, balancing=balancing)
    assert evalkit.hyperparams_read(spec) == read


class TestProjectSplit:
    def test_exact_divisibility(self):
        labels = labels_of({"hp": 50, "lp": 50})
        train, test = evalkit.project_split(labels, seed=1)
        assert Counter(labels[i] for i in train) == {"hp": 40, "lp": 40}
        assert len(test) == 20

    def test_small_split_within_one(self):
        labels = labels_of({"hp": 7, "lp": 3})
        train, _ = evalkit.project_split(labels, seed=3)
        counts = Counter(labels[i] for i in train)
        assert abs(counts["hp"] - 5.6) <= 1
        assert abs(counts["lp"] - 2.4) <= 1

    def test_determinism(self):
        labels = labels_of({"hp": 13, "lp": 9})
        a = evalkit.project_split(labels, seed=42)
        b = evalkit.project_split(labels, seed=42)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_partition_properties_random(self):
        rng = random.Random(7)
        for trial in range(100):
            counts = {"hp": rng.randint(2, 30), "lp": rng.randint(2, 30)}
            labels = labels_of(counts)
            train, test = evalkit.project_split(labels, seed=trial)
            assert list(train) == sorted(train) and list(test) == sorted(test)
            assert not set(train) & set(test)
            assert set(train) | set(test) == set(range(len(labels)))
            got = Counter(labels[i] for i in train)
            for cls, total in counts.items():
                assert abs(got[cls] - total * evalkit.TRAIN_SHARE) <= 1

    def test_lone_member_goes_to_training(self):
        labels = ["common"] * 5 + ["rare"] + ["common"] * 5
        train, test = evalkit.project_split(labels, seed=0)
        assert 5 in train and 5 not in test


class TestFolds:
    def test_every_index_in_exactly_one_test_side(self):
        labels = ["a"] * 13 + ["b"] * 7
        folds = list(evalkit._folds(labels, 4, seed=3))
        assert [fold_no for fold_no, _, _ in folds] == [0, 1, 2, 3]
        assert sorted(i for _, _, test in folds for i in test) == list(range(20))
        for _, train, test in folds:
            assert sorted([*train, *test]) == list(range(20))

    def test_class_spread(self):
        labels = ["a"] * 12 + ["b"] * 8
        for _, _, test in evalkit._folds(labels, 4, seed=1):
            assert Counter(labels[i] for i in test) == {"a": 3, "b": 2}

    def test_determinism(self):
        labels = ["a", "b"] * 10
        f1, f2 = (list(evalkit._folds(labels, 5, seed=9)) for _ in range(2))
        assert all(n1 == n2 and np.array_equal(tr1, tr2) and np.array_equal(te1, te2)
                   for (n1, tr1, te1), (n2, tr2, te2) in zip(f1, f2))

    def test_unusable_folds_are_skipped(self):
        # one "b": the fold whose test side holds it trains on "a" alone
        labels = ["a"] * 6 + ["b"]
        folds = list(evalkit._folds(labels, 3, seed=0))
        assert len(folds) == 2
        assert all(6 in train for _, train, _ in folds)

    def test_k_below_two(self):
        with pytest.raises(ValueError, match="k must be >= 2"):
            list(evalkit._folds(["a", "b"], 1, seed=0))


# label lists of up to three classes, in any order
label_lists = st.lists(st.sampled_from(["High", "Low", "Mid"]), max_size=40)


@settings(max_examples=200, deadline=None)
@given(labels=label_lists, seed=st.integers(0, 2 ** 32 - 1))
def test_project_split_matches_the_corpus_split_it_replaced(labels, seed):
    corpus = Corpus(tuple(make_issue(id=str(i), labels=(label,))
                          for i, label in enumerate(labels)))
    old = ref.stratified_split(corpus, lambda issue: issue.labels[0],
                               evalkit.TRAIN_SHARE, seed)
    train, test = evalkit.project_split(labels, seed)
    assert [[int(i.id) for i in side.issues] for side in old] == [list(train), list(test)]


@settings(max_examples=200, deadline=None)
@given(labels=label_lists, k=st.integers(2, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_folds_match_the_fold_assignment_they_replaced(labels, k, seed):
    everything = np.arange(len(labels))
    usable = [(fold_no, np.setdiff1d(everything, test), test)
              for fold_no, test in enumerate(ref.stratified_kfold_indices(labels, k, seed))
              if test.size and len({labels[i] for i in np.setdiff1d(everything, test)}) >= 2]
    folds = list(evalkit._folds(labels, k, seed))
    assert len(folds) == len(usable)
    for (n1, tr1, te1), (n2, tr2, te2) in zip(folds, usable):
        assert n1 == n2 and np.array_equal(tr1, tr2) and np.array_equal(te1, te2)


def memorizable_corpus():
    """Two repeated issue templates, one per priority class."""
    issues = []
    for i in range(9):
        issues.append(make_issue(
            id=f"h{i}", title="Cluster is down after deploy",
            description="The whole cluster is down and customers are blocked.",
            labels=("p1",), n_events=8, followers=200))
        issues.append(make_issue(
            id=f"l{i}", title="Typo in the readme file",
            description="Small typo in the readme, cosmetic only.",
            labels=("p3",), n_events=1, followers=3))
    return Corpus(issues=tuple(issues))


class TestCrossValidate:
    def test_memorizable_data_scores_one(self, maps):
        spec = ModelSpec(classifier="knn", balancing="none", stage1="uniform",
                         hyperparams={"k": 1}, seed=0)
        result = cross_validate(memorizable_corpus(), spec, 3, maps)
        assert result["mean"]["accuracy"] == pytest.approx(1.0)

    def test_same_seed_same_folds(self, maps):
        spec = ModelSpec(classifier="knn", balancing="none", stage1="uniform",
                         hyperparams={"k": 1}, seed=4)
        r1 = cross_validate(memorizable_corpus(), spec, 3, maps)
        r2 = cross_validate(memorizable_corpus(), spec, 3, maps)
        assert r1["folds"] == r2["folds"]

    def test_k_too_small(self, maps):
        with pytest.raises(ValueError):
            cross_validate(memorizable_corpus(), ModelSpec(), 1, maps)


class ConstantModel:
    def predict(self, X):
        return ["High"] * len(X)


def stub_fit_classifier(spec, X, labels):
    """Config ``magic`` 7 memorizes the training rows; any other predicts High."""
    if spec.hyperparams["magic"] == 7:
        return learn.fit_knn(X, labels, k=1, classes=learn.PRIORITY_CLASS_ORDER)
    return ConstantModel()


class TestTuneHyperparams:
    SPEC = ModelSpec(classifier="knn", balancing="none", stage1="uniform")

    @pytest.fixture(autouse=True)
    def stub_classifier(self, monkeypatch):
        monkeypatch.setattr(evalkit, "fit_classifier", stub_fit_classifier)

    def tune(self, space, budget, cv_folds, seed, maps):
        return evalkit.tune_hyperparams(memorizable_corpus().issues,
                                        replace(self.SPEC, seed=seed), maps,
                                        space, budget=budget, cv_folds=cv_folds,
                                        objective="accuracy", probs_file=None)

    def test_budget_one_returns_single_config(self, maps):
        best, trace = self.tune({"magic": [3]}, 1, 2, 0, maps)
        assert best == {"magic": 3}
        assert len(trace) == 1

    def test_planted_optimum_selected(self, maps):
        best, trace = self.tune({"magic": [1, 3, 5, 7]}, 16, 3, 2, maps)
        assert any(t["config"]["magic"] == 7 for t in trace)
        assert best == {"magic": 7}
        assert max(t["mean_score"] for t in trace) == pytest.approx(1.0)

    def test_same_seed_identical_trace(self, maps):
        space = {"magic": [1, 7], "extra": {"low": 1, "high": 9}}
        _, t1 = self.tune(space, 6, 2, 5, maps)
        _, t2 = self.tune(space, 6, 2, 5, maps)
        assert t1 == t2
        rng = np.random.default_rng(5)
        assert [t["config"] for t in t1] == [learn.sample_config(space, rng)
                                             for _ in range(6)]

    def test_bad_budget(self, maps):
        with pytest.raises(ValueError):
            self.tune({}, 0, 2, 0, maps)


def test_tune_fits_a_repeated_config_once_per_fold(monkeypatch, maps):
    fit, fits = learn.fit_knn, []

    @functools.wraps(fit)
    def counting_fit(X, labels, **options):
        fits.append(len(labels))
        return fit(X, labels, **options)

    monkeypatch.setattr(learn, "fit_knn", counting_fit)
    spec = ModelSpec(classifier="knn", balancing="none", stage1="uniform")
    _, trace = evalkit.tune_hyperparams(memorizable_corpus().issues, spec, maps,
                                        {"magic": [3]}, budget=4, cv_folds=2,
                                        objective="accuracy", probs_file=None)
    assert len(fits) == 2  # one per fold, where each of the four draws was fit
    assert [t["config"] for t in trace] == [{"magic": 3}] * 4
    assert len(trace[0]["fold_scores"]) == 2
    assert all(t["fold_scores"] == trace[0]["fold_scores"] for t in trace)


class TestNoLeak:
    def test_held_out_vocabulary_never_enters_fit(self, maps):
        train = [make_issue(id="t1", title="parser bug crash",
                            description="the parser crashes on load", labels=("p1",)),
                 make_issue(id="t2", title="minor doc typo",
                            description="readme has a typo", labels=("p3",))]
        held_out = make_issue(id="h", title="zeppelin quixotic",
                              description="bazinga frobnicate xylophone",
                              labels=("p1",))
        bundle = train_pipeline(train, ModelSpec(stage1="uniform", balancing="none",
                                                 classifier="knn"), maps)
        vocab = set(bundle.feature_pipeline.tfidf_title.vocabulary) | set(
            bundle.feature_pipeline.tfidf_desc.vocabulary)
        for term in ("zeppelin", "quixotic", "bazinga", "frobnicate", "xylophone"):
            assert term not in vocab
        # scoring the held-out issue must not mutate fitted assets
        before = bundle.feature_pipeline.fingerprints()
        bundle.predict([held_out])
        assert bundle.feature_pipeline.fingerprints() == before

    def test_fold_pipelines_have_distinct_fingerprints(self, planted_corpus, maps):
        issues = [i for i in planted_corpus.issues if i.repo == "acme/engine"]
        spec = ModelSpec(classifier="knn", balancing="none", stage1="uniform",
                         hyperparams={"k": 3})
        labels = [labelmap.priority_of(i.labels, maps.priority).value for i in issues]
        fingerprints = []
        for _, train_idx, _ in evalkit._folds(labels, 3, seed=2):
            bundle = train_pipeline([issues[i] for i in train_idx], spec, maps)
            fingerprints.append(bundle.feature_pipeline.fingerprints()["tfidf_desc"])
        assert len(set(fingerprints)) == len(fingerprints) == 3


@pytest.fixture(scope="module")
def result(planted_corpus, maps):
    spec = ModelSpec(seed=3, hyperparams={"n_trees": 40, "max_features": 128})
    return evaluate_project_based(planted_corpus, spec, maps)


class TestProjectBased:
    def test_one_report_per_repo(self, result, planted_corpus):
        assert sorted(result["per_repo"]) == planted_corpus.repos()
        assert not result["skipped"]

    def test_beats_majority_in_every_repo(self, result, planted_corpus, maps):
        for repo, report in result["per_repo"].items():
            supports = [r["support"] for r in report["per_class"].values()]
            majority = max(supports) / sum(supports)
            assert report["accuracy"] >= majority, repo

    def test_summary_quartiles_present(self, result):
        assert set(result["summary"]["accuracy"]) == {"min", "q1", "median", "q3", "max"}
        assert 0 <= result["summary"]["accuracy"]["min"] <= \
            result["summary"]["accuracy"]["max"] <= 1

    def test_both_aggregations_emitted(self, result):
        assert "mean_of_repo_accuracies" in result["aggregate"]
        assert "pooled_micro_accuracy" in result["aggregate"]

    def test_underpopulated_repo_skipped(self, planted_corpus, maps):
        extra = [make_issue(id=f"tiny{i}", repo="tiny/repo", labels=("p1",))
                 for i in range(3)]
        corpus = Corpus(issues=planted_corpus.issues[:60] + tuple(extra))
        spec = ModelSpec(seed=1, hyperparams={"n_trees": 10})
        result = evaluate_project_based(corpus, spec, maps)
        assert "tiny/repo" in result["skipped"]

    def test_repo_with_two_issues_of_a_class_is_evaluated(self, maps):
        issues = [make_issue(id=f"pair{i}", repo="pair/repo", title=f"Parser fails on input {i}",
                             labels=("p1" if i < 2 else "p3",), followers=i * 30)
                  for i in range(7)]
        result = evaluate_project_based(Corpus(tuple(issues)),
                                        ModelSpec(seed=1, hyperparams={"n_trees": 10}), maps)
        assert list(result["per_repo"]) == ["pair/repo"] and not result["skipped"]

    def test_median_of_two_repos_is_their_mean(self, planted_corpus, maps):
        repos = ["acme/engine", "blue/notifier"]
        corpus = Corpus(tuple(i for i in planted_corpus.issues if i.repo in repos))
        result = evaluate_project_based(corpus, ModelSpec(seed=1, hyperparams={"n_trees": 10}),
                                        maps)
        first, second = (result["per_repo"][repo]["accuracy"] for repo in repos)
        assert first != second
        assert result["summary"]["accuracy"]["median"] == pytest.approx((first + second) / 2)

    def test_no_evaluable_repo_is_an_error(self, planted_corpus, maps):
        issues = [i for i in planted_corpus.issues if i.repo == "acme/engine"][:3]
        with pytest.raises(learn.TrainingError, match=r"evaluated \(1 skipped\)"):
            evaluate_project_based(Corpus(tuple(issues)), ModelSpec(), maps)

    def test_single_repo_corpus(self, planted_corpus, maps):
        issues = [i for i in planted_corpus.issues if i.repo == "acme/engine"]
        spec = ModelSpec(seed=1, hyperparams={"n_trees": 10})
        result = evaluate_project_based(Corpus(tuple(issues)), spec, maps)
        assert list(result["per_repo"]) == ["acme/engine"]


class TestCrossProject:
    def test_five_repos_split_four_one(self, planted_corpus, maps):
        extra = [make_issue(id=f"x{i}", repo="extra/repo",
                            labels=("p1" if i % 2 else "p3",), followers=i * 30,
                            n_events=i)
                 for i in range(10)]
        corpus = Corpus(issues=planted_corpus.issues + tuple(extra))
        spec = ModelSpec(seed=2, hyperparams={"n_trees": 10})
        report = evaluate_cross_project(corpus, spec, maps)
        assert len(report["metadata"]["train_repos"]) == 4
        assert len(report["metadata"]["test_repos"]) == 1

    def test_repo_disjointness(self, planted_corpus, maps):
        for seed in range(5):
            train, test = evalkit.split_repos(planted_corpus.repos(), seed)
            assert not set(train) & set(test)
            assert sorted(train + test) == planted_corpus.repos()

    @pytest.mark.parametrize("repo", ["acme/engine", None], ids=["one-repo", "empty"])
    def test_needs_two_repos(self, planted_corpus, maps, repo):
        issues = [i for i in planted_corpus.issues if i.repo == repo]
        with pytest.raises(learn.TrainingError, match="at least two repositories"):
            evaluate_cross_project(Corpus(tuple(issues)), ModelSpec(), maps)


class TestFeatureImportance:
    def test_single_feature_forest_scores_one(self):
        X = np.hstack([np.linspace(0, 1, 20)[:, None], np.full((20, 1), 3.0)])
        y = ["a" if v < 0.5 else "b" for v in X[:, 0]]
        forest = learn.fit_random_forest(X, y, n_trees=5, max_features="sqrt", seed=0)
        report = feature_importance(forest, ["signal", "constant"])
        assert report["importances"]["signal"] == pytest.approx(1.0)
        assert report["ranked"][0][0] == "signal"

    def test_signal_outranks_noise(self):
        rng = np.random.default_rng(6)
        signal = rng.uniform(size=100)
        noise = rng.normal(size=(100, 5))
        X = np.hstack([noise[:, :2], signal[:, None], noise[:, 2:]])
        y = ["hi" if s > 0.5 else "lo" for s in signal]
        forest = learn.fit_random_forest(X, y, n_trees=20, seed=1)
        report = feature_importance(forest)
        assert report["ranked"][0][0] == "f2"

    def test_scores_sum_to_one(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(60, 8))
        y = ["a" if r[0] + r[3] > 0 else "b" for r in X]
        forest = learn.fit_random_forest(X, y, n_trees=12, seed=3)
        report = feature_importance(forest)
        scores = list(report["importances"].values())
        assert sum(scores) == pytest.approx(1.0, abs=1e-9)
        assert min(scores) >= 0
        assert [value for _, value in report["ranked"]] == sorted(scores, reverse=True)

    def test_non_forest_rejected(self):
        knn = learn.fit_knn(np.array([[0.0], [1.0]]), ["a", "b"])
        with pytest.raises(learn.TrainingError):
            feature_importance(knn)


class TestPipelineStages:
    def test_stage1_internal_trains_nb(self, planted_corpus, maps):
        issues = list(planted_corpus.issues[:60])
        bundle = train_pipeline(issues, ModelSpec(classifier="knn",
                                                  hyperparams={"k": 3}), maps)
        assert bundle.stage1_model is not None
        assert bundle.stage1_model.kind == "nb"
        probs = bundle.objective_probs(issues[0])
        assert probs.shape == (3,)
        assert probs.sum() == pytest.approx(1.0)

    def test_stage1_file_probs_take_precedence(self, planted_corpus, maps):
        issues = list(planted_corpus.issues[:40])
        table = {issues[0].id: np.array([0.8, 0.1, 0.1])}
        bundle = train_pipeline(issues, ModelSpec(classifier="knn",
                                                  hyperparams={"k": 3}), maps,
                                probs_file=table)
        assert bundle.probs_file is table and bundle.stage1_model is None
        assert np.allclose(bundle.objective_probs(issues[0]), [0.8, 0.1, 0.1])
        # issues absent from the file fall back to uniform
        assert np.allclose(bundle.objective_probs(issues[1]), 1 / 3)

    def test_smote_balancing_trains(self, planted_corpus, maps):
        issues = list(planted_corpus.issues[:50])
        bundle = train_pipeline(issues, ModelSpec(classifier="knn", balancing="smote",
                                                  hyperparams={"k": 3}, seed=1), maps)
        predicted, probs = bundle.predict(issues[:5])
        assert len(predicted) == 5
        assert np.allclose(probs.sum(axis=1), 1.0)

    def test_predict_on_no_issues_gives_no_rows(self, planted_corpus, maps):
        bundle = train_pipeline(list(planted_corpus.issues[:40]),
                                ModelSpec(classifier="knn", hyperparams={"k": 3}), maps)
        labels, probs = bundle.predict([])
        assert labels == [] and probs.shape == (0, 2)

    def test_unlabeled_issue_rejected(self, maps):
        with pytest.raises(learn.TrainingError, match="priority"):
            train_pipeline([make_issue(labels=("bug",))], ModelSpec(), maps)


class TestSparseFeatureMatrix:
    """``vectorize`` gives ``SparseRows``, and every learner fits and predicts
    the same from them as from the dense X."""

    @pytest.fixture(scope="class")
    def vectorized(self, planted_corpus, maps):
        issues, labels = evalkit.labeled_issues(planted_corpus.issues[:80], maps)
        bundle = evalkit.fit_preprocessing(issues, ModelSpec(), maps)
        return bundle, issues, labels

    def test_rows_are_the_assembled_vectors(self, vectorized):
        bundle, issues, _ = vectorized
        X = bundle.vectorize(issues)
        assert isinstance(X, learn.SparseRows)
        assert X.shape == (len(issues), bundle.feature_pipeline.width)
        # row order, and ascending columns within a row
        assert np.all(np.diff(X.row_ids() * np.int64(X.shape[1]) + X.cols) > 0)
        want = np.vstack([bundle.feature_pipeline.assemble([i], [bundle.objective_probs(i)])
                          .to_dense() for i in issues])
        assert np.array_equal(X.to_dense(), want)
        assert int((X != 0).sum()) == np.count_nonzero(want)

    @pytest.mark.parametrize("spec", [
        ModelSpec(classifier="nb"),
        ModelSpec(classifier="logreg", hyperparams={"epochs": 20}),
        ModelSpec(classifier="knn", hyperparams={"k": 3}),
        ModelSpec(hyperparams={"n_trees": 5, "max_depth": 6}),
        ModelSpec(balancing="smote", hyperparams={"n_trees": 5, "max_depth": 6}),
    ], ids=["nb", "logreg", "knn", "forest", "forest-smote"])
    def test_every_learner_is_the_same_from_dense_and_sparse(self, vectorized, spec):
        bundle, issues, labels = vectorized
        X = bundle.vectorize(issues)
        dense = X.to_dense()
        from_dense, from_sparse = (evalkit.fit_classifier(spec, M, labels) for M in (dense, X))
        assert from_sparse.fingerprint() == from_dense.fingerprint()
        assert from_sparse.metadata == from_dense.metadata
        want = from_dense.predict_proba(dense).tobytes()
        for model in (from_dense, from_sparse):
            for M in (dense, X):
                assert model.predict_proba(M).tobytes() == want

    def test_x_and_the_memo_columns_are_compact(self, planted_corpus, maps):
        """On the planted fixture, X holds 8 bytes per row (plus one) and 12
        per non-zero, and both TF-IDF memos keep their columns as int32: the
        fit's block and every entry."""
        issues, _ = evalkit.labeled_issues(planted_corpus.issues, maps)
        bundle = evalkit.fit_preprocessing(issues, ModelSpec(), maps)
        X = bundle.vectorize(planted_corpus.issues)
        n, nnz = len(planted_corpus.issues), int((X != 0).sum())
        assert X.nbytes == 8 * (n + 1) + 12 * nnz
        pipeline = bundle.feature_pipeline
        for model in (pipeline.tfidf_title, pipeline.tfidf_desc):
            blocks = {id(cols.base): cols.base for cols, _ in model.memo.values()
                      if cols.base is not None}
            assert blocks and all(block.dtype == np.int32 for block in blocks.values())
            assert all(cols.dtype == np.int32 for cols, _ in model.memo.values())

    def test_vectorize_and_forest_fit_build_no_dense_matrix(self, maps):
        """About 400 issues x 20k columns: ``vectorize`` and the forest fit
        together peak below a tenth of the bytes of the dense X."""
        rng = random.Random(3)
        syllables = [c + v for c in "bdfgklmnprtvz" for v in "aeiou"]
        pool = sorted({"".join(rng.choices(syllables, k=3)) for _ in range(12_000)})
        issues = [make_issue(id=f"i{n}", title=" ".join(rng.choices(pool, k=5)),
                             description=" ".join(rng.choices(pool, k=50)),
                             labels=("p1", "bug") if n % 2 else ("p3", "enhancement"))
                  for n in range(400)]
        spec = ModelSpec(hyperparams={"n_trees": 5, "max_depth": 8})
        issues, labels = evalkit.labeled_issues(issues, maps)
        bundle = evalkit.fit_preprocessing(issues, spec, maps)
        dense_bytes = len(issues) * bundle.feature_pipeline.width * 8
        assert len(issues) == 400 and bundle.feature_pipeline.width > 20_000
        tracemalloc.start()
        try:
            model = evalkit.fit_classifier(spec, bundle.vectorize(issues), labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.kind == "forest" and model.params["n_features"] == bundle.feature_pipeline.width
        assert peak < 0.1 * dense_bytes, (peak, dense_bytes)
