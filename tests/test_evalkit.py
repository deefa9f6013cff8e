import random
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_issue
from issuetriage import evalkit, labelmap, learn
from issuetriage.corpus import Corpus, subset
from issuetriage.evalkit import (
    ConfusionMatrix,
    ModelSpec,
    cross_validate,
    evaluate_cross_project,
    evaluate_predictions,
    evaluate_project_based,
    feature_importance,
    metrics,
    train_pipeline,
)


class TestConfusionAndMetrics:
    def test_symmetric_matrix(self):
        cm = ConfusionMatrix(("X", "other"), np.array([[5, 5], [5, 5]]))
        report = metrics(cm)
        x = report.per_class["X"]
        assert (x.precision, x.recall, x.f1) == (0.5, 0.5, 0.5)
        assert report.accuracy == 0.5

    def test_hand_evaluated_counts(self):
        # TP=6, FP=1, FN=1, TN=4
        cm = ConfusionMatrix(("X", "other"), np.array([[6, 1], [1, 4]]))
        report = metrics(cm)
        x = report.per_class["X"]
        assert x.precision == pytest.approx(6 / 7)
        assert x.recall == pytest.approx(6 / 7)
        assert x.f1 == pytest.approx(6 / 7)
        assert report.accuracy == pytest.approx(10 / 12)

    def test_zero_denominator_flagged(self):
        cm = ConfusionMatrix(("X", "other"), np.array([[0, 3], [0, 5]]))
        report = metrics(cm)
        assert report.per_class["X"].precision == 0.0
        assert any(f.startswith("zero_division:precision:X") for f in report.flags)

    def test_oracle_equivalence_on_random_pairs(self):
        rng = random.Random(12)
        classes = ("a", "b", "c")
        for _ in range(100):
            n = rng.randint(1, 40)
            truth = [rng.choice(classes) for _ in range(n)]
            pred = [rng.choice(classes) for _ in range(n)]
            report = metrics(ConfusionMatrix.from_pairs(truth, pred, classes))
            for cls in classes:
                tp = sum(1 for t, p in zip(truth, pred) if t == cls and p == cls)
                fp = sum(1 for t, p in zip(truth, pred) if t != cls and p == cls)
                fn = sum(1 for t, p in zip(truth, pred) if t == cls and p != cls)
                tn = n - tp - fp - fn
                r = report.per_class[cls]
                assert r.precision == (tp / (tp + fp) if tp + fp else 0.0)
                assert r.recall == (tp / (tp + fn) if tp + fn else 0.0)
                pr = r.precision + r.recall
                assert r.f1 == (2 * r.precision * r.recall / pr if pr else 0.0)
                assert r.ovr_accuracy == (tp + tn) / n
            assert report.accuracy == sum(
                1 for t, p in zip(truth, pred) if t == p) / n

    def test_constant_prediction_on_60_40(self):
        truth = ["High"] * 60 + ["Low"] * 40
        report = evaluate_predictions(truth, ["High"] * 100)
        assert report.accuracy == pytest.approx(0.6)


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
    def test_memorizable_data_scores_one(self):
        spec = ModelSpec(classifier="knn", balancing="none", stage1="uniform",
                         hyperparams={"k": 1}, seed=0)
        result = cross_validate(memorizable_corpus(), spec, k=3, seed=0)
        assert result.mean["accuracy"] == pytest.approx(1.0)

    def test_same_seed_same_folds(self):
        spec = ModelSpec(classifier="knn", balancing="none", stage1="uniform",
                         hyperparams={"k": 1}, seed=4)
        r1 = cross_validate(memorizable_corpus(), spec, k=3, seed=4)
        r2 = cross_validate(memorizable_corpus(), spec, k=3, seed=4)
        assert [f.as_dict() for f in r1.fold_reports] == \
            [f.as_dict() for f in r2.fold_reports]

    def test_k_too_small(self):
        with pytest.raises(ValueError):
            cross_validate(memorizable_corpus(), ModelSpec(), k=1, seed=0)


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
                                        space, budget=budget, cv_folds=cv_folds)

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
        space = {"magic": [1, 7], "extra": (1, 9)}
        _, t1 = self.tune(space, 6, 2, 5, maps)
        _, t2 = self.tune(space, 6, 2, 5, maps)
        assert t1 == t2
        rng = np.random.default_rng(5)
        assert [t["config"] for t in t1] == [learn.sample_config(space, rng)
                                             for _ in range(6)]

    def test_bad_budget(self, maps):
        with pytest.raises(ValueError):
            self.tune({}, 0, 2, 0, maps)


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
        folds = learn.stratified_kfold_indices(labels, 3, seed=2)
        fingerprints = []
        for test_idx in folds:
            train_issues = [issues[i] for i in range(len(issues))
                            if i not in set(test_idx.tolist())]
            bundle = train_pipeline(train_issues, spec, maps)
            fingerprints.append(bundle.feature_pipeline.fingerprints()["tfidf_desc"])
        assert len(set(fingerprints)) == len(fingerprints)


@pytest.fixture(scope="module")
def result(planted_corpus, maps):
    spec = ModelSpec(seed=3, hyperparams={"n_trees": 40, "max_features": 128})
    return evaluate_project_based(planted_corpus, spec, maps=maps)


class TestProjectBased:
    def test_one_report_per_repo(self, result, planted_corpus):
        assert sorted(result.per_repo) == planted_corpus.repos()
        assert not result.skipped

    def test_beats_majority_in_every_repo(self, result, planted_corpus, maps):
        for repo, report in result.per_repo.items():
            supports = [r.support for r in report.per_class.values()]
            majority = max(supports) / sum(supports)
            assert report.accuracy >= majority, repo

    def test_summary_quartiles_present(self, result):
        assert set(result.summary["accuracy"]) == {"min", "q1", "median", "q3", "max"}
        assert 0 <= result.summary["accuracy"]["min"] <= \
            result.summary["accuracy"]["max"] <= 1

    def test_both_aggregations_emitted(self, result):
        doc = result.as_dict()
        assert "mean_of_repo_accuracies" in doc["aggregate"]
        assert "pooled_micro_accuracy" in doc["aggregate"]

    def test_underpopulated_repo_skipped(self, planted_corpus, maps):
        extra = [make_issue(id=f"tiny{i}", repo="tiny/repo", labels=("p1",))
                 for i in range(3)]
        corpus = Corpus(issues=planted_corpus.issues[:60] + tuple(extra))
        spec = ModelSpec(seed=1, hyperparams={"n_trees": 10})
        result = evaluate_project_based(corpus, spec, maps=maps)
        assert "tiny/repo" in result.skipped

    def test_single_repo_corpus(self, planted_corpus, maps):
        issues = [i for i in planted_corpus.issues if i.repo == "acme/engine"]
        spec = ModelSpec(seed=1, hyperparams={"n_trees": 10})
        result = evaluate_project_based(subset(planted_corpus, issues), spec, maps=maps)
        assert list(result.per_repo) == ["acme/engine"]


class TestCrossProject:
    def test_five_repos_split_four_one(self, planted_corpus, maps):
        extra = [make_issue(id=f"x{i}", repo="extra/repo",
                            labels=("p1" if i % 2 else "p3",), followers=i * 30,
                            n_events=i)
                 for i in range(10)]
        corpus = Corpus(issues=planted_corpus.issues + tuple(extra))
        spec = ModelSpec(seed=2, hyperparams={"n_trees": 10})
        report = evaluate_cross_project(corpus, spec, seed=2, maps=maps)
        assert len(report.metadata["train_repos"]) == 4
        assert len(report.metadata["test_repos"]) == 1

    def test_repo_disjointness(self, planted_corpus, maps):
        for seed in range(5):
            train, test = evalkit.split_repos(planted_corpus.repos(), 0.8, seed)
            assert not set(train) & set(test)
            assert sorted(train + test) == planted_corpus.repos()

    def test_needs_two_repos(self, planted_corpus, maps):
        issues = [i for i in planted_corpus.issues if i.repo == "acme/engine"]
        with pytest.raises(ValueError):
            evaluate_cross_project(subset(planted_corpus, issues),
                                   ModelSpec(), seed=0, maps=maps)


class TestFeatureImportance:
    def test_single_feature_forest_scores_one(self):
        X = np.hstack([np.linspace(0, 1, 20)[:, None], np.full((20, 1), 3.0)])
        y = ["a" if v < 0.5 else "b" for v in X[:, 0]]
        forest = learn.fit_random_forest(X, y, n_trees=5, max_features=None, seed=0)
        report = feature_importance(forest, ["signal", "constant"])
        assert report.scores[0] == pytest.approx(1.0)
        assert report.ranked()[0][0] == "signal"

    def test_signal_outranks_noise(self):
        rng = np.random.default_rng(6)
        signal = rng.uniform(size=100)
        noise = rng.normal(size=(100, 5))
        X = np.hstack([noise[:, :2], signal[:, None], noise[:, 2:]])
        y = ["hi" if s > 0.5 else "lo" for s in signal]
        forest = learn.fit_random_forest(X, y, n_trees=20, seed=1)
        report = feature_importance(forest)
        assert report.ranked()[0][0] == "f2"

    def test_scores_sum_to_one(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(60, 8))
        y = ["a" if r[0] + r[3] > 0 else "b" for r in X]
        forest = learn.fit_random_forest(X, y, n_trees=12, seed=3)
        report = feature_importance(forest)
        assert report.scores.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(report.scores >= 0)

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
        assert np.allclose(bundle.objective_probs(issues[0], table),
                           [0.8, 0.1, 0.1])
        # issues absent from the file fall back to uniform
        assert np.allclose(bundle.objective_probs(issues[1], table), 1 / 3)

    def test_smote_balancing_trains(self, planted_corpus, maps):
        issues = list(planted_corpus.issues[:50])
        bundle = train_pipeline(issues, ModelSpec(classifier="knn", balancing="smote",
                                                  hyperparams={"k": 3}, seed=1), maps)
        predicted, probs = bundle.predict(issues[:5])
        assert len(predicted) == 5
        assert np.allclose(probs.sum(axis=1), 1.0)

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
        assert np.all(np.diff(X.rows * X.shape[1] + X.cols) > 0)
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
