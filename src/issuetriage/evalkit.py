"""Evaluation: metrics, splits, cross-validation, experiment drivers, importance.

Also home of the end-to-end priority pipeline glue (fit preprocessing,
resolve stage-one objective probabilities, train, predict) shared by the
experiment drivers and the CLI. Every protocol trains and scores through
``holdout``, and k-fold CV and ``--tune`` share one fold loop, ``_folds``.
Every train/test split lives here. ``project_split`` and ``_folds`` take
the labels that ``labeled_issues`` returns and give index arrays into them,
each in input order; ``split_repos`` splits repository names.
Every protocol takes its seed from the spec (``ModelSpec.seed``). Each
report is a plain dict, built once where it is computed: ``score`` builds a
split's, and ``holdout`` and the cv, project and cross-project drivers
return the document that ``evaluate`` writes.
Preprocessing and stage one are refit inside each fold or split on its
training side only; held-out issues never influence the vocabulary, the
idf, the scaler, the stage-one model or the tuned hyperparameters.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import features, labelmap, learn
from .corpus import Corpus, IssueRecord, SettingError
from .features import FeaturePipeline, fit_feature_pipeline
from .labelmap import LabelMaps
from .learn import TrainedModel, TrainingError

UNIFORM_OBJECTIVE_PROBS = np.full(len(learn.OBJECTIVE_CLASS_ORDER),
                                  1.0 / len(learn.OBJECTIVE_CLASS_ORDER))
TRAIN_SHARE = 0.8  # of a repo's issues in project mode, of the repos in cross-project


# ---------------------------------------------------------------------------
# Metrics

def score(truth: Sequence[str], predicted: Sequence[str], classes: Sequence[str] | None,
          **metadata) -> dict:
    """The report document of ``predicted`` against ``truth``: accuracy, n,
    and per class of ``classes`` (None: every label seen, sorted) the
    one-vs-rest precision, recall, F1, accuracy and support. A zero
    denominator scores 0 and adds a ``zero_division:`` flag to the class and
    to the report instead of dividing; ``metadata`` is carried as given."""
    if len(truth) != len(predicted):
        raise ValueError("truth/prediction length mismatch")
    n, pairs = len(truth), Counter(zip(truth, predicted))

    def ratio(num: float, den: float, flags: list[str], label: str) -> float:
        if den == 0:
            flags.append(f"zero_division:{label}")
            return 0.0
        return num / den

    per_class, report_flags = {}, []
    for cls in classes or sorted(set(truth) | set(predicted)):
        tp = pairs[cls, cls]
        fp = sum(count for (_, p), count in pairs.items() if p == cls) - tp
        fn = sum(count for (t, _), count in pairs.items() if t == cls) - tp
        flags: list[str] = []
        precision = ratio(tp, tp + fp, flags, f"precision:{cls}")
        recall = ratio(tp, tp + fn, flags, f"recall:{cls}")
        per_class[cls] = {
            "precision": precision, "recall": recall,
            "f1": ratio(2 * precision * recall, precision + recall, flags, f"f1:{cls}"),
            "ovr_accuracy": ratio(n - fp - fn, n, flags, f"accuracy:{cls}"),
            "support": tp + fn, "flags": flags}
        report_flags.extend(flags)
    accuracy = ratio(sum(pairs[cls, cls] for cls in per_class), n, report_flags, "accuracy")
    return {"accuracy": accuracy, "n": n, "per_class": per_class, "flags": report_flags,
            "metadata": metadata}


def accuracy(truth: Sequence[str], predicted: Sequence[str]) -> float:
    return float(np.mean([t == p for t, p in zip(truth, predicted)]))


def macro_f1(truth: Sequence[str], predicted: Sequence[str]) -> float:
    return float(np.mean([r["f1"] for r in score(truth, predicted, None)["per_class"].values()]))


# ``--tune-metric`` name -> the metric ``tune_hyperparams`` maximizes
TUNE_METRICS = {"accuracy": accuracy, "macro-f1": macro_f1}
# the per-class scores that the cv and project summaries and the CSV carry
CLASS_METRICS = ("precision", "recall", "f1")


def report_metrics(report: dict) -> dict[str, float]:
    """A report document's accuracy and each priority class's
    ``CLASS_METRICS``, keyed ``accuracy`` and ``metric:class``, class by class."""
    values = {"accuracy": report["accuracy"]}
    for cls in learn.PRIORITY_CLASS_ORDER:
        values.update((f"{name}:{cls}", report["per_class"][cls][name]) for name in CLASS_METRICS)
    return values


# ---------------------------------------------------------------------------
# Model specification and the fitted pipeline bundle

BALANCING = ("weights", "smote", "none")
# the stage-one objective model; an objective probability file, when given,
# always takes its place
STAGE1_SOURCES = ("nb", "logreg", "uniform")


@dataclass(frozen=True)
class ModelSpec:
    """One experiment's model settings and their defaults; a bad value is a
    ``SettingError``. ``stage1`` picks the objective model (or uniform
    probabilities); ``classifier`` (a key of ``learn.KINDS``), ``balancing``,
    ``weights_i`` and ``hyperparams`` are stage two's. Hyperparameters outside
    ``learn.HYPERPARAMS`` are left alone; those the classifier's kind does not
    read are ignored."""

    classifier: str = "forest"
    balancing: str = "weights"
    weights_i: int | None = None      # manual override grid index (1..9)
    stage1: str = "nb"
    hyperparams: dict = field(default_factory=dict)
    title_max_features: int = features.TITLE_MAX_FEATURES
    desc_max_features: int = features.DESC_MAX_FEATURES
    seed: int = 0

    def __post_init__(self) -> None:
        for name, choices in (("classifier", tuple(learn.KINDS)), ("balancing", BALANCING),
                              ("stage1", STAGE1_SOURCES)):
            if getattr(self, name) not in choices:
                raise SettingError(f"{name} must be one of {', '.join(choices)}, "
                                   f"got {getattr(self, name)!r}")
        if self.weights_i is not None:
            learn.checked_int("weights_i", self.weights_i, 1, 9)
        learn.checked_int("title_max_features", self.title_max_features, 1)
        learn.checked_int("desc_max_features", self.desc_max_features, 1)
        learn.checked_int("seed", self.seed, 0)
        if not isinstance(self.hyperparams, dict):
            raise SettingError(f"hyperparams must be an object, got {self.hyperparams!r}")
        for name, value in self.hyperparams.items():
            if name in learn.HYPERPARAMS:
                learn.check_hyperparam(name, value)


@dataclass
class PriorityPipeline:
    """Everything needed to score unseen issues: fitted preprocessing, an
    objective probability file's rows by issue id (``probs_file``, set where
    the bundle is made), optional stage-one model, and the priority classifier."""

    feature_pipeline: FeaturePipeline
    classifier: TrainedModel | None = None
    stage1_model: TrainedModel | None = None
    notes: list[str] = field(default_factory=list)
    probs_file: Mapping[str, np.ndarray] | None = None

    def objective_probs(self, issue: IssueRecord) -> np.ndarray:
        """The issue's objective probabilities: from ``probs_file``, from the
        stage-one model (a ``TrainingError`` if they are not finite), or
        uniform."""
        if self.probs_file is not None and issue.id in self.probs_file:
            return np.asarray(self.probs_file[issue.id], dtype=float)
        if self.stage1_model is not None:
            counts = self.feature_pipeline.stage1_counts(issue)
            with np.errstate(invalid="ignore", over="ignore"):
                probs = self.stage1_model.predict_proba(counts[None, :])[0]
            if not np.all(np.isfinite(probs)):
                raise TrainingError(f"stage-one model gives non-finite objective "
                                    f"probabilities for issue {issue.id}")
            return probs
        return UNIFORM_OBJECTIVE_PROBS

    def vectorize(self, issues: Sequence[IssueRecord]) -> learn.SparseRows:
        """One row per issue: its assembled feature vector."""
        return self.feature_pipeline.assemble(issues, list(map(self.objective_probs, issues)))

    def predict(self, issues: Sequence[IssueRecord]) -> tuple[list[str], np.ndarray]:
        """Each issue's priority and class probabilities (a ``TrainingError``
        if the classifier gives any that are not finite)."""
        if not issues:
            return [], np.empty((0, len(self.classifier.classes)))
        X = self.vectorize(issues)
        with np.errstate(invalid="ignore", over="ignore"):
            labels, probs = self.classifier.predict(X), self.classifier.predict_proba(X)
        if not np.all(np.isfinite(probs)):
            raise TrainingError("priority model gives non-finite probabilities")
        return labels, probs


def train_objective_model(issues: Sequence[IssueRecord], pipeline: FeaturePipeline,
                          spec: ModelSpec) -> TrainedModel | None:
    """The ``spec.stage1`` model (nb or logreg, at its fitter's defaults) over
    issues carrying a mono objective label in ``pipeline.maps``; None when
    fewer than two objective classes are represented. Both read the term
    counts as ``SparseRows``."""
    labeled = [(i, labelmap.objective_of(i.labels, pipeline.maps.objective)) for i in issues]
    labeled = [(i, obj) for i, obj in labeled if obj is not None]
    present = {obj for _, obj in labeled}
    if len(present) < 2:
        return None
    X = pipeline.stage1_rows([i for i, _ in labeled])
    y = [obj.value for _, obj in labeled]
    return learn.fit(spec.stage1, X, y, learn.OBJECTIVE_CLASS_ORDER, seed=spec.seed)


def hyperparams_read(spec: ModelSpec) -> set[str]:
    """The ``learn.HYPERPARAMS`` that ``fit_classifier`` reads for ``spec``:
    its kind's, and ``smote_k`` under SMOTE balancing."""
    smote = {"smote_k"} if spec.balancing == "smote" else set()
    return (learn.KINDS[spec.classifier].reads | smote) & learn.HYPERPARAMS.keys()


def fit_classifier(spec: ModelSpec, X: np.ndarray | learn.SparseRows,
                   labels: Sequence[str]) -> TrainedModel:
    """Fit the spec's priority classifier on ``X``, balanced as the spec says:
    class weights (manual grid or inverse frequency), SMOTE, or neither.
    ``learn.fit`` gives its fitter the class weights, seed and known
    hyperparameters that it reads; every default is the fitter's own. Each
    fitter densifies ``X`` itself if it needs to. NB needs no shift: every
    block of the assembled vector is non-negative."""
    hp = {name: value for name, value in spec.hyperparams.items() if name in learn.HYPERPARAMS}
    weights = None
    if spec.balancing == "weights":
        weights = (learn.manual_priority_weights(spec.weights_i) if spec.weights_i is not None
                   else learn.compute_class_weights(labels))
    elif spec.balancing == "smote":
        smote_k = {"k": hp["smote_k"]} if "smote_k" in hp else {}
        X, labels = learn.balance_with_smote(X, labels, seed=spec.seed, **smote_k)
    return learn.fit(spec.classifier, X, labels, learn.PRIORITY_CLASS_ORDER,
                     weights=weights, seed=spec.seed, **hp)


def fit_preprocessing(issues: Sequence[IssueRecord], spec: ModelSpec, maps: LabelMaps,
                      probs_file: Mapping[str, np.ndarray] | None = None) -> PriorityPipeline:
    """Fit preprocessing and stage one on ``issues``: the one path that fits
    either. The bundle's priority classifier is not fit.

    No stage one is fit when ``probs_file`` is given (the file is the
    objective source) or when ``spec.stage1`` is uniform.
    """
    if not issues:
        raise TrainingError("no issues to fit preprocessing on")
    notes: list[str] = []
    fp = fit_feature_pipeline(issues, maps, title_max_features=spec.title_max_features,
                              desc_max_features=spec.desc_max_features)

    stage1_model = None
    if probs_file is None and spec.stage1 != "uniform":
        stage1_model = train_objective_model(issues, fp, spec)
        if stage1_model is None:
            notes.append("stage1: fewer than two objective classes in training "
                         "data; falling back to uniform probabilities")

    return PriorityPipeline(fp, stage1_model=stage1_model, notes=notes, probs_file=probs_file)


def train_pipeline(issues: Sequence[IssueRecord], spec: ModelSpec, maps: LabelMaps,
                   probs_file: Mapping[str, np.ndarray] | None = None) -> PriorityPipeline:
    """Fit preprocessing + stage one + the priority classifier on ``issues``,
    which must all carry a priority label."""
    issues = list(issues)
    labels = labeled_issues(issues, maps)[1]
    if len(labels) < len(issues):
        raise TrainingError(f"{len(issues) - len(labels)} issues have no priority label")
    if len(set(labels)) < 2:
        raise TrainingError("training data must contain both priority classes")
    bundle = fit_preprocessing(issues, spec, maps, probs_file)
    classifier = fit_classifier(spec, bundle.vectorize(issues), labels)
    classifier.asset_fingerprints = bundle.feature_pipeline.fingerprints()
    classifier.metadata.setdefault("seed", spec.seed)
    classifier.metadata["balancing"] = spec.balancing
    bundle.classifier = classifier
    return bundle


def tune_hyperparams(issues: Sequence[IssueRecord], spec: ModelSpec, maps: LabelMaps,
                     space: dict, budget: int, cv_folds: int, objective: str,
                     probs_file: Mapping[str, np.ndarray] | None = None,
                     ) -> tuple[dict, list[dict]]:
    """Random search over ``space``: ``budget`` configs, merged into the spec's
    hyperparameters, are each scored by the k-fold CV mean of the
    ``TUNE_METRICS`` metric named ``objective``; returns the first best
    config and the trace, or a ``TrainingError`` when no fold is usable.
    A config drawn more than once is fit once per fold, and each of its
    trials carries those fold scores. Preprocessing and stage one are refit
    on each fold's training side, so held-out issues never shape them;
    issues without a priority label are ignored."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    metric = TUNE_METRICS[objective]
    rng = np.random.default_rng(spec.seed)
    configs = [learn.sample_config(space, rng) for _ in range(budget)]
    distinct = {repr(config): config for config in configs}
    scores: dict[str, list[float]] = {key: [] for key in distinct}
    issues, labels = labeled_issues(issues, maps)
    for fold_no, train_idx, test_idx in _folds(labels, cv_folds, spec.seed):
        fold_spec = replace(spec, seed=spec.seed + fold_no)
        train = [issues[i] for i in train_idx]
        bundle = fit_preprocessing(train, fold_spec, maps, probs_file)
        X_train = bundle.vectorize(train)
        X_test = bundle.vectorize([issues[i] for i in test_idx])
        train_labels = [labels[i] for i in train_idx]
        truth = [labels[i] for i in test_idx]
        for key, config in distinct.items():
            model = fit_classifier(
                replace(fold_spec, hyperparams={**spec.hyperparams, **config}),
                X_train, train_labels)
            scores[key].append(metric(truth, model.predict(X_test)))
    trial_scores = [scores[repr(config)] for config in configs]
    if not trial_scores[0]:
        raise TrainingError("no usable folds")
    trace = [{"trial": trial, "config": config, "fold_scores": fold_scores,
              "mean_score": float(np.mean(fold_scores))}
             for trial, (config, fold_scores) in enumerate(zip(configs, trial_scores))]
    return max(trace, key=lambda t: t["mean_score"])["config"], trace


# ---------------------------------------------------------------------------
# Experiment drivers

def labeled_issues(issues: Iterable[IssueRecord],
                   maps: LabelMaps) -> tuple[list[IssueRecord], list[str]]:
    """The issues that carry a priority label, and those labels."""
    kept, labels = [], []
    for issue in issues:
        cls = labelmap.priority_of(issue.labels, maps.priority)
        if cls is not None:
            kept.append(issue)
            labels.append(cls.value)
    return kept, labels


def holdout(train: Sequence[IssueRecord], test: Sequence[IssueRecord], spec: ModelSpec,
            maps: LabelMaps, **metadata) -> dict:
    """Fit ``spec`` on ``train`` (all priority-labeled), predict the labeled
    issues of ``test`` and return their ``score`` report over the priority
    classes; ``metadata`` and the model fingerprint go into its metadata. A
    test side with no labeled issue is a ``TrainingError``."""
    test, truth = labeled_issues(test, maps)
    if not test:
        raise TrainingError("the test side holds no priority-labeled issue")
    bundle = train_pipeline(train, spec, maps)
    predicted, _ = bundle.predict(test)
    return score(truth, predicted, learn.PRIORITY_CLASS_ORDER, **metadata,
                 model_fingerprint=bundle.classifier.fingerprint())


def _folds(labels: Sequence[str], k: int,
           seed: int) -> Iterable[tuple[int, np.ndarray, np.ndarray]]:
    """(fold_no, train_idx, test_idx) of each usable stratified fold: one whose
    training side has two classes and whose test side is not empty. One
    ``seed``-drawn generator shuffles each class's members in turn, classes
    in name order, and deals them to the k test sides like cards."""
    if k < 2:
        raise ValueError("k must be >= 2")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(len(labels), dtype=np.intp)
    for cls in sorted(set(labels)):
        members = np.array([i for i, label in enumerate(labels) if label == cls])
        rng.shuffle(members)
        fold_of[members] = np.arange(members.size) % k
    for fold_no in range(k):
        train_idx, test_idx = (np.flatnonzero(fold_of != fold_no),
                               np.flatnonzero(fold_of == fold_no))
        if len({labels[i] for i in train_idx}) >= 2 and test_idx.size:
            yield fold_no, train_idx, test_idx


def project_split(labels: Sequence[str], seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Project mode's split of one repository, stratified by class: the
    training side's and the test side's indices into ``labels``. One
    ``random.Random(seed)`` shuffles each class's members in turn, classes
    in name order, and the first ceil(count * ``TRAIN_SHARE``) of each go to
    training, so a lone member does too."""
    rng = random.Random(seed)
    is_train = np.zeros(len(labels), dtype=bool)
    for cls in sorted(set(labels)):
        members = [i for i, label in enumerate(labels) if label == cls]
        rng.shuffle(members)
        is_train[members[:math.ceil(len(members) * TRAIN_SHARE)]] = True
    return np.flatnonzero(is_train), np.flatnonzero(~is_train)


def cross_validate(corpus: Corpus, spec: ModelSpec, k: int, maps: LabelMaps) -> dict:
    """k rounds of train/eval with preprocessing refit per fold; returns the
    report document, with the mean and std of ``report_metrics`` over the folds."""
    issues, labels = labeled_issues(corpus.issues, maps)
    folds: list[dict] = []
    notes = dict.fromkeys(range(k), "class absent, skipped")
    for fold_no, train_idx, test_idx in _folds(labels, k, spec.seed):
        del notes[fold_no]
        if len({labels[i] for i in test_idx}) < 2:
            notes[fold_no] = "class absent from test side"
        folds.append(holdout([issues[i] for i in train_idx], [issues[i] for i in test_idx],
                             replace(spec, seed=spec.seed + fold_no), maps,
                             fold=fold_no))
    if not folds:
        raise TrainingError("no usable folds")
    rows = [report_metrics(fold) for fold in folds]
    return {"folds": folds,
            "flags": [f"fold {n}: {note}" for n, note in sorted(notes.items())],
            "mean": {key: float(np.mean([row[key] for row in rows])) for key in rows[0]},
            "std": {key: float(np.std([row[key] for row in rows])) for key in rows[0]}}


def _quartiles(values: Sequence[float]) -> dict[str, float]:
    ordered = sorted(values)
    return {
        "min": ordered[0],
        "q1": float(np.percentile(ordered, 25)),
        "median": float(np.percentile(ordered, 50)),
        "q3": float(np.percentile(ordered, 75)),
        "max": ordered[-1],
    }


def evaluate_project_based(corpus: Corpus, spec: ModelSpec, maps: LabelMaps) -> dict:
    """One model per repository on its own 80/20 stratified split; returns the
    report document. Repos without at least two issues per class are skipped,
    not merged; a ``TrainingError`` when every repo is."""
    per_repo: dict[str, dict] = {}
    skipped: dict[str, str] = {}
    for repo in corpus.repos():
        issues, labels = labeled_issues((i for i in corpus.issues if i.repo == repo), maps)
        counts = {cls: labels.count(cls) for cls in learn.PRIORITY_CLASS_ORDER if cls in labels}
        if len(counts) < 2 or min(counts.values()) < 2:
            skipped[repo] = f"insufficient class support: {counts}"
            continue
        train_idx, test_idx = project_split(labels, spec.seed)
        if not test_idx.size:
            skipped[repo] = "empty test side after split"
            continue
        per_repo[repo] = holdout([issues[i] for i in train_idx], [issues[i] for i in test_idx],
                                 spec, maps, repo=repo, seed=spec.seed)
    if not per_repo:
        raise TrainingError(f"no repository can be evaluated ({len(skipped)} skipped)")
    rows = [report_metrics(report) for report in per_repo.values()]
    pooled_correct = sum(round(r["accuracy"] * r["n"]) for r in per_repo.values())
    return {
        "per_repo": per_repo,
        "skipped": skipped,
        "summary": {key: _quartiles([row[key] for row in rows]) for key in rows[0]},
        "aggregate": {
            "mean_of_repo_accuracies": float(np.mean([row["accuracy"] for row in rows])),
            "pooled_micro_accuracy": pooled_correct / sum(r["n"] for r in per_repo.values())},
    }


def split_repos(repos: Sequence[str], seed: int) -> tuple[list[str], list[str]]:
    """A ``seed``-drawn ``TRAIN_SHARE`` of the repos and the rest, neither empty."""
    repos = sorted(repos)
    if len(repos) < 2:
        raise TrainingError("cross-project evaluation needs at least two repositories, "
                            f"got {len(repos)}")
    rng = np.random.default_rng(seed)
    order = list(rng.permutation(len(repos)))
    n_train = int(round(len(repos) * TRAIN_SHARE))
    n_train = max(1, min(len(repos) - 1, n_train))
    train = sorted(repos[i] for i in order[:n_train])
    test = sorted(repos[i] for i in order[n_train:])
    return train, test


CROSS_PROJECT_WEIGHTS_I = 6  # tuned grid point: slight extra emphasis on High


def evaluate_cross_project(corpus: Corpus, spec: ModelSpec, maps: LabelMaps) -> dict:
    """Split at repository granularity, train one generic model on the
    training repositories, evaluate on the held-out ones; returns the
    ``holdout`` report, the repos of each side in its metadata.

    Unless the spec pins its own class weights, the generic model uses the
    manual override grid at i=6 rather than pure inverse frequency."""
    if spec.balancing == "weights" and spec.weights_i is None:
        spec = replace(spec, weights_i=CROSS_PROJECT_WEIGHTS_I)
    train_repos, test_repos = split_repos(corpus.repos(), spec.seed)
    assert not set(train_repos) & set(test_repos)
    train, _ = labeled_issues((i for i in corpus.issues if i.repo in train_repos), maps)
    test = [i for i in corpus.issues if i.repo in test_repos]
    return holdout(train, test, spec, maps,
                   train_repos=train_repos, test_repos=test_repos, seed=spec.seed)


# ---------------------------------------------------------------------------
# Feature importance

def feature_importance(forest: TrainedModel,
                       names: Sequence[str] | None = None) -> dict:
    """Mean decrease in Gini impurity per feature, normalized to sum one:
    ``importances`` by feature name, and ``ranked`` (name, importance) pairs
    from the highest, ties in column order."""
    if forest.kind != "forest":
        raise TrainingError(f"feature importance requires a forest, got {forest.kind!r}")
    raw = np.asarray(forest.params["importances"], dtype=float)
    total = raw.sum()
    if total <= 0:
        raise TrainingError("forest contains no splits; importances undefined")
    scores = raw / total
    names = list(names) if names is not None else [f"f{i}" for i in range(len(scores))]
    if len(names) != len(scores):
        raise ValueError("feature name count does not match the trained width")
    order = np.argsort(-scores, kind="stable")
    return {"importances": {name: float(value) for name, value in zip(names, scores)},
            "ranked": [(names[i], float(scores[i])) for i in order]}
