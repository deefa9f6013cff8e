"""Evaluation: metrics, cross-validation, experiment drivers, importance.

Also home of the end-to-end priority pipeline glue (fit preprocessing,
resolve stage-one objective probabilities, train, predict) shared by the
experiment drivers and the CLI. Every protocol trains and scores through
``holdout``, and k-fold CV and ``--tune`` share one fold loop, ``_folds``.
Preprocessing and stage one are refit inside each fold or split on its
training side only; held-out issues never influence the vocabulary, the
idf, the scaler, the stage-one model or the tuned hyperparameters.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import features, labelmap, learn, sentiment
from .corpus import Corpus, IssueRecord, SettingError, stratified_split, subset
from .features import FeaturePipeline, fit_feature_pipeline
from .labelmap import LabelMaps
from .learn import TrainedModel, TrainingError

UNIFORM_OBJECTIVE_PROBS = np.full(len(learn.OBJECTIVE_CLASS_ORDER),
                                  1.0 / len(learn.OBJECTIVE_CLASS_ORDER))


# ---------------------------------------------------------------------------
# Confusion matrix and metrics

@dataclass(frozen=True)
class ConfusionMatrix:
    classes: tuple[str, ...]
    counts: np.ndarray  # rows = truth, columns = prediction

    @classmethod
    def from_pairs(cls, truth: Sequence[str], predicted: Sequence[str],
                   classes: tuple[str, ...] | None = None) -> "ConfusionMatrix":
        if len(truth) != len(predicted):
            raise ValueError("truth/prediction length mismatch")
        classes = classes or tuple(sorted(set(truth) | set(predicted)))
        index = {c: i for i, c in enumerate(classes)}
        counts = np.zeros((len(classes), len(classes)), dtype=int)
        for t, p in zip(truth, predicted):
            counts[index[t], index[p]] += 1
        return cls(classes, counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def one_vs_rest(self, cls: str) -> tuple[int, int, int, int]:
        """(TP, FP, TN, FN) for the one-vs-rest reduction of ``cls``."""
        i = self.classes.index(cls)
        tp = int(self.counts[i, i])
        fp = int(self.counts[:, i].sum() - tp)
        fn = int(self.counts[i, :].sum() - tp)
        tn = self.total - tp - fp - fn
        return tp, fp, tn, fn


@dataclass
class ClassReport:
    precision: float
    recall: float
    f1: float
    ovr_accuracy: float
    support: int
    flags: list[str] = field(default_factory=list)


@dataclass
class EvalReport:
    accuracy: float
    per_class: dict[str, ClassReport]
    n: int
    flags: list[str] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "n": self.n,
            "per_class": {
                cls: {"precision": r.precision, "recall": r.recall, "f1": r.f1,
                      "ovr_accuracy": r.ovr_accuracy, "support": r.support,
                      "flags": r.flags}
                for cls, r in self.per_class.items()},
            "flags": self.flags,
            "metadata": self.metadata,
        }


def _safe_div(num: float, den: float, flags: list[str], label: str) -> float:
    if den == 0:
        flags.append(f"zero_division:{label}")
        return 0.0
    return num / den


def metrics(cm: ConfusionMatrix) -> EvalReport:
    """Precision, recall, F1 and accuracy from the confusion counts;
    zero denominators score 0 and raise a flag instead of dividing."""
    per_class: dict[str, ClassReport] = {}
    report_flags: list[str] = []
    for cls in cm.classes:
        tp, fp, tn, fn = cm.one_vs_rest(cls)
        flags: list[str] = []
        precision = _safe_div(tp, tp + fp, flags, f"precision:{cls}")
        recall = _safe_div(tp, tp + fn, flags, f"recall:{cls}")
        f1 = _safe_div(2 * precision * recall, precision + recall, flags, f"f1:{cls}")
        ovr_acc = _safe_div(tp + tn, tp + fp + tn + fn, flags, f"accuracy:{cls}")
        per_class[cls] = ClassReport(precision, recall, f1, ovr_acc, tp + fn, flags)
        report_flags.extend(flags)
    accuracy = _safe_div(float(np.trace(cm.counts)), cm.total, report_flags, "accuracy")
    return EvalReport(accuracy=accuracy, per_class=per_class, n=cm.total,
                      flags=report_flags)


def macro_f1(truth: Sequence[str], predicted: Sequence[str]) -> float:
    report = metrics(ConfusionMatrix.from_pairs(truth, predicted))
    return float(np.mean([r.f1 for r in report.per_class.values()]))


# ---------------------------------------------------------------------------
# Model specification and the fitted pipeline bundle

# classifier name -> the name of its fitter in ``learn``, looked up at fit time
CLASSIFIERS = {"forest": "fit_random_forest", "logreg": "fit_logreg",
               "nb": "fit_multinomial_nb", "knn": "fit_knn"}
BALANCING = ("weights", "smote", "none")
# the stage-one objective model; an objective probability file, when given,
# always takes its place
STAGE1_SOURCES = ("nb", "logreg", "uniform")


@dataclass(frozen=True)
class ModelSpec:
    """One experiment's model settings and their defaults; a bad value is a
    ``SettingError``. ``stage1`` picks the objective model (or uniform
    probabilities); ``classifier``, ``balancing``, ``weights_i`` and
    ``hyperparams`` are stage two's. Hyperparameters outside
    ``learn.HYPERPARAMS`` are left alone; those the classifier's fitter does
    not take are ignored."""

    classifier: str = "forest"
    balancing: str = "weights"
    weights_i: int | None = None      # manual override grid index (1..9)
    stage1: str = "nb"
    hyperparams: dict = field(default_factory=dict)
    title_max_features: int = features.TITLE_MAX_FEATURES
    desc_max_features: int = features.DESC_MAX_FEATURES
    seed: int = 0

    def __post_init__(self) -> None:
        for name, choices in (("classifier", tuple(CLASSIFIERS)), ("balancing", BALANCING),
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
    """Everything needed to score unseen issues: fitted preprocessing,
    optional stage-one objective model, and the priority classifier."""

    feature_pipeline: FeaturePipeline
    classifier: TrainedModel | None = None
    stage1_model: TrainedModel | None = None
    notes: list[str] = field(default_factory=list)

    def objective_probs(self, issue: IssueRecord,
                        probs_file: Mapping[str, np.ndarray] | None = None) -> np.ndarray:
        """The issue's objective probabilities: from ``probs_file``, from the
        stage-one model (a ``TrainingError`` if they are not finite), or
        uniform."""
        if probs_file is not None and issue.id in probs_file:
            return np.asarray(probs_file[issue.id], dtype=float)
        if self.stage1_model is not None:
            counts = self.feature_pipeline.stage1_counts(issue)
            with np.errstate(invalid="ignore", over="ignore"):
                probs = self.stage1_model.predict_proba(counts[None, :])[0]
            if not np.all(np.isfinite(probs)):
                raise TrainingError(f"stage-one model gives non-finite objective "
                                    f"probabilities for issue {issue.id}")
            return probs
        return UNIFORM_OBJECTIVE_PROBS

    def vectorize(self, issues: Sequence[IssueRecord],
                  probs_file: Mapping[str, np.ndarray] | None = None) -> learn.SparseRows:
        """One row per issue: its assembled feature vector."""
        return self.feature_pipeline.assemble(
            issues, [self.objective_probs(issue, probs_file) for issue in issues])

    def predict(self, issues: Sequence[IssueRecord],
                probs_file: Mapping[str, np.ndarray] | None = None
                ) -> tuple[list[str], np.ndarray]:
        """Each issue's priority and class probabilities (a ``TrainingError``
        if the classifier gives any that are not finite)."""
        if not issues:
            return [], np.empty((0, len(self.classifier.classes)))
        X = self.vectorize(issues, probs_file)
        with np.errstate(invalid="ignore", over="ignore"):
            labels, probs = self.classifier.predict(X), self.classifier.predict_proba(X)
        if not np.all(np.isfinite(probs)):
            raise TrainingError("priority model gives non-finite probabilities")
        return labels, probs


def train_objective_model(issues: Sequence[IssueRecord], maps: LabelMaps,
                          pipeline: FeaturePipeline, spec: ModelSpec) -> TrainedModel | None:
    """The ``spec.stage1`` model (nb or logreg, at its fitter's defaults) over
    issues carrying a mono objective label; None when fewer than two
    objective classes are represented. Both read the term counts as
    ``SparseRows``."""
    labeled = [(i, labelmap.objective_of(i.labels, maps.objective)) for i in issues]
    labeled = [(i, obj) for i, obj in labeled if obj is not None]
    present = {obj for _, obj in labeled}
    if len(present) < 2:
        return None
    X = pipeline.stage1_rows([i for i, _ in labeled])
    y = [obj.value for _, obj in labeled]
    if spec.stage1 == "logreg":
        return learn.fit_logreg(X, y, seed=spec.seed,
                                classes=learn.OBJECTIVE_CLASS_ORDER)
    return learn.fit_multinomial_nb(X, y, classes=learn.OBJECTIVE_CLASS_ORDER)


def fit_classifier(spec: ModelSpec, X: np.ndarray | learn.SparseRows,
                   labels: Sequence[str]) -> TrainedModel:
    """Fit the spec's priority classifier on ``X``, balanced as the spec says:
    class weights (manual grid or inverse frequency), SMOTE, or neither.

    The fitter is looked up on ``learn`` at each call, so a rebound fitter is
    the one used, and it gets only the class weights, seed and known
    hyperparameters that its signature takes; every default is its own. Each
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
    fit = getattr(learn, CLASSIFIERS[spec.classifier])
    takes = inspect.signature(fit).parameters
    options = {"weights": weights, "seed": spec.seed, **hp}
    return fit(X, labels, classes=learn.PRIORITY_CLASS_ORDER,
               **{name: value for name, value in options.items() if name in takes})


def fit_preprocessing(
    issues: Sequence[IssueRecord],
    spec: ModelSpec,
    maps: LabelMaps,
    lex: sentiment.Lexicon | None = None,
    probs_file: Mapping[str, np.ndarray] | None = None,
) -> PriorityPipeline:
    """Fit preprocessing and stage one on ``issues``: the one path that fits
    either. The bundle's priority classifier is not fit.

    No stage one is fit when ``probs_file`` is given (the file is the
    objective source) or when ``spec.stage1`` is uniform.
    """
    if not issues:
        raise TrainingError("no issues to fit preprocessing on")
    notes: list[str] = []
    fp = fit_feature_pipeline(
        issues, maps, lex,
        title_max_features=spec.title_max_features,
        desc_max_features=spec.desc_max_features)

    stage1_model = None
    if probs_file is None and spec.stage1 != "uniform":
        stage1_model = train_objective_model(issues, maps, fp, spec)
        if stage1_model is None:
            notes.append("stage1: fewer than two objective classes in training "
                         "data; falling back to uniform probabilities")

    return PriorityPipeline(fp, stage1_model=stage1_model, notes=notes)


def train_pipeline(
    issues: Sequence[IssueRecord],
    spec: ModelSpec,
    maps: LabelMaps,
    lex: sentiment.Lexicon | None = None,
    probs_file: Mapping[str, np.ndarray] | None = None,
) -> PriorityPipeline:
    """Fit preprocessing + stage one + the priority classifier on ``issues``,
    which must all carry a priority label."""
    issues = list(issues)
    labels = labeled_issues(issues, maps)[1]
    if len(labels) < len(issues):
        raise TrainingError(f"{len(issues) - len(labels)} issues have no priority label")
    if len(set(labels)) < 2:
        raise TrainingError("training data must contain both priority classes")
    bundle = fit_preprocessing(issues, spec, maps, lex, probs_file)
    classifier = fit_classifier(spec, bundle.vectorize(issues, probs_file), labels)
    classifier.asset_fingerprints = bundle.feature_pipeline.fingerprints()
    classifier.metadata.setdefault("seed", spec.seed)
    classifier.metadata["balancing"] = spec.balancing
    bundle.classifier = classifier
    return bundle


def tune_hyperparams(issues: Sequence[IssueRecord], spec: ModelSpec, maps: LabelMaps,
                     space: dict, budget: int, cv_folds: int,
                     objective: Callable[[Sequence[str], Sequence[str]], float] | None = None,
                     probs_file: Mapping[str, np.ndarray] | None = None,
                     ) -> tuple[dict, list[dict]]:
    """Random search over ``space``: ``budget`` configs, merged into the spec's
    hyperparameters, are each scored by the k-fold CV mean of ``objective``
    (accuracy by default); returns the first best config and the trace.
    Preprocessing and stage one are refit on each fold's training side, so
    held-out issues never shape them; issues without a priority label are
    ignored."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if objective is None:
        objective = lambda truth, pred: float(np.mean([t == p for t, p in zip(truth, pred)]))
    rng = np.random.default_rng(spec.seed)
    configs = [learn.sample_config(space, rng) for _ in range(budget)]
    scores: list[list[float]] = [[] for _ in configs]
    issues, labels = labeled_issues(issues, maps)
    for fold_no, train_idx, test_idx in _folds(labels, cv_folds, spec.seed):
        fold_spec = replace(spec, seed=spec.seed + fold_no)
        train = [issues[i] for i in train_idx]
        bundle = fit_preprocessing(train, fold_spec, maps, probs_file=probs_file)
        X_train = bundle.vectorize(train, probs_file)
        X_test = bundle.vectorize([issues[i] for i in test_idx], probs_file)
        train_labels = [labels[i] for i in train_idx]
        truth = [labels[i] for i in test_idx]
        for config, config_scores in zip(configs, scores):
            model = fit_classifier(
                replace(fold_spec, hyperparams={**spec.hyperparams, **config}),
                X_train, train_labels)
            config_scores.append(objective(truth, model.predict(X_test)))
    trace = [{"trial": trial, "config": config, "fold_scores": fold_scores,
              "mean_score": float(np.mean(fold_scores)) if fold_scores else 0.0}
             for trial, (config, fold_scores) in enumerate(zip(configs, scores))]
    return max(trace, key=lambda t: t["mean_score"])["config"], trace


def evaluate_predictions(truth: Sequence[str], predicted: Sequence[str],
                         classes: tuple[str, ...] = learn.PRIORITY_CLASS_ORDER,
                         **metadata) -> EvalReport:
    report = metrics(ConfusionMatrix.from_pairs(truth, predicted, classes))
    report.metadata.update(metadata)
    return report


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
            maps: LabelMaps, **metadata) -> EvalReport:
    """Fit ``spec`` on ``train`` (all priority-labeled), predict the labeled
    issues of ``test`` and score them; ``metadata`` and the model fingerprint
    go into the report."""
    bundle = train_pipeline(train, spec, maps)
    test, truth = labeled_issues(test, maps)
    predicted, _ = bundle.predict(test)
    return evaluate_predictions(truth, predicted, **metadata,
                                model_fingerprint=bundle.classifier.fingerprint())


def _folds(labels: Sequence[str], k: int,
           seed: int) -> Iterable[tuple[int, np.ndarray, np.ndarray]]:
    """(fold_no, train_idx, test_idx) of each usable stratified fold: one whose
    training side has two classes and whose test side is not empty."""
    all_idx = np.arange(len(labels))
    for fold_no, test_idx in enumerate(learn.stratified_kfold_indices(labels, k, seed)):
        train_idx = all_idx[~np.isin(all_idx, test_idx)]
        if len({labels[i] for i in train_idx}) >= 2 and test_idx.size:
            yield fold_no, train_idx, test_idx


@dataclass
class CrossValidationResult:
    mean: dict[str, float]
    std: dict[str, float]
    fold_reports: list[EvalReport]
    flags: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {"mean": self.mean, "std": self.std, "flags": self.flags,
                "folds": [r.as_dict() for r in self.fold_reports]}


def cross_validate(corpus: Corpus, spec: ModelSpec, k: int, seed: int,
                   maps: LabelMaps | None = None) -> CrossValidationResult:
    """k rounds of train/eval with preprocessing refit per fold."""
    if k < 2:
        raise ValueError("k must be >= 2")
    maps = maps or labelmap.load_label_maps()
    issues, labels = labeled_issues(corpus.issues, maps)
    reports: list[EvalReport] = []
    notes = dict.fromkeys(range(k), "class absent, skipped")
    for fold_no, train_idx, test_idx in _folds(labels, k, seed):
        del notes[fold_no]
        if len({labels[i] for i in test_idx}) < 2:
            notes[fold_no] = "class absent from test side"
        reports.append(holdout([issues[i] for i in train_idx], [issues[i] for i in test_idx],
                               replace(spec, seed=seed + fold_no), maps, fold=fold_no))
    flags = [f"fold {n}: {note}" for n, note in sorted(notes.items())]
    if not reports:
        raise TrainingError("no usable folds")
    keys = {"accuracy": lambda r: r.accuracy}
    for cls in learn.PRIORITY_CLASS_ORDER:
        keys[f"f1:{cls}"] = lambda r, c=cls: r.per_class[c].f1
        keys[f"precision:{cls}"] = lambda r, c=cls: r.per_class[c].precision
        keys[f"recall:{cls}"] = lambda r, c=cls: r.per_class[c].recall
    mean = {name: float(np.mean([fn(r) for r in reports])) for name, fn in keys.items()}
    std = {name: float(np.std([fn(r) for r in reports])) for name, fn in keys.items()}
    return CrossValidationResult(mean, std, reports, flags)


def _quartiles(values: Sequence[float]) -> dict[str, float]:
    if not values:
        return {}
    ordered = sorted(values)
    return {
        "min": ordered[0],
        "q1": float(np.percentile(ordered, 25)),
        "median": float(np.percentile(ordered, 50)),
        "q3": float(np.percentile(ordered, 75)),
        "max": ordered[-1],
    }


@dataclass
class ProjectBasedResult:
    per_repo: dict[str, EvalReport]
    skipped: dict[str, str]
    summary: dict[str, dict[str, float]]
    mean_accuracy: float
    pooled_accuracy: float

    def as_dict(self) -> dict:
        return {
            "per_repo": {r: rep.as_dict() for r, rep in self.per_repo.items()},
            "skipped": self.skipped,
            "summary": self.summary,
            "aggregate": {"mean_of_repo_accuracies": self.mean_accuracy,
                          "pooled_micro_accuracy": self.pooled_accuracy},
        }


def evaluate_project_based(corpus: Corpus, spec: ModelSpec,
                           maps: LabelMaps | None = None,
                           ratio: float = 0.8) -> ProjectBasedResult:
    """One model per repository on its own 80/20 stratified split. Repos
    without at least two issues per class are skipped, not merged."""
    maps = maps or labelmap.load_label_maps()
    per_repo: dict[str, EvalReport] = {}
    skipped: dict[str, str] = {}
    for repo in corpus.repos():
        issues, labels = labeled_issues((i for i in corpus.issues if i.repo == repo), maps)
        counts = {cls: labels.count(cls) for cls in learn.PRIORITY_CLASS_ORDER if cls in labels}
        if len(counts) < 2 or min(counts.values()) < 2:
            skipped[repo] = f"insufficient class support: {counts}"
            continue
        train, test = stratified_split(
            subset(corpus, issues), lambda i: labelmap.priority_of(i.labels, maps.priority).value,
            ratio, spec.seed)
        if not len(test):
            skipped[repo] = "empty test side after split"
            continue
        per_repo[repo] = holdout(train.issues, test.issues, spec, maps,
                                 repo=repo, seed=spec.seed)
    summary = {"accuracy": _quartiles([r.accuracy for r in per_repo.values()])}
    for cls in learn.PRIORITY_CLASS_ORDER:
        summary[f"f1:{cls}"] = _quartiles([r.per_class[cls].f1 for r in per_repo.values()])
        summary[f"recall:{cls}"] = _quartiles([r.per_class[cls].recall for r in per_repo.values()])
        summary[f"precision:{cls}"] = _quartiles(
            [r.per_class[cls].precision for r in per_repo.values()])
    mean_acc = float(np.mean([r.accuracy for r in per_repo.values()])) if per_repo else 0.0
    pooled_total = sum(r.n for r in per_repo.values())
    pooled_correct = sum(round(r.accuracy * r.n) for r in per_repo.values())
    pooled_acc = pooled_correct / pooled_total if pooled_total else 0.0
    return ProjectBasedResult(per_repo, skipped, summary, mean_acc, pooled_acc)


def split_repos(repos: Sequence[str], ratio: float, seed: int) -> tuple[list[str], list[str]]:
    repos = sorted(repos)
    if len(repos) < 2:
        raise ValueError("cross-project evaluation needs at least two repositories")
    rng = np.random.default_rng(seed)
    order = list(rng.permutation(len(repos)))
    n_train = int(round(len(repos) * ratio))
    n_train = max(1, min(len(repos) - 1, n_train))
    train = sorted(repos[i] for i in order[:n_train])
    test = sorted(repos[i] for i in order[n_train:])
    return train, test


CROSS_PROJECT_WEIGHTS_I = 6  # tuned grid point: slight extra emphasis on High


def evaluate_cross_project(corpus: Corpus, spec: ModelSpec, seed: int,
                           maps: LabelMaps | None = None,
                           ratio: float = 0.8) -> EvalReport:
    """Split at repository granularity, train one generic model on the
    training repositories, evaluate on the held-out ones.

    Unless the spec pins its own class weights, the generic model uses the
    manual override grid at i=6 rather than pure inverse frequency."""
    maps = maps or labelmap.load_label_maps()
    if spec.balancing == "weights" and spec.weights_i is None:
        spec = replace(spec, weights_i=CROSS_PROJECT_WEIGHTS_I)
    train_repos, test_repos = split_repos(corpus.repos(), ratio, seed)
    assert not set(train_repos) & set(test_repos)
    train, _ = labeled_issues((i for i in corpus.issues if i.repo in train_repos), maps)
    test = [i for i in corpus.issues if i.repo in test_repos]
    return holdout(train, test, spec, maps,
                   train_repos=train_repos, test_repos=test_repos, seed=seed)


# ---------------------------------------------------------------------------
# Feature importance

@dataclass
class FeatureImportanceReport:
    scores: np.ndarray
    names: list[str]

    def ranked(self) -> list[tuple[str, float]]:
        order = np.argsort(-self.scores, kind="stable")
        return [(self.names[i], float(self.scores[i])) for i in order]

    def as_dict(self) -> dict:
        return {"importances": {n: float(s) for n, s in zip(self.names, self.scores)},
                "ranked": self.ranked()}


def feature_importance(forest: TrainedModel,
                       names: Sequence[str] | None = None) -> FeatureImportanceReport:
    """Mean decrease in Gini impurity per feature, normalized to sum one."""
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
    return FeatureImportanceReport(scores, names)
