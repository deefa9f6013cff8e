"""Acceptance suite: one test per release criterion, each at its stated
tolerance. Run with ``pytest tests/test_acceptance.py -v -s`` to see one
PASS/FAIL line per criterion. Everything here is seeded and offline.
"""

import itertools
import json
import random
import shutil
from pathlib import Path

import numpy as np
import pytest

from conftest import FIXTURES
from issuetriage import cli, evalkit, labelmap, learn
from issuetriage.agreement import DEFAULT_CATEGORIES, RatingMatrix, compute_agreement
from issuetriage.corpus import FilterConfig, filter_corpus, load_corpus
from issuetriage.evalkit import ModelSpec, score
from issuetriage.features import fit_scaler, scale
from issuetriage.learn import (
    compute_class_weights,
    fit_logreg,
    fit_multinomial_nb,
    fit_random_forest,
    logreg_loss_and_grad,
    rank_baseline,
    smote,
)
from issuetriage.textnorm import _abstract, normalize_pipeline
from test_labelmap import (
    BUG_LABELS,
    DUPLICATE_CLUSTER,
    ENHANCEMENT_LABELS,
    HIGH_LABELS,
    LOW_LABELS,
    SUPPORT_LABELS,
    WONTFIX_CLUSTER,
)


class criterion:
    """Prints one PASS/FAIL line per acceptance criterion."""

    def __init__(self, number: int, name: str):
        self.number = number
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number:02d} {verdict}  {self.name}")
        return False


def test_criterion_01_agreement_consistency_with_reported_pair():
    with criterion(1, "percent agreement 0.853 with k=2 gives Randolph kappa 0.706"):
        rows = [("High", "High")] * 853 + [("High", "Low")] * 147
        matrix = RatingMatrix(rows=tuple(rows), raters=("r1", "r2"),
                              categories=DEFAULT_CATEGORIES, item_ids=(), groups=())
        report = compute_agreement(matrix, "pairwise")
        assert report["percent_agreement"] == pytest.approx(0.853, abs=1e-12)
        assert abs(report["randolph_kappa"] - 0.706) <= 0.005


def test_criterion_02_metric_oracle_equivalence():
    with criterion(2, "metrics equal brute-force confusion counting on 1000 instances"):
        rng = random.Random(42)
        for _ in range(1000):
            classes = ("a", "b", "c")[: rng.choice((2, 3))]
            n = rng.randint(1, 50)
            truth = [rng.choice(classes) for _ in range(n)]
            pred = [rng.choice(classes) for _ in range(n)]
            report = score(truth, pred, classes)
            for cls in classes:
                tp = sum(1 for t, p in zip(truth, pred) if t == cls and p == cls)
                fp = sum(1 for t, p in zip(truth, pred) if t != cls and p == cls)
                fn = sum(1 for t, p in zip(truth, pred) if t == cls and p != cls)
                tn = n - tp - fp - fn
                r = report["per_class"][cls]
                want_p = tp / (tp + fp) if tp + fp else 0.0
                want_r = tp / (tp + fn) if tp + fn else 0.0
                want_f = (2 * want_p * want_r / (want_p + want_r)
                          if want_p + want_r else 0.0)
                assert abs(r["precision"] - want_p) <= 1e-12
                assert abs(r["recall"] - want_r) <= 1e-12
                assert abs(r["f1"] - want_f) <= 1e-12
                assert abs(r["ovr_accuracy"] - (tp + tn) / n) <= 1e-12
            micro = sum(1 for t, p in zip(truth, pred) if t == p) / n
            assert abs(report["accuracy"] - micro) <= 1e-12


def test_criterion_03_minmax_scaling_properties():
    with criterion(3, "min-max endpoints, clipping, and rescaling invariance"):
        rng = np.random.default_rng(7)
        for _ in range(100):
            column = rng.normal(loc=rng.uniform(-50, 50),
                                scale=rng.uniform(0.1, 30), size=25)
            params = fit_scaler(list(column[:, None]))
            lo, hi = column.min(), column.max()
            assert scale(params, np.array([lo]))[0] == 0.0
            assert scale(params, np.array([hi]))[0] == 1.0
            probes = rng.normal(scale=100, size=10)
            for x in probes:
                out = scale(params, np.array([x]))[0]
                assert 0.0 <= out <= 1.0
            factor = rng.uniform(0.01, 40)
            scaled_params = fit_scaler(list((factor * column)[:, None]))
            for x in column:
                a = scale(params, np.array([x]))[0]
                b = scale(scaled_params, np.array([factor * x]))[0]
                assert abs(a - b) <= 1e-9


def test_criterion_04_class_weight_formula():
    with criterion(4, "inverse-frequency weights match the reported counts"):
        weights = compute_class_weights(["HP"] * 44733 + ["LP"] * 37986)
        assert abs(weights["HP"] - 1.8492) <= 1e-3
        rng = random.Random(3)
        for _ in range(100):
            counts = {c: rng.randint(1, 500) for c in ("x", "y", "z")}
            labels = [c for c, k in counts.items() for _ in range(k)]
            w = compute_class_weights(labels)
            for a, b in itertools.combinations(counts, 2):
                assert w[a] / w[b] == pytest.approx(counts[b] / counts[a], rel=1e-12)


def _bayes_oracle(doc_rows, labels, alpha=1.0):
    """Plain-float Bayes with Laplace smoothing, independent arithmetic: each
    class's prior and smoothed term probabilities, computed once per corpus
    (None for a class with no rows), for ``_bayes_posterior``."""
    fitted = []
    for cls in (0, 1):
        rows = [d for d, lb in zip(doc_rows, labels) if lb == cls]
        if not rows:
            fitted.append(None)
            continue
        totals = [sum(r[j] for r in rows) for j in range(4)]
        denom = sum(totals) + alpha * 4
        fitted.append((len(rows) / len(doc_rows), [(t + alpha) / denom for t in totals]))
    return fitted


def _bayes_posterior(fitted, x):
    posts = []
    for cls in fitted:
        if cls is None:
            posts.append(0.0)
            continue
        p, theta = cls
        for j in range(4):
            p *= theta[j] ** x[j]
        posts.append(p)
    total = sum(posts)
    return [p / total for p in posts]


def test_criterion_05_nb_exhaustive_oracle():
    with criterion(5, "NB posteriors equal brute-force Bayes on all small corpora"):
        docs = [t for t in itertools.product((0, 1), repeat=4) if any(t)]
        labeled = [(d, lb) for d in docs for lb in (0, 1)]
        checked = 0
        for size in range(1, 6):
            for combo in itertools.combinations_with_replacement(labeled, size):
                doc_rows = [c[0] for c in combo]
                labels = [c[1] for c in combo]
                X = np.array(doc_rows, dtype=float)
                model = fit_multinomial_nb(X, [str(lb) for lb in labels],
                                           alpha=1.0, classes=("0", "1"))
                probs = model.predict_proba(X)
                fitted = _bayes_oracle(doc_rows, labels)
                for row, x in zip(probs, doc_rows):
                    want = _bayes_posterior(fitted, x)
                    assert abs(row[0] - want[0]) <= 1e-9
                    assert abs(row[1] - want[1]) <= 1e-9
                checked += 1
        assert checked == sum(
            _n_multisets(len(labeled), s) for s in range(1, 6)) == 324_631


def _n_multisets(options, size):
    from math import comb
    return comb(options + size - 1, size)


def test_criterion_06_smote_convexity_and_balance():
    with criterion(6, "SMOTE synthetics are neighbor interpolations; counts equalize"):
        rng = np.random.default_rng(11)
        for trial in range(200):
            n_min = int(rng.integers(2, 12))
            dim = int(rng.integers(1, 5))
            minority = rng.normal(size=(n_min, dim)) * rng.uniform(0.5, 5)
            majority_count = n_min + int(rng.integers(1, 15))
            k = int(rng.integers(1, 6))
            synthetic = smote(minority, majority_count, k=k, seed=trial)
            assert synthetic.shape[0] == majority_count - n_min
            k_eff = min(k, n_min - 1)
            diffs = minority[:, None, :] - minority[None, :, :]
            dists = np.sqrt((diffs ** 2).sum(axis=2))
            np.fill_diagonal(dists, np.inf)
            neighbor_ids = np.argsort(dists, axis=1, kind="stable")[:, :k_eff]
            for s in synthetic:
                ok = False
                for a in range(n_min):
                    for b in neighbor_ids[a]:
                        d = minority[b] - minority[a]
                        denom = float(d @ d)
                        if denom == 0.0:
                            if np.linalg.norm(s - minority[a]) <= 1e-9:
                                ok = True
                            continue
                        lam = float((s - minority[a]) @ d) / denom
                        if -1e-9 <= lam <= 1 + 1e-9 and \
                                np.linalg.norm(s - (minority[a] + lam * d)) <= 1e-9:
                            ok = True
                            break
                    if ok:
                        break
                assert ok


def test_criterion_07_logreg_gradient_check():
    with criterion(7, "logistic-regression gradients match finite differences"):
        rng = np.random.default_rng(19)
        eps = 1e-6
        for _ in range(5):
            X = rng.normal(size=(20, 10))
            y = rng.integers(0, 2, size=20)
            sw = rng.uniform(0.5, 2.0, size=20)
            W = rng.normal(scale=0.4, size=(10, 2))
            b = rng.normal(scale=0.4, size=2)
            l2 = float(rng.uniform(0, 0.1))
            _, grad_W, grad_b = logreg_loss_and_grad(W, b, X, y, sw, l2)
            for i in range(10):
                for j in range(2):
                    Wp, Wm = W.copy(), W.copy()
                    Wp[i, j] += eps
                    Wm[i, j] -= eps
                    lp, _, _ = logreg_loss_and_grad(Wp, b, X, y, sw, l2)
                    lm, _, _ = logreg_loss_and_grad(Wm, b, X, y, sw, l2)
                    assert abs(grad_W[i, j] - (lp - lm) / (2 * eps)) <= 1e-5
            for j in range(2):
                bp, bm = b.copy(), b.copy()
                bp[j] += eps
                bm[j] -= eps
                lp, _, _ = logreg_loss_and_grad(W, bp, X, y, sw, l2)
                lm, _, _ = logreg_loss_and_grad(W, bm, X, y, sw, l2)
                assert abs(grad_b[j] - (lp - lm) / (2 * eps)) <= 1e-5


def test_criterion_08_forest_sanity_on_separable_data():
    with criterion(8, "forest reaches 0.95 held-out accuracy where majority sits at 0.5"):
        rng = np.random.default_rng(23)
        half = 250
        X = np.vstack([rng.normal((-2, -2), 0.8, size=(half, 2)),
                       rng.normal((2, 2), 0.8, size=(half, 2))])
        y = ["neg"] * half + ["pos"] * half
        order = rng.permutation(2 * half)
        X, y = X[order], [y[i] for i in order]
        X_train, y_train = X[:350], y[:350]
        X_test, y_test = X[350:], y[350:]
        model = fit_random_forest(X_train, y_train, n_trees=30, seed=1)
        predictions = model.predict(X_test)
        accuracy = float(np.mean([p == t for p, t in zip(predictions, y_test)]))
        majority_label = max(set(y_train), key=y_train.count)
        majority_acc = float(np.mean([majority_label == t for t in y_test]))
        assert accuracy >= 0.95
        assert abs(majority_acc - 0.5) <= 0.06  # balanced construction


def test_criterion_09_end_to_end_planted_signal(planted_corpus, maps):
    with criterion(9, "planted-signal pipeline beats the comments baseline by 10 points"):
        filtered, report = filter_corpus(planted_corpus, FilterConfig(),
                                         cluster_of=maps.clusters.cluster_of)
        assert report["total_removed"] == 0
        spec = ModelSpec(classifier="forest", balancing="weights", seed=11,
                         hyperparams={"n_trees": 100, "max_depth": 12,
                                      "max_features": 128})
        result = evalkit.evaluate_cross_project(filtered, spec, maps)
        test_repos = set(result["metadata"]["test_repos"])
        test_issues = [i for i in filtered.issues if i.repo in test_repos]
        truth = [labelmap.priority_of(i.labels, maps.priority).value
                 for i in test_issues]
        baseline = [p.value for p in rank_baseline(test_issues, "comments")]
        baseline_acc = float(np.mean([t == b for t, b in zip(truth, baseline)]))
        print(f"\n  model accuracy {result['accuracy']:.3f} vs comments baseline "
              f"{baseline_acc:.3f}")
        assert result["accuracy"] >= baseline_acc + 0.10


def test_criterion_10_split_correctness():
    with criterion(10, "stratified deviation <= 1 sample; repo splits disjoint"):
        rng = random.Random(4)
        for trial in range(100):
            counts = {"hp": rng.randint(2, 40), "lp": rng.randint(2, 40)}
            labels = [cls for cls, n in counts.items() for _ in range(n)]
            train, test = evalkit.project_split(labels, seed=trial)
            assert set(train) | set(test) == set(range(len(labels)))
            assert not set(train) & set(test)
            for cls, n in counts.items():
                got = sum(1 for i in train if labels[i] == cls)
                assert abs(got - n * 0.8) <= 1
        for trial in range(50):
            repos = [f"org/repo{i}" for i in range(rng.randint(2, 12))]
            train_repos, test_repos = evalkit.split_repos(repos, seed=trial)
            assert not set(train_repos) & set(test_repos)
            assert sorted(train_repos + test_repos) == sorted(repos)
            assert train_repos and test_repos


def test_criterion_11_label_tables_resolve(maps):
    with criterion(11, "every published label-table entry resolves; LF vector sane"):
        from issuetriage.corpus import ObjectiveClass, PriorityClass
        for raw in BUG_LABELS:
            assert labelmap.objective_of([raw], maps.objective) is ObjectiveClass.BUG
        for raw in ENHANCEMENT_LABELS:
            assert labelmap.objective_of([raw], maps.objective) is \
                ObjectiveClass.ENHANCEMENT
        for raw in SUPPORT_LABELS:
            assert labelmap.objective_of([raw], maps.objective) is \
                ObjectiveClass.SUPPORT_DOC
        assert len(HIGH_LABELS) + len(LOW_LABELS) == 47
        for raw in HIGH_LABELS:
            assert labelmap.priority_of([raw], maps.priority) is PriorityClass.HIGH
        for raw in LOW_LABELS:
            assert labelmap.priority_of([raw], maps.priority) is PriorityClass.LOW
        for raw in DUPLICATE_CLUSTER:
            assert maps.clusters.cluster_of(raw) == "duplicate"
        for raw in WONTFIX_CLUSTER:
            assert maps.clusters.cluster_of(raw) == "won't fix"
        assert len(maps.clusters.representatives) == 66
        rng = random.Random(8)
        pool = list(maps.clusters.lookup)
        for _ in range(50):
            labels = rng.sample(pool, rng.randint(0, 6))
            vec = labelmap.label_features(labels, maps.clusters)
            assert vec.shape == (66,)
            assert set(np.unique(vec)) <= {0, 1}
            shuffled = labels[:]
            rng.shuffle(shuffled)
            assert np.array_equal(
                labelmap.label_features(shuffled, maps.clusters), vec)


def test_criterion_12_tokenizer_goldens_and_idempotence():
    with criterion(12, "30 tokenizer goldens pass; abstraction idempotent on 500 texts"):
        inputs = (FIXTURES / "goldens" / "tokenizer_input.txt").read_text(
            encoding="utf-8").splitlines()
        expected = (FIXTURES / "goldens" / "tokenizer_expected.txt").read_text(
            encoding="utf-8").splitlines()
        assert len(inputs) == 30

        def unescape(s):
            out, i = [], 0
            while i < len(s):
                if s[i] == "\\" and i + 1 < len(s) and s[i + 1] in "\\nt":
                    out.append({"\\": "\\", "n": "\n", "t": "\t"}[s[i + 1]])
                    i += 2
                else:
                    out.append(s[i])
                    i += 1
            return "".join(out)

        for raw, want in zip(inputs, expected):
            got = " ".join(normalize_pipeline(unescape(raw)).tokens)
            assert got == want
        rng = random.Random(99)
        atoms = ["word", "Another", "camelCase", "x_y_z", "https://ex.com/p?q=1",
                 "www.h.org", "dev@example.com", "@someone", "/usr/lib/app",
                 "C:\\win\\path", "2020-01-30", "1/2/21", "10:45", "7:03 pm",
                 "calc(a, b)", "`code`", "```fenced\nblock```", "# head",
                 "**strong**", "- li", "> q", "[x]", "???", "⟨URL⟩", "⟨CODE⟩"]
        for _ in range(500):
            text = " ".join(rng.choice(atoms) for _ in range(rng.randint(1, 12)))
            once = _abstract(text)[0]
            assert _abstract(once)[0] == once


def test_criterion_13_determinism_of_commands(tmp_path):
    with criterion(13, "train/evaluate re-runs are byte-identical"):
        shutil.copy(FIXTURES / "planted_corpus.jsonl", tmp_path / "corpus.jsonl")
        shutil.copy(str(FIXTURES / "planted_corpus.jsonl") + ".meta.json",
                    tmp_path / "corpus.jsonl.meta.json")
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"seed": 3, "model": {"hyperparams": {"n_trees": 10, "max_depth": 8}}}))
        pairs = {}
        for tag in ("one", "two"):
            model = tmp_path / f"model_{tag}.json"
            report = tmp_path / f"report_{tag}.json"
            assert cli.main(["--config", str(config), "train-priority",
                             "--in", str(tmp_path / "corpus.jsonl"),
                             "--model", str(model)]) == 0
            assert cli.main(["--config", str(config), "evaluate",
                             "--in", str(tmp_path / "corpus.jsonl"),
                             "--mode", "cross-project", "--report", str(report)]) == 0
            pairs[tag] = (model.read_bytes(),
                          Path(str(model) + ".assets.json").read_bytes(),
                          report.read_bytes())
        assert pairs["one"][0] == pairs["two"][0]
        assert pairs["one"][1] == pairs["two"][1]
        assert pairs["one"][2] == pairs["two"][2]
