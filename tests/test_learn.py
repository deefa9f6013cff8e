import argparse
import dataclasses
import functools
import inspect
import itertools
import json
import math
import os
import random
import signal
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import in_child, make_issue, wait_for
from issuetriage import cli, evalkit, learn
from issuetriage.corpus import PriorityClass, SettingError
from issuetriage.decode import Field, Table
from issuetriage.learn import (
    TrainingError,
    balance_with_smote,
    compute_class_weights,
    fit_knn,
    fit_logreg,
    fit_multinomial_nb,
    fit_random_forest,
    keyword_classify,
    load_model,
    logreg_loss_and_grad,
    manual_priority_weights,
    rank_baseline,
    save_model,
    smote,
)
from issuetriage.textnorm import TokenizedDoc


class TestClassWeights:
    def test_paper_counts(self):
        weights = compute_class_weights(["HP"] * 44733 + ["LP"] * 37986)
        assert weights["HP"] == pytest.approx(1.8492, abs=1e-3)
        assert weights["LP"] == pytest.approx(82719 / 37986, abs=1e-9)

    def test_balanced_symmetry(self):
        weights = compute_class_weights(["a"] * 10 + ["b"] * 10)
        assert weights == {"a": 2.0, "b": 2.0}

    def test_doubling_halves_weights(self):
        rng = random.Random(4)
        for _ in range(50):
            counts = {c: rng.randint(1, 50) for c in "abc"}
            labels = [c for c, n in counts.items() for _ in range(n)]
            w1 = compute_class_weights(labels)
            w2 = compute_class_weights(labels * 2)
            for c in counts:
                assert w2[c] == pytest.approx(w1[c])  # N and freq both double
            # inverse-frequency ratio property
            assert w1["a"] / w1["b"] == pytest.approx(counts["b"] / counts["a"])

    def test_empty_rejected(self):
        with pytest.raises(TrainingError):
            compute_class_weights([])

    def test_manual_grid(self):
        w = manual_priority_weights(6)
        assert w["High"] == pytest.approx(0.6)
        assert w["Low"] == pytest.approx(0.4)
        for i in range(1, 10):
            manual_priority_weights(i)
        with pytest.raises(ValueError):
            manual_priority_weights(0)
        with pytest.raises(ValueError):
            manual_priority_weights(10)


class TestKeywordBaseline:
    def test_bug_keywords(self):
        probs = keyword_classify(TokenizedDoc(("crash", "fix", "today")))
        assert probs.tolist() == [1.0, 0.0, 0.0]

    def test_support_keywords(self):
        probs = keyword_classify(TokenizedDoc(("?", "how")))
        assert probs.tolist() == [0.0, 0.0, 1.0]

    def test_no_keywords_uniform(self):
        probs = keyword_classify(TokenizedDoc(("lorem", "ipsum")))
        assert np.allclose(probs, 1 / 3)

    def test_tie_uniform_over_tied(self):
        probs = keyword_classify(TokenizedDoc(("crash", "feature")))
        assert probs.tolist() == [0.5, 0.5, 0.0]


def nb_oracle(train_X, train_y, x, n_classes, alpha):
    """Direct Bayes arithmetic, independent of the fitted implementation."""
    n, v = train_X.shape
    posts = []
    for c in range(n_classes):
        rows = train_X[np.array(train_y) == c]
        prior = len(rows) / n
        totals = rows.sum(axis=0)
        denom = totals.sum() + alpha * v
        p = prior
        for j in range(v):
            theta = (totals[j] + alpha) / denom
            p *= theta ** x[j]
        posts.append(p)
    total = sum(posts)
    return [p / total if total else 0.0 for p in posts]


class TestMultinomialNB:
    def test_single_class_always_certain(self):
        X = np.array([[1.0, 0.0], [0.0, 2.0]])
        model = fit_multinomial_nb(X, ["only", "only"])
        probs = model.predict_proba(np.array([[3.0, 1.0]]))
        assert probs[0, 0] == pytest.approx(1.0)

    def test_toy_corpus_matches_oracle(self):
        X = np.array([[2, 0, 1], [1, 1, 0], [0, 2, 1], [0, 1, 2]], dtype=float)
        y = ["a", "a", "b", "b"]
        model = fit_multinomial_nb(X, y, alpha=1.0)
        y_idx = [0, 0, 1, 1]
        for x in [np.array([1.0, 0, 0]), np.array([0, 1.0, 2.0]), np.array([2.0, 2, 2])]:
            got = model.predict_proba(x[None, :])[0]
            want = nb_oracle(X, y_idx, x, 2, 1.0)
            assert np.allclose(got, want, atol=1e-9)

    def test_identical_docs_give_priors(self):
        X = np.ones((5, 3))
        model = fit_multinomial_nb(X, ["a", "a", "a", "b", "b"])
        probs = model.predict_proba(np.ones((1, 3)))[0]
        assert probs[0] == pytest.approx(3 / 5)
        assert probs[1] == pytest.approx(2 / 5)

    def test_negative_features_rejected(self):
        with pytest.raises(TrainingError):
            fit_multinomial_nb(np.array([[1.0, -0.5]]), ["a"])

    def test_absent_class_gets_zero_probability(self):
        X = np.array([[1.0], [2.0]])
        model = fit_multinomial_nb(X, ["a", "a"], classes=("a", "b"))
        probs = model.predict_proba(X)
        assert np.allclose(probs[:, 1], 0.0)
        assert np.allclose(probs.sum(axis=1), 1.0)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, -math.inf])
    def test_non_finite_or_negative_features_rejected(self, bad):
        X = np.array([[1.0, 1.0], [1.0, 2.0]])
        X[0, 0] = bad
        with pytest.raises(TrainingError):
            fit_multinomial_nb(X, ["a", "b"])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_no_rows_gives_every_class_the_log_zero_prior(self):
        model = fit_multinomial_nb(np.zeros((0, 3)), [], classes=("a", "b"))
        assert model.params["log_prior"].tolist() == [learn._LOG_ZERO] * 2
        assert np.array_equal(model.params["log_likelihood"], np.full((2, 3), -math.log(3)))

    @pytest.mark.parametrize("rows", ["dense", "sparse"])
    @pytest.mark.parametrize("seed", range(14))
    def test_class_sums_match_mask_formula(self, seed, rows):
        """The fitted likelihoods equal those from X[y == c].sum(axis=0), bit
        for bit, on integer counts and on TF-IDF-like floats, with a class
        that has no rows, from a dense X and from its ``SparseRows`` built row
        by row. The 2000-row cases are large enough that a one-hot matmul,
        whose BLAS kernel reorders the row sum, is not identical."""
        rng = np.random.default_rng(seed)
        n, d = (2000, 200) if seed >= 12 else (int(rng.integers(1, 40)), int(rng.integers(1, 60)))
        if seed % 2:
            X = rng.poisson(0.7, size=(n, d)).astype(float)
        else:
            X = rng.random((n, d)) * (rng.random((n, d)) < 0.2)
            X /= np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-12)
        classes = ("a", "b", "c")[:2 + seed % 2] + ("empty",)
        labels = [classes[i] for i in rng.integers(0, len(classes) - 1, size=n)]
        y = np.array([classes.index(lb) for lb in labels])
        term_counts = np.vstack([X[y == c].sum(axis=0) for c in range(len(classes))])
        smoothed = term_counts + 0.5
        want = np.log(smoothed) - np.log(smoothed.sum(axis=1, keepdims=True))
        if rows == "sparse":
            X = learn.SparseRows.from_dense(X)
        got = fit_multinomial_nb(X, labels, alpha=0.5, classes=classes)
        assert got.params["log_likelihood"].tobytes() == want.tobytes()

    def test_fit_does_not_copy_the_matrix(self):
        X = np.zeros((400, 20_000))
        X[np.arange(400), np.arange(400) * 7] = 1.0
        labels = ["a", "b", "c", "d"] * 100
        tracemalloc.start()
        try:
            fit_multinomial_nb(X, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.2 * X.nbytes


class TestLogReg:
    def test_separable_two_points(self):
        X = np.array([[0.0], [1.0]])
        model = fit_logreg(X, ["lo", "hi"], epochs=300)
        assert model.predict(X) == ["lo", "hi"]  # training accuracy 1.0

    def test_training_accuracy_on_separable(self):
        rng = np.random.default_rng(2)
        X = np.vstack([rng.normal(-3, 0.5, size=(20, 2)),
                       rng.normal(3, 0.5, size=(20, 2))])
        y = ["a"] * 20 + ["b"] * 20
        model = fit_logreg(X, y, epochs=200)
        assert model.predict(X) == y

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(20, 10))
        y = rng.integers(0, 2, size=20)
        sw = rng.uniform(0.5, 2.0, size=20)
        W = rng.normal(scale=0.3, size=(10, 2))
        b = rng.normal(scale=0.3, size=2)
        l2 = 0.01
        _, grad_W, grad_b = logreg_loss_and_grad(W, b, X, y, sw, l2)
        eps = 1e-6
        for idx in [(0, 0), (3, 1), (9, 0), (5, 1)]:
            Wp, Wm = W.copy(), W.copy()
            Wp[idx] += eps
            Wm[idx] -= eps
            lp, _, _ = logreg_loss_and_grad(Wp, b, X, y, sw, l2)
            lm, _, _ = logreg_loss_and_grad(Wm, b, X, y, sw, l2)
            assert grad_W[idx] == pytest.approx((lp - lm) / (2 * eps), abs=1e-5)
        for j in range(2):
            bp, bm = b.copy(), b.copy()
            bp[j] += eps
            bm[j] -= eps
            lp, _, _ = logreg_loss_and_grad(W, bp, X, y, sw, l2)
            lm, _, _ = logreg_loss_and_grad(W, bm, X, y, sw, l2)
            assert grad_b[j] == pytest.approx((lp - lm) / (2 * eps), abs=1e-5)

    def test_loss_monotone_non_increasing(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 4))
        y = ["a" if x[0] + x[1] > 0 else "b" for x in X]
        model = fit_logreg(X, y, lr=2.0, epochs=120)
        losses = model.metadata["loss_history"]
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_minority_weighting_helps_recall(self):
        rng = np.random.default_rng(5)
        X = np.vstack([rng.normal(-1, 1.2, size=(40, 2)),
                       rng.normal(1, 1.2, size=(8, 2))])
        y = ["maj"] * 40 + ["min"] * 8
        plain = fit_logreg(X, y, epochs=150)
        weighted = fit_logreg(X, y, weights={"maj": 1.0, "min": 5.0},
                              epochs=150)

        def minority_recall(model):
            pred = model.predict(X)
            hits = sum(1 for p, t in zip(pred, y) if t == "min" and p == "min")
            return hits / 8

        assert minority_recall(weighted) >= minority_recall(plain)

    def test_nonfinite_features_rejected(self):
        with pytest.raises(TrainingError):
            fit_logreg(np.array([[np.inf]]), ["a"])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nan_and_infinities_among_finite_rejected(self, bad):
        with pytest.raises(TrainingError):
            fit_logreg(np.array([[0.0], [bad]]), ["lo", "hi"])


def best_split_oracle(x, y_binary):
    """Exhaustive scan of every midpoint; returns weighted child Gini minimum."""
    order = np.argsort(x)
    xs, ys = x[order], np.array(y_binary)[order]
    best = (None, math.inf)
    n = len(xs)
    for i in range(n - 1):
        if xs[i] == xs[i + 1]:
            continue
        threshold = (xs[i] + xs[i + 1]) / 2
        left, right = ys[: i + 1], ys[i + 1:]

        def gini(part):
            if len(part) == 0:
                return 0.0
            p = np.mean(part)
            return 1 - p ** 2 - (1 - p) ** 2

        weighted = (len(left) * gini(left) + len(right) * gini(right)) / n
        if weighted < best[1]:
            best = (threshold, weighted)
    return best


def listed(params: dict) -> dict:
    """Forest params with the importances ndarray as a list, so ``==``
    compares every value."""
    return {**params, "importances": params["importances"].tolist()}


class TestRandomForest:
    def test_single_tree_reproduces_threshold(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0], [10.0], [11.0], [12.0], [13.0]])
        y = ["lo"] * 4 + ["hi"] * 4
        model = fit_random_forest(X, y, n_trees=1, max_depth=1,
                                  max_features="sqrt", seed=5)
        tree = model.params["trees"][0]
        # bootstrap resamples rows, so compare against the oracle on the
        # resampled node rather than the raw training set
        rng = np.random.default_rng(np.random.SeedSequence(5).spawn(1)[0])
        idx = rng.choice(8, size=8, replace=True, p=np.full(8, 1 / 8))
        want_threshold, _ = best_split_oracle(
            X[idx, 0], [1 if y[i] == "hi" else 0 for i in idx])
        assert tree["f"] == 0
        assert tree["t"] == pytest.approx(want_threshold)

    def test_pure_node_becomes_leaf(self):
        X = np.array([[0.0], [0.2], [5.0], [5.2]])
        y = ["a", "a", "b", "b"]
        model = fit_random_forest(X, y, n_trees=3, max_depth=None,
                                  max_features="sqrt", seed=0)
        def leaves(tree):
            if "leaf" in tree:
                yield tree["leaf"]
            else:
                yield from leaves(tree["l"])
                yield from leaves(tree["r"])
        for tree in model.params["trees"]:
            for leaf in leaves(tree):
                assert max(leaf) == 1.0  # every leaf is pure

    def test_determinism_same_seed(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 5))
        y = ["a" if r[0] > 0 else "b" for r in X]
        m1 = fit_random_forest(X, y, n_trees=8, seed=123)
        m2 = fit_random_forest(X, y, n_trees=8, seed=123)
        assert listed(m1.params) == listed(m2.params)
        probe = rng.normal(size=(10, 5))
        assert np.array_equal(m1.predict_proba(probe), m2.predict_proba(probe))
        m3 = fit_random_forest(X, y, n_trees=8, seed=124)
        assert m1.params != m3.params

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(30, 4))
        y = ["a" if r[0] > 0 else "b" for r in X]
        model = fit_random_forest(X, y, n_trees=5, seed=2)
        probs = model.predict_proba(rng.normal(size=(20, 4)))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all((probs >= 0) & (probs <= 1))

    def test_single_class_rejected(self):
        with pytest.raises(TrainingError):
            fit_random_forest(np.ones((3, 1)), ["a", "a", "a"])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        X = np.zeros((6, 3))
        X[:, 0] = [0, 1, 0, 1, 0, 1]
        X[4, 2] = bad
        with pytest.raises(TrainingError, match="finite"):
            fit_random_forest(X, ["a", "b"] * 3, n_trees=2)


def reference_best_split(X, y, idx, features, n_classes, min_leaf):
    """The per-feature splitter the vectorized one replaced, kept verbatim as
    its oracle."""
    node_y = y[idx]
    n = len(idx)
    counts = np.bincount(node_y, minlength=n_classes).astype(float)
    best = None
    for f in features:
        vals = X[idx, f]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        sy = node_y[order]
        cut = np.nonzero(sv[1:] > sv[:-1])[0]
        if cut.size == 0:
            continue
        onehot = np.zeros((n, n_classes))
        onehot[np.arange(n), sy] = 1.0
        cum = np.cumsum(onehot, axis=0)
        left = cum[cut]
        n_left = cut + 1.0
        n_right = n - n_left
        ok = (n_left >= min_leaf) & (n_right >= min_leaf)
        if not ok.any():
            continue
        right = counts - left
        gini_l = 1.0 - ((left / n_left[:, None]) ** 2).sum(axis=1)
        gini_r = 1.0 - ((right / n_right[:, None]) ** 2).sum(axis=1)
        weighted = (n_left * gini_l + n_right * gini_r) / n
        weighted = np.where(ok, weighted, np.inf)
        pos = int(np.argmin(weighted))
        if best is None or weighted[pos] < best[2]:
            threshold = (sv[cut[pos]] + sv[cut[pos] + 1]) / 2.0
            best = (int(f), float(threshold), float(weighted[pos]))
    return best


def _split_case(rng, column_kind):
    """One random node: few distinct values per column so ties abound,
    bootstrap-style duplicate rows and an unsorted feature subset."""
    n, d = int(rng.integers(2, 30)), int(rng.integers(1, 10))
    if column_kind == "integer":
        X = rng.integers(-3, 4, size=(n, d)).astype(float)
    elif column_kind == "scaled":
        X = rng.integers(0, 3, size=(n, d)) * rng.uniform(0.1, 3.0, size=d)
    elif column_kind == "constant":
        X = np.full((n, d), -1.5)
    elif column_kind == "sparse":  # about 92 % zeros, the rest in {-2, -1, 1, 2} x scale
        X = (rng.integers(-2, 3, size=(n, d)) * rng.uniform(0.1, 3.0, size=d)
             * (rng.random((n, d)) < 0.1))
    else:
        X = rng.normal(size=(n, d))
    n_classes = int(rng.integers(2, 4))
    y = rng.integers(0, n_classes, size=n)
    idx = rng.choice(n, size=int(rng.integers(2, n + 6)), replace=True)
    features = rng.permutation(d)[:int(rng.integers(1, d + 1))]
    return X, y, idx, features, n_classes


def indexed_best_split(X, y, idx, features, n_classes, min_leaf):
    """``learn._best_split`` through ``X``'s column index, called as
    ``reference_best_split`` is."""
    idx, features = np.asarray(idx), np.asarray(features)
    counts = np.bincount(y[idx], minlength=n_classes).astype(float)
    return learn._best_split(learn.column_index(X), y, idx, features, counts, min_leaf)


def reference_column_index(X):
    """The dense block scan ``learn.column_index`` used before it read
    ``SparseRows``, kept verbatim as its oracle. Its ``rows`` are int64; the
    index keeps them as int32."""
    n, d = X.shape
    step = max(1, (1 << 21) // max(d, 1))
    flat = np.concatenate([np.flatnonzero(X[i:i + step] != 0) + i * d
                           for i in range(0, n, step)])
    rows, cols = np.divmod(flat, d)
    values = np.concatenate([X[rows, cols], np.zeros(d)])
    rows = np.concatenate([rows, np.full(d, n)])
    cols = np.concatenate([cols, np.arange(d)])
    order = np.lexsort((values, cols))
    rows, values = rows[order], values[order]
    indptr = np.zeros(d + 1, dtype=np.intp)
    np.cumsum(np.bincount(cols, minlength=d), out=indptr[1:])
    return indptr, rows, values, np.flatnonzero(rows == n), n


def _tfidf_forest_case():
    """(X, labels, fit options) near the 2k training shape: a 1 %-dense block
    of TF-IDF-like weights beside a few dense [0, 1] columns, 3 classes,
    class weights and sqrt(d) drawn features."""
    rng = np.random.default_rng(23)
    n, d_text = 240, 900
    text = rng.uniform(0.02, 0.6, size=(n, d_text)).round(3) * (rng.random((n, d_text)) < 0.01)
    meta = rng.integers(0, 5, size=(n, 6)) / 4
    X = np.hstack([text, meta])
    label = (text[:, :40] > 0).sum(axis=1) + (meta[:, 0] > 0.5)
    y = [("Bug", "Enhancement", "SupportDoc")[int(v) % 3] for v in label]
    return X, y, {"weights": compute_class_weights(y), "n_trees": 4, "max_depth": 12,
                  "max_features": "sqrt", "seed": 9}


def _mixed_forest_case(min_leaf, n_classes):
    """(X, labels, fit options): a small integer block and a scaled one
    beside all-zero columns."""
    rng = np.random.default_rng(17)
    X = np.hstack([rng.integers(0, 4, size=(80, 12)).astype(float),
                   rng.integers(0, 3, size=(80, 6)) * 0.37,
                   np.zeros((80, 3))])
    y = [("a", "b", "c")[(int(r[0]) + int(r[13] > 0)) % n_classes] for r in X]
    return X, y, {"weights": compute_class_weights(y), "n_trees": 6, "max_depth": 6,
                  "min_leaf": min_leaf, "max_features": 5, "seed": 9}


def dense_reference_splitter(X):
    """``reference_best_split`` on the dense ``X``, called as ``learn._best_split`` is."""
    return lambda cols, y, idx, features, counts, min_leaf: \
        reference_best_split(X, y, idx, features, len(counts), min_leaf)


# NaN, the infinities, and columns all negative, all positive and empty
SPECIAL = np.array([[np.nan, -np.inf, -1.0, 2.0, 0.0, -3.0, 0.0],
                    [1.0, np.inf, -2.0, 1.0, 0.0, 0.0, np.nan],
                    [-1.0, 0.0, -2.0, 0.5, 0.0, np.nan, np.nan],
                    [np.nan, 2.0, -0.5, np.inf, 0.0, -np.inf, 0.0]])


class TestColumnIndex:
    @pytest.mark.parametrize("column_kind", ["integer", "scaled", "normal", "constant",
                                             "sparse"])
    def test_sparse_rows_give_the_dense_scan_index(self, column_kind):
        """From ``SparseRows`` and from the dense X, the same index as the
        dense block scan, tie order included."""
        rng = np.random.default_rng(7 + len(column_kind))
        cases = [_split_case(rng, column_kind)[0] for _ in range(50)]
        wide = np.zeros((3, 1 << 20))
        wide[[0, 0, 1, 2, 2], [5, (1 << 20) - 1, 5, 0, 7]] = [0.5, -1.0, 0.25, 2.0, -0.125]
        for X in cases + [wide, np.where(cases[0] > 0, cases[0], -0.0)]:
            self._assert_matches_reference(X)

    def test_special_columns_give_the_dense_scan_index(self):
        """NaN (which sorts last, with the positives), the infinities, and
        columns all negative, all positive and empty."""
        for M in (SPECIAL, SPECIAL[:, 2:3], SPECIAL[:, 3:4], SPECIAL[:, 4:5], np.zeros((3, 2))):
            self._assert_matches_reference(M)

    def test_gathered_in_chunks_gives_the_same_index(self, monkeypatch):
        """Sorted entries gathered three at a time, in several chunks."""
        monkeypatch.setattr(learn, "_GATHER_CHUNK", 3)
        rng = np.random.default_rng(11)
        cases = [_split_case(rng, kind)[0] for kind in ("integer", "normal", "sparse")]
        for X in (SPECIAL, *cases):
            assert np.count_nonzero(X) > 3
            self._assert_matches_reference(X)

    def test_too_many_rows_for_int32_is_a_training_error(self):
        # 2**31 empty rows: a zero-stride indptr, so nothing large is allocated
        indptr = np.broadcast_to(np.intp(0), (2 ** 31 + 1,))
        X = learn.SparseRows(indptr, np.zeros(0, np.int32), np.zeros(0), (2 ** 31, 1))
        with pytest.raises(TrainingError, match="2\\*\\*31 - 1 rows"):
            learn.column_index(X)

    @pytest.mark.parametrize("nnz, d", [(1, 2 ** 31 - 1), (2 ** 31 - 1, 1), (2 ** 31, 0)])
    def test_too_many_entries_for_int32_is_a_training_error(self, nnz, d):
        """Non-zeros plus zero slots of 2**31 or more are refused from the
        shape and ``cols.size`` alone, before anything is allocated: the
        entries here are zero-stride views of one value."""
        X = learn.SparseRows(np.array([0, nnz]), np.broadcast_to(np.int32(0), (nnz,)),
                             np.broadcast_to(1.0, (nnz,)), (1, d))
        tracemalloc.start()
        try:
            with pytest.raises(TrainingError, match="2\\*\\*31 - 1 entries"):
                learn.column_index(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @staticmethod
    def _assert_matches_reference(X):
        """The same index from ``X`` and from its ``SparseRows`` as the
        oracle's, in bytes, with its rows as int32."""
        indptr, rows, values, zero_slot, n = reference_column_index(X)
        want = (indptr, rows.astype(np.int32), values, zero_slot)
        for source in (X, learn.SparseRows.from_dense(X)):
            cols = learn.column_index(source)
            got = (cols.indptr, cols.rows, cols.values, cols.zero_slot)
            assert cols.n_rows == n
            assert all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in zip(got, want))

    @pytest.mark.parametrize("column_kind", ["integer", "scaled", "normal", "constant",
                                             "sparse"])
    def test_round_trip_rebuilds_x(self, column_kind):
        rng = np.random.default_rng(len(column_kind))
        for _ in range(50):
            X = _split_case(rng, column_kind)[0]
            self._assert_rebuilds(X)

    def test_round_trip_over_row_blocks(self):
        # a wide X: 2**20 columns, five non-zeros in three rows
        X = np.zeros((3, 1 << 20))
        X[[0, 0, 1, 2, 2], [5, (1 << 20) - 1, 5, 0, 7]] = [0.5, -1.0, 0.25, 2.0, -0.125]
        self._assert_rebuilds(X)

    @staticmethod
    def _assert_rebuilds(X):
        n, d = X.shape
        cols = learn.column_index(X)
        column = np.repeat(np.arange(d), np.diff(cols.indptr))
        assert cols.indptr[0] == 0 and cols.indptr[-1] == cols.rows.size == cols.values.size
        # one zero slot per column, no row, value 0, after the negatives
        assert np.array_equal(column[cols.zero_slot], np.arange(d))
        assert np.all(cols.rows[cols.zero_slot] == n) and np.all(cols.values[cols.zero_slot] == 0)
        assert np.count_nonzero(cols.rows == n) == d
        for j in range(d):
            values = cols.values[cols.indptr[j]:cols.indptr[j + 1]]
            assert np.all(values[1:] >= values[:-1])
        real = cols.rows < n
        rebuilt = np.zeros_like(X)
        rebuilt[cols.rows[real], column[real]] = cols.values[real]
        assert np.array_equal(rebuilt, X)
        assert np.count_nonzero(real) == np.count_nonzero(X)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # no cut may leave a side empty
class TestBestSplitOracle:
    @pytest.mark.parametrize("column_kind", ["integer", "scaled", "normal", "constant",
                                             "sparse"])
    @pytest.mark.parametrize("min_leaf", [1, 2, 4])
    def test_seeded_cases_match_exactly(self, column_kind, min_leaf):
        rng = np.random.default_rng(min_leaf * 100 + len(column_kind))
        for _ in range(150):
            case = _split_case(rng, column_kind)
            want = reference_best_split(*case, min_leaf)
            assert indexed_best_split(*case, min_leaf) == want
            if column_kind == "constant":
                assert want is None

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n_classes=st.integers(2, 3), min_leaf=st.sampled_from([1, 2, 4]),
           scale=st.sampled_from([1.0, 0.25, -3.0]))
    def test_hypothesis_cases_match_exactly(self, data, n_classes, min_leaf, scale):
        n = data.draw(st.integers(2, 16))
        d = data.draw(st.integers(1, 5))
        cells = data.draw(st.lists(st.integers(-2, 2), min_size=n * d, max_size=n * d))
        X = np.array(cells, dtype=float).reshape(n, d) * scale
        y = np.array(data.draw(st.lists(st.integers(0, n_classes - 1),
                                        min_size=n, max_size=n)))
        idx = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=2,
                                          max_size=2 * n)))
        features = np.array(data.draw(st.permutations(range(d))))
        features = features[:data.draw(st.integers(1, d))]
        assert indexed_best_split(X, y, idx, features, n_classes, min_leaf) == \
            reference_best_split(X, y, idx, features, n_classes, min_leaf)

    def test_earlier_feature_wins_a_tie(self):
        X = np.array([[0.0, 5.0], [0.0, 5.0], [1.0, 7.0], [1.0, 7.0]])
        y = np.array([0, 0, 1, 1])
        for features in ([0, 1], [1, 0]):
            split = indexed_best_split(X, y, np.arange(4), np.array(features), 2, 1)
            assert split[0] == features[0]
            assert split == reference_best_split(X, y, np.arange(4), features, 2, 1)

    @pytest.mark.parametrize("min_leaf, n_classes", [(1, 2), (2, 3)])
    def test_forest_params_equal_with_reference_splitter(self, monkeypatch, min_leaf,
                                                         n_classes):
        X, y, options = _mixed_forest_case(min_leaf, n_classes)
        fit = lambda: listed(fit_random_forest(X, y, **options).params)
        new = fit()
        monkeypatch.setattr(learn, "_best_split", dense_reference_splitter(X))
        assert new == fit()

    def test_forest_equals_reference_on_sparse_tfidf_like_input(self, monkeypatch):
        X, y, options = _tfidf_forest_case()
        fit = lambda: listed(fit_random_forest(X, y, **options).params)
        new = fit()
        monkeypatch.setattr(learn, "_best_split", dense_reference_splitter(X))
        assert new == fit()


class TestSparseForest:
    """A forest fit on ``SparseRows`` equals one fit on the dense X, and its
    predictions from either form are the same bytes."""

    @pytest.mark.parametrize("case", [(1, 2), (2, 3), "tfidf"],
                             ids=["mixed-2", "mixed-3", "tfidf"])
    def test_params_and_probabilities_equal_from_dense_and_sparse(self, case):
        X, y, options = _tfidf_forest_case() if case == "tfidf" else _mixed_forest_case(*case)
        sparse = learn.SparseRows.from_dense(X)
        dense_model, sparse_model = (fit_random_forest(M, y, **options) for M in (X, sparse))
        assert listed(sparse_model.params) == listed(dense_model.params)
        probe = X[::-1] * (np.arange(len(X))[:, None] % 3 > 0)  # new rows, new zeros
        want = dense_model.predict_proba(probe).tobytes()
        for model in (dense_model, sparse_model):
            for rows in (probe, learn.SparseRows.from_dense(probe)):
                assert model.predict_proba(rows).tobytes() == want

    def test_prediction_builds_one_index_per_matrix(self, monkeypatch):
        """Both of a predict's forest calls read the index kept with X, built
        as a fit builds its own."""
        X, y, options = _tfidf_forest_case()
        model = fit_random_forest(X, y, **options)
        sparse = learn.SparseRows.from_dense(X[::-1])
        built, column_index = [], learn.column_index
        monkeypatch.setattr(learn, "column_index", lambda M: built.append(M) or column_index(M))
        first, second = model.predict_proba(sparse), model.predict_proba(sparse)
        assert built == [sparse] and first.tobytes() == second.tobytes()
        kept, fresh = sparse.by_column, column_index(sparse)
        assert all(getattr(kept, name).tobytes() == getattr(fresh, name).tobytes()
                   for name in ("indptr", "rows", "values", "zero_slot"))

    def test_column_at_leaves_the_scratch_buffer_zero(self):
        X = _tfidf_forest_case()[0]
        cols = learn.column_index(X)
        rows = np.array([5, 0, 5, 239])
        for j in (0, 450, 905):
            assert np.array_equal(cols.column_at(j, rows), X[rows, j])
            assert not cols.scratch.any()


@pytest.fixture(scope="module")
def planted_forest_case(planted_corpus, maps):
    """(X, labels, fit options) of the criterion-09 spec's forest fit on the
    planted fixture, as ``evaluate --mode cross-project`` makes it."""
    calls, fit = [], learn.fit_random_forest

    @functools.wraps(fit)
    def spy(X, labels, **options):
        calls.append((X, labels, options))
        return fit(X, labels, **options)

    spec = evalkit.ModelSpec(classifier="forest", balancing="weights", seed=11,
                             hyperparams={"n_trees": 100, "max_depth": 12, "max_features": 128})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(learn, "fit_random_forest", spy)
        evalkit.evaluate_cross_project(planted_corpus, spec, maps)
    (case,) = calls
    return case


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForestWorkers:
    """The trees are grown by one process per CPU (``learn._cpus``), all but
    the first forked from the fit. The model is the same bytes for any
    number of them, a worker's failure is a ``TrainingError``, and no child
    outlives a fit."""

    @pytest.mark.parametrize("case", ["mixed-2", "mixed-3", "tfidf", "criterion-09"])
    def test_model_bytes_do_not_depend_on_the_worker_count(self, request, monkeypatch,
                                                           tmp_path, case):
        X, y, options = {
            "mixed-2": lambda: _mixed_forest_case(1, 2),
            "mixed-3": lambda: _mixed_forest_case(2, 3),
            "tfidf": _tfidf_forest_case,
            "criterion-09": lambda: request.getfixturevalue("planted_forest_case"),
        }[case]()
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        got = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(learn, "_cpus", lambda: cpus)
            model = fit_random_forest(X, y, **options)
            assert_no_child_left()
            assert len(forks) == cpus - 1
            forks.clear()
            save_model(model, tmp_path / "model.json")
            got.append(((tmp_path / "model.json").read_bytes(),
                         model.params["importances"].tobytes(),
                         model.predict_proba(X).tobytes()))
        assert got[1] == got[0] and got[2] == got[0]

    def test_each_result_comes_back_to_its_place(self, monkeypatch, tmp_path):
        """More items than tickets, so a ticket carries several; the caller
        and its worker both take some."""
        started, parent = tmp_path / "started", os.getpid()

        def work(i):
            if os.getpid() != parent:
                started.touch()
            else:
                wait_for(started)
            return i * i, os.getpid()
        monkeypatch.setattr(learn, "_cpus", lambda: 2)
        items = list(range(2 * learn._TICKETS + 5))
        got = learn._on_every_cpu(work, items)
        assert_no_child_left()
        assert [square for square, _ in got] == [i * i for i in items]
        assert len({pid for _, pid in got}) == 2

    @pytest.mark.parametrize("fault, message", [
        (lambda: 1 / 0, "failed: ZeroDivisionError: division by zero"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), r"died \(signal 9\)"),
        (lambda: os._exit(3), r"died \(exit status 3\)"),
    ], ids=["raises", "killed", "exits"])
    def test_a_failing_worker_is_a_training_error(self, monkeypatch, tmp_path, fault, message):
        X, y, options = _tfidf_forest_case()
        monkeypatch.setattr(learn, "_grow_tree", in_child(fault, tmp_path / "started"))
        monkeypatch.setattr(learn, "_cpus", lambda: 3)
        with pytest.raises(TrainingError, match=message):
            fit_random_forest(X, y, **options)
        assert_no_child_left()

    def test_an_interrupted_fit_kills_its_workers(self, monkeypatch, tmp_path):
        """The caller is interrupted at its first tree while its worker
        sleeps 20 s in its first: the worker is killed and reaped at once."""
        X, y, options = _tfidf_forest_case()
        parent, slept = os.getpid(), []
        grow = in_child(lambda: slept or slept.append(time.sleep(20)), tmp_path / "started")

        def grow_tree(*args, **kwargs):
            tree = grow(*args, **kwargs)
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return tree
        monkeypatch.setattr(learn, "_grow_tree", grow_tree)
        monkeypatch.setattr(learn, "_cpus", lambda: 2)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            fit_random_forest(X, y, **options)
        assert_no_child_left()
        assert time.monotonic() - started < 10

    def test_one_cpu_forks_nothing(self, monkeypatch):
        X, y, options = _mixed_forest_case(1, 2)
        monkeypatch.setattr(learn, "_cpus", lambda: 1)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked on one CPU"))
        assert len(fit_random_forest(X, y, **options).params["trees"]) == options["n_trees"]


class TestSparseRows:
    @pytest.mark.parametrize("n, d", [(0, 4), (1, 1), (3, 5), (7, 40)])
    def test_answers_as_the_dense_matrix_does(self, n, d):
        rng = np.random.default_rng(n * 100 + d)
        X = rng.normal(size=(n, d)) * (rng.random((n, d)) < 0.3)
        sparse = learn.SparseRows.from_dense(X)
        assert len(sparse) == len(X) and sparse.shape == X.shape and sparse.size == X.size
        assert int((sparse != 0).sum()) == int((X != 0).sum())
        assert sparse.nbytes == 8 * (n + 1) + 12 * int((X != 0).sum())
        assert np.array_equal(sparse.to_dense(), X)

    def test_signed_zeros_are_never_stored(self):
        sparse = learn.SparseRows.from_dense(np.array([[0.0, -0.0, 2.0], [-0.0, 1.5, 0.0]]))
        assert sparse.indptr.tolist() == [0, 1, 2] and sparse.cols.tolist() == [2, 1]
        assert sparse.row_ids().tolist() == [0, 1]
        assert sparse.values.tolist() == [2.0, 1.5]

    def test_non_finite_values_are_stored(self):
        X = np.array([[np.nan, 0.0], [0.0, -np.inf]])
        sparse = learn.SparseRows.from_dense(X)
        assert int((sparse != 0).sum()) == int((X != 0).sum()) == 2

    def test_no_rows(self):
        sparse = learn.SparseRows.from_dense(np.zeros((0, 6)))
        assert sparse.shape == (0, 6) and len(sparse) == 0 and sparse.nbytes == 8
        assert sparse.to_dense().shape == (0, 6)


# a cell of a layout case: zeros of both signs (never stored), NaN, the
# infinities and finite values of both signs
CELLS = st.sampled_from([0.0, 0.0, 0.0, 0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0,
                         np.nan, np.inf, -np.inf])


@st.composite
def layout_cases(draw):
    """A dense matrix with empty rows and columns, NaN, the infinities, -0.0
    and some columns made all-negative."""
    n, d = draw(st.integers(1, 9)), draw(st.integers(1, 7))
    X = np.array(draw(st.lists(CELLS, min_size=n * d, max_size=n * d))).reshape(n, d)
    negative = np.array(draw(st.lists(st.booleans(), min_size=d, max_size=d)))
    X[:, negative] = -np.abs(X[:, negative])
    return X


class TestSparseRowsLayout:
    """The CSR layout on generated matrices: it round-trips, its ``indptr``
    and int32 ``cols`` are well formed, and the column index and NB read it
    as they read the dense matrix."""

    @settings(max_examples=200, deadline=None)
    @given(X=layout_cases())
    def test_layout_round_trips(self, X):
        n, d = X.shape
        sparse = learn.SparseRows.from_dense(X)
        assert np.array_equal(sparse.to_dense(), X, equal_nan=True)
        assert sparse.indptr.dtype == np.intp and sparse.indptr.size == n + 1
        assert sparse.indptr[0] == 0 and sparse.indptr[-1] == sparse.cols.size
        assert np.all(np.diff(sparse.indptr) >= 0)
        assert sparse.cols.dtype == np.int32 and sparse.values.dtype == np.float64
        assert sparse.nbytes == 8 * (n + 1) + 12 * int((X != 0).sum())
        for i in range(n):
            row = sparse.cols[sparse.indptr[i]:sparse.indptr[i + 1]]
            assert np.all(np.diff(row) > 0) and np.all((row >= 0) & (row < d))
        assert np.array_equal(sparse.row_ids(), np.nonzero(X)[0])

    @settings(max_examples=200, deadline=None)
    @given(X=layout_cases())
    def test_column_index_equals_the_reference(self, X):
        TestColumnIndex._assert_matches_reference(X)

    @settings(max_examples=200, deadline=None)
    @given(X=layout_cases(), data=st.data())
    def test_nb_params_equal_a_dense_fit(self, X, data):
        """The counts NB stores are the dense per-class sums, bit for bit. NB
        takes finite, non-negative values: the case's magnitudes, its
        non-finite cells as 0; class "c" has no rows."""
        X = np.abs(np.where(np.isfinite(X), X, 0.0))
        classes = ("a", "b", "c")
        labels = data.draw(st.lists(st.sampled_from(classes[:2]), min_size=len(X),
                                    max_size=len(X)))
        y = np.array([classes.index(lb) for lb in labels])
        got = fit_multinomial_nb(learn.SparseRows.from_dense(X), labels, classes=classes)
        want = {"class_counts": np.bincount(y, minlength=3).astype(float),
                "term_counts": np.vstack([X[y == c].sum(axis=0) for c in range(3)])}
        for key, value in want.items():
            assert got.params[key].tobytes() == value.tobytes()


class TestKnn:
    def test_nearest_neighbor_vote(self):
        X = np.array([[0.0], [0.1], [5.0]])
        model = fit_knn(X, ["a", "a", "b"], k=1)
        assert model.predict(np.array([[0.05], [4.9]])) == ["a", "b"]

    def test_probability_fractions(self):
        X = np.array([[0.0], [0.2], [0.4], [5.0]])
        model = fit_knn(X, ["a", "a", "b", "b"], k=3)
        probs = model.predict_proba(np.array([[0.1]]))[0]
        assert probs.tolist() == [pytest.approx(2 / 3), pytest.approx(1 / 3)]

    @staticmethod
    def _subtracting_knn(params, X, n_classes):
        """Reference: the search as first written, a fresh ``train - row``
        difference and its square for every query."""
        train, y, k = params["X"], params["y"], params["k"]
        out = np.zeros((X.shape[0], n_classes))
        for i, row in enumerate(X):
            dist = np.sqrt(((train - row) ** 2).sum(axis=1))
            nearest = np.argsort(dist, kind="stable")[:k]
            votes = np.bincount(y[nearest], minlength=n_classes)
            out[i] = votes / votes.sum()
        return out

    @pytest.mark.parametrize("n,d,k", [(2, 1, 1), (5, 3, 2), (12, 17, 5), (30, 200, 5),
                                       (9, 1000, 3), (7, 40, 10)])
    def test_buffered_search_matches_the_subtracting_loop(self, n, d, k):
        rng = np.random.default_rng(n * d + 1)
        labels = [("a", "b", "c")[i % 3] for i in range(n)]
        cases = [rng.normal(size=(n, d)),
                 # ties: integer grid values and duplicated rows
                 rng.integers(0, 3, size=(n, d)).astype(float),
                 np.repeat(rng.random((1, d)), n, axis=0)]
        for train in cases:
            queries = np.vstack([train, rng.integers(0, 3, size=(4, d)).astype(float),
                                 rng.normal(size=(2, d))])
            model = fit_knn(train, labels, k=k)
            want = self._subtracting_knn(model.params, queries, len(model.classes))
            assert model.predict_proba(queries).tobytes() == want.tobytes()


class TestSmote:
    def test_two_point_segment(self):
        minority = np.array([[0.0, 0.0], [1.0, 1.0]])
        synthetic = smote(minority, majority_count=6, k=1, seed=7)
        assert synthetic.shape == (4, 2)
        for point in synthetic:
            assert point[0] == pytest.approx(point[1])  # stays on the segment
            assert 0.0 <= point[0] <= 1.0

    def test_balanced_is_noop(self):
        synthetic = smote(np.array([[0.0], [1.0]]), majority_count=2, k=1, seed=0)
        assert synthetic.shape == (0, 1)

    def test_synthetics_are_neighbor_interpolations(self):
        minority = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 4.0]])
        synthetic = smote(minority, majority_count=40, k=2, seed=3)
        assert synthetic.shape[0] == 37
        for s in synthetic:
            ok = False
            for a, b in itertools.permutations(range(3), 2):
                d = minority[b] - minority[a]
                denom = float(d @ d)
                lam = float((s - minority[a]) @ d) / denom
                residual = np.linalg.norm(s - (minority[a] + lam * d))
                if -1e-9 <= lam <= 1 + 1e-9 and residual <= 1e-9:
                    ok = True
            assert ok, s

    def test_too_small_minority_rejected(self):
        with pytest.raises(TrainingError):
            smote(np.array([[1.0]]), majority_count=3, k=1, seed=0)

    def test_balance_equalizes_counts(self):
        X = np.vstack([np.zeros((8, 2)), np.ones((3, 2)) + np.arange(3)[:, None]])
        y = ["maj"] * 8 + ["min"] * 3
        X2, y2 = balance_with_smote(X, y, k=2, seed=1)
        assert y2.count("maj") == y2.count("min") == 8
        assert X2.shape == (16, 2)

    @staticmethod
    def _broadcast_smote(minority, majority_count, k, seed):
        """Reference: the neighbours from one (n, n, d) difference array."""
        n = minority.shape[0]
        k = max(1, min(k, n - 1))
        diff = minority[:, None, :] - minority[None, :, :]
        dist = np.sqrt((diff ** 2).sum(axis=2))
        np.fill_diagonal(dist, np.inf)
        neighbor_ids = np.argsort(dist, axis=1, kind="stable")[:, :k]
        n_synthetic = majority_count - n
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, n, size=n_synthetic)
        picks = rng.integers(0, k, size=n_synthetic)
        lams = rng.uniform(0.0, 1.0, size=n_synthetic)
        base = minority[rows]
        return base + lams[:, None] * (minority[neighbor_ids[rows, picks]] - base)

    @pytest.mark.parametrize("n,d,k", [(2, 1, 1), (5, 3, 2), (12, 17, 5), (30, 200, 5),
                                       (9, 1000, 3), (7, 40, 10)])
    def test_row_by_row_neighbours_match_the_broadcast_formula(self, n, d, k):
        rng = np.random.default_rng(n * d)
        cases = [rng.normal(size=(n, d)),
                 # ties: integer grid values and duplicated rows
                 rng.integers(0, 3, size=(n, d)).astype(float),
                 np.repeat(rng.random((1, d)), n, axis=0)]
        for seed, minority in enumerate(cases):
            expected = self._broadcast_smote(minority, 3 * n, k, seed)
            assert np.array_equal(smote(minority, 3 * n, k=k, seed=seed), expected)

    def test_neighbour_search_memory_is_linear_in_the_input(self):
        import tracemalloc

        n, d = 64, 32_768  # an (n, n, d) float64 difference array takes 1.07 GB
        minority = np.random.default_rng(0).random((n, d))
        tracemalloc.start()
        try:
            synthetic = smote(minority, majority_count=n + 4, k=5, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert synthetic.shape == (4, d)
        assert peak < 3 * minority.nbytes, peak


class TestRankBaseline:
    def test_comments_median(self):
        issues = [make_issue(id=str(i), n_comments=n) for i, n in
                  enumerate([1, 2, 3, 4, 5])]
        got = rank_baseline(issues, "comments")
        assert [p.value for p in got] == ["Low", "Low", "Low", "High", "High"]

    def test_all_equal_all_low(self):
        issues = [make_issue(id=str(i), n_comments=4) for i in range(5)]
        assert all(p is PriorityClass.LOW for p in rank_baseline(issues, "comments"))

    def test_two_issues(self):
        issues = [make_issue(id="a", n_comments=0), make_issue(id="b", n_comments=10)]
        assert [p.value for p in rank_baseline(issues, "comments")] == ["Low", "High"]

    def test_oldest_marks_older_high(self):
        from datetime import timedelta
        from conftest import T0
        issues = [make_issue(id="old", created_at=T0),
                  make_issue(id="new", created_at=T0 + timedelta(days=60))]
        got = rank_baseline(issues, "created_at")
        assert [p.value for p in got] == ["High", "Low"]

    def test_unknown_field(self):
        with pytest.raises(ValueError):
            rank_baseline([make_issue()], "stars")


class TestModelArtifacts:
    def test_save_load_roundtrip(self, tmp_path):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = ["a", "a", "b", "b"]
        model = fit_random_forest(X, y, n_trees=3, seed=1)
        model.asset_fingerprints = {"scaler": "abc123"}
        path = tmp_path / "model.json"
        save_model(model, path)
        again = load_model(path)
        assert again.kind == "forest"
        assert again.classes == ("a", "b")
        assert np.array_equal(again.predict_proba(X), model.predict_proba(X))
        assert again.asset_fingerprints == {"scaler": "abc123"}

    def test_checksum_mismatch_refused(self, tmp_path):
        model = fit_knn(np.array([[0.0], [1.0]]), ["a", "b"], k=1)
        model.asset_fingerprints = {"scaler": "expected"}
        with pytest.raises(learn.ChecksumMismatchError):
            model.verify_assets({"scaler": "different"})
        model.verify_assets({"scaler": "expected"})

    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text("{}")
        with pytest.raises(TrainingError):
            load_model(path)


_ROUNDTRIP_X = np.array([[2.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.0, 2.0, 1.0],
                         [0.0, 1.0, 2.0], [3.0, 0.0, 0.0], [0.0, 0.0, 3.0]])
_ROUNDTRIP_Y = ["a", "a", "b", "b", "a", "b"]
_FITTERS = {
    "nb": lambda X, y: fit_multinomial_nb(X, y),
    "logreg": lambda X, y: fit_logreg(X, y, epochs=20),
    "forest": lambda X, y: fit_random_forest(X, y, n_trees=4, seed=3),
    "knn": lambda X, y: fit_knn(X, y, k=3),
}


class TestSerializationPath:
    @pytest.mark.parametrize("kind", sorted(_FITTERS))
    def test_save_load_save_is_byte_identical(self, kind, tmp_path):
        model = _FITTERS[kind](_ROUNDTRIP_X, _ROUNDTRIP_Y)
        model.asset_fingerprints = {"scaler": "abc123"}
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_model(model, first)
        loaded = load_model(first)
        save_model(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert loaded.kind == kind
        assert (loaded.predict_proba(_ROUNDTRIP_X).tobytes()
                == model.predict_proba(_ROUNDTRIP_X).tobytes())
        for key, value in model.params.items():  # NB's derived logs too
            if isinstance(value, np.ndarray):
                assert loaded.params[key].tobytes() == value.tobytes(), key
        assert loaded.fingerprint() == model.fingerprint()

    def test_a_sparse_field_with_an_empty_dimension_decodes_to_no_cells(self):
        dims = {}
        block = {"X": {"shape": [0, 3], "index": [], "value": []}}
        X = Table({"X": Field("sparse", ("n", "d"))}).decode(block, "block", dims)["X"]
        assert X.shape == (0, 3) and dims == {"n": 0, "d": 3}

    def test_fingerprints_are_those_of_version_1(self):
        """Version 2 stores NB's counts and sparse importances and training
        rows, but a fingerprint hashes what the model predicts with, as it
        is in memory, so each of these is the one version 1 gave."""
        signed = _ROUNDTRIP_X * np.array([1.0, -0.0, 0.5])  # -0.0 cells, which kNN keeps
        assert _FITTERS["nb"](_ROUNDTRIP_X, _ROUNDTRIP_Y).fingerprint() == \
            "2ce80ed45f26b69a2f08f5da860883078b1b25e7f5a5fb5b613fb195d105393b"
        assert _FITTERS["forest"](_ROUNDTRIP_X, _ROUNDTRIP_Y).fingerprint() == \
            "1cd30fe1dcc850dab20c7919628b01fd8879b77ea117bdefa6d4497dc38d93e5"
        assert _FITTERS["knn"](signed, _ROUNDTRIP_Y).fingerprint() == \
            "01fe5aeabbdb106752986ad047a095cff6d46672ff1ec91982ddc9dad363e0dd"

    def test_stored_forms(self, tmp_path):
        """NB's whole counts are JSON integers and its TF-IDF-like sums
        floats; importances and kNN rows are their non-zeros, a -0.0 among
        them, and load back to the same bytes."""
        weights = _ROUNDTRIP_X / 7.0
        signed = _ROUNDTRIP_X * np.array([1.0, -0.0, 0.5])
        for model, key, stored in (
                (_FITTERS["nb"](_ROUNDTRIP_X, _ROUNDTRIP_Y), "term_counts", int),
                (_FITTERS["nb"](weights, _ROUNDTRIP_Y), "term_counts", float),
                (_FITTERS["nb"](weights, _ROUNDTRIP_Y), "class_counts", int),
                (_FITTERS["forest"](_ROUNDTRIP_X, _ROUNDTRIP_Y), "importances", "sparse"),
                (_FITTERS["knn"](signed, _ROUNDTRIP_Y), "X", "sparse")):
            save_model(model, tmp_path / "m.json")
            value = json.loads((tmp_path / "m.json").read_text())["params"][key]
            if stored == "sparse":
                dense = np.asarray(model.params[key], dtype=float)
                want = np.flatnonzero((dense != 0) | np.signbit(dense)).tolist()
                assert value["shape"] == list(dense.shape) and value["index"] == want
            else:
                assert {type(v) for v in np.ravel(value).tolist()} == {stored}, key
            again = load_model(tmp_path / "m.json").params[key]
            assert again.tobytes() == np.asarray(model.params[key]).tobytes()

    @pytest.mark.parametrize("kind", ["nb", "logreg", "knn", "forest"])
    def test_params_are_arrays_after_fit_and_after_load(self, kind, tmp_path):
        model = _FITTERS[kind](_ROUNDTRIP_X, _ROUNDTRIP_Y)
        path = tmp_path / "model.json"
        save_model(model, path)
        for m in (model, load_model(path)):
            others = {name for name, v in m.params.items() if not isinstance(v, np.ndarray)}
            # kNN's k, NB's alpha and a forest's n_features are scalars, its trees nested
            # dicts; a forest's importances are an array after a fit too
            assert m.params and others == {"knn": {"k"}, "nb": {"alpha"},
                                           "forest": {"n_features", "trees"}}.get(kind, set())

    def test_doc_pair_round_trips(self, tmp_path):
        model = _FITTERS["nb"](_ROUNDTRIP_X, _ROUNDTRIP_Y)
        learn.write_json(tmp_path / "doc.json", model.to_doc())
        doc = json.loads((tmp_path / "doc.json").read_text())
        again = learn.TrainedModel.from_doc(doc, "")
        assert "asset_fingerprints" not in doc
        assert again.classes == model.classes and again.metadata == model.metadata
        assert np.array_equal(again.params["log_likelihood"], model.params["log_likelihood"])

    @pytest.mark.parametrize("text, message", [
        ('{"format": "issuetriage-model", "ver', "cannot read"),
        ('{"format": "issuetriage-assets", "version": 1}', "not an issuetriage-model"),
        ('{"format": "issuetriage-model", "version": 99}', "version 99"),
        ('[1, 2]', "not an issuetriage-model"),
    ])
    def test_checked_reader_rejects(self, text, message, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(learn.ArtifactError, match=message):
            load_model(path)


class TestKinds:
    @pytest.mark.parametrize("kind", learn.KINDS)
    def test_reads_are_the_fitters_parameters(self, kind):
        """The one place that reads a signature: a kind's ``reads`` are its
        fitter's parameters but ``X``, ``labels`` and ``classes``."""
        fitter = getattr(learn, learn.KINDS[kind].fitter)
        params = set(inspect.signature(fitter).parameters) - {"X", "labels", "classes"}
        assert learn.KINDS[kind].reads == params

    def test_no_field_has_a_default(self):
        assert all(f.default is f.default_factory is dataclasses.MISSING
                   for f in dataclasses.fields(learn.Kind))

    def test_kinds_are_every_list_of_classifiers(self):
        """``--classifier``'s choices, ``ModelSpec``'s and the kinds a model
        artifact may hold are ``learn.KINDS``, in its order."""
        kinds = list(learn.KINDS)
        commands = next(a for a in cli.build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        for command in ("train-priority", "evaluate"):
            assert list(commands[command]._option_string_actions["--classifier"].choices) == kinds
        with pytest.raises(SettingError, match=f"one of {', '.join(kinds)}, got 'svm'"):
            evalkit.ModelSpec(classifier="svm")
        for kind in kinds:
            assert evalkit.ModelSpec(classifier=kind).classifier == kind
            model = _FITTERS[kind](_ROUNDTRIP_X, _ROUNDTRIP_Y)
            assert (learn.TrainedModel.from_doc(model.to_doc(), "").fingerprint()
                    == model.fingerprint())
        with pytest.raises(learn.ArtifactError, match="unknown kind 'svm'"):
            learn.TrainedModel.from_doc({**model.to_doc(), "kind": "svm"}, "")
