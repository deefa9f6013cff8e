import math
import random
from collections import Counter
from datetime import timedelta

import numpy as np
import pytest

from conftest import T0, make_issue
from issuetriage import features, labelmap
from issuetriage.corpus import CommentRecord, EventRecord, UserProfile
from issuetriage.features import (
    FEATURE_NAMES,
    FeatureVector,
    ScalerParams,
    extract_metadata,
    fit_feature_pipeline,
    fit_scaler,
    fit_tfidf,
    ngrams,
    scale,
    term_counts,
    transform_tfidf,
)
from issuetriage.sentiment import Lexicon
from issuetriage.textnorm import TokenizedDoc


def doc(*tokens):
    return TokenizedDoc(tokens=tokens)


class TestFitTfidf:
    def test_single_doc_idf(self):
        model = fit_tfidf([doc("bug")], max_features=100)
        assert model.vocabulary == {"bug": 0}
        assert model.idf[0] == pytest.approx(math.log(2 / 2) + 1.0)  # = 1.0

    def test_ubiquitous_term_floor(self):
        docs = [doc("crash", "a"), doc("crash", "b"), doc("crash")]
        model = fit_tfidf(docs, max_features=100, ngram_range=(1, 1))
        assert model.idf[model.vocabulary["crash"]] == pytest.approx(
            math.log(4 / 4) + 1.0)

    def test_max_features_keeps_most_frequent(self):
        docs = [doc("a", "a", "a", "b", "b", "c", "c", "d", "e")]
        model = fit_tfidf(docs, max_features=3, ngram_range=(1, 1))
        assert set(model.vocabulary) == {"a", "b", "c"}

    def test_frequency_ties_break_lexicographically(self):
        docs = [doc("zed", "ant", "mid")]
        model = fit_tfidf(docs, max_features=2, ngram_range=(1, 1))
        assert set(model.vocabulary) == {"ant", "mid"}

    def test_bigrams_in_vocabulary(self):
        model = fit_tfidf([doc("null", "pointer")], max_features=100)
        assert set(model.vocabulary) == {"null", "pointer", "null pointer"}

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            fit_tfidf([], max_features=10)

    def test_no_features_rejected(self):
        with pytest.raises(ValueError):
            fit_tfidf([doc("bug")], max_features=0)

    def test_ngrams_helper(self):
        assert ngrams(("a", "b", "c"), (1, 2)) == ["a", "b", "c", "a b", "b c"]

    @pytest.mark.parametrize("ngram_range", [(1, 1), (1, 2), (2, 3), (1, 3)])
    def test_ngrams_match_slices(self, ngram_range):
        rng = random.Random(ngram_range[0] * 10 + ngram_range[1])
        for length in [0, 1, 2, 3, 4] + [rng.randint(0, 30) for _ in range(40)]:
            tokens = tuple(rng.choice("abcde") for _ in range(length))
            assert ngrams(tokens, ngram_range) == reference_ngrams(tokens, ngram_range)
            assert ngrams(list(tokens), ngram_range) == reference_ngrams(tokens, ngram_range)

    @pytest.mark.parametrize("seed", range(6))
    def test_top_k_matches_two_sort_rule_under_heavy_ties(self, seed):
        """Most terms are counted once, as in a real description vocabulary,
        so the cut nearly always falls inside a tie."""
        rng = random.Random(seed)
        common = [f"c{i}" for i in range(15)]
        docs = [doc(*(rng.choice(common) if rng.random() < 0.3 else f"r{rng.randrange(400)}"
                      for _ in range(rng.randint(0, 12))))
                for _ in range(rng.randint(1, 60))]
        docs.append(doc("r1"))  # at least one term, so the corpus is not all empty
        n_terms = len({g for d in docs for g in ngrams(d.tokens)})
        for max_features in {1, 2, 7, n_terms // 3, n_terms // 2, n_terms - 1, n_terms,
                             n_terms + 5, rng.randint(1, n_terms)} - {0}:
            model = fit_tfidf(docs, max_features)
            vocabulary, idf = reference_fit_tfidf(docs, max_features)
            assert model.vocabulary == vocabulary
            assert list(model.vocabulary) == list(vocabulary)
            assert model.idf.tobytes() == idf.tobytes()


def reference_ngrams(tokens, ngram_range):
    lo, hi = ngram_range
    out = []
    for n in range(lo, hi + 1):
        out.extend(" ".join(tokens[i:i + n]) for i in range(len(tokens) - n + 1))
    return out


def reference_fit_tfidf(docs, max_features, ngram_range=features.NGRAM_RANGE):
    """The vocabulary and idf by the rule as first written: a lexicographic
    sort, then a stable sort by count, highest first."""
    total, df = Counter(), Counter()
    for d in docs:
        grams = reference_ngrams(d.tokens, ngram_range)
        total.update(grams)
        df.update(set(grams))
    ranked = sorted(total)
    ranked.sort(key=total.__getitem__, reverse=True)
    chosen = sorted(ranked[:max_features])
    idf = np.array([math.log((1 + len(docs)) / (1 + df[t])) + 1.0 for t in chosen])
    return {t: i for i, t in enumerate(chosen)}, idf


class TestTransformTfidf:
    def test_empty_doc_zero_vector(self):
        model = fit_tfidf([doc("bug")], max_features=10)
        vec = transform_tfidf(model, doc())
        assert vec.norm() == 0.0
        assert not vec.to_dense().any()

    def test_single_term_unit_vector(self):
        model = fit_tfidf([doc("bug"), doc("ui")], max_features=10, ngram_range=(1, 1))
        vec = transform_tfidf(model, doc("bug"))
        dense = vec.to_dense()
        assert dense[model.vocabulary["bug"]] == pytest.approx(1.0)
        assert vec.norm() == pytest.approx(1.0)

    def test_two_doc_fixture_hand_computed(self):
        d1, d2 = doc("a", "a", "b"), doc("b", "c")
        model = fit_tfidf([d1, d2], max_features=10, ngram_range=(1, 1))
        # independent arithmetic: idf(t) = ln((1+2)/(1+df)) + 1, counts * idf, L2
        idf_a = math.log(3 / 2) + 1
        idf_b = math.log(3 / 3) + 1
        raw = {"a": 2 * idf_a, "b": 1 * idf_b}
        norm = math.sqrt(sum(v * v for v in raw.values()))
        dense = transform_tfidf(model, d1).to_dense()
        assert dense[model.vocabulary["a"]] == pytest.approx(raw["a"] / norm, abs=1e-9)
        assert dense[model.vocabulary["b"]] == pytest.approx(raw["b"] / norm, abs=1e-9)

    def test_out_of_vocabulary_ignored(self):
        model = fit_tfidf([doc("bug")], max_features=10)
        vec = transform_tfidf(model, doc("unseen", "bug"))
        assert vec.norm() == pytest.approx(1.0)
        assert len(vec.indices) == 1

    def test_norms_zero_or_one(self):
        rng = random.Random(3)
        vocab_pool = ["a", "b", "c", "d", "e", "f"]
        docs = [doc(*(rng.choice(vocab_pool) for _ in range(rng.randint(1, 8))))
                for _ in range(20)]
        model = fit_tfidf(docs, max_features=30)
        for d in docs + [doc("zzz"), doc()]:
            norm = transform_tfidf(model, d).norm()
            assert norm == pytest.approx(0.0) or norm == pytest.approx(1.0, abs=1e-9)

    def test_memoized_columns_equal_a_fresh_lookup(self):
        """``transform_tfidf`` reads the model's memo, filled on a doc's first
        read; each read equals the result of a fresh ``term_counts`` lookup."""
        rng = random.Random(5)
        pool = ["a", "b", "c", "d", "e", "f", "g"]
        docs = [doc(*(rng.choice(pool) for _ in range(rng.randint(0, 9)))) for _ in range(30)]
        model = fit_tfidf(docs[:20], max_features=12)
        for d in docs + docs:
            counts = term_counts(model, d)
            indices = np.array(sorted(counts), dtype=int)
            values = np.array([counts[i] for i in indices], dtype=float) * model.idf[indices]
            if indices.size:
                values = values / np.sqrt(np.sum(values ** 2))
            vec = transform_tfidf(model, d)
            assert vec.indices.tobytes() == indices.tobytes()
            assert vec.values.tobytes() == values.tobytes()
            columns, counted = model.columns(d)
            assert (columns.dtype, counted.dtype) == (np.dtype(int), np.dtype(float))
            assert not columns.flags.writeable and not counted.flags.writeable
        assert set(model.memo) == set(docs)

    def test_models_fit_on_different_corpora_keep_their_own_columns(self):
        d = doc("b", "c", "c")
        first = fit_tfidf([doc("a", "b"), doc("c")], max_features=10, ngram_range=(1, 1))
        second = fit_tfidf([doc("c", "z"), doc("b", "y")], max_features=10,
                           ngram_range=(1, 1))
        for model, want in ((first, [1, 2]), (second, [0, 1]), (first, [1, 2])):
            indices, counts = model.columns(d)
            assert indices.tolist() == want and counts.tolist() == [1.0, 2.0]
            assert transform_tfidf(model, d).indices.tolist() == want
        assert first.memo is not second.memo

    def test_model_not_mutated_by_transform(self):
        model = fit_tfidf([doc("a", "b"), doc("b", "c")], max_features=10)
        before = model.fingerprint()
        for d in (doc("a"), doc("zzz"), doc()):
            transform_tfidf(model, d)
        assert model.fingerprint() == before


class TestExtractMetadata:
    def test_empty_discussion_defaults(self):
        row = extract_metadata(make_issue(n_comments=0))
        named = dict(zip(FEATURE_NAMES, row))
        assert named["comments"] == 0
        assert named["cm_mean_len"] == 0
        assert named["cm_developers_ratio"] == 0
        assert named["time_to_discuss"] == 0

    def test_same_author_closer(self):
        assert dict(zip(FEATURE_NAMES, extract_metadata(
            make_issue(closer="alice", login="alice"))))["same_author_closer"] == 1
        assert dict(zip(FEATURE_NAMES, extract_metadata(
            make_issue(closer="bob", login="alice"))))["same_author_closer"] == 0

    def test_all_28_against_hand_computed_sheet(self):
        lex = Lexicon(terms={"crash": (-4, 0.8)}, negators=frozenset(),
                      intensifiers={})
        issue = make_issue(
            title="Parser fails on nested input",                      # 5 words
            description="The parser crashes. See https://x.io/bug and `raise` now.",
            labels=("bug", "ui"),
            followers=7,
            milestone_present=True,
            comments=(
                CommentRecord("alice", "works for me", T0 + timedelta(hours=2)),
                CommentRecord("bob", "same here", T0 + timedelta(hours=5)),
            ),
            events=(EventRecord("labeled", T0 + timedelta(hours=1)),
                    EventRecord("assigned", T0 + timedelta(hours=2)),
                    EventRecord("closed", T0 + timedelta(hours=3))),
            closer="alice",
            login="alice",
            n_comments=0, n_events=0,
        )
        named = dict(zip(FEATURE_NAMES, extract_metadata(issue, lex)))
        expected = {
            "title_words": 5, "desc_words": 8, "code": 1, "url": 1,
            "comments": 2, "cm_mean_len": 2.5, "cm_developers_ratio": 1.0,
            "time_to_discuss": 5.0,
            "events": 3, "assigned": 0, "is_pull_request": 0, "has_commit": 0,
            "has_milestone": 1, "labels": 2,
            "author_followers": 7, "author_following": 0,
            "author_public_repos": 0, "author_public_gists": 0,
            "author_issue_counts": 0, "author_github_cntrb": 0,
            "author_account_age": 400, "author_repo_cntrb": 0,
            "association": 0, "same_author_closer": 1,
            "desc_positivity": 1, "desc_negativity": -4,
            "desc_pos_polarity": 0.0, "desc_subjectivity": 0.8,
        }
        for name in FEATURE_NAMES:
            assert named[name] == pytest.approx(expected[name]), name

    def test_association_ordinal(self):
        for value, code in [("None", 0), ("Contributor", 1), ("Collaborator", 2),
                            ("Member", 3), ("Owner", 4)]:
            issue = make_issue(author=UserProfile(login="x", association=value))
            named = dict(zip(FEATURE_NAMES, extract_metadata(issue)))
            assert named["association"] == code


class TestScaler:
    def test_endpoints(self):
        params = fit_scaler([np.array([2.0]), np.array([10.0])])
        assert scale(params, np.array([2.0]))[0] == 0.0
        assert scale(params, np.array([10.0]))[0] == 1.0

    def test_midpoint(self):
        params = fit_scaler([np.array([2.0]), np.array([10.0])])
        assert scale(params, np.array([6.0]))[0] == pytest.approx(0.5)

    def test_clipping(self):
        params = fit_scaler([np.array([2.0]), np.array([10.0])])
        assert scale(params, np.array([12.0]))[0] == 1.0
        assert scale(params, np.array([-3.0]))[0] == 0.0

    def test_constant_feature_maps_to_zero(self):
        params = fit_scaler([np.array([4.0]), np.array([4.0])])
        assert scale(params, np.array([4.0]))[0] == 0.0

    def test_outputs_always_in_unit_interval(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            train = rng.normal(size=(12, 5)) * rng.uniform(0.1, 100)
            params = fit_scaler(list(train))
            test = rng.normal(size=5) * 200
            out = scale(params, test)
            assert np.all(out >= 0) and np.all(out <= 1)

    def test_positive_rescaling_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            column = rng.normal(size=20)
            factor = rng.uniform(0.01, 50)
            p1 = fit_scaler(list(column[:, None]))
            p2 = fit_scaler(list((factor * column)[:, None]))
            probe = rng.choice(column)
            a = scale(p1, np.array([probe]))
            b = scale(p2, np.array([factor * probe]))
            assert a[0] == pytest.approx(b[0], abs=1e-9)

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            fit_scaler([])


@pytest.fixture(scope="module")
def pipeline(maps):
    issues = [
        make_issue(id="a", title="Parser crash on load",
                   description="It crashes badly on startup every time.",
                   labels=("bug",), n_comments=2, followers=10),
        make_issue(id="b", title="Add export option",
                   description="Please add a new export option for reports.",
                   labels=("feature request", "ui"), n_events=4),
        make_issue(id="c", title="How to configure cache?",
                   description="Question about the cache settings please.",
                   labels=("question",)),
    ]
    return fit_feature_pipeline(issues, maps)


class TestAssemble:
    def test_degenerate_issue(self, pipeline):
        issue = make_issue(id="zz", title="xxx", description="yyy", labels=())
        probs = np.array([1 / 3, 1 / 3, 1 / 3])
        vec = pipeline.assemble(issue, probs)
        assert vec.tf_title.norm() == 0.0
        assert not vec.lf.any()
        assert np.allclose(vec.objective_probs, probs)
        assert np.all((vec.nf >= 0) & (vec.nf <= 1))

    def test_blockwise_concatenation_oracle(self, pipeline, maps):
        issue = make_issue(id="a2", title="Parser crash on load",
                           description="It crashes badly on startup every time.",
                           labels=("bug", "ui"), n_comments=1)
        probs = np.array([0.7, 0.2, 0.1])
        vec = pipeline.assemble(issue, probs)
        dense = vec.to_dense()
        from issuetriage.textnorm import normalize_pipeline
        t = transform_tfidf(pipeline.tfidf_title,
                            normalize_pipeline(issue.title, "title")).to_dense()
        d = transform_tfidf(pipeline.tfidf_desc,
                            normalize_pipeline(issue.description, "description")).to_dense()
        lf = labelmap.label_features(issue.labels, maps.clusters).astype(float)
        nf = scale(pipeline.scaler, extract_metadata(issue))
        expected = np.concatenate([t, d, probs, lf, nf])
        assert np.allclose(dense, expected, atol=1e-12)
        assert len(dense) == (pipeline.tfidf_title.size + pipeline.tfidf_desc.size
                              + 3 + 66 + 28)

    @pytest.mark.parametrize("title,description", [
        ("Parser crash crash on load", "It crashes on startup; unseen words here."),
        ("Parser crash on load", "It crashes badly on startup every time."),
    ], ids=["unseen", "fitted"])
    def test_stage1_counts_oracle(self, pipeline, title, description):
        """A fresh lookup of every n-gram, for an issue the fit never saw and
        for one it was fit on; the second read is a memo hit."""
        issue = make_issue(id="s1", title=title, description=description)
        from issuetriage.textnorm import normalize_pipeline
        expected = []
        for model, text, source in ((pipeline.tfidf_title, issue.title, "title"),
                                    (pipeline.tfidf_desc, issue.description, "description")):
            block = np.zeros(model.size)
            for gram in ngrams(normalize_pipeline(text, source).tokens, model.ngram_range):
                if gram in model.vocabulary:
                    block[model.vocabulary[gram]] += 1.0
            expected.append(block)
        for _ in range(2):
            counts = pipeline.stage1_counts(issue)
            assert counts.tobytes() == np.concatenate(expected).tobytes()
        assert counts.max() == (2.0 if title.count("crash") == 2 else 1.0)

    def test_label_order_invariance(self, pipeline):
        probs = np.array([0.5, 0.25, 0.25])
        a = make_issue(id="p1", labels=("bug", "ui", "windows"))
        b = make_issue(id="p2", labels=("windows", "bug", "ui"))
        va = pipeline.assemble(a, probs)
        vb = pipeline.assemble(b, probs)
        assert np.array_equal(va.lf, vb.lf)

    def test_bad_probs_rejected(self, pipeline):
        with pytest.raises(ValueError):
            pipeline.assemble(make_issue(id="q"), np.array([0.5, 0.2, 0.2]))

    def test_feature_names_align_with_dense_width(self, pipeline):
        names = pipeline.feature_names()
        vec = pipeline.assemble(make_issue(id="r"), np.array([1 / 3, 1 / 3, 1 / 3]))
        assert len(names) == len(vec.to_dense())
        assert names[-28:] == [f"nf:{n}" for n in FEATURE_NAMES]


class TestScalerParams:
    def test_min_greater_than_max_rejected(self):
        with pytest.raises(ValueError):
            ScalerParams(np.array([1.0]), np.array([0.0]))

    def test_roundtrip(self):
        params = fit_scaler([np.array([1.0, 2.0]), np.array([3.0, 2.0])])
        again = ScalerParams.from_doc(params.to_doc())
        assert np.array_equal(again.minimums, params.minimums)
        assert np.array_equal(again.maximums, params.maximums)
