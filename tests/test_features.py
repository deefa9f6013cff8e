import json
import math
import random
from collections import Counter
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_features as ref
from conftest import T0, make_issue
from issuetriage import evalkit, features, labelmap, learn
from issuetriage.corpus import CommentRecord, EventRecord, UserProfile
from issuetriage.features import (
    FEATURE_NAMES,
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
from issuetriage.textnorm import TokenizedDoc, normalize_pipeline


def doc(*tokens):
    return TokenizedDoc(tokens=tokens)


def tfidf_row(model, d):
    """``d``'s TF-IDF row: its sorted column ids and weights."""
    lengths, cols, values = transform_tfidf(model, [d])
    assert lengths.tolist() == [cols.size]
    return cols, values


def dense_tfidf(model, d):
    row = np.zeros(model.size)
    cols, values = tfidf_row(model, d)
    row[cols] = values
    return row


def norm(values):
    return float(np.sqrt(np.sum(values ** 2)))


class TestFitTfidf:
    def test_single_doc_idf(self):
        model = fit_tfidf([doc("bug")], max_features=100)
        assert model.vocabulary == {"bug": 0}
        assert model.idf[0] == pytest.approx(math.log(2 / 2) + 1.0)  # = 1.0

    def test_ubiquitous_term_floor(self):
        docs = [doc("crash", "a"), doc("crash", "b"), doc("crash")]
        model = fit_tfidf(docs, max_features=100)
        assert model.idf[model.vocabulary["crash"]] == pytest.approx(
            math.log(4 / 4) + 1.0)

    def test_max_features_keeps_most_frequent(self):
        docs = [doc(t) for t in ("a", "a", "a", "b", "b", "c", "c", "d", "e")]
        model = fit_tfidf(docs, max_features=3)
        assert set(model.vocabulary) == {"a", "b", "c"}

    def test_frequency_ties_break_lexicographically(self):
        docs = [doc("zed"), doc("ant"), doc("mid")]
        model = fit_tfidf(docs, max_features=2)
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

    def test_fit_builds_no_ngram_strings(self, monkeypatch):
        """Only the vocabulary's strings are made: the fit never calls
        ``ngrams``, and still keeps the top terms and fills the memo."""
        def refuse(*args):
            raise AssertionError("fit_tfidf built every n-gram's string")

        monkeypatch.setattr(features, "ngrams", refuse)
        docs = [doc("null", "pointer", "crash"), doc("crash"), doc("crash")]
        model = fit_tfidf(docs, max_features=4)
        assert model.vocabulary == {"crash": 0, "null": 1, "null pointer": 2, "pointer": 3}
        assert model.df.tolist() == [3, 1, 1, 1]
        assert [c.tolist() for c in model.memo[docs[0]]] == [[0, 1, 2, 3], [1.0] * 4]
        assert [c.tolist() for c in model.memo[docs[1]]] == [[0], [1.0]]

    def test_bigrams_over_many_tokens_keep_string_order(self):
        """Unigrams and bigrams over 7,000 distinct tokens, each counted
        once, so the top k are the lexicographically smallest."""
        words = [f"w{i}" for i in range(7000)]
        random.Random(5).shuffle(words)
        docs = [doc(*words[i:i + 700]) for i in range(0, 7000, 700)]
        model = fit_tfidf(docs, 1000)
        assert_same_model(model, ref.fit_tfidf(docs, 1000), docs)

    def test_ngrams_helper(self):
        assert ngrams(("a", "b", "c")) == ["a", "b", "c", "a b", "b c"]

    def test_ngrams_match_slices(self):
        rng = random.Random(12)
        for length in [0, 1, 2, 3, 4] + [rng.randint(0, 30) for _ in range(40)]:
            tokens = tuple(rng.choice("abcde") for _ in range(length))
            assert ngrams(tokens) == reference_ngrams(tokens)
            assert ngrams(list(tokens)) == reference_ngrams(tokens)

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


def reference_ngrams(tokens):
    out = []
    for n in (1, 2):
        out.extend(" ".join(tokens[i:i + n]) for i in range(len(tokens) - n + 1))
    return out


def reference_fit_tfidf(docs, max_features):
    """The vocabulary and idf by the rule as first written: a lexicographic
    sort, then a stable sort by count, highest first."""
    total, df = Counter(), Counter()
    for d in docs:
        grams = reference_ngrams(d.tokens)
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
        cols, values = tfidf_row(model, doc())
        assert cols.size == values.size == 0
        assert not dense_tfidf(model, doc()).any()

    def test_single_term_unit_vector(self):
        model = fit_tfidf([doc("bug"), doc("ui")], max_features=10)
        dense = dense_tfidf(model, doc("bug"))
        assert dense[model.vocabulary["bug"]] == pytest.approx(1.0)
        assert norm(dense) == pytest.approx(1.0)

    def test_two_doc_fixture_hand_computed(self):
        d1, d2 = doc("a", "a", "b"), doc("b", "c")
        model = fit_tfidf([d1, d2], max_features=10)
        # independent arithmetic: idf(t) = ln((1+2)/(1+df)) + 1, counts * idf, L2
        idf_once = math.log(3 / 2) + 1  # a, "a a", "a b": in d1 alone
        idf_b = math.log(3 / 3) + 1
        raw = {"a": 2 * idf_once, "b": 1 * idf_b, "a a": idf_once, "a b": idf_once}
        norm = math.sqrt(sum(v * v for v in raw.values()))
        dense = dense_tfidf(model, d1)
        for term, value in raw.items():
            assert dense[model.vocabulary[term]] == pytest.approx(value / norm, abs=1e-9)
        assert np.count_nonzero(dense) == len(raw)

    def test_out_of_vocabulary_ignored(self):
        model = fit_tfidf([doc("bug")], max_features=10)
        cols, values = tfidf_row(model, doc("unseen", "bug"))
        assert norm(values) == pytest.approx(1.0)
        assert len(cols) == 1

    def test_norms_zero_or_one(self):
        rng = random.Random(3)
        vocab_pool = ["a", "b", "c", "d", "e", "f"]
        docs = [doc(*(rng.choice(vocab_pool) for _ in range(rng.randint(1, 8))))
                for _ in range(20)]
        model = fit_tfidf(docs, max_features=30)
        for d in docs + [doc("zzz"), doc()]:
            length = norm(tfidf_row(model, d)[1])
            assert length == pytest.approx(0.0) or length == pytest.approx(1.0, abs=1e-9)

    def test_memoized_columns_equal_a_fresh_lookup(self):
        """``transform_tfidf`` reads the model's memo, filled by the fit for
        its docs and on the first read of any other; each read equals the
        result of a fresh ``term_counts`` lookup."""
        rng = random.Random(5)
        pool = ["a", "b", "c", "d", "e", "f", "g"]
        docs = [doc(*(rng.choice(pool) for _ in range(rng.randint(0, 9)))) for _ in range(30)]
        model = fit_tfidf(docs[:20], max_features=12)
        for d in docs + docs:
            counts = term_counts(model, d)
            indices = np.array(sorted(counts), dtype=np.int32)
            values = np.array([counts[i] for i in indices], dtype=float) * model.idf[indices]
            if indices.size:
                values = values / np.sqrt(np.sum(values ** 2))
            cols, weights = tfidf_row(model, d)
            assert cols.tobytes() == indices.tobytes()
            assert weights.tobytes() == values.tobytes()
            columns, counted = model.columns(d)
            assert (columns.dtype, counted.dtype) == (np.dtype(np.int32), np.dtype(float))
            assert not columns.flags.writeable and not counted.flags.writeable
        assert set(model.memo) == set(docs)

    def test_models_fit_on_different_corpora_keep_their_own_columns(self):
        d = doc("b", "c", "c")
        first = fit_tfidf([doc("a", "b"), doc("c")], max_features=10)
        second = fit_tfidf([doc("c", "z"), doc("b", "y")], max_features=10)
        for model, want in ((first, [2, 3]), (second, [0, 2]), (first, [2, 3])):
            indices, counts = model.columns(d)
            assert indices.tolist() == want and counts.tolist() == [1.0, 2.0]
            assert tfidf_row(model, d)[0].tolist() == want
        assert first.memo is not second.memo

    def test_model_not_mutated_by_transform(self):
        model = fit_tfidf([doc("a", "b"), doc("b", "c")], max_features=10)
        before = model.fingerprint()
        transform_tfidf(model, [doc("a"), doc("zzz"), doc()])
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


def one_row(pipeline, issue, probs):
    """The assembled row of ``issue``, dense."""
    return pipeline.assemble([issue], [probs]).to_dense()[0]


class TestAssemble:
    def test_degenerate_issue(self, pipeline):
        issue = make_issue(id="zz", title="xxx", description="yyy", labels=())
        probs = np.array([1 / 3, 1 / 3, 1 / 3])
        row = one_row(pipeline, issue, probs)
        title_size, tf_size = pipeline.tfidf_title.size, pipeline.stage1_width
        assert not row[:title_size].any()
        assert np.allclose(row[tf_size:tf_size + 3], probs)
        assert not row[tf_size + 3:tf_size + 3 + 66].any()
        assert np.all((row[-28:] >= 0) & (row[-28:] <= 1))

    def test_blockwise_concatenation_oracle(self, pipeline, maps):
        issue = make_issue(id="a2", title="Parser crash on load",
                           description="It crashes badly on startup every time.",
                           labels=("bug", "ui"), n_comments=1)
        probs = np.array([0.7, 0.2, 0.1])
        dense = one_row(pipeline, issue, probs)
        from issuetriage.textnorm import normalize_pipeline
        t = dense_tfidf(pipeline.tfidf_title, normalize_pipeline(issue.title))
        d = dense_tfidf(pipeline.tfidf_desc, normalize_pipeline(issue.description))
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
        for model, text in ((pipeline.tfidf_title, issue.title),
                            (pipeline.tfidf_desc, issue.description)):
            block = np.zeros(model.size)
            for gram in ngrams(normalize_pipeline(text).tokens):
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
        lf_start = pipeline.stage1_width + len(probs)
        lf = pipeline.assemble([a, b], [probs, probs]).to_dense()[
            :, lf_start:lf_start + labelmap.N_CLUSTERS]
        assert np.array_equal(lf[0], lf[1]) and lf[0].any()

    def test_bad_probs_rejected(self, pipeline):
        with pytest.raises(ValueError):
            pipeline.assemble([make_issue(id="q")], [np.array([0.5, 0.2, 0.2])])

    def test_feature_names_align_with_dense_width(self, pipeline):
        names = pipeline.feature_names()
        row = one_row(pipeline, make_issue(id="r"), np.array([1 / 3, 1 / 3, 1 / 3]))
        assert len(names) == len(row) == pipeline.width
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

    def test_fingerprints_are_pinned(self):
        """The strings hashed are those numpy 2 writes for float64 scalars,
        under any numpy, so assets keep their fingerprints across numpy 1
        and 2."""
        model = features.TfidfModel({"bug": 0, "crash": 1, "null pointer": 2},
                                    np.array([5, 3, 1]), 5, 10)
        assert model.idf.tolist() == [1.0, 1.4054651081081644, 2.09861228866811]
        params = ScalerParams(np.array([0.0, -2.5, 1e-7]), np.array([0.1, 3e16, 1e-5]))
        assert model.fingerprint() == \
            "adbb73aabd7215a5508c2335a9679de952cf4c3aa50cd61849cfc3107601b62e"
        assert params.fingerprint() == \
            "dff55f725eabc6605c8014934db55b19c9ebd1d3b86fec8eaebb4f809ae78cc5"

    @pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                        reason="numpy 1 writes a float64 scalar as a bare float")
    def test_float_strings_are_numpy_2_reprs(self):
        rng = np.random.default_rng(2)
        bits = rng.integers(0, 2 ** 63, size=20_000, dtype=np.uint64)
        values = np.concatenate([bits.view(np.float64), rng.normal(size=2000) * 1e-5,
                                 np.arange(-50, 50) * 0.25, [0.0, -0.0, 1e16, 1e-5, 1e-4]])
        values = values[np.isfinite(values)]
        assert features._float_reprs(values) == [repr(x) for x in values]


class TestTfidfDecoder:
    """A TF-IDF block stores its vocabulary in column order, ``df`` and
    ``n_docs``; the idf is derived on load by the fit's formula."""

    DOCS = [doc("null", "pointer", "crash"), doc("crash"), doc("crash", "crash"), doc()]

    def test_round_trip_keeps_order_counts_idf_and_fingerprint(self):
        model = fit_tfidf(self.DOCS, max_features=4)
        stored = json.loads(json.dumps(model.to_doc(), default=learn._json_default))
        assert stored["vocabulary"] == list(model.vocabulary)
        assert (stored["df"], stored["n_docs"]) == (model.df.tolist(), 4)
        again = features.TfidfModel.from_doc(stored)
        assert list(again.vocabulary.items()) == list(model.vocabulary.items())
        assert again.idf.tobytes() == model.idf.tobytes()
        assert again.fingerprint() == model.fingerprint()
        assert json.dumps(again.to_doc(), default=learn._json_default) == json.dumps(stored)

    @pytest.mark.parametrize("key, value, message", [
        ("df", lambda b: [0, *b["df"][1:]], "below 1"),
        ("df", lambda b: [-1, *b["df"][1:]], "below 1"),
        ("df", lambda b: [b["n_docs"] + 1, *b["df"][1:]], "above n_docs = 4"),
        ("df", lambda b: b["df"][:-1], "shape"),
        ("df", lambda b: [1.5, *b["df"][1:]], "not made of integers"),
        ("n_docs", lambda b: 0, "below 1"),
        ("n_docs", lambda b: 1, "above n_docs = 1"),
        ("vocabulary", lambda b: [b["vocabulary"][1], *b["vocabulary"][1:]], "repeats a term"),
        ("vocabulary", lambda b: {t: i for i, t in enumerate(b["vocabulary"])},
         "not a list of strings"),
        ("vocabulary", lambda b: [1, *b["vocabulary"][1:]], "not a list of strings"),
        ("ngram_range", lambda b: [1, 3], r"ngram_range \[1, 3\] is not \[1, 2\]"),
        ("ngram_range", lambda b: [2, 2], r"ngram_range \[2, 2\] is not \[1, 2\]"),
    ])
    def test_bad_block_is_refused(self, key, value, message):
        block = json.loads(json.dumps(fit_tfidf(self.DOCS, max_features=4).to_doc(),
                                      default=learn._json_default))
        block[key] = value(block)
        with pytest.raises(learn.ArtifactError, match=message):
            features.TfidfModel.from_doc(block)

    @settings(max_examples=100, deadline=None)
    @given(n_docs=st.integers(1, 10 ** 12), data=st.data())
    def test_a_decoded_idf_is_at_least_one(self, n_docs, data):
        df = data.draw(st.lists(st.integers(1, n_docs), max_size=6))
        block = {"vocabulary": [f"t{i}" for i in range(len(df))], "df": df, "n_docs": n_docs,
                 "max_features": 10, "ngram_range": [1, 2]}
        idf = features.TfidfModel.from_doc(block).idf
        assert np.all(np.isfinite(idf)) and np.all(idf >= 1.0)


# ---------------------------------------------------------------------------
# The block code against the code it replaced (``reference_features``)

def assert_same_model(model, reference, docs):
    """Vocabulary (and its order), document frequencies, idf and settings
    equal, and a memo entry for each distinct doc equal in bytes to a fresh
    lookup."""
    assert model.vocabulary == reference.vocabulary
    assert list(model.vocabulary) == list(reference.vocabulary)
    assert (model.df.dtype, model.df.tobytes(), model.n_docs) == (
        reference.df.dtype, reference.df.tobytes(), reference.n_docs)
    want = ref.idf(reference)
    assert (model.idf.dtype, model.idf.tobytes()) == (want.dtype, want.tobytes())
    assert model.max_features == reference.max_features
    assert set(model.memo) == set(docs)
    for d in docs:
        for got, want in zip(model.memo[d], ref.columns(reference, d)):
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())
            assert not got.flags.writeable


def assert_same_rows(X, Y):
    assert X.shape == Y.shape
    for got, want in ((X.indptr, Y.indptr), (X.cols, Y.cols), (X.values, Y.values)):
        assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())


# tokens that are prefixes of one another, or hold punctuation, a surface
# token or a non-ASCII letter: each must sort as its n-grams' strings do
WORDS = st.sampled_from(["a", "b", "c", "ab", "abc", "b!", "a?", "?", "~", "c~", "⟨URL⟩",
                         "⟨URL⟩s", "é", "éa", "e"])
DOCS = st.lists(st.lists(WORDS, max_size=8).map(lambda tokens: doc(*tokens)),
                min_size=1, max_size=12)
LABELS = st.lists(st.sampled_from(["bug", "ui", "windows", "question", "p1", "p3",
                                   "enhancement", "no such label"]), max_size=4, unique=True)


def _probs_row():
    valid = st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3).map(
        lambda w: np.array(w) / sum(w))
    fixed = st.sampled_from([[1 / 3, 1 / 3, 1 / 3], [1.0, 0.0, 0.0], [0.5, 0.2, 0.2],
                             [0.6, 0.6, -0.2], [np.nan, 0.5, 0.5], [0.2, 0.8, 0.0]])
    return st.one_of(valid, valid, fixed.map(np.array))


class TestMatchesReference:
    def test_planted_fixture(self, planted_corpus, maps):
        issues = planted_corpus.issues
        train, held_out = issues[:150], issues[150:]
        bundle = evalkit.fit_preprocessing(train, evalkit.ModelSpec(), maps)
        fp = bundle.feature_pipeline
        for model, field in ((fp.tfidf_title, "title"), (fp.tfidf_desc, "description")):
            docs = [normalize_pipeline(getattr(i, field)) for i in train]
            assert_same_model(model, ref.fit_tfidf(docs, model.max_features), docs)
        assert_same_rows(fp.stage1_rows(train), ref.stage1_rows(fp, train))
        for part in (train, held_out):
            probs = [bundle.objective_probs(i) for i in part]
            assert_same_rows(bundle.vectorize(part), ref.vectorize(fp, part, probs))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_fit_and_transform_on_generated_docs(self, data):
        """Ties at the top-k cut, repeated and empty docs, and ``max_features``
        up to past the vocabulary; then rows of fitted, unseen and
        all-out-of-vocabulary docs."""
        docs = data.draw(DOCS)
        docs = data.draw(st.permutations(docs + data.draw(st.lists(st.sampled_from(docs),
                                                                   max_size=6))))
        n_terms = len({g for d in docs for g in ngrams(d.tokens)})
        max_features = data.draw(st.integers(1, n_terms + 3))
        model = fit_tfidf(docs, max_features)
        assert_same_model(model, ref.fit_tfidf(docs, max_features), docs)
        probe = docs + data.draw(DOCS) + [doc(), doc("zz", "zz"), doc("zz")]
        lengths, cols, values = transform_tfidf(model, probe)
        want = [ref.transform_tfidf(model, d) for d in probe]
        assert lengths.tolist() == [w.indices.size for w in want]
        assert cols.tobytes() == np.concatenate([np.zeros(0, np.int32)]
                                                + [w.indices for w in want]).tobytes()
        assert values.tobytes() == np.concatenate([np.zeros(0)]
                                                  + [w.values for w in want]).tobytes()

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_assembly_on_generated_issues(self, pipeline, data):
        """Rows written in chunks of any size, and the first failing row's
        error: probabilities that do not sum to 1, lie outside [0, 1] or are
        NaN. (An idf of 0 cannot be built: a decoded ``df`` lies in [1,
        ``n_docs``], so every idf is at least 1; see ``TestTfidfDecoder``.)"""
        words = st.lists(st.sampled_from(["parser", "crash", "export", "cache", "load",
                                          "option", "zz", "qq"]), max_size=7).map(" ".join)
        issues = [make_issue(id=f"g{n}", title=data.draw(words), description=data.draw(words),
                             labels=data.draw(LABELS), n_comments=data.draw(st.integers(0, 3)),
                             followers=data.draw(st.integers(0, 50)))
                  for n in range(data.draw(st.integers(0, 9)))]
        probs = [data.draw(_probs_row()) for _ in issues]
        chunk, features.ASSEMBLY_CHUNK = features.ASSEMBLY_CHUNK, data.draw(st.integers(1, 4))
        try:
            try:
                want = ref.vectorize(pipeline, issues, probs)
            except ValueError as exc:
                with pytest.raises(ValueError) as raised:
                    pipeline.assemble(issues, probs)
                assert str(raised.value) == str(exc)
                return
            assert_same_rows(pipeline.assemble(issues, probs), want)
        finally:
            features.ASSEMBLY_CHUNK = chunk
