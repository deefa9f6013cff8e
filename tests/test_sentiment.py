import random

import pytest

from issuetriage.sentiment import (
    Lexicon,
    SentimentScores,
    load_lexicon,
    score_all,
)
from issuetriage.textnorm import TokenizedDoc


def doc(*tokens):
    return TokenizedDoc(tokens=tokens)


def dual(d, lexicon):
    """``score_all``'s positivity and negativity."""
    scores = score_all(d, lexicon)
    return scores.positivity, scores.negativity


def polarity_subjectivity(d, lexicon):
    """``score_all``'s polarity and subjectivity."""
    scores = score_all(d, lexicon)
    return scores.polarity, scores.subjectivity


def lex(terms=None, negators=("not", "no", "never", "cannot"), intensifiers=None):
    return Lexicon(terms=dict(terms or {}),
                   negators=frozenset(negators),
                   intensifiers=dict(intensifiers or {}))


class TestScoreDual:
    def test_empty_doc_neutral_baseline(self):
        assert dual(doc(), lex()) == (1, -1)

    def test_single_positive(self):
        assert dual(doc("love", "it"), lex({"love": (3, 0.6)})) == (3, -1)

    def test_negation_flip(self):
        assert dual(doc("not", "good"), lex({"good": (2, 0.5)})) == (1, -2)

    def test_negator_within_two_tokens(self):
        l = lex({"good": (2, 0.5)})
        assert dual(doc("not", "so", "good"), l) == (1, -2)
        assert dual(doc("not", "a", "b", "good"), l) == (2, -1)

    def test_max_and_min_selected(self):
        l = lex({"fine": (2, 0.4), "great": (4, 0.8),
                 "bad": (-2, 0.4), "awful": (-5, 1.0)})
        assert dual(doc("fine", "great", "bad", "awful"), l) == (4, -5)

    def test_intensifier_scales(self):
        l = lex({"good": (2, 0.5)}, intensifiers={"very": 1.5})
        assert dual(doc("very", "good"), l) == (3, -1)

    def test_intensifier_clamped(self):
        l = lex({"great": (4, 0.8)}, intensifiers={"extremely": 2.0})
        assert dual(doc("extremely", "great"), l) == (5, -1)


class TestPolaritySubjectivity:
    def test_empty_doc(self):
        assert polarity_subjectivity(doc(), lex()) == (0.0, 0.0)

    def test_scale_endpoint(self):
        l = lex({"perfect": (5, 1.0)})
        assert polarity_subjectivity(doc("perfect",), l) == (1.0, 1.0)

    def test_mean_of_opposites(self):
        l = lex({"up": (3, 0.4), "down": (-3, 0.6)})
        pol, subj = polarity_subjectivity(doc("up", "down"), l)
        assert pol == pytest.approx(0.0)
        assert subj == pytest.approx(0.5)

    def test_negation_affects_polarity(self):
        l = lex({"good": (2, 0.5)})
        pol, _ = polarity_subjectivity(doc("not", "good"), l)
        assert pol == pytest.approx(-2 / 5)


class TestProperties:
    def random_docs(self, vocab, n, seed):
        rng = random.Random(seed)
        for _ in range(n):
            yield doc(*(rng.choice(vocab) for _ in range(rng.randint(0, 12)))), rng

    def test_ranges_hold_for_random_docs(self, lexicon):
        vocab = list(lexicon.terms)[:200] + list(lexicon.negators) \
            + list(lexicon.intensifiers) + ["neutral", "filler"]
        rng = random.Random(17)
        for _ in range(300):
            tokens = tuple(rng.choice(vocab) for _ in range(rng.randint(0, 15)))
            scores = score_all(doc(*tokens), lexicon)
            assert isinstance(scores, SentimentScores)  # validates all ranges
            # memoized per doc on the lexicon: a second call is the same
            # object
            assert score_all(doc(*tokens), lexicon) is scores

    def test_memo_belongs_to_its_lexicon(self):
        d = doc("alpha")
        assert score_all(d, lex({"alpha": (3, 0.5)})).positivity == 3
        assert score_all(d, lex({"alpha": (-2, 0.5)})).negativity == -2

    def test_symmetry_on_symmetric_lexicon(self):
        base = {"alpha": (3, 0.5), "beta": (-3, 0.5), "gamma": (1, 0.2),
                "delta": (-1, 0.2)}
        flipped = {t: (-s, w) for t, (s, w) in base.items()}
        rng = random.Random(23)
        vocab = list(base) + ["plain"]
        for _ in range(100):
            tokens = tuple(rng.choice(vocab) for _ in range(rng.randint(1, 10)))
            pos1, neg1 = dual(doc(*tokens), lex(base))
            pos2, neg2 = dual(doc(*tokens), lex(flipped))
            assert (pos1 - 1, abs(neg1) - 1) == (abs(neg2) - 1, pos2 - 1)
            pol1, sub1 = polarity_subjectivity(doc(*tokens), lex(base))
            pol2, sub2 = polarity_subjectivity(doc(*tokens), lex(flipped))
            assert pol1 == pytest.approx(-pol2)
            assert sub1 == pytest.approx(sub2)

    def test_appending_positive_never_decreases_positivity(self):
        l = lex({"good": (2, 0.5), "great": (4, 0.8), "bad": (-3, 0.6)})
        rng = random.Random(31)
        vocab = ["good", "great", "bad", "not", "plain"]
        for _ in range(200):
            tokens = [rng.choice(vocab) for _ in range(rng.randint(0, 8))]
            before, _ = dual(doc(*tokens), l)
            after, _ = dual(doc(*tokens, "great"), l)
            assert after >= before


class TestLexiconFile:
    def test_bundled_lexicon_loads(self, lexicon):
        assert len(lexicon.terms) > 500
        assert "not" in lexicon.negators
        assert all(-5 <= s <= 5 and s != 0 for s, _ in lexicon.terms.values())

    def test_negator_term_overlap_rejected(self):
        with pytest.raises(ValueError, match="negator"):
            lex({"not": (1, 0.1)})

    def test_bad_strength_rejected(self):
        with pytest.raises(ValueError, match="strength"):
            lex({"weird": (0, 0.5)})
        with pytest.raises(ValueError, match="strength"):
            lex({"weird": (7, 0.5)})
