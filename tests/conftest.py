from __future__ import annotations

import pytest

from issuetriage import labelmap, sentiment
from issuetriage.corpus import Corpus, load_corpus
from testkit import FIXTURES


@pytest.fixture(scope="session")
def maps():
    return labelmap.load_label_maps()


@pytest.fixture(scope="session")
def lexicon():
    return sentiment.load_lexicon()


@pytest.fixture(scope="session")
def planted_corpus() -> Corpus:
    corpus, errors = load_corpus(FIXTURES / "planted_corpus.jsonl")
    assert not errors
    return corpus
