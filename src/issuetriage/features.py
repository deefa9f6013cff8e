"""Feature construction for the priority classifier.

Three blocks, concatenated in fixed order:

* TF: title TF-IDF ++ description TF-IDF (unigrams and bigrams) ++ the
  three objective-class probabilities coming out of stage one,
* LF: 66-dim binary label-cluster vector,
* NF: 28 metadata features, min-max scaled into [0, 1].

Vectorizer and scaler are fitted once on training data and then reused
unchanged; transforming never changes what they compute.

Each text's work is done once per process, by memos below the call sites:

* tokens: ``textnorm.normalize_pipeline``, per text, for the process's
  life, so a title and a description of the same text share one doc; the
  returned doc also carries the text's abstraction counts, which
  ``extract_metadata`` reads instead of a second regex pass;
* n-gram columns: ``TfidfModel.memo``, per ``TokenizedDoc``, for the model's
  life: a doc's sorted column ids (int32, the dtype of X's columns) and
  counts (float64), which ``transform_tfidf`` and the stage-one rows read.
  ``fit_tfidf`` counts n-grams as integer codes, builds strings for the
  vocabulary alone, and writes every training doc's entry as views into one
  block of columns and one of counts for the whole fit, 12 bytes per (doc,
  column) pair; ``TfidfModel.columns`` looks up any other doc
  (``term_counts``) on its first read, with the same dtypes. The memo
  belongs to the model, so it goes when the model does (a CV fold's model,
  say) and two models never share entries;
* sentiment: ``sentiment.Lexicon.scores``, per ``TokenizedDoc``, for the
  life of the bundled lexicon, which is loaded once per process.

Each memo holds one entry per distinct doc its owner has seen. The arrays a
memo returns are read-only, since every caller shares them.

``FeaturePipeline.assemble`` builds many issues' rows at once: per issue it
only tokenizes (a memo hit) and extracts metadata, and it checks, scales and
weighs whole blocks, writing rows in place ``ASSEMBLY_CHUNK`` at a time.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import labelmap, learn, sentiment, textnorm
from .corpus import ASSOCIATIONS, IssueRecord
from .decode import Field, Table
from .labelmap import LabelMaps
from .sentiment import Lexicon
from .textnorm import AbstractToken, TokenizedDoc

TITLE_MAX_FEATURES = 10_000
DESC_MAX_FEATURES = 20_000
NGRAM_RANGE = (1, 2)


def ngrams(tokens: Sequence[str]) -> list[str]:
    """Every unigram of ``tokens``, then every bigram, each by position; a
    bigram is its two tokens joined by a single space."""
    return [*tokens, *map(" ".join, zip(tokens, tokens[1:]))]


@dataclass(frozen=True)
class TfidfModel:
    """A fitted vectorizer: its vocabulary, each column's document frequency
    over the ``n_docs`` training docs, and the settings it was fit with. The
    idf is derived from ``df`` and ``n_docs`` as the model is made
    (``idf_of``), so an artifact stores the counts and never the idf."""

    vocabulary: dict[str, int]  # term -> column
    df: np.ndarray  # column -> training docs that hold its term (ints)
    n_docs: int
    max_features: int
    idf: np.ndarray = field(init=False, compare=False, repr=False)
    # doc -> (sorted int32 column ids, their float counts); see the module docstring
    memo: dict[TokenizedDoc, tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "idf", idf_of(self.df, self.n_docs))

    @property
    def size(self) -> int:
        return len(self.vocabulary)

    def columns(self, doc: TokenizedDoc) -> tuple[np.ndarray, np.ndarray]:
        """The sorted column ids (int32) of ``doc``'s in-vocabulary n-grams
        and how often each occurs (floats); looked up once per doc, then memoized."""
        hit = self.memo.get(doc)
        if hit is None:
            counts = term_counts(self, doc)
            hit = self.memo[doc] = _sorted_columns(
                np.fromiter(counts, np.int32, len(counts)),
                np.fromiter(counts.values(), float, len(counts)))
        return hit

    def fingerprint(self) -> str:
        payload = json.dumps(
            {"vocab": sorted(self.vocabulary.items()), "idf": _float_reprs(self.idf),
             "max_features": self.max_features, "ngram_range": list(NGRAM_RANGE)},
            sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    def to_doc(self) -> dict:
        return TFIDF.encode(
            {"vocabulary": self.vocabulary, "df": self.df, "n_docs": self.n_docs,
             "max_features": self.max_features, "ngram_range": list(NGRAM_RANGE)})

    @classmethod
    def from_doc(cls, doc, what: str = "TF-IDF block") -> "TfidfModel":
        """The model ``doc`` holds. Its table keeps each ``df`` in [1,
        ``n_docs``], so every idf is at least 1; an ``ngram_range`` other
        than ``NGRAM_RANGE`` is refused, since no other is applied."""
        block = TFIDF.decode(doc, what)
        if (ngram_range := block["ngram_range"].tolist()) != list(NGRAM_RANGE):
            raise learn.ArtifactError(f"{what} ngram_range {ngram_range} is not "
                                      f"{list(NGRAM_RANGE)}, the only range this version applies")
        return cls(block["vocabulary"], block["df"], block["n_docs"], block["max_features"])


TFIDF = Table({"vocabulary": Field("terms", ("V",)), "n_docs": Field("int", (), 1),
               "df": Field("int", ("V",), 1, "n_docs"), "max_features": Field("int", (), 1),
               "ngram_range": Field("int", (2,), 1)}, learn.ArtifactError)
SCALER = Table({"min": Field("float", ("F",)), "max": Field("float", ("F",), "min")},
               learn.ArtifactError)


def idf_of(df: np.ndarray, n_docs: int) -> np.ndarray:
    """idf(t) = ln((1+N)/(1+df(t))) + 1, each in Python floats, for a fit and a load."""
    return np.array([math.log((1 + n_docs) / (1 + d)) + 1.0 for d in df.tolist()], dtype=float)


def fit_tfidf(docs: Sequence[TokenizedDoc], max_features: int) -> TfidfModel:
    """Vocabulary is the ``max_features`` most frequent unigrams and bigrams
    by total corpus count (ties broken lexicographically); idf(t) =
    ln((1+N)/(1+df(t))) + 1.

    No n-gram string is built but those of the vocabulary. Each distinct
    token is ranked 1, 2, ... in string order, and an n-gram is coded as
    first rank x (tokens + 1) + second rank, a unigram's second rank 0. The
    codes sort as the n-grams' strings do, because every token character
    sorts after the joining ``' '`` (``TokenizedDoc`` refuses any character
    below ``'!'``). Of two first tokens ``s`` and ``t``, if neither is a
    prefix of the other, their first differing character decides both
    orders; if ``s`` is a proper prefix of ``t``, the string starting with
    ``s`` goes on with ``' '`` or ends where the other goes on with a
    character of ``t``, above ``' '``, so it sorts first, as ``s``'s rank
    does. With equal first tokens, a unigram's string is a prefix of the
    bigram's, as its 0 is below any rank, and two bigrams' second tokens
    decide by the same two cases. (A token holding ``'\\x01'`` would break
    this: ``"a\\x01"`` sorts before ``"a b"`` as a string, after it as
    ranks.) So the top-k rule's lexicographic tie break takes the smallest
    codes. ``df`` and the totals count each distinct doc's (doc, n-gram)
    pairs once, times its number of copies. The memo is one block of
    columns and one of counts, ordered by doc, then column; each distinct
    doc's entry is a view into them."""
    if not docs:
        raise ValueError("cannot fit TF-IDF on an empty corpus")
    if max_features < 1:
        raise ValueError("max_features must be at least 1")
    multiplicity = Counter(docs)
    distinct = list(multiplicity)
    words = [""] + sorted(set(itertools.chain.from_iterable(distinct)))  # rank -> token
    rank = dict(zip(words, range(len(words))))
    lengths = np.fromiter(map(len, distinct), np.intp, len(distinct))
    flat = np.fromiter(map(rank.__getitem__, itertools.chain.from_iterable(distinct)),
                       np.int64, lengths.sum())
    del rank
    left = np.repeat(np.cumsum(lengths), lengths) - np.arange(flat.size)  # tokens from here on
    # one row per n-gram occurrence: each unigram, then each bigram, by
    # where it starts; the bigram rows begin at ``n_unigrams``
    n_unigrams = flat.size
    start = np.concatenate([np.arange(n_unigrams), np.flatnonzero(left >= 2)])
    del left
    code = flat[start]
    code *= len(words)
    code[n_unigrams:] += flat[start[n_unigrams:] + 1]
    order = np.argsort(code, kind="stable")  # rows of equal codes stay by doc
    code.sort()
    new_gram = np.ones(code.size, bool)
    np.not_equal(code[1:], code[:-1], out=new_gram[1:])
    del code
    first = order[new_gram]  # each n-gram's first row
    doc_of = np.repeat(np.arange(len(distinct)), lengths)[start[order]]
    del order
    first_start, first_size = start[first], 1 + (first >= n_unigrams)
    del start, first
    # the distinct (doc, n-gram) pairs, by n-gram, then doc, and their counts
    new_pair = new_gram.copy()
    new_pair[1:] |= doc_of[1:] != doc_of[:-1]
    pair = np.flatnonzero(new_pair)
    del new_pair
    gram = np.cumsum(new_gram[pair]) - 1
    del new_gram
    count = np.diff(pair, append=doc_of.size)
    doc_of = doc_of[pair]
    del pair
    weight = np.fromiter(multiplicity.values(), float, len(distinct))[doc_of]
    df = np.bincount(gram, weight, first_start.size)
    chosen = _top_k(np.bincount(gram, weight * count, first_start.size), max_features)
    del weight
    terms = _joined(words, flat, first_start[chosen], first_size[chosen])
    del flat, first_start, first_size, words
    model = TfidfModel(dict(zip(terms, range(len(terms)))), df[chosen].astype(np.int64),
                       len(docs), max_features)
    column = np.full(df.size, -1, dtype=np.int32)
    column[chosen] = np.arange(chosen.size)
    kept = column[gram] >= 0
    doc_of = doc_of[kept]
    by_doc = np.argsort(doc_of, kind="stable")
    cols = column[gram[kept][by_doc]]
    counts = count[kept][by_doc].astype(float)
    cols.flags.writeable = counts.flags.writeable = False
    ends = np.cumsum(np.bincount(doc_of, minlength=len(distinct))).tolist()
    for doc, a, b in zip(distinct, [0] + ends, ends):
        model.memo[doc] = cols[a:b], counts[a:b]
    return model


def _top_k(total: np.ndarray, k: int) -> np.ndarray:
    """The ``k`` n-grams with the highest ``total``, ties going to the
    smallest codes, as ascending codes: the top ``k`` of a lexicographic
    sort followed by a stable sort by count, highest first, without either
    full sort. With ``cut`` the ``k``-th highest total, that is every n-gram
    counted above ``cut``, filled up with the smallest counted exactly ``cut``."""
    if total.size <= k:
        return np.arange(total.size)
    cut = np.partition(total, total.size - k)[total.size - k]
    keep = total > cut
    keep[np.flatnonzero(total == cut)[:k - np.count_nonzero(keep)]] = True
    return np.flatnonzero(keep)


def _joined(words: list[str], flat: np.ndarray, starts: np.ndarray,
            sizes: np.ndarray) -> list[str]:
    """The strings of the n-grams of ``sizes[i]`` tokens at ``starts[i]`` of
    ``flat``: each token rank's word, joined by single spaces."""
    by_rank = np.array(words, dtype=object)
    terms = np.empty(starts.size, dtype=object)
    for n in set(sizes.tolist()):
        at = np.flatnonzero(sizes == n)
        terms[at] = list(map(" ".join, zip(*(by_rank[flat[starts[at] + i]] for i in range(n)))))
    return terms.tolist()


def term_counts(model: TfidfModel, doc: TokenizedDoc) -> Counter[int]:
    """Occurrences of each in-vocabulary n-gram of ``doc``, keyed by column;
    out-of-vocabulary n-grams are ignored. The n-gram -> column lookup of a
    doc the fit never saw."""
    counts = Counter(map(model.vocabulary.get, ngrams(doc.tokens)))
    counts.pop(None, None)  # the out-of-vocabulary n-grams
    return counts


def _sorted_columns(indices: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column ids and their counts (floats) as read-only arrays, by column."""
    order = np.argsort(indices)
    indices, values = indices[order], values[order]
    indices.flags.writeable = values.flags.writeable = False
    return indices, values


def _float_reprs(values: np.ndarray) -> list[str]:
    """Each value as numpy 2 writes a float64 scalar's repr, under any numpy."""
    return [f"np.float64({x!r})" for x in values.tolist()]


def transform_tfidf(model: TfidfModel, docs: Sequence[TokenizedDoc]
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The TF-IDF rows of ``docs``: each row's length, then their sorted column
    ids and weights back to back. Term count times idf, out-of-vocabulary
    n-grams ignored, each row L2-normalized by its own ``np.add.reduce``."""
    pairs = [model.columns(doc) for doc in docs]
    lengths = np.fromiter((cols.size for cols, _ in pairs), np.intp, len(pairs))
    cols = np.concatenate([np.zeros(0, np.int32), *(cols for cols, _ in pairs)])
    values = np.concatenate([np.zeros(0), *(counts for _, counts in pairs)]) * model.idf[cols]
    squares = values ** 2
    ends = np.cumsum(lengths).tolist()
    norms = np.sqrt([np.add.reduce(squares[a:b]) for a, b in zip([0] + ends, ends)])
    norms[~(norms > 0)] = 1.0  # an empty row, or a NaN, stays as it is
    return lengths, cols, values / np.repeat(norms, lengths)


# ---------------------------------------------------------------------------
# Metadata features (28)

FEATURE_NAMES: tuple[str, ...] = (
    # textual
    "title_words", "desc_words", "code", "url",
    # discussion
    "comments", "cm_mean_len", "cm_developers_ratio", "time_to_discuss",
    # events
    "events", "assigned", "is_pull_request", "has_commit", "has_milestone", "labels",
    # developer
    "author_followers", "author_following", "author_public_repos",
    "author_public_gists", "author_issue_counts", "author_github_cntrb",
    "author_account_age", "author_repo_cntrb", "association", "same_author_closer",
    # sentiment
    "desc_positivity", "desc_negativity", "desc_pos_polarity", "desc_subjectivity",
)

N_METADATA_FEATURES = len(FEATURE_NAMES)
assert N_METADATA_FEATURES == 28

_ASSOCIATION_ORDINAL = {name: i for i, name in enumerate(ASSOCIATIONS)}


@functools.cache
def _default_lexicon() -> Lexicon:
    return sentiment.load_lexicon()


def extract_metadata(issue: IssueRecord, lex: Lexicon | None = None) -> np.ndarray:
    """The 28 Table-style metadata features, unscaled, in FEATURE_NAMES order.

    All values reflect the issue's final (closed-time) state. Empty
    discussions default the four discussion features to zero. Sentiment is
    scored with the bundled lexicon; ``lex`` replaces it in tests.
    """
    lex = lex or _default_lexicon()
    desc_doc = textnorm.normalize_pipeline(issue.description)
    abstractions = desc_doc.abstractions

    n_comments = len(issue.comments)
    if n_comments:
        cm_mean_len = sum(len(c.body.split()) for c in issue.comments) / n_comments
        commenters = {c.author_login for c in issue.comments}
        cm_developers_ratio = n_comments / len(commenters)
        last = max(c.created_at for c in issue.comments)
        time_to_discuss = max(0.0, (last - issue.created_at).total_seconds() / 3600.0)
    else:
        cm_mean_len = cm_developers_ratio = time_to_discuss = 0.0

    if issue.author.account_created_at is not None:
        account_age = max(0.0, (issue.created_at - issue.author.account_created_at).days)
    else:
        account_age = 0.0

    scores = sentiment.score_all(desc_doc, lex)

    author = issue.author
    return np.array([  # in FEATURE_NAMES order, one line per group
        float(len(issue.title.split())), float(len(issue.description.split())),
        float(abstractions.get(AbstractToken.CODE, 0)),
        float(abstractions.get(AbstractToken.URL, 0)),
        float(n_comments), cm_mean_len, cm_developers_ratio, time_to_discuss,
        float(len(issue.events)), float(issue.assignee_present), float(issue.is_pull_request),
        float(issue.referenced_commit), float(issue.milestone_present), float(len(issue.labels)),
        float(author.followers), float(author.following), float(author.public_repos),
        float(author.public_gists), float(author.issue_count), float(author.github_contributions),
        account_age, float(author.repo_contributions),
        float(_ASSOCIATION_ORDINAL[author.association]),
        float(bool(issue.closer_login) and issue.closer_login == author.login),
        # desc_pos_polarity is the positive part of the polarity score; raw
        # polarity is recoverable from positivity/negativity if wanted
        float(scores.positivity), float(scores.negativity), max(scores.polarity, 0.0),
        scores.subjectivity,
    ])


# ---------------------------------------------------------------------------
# Min-max scaling

@dataclass(frozen=True)
class ScalerParams:
    minimums: np.ndarray
    maximums: np.ndarray

    def __post_init__(self) -> None:
        if np.any(self.minimums > self.maximums):
            raise ValueError("per-feature minimum exceeds maximum")

    def fingerprint(self) -> str:
        payload = json.dumps({"min": _float_reprs(self.minimums),
                              "max": _float_reprs(self.maximums)})
        return hashlib.sha256(payload.encode()).hexdigest()

    def to_doc(self) -> dict:
        return {"min": [float(x) for x in self.minimums],
                "max": [float(x) for x in self.maximums]}

    @classmethod
    def from_doc(cls, doc, what: str = "scaler block", dims: dict | None = None
                 ) -> "ScalerParams":
        block = SCALER.decode(doc, what, dims)
        return cls(block["min"], block["max"])


def fit_scaler(rows: Sequence[np.ndarray]) -> ScalerParams:
    if not len(rows):
        raise ValueError("cannot fit scaler on an empty training set")
    matrix = np.vstack(rows)
    return ScalerParams(matrix.min(axis=0), matrix.max(axis=0))


def scale(params: ScalerParams, rows: np.ndarray) -> np.ndarray:
    """(x - min) / (max - min) of a row or a block of rows, constant features
    pinned to 0, clipped into [0, 1] so unseen test values stay in range."""
    span = params.maximums - params.minimums
    out = np.zeros_like(rows, dtype=float)
    nonconst = span > 0
    out[..., nonconst] = (rows[..., nonconst] - params.minimums[nonconst]) / span[nonconst]
    return np.clip(out, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Assembly

# how far from 1 a row of objective probabilities may sum, here and in an
# objective probability file (``cli.load_probs_file``)
PROB_SUM_TOLERANCE = 1e-6


ASSEMBLY_CHUNK = 1024  # rows that ``FeaturePipeline.assemble`` weighs at a time
_ROW_CHECKS = ("objective probabilities must sum to 1", "objective probabilities outside [0, 1]",
               "normalized features outside [0, 1]")


def _spans(first: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions of runs of ``lengths[i]`` entries from ``first[i]`` on."""
    return np.repeat(first - (np.cumsum(lengths) - lengths), lengths) + np.arange(lengths.sum())


@dataclass(frozen=True)
class FeaturePipeline:
    """Fitted preprocessing bundle: vectorizers, scaler and label tables."""

    tfidf_title: TfidfModel
    tfidf_desc: TfidfModel
    scaler: ScalerParams
    maps: LabelMaps

    def fingerprints(self) -> dict[str, str]:
        out = {"tfidf_title": self.tfidf_title.fingerprint(),
               "tfidf_desc": self.tfidf_desc.fingerprint(),
               "scaler": self.scaler.fingerprint()}
        out.update(self.maps.checksums())
        return out

    @property
    def stage1_width(self) -> int:
        return self.tfidf_title.size + self.tfidf_desc.size

    @property
    def width(self) -> int:
        """Columns of an assembled vector: TF, LF and NF."""
        return (self.stage1_width + len(learn.OBJECTIVE_CLASS_ORDER) + labelmap.N_CLUSTERS
                + N_METADATA_FEATURES)

    def _columns(self, issue: IssueRecord) -> list[tuple[np.ndarray, np.ndarray]]:
        """The memo entries of the issue's title and description."""
        return [self.tfidf_title.columns(textnorm.normalize_pipeline(issue.title)),
                self.tfidf_desc.columns(textnorm.normalize_pipeline(issue.description))]

    def stage1_rows(self, issues: Sequence[IssueRecord]) -> learn.SparseRows:
        """The stage-one model's input, one row per issue: the raw term counts
        of title ++ description at their sorted columns, joined from the memo."""
        parts = [part for issue in issues for part in self._columns(issue)]
        lengths = np.fromiter((cols.size for cols, _ in parts), np.intp, len(parts))
        indptr = np.zeros(len(issues) + 1, dtype=np.intp)
        np.cumsum(lengths.reshape(-1, 2).sum(axis=1), out=indptr[1:])
        cols = np.concatenate([np.zeros(0, np.int32), *(cols for cols, _ in parts)])
        cols += np.repeat(np.tile(np.array([0, self.tfidf_title.size], np.int32), len(issues)),
                          lengths)
        return learn.SparseRows(indptr, cols,
                                np.concatenate([np.zeros(0), *(counts for _, counts in parts)]),
                                (len(issues), self.stage1_width))

    def stage1_counts(self, issue: IssueRecord) -> np.ndarray:
        """``stage1_rows([issue])`` as a dense row of ``stage1_width`` columns."""
        (title, title_counts), (desc, desc_counts) = self._columns(issue)
        row = np.zeros(self.stage1_width)
        row[title], row[desc + self.tfidf_title.size] = title_counts, desc_counts
        return row

    def assemble(self, issues: Sequence[IssueRecord], objective_probs) -> learn.SparseRows:
        """The issues' feature vectors, one row each: TF-IDF of title and
        description, objective probabilities (``objective_probs``), label
        clusters and scaled metadata. The first row failing a check (written
        so that NaN fails it) raises its ``ValueError``; then each row's
        non-zeros are counted, the counts' running sum is X's ``indptr``, and
        the columns (int32) and values are written in place."""
        title_docs, desc_docs, labels, metadata = [], [], [], []
        for issue in issues:
            title_docs.append(textnorm.normalize_pipeline(issue.title))
            desc_docs.append(textnorm.normalize_pipeline(issue.description))
            labels.append(labelmap.label_features(issue.labels, self.maps.clusters))
            metadata.append(extract_metadata(issue))
        n = len(issues)
        probs = np.array(objective_probs, dtype=float).reshape(n, len(learn.OBJECTIVE_CLASS_ORDER))
        lf = np.array(labels, dtype=np.uint8).reshape(n, labelmap.N_CLUSTERS)
        nf = scale(self.scaler, np.array(metadata).reshape(n, N_METADATA_FEATURES))
        failed = np.column_stack([~(abs(probs.sum(axis=1) - 1.0) <= PROB_SUM_TOLERANCE),
                                  ~np.all((probs >= 0) & (probs <= 1), axis=1),
                                  ~np.all((nf >= 0) & (nf <= 1), axis=1)])
        if failed.any():
            raise ValueError(_ROW_CHECKS[np.argwhere(failed)[0][1]])
        tf = ((self.tfidf_title, title_docs, 0),
              (self.tfidf_desc, desc_docs, self.tfidf_title.size))
        widths = [np.fromiter((model.columns(doc)[0].size for doc in docs), np.intp, len(docs))
                  for model, docs, _ in tf]
        widths.append(np.count_nonzero(probs, axis=1) + np.count_nonzero(lf, axis=1)
                      + np.count_nonzero(nf, axis=1))
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(sum(widths), out=indptr[1:])
        cols, values = np.empty(indptr[-1], dtype=np.int32), np.empty(indptr[-1])
        starts = indptr[:-1]
        for a in range(0, len(issues), ASSEMBLY_CHUNK):
            chunk = slice(a, a + ASSEMBLY_CHUNK)
            first = starts[chunk]
            for model, docs, offset in tf:
                lengths, block_cols, block_values = transform_tfidf(model, docs[chunk])
                at = _spans(first, lengths)
                cols[at], values[at] = block_cols + offset, block_values
                first = first + lengths
            tail = np.hstack([probs[chunk], lf[chunk], nf[chunk]])
            kept = tail != 0
            at = _spans(first, widths[2][chunk])
            cols[at], values[at] = kept.nonzero()[1] + self.stage1_width, tail[kept]
        return learn.SparseRows(indptr, cols, values, (n, self.width))

    def feature_names(self) -> list[str]:
        inv_title = {i: t for t, i in self.tfidf_title.vocabulary.items()}
        inv_desc = {i: t for t, i in self.tfidf_desc.vocabulary.items()}
        names = [f"tf:title:{inv_title[i]}" for i in range(self.tfidf_title.size)]
        names += [f"tf:desc:{inv_desc[i]}" for i in range(self.tfidf_desc.size)]
        names += [f"tf:prob:{c}" for c in learn.OBJECTIVE_CLASS_ORDER]
        names += [f"lf:{rep}" for rep in self.maps.clusters.representatives]
        names += [f"nf:{name}" for name in FEATURE_NAMES]
        return names


def fit_feature_pipeline(issues: Iterable[IssueRecord], maps: LabelMaps,
                         title_max_features: int = TITLE_MAX_FEATURES,
                         desc_max_features: int = DESC_MAX_FEATURES) -> FeaturePipeline:
    issues = list(issues)
    title_docs = [textnorm.normalize_pipeline(i.title) for i in issues]
    desc_docs = [textnorm.normalize_pipeline(i.description) for i in issues]
    return FeaturePipeline(
        tfidf_title=fit_tfidf(title_docs, title_max_features),
        tfidf_desc=fit_tfidf(desc_docs, desc_max_features),
        scaler=fit_scaler([extract_metadata(i) for i in issues]),
        maps=maps,
    )
