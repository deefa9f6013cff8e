"""Feature construction for the priority classifier.

Three blocks, concatenated in fixed order:

* TF: title TF-IDF ++ description TF-IDF ++ the three objective-class
  probabilities coming out of stage one,
* LF: 66-dim binary label-cluster vector,
* NF: 28 metadata features, min-max scaled into [0, 1].

Vectorizer and scaler are fitted once on training data and then reused
unchanged; transforming never changes what they compute.

Each text's work is done once per process, by memos below the call sites:

* tokens: ``textnorm.normalize_pipeline``, per ``(text, source)``, for the
  process's life; the returned doc also carries the text's abstraction
  counts, which ``extract_metadata`` reads instead of a second regex pass;
* n-gram columns: ``TfidfModel.memo``, per ``TokenizedDoc``, for the model's
  life: a doc's sorted column ids and counts, which ``transform_tfidf`` and
  the stage-one rows read. ``fit_tfidf`` writes each training doc's entry
  from the n-gram ids it counts with; ``TfidfModel.columns`` looks up any
  other doc (``term_counts``) on its first read. The memo belongs to the
  model, so it goes when the model does (a CV fold's model, say) and two
  models never share entries;
* sentiment: ``sentiment.Lexicon.scores``, per ``TokenizedDoc``, for the
  lexicon's life (the default lexicon lives as long as the process).

Each memo holds one entry per distinct doc its owner has seen. The arrays a
memo returns are read-only, since every caller shares them.

``FeaturePipeline.assemble`` builds many issues' rows at once: per issue it
only tokenizes (a memo hit) and extracts metadata, and it checks, scales and
weighs whole blocks, writing rows in place ``ASSEMBLY_CHUNK`` at a time.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import json
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import labelmap, learn, sentiment, textnorm
from .corpus import ASSOCIATIONS, IssueRecord
from .labelmap import LabelMaps
from .sentiment import Lexicon
from .textnorm import AbstractToken, TokenizedDoc

TITLE_MAX_FEATURES = 10_000
DESC_MAX_FEATURES = 20_000
NGRAM_RANGE = (1, 2)


def ngrams(tokens: Sequence[str], ngram_range: tuple[int, int] = NGRAM_RANGE) -> list[str]:
    """Every ``n``-gram of ``tokens`` for ``n`` in ``ngram_range``, by ``n``,
    then by position; an ``n``-gram is its tokens joined by single spaces."""
    lo, hi = ngram_range
    out: list[str] = []
    for n in range(lo, hi + 1):
        if n == 1:
            out += tokens
        else:
            out += map(" ".join, zip(*(tokens[i:] for i in range(n))))
    return out


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
    ngram_range: tuple[int, int]
    idf: np.ndarray = field(init=False, compare=False, repr=False)
    # doc -> (sorted column ids, their counts); see the module docstring
    memo: dict[TokenizedDoc, tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "idf", idf_of(self.df, self.n_docs))

    @property
    def size(self) -> int:
        return len(self.vocabulary)

    def columns(self, doc: TokenizedDoc) -> tuple[np.ndarray, np.ndarray]:
        """The sorted column ids of ``doc``'s in-vocabulary n-grams and how
        often each occurs (floats); looked up once per doc, then memoized."""
        hit = self.memo.get(doc)
        if hit is None:
            counts = term_counts(self, doc)
            hit = self.memo[doc] = _sorted_columns(
                np.fromiter(counts, int, len(counts)),
                np.fromiter(counts.values(), float, len(counts)))
        return hit

    def fingerprint(self) -> str:
        payload = json.dumps(
            {"vocab": sorted(self.vocabulary.items()), "idf": _float_reprs(self.idf),
             "max_features": self.max_features, "ngram_range": list(self.ngram_range)},
            sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    def to_doc(self) -> dict:
        return learn.encode_block(
            {"vocabulary": self.vocabulary, "df": self.df, "n_docs": self.n_docs,
             "max_features": self.max_features, "ngram_range": list(self.ngram_range)},
            learn.BLOCKS["tfidf"])

    @classmethod
    def from_doc(cls, doc, what: str = "TF-IDF block") -> "TfidfModel":
        """The model ``doc`` holds. Its decoder keeps each ``df`` in [1,
        ``n_docs``], so every idf is at least 1."""
        block = learn.decode_block(doc, learn.BLOCKS["tfidf"], what, {})
        return cls(block["vocabulary"], block["df"], block["n_docs"], block["max_features"],
                   tuple(block["ngram_range"].tolist()))


def idf_of(df: np.ndarray, n_docs: int) -> np.ndarray:
    """idf(t) = ln((1+N)/(1+df(t))) + 1, each in Python floats, for a fit and a load."""
    return np.array([math.log((1 + n_docs) / (1 + d)) + 1.0 for d in df.tolist()], dtype=float)


def fit_tfidf(docs: Sequence[TokenizedDoc], max_features: int,
              ngram_range: tuple[int, int] = NGRAM_RANGE) -> TfidfModel:
    """Vocabulary is the ``max_features`` most frequent n-grams by total corpus
    count (ties broken lexicographically); idf(t) = ln((1+N)/(1+df(t))) + 1.
    Counts each distinct doc's interned n-gram ids once, times its number of
    copies, and writes its memo entry from the same ids."""
    if not docs:
        raise ValueError("cannot fit TF-IDF on an empty corpus")
    if max_features < 1:
        raise ValueError("max_features must be at least 1")
    multiplicity = Counter(docs)
    ids: defaultdict[str, int] = defaultdict(itertools.count().__next__)
    grams: dict[TokenizedDoc, tuple[np.ndarray, np.ndarray]] = {}  # doc -> ids, counts
    for doc in multiplicity:
        counted = Counter(ngrams(doc.tokens, ngram_range))
        grams[doc] = (np.fromiter(map(ids.__getitem__, counted), np.int32, len(counted)),
                      np.fromiter(counted.values(), np.int32, len(counted)))
    terms = list(ids)  # id -> n-gram
    del ids
    at, counts = map(np.concatenate, zip(*grams.values()))
    weight = np.repeat(np.fromiter(multiplicity.values(), float, len(grams)),
                       [a.size for a, _ in grams.values()])
    df, total = np.bincount(at, weight, len(terms)), np.bincount(at, weight * counts, len(terms))
    del at, counts, weight
    # The top ``max_features`` of a lexicographic sort followed by a stable
    # sort by count, highest first, without either full sort: with ``cut``
    # the count of the ``max_features``-th highest total, that is every term
    # counted above ``cut``, filled up with the lexicographically smallest
    # terms counted exactly ``cut``.
    if len(terms) <= max_features:
        chosen = sorted(range(len(terms)), key=terms.__getitem__)
    else:
        cut = np.partition(total, len(terms) - max_features)[len(terms) - max_features]
        above = np.flatnonzero(total > cut).tolist()
        tied = np.flatnonzero(total == cut).tolist()
        chosen = sorted(above + heapq.nsmallest(max_features - len(above), tied,
                                                key=terms.__getitem__),
                        key=terms.__getitem__)
    column = np.full(len(terms), -1)
    column[chosen] = np.arange(len(chosen))
    model = TfidfModel({terms[i]: c for c, i in enumerate(chosen)},
                       df[chosen].astype(np.int64), len(docs), max_features, ngram_range)
    while grams:  # each doc's ids go as its entry is written
        doc, (at, counts) = grams.popitem()
        cols = column[at]
        kept = cols >= 0
        model.memo[doc] = _sorted_columns(cols[kept], counts[kept].astype(float))
    return model


def term_counts(model: TfidfModel, doc: TokenizedDoc) -> Counter[int]:
    """Occurrences of each in-vocabulary n-gram of ``doc``, keyed by column;
    out-of-vocabulary n-grams are ignored. The n-gram -> column lookup of a
    doc the fit never saw."""
    counts = Counter(map(model.vocabulary.get, ngrams(doc.tokens, model.ngram_range)))
    counts.pop(None, None)  # the out-of-vocabulary n-grams
    return counts


def _sorted_columns(indices: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column ids (ints) and their counts (floats) as read-only arrays, by column."""
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
    cols = np.concatenate([np.zeros(0, int), *(cols for cols, _ in pairs)])
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

_lexicon_cache: Lexicon | None = None


def _default_lexicon() -> Lexicon:
    global _lexicon_cache
    if _lexicon_cache is None:
        _lexicon_cache = sentiment.load_lexicon()
    return _lexicon_cache


def extract_metadata(issue: IssueRecord, lex: Lexicon | None = None) -> np.ndarray:
    """The 28 Table-style metadata features, unscaled, in FEATURE_NAMES order.

    All values reflect the issue's final (closed-time) state. Empty
    discussions default the four discussion features to zero.
    """
    lex = lex or _default_lexicon()
    desc_doc = textnorm.normalize_pipeline(issue.description, source="description")
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
        block = learn.decode_block(doc, learn.BLOCKS["scaler"], what, dims or {})
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
    lexicon: Lexicon = field(repr=False, default=None)  # type: ignore[assignment]

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
        return [self.tfidf_title.columns(textnorm.normalize_pipeline(issue.title, source="title")),
                self.tfidf_desc.columns(
                    textnorm.normalize_pipeline(issue.description, source="description"))]

    def stage1_rows(self, issues: Sequence[IssueRecord]) -> learn.SparseRows:
        """The stage-one model's input, one row per issue: the raw term counts
        of title ++ description at their sorted columns, joined from the memo."""
        parts = [part for issue in issues for part in self._columns(issue)]
        lengths = [cols.size for cols, _ in parts]
        cols = np.concatenate([np.zeros(0, int), *(cols for cols, _ in parts)])
        cols += np.repeat(np.tile([0, self.tfidf_title.size], len(issues)), lengths)
        return learn.SparseRows(np.arange(len(issues)).repeat(2).repeat(lengths), cols,
                                np.concatenate([np.zeros(0), *(counts for _, counts in parts)]),
                                (len(issues), self.stage1_width))

    def stage1_counts(self, issue: IssueRecord) -> np.ndarray:
        """``stage1_rows([issue])`` as a dense row of ``stage1_width`` columns."""
        (title, title_counts), (desc, desc_counts) = self._columns(issue)
        row = np.zeros(self.stage1_width)
        row[title], row[desc + self.tfidf_title.size] = title_counts, desc_counts
        return row

    def blocks(self, issues: Sequence[IssueRecord], objective_probs) -> tuple:
        """The issues' title docs and description docs, and blocks of a row
        per issue: objective probabilities (``objective_probs``), label
        clusters and scaled metadata. The first row failing a check (written
        so that NaN fails it) raises its ``ValueError``."""
        title_docs, desc_docs, labels, metadata = [], [], [], []
        for issue in issues:
            title_docs.append(textnorm.normalize_pipeline(issue.title, source="title"))
            desc_docs.append(textnorm.normalize_pipeline(issue.description, source="description"))
            labels.append(labelmap.label_features(issue.labels, self.maps.clusters))
            metadata.append(extract_metadata(issue, self.lexicon))
        n = len(issues)
        probs = np.array(objective_probs, dtype=float).reshape(n, len(learn.OBJECTIVE_CLASS_ORDER))
        lf = np.array(labels, dtype=np.uint8).reshape(n, labelmap.N_CLUSTERS)
        nf = scale(self.scaler, np.array(metadata).reshape(n, N_METADATA_FEATURES))
        failed = np.column_stack([~(abs(probs.sum(axis=1) - 1.0) <= PROB_SUM_TOLERANCE),
                                  ~np.all((probs >= 0) & (probs <= 1), axis=1),
                                  ~np.all((nf >= 0) & (nf <= 1), axis=1)])
        if failed.any():
            raise ValueError(_ROW_CHECKS[np.argwhere(failed)[0][1]])
        return title_docs, desc_docs, probs, lf, nf

    def assemble(self, issues: Sequence[IssueRecord], objective_probs) -> learn.SparseRows:
        """The issues' feature vectors, one row each, checked as ``blocks``
        says: each row's non-zeros are counted, then written in place."""
        title_docs, desc_docs, probs, lf, nf = self.blocks(issues, objective_probs)
        tf = ((self.tfidf_title, title_docs, 0),
              (self.tfidf_desc, desc_docs, self.tfidf_title.size))
        widths = [np.fromiter((model.columns(doc)[0].size for doc in docs), np.intp, len(docs))
                  for model, docs, _ in tf]
        widths.append(np.count_nonzero(probs, axis=1) + np.count_nonzero(lf, axis=1)
                      + np.count_nonzero(nf, axis=1))
        per_row = sum(widths)
        rows = np.repeat(np.arange(len(issues)), per_row)
        cols, values = np.empty(rows.size, dtype=int), np.empty(rows.size)
        starts = np.cumsum(per_row) - per_row
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
        return learn.SparseRows(rows, cols, values, (len(issues), self.width))

    def feature_names(self) -> list[str]:
        inv_title = {i: t for t, i in self.tfidf_title.vocabulary.items()}
        inv_desc = {i: t for t, i in self.tfidf_desc.vocabulary.items()}
        names = [f"tf:title:{inv_title[i]}" for i in range(self.tfidf_title.size)]
        names += [f"tf:desc:{inv_desc[i]}" for i in range(self.tfidf_desc.size)]
        names += [f"tf:prob:{c}" for c in learn.OBJECTIVE_CLASS_ORDER]
        names += [f"lf:{rep}" for rep in self.maps.clusters.representatives]
        names += [f"nf:{name}" for name in FEATURE_NAMES]
        return names


def fit_feature_pipeline(
    issues: Iterable[IssueRecord],
    maps: LabelMaps,
    lex: Lexicon | None = None,
    title_max_features: int = TITLE_MAX_FEATURES,
    desc_max_features: int = DESC_MAX_FEATURES,
    ngram_range: tuple[int, int] = NGRAM_RANGE,
) -> FeaturePipeline:
    issues = list(issues)
    lex = lex or _default_lexicon()
    title_docs = [textnorm.normalize_pipeline(i.title, source="title") for i in issues]
    desc_docs = [textnorm.normalize_pipeline(i.description, source="description") for i in issues]
    return FeaturePipeline(
        tfidf_title=fit_tfidf(title_docs, title_max_features, ngram_range),
        tfidf_desc=fit_tfidf(desc_docs, desc_max_features, ngram_range),
        scaler=fit_scaler([extract_metadata(i, lex) for i in issues]),
        maps=maps,
        lexicon=lex,
    )
