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
  life. ``TfidfModel.columns`` looks a doc's n-grams up once (through
  ``term_counts``) and keeps their sorted column ids and counts, which
  ``transform_tfidf`` and ``FeaturePipeline.stage1_columns`` read. The
  memo belongs to the model, so it goes when the model does (a CV fold's
  model, say) and two models never share entries;
* sentiment: ``sentiment.Lexicon.scores``, per ``TokenizedDoc``, for the
  lexicon's life (the default lexicon lives as long as the process).

Each memo holds one entry per distinct doc its owner has seen. The arrays a
memo returns are read-only, since every caller shares them.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
from collections import Counter
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


@dataclass(frozen=True)
class SparseVec:
    """Sorted-index sparse vector; dense enough for everything downstream."""

    indices: np.ndarray
    values: np.ndarray
    size: int

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.size)
        dense[self.indices] = self.values
        return dense

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.values ** 2)))

    def pairs(self) -> list[tuple[int, float]]:
        return [(int(i), float(v)) for i, v in zip(self.indices, self.values)]


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
    vocabulary: dict[str, int]  # term -> column
    idf: np.ndarray
    max_features: int
    ngram_range: tuple[int, int]
    # doc -> (sorted column ids, their counts); see the module docstring
    memo: dict[TokenizedDoc, tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, init=False, compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.vocabulary)

    def columns(self, doc: TokenizedDoc) -> tuple[np.ndarray, np.ndarray]:
        """The sorted column ids of ``doc``'s in-vocabulary n-grams and how
        often each occurs (floats); looked up once per doc, then memoized."""
        hit = self.memo.get(doc)
        if hit is None:
            hit = self.memo[doc] = _sorted_columns(term_counts(self, doc))
        return hit

    def fingerprint(self) -> str:
        payload = json.dumps(
            {"vocab": sorted(self.vocabulary.items()), "idf": [repr(x) for x in self.idf],
             "max_features": self.max_features, "ngram_range": list(self.ngram_range)},
            sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    def to_doc(self) -> dict:
        return {"vocabulary": self.vocabulary, "idf": [float(x) for x in self.idf],
                "max_features": self.max_features, "ngram_range": list(self.ngram_range)}

    @classmethod
    def from_doc(cls, doc, what: str = "TF-IDF block") -> "TfidfModel":
        block = learn.decode_block(doc, learn.BLOCKS["tfidf"], what, {})
        return cls(block["vocabulary"], block["idf"], block["max_features"],
                   tuple(block["ngram_range"].tolist()))


def fit_tfidf(docs: Sequence[TokenizedDoc], max_features: int,
              ngram_range: tuple[int, int] = NGRAM_RANGE) -> TfidfModel:
    """Vocabulary is the ``max_features`` most frequent n-grams by total corpus
    count (ties broken lexicographically); idf(t) = ln((1+N)/(1+df(t))) + 1."""
    if not docs:
        raise ValueError("cannot fit TF-IDF on an empty corpus")
    if max_features < 1:
        raise ValueError("max_features must be at least 1")
    total: Counter[str] = Counter()
    df: Counter[str] = Counter()
    for doc in docs:
        grams = ngrams(doc.tokens, ngram_range)
        total.update(grams)
        df.update(set(grams))
    # The top ``max_features`` of a lexicographic sort followed by a stable
    # sort by count, highest first, without either full sort: with ``cut``
    # the count of the ``max_features``-th highest total, that is every term
    # counted above ``cut``, filled up with the lexicographically smallest
    # terms counted exactly ``cut``.
    if len(total) <= max_features:
        chosen = sorted(total)
    else:
        cut = sorted(total.values(), reverse=True)[max_features - 1]
        above = [t for t, c in total.items() if c > cut]
        tied = (t for t, c in total.items() if c == cut)
        chosen = sorted(above + heapq.nsmallest(max_features - len(above), tied))
    vocabulary = {term: i for i, term in enumerate(chosen)}
    n_docs = len(docs)
    idf = np.array([math.log((1 + n_docs) / (1 + df[t])) + 1.0 for t in chosen])
    return TfidfModel(vocabulary, idf, max_features, ngram_range)


def term_counts(model: TfidfModel, doc: TokenizedDoc) -> Counter[int]:
    """Occurrences of each in-vocabulary n-gram of ``doc``, keyed by column;
    out-of-vocabulary n-grams are ignored. The one n-gram -> column lookup."""
    counts = Counter(map(model.vocabulary.get, ngrams(doc.tokens, model.ngram_range)))
    counts.pop(None, None)  # the out-of-vocabulary n-grams
    return counts


def _sorted_columns(counts: Counter[int]) -> tuple[np.ndarray, np.ndarray]:
    """``counts`` as read-only arrays: sorted column ids and their counts."""
    indices = np.fromiter(counts.keys(), dtype=int, count=len(counts))
    values = np.fromiter(counts.values(), dtype=float, count=len(counts))
    order = np.argsort(indices)
    indices, values = indices[order], values[order]
    indices.flags.writeable = values.flags.writeable = False
    return indices, values


def transform_tfidf(model: TfidfModel, doc: TokenizedDoc) -> SparseVec:
    """Term count times idf, L2-normalized; out-of-vocabulary n-grams ignored."""
    indices, counts = model.columns(doc)
    if not indices.size:
        return SparseVec(indices, counts, model.size)
    values = counts * model.idf[indices]
    norm = np.sqrt(np.sum(values ** 2))
    if norm > 0:
        values = values / norm
    return SparseVec(indices, values, model.size)


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

    values = {
        "title_words": float(len(issue.title.split())),
        "desc_words": float(len(issue.description.split())),
        "code": float(abstractions.get(AbstractToken.CODE, 0)),
        "url": float(abstractions.get(AbstractToken.URL, 0)),
        "comments": float(n_comments),
        "cm_mean_len": cm_mean_len,
        "cm_developers_ratio": cm_developers_ratio,
        "time_to_discuss": time_to_discuss,
        "events": float(len(issue.events)),
        "assigned": float(issue.assignee_present),
        "is_pull_request": float(issue.is_pull_request),
        "has_commit": float(issue.referenced_commit),
        "has_milestone": float(issue.milestone_present),
        "labels": float(len(issue.labels)),
        "author_followers": float(issue.author.followers),
        "author_following": float(issue.author.following),
        "author_public_repos": float(issue.author.public_repos),
        "author_public_gists": float(issue.author.public_gists),
        "author_issue_counts": float(issue.author.issue_count),
        "author_github_cntrb": float(issue.author.github_contributions),
        "author_account_age": account_age,
        "author_repo_cntrb": float(issue.author.repo_contributions),
        "association": float(_ASSOCIATION_ORDINAL[issue.author.association]),
        "same_author_closer": float(
            bool(issue.closer_login) and issue.closer_login == issue.author.login),
        "desc_positivity": float(scores.positivity),
        "desc_negativity": float(scores.negativity),
        # positive part of the polarity score; raw polarity is recoverable
        # from positivity/negativity if the alternative reading is wanted
        "desc_pos_polarity": max(scores.polarity, 0.0),
        "desc_subjectivity": scores.subjectivity,
    }
    return np.array([values[name] for name in FEATURE_NAMES])


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
        payload = json.dumps({"min": [repr(x) for x in self.minimums],
                              "max": [repr(x) for x in self.maximums]})
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


def scale(params: ScalerParams, row: np.ndarray) -> np.ndarray:
    """(x - min) / (max - min), constant features pinned to 0, results
    clipped into [0, 1] so unseen test values stay in range."""
    span = params.maximums - params.minimums
    out = np.zeros_like(row, dtype=float)
    nonconst = span > 0
    out[nonconst] = (row[nonconst] - params.minimums[nonconst]) / span[nonconst]
    return np.clip(out, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Assembly

# how far from 1 a row of objective probabilities may sum, here and in an
# objective probability file (``cli.load_probs_file``)
PROB_SUM_TOLERANCE = 1e-6


@dataclass(frozen=True)
class FeatureVector:
    tf_title: SparseVec
    tf_desc: SparseVec
    objective_probs: np.ndarray
    lf: np.ndarray
    nf: np.ndarray

    def __post_init__(self) -> None:
        # every check is written so that NaN fails it
        probs = self.objective_probs
        if not abs(float(probs.sum()) - 1.0) <= PROB_SUM_TOLERANCE:
            raise ValueError("objective probabilities must sum to 1")
        if not np.all((probs >= 0) & (probs <= 1)):
            raise ValueError("objective probabilities outside [0, 1]")
        if self.lf.shape != (labelmap.N_CLUSTERS,):
            raise ValueError("label feature block must be 66-dim")
        if not np.all((self.nf >= 0) & (self.nf <= 1)):
            raise ValueError("normalized features outside [0, 1]")

    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The sorted column ids and the values (floats) of the vector's
        non-zeros. A TF-IDF weight is never zero (a count of at least one
        times an idf of at least one, over a finite norm), so only the dense
        blocks after the two TF-IDF blocks are filtered."""
        tail = np.concatenate([self.objective_probs, self.lf, self.nf])
        kept = tail.nonzero()[0]
        cols = np.concatenate([self.tf_title.indices, self.tf_title.size + self.tf_desc.indices,
                               self.tf_title.size + self.tf_desc.size + kept])
        return cols, np.concatenate([self.tf_title.values, self.tf_desc.values, tail[kept]])

    def to_dense(self) -> np.ndarray:
        row = np.zeros(sum(block.size for block in (
            self.tf_title, self.tf_desc, self.objective_probs, self.lf, self.nf)))
        cols, values = self.columns()
        row[cols] = values
        return row


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

    def stage1_columns(self, issue: IssueRecord) -> tuple[np.ndarray, np.ndarray]:
        """The stage-one model's input row, sparse: the sorted columns of the
        raw term counts of title ++ description, and those counts."""
        title_doc = textnorm.normalize_pipeline(issue.title, source="title")
        desc_doc = textnorm.normalize_pipeline(issue.description, source="description")
        title, desc = self.tfidf_title.columns(title_doc), self.tfidf_desc.columns(desc_doc)
        return (np.concatenate([title[0], desc[0] + self.tfidf_title.size]),
                np.concatenate([title[1], desc[1]]))

    def stage1_counts(self, issue: IssueRecord) -> np.ndarray:
        """``stage1_columns`` as a dense row of ``stage1_width`` columns."""
        indices, counts = self.stage1_columns(issue)
        row = np.zeros(self.stage1_width)
        row[indices] = counts
        return row

    def assemble(self, issue: IssueRecord, objective_probs: np.ndarray) -> FeatureVector:
        title_doc = textnorm.normalize_pipeline(issue.title, source="title")
        desc_doc = textnorm.normalize_pipeline(issue.description, source="description")
        return FeatureVector(
            tf_title=transform_tfidf(self.tfidf_title, title_doc),
            tf_desc=transform_tfidf(self.tfidf_desc, desc_doc),
            objective_probs=np.asarray(objective_probs, dtype=float),
            lf=labelmap.label_features(issue.labels, self.maps.clusters),
            nf=scale(self.scaler, extract_metadata(issue, self.lexicon)),
        )

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
