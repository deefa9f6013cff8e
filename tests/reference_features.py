"""The feature layer as it was before it worked in blocks, kept as an oracle.

The bodies below are the earlier code: a Counter-based ``fit_tfidf`` whose
memo entries came from ``term_counts`` and ``sorted_columns``, a per-doc
``transform_tfidf``, the per-issue ``FeatureVector`` with its checks, the
dict-based ``extract_metadata``, the one-row ``scale``, and
``SparseRows.from_rows``. Methods became functions of the pipeline
(``assemble``, ``stage1_rows``, ``vectorize``), and a memo read became a
fresh lookup (``columns``), so the oracle shares no state with the code it
checks. ``tests/test_features.py`` requires the same bytes and the same
errors from the block code.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from issuetriage import labelmap, learn, sentiment, textnorm
from issuetriage.features import (PROB_SUM_TOLERANCE, FEATURE_NAMES, TfidfModel,
                                  _ASSOCIATION_ORDINAL, _default_lexicon, ngrams)
from issuetriage.textnorm import AbstractToken


def fit_tfidf(docs, max_features, ngram_range=(1, 2)) -> TfidfModel:
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
    if len(total) <= max_features:
        chosen = sorted(total)
    else:
        cut = sorted(total.values(), reverse=True)[max_features - 1]
        above = [t for t, c in total.items() if c > cut]
        tied = (t for t, c in total.items() if c == cut)
        chosen = sorted(above + heapq.nsmallest(max_features - len(above), tied))
    vocabulary = {term: i for i, term in enumerate(chosen)}
    return TfidfModel(vocabulary, np.array([df[t] for t in chosen], dtype=np.int64), len(docs),
                      max_features, ngram_range)


def idf(model) -> np.ndarray:
    """The model's idf by the formula above, from its ``df`` and ``n_docs``."""
    return np.array([math.log((1 + model.n_docs) / (1 + d)) + 1.0 for d in model.df.tolist()])


def term_counts(model, doc) -> Counter[int]:
    counts = Counter(map(model.vocabulary.get, ngrams(doc.tokens, model.ngram_range)))
    counts.pop(None, None)  # the out-of-vocabulary n-grams
    return counts


def sorted_columns(counts: Counter[int]) -> tuple[np.ndarray, np.ndarray]:
    indices = np.fromiter(counts.keys(), dtype=int, count=len(counts))
    values = np.fromiter(counts.values(), dtype=float, count=len(counts))
    order = np.argsort(indices)
    indices, values = indices[order], values[order]
    indices.flags.writeable = values.flags.writeable = False
    return indices, values


def columns(model, doc) -> tuple[np.ndarray, np.ndarray]:
    """What the memo held for ``doc`` once it was read: a fresh lookup."""
    return sorted_columns(term_counts(model, doc))


@dataclass(frozen=True)
class SparseVec:
    indices: np.ndarray
    values: np.ndarray
    size: int


def transform_tfidf(model, doc) -> SparseVec:
    indices, counts = columns(model, doc)
    if not indices.size:
        return SparseVec(indices, counts, model.size)
    values = counts * model.idf[indices]
    norm = np.sqrt(np.sum(values ** 2))
    if norm > 0:
        values = values / norm
    return SparseVec(indices, values, model.size)


def extract_metadata(issue, lex=None) -> np.ndarray:
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
        "desc_pos_polarity": max(scores.polarity, 0.0),
        "desc_subjectivity": scores.subjectivity,
    }
    return np.array([values[name] for name in FEATURE_NAMES])


def scale(params, row: np.ndarray) -> np.ndarray:
    span = params.maximums - params.minimums
    out = np.zeros_like(row, dtype=float)
    nonconst = span > 0
    out[nonconst] = (row[nonconst] - params.minimums[nonconst]) / span[nonconst]
    return np.clip(out, 0.0, 1.0)


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
        tail = np.concatenate([self.objective_probs, self.lf, self.nf])
        kept = tail.nonzero()[0]
        cols = np.concatenate([self.tf_title.indices, self.tf_title.size + self.tf_desc.indices,
                               self.tf_title.size + self.tf_desc.size + kept])
        return cols, np.concatenate([self.tf_title.values, self.tf_desc.values, tail[kept]])


def assemble(pipeline, issue, objective_probs) -> FeatureVector:
    title_doc = textnorm.normalize_pipeline(issue.title, source="title")
    desc_doc = textnorm.normalize_pipeline(issue.description, source="description")
    return FeatureVector(
        tf_title=transform_tfidf(pipeline.tfidf_title, title_doc),
        tf_desc=transform_tfidf(pipeline.tfidf_desc, desc_doc),
        objective_probs=np.asarray(objective_probs, dtype=float),
        lf=labelmap.label_features(issue.labels, pipeline.maps.clusters),
        nf=scale(pipeline.scaler, extract_metadata(issue, pipeline.lexicon)),
    )


def from_rows(rows, width: int) -> learn.SparseRows:
    cols = np.concatenate([np.zeros(0, dtype=np.intp), *(c for c, _ in rows)])
    values = np.concatenate([np.zeros(0), *(v for _, v in rows)])
    row_ids = np.repeat(np.arange(len(rows)), [len(c) for c, _ in rows])
    keep = values != 0
    if not keep.all():
        row_ids, cols, values = row_ids[keep], cols[keep], values[keep]
    return learn.SparseRows(row_ids, cols, values, (len(rows), width))


def vectorize(pipeline, issues, probs) -> learn.SparseRows:
    """One row per issue, ``probs[i]`` its objective probabilities."""
    return from_rows([assemble(pipeline, issue, p).columns() for issue, p in zip(issues, probs)],
                     pipeline.width)


def stage1_rows(pipeline, issues) -> learn.SparseRows:
    rows = []
    for issue in issues:
        title_doc = textnorm.normalize_pipeline(issue.title, source="title")
        desc_doc = textnorm.normalize_pipeline(issue.description, source="description")
        title = columns(pipeline.tfidf_title, title_doc)
        desc = columns(pipeline.tfidf_desc, desc_doc)
        rows.append((np.concatenate([title[0], desc[0] + pipeline.tfidf_title.size]),
                     np.concatenate([title[1], desc[1]])))
    return from_rows(rows, pipeline.stage1_width)
