"""Classifiers, balancing and tuning for both pipeline stages.

Everything here is deterministic under a fixed seed: forests derive one
child seed per tree from the master seed, logistic regression uses
full-batch descent from a zero start, and SMOTE and hyperparameter
sampling draw from seeded generators. Models serialize to self-describing
JSON artifacts that pin the fingerprints of the preprocessing assets they
were trained with; prediction refuses to run against different assets.

Class weights are a plain dict of class name to weight, inverse frequency
(``compute_class_weights``) or the manual grid (``manual_priority_weights``).
``fit_logreg`` and ``fit_random_forest`` weigh each sample by its class's
entry and keep the dict as the model's ``class_weights`` metadata.

Model params are ndarrays in memory, except a forest's trees (nested dicts)
and the scalars (NB's ``alpha``, kNN's ``k``, a forest's ``n_features``).
Artifacts are format version 2, and a block stores what a fit counts, not
the floats derived from it. NB stores its class and term counts and
``alpha``; ``nb_logs`` derives the log prior and log likelihood from them,
once per fit or load (``TrainedModel`` runs it as it is made). A forest's
importances and kNN's training matrix are stored as their non-zeros and
expanded on load; whole-valued float arrays are written as JSON integers
(``Table.encode``). A version-1 file is refused; no reader of it is kept.

Every artifact is read through ``read_artifact``, which checks its format
and version, and each of its blocks is decoded once against its table
(``decode``): a model's against ``MODEL`` and its kind's ``Kind.table``,
the assets' in ``cli.load_assets``. ``TrainedModel.require_width`` checks that
a model takes the columns its assets give: ``cli.load_assets`` for the
assets' stage-one model and ``cli.cmd_predict`` for the model file. A kind
is its record in ``KINDS``, and ``fit`` fits one for either stage.

The feature matrix is ``SparseRows`` (see there for which learners densify
it). A forest reads it by column, through one ``ColumnIndex`` per fit and
one per predicted matrix (``SparseRows.by_column``), so no dense n x d
array is made on its path: a split sorts nothing (``_best_split``), and the
trees, grown on every CPU (``_on_every_cpu``), are the same on any number.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import pickle
import signal
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .corpus import IssueRecord, ObjectiveClass, PriorityClass, SettingError
from .decode import Field, Table, is_int, is_number
from .textnorm import TokenizedDoc

OBJECTIVE_CLASS_ORDER = tuple(cls.value for cls in ObjectiveClass)
PRIORITY_CLASS_ORDER = tuple(cls.value for cls in PriorityClass)
MODEL_FORMAT = "issuetriage-model"
ARTIFACT_VERSION = 2

KEYWORD_RULES: dict[str, frozenset[str]] = {
    "Bug": frozenset({
        "crash", "fix", "bug", "error", "fail", "failure", "broken", "break",
        "exception", "defect", "wrong", "regression", "freeze", "segfault",
    }),
    "Enhancement": frozenset({
        "feature", "enhancement", "improve", "add", "implement", "request",
        "new", "propose", "idea", "optimize",
    }),
    "SupportDoc": frozenset({
        "?", "how", "question", "help", "doc", "documentation", "install",
        "usage", "why", "what", "where", "guide", "tutorial", "example",
    }),
}


class TrainingError(Exception):
    """Raised when fitting cannot proceed (bad inputs, diverging loss)."""


class ChecksumMismatchError(Exception):
    """Model artifact was trained against different preprocessing assets."""


class ArtifactError(TrainingError):
    """An artifact file is unreadable, undecodable, of another format or
    version, or lacks a key it needs."""


# ---------------------------------------------------------------------------
# Class weights

def compute_class_weights(labels: Sequence[str]) -> dict[str, float]:
    """weight_c = N / frequency_c over the training labels."""
    if not labels:
        raise TrainingError("no labels to weight")
    total = len(labels)
    freq: dict[str, int] = {}
    for lb in labels:
        freq[lb] = freq.get(lb, 0) + 1
    return {cls: total / count for cls, count in freq.items()}


def manual_priority_weights(i: int) -> dict[str, float]:
    """The manual override grid: 0.1*i for High, 0.1*(10-i) for Low, i in [1, 9]."""
    if not 1 <= i <= 9:
        raise ValueError("i must be in [1, 9]")
    return {PriorityClass.HIGH.value: 0.1 * i, PriorityClass.LOW.value: 0.1 * (10 - i)}


# ---------------------------------------------------------------------------
# Trained model wrapper

@dataclass
class TrainedModel:
    kind: str  # a key of KINDS
    classes: tuple[str, ...]
    params: dict
    metadata: dict = field(default_factory=dict)
    asset_fingerprints: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if KINDS[self.kind].derive:  # once per fit or load, never per prediction
            self.params.update(KINDS[self.kind].derive(self.params))

    def predict_proba(self, X: np.ndarray | SparseRows) -> np.ndarray:
        """One row of class probabilities per row of ``X``, given as it is to a
        kind whose predictor reads ``SparseRows`` and dense to every other."""
        kind = KINDS[self.kind]
        return kind.predict(self.params, X if kind.sparse else _dense(X), len(self.classes))

    def predict(self, X: np.ndarray | SparseRows) -> list[str]:
        probs = self.predict_proba(X)
        return [self.classes[i] for i in probs.argmax(axis=1)]

    def verify_assets(self, fingerprints: dict) -> None:
        for name, expected in self.asset_fingerprints.items():
            actual = fingerprints.get(name)
            if actual != expected:
                raise ChecksumMismatchError(
                    f"asset {name!r} fingerprint {actual} does not match the "
                    f"one recorded at training time ({expected})")

    def require_width(self, width: int, where: str = "") -> None:
        """``ArtifactError`` unless the model takes ``width`` feature columns: the
        ``d`` of its first param in its kind's table that has one."""
        key, spec = next((k, f) for k, f in KINDS[self.kind].table.fields.items() if "d" in f.shape)
        if np.shape(self.params[key])[spec.shape.index("d")] != width:
            raise ArtifactError(f"{where}{self.kind} model artifact {key} does not take the "
                                f"{width} feature columns its assets give")

    def fingerprint(self) -> str:
        """The hash of kind, classes and the params that define the model's
        predictions (``Kind.hashed``), as they are in memory. No fingerprint
        depends on how a file encodes them."""
        payload = json.dumps(
            {"kind": self.kind, "classes": list(self.classes),
             "params": {key: self.params[key] for key in KINDS[self.kind].hashed}},
            sort_keys=True, default=_json_default)
        return hashlib.sha256(payload.encode()).hexdigest()

    def to_doc(self) -> dict:
        """Kind, classes, stored params (``Table.encode``) and metadata;
        fingerprints only when pinned, which a stage-one model inside an
        assets bundle never is."""
        doc = {"kind": self.kind, "classes": list(self.classes),
               "params": KINDS[self.kind].table.encode(self.params), "metadata": self.metadata}
        if self.asset_fingerprints:
            doc["asset_fingerprints"] = self.asset_fingerprints
        return doc

    @classmethod
    def from_doc(cls, doc, where: str = "") -> "TrainedModel":
        """The model ``doc`` describes (``MODEL``), its params decoded against
        its classes; ``where`` (a path and a colon, say) starts every error
        message."""
        what, dims = f"{where}model artifact", {}
        model = MODEL.decode(doc, what, dims)
        kind, classes = model["kind"], tuple(model["classes"])
        if kind not in KINDS:
            raise ArtifactError(f"{what} has unknown kind {kind!r}")
        if len(classes) < 2:
            raise ArtifactError(f"{what} classes {list(classes)!r} are fewer than two")
        return cls(kind=kind, classes=classes, metadata=dict(model["metadata"]),
                   asset_fingerprints=model["asset_fingerprints"],
                   params=KINDS[kind].table.decode(model["params"],
                                                   f"{where}{kind} model artifact", dims))


# ---------------------------------------------------------------------------
# Artifact table (``decode``) of a model's document

MODEL = Table({"kind": Field("string"), "classes": Field("terms", ("K",)),
               "params": Field("object"), "metadata": Field("object", default={}),
               "asset_fingerprints": Field("strings", default={})}, ArtifactError)


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_json(path: str | Path, doc) -> None:
    """The one JSON writer for artifacts, reports and manifests: compact JSON
    on one line (sorted keys, no indent, no spaces after separators; the
    ``json`` module's C encoder), ndarrays and numpy scalars as plain JSON
    values, and a final newline."""
    Path(path).write_text(
        json.dumps(doc, sort_keys=True, separators=(",", ":"), default=_json_default) + "\n",
        encoding="utf-8")


def read_artifact(path: str | Path, fmt: str) -> dict:
    """Decode an artifact written by ``write_json`` and check its format and
    version; any failure is one ``ArtifactError``."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or JSON
        raise ArtifactError(f"{path}: cannot read artifact: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise ArtifactError(f"{path}: not an {fmt} artifact")
    if doc.get("version") != ARTIFACT_VERSION:
        raise ArtifactError(f"{path}: unsupported {fmt} version {doc.get('version')!r}")
    return doc


def save_model(model: TrainedModel, path: str | Path) -> None:
    write_json(path, {"format": MODEL_FORMAT, "version": ARTIFACT_VERSION,
                      **model.to_doc()})


def load_model(path: str | Path) -> TrainedModel:
    return TrainedModel.from_doc(read_artifact(path, MODEL_FORMAT), f"{path}: ")


# ---------------------------------------------------------------------------
# Keyword baseline

def keyword_classify(doc: TokenizedDoc) -> np.ndarray:
    """The objective probabilities, in ``OBJECTIVE_CLASS_ORDER``, of the
    ``KEYWORD_RULES`` baseline: most keyword hits wins with probability one;
    ties split uniformly; no hits at all give the uniform distribution."""
    hits = np.array([sum(1 for tok in doc.tokens if tok in KEYWORD_RULES[cls])
                     for cls in OBJECTIVE_CLASS_ORDER], dtype=float)
    if hits.max() == 0:
        return np.full(len(OBJECTIVE_CLASS_ORDER), 1.0 / len(OBJECTIVE_CLASS_ORDER))
    winners = hits == hits.max()
    return winners / winners.sum()


def _require_finite(X: np.ndarray, model: str) -> float:
    """The smallest of X's values and 0. Raises TrainingError if any value is
    NaN or infinite, read from two reductions rather than an (n, d) mask: a
    NaN makes both NaN, and an infinity makes one of them infinite."""
    low = np.minimum.reduce(X, axis=None, initial=0.0)
    if not (math.isfinite(low) and math.isfinite(np.maximum.reduce(X, axis=None, initial=0.0))):
        raise TrainingError(f"{model} requires finite features")
    return low


def _encode_labels(labels: Sequence[str],
                   classes: tuple[str, ...] | None) -> tuple[tuple[str, ...], np.ndarray]:
    """``classes`` (by default the labels' distinct values, sorted) and each
    label's index in them."""
    classes = classes or tuple(sorted(set(labels)))
    index = {cls: i for i, cls in enumerate(classes)}
    return classes, np.array([index[lb] for lb in labels], dtype=int)


# ---------------------------------------------------------------------------
# Multinomial naive Bayes

# log prior stand-in for classes absent from training: exp() underflows to
# an exact posterior of zero while staying JSON-serializable
_LOG_ZERO = -1e30


@dataclass(frozen=True, eq=False)
class SparseRows:
    """The one feature-matrix type: a float matrix of ``shape`` given by its
    non-zeros row by row (CSR). Row ``i`` is entries ``indptr[i]:indptr[i +
    1]`` of ``cols`` (int32, strictly ascending within the row) and
    ``values`` (float64); ``indptr`` (intp, ``n + 1`` long) never decreases.
    That is 12 bytes per non-zero and 8 per row; no row id is stored, and
    ``row_ids`` expands them for the few callers that index by row. A zero
    (0.0 or -0.0) is never stored; NaN and the infinities are, as ``X != 0``
    keeps them.

    ``PriorityPipeline.vectorize`` builds one, and the forest and NB read it
    as it is; logistic regression, kNN and SMOTE densify it at their own door
    (``_dense``), and so does ``TrainedModel.predict_proba`` for every kind
    whose predictor does not read it (``Kind.sparse``). ``len``, ``shape``,
    ``size`` and ``(X != 0).sum()`` answer as an ndarray of the same matrix
    would; ``nbytes`` is what its arrays hold."""

    indptr: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    shape: tuple[int, int]

    @classmethod
    def from_dense(cls, X: np.ndarray) -> "SparseRows":
        rows, cols = np.nonzero(X)
        indptr = np.zeros(X.shape[0] + 1, dtype=np.intp)
        np.cumsum(np.bincount(rows, minlength=X.shape[0]), out=indptr[1:])
        return cls(indptr, cols.astype(np.int32), X[rows, cols], X.shape)

    @classmethod
    def of(cls, X) -> "SparseRows":
        """``X`` itself if it is ``SparseRows``, else its non-zeros as floats."""
        return X if isinstance(X, cls) else cls.from_dense(np.asarray(X, dtype=float))

    def __len__(self) -> int:
        return self.shape[0]

    @property
    def size(self) -> int:
        return self.shape[0] * self.shape[1]

    @property
    def nbytes(self) -> int:
        return self.indptr.nbytes + self.cols.nbytes + self.values.nbytes

    def row_ids(self) -> np.ndarray:
        """Each non-zero's row (int32), made on each call and kept by none."""
        return np.arange(self.shape[0], dtype=np.int32).repeat(np.diff(self.indptr))

    def __ne__(self, other) -> "SparseRows":
        """``X != 0``: a boolean matrix, True where ``X`` has its non-zeros."""
        if not (np.isscalar(other) and other == 0):
            return NotImplemented
        return SparseRows(self.indptr, self.cols, np.ones(self.values.size, dtype=bool),
                          self.shape)

    def sum(self):
        """The sum of all entries, a numpy scalar."""
        return self.values.sum()

    def to_dense(self) -> np.ndarray:
        X = np.zeros(self.shape)
        X[self.row_ids(), self.cols] = self.values
        return X

    @functools.cached_property
    def by_column(self) -> "ColumnIndex":
        """``column_index(self)``, built once and kept for every forest
        prediction on this matrix."""
        return column_index(self)


def _dense(X) -> np.ndarray:
    """``X`` as a dense float array: ``SparseRows`` densified, anything else
    through ``np.asarray``."""
    return X.to_dense() if isinstance(X, SparseRows) else np.asarray(X, dtype=float)


def fit_multinomial_nb(
    X: np.ndarray | SparseRows, labels: Sequence[str], alpha: float = 1.0,
    classes: tuple[str, ...] | None = None,
) -> TrainedModel:
    """Multinomial NB over a dense X or its ``SparseRows``; both give the
    same params, bit for bit."""
    X = SparseRows.of(X)
    if _require_finite(X.values, "multinomial NB") < 0:
        raise TrainingError("multinomial NB requires non-negative feature values")
    classes, y = _encode_labels(labels, classes)
    if y.size != X.shape[0]:
        raise ValueError(f"{X.shape[0]} rows but {y.size} labels")
    n_classes = len(classes)
    # each class's non-zeros added one by one in row order (``np.add.at`` is
    # unbuffered and goes in index order): the float sums of
    # X[y == c].sum(axis=0), bit for bit, since adding a zero changes no sum
    term_counts = np.zeros((n_classes, X.shape[1]))
    np.add.at(term_counts, (y[X.row_ids()], X.cols), X.values)
    return TrainedModel(
        kind="nb", classes=classes,
        params={"class_counts": np.bincount(y, minlength=n_classes).astype(float),
                "term_counts": term_counts, "alpha": float(alpha)},
        metadata={"n_train": len(labels)})


def nb_logs(params: dict) -> dict:
    """NB's ``log_prior`` and ``log_likelihood`` from its stored counts and
    ``alpha``: the one formula of a fit and a load. Counts whose sum
    overflows (only a crafted file holds them) give logs that are not
    finite, and so probabilities that are not finite, which prediction
    refuses; they raise no warning here."""
    class_counts, smoothed = params["class_counts"], params["term_counts"] + params["alpha"]
    with np.errstate(all="ignore"):
        # max(..., 1): with no rows every class is absent, and nothing divides by 0
        log_prior = np.where(class_counts > 0,
                             np.log(np.maximum(class_counts, 1) / max(class_counts.sum(), 1.0)),
                             _LOG_ZERO)
        log_like = np.log(smoothed) - np.log(np.add.reduce(smoothed, axis=1, keepdims=True))
    return {"log_prior": log_prior, "log_likelihood": log_like}


def _nb_predict(params: dict, X: np.ndarray, n_classes: int) -> np.ndarray:
    joint = X @ params["log_likelihood"].T + params["log_prior"]
    joint -= joint.max(axis=1, keepdims=True)
    probs = np.exp(joint)
    return probs / probs.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Logistic regression (softmax, class-weighted cross-entropy + L2)

def logreg_loss_and_grad(
    W: np.ndarray, b: np.ndarray, X: np.ndarray, y: np.ndarray,
    sample_weights: np.ndarray, l2: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Weighted mean cross-entropy plus (l2/2)*||W||^2 and its gradients."""
    n = X.shape[0]
    scores = X @ W + b
    scores -= scores.max(axis=1, keepdims=True)
    exp = np.exp(scores)
    probs = exp / exp.sum(axis=1, keepdims=True)
    eps = 1e-12
    loss = -(sample_weights * np.log(probs[np.arange(n), y] + eps)).sum() / n
    loss += 0.5 * l2 * float((W ** 2).sum())
    delta = probs.copy()
    delta[np.arange(n), y] -= 1.0
    delta *= sample_weights[:, None]
    grad_W = X.T @ delta / n + l2 * W
    grad_b = delta.sum(axis=0) / n
    return float(loss), grad_W, grad_b


def fit_logreg(
    X: np.ndarray | SparseRows, labels: Sequence[str], weights: dict[str, float] | None = None,
    lr: float = 0.5, l2: float = 1e-4, epochs: int = 300,
    seed: int = 0, classes: tuple[str, ...] | None = None,
) -> TrainedModel:
    X = _dense(X)
    _require_finite(X, "logistic regression")
    classes, y = _encode_labels(labels, classes)
    sw = np.array([weights[lb] for lb in labels]) if weights else np.ones(len(labels))
    n_feats, n_classes = X.shape[1], len(classes)
    W = np.zeros((n_feats, n_classes))
    b = np.zeros(n_classes)
    step = lr
    losses: list[float] = []
    loss, grad_W, grad_b = logreg_loss_and_grad(W, b, X, y, sw, l2)
    for _ in range(epochs):
        losses.append(loss)
        # halve the step until the move does not increase the loss
        while True:
            W_new = W - step * grad_W
            b_new = b - step * grad_b
            new_loss, new_gW, new_gb = logreg_loss_and_grad(W_new, b_new, X, y, sw, l2)
            if not math.isfinite(new_loss):
                raise TrainingError("non-finite loss; learning rate too high")
            if new_loss <= loss + 1e-12 or step < 1e-12:
                break
            step *= 0.5
        W, b, loss, grad_W, grad_b = W_new, b_new, new_loss, new_gW, new_gb
    losses.append(loss)
    return TrainedModel(
        kind="logreg", classes=classes,
        params={"W": W, "b": b},
        metadata={"lr": lr, "l2": l2, "epochs": epochs, "seed": seed,
                  "loss_history": losses,
                  "class_weights": weights})


def _logreg_predict(params: dict, X: np.ndarray, n_classes: int) -> np.ndarray:
    scores = X @ params["W"] + params["b"]
    scores -= scores.max(axis=1, keepdims=True)
    exp = np.exp(scores)
    return exp / exp.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Random forest (Gini impurity, weighted bootstrap)

def _gini(counts: np.ndarray) -> float:
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    return float(1.0 - (p ** 2).sum())


@dataclass(frozen=True)
class ColumnIndex:
    """A matrix by column (CSC layout) with each column's zeros folded into
    one slot: column ``j`` is entries ``indptr[j]:indptr[j + 1]`` (intp) of
    ``rows`` (int32) and ``values`` (float64), ascending by value. They are
    its non-zeros and, between the negatives and the rest, a slot of value 0
    and row ``n_rows`` (no row) standing for all its zero cells;
    ``zero_slot[j]`` (intp) is the slot's entry. So it holds ``nnz + n_cols``
    entries at 12 bytes each, fewer than 2**31 (``column_index`` checks).
    ``scratch`` is ``n_rows + 1`` zeros that ``column_at`` borrows and leaves
    as it found them."""
    indptr: np.ndarray
    rows: np.ndarray
    values: np.ndarray
    zero_slot: np.ndarray
    n_rows: int
    scratch: np.ndarray

    @property
    def n_cols(self) -> int:
        return self.indptr.size - 1

    def column_at(self, j: int, rows: np.ndarray) -> np.ndarray:
        """Column ``j``'s values at ``rows``: its entries are scattered into
        ``scratch``, read at ``rows``, and wiped again."""
        span = slice(self.indptr[j], self.indptr[j + 1])
        at = self.rows[span].astype(np.intp)  # an index twice below: cast once
        self.scratch[at] = self.values[span]
        out = self.scratch[rows]
        self.scratch[at] = 0.0
        return out


# sorted entries that ``column_index`` gathers at a time (8 MiB of gathered
# values): a 2k-issue fit's non-zeros take one chunk
_GATHER_CHUNK = 2 ** 20


def column_index(X: np.ndarray | SparseRows) -> ColumnIndex:
    """Build ``X``'s ``ColumnIndex`` from its ``SparseRows`` (a dense ``X``
    is converted first). X's own entries, in row order, are sorted stably by
    column, then value (``lexsort``, which puts NaN last), so tied values
    keep their row order. Sorted entry ``k`` of column ``j`` goes straight to
    slot ``k + j``, plus 1 if the value is not below 0: the ``j`` zero slots
    of the columns before it, and its own when that sorts first. So column
    ``j``'s zero slot is at ``indptr[j]`` plus its number of negatives, and a
    NaN goes with the positives.

    The slots and the rows written to them are int32, beside the sort's
    intp order, so X may have at most 2**31 - 1 rows, and its non-zeros
    plus its columns (the index's entries) must stay below 2**31. Both are
    checked from ``X``'s shape and ``cols.size`` before anything is
    allocated; either failing is a ``TrainingError``. Rows and values are
    gathered ``_GATHER_CHUNK`` sorted entries at a time, so no sorted copy
    of either is made whole, and X's row ids are dropped before ``values``
    is allocated."""
    X = SparseRows.of(X)
    n, d = X.shape
    if n >= 2 ** 31:
        raise TrainingError(f"a column index holds at most 2**31 - 1 rows, not {n}")
    if X.cols.size + d >= 2 ** 31:
        raise TrainingError(f"a column index holds at most 2**31 - 1 entries, not "
                            f"{X.cols.size} non-zeros plus {d} zero slots")
    order = np.lexsort((X.values, X.cols))
    slot = X.cols[order]
    slot += np.arange(slot.size, dtype=np.int32)
    slot += ~(X.values[order] < 0)

    def gather(out: np.ndarray, source: np.ndarray) -> np.ndarray:
        for at in range(0, slot.size, _GATHER_CHUNK):
            out[slot[at:at + _GATHER_CHUNK]] = source[order[at:at + _GATHER_CHUNK]]
        return out

    rows = gather(np.full(slot.size + d, n, dtype=np.int32), X.row_ids())
    values = gather(np.zeros(slot.size + d), X.values)
    del order, slot
    indptr = np.zeros(d + 1, dtype=np.intp)
    np.cumsum(np.bincount(X.cols, minlength=d) + 1, out=indptr[1:])
    return ColumnIndex(indptr, rows, values, np.flatnonzero(rows == n), n, np.zeros(n + 1))


def _best_split(cols: ColumnIndex, y: np.ndarray, idx: np.ndarray,
                features: np.ndarray, counts: np.ndarray, min_leaf: int):
    """Exact scan over midpoints of all candidate features at once; returns
    (feature, threshold, weighted child impurity) or None.

    ``cols`` is X by column (``ColumnIndex``): each column's non-zeros in
    ascending value order, with one zero slot between its negatives and its
    positives standing for all its zero cells. ``idx`` holds the node's
    rows, a row once per bootstrap draw, and ``counts`` their class counts
    (float). Nothing is sorted here: the drawn columns' entries are read
    from ``cols`` back to back in ``features`` order. A non-zero entry weighs
    its row's draws in ``idx``, so those of rows outside the node weigh
    nothing and are dropped. The zero slot weighs the rest of the node, all
    tied at 0: its class counts are ``counts`` minus those of the column's
    non-zeros, so each column's entries sum to ``counts``.

    Only cuts between distinct values are scored: the rows left of such a
    cut are exactly those at or below it, so the order of tied rows never
    matters, and a column with one value in the node has no cut. The class
    counts left of a cut are a running sum over all entries less ``counts``
    for each column before the cut's; they are whole numbers, so this is
    exact. Cuts are ranked feature-major in ``features`` order, then by
    value, and the first minimum wins: an earlier feature beats a later one
    on equal impurity, and an earlier cut beats a later one within a
    feature. These are the cuts, counts, thresholds and order of a sort of
    the node's dense ``len(idx) x len(features)`` block, scored with the
    same arithmetic on arrays of the same layout, so the trees are
    byte-identical to a dense splitter's while the work follows the drawn
    columns' non-zeros, not the block."""
    n, n_classes, width = len(idx), len(counts), cols.n_rows + 1  # rows, then no row
    start = cols.indptr[features]
    size = cols.indptr[features + 1] - start
    first = size.cumsum() - size
    seg = np.arange(len(features)).repeat(size)
    at = np.arange(seg.size) + (start - first)[seg]
    rows = cols.rows[at].astype(np.intp)  # an index twice below: cast once
    slot = first + cols.zero_slot[features] - start
    weight = np.bincount(idx, minlength=width)[rows]
    weight[slot] = n - np.add.reduceat(weight, first)
    by_row = np.bincount(y[idx] * width + idx, minlength=n_classes * width)
    entries = by_row.reshape(n_classes, width).take(rows, axis=1)
    entries[:, slot] = counts[:, None] - np.add.reduceat(entries, first, axis=1)
    keep = weight.nonzero()[0]
    entries, seg, vals = entries.take(keep, axis=1), seg[keep], cols.values[at[keep]]
    cut = ((seg[1:] == seg[:-1]) & (vals[1:] != vals[:-1])).nonzero()[0]
    if not cut.size:
        return None
    # C order, as a dense splitter's: numpy sums a contiguous row of 8 or more
    # classes pairwise, a strided one in sequence, and the sums may differ
    left = (entries.cumsum(axis=1).take(cut, axis=1) - counts[:, None] * seg[cut]).T.copy()
    n_left = left.sum(axis=1)
    n_right = n - n_left
    ok = (n_left >= min_leaf) & (n_right >= min_leaf)
    if not ok.any():
        return None
    right = counts - left
    gini_l = 1.0 - ((left / n_left[:, None]) ** 2).sum(axis=1)
    gini_r = 1.0 - ((right / n_right[:, None]) ** 2).sum(axis=1)
    weighted = np.where(ok, (n_left * gini_l + n_right * gini_r) / n, np.inf)
    pos = int(weighted.argmin())
    i = cut[pos]
    threshold = (vals[i] + vals[i + 1]) / 2.0
    return int(features[seg[i]]), float(threshold), float(weighted[pos])


def _grow_tree(cols, y, idx, rng, n_classes, max_depth, min_leaf, m_features,
               depth, importances, n_root):
    node_y = y[idx]
    counts = np.bincount(node_y, minlength=n_classes).astype(float)
    gini_node = _gini(counts)
    if (gini_node == 0.0 or len(idx) < 2 * min_leaf or len(idx) < 2
            or (max_depth is not None and depth >= max_depth)):
        return {"leaf": (counts / counts.sum()).tolist()}
    features = rng.choice(cols.n_cols, size=m_features, replace=False)
    split = _best_split(cols, y, idx, features, counts, min_leaf)
    if split is None or split[2] >= gini_node:
        return {"leaf": (counts / counts.sum()).tolist()}
    f, threshold, weighted = split
    importances[f] += (len(idx) / n_root) * (gini_node - weighted)
    mask = cols.column_at(f, idx) <= threshold
    left = _grow_tree(cols, y, idx[mask], rng, n_classes, max_depth, min_leaf,
                      m_features, depth + 1, importances, n_root)
    right = _grow_tree(cols, y, idx[~mask], rng, n_classes, max_depth, min_leaf,
                       m_features, depth + 1, importances, n_root)
    return {"f": f, "t": threshold, "l": left, "r": right}


def _tree_predict(tree: dict, cols: ColumnIndex, out: np.ndarray, rows: np.ndarray) -> None:
    if "leaf" in tree:
        out[rows] += np.asarray(tree["leaf"], dtype=float)
        return
    mask = cols.column_at(tree["f"], rows) <= tree["t"]
    if mask.any():
        _tree_predict(tree["l"], cols, out, rows[mask])
    if (~mask).any():
        _tree_predict(tree["r"], cols, out, rows[~mask])


def _cpus() -> int:
    """How many CPUs this process may run on; 1 where the system cannot say."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity (macOS, Windows)
        return 1


# at most this many tickets, 2 bytes each: 4096 bytes, which any pipe holds
# at once, so dealing them out never waits for a reader
_TICKETS = 2048


def _on_every_cpu(work: Callable, items: Sequence) -> list:
    """``[work(item) for item in items]`` on ``w = min(_cpus(), len(items))``
    processes: the caller and ``w - 1`` children made by ``os.fork`` (the
    caller alone where there is no ``os.fork``). The items are dealt out by
    ticket, ticket ``t`` being items ``t::T`` (``T = min(len(items),
    _TICKETS)``): each process takes the next ticket from one pipe until none
    is left, so a process that runs slower, as on a busier CPU, takes fewer.
    A child reads the caller's memory copy-on-write, pickles its results
    into a pipe and leaves by ``os._exit``, so it flushes no inherited stdio
    buffer. Each result goes back to its item's place, whoever worked it out.
    A child holds only the calling thread, so ``work`` may take no lock that
    another thread could hold at the fork: a tree calls no BLAS routine and
    does no I/O.

    A child that fails or dies is a ``TrainingError``. Every child is reaped
    before this returns or raises; one still running then, as on
    ``KeyboardInterrupt``, is killed."""
    w = min(_cpus(), len(items)) if hasattr(os, "fork") else 1
    n_tickets = min(len(items), _TICKETS)
    tickets, deal = os.pipe()
    take = functools.partial(_take_tickets, work, items, tickets, n_tickets)
    children: dict[int, int] = {}  # pid -> the read end of its pipe, until reaped
    try:
        with open(deal, "wb") as pipe:
            pipe.write(b"".join(t.to_bytes(2, "little") for t in range(n_tickets)))
        for _ in range(1, w):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError as exc:
                os.close(read)
                os.close(write)
                raise TrainingError(f"cannot start a forest worker process: {exc}") from None
            if pid == 0:
                _work_in_child(take, read, write)
            os.close(write)
            children[pid] = read
        shares = [take()]
        for pid, read in list(children.items()):
            sent = b"".join(iter(functools.partial(os.read, read, 1 << 20), b""))
            status = os.waitpid(pid, 0)[1]
            os.close(children.pop(pid))
            code = os.waitstatus_to_exitcode(status)
            if code != 0:
                how = f"exit status {code}" if code > 0 else f"signal {-code}"
                raise TrainingError(f"forest worker process {pid} died ({how})")
            ok, result = pickle.loads(sent)
            if not ok:
                raise TrainingError(f"forest worker process {pid} failed: {result}")
            shares.append(result)
    finally:
        os.close(tickets)
        for pid, read in children.items():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read)
    results = [None] * len(items)
    for share in shares:
        for t, worked in share:
            results[t::n_tickets] = worked
    return results


def _take_tickets(work: Callable, items: Sequence, tickets: int, n_tickets: int) -> list:
    """``(t, [work(item) for item in items[t::n_tickets]])`` for each ticket
    ``t`` this process reads from the pipe ``tickets``, until it is empty.
    Every ticket was written before any was read, and a 2-byte read of a pipe
    is never split, so no two processes take the same ticket."""
    taken = []
    while ticket := os.read(tickets, 2):
        t = int.from_bytes(ticket, "little")
        taken.append((t, [work(item) for item in items[t::n_tickets]]))
    return taken


def _work_in_child(job: Callable[[], list], read: int, write: int):
    """A forked child's whole life: ``(True, job())`` or ``(False, the
    error)`` pickled into ``write``, then ``os._exit``, with status 0 once sent."""
    status = 1
    try:
        os.close(read)
        try:
            result = True, job()
        except Exception as exc:
            result = False, f"{type(exc).__name__}: {exc}"
        with os.fdopen(write, "wb") as pipe:
            pickle.dump(result, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def fit_random_forest(
    X: np.ndarray | SparseRows, labels: Sequence[str], weights: dict[str, float] | None = None,
    n_trees: int = 60, max_depth: int | None = 12, min_leaf: int = 1,
    max_features: int | str = "sqrt", seed: int = 0,
    classes: tuple[str, ...] | None = None,
) -> TrainedModel:
    """A random forest of ``n_trees`` Gini trees, each grown on a weighted
    bootstrap of X's rows and drawing ``max_features`` columns per split
    ("sqrt": sqrt(d)).

    Each tree has its own seed, spawned from ``seed``, and the trees are
    grown on every CPU the process may run on (``_on_every_cpu``), all over
    the one ``column_index``. They come back in seed order and their
    importances are summed in that order, so the model's bytes do not
    depend on the number of CPUs or on which process grew which tree."""
    classes, y = _encode_labels(labels, classes)
    if len(classes) < 2:
        raise TrainingError("random forest needs at least two classes")
    cols = column_index(X)
    n, d = cols.n_rows, cols.n_cols
    _require_finite(cols.values, "random forest")  # a NaN or an infinity is a non-zero
    if max_features == "sqrt":
        m = max(1, int(math.sqrt(d)))
    else:
        m = max(1, min(int(max_features), d))
    sw = np.array([weights[lb] for lb in labels]) if weights else np.ones(n)
    p = sw / sw.sum()

    def grow(tree_seed):
        """One tree and its importances' non-zeros, as shares of their sum."""
        rng = np.random.default_rng(tree_seed)
        idx = rng.choice(n, size=n, replace=True, p=p)
        importances = np.zeros(d)
        tree = _grow_tree(cols, y, idx, rng, len(classes), max_depth, min_leaf,
                          m, 0, importances, n_root=len(idx))
        at = importances.nonzero()[0]
        return tree, at, importances[at] / importances.sum()

    trees: list[dict] = []
    importance_sum = np.zeros(d)
    # adding a tree's shares at its non-zeros alone gives the bits of adding
    # its dense vector: x + 0.0 is x for the non-negative x summed here
    for tree, at, shares in _on_every_cpu(grow, np.random.SeedSequence(seed).spawn(n_trees)):
        importance_sum[at] += shares
        trees.append(tree)
    return TrainedModel(
        kind="forest", classes=classes,
        params={"trees": trees, "importances": importance_sum / n_trees, "n_features": d},
        metadata={"n_trees": n_trees, "max_depth": max_depth, "min_leaf": min_leaf,
                  "max_features": max_features, "seed": seed,
                  "class_weights": weights})


def _forest_predict(params: dict, X: np.ndarray | SparseRows, n_classes: int) -> np.ndarray:
    trees = params["trees"]
    cols = SparseRows.of(X).by_column
    out = np.zeros((cols.n_rows, n_classes))
    rows = np.arange(cols.n_rows)
    for tree in trees:
        _tree_predict(tree, cols, out, rows)
    return out / len(trees)


# ---------------------------------------------------------------------------
# K nearest neighbors

def fit_knn(X: np.ndarray | SparseRows, labels: Sequence[str], k: int = 5,
            classes: tuple[str, ...] | None = None) -> TrainedModel:
    classes, y = _encode_labels(labels, classes)
    train = X.to_dense() if isinstance(X, SparseRows) else np.array(X, dtype=float)
    return TrainedModel(
        kind="knn", classes=classes,
        params={"X": train, "y": y, "k": min(k, len(labels))},
        metadata={"k": k})


def _nearest(points: np.ndarray, queries: np.ndarray, k: int, *, skip_self: bool) -> np.ndarray:
    """The ids of the ``k`` ``points`` nearest each query row, nearest first,
    ties by id (a stable sort of Euclidean distances); with ``skip_self`` the
    queries are the points, and none is its own neighbour. One buffer of
    ``points``' shape holds the differences, query after query."""
    nearest = np.empty((queries.shape[0], k), dtype=np.intp)
    diff = np.empty(points.shape)
    for i, row in enumerate(queries):
        np.subtract(row, points, out=diff)
        np.square(diff, out=diff)
        dist = np.sqrt(diff.sum(axis=1))
        if skip_self:
            dist[i] = np.inf
        nearest[i] = np.argsort(dist, kind="stable")[:k]
    return nearest


def _knn_predict(params: dict, X: np.ndarray, n_classes: int) -> np.ndarray:
    train, y, k = params["X"], params["y"], params["k"]
    out = np.zeros((X.shape[0], n_classes))
    for i, nearest in enumerate(_nearest(train, X, k, skip_self=False)):
        votes = np.bincount(y[nearest], minlength=n_classes)
        out[i] = votes / votes.sum()
    return out


@dataclass(frozen=True)
class Kind:
    """A classifier kind: its fitter's name here, the spec settings it reads,
    its predictor, whether that takes ``SparseRows`` as they are, its params'
    table, the params it derives from them (NB's logs) and those it hashes."""
    fitter: str
    reads: frozenset[str]
    predict: Callable[[dict, np.ndarray, int], np.ndarray]
    sparse: bool
    table: Table
    derive: Callable[[dict], dict] | None
    hashed: tuple[str, ...]


KINDS: dict[str, Kind] = {
    "forest": Kind(
        "fit_random_forest",
        frozenset({"weights", "seed", "n_trees", "max_depth", "min_leaf", "max_features"}),
        _forest_predict, True,
        Table({"importances": Field("sparse", ("d",)), "n_features": Field("int", (), "d", "d"),
               "trees": Field("tree")}, ArtifactError),
        None, ("importances", "n_features", "trees")),
    "logreg": Kind(
        "fit_logreg", frozenset({"weights", "seed", "lr", "l2", "epochs"}), _logreg_predict, False,
        Table({"b": Field("float", ("K",)), "W": Field("float", ("d", "K"))}, ArtifactError),
        None, ("b", "W")),
    "nb": Kind(
        "fit_multinomial_nb", frozenset({"alpha"}), _nb_predict, False,
        Table({"class_counts": Field("float", ("K",), 0),
               "term_counts": Field("float", ("K", "d"), 0), "alpha": Field("float", (), 0)},
              ArtifactError), nb_logs, ("log_prior", "log_likelihood")),
    "knn": Kind(
        "fit_knn", frozenset({"k"}), _knn_predict, False,
        Table({"y": Field("int", ("n",), 0, "K-1"), "X": Field("sparse", ("n", "d")),
               "k": Field("int", (), 1, "n")}, ArtifactError), None, ("y", "X", "k")),
}


def fit(kind: str, X: np.ndarray | SparseRows, labels: Sequence[str], classes: tuple[str, ...],
        **settings) -> TrainedModel:
    """A ``kind`` model of ``X``, its fitter (looked up here at each call, so
    a rebound one is used) given only the ``settings`` it reads."""
    reads = KINDS[kind].reads
    return globals()[KINDS[kind].fitter](
        X, labels, classes=classes, **{k: v for k, v in settings.items() if k in reads})


# ---------------------------------------------------------------------------
# SMOTE

def smote(minority: np.ndarray, majority_count: int, k: int = 5,
          seed: int = 0) -> np.ndarray:
    """Synthetic points x + lambda*(nn - x) until the class counts equalize."""
    minority = np.asarray(minority, dtype=float)
    n = minority.shape[0]
    if n < 2:
        raise TrainingError("SMOTE needs at least two minority samples")
    n_synthetic = majority_count - n
    if n_synthetic <= 0:
        return np.empty((0, minority.shape[1]))
    k = max(1, min(k, n - 1))
    neighbor_ids = _nearest(minority, minority, k, skip_self=True)
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, size=n_synthetic)
    picks = rng.integers(0, k, size=n_synthetic)
    lams = rng.uniform(0.0, 1.0, size=n_synthetic)
    base = minority[rows]
    neighbors = minority[neighbor_ids[rows, picks]]
    return base + lams[:, None] * (neighbors - base)


def balance_with_smote(X: np.ndarray | SparseRows, labels: Sequence[str], k: int = 5,
                       seed: int = 0) -> tuple[np.ndarray, list[str]]:
    X = _dense(X)
    labels = list(labels)
    counts = {cls: labels.count(cls) for cls in sorted(set(labels))}
    majority = max(counts.values())
    out_X = [X]
    out_y = list(labels)
    for offset, (cls, count) in enumerate(sorted(counts.items())):
        if count == majority:
            continue
        rows = np.array([i for i, lb in enumerate(labels) if lb == cls])
        synthetic = smote(X[rows], majority, k=k, seed=seed + offset)
        out_X.append(synthetic)
        out_y.extend([cls] * synthetic.shape[0])
    return np.vstack(out_X), out_y


# ---------------------------------------------------------------------------
# Setting checks and hyperparameter sampling

def checked_int(name: str, value, low: int, high: int | None = None) -> int:
    """``value`` if it is an integer (not a bool) in [low, high], else a
    ``SettingError``."""
    if not is_int(value, low, high):
        bounds = f"in [{low}, {high}]" if high is not None else f">= {low}"
        raise SettingError(f"{name} must be an integer {bounds}, got {value!r}")
    return value


# Every hyperparameter the fitters above (and SMOTE, as ``smote_k``) take by
# name, with what makes its value valid; the defaults are the fitters' own.
HYPERPARAMS: dict[str, tuple[str, Callable[[object], bool]]] = {
    "n_trees": ("an integer >= 1", lambda v: is_int(v, 1)),
    "max_depth": ("null or an integer >= 1", lambda v: v is None or is_int(v, 1)),
    "min_leaf": ("an integer >= 1", lambda v: is_int(v, 1)),
    "max_features": ('"sqrt" or an integer >= 1', lambda v: v == "sqrt" or is_int(v, 1)),
    "lr": ("a finite number > 0", lambda v: is_number(v, 0, strict=True)),
    "l2": ("a finite number >= 0", lambda v: is_number(v, 0, strict=False)),
    "epochs": ("an integer >= 1", lambda v: is_int(v, 1)),
    "alpha": ("a finite number > 0", lambda v: is_number(v, 0, strict=True)),
    "k": ("an integer >= 1", lambda v: is_int(v, 1)),
    "smote_k": ("an integer >= 1", lambda v: is_int(v, 1)),
}


def check_hyperparam(name: str, value) -> None:
    """``SettingError`` unless ``value`` is valid for the known hyperparameter ``name``."""
    what, valid = HYPERPARAMS[name]
    if not valid(value):
        raise SettingError(f"hyperparameter {name} must be {what}, got {value!r}")


def sample_config(space: dict, rng: np.random.Generator) -> dict:
    """Lists are discrete choices; {"low", "high"} objects are uniform ranges,
    integer-valued when both ends are ints."""
    config = {}
    for name in sorted(space):
        spec = space[name]
        if isinstance(spec, dict):
            lo, hi = spec["low"], spec["high"]
            if isinstance(lo, int) and isinstance(hi, int):
                config[name] = int(rng.integers(lo, hi + 1))
            else:
                config[name] = float(rng.uniform(lo, hi))
        else:
            config[name] = spec[int(rng.integers(0, len(spec)))]
    return config


# ---------------------------------------------------------------------------
# Date / comment-rank baselines

def _updated_at(issue: IssueRecord):
    candidates = [issue.created_at]
    candidates.extend(c.created_at for c in issue.comments)
    candidates.extend(e.created_at for e in issue.events)
    if issue.closed_at is not None:
        candidates.append(issue.closed_at)
    return max(candidates)


def rank_baseline(issues: Sequence[IssueRecord], field_name: str) -> list[PriorityClass]:
    """Median-threshold baselines: most-commented / most-recently-updated
    above the median are High; for creation dates the oldest half is High."""
    if field_name == "comments":
        values = [float(len(i.comments)) for i in issues]
        high_if = lambda v, med: v > med
    elif field_name == "created_at":
        values = [i.created_at.timestamp() for i in issues]
        high_if = lambda v, med: v < med  # oldest issues ranked High
    elif field_name == "updated_at":
        values = [_updated_at(i).timestamp() for i in issues]
        high_if = lambda v, med: v > med
    else:
        raise ValueError(f"unsupported rank field {field_name!r}")
    med = statistics.median(values)
    return [PriorityClass.HIGH if high_if(v, med) else PriorityClass.LOW for v in values]
