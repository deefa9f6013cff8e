"""The issue splits as they were before ``evalkit`` held them all, kept as oracles.

``stratified_split`` is the earlier corpus split: it took a corpus, a
callable that gives each issue's class, and a training ratio, and returned
the two sides as corpora in corpus order. ``stratified_kfold_indices`` is the
earlier fold assignment, which returned each fold's test indices.
``tests/test_evalkit.py`` requires the same index sets from
``evalkit.project_split`` (at ratio ``evalkit.TRAIN_SHARE``) and from
``evalkit._folds``; ``tests/test_cli.py`` takes the folds it expects
``--tune`` to fit on from ``stratified_kfold_indices``.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

import numpy as np

from issuetriage.corpus import Corpus, IssueRecord


def stratified_split(
    corpus: Corpus,
    target: Callable[[IssueRecord], object],
    ratio: float,
    seed: int,
) -> tuple[Corpus, Corpus]:
    """Split per class, keeping each part's class counts within one of count*ratio.

    Each class is shuffled with its own deterministic generator, then the first
    ceil(count * ratio) members go to the first part. Classes with fewer than
    two members go entirely to the larger part.
    """
    if not 0 < ratio < 1:
        raise ValueError("ratio must be in (0, 1)")
    by_class: dict[object, list[IssueRecord]] = {}
    for issue in corpus.issues:
        key = target(issue)
        if key is None:
            raise ValueError(f"issue {issue.id} yields no target label")
        by_class.setdefault(key, []).append(issue)

    first: list[IssueRecord] = []
    second: list[IssueRecord] = []
    larger_is_first = ratio >= 0.5
    rng = random.Random(seed)
    for key in sorted(by_class, key=str):
        members = list(by_class[key])
        rng.shuffle(members)
        if len(members) < 2:
            (first if larger_is_first else second).extend(members)
            continue
        # remainder rounding favors the first (training) part
        n_first = int(-(-len(members) * ratio // 1))
        n_first = min(n_first, len(members))
        first.extend(members[:n_first])
        second.extend(members[n_first:])

    def ordered(part: list[IssueRecord]) -> tuple[IssueRecord, ...]:
        chosen = {i.id for i in part}
        return tuple(i for i in corpus.issues if i.id in chosen)

    return (
        Corpus(ordered(first), corpus.provenance, corpus.schema_version),
        Corpus(ordered(second), corpus.provenance, corpus.schema_version),
    )


def stratified_kfold_indices(labels: Sequence[str], k: int, seed: int) -> list[np.ndarray]:
    """Deterministic stratified fold assignment; fold i gets every k-th
    member of each class after a seeded shuffle."""
    if k < 2:
        raise ValueError("k must be >= 2")
    rng = np.random.default_rng(seed)
    folds: list[list[int]] = [[] for _ in range(k)]
    by_class: dict[str, list[int]] = {}
    for i, lb in enumerate(labels):
        by_class.setdefault(lb, []).append(i)
    for cls in sorted(by_class):
        members = np.array(by_class[cls])
        rng.shuffle(members)
        for j, idx in enumerate(members):
            folds[j % k].append(int(idx))
    return [np.array(sorted(f), dtype=int) for f in folds]
