"""Inter-rater reliability over an issues-by-raters rating matrix.

Percent agreement is the mean over items of the fraction of agreeing rater
pairs, which is the observed-agreement term both kappas build on. Randolph's
free-marginal kappa corrects it by the 1/k chance level; Fleiss' kappa uses
the observed category marginals instead and therefore needs an equal number
of ratings per item.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

DEFAULT_CATEGORIES = ("High", "Low")

# Interpretation bands, inclusive on the lower bound of each band; anything
# below the first slight-agreement cutoff counts as poor.
LANDIS_KOCH_BANDS = (
    (0.81, "almost perfect"),
    (0.61, "substantial"),
    (0.41, "moderate"),
    (0.21, "fair"),
    (0.01, "slight"),
)


class RatingMatrixError(Exception):
    pass


@dataclass(frozen=True)
class RatingMatrix:
    """rows = issues, columns = raters; None marks a missing rating."""

    rows: tuple[tuple[Optional[str], ...], ...]
    raters: tuple[str, ...]
    categories: tuple[str, ...] = DEFAULT_CATEGORIES
    item_ids: tuple[str, ...] = ()
    groups: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if len(self.categories) < 2:
            raise RatingMatrixError("need at least two categories")
        for r, row in enumerate(self.rows):
            if len(row) != len(self.raters):
                raise RatingMatrixError(f"row {r}: width != number of raters")
            ratings = [c for c in row if c is not None]
            if len(ratings) < 2:
                raise RatingMatrixError(f"row {r}: fewer than two ratings")
            for cell in ratings:
                if cell not in self.categories:
                    raise RatingMatrixError(f"row {r}: unknown category {cell!r}")

    @property
    def k(self) -> int:
        return len(self.categories)

    def counts(self, row: Sequence[Optional[str]]) -> list[int]:
        return [sum(1 for c in row if c == cat) for cat in self.categories]

    def subset(self, keep: Iterable[int]) -> "RatingMatrix":
        keep = list(keep)
        return RatingMatrix(
            rows=tuple(self.rows[i] for i in keep),
            raters=self.raters,
            categories=self.categories,
            item_ids=tuple(self.item_ids[i] for i in keep) if self.item_ids else (),
            groups=tuple(self.groups[i] for i in keep) if self.groups else (),
        )


_CELL_ALIASES = {"h": "High", "high": "High", "1": "High",
                 "l": "Low", "low": "Low", "0": "Low"}


def load_rating_matrix(path: str | Path,
                       categories: tuple[str, ...] = DEFAULT_CATEGORIES) -> RatingMatrix:
    """Delimited ratings file: header row of rater ids (optionally preceded
    by an id column and/or a group column), one issue per row, cells
    H/L/High/Low/1/0 or empty."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise RatingMatrixError(f"{path}: cannot read ratings file: {exc}") from None
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise RatingMatrixError(f"{path}: empty ratings file")
    sep = "\t" if "\t" in lines[0] else ","
    header = [h.strip() for h in lines[0].split(sep)]
    id_col = group_col = None
    first_rater = 0
    for pos, name in enumerate(header[:2]):
        lowered = name.lower()
        if lowered in ("issue", "id", "issue_id") and id_col is None:
            id_col = pos
            first_rater = pos + 1
        elif lowered in ("group", "project", "repo") and group_col is None:
            group_col = pos
            first_rater = pos + 1
    raters = tuple(header[first_rater:])
    rows, ids, groups = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = [c.strip() for c in line.split(sep)]
        if len(cells) != len(header):
            raise RatingMatrixError(f"{path}:{lineno}: expected {len(header)} cells")
        ids.append(cells[id_col] if id_col is not None else str(lineno - 1))
        groups.append(cells[group_col] if group_col is not None else "")
        row = []
        for cell in cells[first_rater:]:
            if not cell:
                row.append(None)
            else:
                mapped = _CELL_ALIASES.get(cell.lower(), cell)
                row.append(mapped)
        rows.append(tuple(row))
    return RatingMatrix(tuple(rows), raters, categories, tuple(ids),
                        tuple(groups) if group_col is not None else ())


# ---------------------------------------------------------------------------
# Agreement statistics

def item_agreement(matrix: RatingMatrix, row: Sequence[Optional[str]],
                   mode: str = "pairwise") -> float:
    """Agreement of one item: fraction of agreeing rater pairs, or with
    mode='majority' the fraction of raters voting for the modal category."""
    counts = matrix.counts(row)
    n = sum(counts)
    if mode == "majority":
        return max(counts) / n
    pairs = n * (n - 1) / 2
    agree = sum(c * (c - 1) / 2 for c in counts)
    return agree / pairs


def percent_agreement(matrix: RatingMatrix, mode: str = "pairwise") -> float:
    return sum(item_agreement(matrix, row, mode) for row in matrix.rows) / len(matrix.rows)


def randolph_kappa(matrix: RatingMatrix, mode: str = "pairwise") -> float:
    """Free-marginal multi-rater kappa: (P_o - 1/k) / (1 - 1/k)."""
    p_o = percent_agreement(matrix, mode)
    chance = 1.0 / matrix.k
    return (p_o - chance) / (1.0 - chance)


@dataclass
class FleissResult:
    kappa: float
    excluded_items: int
    flags: list[str] = field(default_factory=list)


def fleiss_kappa(matrix: RatingMatrix) -> FleissResult:
    """Fixed-marginal multi-rater kappa. Items with missing ratings are
    excluded (the statistic needs an equal rater count per item)."""
    full_rows = [row for row in matrix.rows if all(c is not None for c in row)]
    excluded = len(matrix.rows) - len(full_rows)
    flags: list[str] = []
    if excluded:
        flags.append(f"excluded {excluded} items with missing ratings")
    if not full_rows:
        raise RatingMatrixError("no items with a full set of ratings")
    n = len(matrix.raters)
    if n < 2:
        raise RatingMatrixError("need at least two raters")
    big_n = len(full_rows)
    count_rows = [matrix.counts(row) for row in full_rows]
    p_bar = sum((sum(c * c for c in counts) - n) / (n * (n - 1))
                for counts in count_rows) / big_n
    marginals = [sum(counts[j] for counts in count_rows) / (big_n * n)
                 for j in range(matrix.k)]
    p_e = sum(p * p for p in marginals)
    if math.isclose(p_e, 1.0):
        flags.append("degenerate marginals (one category holds all ratings)")
        return FleissResult(1.0 if math.isclose(p_bar, 1.0) else 0.0, excluded, flags)
    return FleissResult((p_bar - p_e) / (1.0 - p_e), excluded, flags)


def majority_labels(matrix: RatingMatrix) -> tuple[list[Optional[str]], list[int]]:
    """Strict per-item majority; exact ties come back as None and their row
    indices are reported rather than silently broken."""
    labels: list[Optional[str]] = []
    ties: list[int] = []
    for idx, row in enumerate(matrix.rows):
        counts = matrix.counts(row)
        top = max(counts)
        winners = [cat for cat, c in zip(matrix.categories, counts) if c == top]
        if len(winners) == 1:
            labels.append(winners[0])
        else:
            labels.append(None)
            ties.append(idx)
    return labels, ties


def outlier_raters(matrix: RatingMatrix, threshold: float = 0.5) -> set[str]:
    """Raters whose label differs from the majority of the *other* raters in
    more than ``threshold`` of the items they rated; majority ties count
    as agreement."""
    flagged: set[str] = set()
    for col, rater in enumerate(matrix.raters):
        rated = disagreements = 0
        for row in matrix.rows:
            own = row[col]
            if own is None:
                continue
            others = [c for j, c in enumerate(row) if j != col and c is not None]
            if not others:
                continue
            counts = [sum(1 for c in others if c == cat) for cat in matrix.categories]
            top = max(counts)
            winners = {cat for cat, c in zip(matrix.categories, counts) if c == top}
            rated += 1
            if len(winners) == 1 and own not in winners:
                disagreements += 1
        if rated and disagreements / rated > threshold:
            flagged.add(rater)
    return flagged


def landis_koch_band(kappa: float) -> str:
    for lower, band in LANDIS_KOCH_BANDS:
        if kappa >= lower:
            return band
    return "poor"


@dataclass
class AgreementReport:
    percent_agreement: float
    randolph_kappa: float
    fleiss_kappa: Optional[float]
    band: str
    per_item: list[float]
    majority: list[Optional[str]]
    ties: list[int]
    outliers: list[str]
    flags: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "percent_agreement": self.percent_agreement,
            "randolph_kappa": self.randolph_kappa,
            "fleiss_kappa": self.fleiss_kappa,
            "band": self.band,
            "per_item_agreement": self.per_item,
            "majority_labels": self.majority,
            "tied_items": self.ties,
            "outlier_raters": self.outliers,
            "flags": self.flags,
        }


def compute_agreement(matrix: RatingMatrix, mode: str = "pairwise") -> AgreementReport:
    p_o = percent_agreement(matrix, mode)
    kappa = randolph_kappa(matrix, mode)
    try:
        fleiss = fleiss_kappa(matrix)
        fleiss_value: Optional[float] = fleiss.kappa
        flags = list(fleiss.flags)
    except RatingMatrixError as exc:
        fleiss_value = None
        flags = [f"fleiss kappa unavailable: {exc}"]
    majority, ties = majority_labels(matrix)
    return AgreementReport(
        percent_agreement=p_o,
        randolph_kappa=kappa,
        fleiss_kappa=fleiss_value,
        band=landis_koch_band(kappa),
        per_item=[item_agreement(matrix, row, mode) for row in matrix.rows],
        majority=majority,
        ties=ties,
        outliers=sorted(outlier_raters(matrix)),
        flags=flags,
    )


def compute_agreement_by_group(matrix: RatingMatrix,
                               mode: str = "pairwise") -> dict[str, AgreementReport]:
    """Overall report under the key "overall", plus one per group when the
    ratings file carried a grouping column."""
    reports = {"overall": compute_agreement(matrix, mode)}
    if matrix.groups:
        for group in sorted(set(matrix.groups)):
            keep = [i for i, g in enumerate(matrix.groups) if g == group]
            reports[group] = compute_agreement(matrix.subset(keep), mode)
    return reports
