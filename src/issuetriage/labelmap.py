"""Canonical label handling: clusters, objective and priority maps.

The three tables ship as human-editable data files; every lookup goes
through ``canonicalize_label`` so near-miss spellings (``Type: Bug``,
``type-bug``) still resolve. Table checksums are exposed so trained model
artifacts can pin the exact tables they were built against.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from enum import Enum
from importlib import resources

import numpy as np

from .corpus import ObjectiveClass, PriorityClass

N_CLUSTERS = 66

_SEPARATORS_RE = re.compile(r"[:/=\-\s]+")


def canonicalize_label(raw: str) -> str:
    """Case-fold and collapse ``:``, ``/``, ``-``, ``=`` and space runs."""
    return _SEPARATORS_RE.sub(" ", raw.casefold()).strip()


def _read_data(name: str) -> str:
    return resources.files("issuetriage.data").joinpath(name).read_text(encoding="utf-8")


def _parse_sections(text: str) -> list[tuple[str, list[str]]]:
    sections: list[tuple[str, list[str]]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("="):
            sections.append((line[1:].strip(), []))
        else:
            if not sections:
                raise ValueError("member line before any section header")
            sections[-1][1].append(line)
    return sections


@dataclass(frozen=True)
class ClusterTable:
    representatives: tuple[str, ...]
    lookup: dict[str, int]  # canonical member -> cluster index
    checksum: str

    def __post_init__(self) -> None:
        if len(self.representatives) != N_CLUSTERS:
            raise ValueError(
                f"cluster table must have exactly {N_CLUSTERS} clusters, "
                f"got {len(self.representatives)}")

    def cluster_of(self, raw_label: str) -> str | None:
        idx = self.lookup.get(canonicalize_label(raw_label))
        return self.representatives[idx] if idx is not None else None


@dataclass(frozen=True)
class ClassLabelMap:
    """A label table onto the classes of one enum (objective or priority)."""

    lookup: dict[str, Enum]  # canonical label -> class
    checksum: str

    def matched(self, labels) -> set:
        """The classes that any of ``labels`` maps onto."""
        return {self.lookup[key] for key in map(canonicalize_label, labels)
                if key in self.lookup}


def _checksum(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_cluster_table() -> ClusterTable:
    text = _read_data("clusters.txt")
    sections = _parse_sections(text)
    reps: list[str] = []
    lookup: dict[str, int] = {}
    for idx, (rep, members) in enumerate(sections):
        reps.append(rep)
        for member in [rep] + members:
            key = canonicalize_label(member)
            owner = lookup.setdefault(key, idx)
            if owner != idx:
                raise ValueError(
                    f"label {member!r} appears in clusters "
                    f"{reps[owner]!r} and {rep!r}")
    return ClusterTable(tuple(reps), lookup, _checksum(text))


def load_class_map(name: str, classes: type[Enum]) -> ClassLabelMap:
    """The table in data file ``name``: one section per member of ``classes``."""
    text = _read_data(name)
    lookup: dict[str, Enum] = {}
    for class_name, members in _parse_sections(text):
        cls = classes(class_name)
        for member in members:
            key = canonicalize_label(member)
            if lookup.get(key, cls) is not cls:
                raise ValueError(f"label {member!r} in {name} maps to two classes")
            lookup[key] = cls
    return ClassLabelMap(lookup, _checksum(text))


@dataclass(frozen=True)
class LabelMaps:
    """The three tables bundled, as most call sites need all of them."""

    clusters: ClusterTable
    objective: ClassLabelMap
    priority: ClassLabelMap

    def checksums(self) -> dict[str, str]:
        return {
            "clusters": self.clusters.checksum,
            "objective_labels": self.objective.checksum,
            "priority_labels": self.priority.checksum,
        }


def load_label_maps() -> LabelMaps:
    return LabelMaps(load_cluster_table(),
                     load_class_map("objective_labels.txt", ObjectiveClass),
                     load_class_map("priority_labels.txt", PriorityClass))


def objective_of(labels, label_map: ClassLabelMap) -> ObjectiveClass | None:
    """Class of a mono-labeled issue; None when no or conflicting classes match."""
    matched = label_map.matched(labels)
    if len(matched) == 1:
        return next(iter(matched))
    return None


def priority_of(labels, label_map: ClassLabelMap) -> PriorityClass | None:
    """Priority from the label set; High wins when both classes are present."""
    matched = label_map.matched(labels)
    if PriorityClass.HIGH in matched:
        return PriorityClass.HIGH
    if PriorityClass.LOW in matched:
        return PriorityClass.LOW
    return None


def label_features(labels, table: ClusterTable) -> np.ndarray:
    """66-dim binary presence vector over the label clusters."""
    vec = np.zeros(N_CLUSTERS, dtype=np.uint8)
    for label in labels:
        idx = table.lookup.get(canonicalize_label(label))
        if idx is not None:
            vec[idx] = 1
    return vec
