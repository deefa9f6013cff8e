"""Issue corpus: domain records, line-delimited persistence, filtering.

A corpus is a flat sequence of issue records plus provenance. On disk it is
one JSON document per line (UTF-8) with a small sidecar metadata file that
carries the schema version and provenance. Unknown keys on a record are kept
in ``extra`` and written back untouched on save. Each part of a line, and
the sidecar, is read against its table (``decode``). ``load_corpus`` returns
the corpus of a file's good lines and, for each bad line, the pair of its
line number and message; under ``strict`` the first bad line raises a
``CorpusError`` instead.

Every record class here is slotted, so no record carries a per-instance
attribute dict. One ``load_corpus`` call keeps the first of equal repository
names, states, labels, logins, associations and event kinds, so the records
of one load share those strings. The table that does this lives for the call
only; timestamps, titles, descriptions, comment bodies and ids are never
shared.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Callable, Optional

from .decode import Field, Table, is_int, is_number

SCHEMA_VERSION = 1

ASSOCIATIONS = ("None", "Contributor", "Collaborator", "Member", "Owner")

# Labels whose cluster marks an issue as removable noise (see filter_corpus).
EXCLUDED_CLUSTERS_DEFAULT = ("duplicate", "invalid")


class CorpusError(Exception):
    """Raised for unreadable corpus files or schema mismatches."""


class SettingError(ValueError):
    """A run setting has a bad value; the message names the setting."""


class ObjectiveClass(Enum):
    BUG = "Bug"
    ENHANCEMENT = "Enhancement"
    SUPPORT_DOC = "SupportDoc"


class PriorityClass(Enum):
    HIGH = "High"
    LOW = "Low"


def parse_ts(value: str) -> datetime:
    """Parse an ISO-8601 timestamp, naive ones as UTC; any failure is a ``ValueError``."""
    ts = datetime.fromisoformat(value.replace("Z", "+00:00"))
    if ts.tzinfo is None:
        return ts.replace(tzinfo=timezone.utc)
    try:
        return ts if ts.tzinfo is timezone.utc else ts.astimezone(timezone.utc)
    except OverflowError:
        raise ValueError(f"timestamp {value!r} is out of range in UTC") from None


def format_ts(ts: datetime) -> str:
    """``ts`` in UTC with a ``Z``; a fraction of a second, if any, in three
    digits where that is exact and six where not, so ``parse_ts`` reads back
    the same instant."""
    ts = ts.astimezone(timezone.utc)
    if not ts.microsecond:
        return ts.strftime("%Y-%m-%dT%H:%M:%SZ")
    return ts.strftime("%Y-%m-%dT%H:%M:%S.%f").removesuffix("000") + "Z"


@dataclass(frozen=True, slots=True)
class UserProfile:
    login: str
    followers: int = 0
    following: int = 0
    public_repos: int = 0
    public_gists: int = 0
    issue_count: int = 0
    github_contributions: int = 0
    account_created_at: Optional[datetime] = None
    repo_contributions: int = 0
    association: str = "None"

    def __post_init__(self) -> None:
        if self.association not in ASSOCIATIONS:
            raise ValueError(f"unknown association {self.association!r}")


@dataclass(frozen=True, slots=True)
class CommentRecord:
    author_login: str
    body: str
    created_at: datetime


@dataclass(frozen=True, slots=True)
class EventRecord:
    kind: str
    created_at: datetime

    def __post_init__(self) -> None:
        if not self.kind:
            raise ValueError("event kind must be non-empty")


@dataclass(frozen=True, slots=True)
class IssueRecord:
    """One issue as fetched, with raw text and final (closed-time) metadata.

    Slotted, as are its author, comments and events. The records of one
    ``load_corpus`` call share each distinct repository name, state, label,
    login, association and event kind."""

    id: str
    repo: str
    title: str
    description: str
    state: str = "closed"
    created_at: datetime = field(default_factory=lambda: datetime(2020, 1, 1, tzinfo=timezone.utc))
    closed_at: Optional[datetime] = None
    labels: tuple[str, ...] = ()
    is_pull_request: bool = False
    milestone_present: bool = False
    assignee_present: bool = False
    comments: tuple[CommentRecord, ...] = ()
    events: tuple[EventRecord, ...] = ()
    author: UserProfile = field(default_factory=lambda: UserProfile(login=""))
    closer_login: Optional[str] = None
    referenced_commit: bool = False
    hydration_failed: bool = False
    extra: dict = field(default_factory=dict, compare=True)

    def __post_init__(self) -> None:
        if self.closed_at is not None and self.created_at > self.closed_at:
            raise ValueError(f"issue {self.id}: created_at after closed_at")
        folded = [lb.casefold() for lb in self.labels]
        if len(set(folded)) != len(folded):
            raise ValueError(f"issue {self.id}: duplicate labels after case-folding")


@dataclass(frozen=True, slots=True)
class Corpus:
    issues: tuple[IssueRecord, ...]
    provenance: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        ids = [i.id for i in self.issues]
        if len(set(ids)) != len(ids):
            raise ValueError("issue ids must be unique within a corpus")

    def __len__(self) -> int:
        return len(self.issues)

    def repos(self) -> list[str]:
        return sorted({i.repo for i in self.issues})


# ---------------------------------------------------------------------------
# Serialization

# a corpus line's and its sidecar's tables, whose keys are the fields of
# ``IssueRecord``, ``UserProfile`` and ``Corpus`` (read and written by key)
RECORD = Table({
    "id": Field(("string", "integer")), "repo": Field("string"), "title": Field("string"),
    "description": Field("string", default=""), "state": Field("string", default="closed"),
    "created_at": Field("string"), "closed_at": Field("string", default=""),
    "labels": Field("list", default=()), "comments": Field("list", default=()),
    "events": Field("list", default=()), "author": Field("object", default={}),
    "closer_login": Field("string", default=None),
    **dict.fromkeys(("is_pull_request", "milestone_present", "assignee_present",
                     "referenced_commit", "hydration_failed"), Field("bool", default=False))})
AUTHOR = Table({
    "login": Field("string", default=""), "account_created_at": Field("string", default=""),
    "association": Field("string", default="None"),
    **dict.fromkeys(("followers", "following", "public_repos", "public_gists", "issue_count",
                     "github_contributions", "repo_contributions"), Field("count", default=0))})
COMMENT = Table({"author_login": Field("string"), "body": Field("string"),
                 "created_at": Field("string")})
EVENT = Table({"kind": Field("string"), "created_at": Field("string")})
SIDECAR = Table({"schema_version": Field("integer", default=SCHEMA_VERSION),
                 "provenance": Field("object", default={})}, CorpusError)


def _issue_to_doc(issue: IssueRecord) -> dict:
    """``issue`` as a corpus line: a key per ``RECORD`` and ``AUTHOR`` row,
    timestamps formatted, then the unknown keys it was read with."""
    author = {key: getattr(issue.author, key) for key in AUTHOR.fields}
    if issue.author.account_created_at:
        author["account_created_at"] = format_ts(issue.author.account_created_at)
    doc = {key: getattr(issue, key) for key in RECORD.fields}
    doc.update(
        created_at=format_ts(issue.created_at),
        closed_at=format_ts(issue.closed_at) if issue.closed_at else None,
        labels=list(issue.labels),
        comments=[{"author_login": c.author_login, "body": c.body,
                   "created_at": format_ts(c.created_at)} for c in issue.comments],
        events=[{"kind": e.kind, "created_at": format_ts(e.created_at)} for e in issue.events],
        author=author)
    doc.update(issue.extra)
    return doc


def _issue_from_doc(doc, names: dict[str, str]) -> IssueRecord:
    """One corpus line's record, each part decoded against its table: no
    value is converted into another but timestamps (an empty one is absent).
    Repository names, states, labels, logins, associations and event kinds
    are taken through ``names``, which keeps the first of equal strings, so
    records read with the same table share them."""
    share = names.setdefault  # share(text, text) is the first string equal to text
    rec = RECORD.decode(doc, "record")
    author = AUTHOR.decode(rec["author"], "record author")
    if not set(map(type, rec["labels"])) <= {str}:
        raise ValueError(f"record field 'labels' must hold strings, got {rec['labels']!r:.40}")
    created, login, association = (author["account_created_at"], author["login"],
                                   author["association"])
    author.update(login=share(login, login), association=share(association, association),
                  account_created_at=parse_ts(created) if created else None)
    repo, state, closer = rec["repo"], rec["state"], rec["closer_login"]
    rec.update(
        repo=share(repo, repo), state=share(state, state),
        closer_login=None if closer is None else share(closer, closer),
        id=str(rec["id"]), labels=tuple([share(label, label) for label in rec["labels"]]),
        created_at=parse_ts(rec["created_at"]),
        closed_at=parse_ts(rec["closed_at"]) if rec["closed_at"] else None,
        comments=tuple([CommentRecord(share(login, login), body, parse_ts(ts))
                        for login, body, ts in COMMENT.rows(rec["comments"], "record comment")]),
        events=tuple([EventRecord(share(kind, kind), parse_ts(ts))
                      for kind, ts in EVENT.rows(rec["events"], "record event")]),
        author=UserProfile(**author))
    known = RECORD.fields
    return IssueRecord(**rec, extra={k: v for k, v in doc.items() if k not in known})


def _meta_path(path: Path) -> Path:
    return path.with_name(path.name + ".meta.json")


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for issue in corpus.issues:
            fh.write(json.dumps(_issue_to_doc(issue), sort_keys=True, ensure_ascii=False))
            fh.write("\n")
    meta = {key: getattr(corpus, key) for key in SIDECAR.fields}
    _meta_path(path).write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def load_corpus(path: str | Path, strict: bool = False) -> tuple[Corpus, list[tuple[int, str]]]:
    """Load a line-delimited corpus file: the corpus of its good lines and,
    for each malformed line, its 1-based line number and the message.

    With ``strict`` the first malformed line raises instead. A line is
    malformed if it is not UTF-8, not JSON, not a record with every field of
    its type (see ``_issue_from_doc``), or if it repeats an earlier line's id.
    """
    path = Path(path)
    if not path.is_file():
        raise CorpusError(f"corpus file not found: {path}")
    meta_file = _meta_path(path)
    meta = {}
    if meta_file.exists():
        try:
            meta = json.loads(meta_file.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
            raise CorpusError(f"{meta_file}: cannot read schema sidecar: {exc}") from None
    meta = SIDECAR.decode(meta, f"{meta_file}: schema sidecar")
    if meta["schema_version"] != SCHEMA_VERSION:
        raise CorpusError(f"schema version mismatch: file has {meta['schema_version']}, "
                          f"reader expects {SCHEMA_VERSION}")

    issues: list[IssueRecord] = []
    ids: set[str] = set()
    errors: list[tuple[int, str]] = []
    names: dict[str, str] = {}
    with path.open("rb") as fh:  # each line decoded on its own, so one bad byte costs one line
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                issue = _issue_from_doc(json.loads(line), names)
                if issue.id in ids:
                    raise ValueError(f"issue id {issue.id!r} repeats an earlier line's")
            except (ValueError, RecursionError) as exc:
                # ValueError covers bad UTF-8, bad JSON and a bad record
                if strict:
                    raise CorpusError(f"line {lineno}: {exc}") from exc
                errors.append((lineno, str(exc)))
                continue
            ids.add(issue.id)
            issues.append(issue)
    return Corpus(issues=tuple(issues), **meta), errors


# ---------------------------------------------------------------------------
# Filtering

@dataclass(frozen=True, slots=True)
class FilterConfig:
    """Filter rules and their defaults; a bad value is a ``SettingError``."""

    min_text_chars: int = 3
    non_english_threshold: float = 0.5
    excluded_clusters: tuple[str, ...] = EXCLUDED_CLUSTERS_DEFAULT

    def __post_init__(self) -> None:
        chars, share, clusters = (self.min_text_chars, self.non_english_threshold,
                                  self.excluded_clusters)
        if not is_int(chars, 0):
            raise SettingError(f"min_text_chars must be an integer >= 0, got {chars!r}")
        if not (is_number(share, 0, strict=False) and share <= 1):
            raise SettingError(f"non_english_threshold must be a number in [0, 1], got {share!r}")
        if not (isinstance(clusters, (list, tuple)) and all(isinstance(c, str) for c in clusters)):
            raise SettingError(f"excluded_clusters must be a list of strings, got {clusters!r}")
        object.__setattr__(self, "excluded_clusters", tuple(clusters))


def _non_ascii_fraction(text: str) -> float:
    meaningful = [ch for ch in text if not ch.isspace()]
    if not meaningful:
        return 0.0
    outside = sum(1 for ch in meaningful if not (" " <= ch <= "~"))
    return outside / len(meaningful)


def filter_corpus(corpus: Corpus, rules: FilterConfig, *,
                  cluster_of: Callable[[str], Optional[str]]) -> tuple[Corpus, dict]:
    """Drop issues with too little text, mostly non-English text, or a noise
    label: one whose cluster (``cluster_of``), case-folded, is one of
    ``rules.excluded_clusters``. A label outside every cluster is no noise.
    Returns the kept issues and the filter report: the count removed by each
    rule, in that order, then ``total_removed``."""
    kept: list[IssueRecord] = []
    removed = dict.fromkeys(("removed_short_text", "removed_non_english",
                             "removed_excluded_label"), 0)
    excluded = {c.casefold() for c in rules.excluded_clusters}
    for issue in corpus.issues:
        if len(issue.title.strip()) < rules.min_text_chars or len(issue.description.strip()) < rules.min_text_chars:
            removed["removed_short_text"] += 1
            continue
        text = issue.title + " " + issue.description
        if _non_ascii_fraction(text) > rules.non_english_threshold:
            removed["removed_non_english"] += 1
            continue
        if any(rep is not None and rep.casefold() in excluded
               for rep in map(cluster_of, issue.labels)):
            removed["removed_excluded_label"] += 1
            continue
        kept.append(issue)
    return (Corpus(issues=tuple(kept), provenance=corpus.provenance,
                   schema_version=corpus.schema_version),
            {**removed, "total_removed": sum(removed.values())})
