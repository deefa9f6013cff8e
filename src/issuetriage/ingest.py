"""REST client that mines issues, comments, events and author profiles.

Every response is cached on disk keyed by the full request URL (token
independent), so a warm cache replays a whole run without any network
traffic and two hydrations from the same cache are byte-identical. One
``IssueClient`` carries the config, the transport and the sleep between
retries, and ``fetch_issues`` and ``hydrate`` take it alone; tests give it
canned responses and a fake sleep. Each API document and cache entry is
read against its table (``decode``).
"""

from __future__ import annotations

import email.utils
import hashlib
import json
import math
import os
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Optional, Protocol, Sequence
from urllib.parse import urlencode

from .corpus import (
    CommentRecord,
    Corpus,
    EventRecord,
    IssueRecord,
    SettingError,
    UserProfile,
    parse_ts,
)
from .decode import Field, Table


class IngestError(Exception):
    pass


class AuthError(IngestError):
    pass


class NotFoundError(IngestError):
    pass


@dataclass(frozen=True)
class ClientConfig:
    cache_dir: Path
    max_parallel_requests: int = 4
    refresh: bool = False

    def __post_init__(self) -> None:
        if self.max_parallel_requests < 1:
            raise SettingError(
                f"max_parallel_requests must be >= 1, got {self.max_parallel_requests}")


_REPO_RE = re.compile(r"^[\w.-]+/[\w.-]+$")


@dataclass(frozen=True)
class FetchQuery:
    repo: str
    state: str = "closed"  # open | closed | all
    created_before: Optional[datetime] = None
    include_pull_requests: bool = True

    def __post_init__(self) -> None:
        if not _REPO_RE.match(self.repo):
            raise SettingError(f"repo must look like owner/name, got {self.repo!r}")
        if self.state not in ("open", "closed", "all"):
            raise SettingError(f"bad state filter {self.state!r}")


@dataclass
class Response:
    status: int
    headers: dict[str, str]
    body: str

    def header(self, name: str) -> Optional[str]:
        for key, value in self.headers.items():
            if key.lower() == name.lower():
                return value
        return None


class Transport(Protocol):
    def get(self, url: str, headers: dict[str, str]) -> Response: ...


API_BASE_URL = "https://api.github.com"
AUTH_TOKEN_ENV = "GITHUB_TOKEN"  # the environment variable that holds the API token
REQUEST_TIMEOUT_SECONDS = 30.0
MAX_RETRIES = 3  # tries of a request after its first
BACKOFF_BASE_SECONDS = 1.0  # retry n (from 0) waits this times 2**n unless the server says


class RequestsTransport:
    """Default network transport (lazy import keeps tests network-free)."""

    def __init__(self) -> None:
        import requests

        self._session = requests.Session()

    def get(self, url: str, headers: dict[str, str]) -> Response:
        resp = self._session.get(url, headers=headers, timeout=REQUEST_TIMEOUT_SECONDS)
        return Response(resp.status_code, dict(resp.headers), resp.text)


@dataclass
class HydrationFailure:
    issue_id: str
    resource: str
    error: str


_LINK_NEXT_RE = re.compile(r'<([^>]+)>\s*;\s*rel="next"')
MAX_RATE_LIMIT_WAIT = 3600.0  # GitHub's rate-limit window; a longer wait ends a fetch


def _json_body(response: Response, url: str, kind: type):
    """The decoded body of a 200 response, which must be a JSON ``kind``."""
    try:
        doc = json.loads(response.body)
    except (ValueError, RecursionError):
        raise IngestError(f"response from {url} is not JSON") from None
    if not isinstance(doc, kind):
        raise IngestError(f"expected a JSON {kind.__name__} from {url}")
    return doc


CACHE_ENTRY = Table({"status": Field("integer"), "headers": Field("strings"),
                     "body": Field("string")})


class IssueClient:
    def __init__(self, cfg: ClientConfig, transport: Transport | None = None,
                 sleeper: Callable[[float], None] = time.sleep) -> None:
        self.cfg = cfg
        self.transport = transport or RequestsTransport()
        self.sleep = sleeper
        self.network_requests = 0
        self._requests_guard = threading.Lock()  # hydrate workers share the counter
        self._cache_locks: dict[str, threading.Lock] = {}
        self._locks_guard = threading.Lock()
        Path(cfg.cache_dir).mkdir(parents=True, exist_ok=True)

    # -- caching ------------------------------------------------------------

    def _cache_path(self, url: str) -> Path:
        digest = hashlib.sha256(url.encode("utf-8")).hexdigest()
        return Path(self.cfg.cache_dir) / f"{digest}.json"

    def _cache_lock(self, url: str) -> threading.Lock:
        with self._locks_guard:
            return self._cache_locks.setdefault(url, threading.Lock())

    def _read_cache(self, url: str) -> Optional[Response]:
        path = self._cache_path(url)
        try:
            entry = CACHE_ENTRY.decode(json.loads(path.read_text(encoding="utf-8")), str(path))
        except (OSError, ValueError, RecursionError):
            return None  # a missing or corrupt entry is a miss: fetched and written
        return Response(**entry)

    def _write_cache(self, url: str, response: Response) -> None:
        doc = {"url": url, "status": response.status,
               "headers": response.headers, "body": response.body}
        tmp = self._cache_path(url).with_suffix(".tmp")
        tmp.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
        tmp.replace(self._cache_path(url))

    # -- request machinery ----------------------------------------------------

    def _headers(self) -> dict[str, str]:
        headers = {"Accept": "application/vnd.github.v3+json"}
        token = os.environ.get(AUTH_TOKEN_ENV)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        return headers

    def request(self, url: str) -> Response:
        with self._cache_lock(url):
            if not self.cfg.refresh:
                cached = self._read_cache(url)
                if cached is not None:
                    return cached
            response = self._fetch_with_retry(url)
            self._write_cache(url, response)
            return response

    def _fetch_with_retry(self, url: str) -> Response:
        """The URL's 200 response. A 401, a 404 or a 403 that is no rate limit
        ends it; any other status or a transport error (an ``OSError``, as
        requests' ``ConnectionError`` and ``Timeout`` are) is tried again, up
        to ``MAX_RETRIES`` more times. A rate limit that asks for a wait over
        ``MAX_RATE_LIMIT_WAIT`` ends it without a sleep. ``network_requests``
        counts every try."""
        attempt = 0
        while True:
            with self._requests_guard:
                self.network_requests += 1
            retriable_rate_limit = False
            try:
                response = self.transport.get(url, self._headers())
            except OSError as exc:
                last = f"last error: {exc}"
            else:
                if response.status == 200:
                    return response
                if response.status == 401:
                    raise AuthError(f"authentication failed for {url}")
                if response.status == 404:
                    raise NotFoundError(f"resource not found: {url}")
                retriable_rate_limit = response.status in (403, 429) and (
                    response.header("Retry-After") is not None
                    or response.header("X-RateLimit-Remaining") == "0")
                if response.status == 403 and not retriable_rate_limit:
                    raise AuthError(f"access forbidden for {url}")
                last = f"last status {response.status}"
            if attempt >= MAX_RETRIES:
                raise IngestError(f"giving up on {url} after {attempt + 1} attempts ({last})")
            delay = self._rate_limit_delay(response) if retriable_rate_limit else None
            if delay is not None and delay > MAX_RATE_LIMIT_WAIT:
                raise IngestError(f"{url} is rate limited for {delay:.0f} s, over the "
                                  f"{MAX_RATE_LIMIT_WAIT:.0f} s this client waits")
            self.sleep(BACKOFF_BASE_SECONDS * (2 ** attempt) if delay is None else delay)
            attempt += 1

    @staticmethod
    def _rate_limit_delay(response: Response) -> float | None:
        """Seconds a rate-limited response asks to wait, at least 0: its
        ``Retry-After`` as seconds or as an HTTP date, else its
        ``X-RateLimit-Reset`` as epoch seconds. None when neither header
        holds a finite number or a date; the caller then backs off as it
        does for any other retry."""
        retry_after = response.header("Retry-After")
        wait = _finite_seconds(retry_after)
        if wait is None:
            when = _http_date(retry_after)
            if when is None:
                when = _finite_seconds(response.header("X-RateLimit-Reset"))
            wait = None if when is None else when - time.time()
        return None if wait is None else max(0.0, wait)

    def paginated(self, url: str) -> list[dict]:
        """Follow Link rel="next" headers to exhaustion."""
        items: list[dict] = []
        next_url: Optional[str] = url
        while next_url:
            response = self.request(next_url)
            items.extend(_json_body(response, next_url, list) if response.body.strip() else [])
            link = response.header("Link") or ""
            match = _LINK_NEXT_RE.search(link)
            next_url = match.group(1) if match else None
        return items


# ---------------------------------------------------------------------------
# Issue mapping: one table (``decode``) per API document

USER = Table({"login": Field("string", default="")})
ISSUE = Table({
    "number": Field("integer"), "title": Field("string", default=""),
    "body": Field("string", default=""), "state": Field("string", default="closed"),
    "created_at": Field("string"), "closed_at": Field("string", default=""),
    "labels": Field("list", default=()), "user": Field("object", default={}),
    "closed_by": Field("object", default={}), "assignees": Field("list", default=()),
    **dict.fromkeys(("milestone", "assignee", "pull_request"), Field("object", default=None))})
LABEL = Table({"name": Field("string")})
COMMENT = Table({"user": Field("object", default={}), "body": Field("string", default=""),
                 "created_at": Field("string")})
EVENT = Table({"event": Field("string", default="unknown"), "created_at": Field("string"),
               "commit_id": Field("string", default=""), "actor": Field("object", default={})})
PROFILE = Table({
    "login": Field("string", default=""), "created_at": Field("string", default=""),
    "contributions": Field("count", default=None), "association": Field("string", default="None"),
    **dict.fromkeys(("followers", "following", "public_repos", "public_gists", "issue_count",
                     "github_contributions", "repo_contributions"), Field("count", default=0))})


def _finite_seconds(value: str | None) -> float | None:
    """``value`` as a finite number; None if it is missing or no such number."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    return seconds if math.isfinite(seconds) else None


def _http_date(value: str | None) -> float | None:
    """``value`` as an HTTP date (RFC 9110 section 5.6.7) in epoch seconds;
    None if it is missing or no date."""
    try:
        when = email.utils.parsedate_to_datetime(value)
    except (TypeError, ValueError):
        return None
    if when.tzinfo is None:  # a "-0000" zone, which RFC 5322 reads as UTC
        when = when.replace(tzinfo=timezone.utc)
    return when.timestamp()


def _issue_from_api(doc, repo: str) -> IssueRecord:
    issue = ISSUE.decode(doc, "issue")
    labels = [lb if type(lb) is str else LABEL.decode(lb, "issue label")["name"]
              for lb in issue["labels"]]
    return IssueRecord(
        id=str(issue["number"]),
        repo=repo,
        title=issue["title"],
        description=issue["body"],
        state=issue["state"],
        created_at=parse_ts(issue["created_at"]),
        closed_at=parse_ts(issue["closed_at"]) if issue["closed_at"] else None,
        labels=tuple(dict.fromkeys(labels)),
        is_pull_request=issue["pull_request"] is not None,
        milestone_present=issue["milestone"] is not None,
        assignee_present=bool(issue["assignee"] or issue["assignees"]),
        author=UserProfile(login=USER.decode(issue["user"], "issue user")["login"]),
        closer_login=USER.decode(issue["closed_by"], "issue closed_by")["login"] or None,
    )


def fetch_issues(client: IssueClient, query: FetchQuery) -> list[IssueRecord]:
    """All issues of a repository (partially hydrated), pagination followed
    to exhaustion, every response cached. An issue document that does not
    decode, or repeats an earlier issue's number, is an ``IngestError``."""
    params = urlencode({"state": query.state, "per_page": 100})
    url = f"{API_BASE_URL}/repos/{query.repo}/issues?{params}"
    issues = []
    for doc in client.paginated(url):
        try:
            record = _issue_from_api(doc, query.repo)
        except ValueError as exc:  # a document that does not decode, or a bad record
            raise IngestError(f"{url}: {exc}") from None
        if not query.include_pull_requests and record.is_pull_request:
            continue
        if query.created_before and record.created_at >= query.created_before:
            continue
        issues.append(record)
    if len({issue.id for issue in issues}) < len(issues):
        raise IngestError(f"{url}: an issue is listed twice")
    return issues


def _profile_from_api(doc) -> UserProfile:
    profile = PROFILE.decode(doc, "user profile")
    contributions, created = profile.pop("contributions"), profile.pop("created_at")
    if contributions is not None:
        profile["github_contributions"] = contributions
    return UserProfile(account_created_at=parse_ts(created) if created else None, **profile)


def _hydrate_one(client: IssueClient,
                 issue: IssueRecord) -> tuple[IssueRecord, list[HydrationFailure]]:
    failures: list[HydrationFailure] = []
    base = f"{API_BASE_URL}/repos/{issue.repo}/issues/{issue.id}"

    comments: tuple[CommentRecord, ...] = ()
    try:
        docs = [COMMENT.decode(d, "comment")
                for d in client.paginated(f"{base}/comments?per_page=100")]
        comments = tuple(CommentRecord(USER.decode(d["user"], "comment user")["login"],
                                       d["body"], parse_ts(d["created_at"])) for d in docs)
    except (IngestError, ValueError) as exc:
        failures.append(HydrationFailure(issue.id, "comments", str(exc)))

    events: tuple[EventRecord, ...] = ()
    referenced_commit = issue.referenced_commit
    closer = issue.closer_login
    try:
        docs = [EVENT.decode(d, "event") for d in client.paginated(f"{base}/events?per_page=100")]
        events = tuple(EventRecord(d["event"], parse_ts(d["created_at"])) for d in docs)
        referenced_commit = referenced_commit or any(
            d["event"] == "referenced" and d["commit_id"] for d in docs)
        if closer is None:
            for d in docs:
                if d["event"] == "closed" and d["actor"]:
                    closer = USER.decode(d["actor"], "event actor")["login"] or None
    except (IngestError, ValueError) as exc:
        failures.append(HydrationFailure(issue.id, "events", str(exc)))

    profile = UserProfile(login=issue.author.login)
    if issue.author.login:
        try:
            url = f"{API_BASE_URL}/users/{issue.author.login}"
            profile = _profile_from_api(_json_body(client.request(url), url, dict))
        except (IngestError, ValueError) as exc:
            failures.append(HydrationFailure(issue.id, "author", str(exc)))

    hydrated = replace(
        issue, comments=comments, events=events, author=profile,
        closer_login=closer, referenced_commit=referenced_commit,
        hydration_failed=bool(failures))
    return hydrated, failures


def hydrate(client: IssueClient, issues: Sequence[IssueRecord],
            provenance: dict | None = None) -> tuple[Corpus, list[HydrationFailure]]:
    """Attach comments, events and author profiles. Issues whose
    sub-resources keep failing are flagged, never dropped."""
    results: list[IssueRecord] = [None] * len(issues)  # type: ignore[list-item]
    failures: list[HydrationFailure] = []
    # worker count bounds in-flight requests: each worker issues one at a time
    with ThreadPoolExecutor(max_workers=client.cfg.max_parallel_requests) as pool:
        futures = {pool.submit(_hydrate_one, client, issue): pos
                   for pos, issue in enumerate(issues)}
        for future, pos in futures.items():
            hydrated, issue_failures = future.result()
            results[pos] = hydrated
            failures.extend(issue_failures)
    failures.sort(key=lambda f: (f.issue_id, f.resource))
    return Corpus(issues=tuple(results), provenance=provenance or {}), failures
