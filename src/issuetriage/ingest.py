"""REST client that mines issues, comments, events and author profiles.

Every response is cached on disk keyed by the full request URL (token
independent), so a warm cache replays a whole run without any network
traffic and two hydrations from the same cache are byte-identical. The
transport is injectable; tests drive the client with canned responses.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from datetime import datetime
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


class IngestError(Exception):
    pass


class AuthError(IngestError):
    pass


class NotFoundError(IngestError):
    pass


@dataclass(frozen=True)
class ClientConfig:
    cache_dir: Path
    base_url: str = "https://api.github.com"
    auth_token_env: str = "GITHUB_TOKEN"
    max_parallel_requests: int = 4
    max_attempts: int = 3
    backoff_base_seconds: float = 1.0
    refresh: bool = False

    def __post_init__(self) -> None:
        if self.max_parallel_requests < 1:
            raise SettingError(
                f"max_parallel_requests must be >= 1, got {self.max_parallel_requests}")
        if self.max_attempts < 0:
            raise SettingError("max_attempts must be >= 0")


_REPO_RE = re.compile(r"^[\w.-]+/[\w.-]+$")


@dataclass(frozen=True)
class FetchQuery:
    repo: str
    state: str = "closed"  # open | closed | all
    created_before: Optional[str] = None  # ISO timestamp
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


class RequestsTransport:
    """Default network transport (lazy import keeps tests network-free)."""

    def __init__(self, timeout: float = 30.0) -> None:
        import requests

        self._session = requests.Session()
        self._timeout = timeout

    def get(self, url: str, headers: dict[str, str]) -> Response:
        resp = self._session.get(url, headers=headers, timeout=self._timeout)
        return Response(resp.status_code, dict(resp.headers), resp.text)


@dataclass
class HydrationFailure:
    issue_id: str
    resource: str
    error: str


_LINK_NEXT_RE = re.compile(r'<([^>]+)>\s*;\s*rel="next"')


def _json_body(response: Response, url: str, kind: type):
    """The decoded body of a 200 response, which must be a JSON ``kind``."""
    try:
        doc = json.loads(response.body)
    except ValueError:
        raise IngestError(f"response from {url} is not JSON") from None
    if not isinstance(doc, kind):
        raise IngestError(f"expected a JSON {kind.__name__} from {url}")
    return doc


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
        if not path.exists():
            return None
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
            return Response(doc["status"], doc["headers"], doc["body"])
        except (OSError, ValueError, KeyError, TypeError):
            return None  # a corrupt entry is a miss: refetched and rewritten

    def _write_cache(self, url: str, response: Response) -> None:
        doc = {"url": url, "status": response.status,
               "headers": response.headers, "body": response.body}
        tmp = self._cache_path(url).with_suffix(".tmp")
        tmp.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
        tmp.replace(self._cache_path(url))

    # -- request machinery ----------------------------------------------------

    def _headers(self) -> dict[str, str]:
        headers = {"Accept": "application/vnd.github.v3+json"}
        token = os.environ.get(self.cfg.auth_token_env)
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
        attempt = 0
        while True:
            with self._requests_guard:
                self.network_requests += 1
            response = self.transport.get(url, self._headers())
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
            if attempt >= self.cfg.max_attempts:
                raise IngestError(
                    f"giving up on {url} after {attempt + 1} attempts "
                    f"(last status {response.status})")
            if retriable_rate_limit:
                self.sleep(self._rate_limit_delay(response))
            else:
                self.sleep(self.cfg.backoff_base_seconds * (2 ** attempt))
            attempt += 1

    def _rate_limit_delay(self, response: Response) -> float:
        retry_after = response.header("Retry-After")
        if retry_after is not None:
            return max(0.0, float(retry_after))
        reset = response.header("X-RateLimit-Reset")
        if reset is not None:
            return max(0.0, float(reset) - time.time())
        return self.cfg.backoff_base_seconds

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
# Issue mapping

def _issue_from_api(doc: dict, repo: str) -> IssueRecord:
    labels = []
    for lb in doc.get("labels", []):
        labels.append(lb["name"] if isinstance(lb, dict) else str(lb))
    closed_by = doc.get("closed_by")
    return IssueRecord(
        id=str(doc["number"]),
        repo=repo,
        title=doc.get("title") or "",
        description=doc.get("body") or "",
        state=doc.get("state", "closed"),
        created_at=parse_ts(doc["created_at"]),
        closed_at=parse_ts(doc["closed_at"]) if doc.get("closed_at") else None,
        labels=tuple(dict.fromkeys(labels)),
        is_pull_request="pull_request" in doc,
        milestone_present=doc.get("milestone") is not None,
        assignee_present=bool(doc.get("assignee") or doc.get("assignees")),
        author=UserProfile(login=(doc.get("user") or {}).get("login", "")),
        closer_login=closed_by.get("login") if isinstance(closed_by, dict) else None,
    )


def fetch_issues(cfg: ClientConfig, query: FetchQuery,
                 transport: Transport | None = None,
                 sleeper: Callable[[float], None] = time.sleep,
                 client: IssueClient | None = None) -> list[IssueRecord]:
    """All issues of a repository (partially hydrated), pagination followed
    to exhaustion, every response cached."""
    client = client or IssueClient(cfg, transport, sleeper)
    params = urlencode({"state": query.state, "per_page": 100})
    url = f"{cfg.base_url}/repos/{query.repo}/issues?{params}"
    issues = []
    for doc in client.paginated(url):
        record = _issue_from_api(doc, query.repo)
        if not query.include_pull_requests and record.is_pull_request:
            continue
        if query.created_before and record.created_at >= parse_ts(query.created_before):
            continue
        issues.append(record)
    return issues


def _zeroed_profile(login: str) -> UserProfile:
    return UserProfile(login=login)


def _profile_from_api(doc: dict) -> UserProfile:
    return UserProfile(
        login=doc.get("login", ""),
        followers=int(doc.get("followers", 0)),
        following=int(doc.get("following", 0)),
        public_repos=int(doc.get("public_repos", 0)),
        public_gists=int(doc.get("public_gists", 0)),
        issue_count=int(doc.get("issue_count", 0)),
        github_contributions=int(doc.get("contributions", doc.get("github_contributions", 0))),
        account_created_at=parse_ts(doc["created_at"]) if doc.get("created_at") else None,
        repo_contributions=int(doc.get("repo_contributions", 0)),
        association=doc.get("association", "None"),
    )


def _created_at(doc: dict) -> datetime:
    try:
        return parse_ts(doc["created_at"])
    except (KeyError, AttributeError, TypeError, ValueError) as exc:
        raise IngestError(f"record without a valid created_at: {exc!r}") from None


def _hydrate_one(client: IssueClient, cfg: ClientConfig,
                 issue: IssueRecord) -> tuple[IssueRecord, list[HydrationFailure]]:
    failures: list[HydrationFailure] = []
    base = f"{cfg.base_url}/repos/{issue.repo}/issues/{issue.id}"

    comments: tuple[CommentRecord, ...] = ()
    try:
        docs = client.paginated(f"{base}/comments?per_page=100")
        comments = tuple(
            CommentRecord(author_login=(d.get("user") or {}).get("login", ""),
                          body=d.get("body") or "",
                          created_at=_created_at(d))
            for d in docs)
    except IngestError as exc:
        failures.append(HydrationFailure(issue.id, "comments", str(exc)))

    events: tuple[EventRecord, ...] = ()
    referenced_commit = issue.referenced_commit
    closer = issue.closer_login
    try:
        docs = client.paginated(f"{base}/events?per_page=100")
        events = tuple(EventRecord(kind=d.get("event", "unknown"),
                                   created_at=_created_at(d))
                       for d in docs)
        referenced_commit = referenced_commit or any(
            d.get("event") == "referenced" and d.get("commit_id") for d in docs)
        if closer is None:
            for d in docs:
                if d.get("event") == "closed" and d.get("actor"):
                    closer = d["actor"].get("login")
    except IngestError as exc:
        failures.append(HydrationFailure(issue.id, "events", str(exc)))

    profile = _zeroed_profile(issue.author.login)
    if issue.author.login:
        try:
            url = f"{cfg.base_url}/users/{issue.author.login}"
            profile = _profile_from_api(_json_body(client.request(url), url, dict))
        except IngestError as exc:
            failures.append(HydrationFailure(issue.id, "author", str(exc)))

    hydrated = replace(
        issue, comments=comments, events=events, author=profile,
        closer_login=closer, referenced_commit=referenced_commit,
        hydration_failed=bool(failures))
    return hydrated, failures


def hydrate(cfg: ClientConfig, issues: Sequence[IssueRecord],
            transport: Transport | None = None,
            sleeper: Callable[[float], None] = time.sleep,
            client: IssueClient | None = None,
            provenance: dict | None = None,
            ) -> tuple[Corpus, list[HydrationFailure]]:
    """Attach comments, events and author profiles. Issues whose
    sub-resources keep failing are flagged, never dropped."""
    client = client or IssueClient(cfg, transport, sleeper)
    results: list[IssueRecord] = [None] * len(issues)  # type: ignore[list-item]
    failures: list[HydrationFailure] = []
    # worker count bounds in-flight requests: each worker issues one at a time
    with ThreadPoolExecutor(max_workers=cfg.max_parallel_requests) as pool:
        futures = {pool.submit(_hydrate_one, client, cfg, issue): pos
                   for pos, issue in enumerate(issues)}
        for future, pos in futures.items():
            hydrated, issue_failures = future.result()
            results[pos] = hydrated
            failures.extend(issue_failures)
    failures.sort(key=lambda f: (f.issue_id, f.resource))
    return Corpus(issues=tuple(results), provenance=provenance or {}), failures
