import functools
import hashlib
import json
import threading
import time
import types
from datetime import datetime, timezone
from pathlib import Path

import pytest
import requests

from issuetriage import cli, ingest
from issuetriage.corpus import save_corpus
from issuetriage.ingest import (
    AuthError,
    ClientConfig,
    FetchQuery,
    IngestError,
    HydrationFailure,
    IssueClient,
    NotFoundError,
    Response,
    fetch_issues,
    hydrate,
)

BASE = ingest.API_BASE_URL
# the backoff before retry n (from 0) when the server names no wait
BACKOFF = [ingest.BACKOFF_BASE_SECONDS * 2 ** n for n in range(ingest.MAX_RETRIES)]
REPO = "octo/widgets"
ISSUES_URL = f"{BASE}/repos/{REPO}/issues?state=closed&per_page=100"


class FakeTransport:
    """Canned URL -> response table with concurrency instrumentation."""

    def __init__(self, routes=None, delay=0.0):
        self.routes = dict(routes or {})
        self.calls = []
        self.delay = delay
        self._lock = threading.Lock()
        self._in_flight = 0
        self.max_in_flight = 0

    def add(self, url, body, status=200, headers=None):
        self.routes[url] = Response(status, headers or {}, json.dumps(body))

    def add_sequence(self, url, responses):
        self.routes[url] = list(responses)

    def get(self, url, headers):
        with self._lock:
            self.calls.append(url)
            self._in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self._in_flight)
        try:
            if self.delay:
                time.sleep(self.delay)
            if url not in self.routes:
                return Response(404, {}, json.dumps({"message": "Not Found"}))
            entry = self.routes[url]
            if isinstance(entry, list):
                entry = entry.pop(0) if len(entry) > 1 else entry[0]
            if isinstance(entry, OSError):  # the network failed
                raise entry
            return entry
        finally:
            with self._lock:
                self._in_flight -= 1


def issue_doc(number, **overrides):
    doc = {
        "number": number,
        "title": f"Widget breaks on input {number}",
        "body": "The widget fails for some inputs and must be fixed.",
        "state": "closed",
        "created_at": "2021-02-01T10:00:00Z",
        "closed_at": "2021-02-11T10:00:00Z",
        "labels": [{"name": "bug"}],
        "user": {"login": "alice"},
    }
    doc.update(overrides)
    return doc


def cfg(tmp_path, max_parallel_requests=4, refresh=False):
    return ClientConfig(cache_dir=tmp_path / "cache",
                        max_parallel_requests=max_parallel_requests, refresh=refresh)


def query(**kw):
    """A query for ``REPO`` with the settings ``fetch`` reads by default."""
    return FetchQuery(**{"repo": REPO, "state": "closed", "created_before": None,
                         "include_pull_requests": True, **kw})


def no_sleep(_):
    pass


def client_for(tmp_path, transport, sleeper=no_sleep, **kw):
    return IssueClient(cfg(tmp_path, **kw), transport, sleeper)


class TestFetchIssues:
    def test_empty_repo(self, tmp_path):
        transport = FakeTransport()
        transport.add(ISSUES_URL, [])
        issues = fetch_issues(client_for(tmp_path, transport), query())
        assert issues == []

    def test_two_page_fixture(self, tmp_path):
        transport = FakeTransport()
        page2 = ISSUES_URL + "&page=2"
        transport.routes[ISSUES_URL] = Response(
            200, {"Link": f'<{page2}>; rel="next"'},
            json.dumps([issue_doc(i) for i in range(1, 101)]))
        transport.add(page2, [issue_doc(i) for i in range(101, 151)])
        issues = fetch_issues(client_for(tmp_path, transport), query())
        assert len(issues) == 150
        assert len(transport.calls) == 2
        assert issues[0].repo == REPO
        assert issues[0].labels == ("bug",)

    def test_warm_cache_issues_no_requests(self, tmp_path):
        transport = FakeTransport()
        transport.add(ISSUES_URL, [issue_doc(1), issue_doc(2)])
        first = fetch_issues(client_for(tmp_path, transport), query())
        cold_transport = FakeTransport()  # would 404 on any request
        second = fetch_issues(client_for(tmp_path, cold_transport), query())
        assert second == first
        assert cold_transport.calls == []

    def test_refresh_bypasses_cache(self, tmp_path):
        transport = FakeTransport()
        transport.add(ISSUES_URL, [issue_doc(1)])
        fetch_issues(client_for(tmp_path, transport), query())
        transport2 = FakeTransport()
        transport2.add(ISSUES_URL, [issue_doc(1), issue_doc(2)])
        refreshed = fetch_issues(client_for(tmp_path, transport2, refresh=True),
                                 query())
        assert len(refreshed) == 2
        assert transport2.calls == [ISSUES_URL]

    def test_missing_repo_fatal(self, tmp_path):
        transport = FakeTransport()  # unrouted URLs respond 404
        with pytest.raises(NotFoundError, match=REPO):
            fetch_issues(client_for(tmp_path, transport), query())

    def test_auth_failure_fatal(self, tmp_path):
        transport = FakeTransport()
        transport.routes[ISSUES_URL] = Response(401, {}, "{}")
        with pytest.raises(AuthError):
            fetch_issues(client_for(tmp_path, transport), query())

    def test_rate_limit_waits_server_advised_delay(self, tmp_path):
        transport = FakeTransport()
        transport.add_sequence(ISSUES_URL, [
            Response(429, {"Retry-After": "7"}, "{}"),
            Response(200, {}, json.dumps([issue_doc(1)])),
        ])
        sleeps = []
        issues = fetch_issues(client_for(tmp_path, transport, sleeps.append),
                              query())
        assert len(issues) == 1
        assert sleeps == [7.0]

    @pytest.mark.parametrize("retry_after, want", [
        ("Wed, 21 Oct 2015 07:28:30 GMT", 30.0),  # an HTTP date, 30 s from now
        ("soon", BACKOFF[0]),  # neither a number nor a date: the usual backoff
        ("1e999", BACKOFF[0]),  # a number, but not a finite one: the usual backoff
    ], ids=["http-date", "no-number", "infinite"])
    def test_rate_limit_delay_as_a_date_or_no_number(self, tmp_path, monkeypatch,
                                                      retry_after, want):
        now = datetime(2015, 10, 21, 7, 28, tzinfo=timezone.utc).timestamp()
        monkeypatch.setattr(ingest, "time", types.SimpleNamespace(time=lambda: now))
        transport = FakeTransport()
        transport.add_sequence(ISSUES_URL, [
            Response(429, {"Retry-After": retry_after}, "{}"),
            Response(200, {}, json.dumps([issue_doc(1)])),
        ])
        sleeps = []
        client = client_for(tmp_path, transport, sleeps.append)
        issues = fetch_issues(client, query())
        assert [i.id for i in issues] == ["1"]
        assert sleeps == [want] and transport.calls == [ISSUES_URL] * 2

    @pytest.mark.parametrize("headers, wait", [
        ({"Retry-After": "1e10"}, "10000000000"),
        ({"Retry-After": "Fri, 31 Dec 9999 23:59:59 GMT"}, "251956888319"),
        ({"X-RateLimit-Remaining": "0", "X-RateLimit-Reset": "99999999999"}, "98554587519"),
    ], ids=["seconds", "year-9999-date", "far-reset"])
    def test_rate_limit_wait_over_an_hour_is_an_error_without_a_sleep(
            self, tmp_path, monkeypatch, headers, wait):
        """A wait longer than ``time.sleep`` takes used to end in its
        ``OverflowError``; any wait over the hour is refused untried."""
        now = datetime(2015, 10, 21, 7, 28, tzinfo=timezone.utc).timestamp()
        monkeypatch.setattr(ingest, "time", types.SimpleNamespace(time=lambda: now))
        transport = FakeTransport()
        transport.routes[ISSUES_URL] = Response(403, headers, "{}")
        sleeps = []
        with pytest.raises(IngestError) as caught:
            fetch_issues(client_for(tmp_path, transport, sleeps.append), query())
        assert str(caught.value) == (f"{ISSUES_URL} is rate limited for {wait} s, "
                                     "over the 3600 s this client waits")
        assert sleeps == [] and transport.calls == [ISSUES_URL]

    def test_rate_limit_wait_of_an_hour_is_slept(self, tmp_path):
        transport = FakeTransport()
        transport.add_sequence(ISSUES_URL, [
            Response(429, {"Retry-After": "3600"}, "{}"),
            Response(200, {}, json.dumps([issue_doc(1)])),
        ])
        sleeps = []
        fetch_issues(client_for(tmp_path, transport, sleeps.append), query())
        assert sleeps == [3600.0]

    def test_fetch_with_a_huge_retry_after_exits_two(self, tmp_path, monkeypatch, capsys):
        transport = FakeTransport()
        transport.routes[ISSUES_URL] = Response(429, {"Retry-After": "1e10"}, "{}")
        sleeps = []
        monkeypatch.setattr(ingest, "RequestsTransport", lambda: transport)
        monkeypatch.setattr(ingest, "IssueClient",
                            functools.partial(IssueClient, sleeper=sleeps.append))
        code = cli.main(["fetch", "--repo", REPO, "--out", str(tmp_path / "c.jsonl"),
                         "--cache-dir", str(tmp_path / "cache")])
        assert code == 2 and sleeps == []
        assert capsys.readouterr().err.strip().splitlines() == [
            f"error: {ISSUES_URL} is rate limited for 10000000000 s, "
            "over the 3600 s this client waits"]

    def test_retries_exhausted(self, tmp_path):
        transport = FakeTransport()
        transport.routes[ISSUES_URL] = Response(500, {}, "{}")
        with pytest.raises(IngestError, match=f"giving up .* after {ingest.MAX_RETRIES + 1} "):
            fetch_issues(client_for(tmp_path, transport), query())
        assert transport.calls == [ISSUES_URL] * (ingest.MAX_RETRIES + 1)

    def test_transport_error_is_retried(self, tmp_path):
        transport = FakeTransport()
        transport.add_sequence(ISSUES_URL, [
            requests.Timeout("read timed out"),
            Response(200, {}, json.dumps([issue_doc(1)])),
        ])
        sleeps = []
        client = client_for(tmp_path, transport, sleeps.append)
        issues = fetch_issues(client, query())
        assert [i.id for i in issues] == ["1"]
        assert sleeps == BACKOFF[:1] and client.network_requests == 2

    def test_fetch_through_a_lasting_transport_error_exits_two(self, tmp_path, monkeypatch,
                                                                capsys):
        """Each try backs off and counts as a request; then one error line
        names the URL and the last error."""
        transport = FakeTransport()
        transport.routes[ISSUES_URL] = requests.ConnectionError("network is down")
        sleeps = []
        monkeypatch.setattr(ingest, "RequestsTransport", lambda: transport)
        monkeypatch.setattr(ingest, "IssueClient",
                            functools.partial(IssueClient, sleeper=sleeps.append))
        code = cli.main(["fetch", "--repo", REPO, "--out", str(tmp_path / "c.jsonl"),
                         "--cache-dir", str(tmp_path / "cache")])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        tries = ingest.MAX_RETRIES + 1
        assert err == [f"error: giving up on {ISSUES_URL} after {tries} attempts "
                       "(last error: network is down)"], err
        assert sleeps == BACKOFF and transport.calls == [ISSUES_URL] * tries

    def test_pull_requests_filtered_when_asked(self, tmp_path):
        transport = FakeTransport()
        transport.add(ISSUES_URL, [issue_doc(1),
                                   issue_doc(2, pull_request={"url": "x"})])
        issues = fetch_issues(client_for(tmp_path, transport),
                              query(include_pull_requests=False))
        assert [i.id for i in issues] == ["1"]

    def test_bad_repo_shape_rejected(self):
        with pytest.raises(ValueError):
            query(repo="not-a-repo")

    def test_created_before_filters_and_a_bad_one_exits_one(self, tmp_path, capsys):
        transport = FakeTransport()
        transport.add(ISSUES_URL, [issue_doc(1), issue_doc(2, created_at="2021-03-01T00:00:00Z",
                                                             closed_at=None)])
        before = datetime(2021, 2, 15, tzinfo=timezone.utc)
        issues = fetch_issues(client_for(tmp_path, transport),
                              query(created_before=before))
        assert [i.id for i in issues] == ["1"]
        code = cli.main(["fetch", "--repo", REPO, "--out", str(tmp_path / "c.jsonl"),
                         "--cache-dir", str(tmp_path / "cache"), "--created-before", "soon"])
        err = capsys.readouterr().err.strip().splitlines()
        errors = [line for line in err if line.startswith("error: ")]
        assert code == 1 and len(errors) == 1 and "--created-before" in errors[0], err


def hydration_routes(transport, number=1, login="alice"):
    base = f"{BASE}/repos/{REPO}/issues/{number}"
    transport.add(f"{base}/comments?per_page=100", [
        {"user": {"login": f"dev{i}"}, "body": f"comment {i}",
         "created_at": f"2021-02-0{i + 2}T10:00:00Z"}
        for i in range(3)])
    transport.add(f"{base}/events?per_page=100", [
        {"event": "labeled", "created_at": "2021-02-02T10:00:00Z"},
        {"event": "referenced", "commit_id": "abc123",
         "created_at": "2021-02-03T10:00:00Z"},
        {"event": "assigned", "created_at": "2021-02-04T10:00:00Z"},
        {"event": "mentioned", "created_at": "2021-02-05T10:00:00Z"},
        {"event": "closed", "actor": {"login": "bob"},
         "created_at": "2021-02-06T10:00:00Z"},
    ])
    transport.add(f"{BASE}/users/{login}", {
        "login": login, "followers": 42, "following": 7, "public_repos": 12,
        "public_gists": 3, "created_at": "2015-06-01T00:00:00Z"})


class TestHydrate:
    def fetch_one(self, tmp_path, transport):
        transport.add(ISSUES_URL, [issue_doc(1)])
        return fetch_issues(client_for(tmp_path, transport), query())

    def test_fixture_counts(self, tmp_path):
        transport = FakeTransport()
        hydration_routes(transport)
        issues = self.fetch_one(tmp_path, transport)
        corpus, failures = hydrate(client_for(tmp_path, transport), issues, {})
        assert failures == []
        issue = corpus.issues[0]
        assert len(issue.comments) == 3
        assert len(issue.events) == 5
        assert issue.referenced_commit is True
        assert issue.closer_login == "bob"  # from the closed event actor
        assert issue.author.followers == 42
        assert not issue.hydration_failed

    def test_zero_comments_defaults(self, tmp_path):
        transport = FakeTransport()
        base = f"{BASE}/repos/{REPO}/issues/1"
        transport.add(f"{base}/comments?per_page=100", [])
        transport.add(f"{base}/events?per_page=100", [])
        transport.add(f"{BASE}/users/alice", {"login": "alice"})
        issues = self.fetch_one(tmp_path, transport)
        corpus, failures = hydrate(client_for(tmp_path, transport), issues, {})
        assert corpus.issues[0].comments == ()
        assert failures == []

    def test_user_404_zeroes_profile_and_flags(self, tmp_path):
        transport = FakeTransport()
        base = f"{BASE}/repos/{REPO}/issues/1"
        transport.add(f"{base}/comments?per_page=100", [])
        transport.add(f"{base}/events?per_page=100", [])
        # no /users/alice route -> 404
        issues = self.fetch_one(tmp_path, transport)
        corpus, failures = hydrate(client_for(tmp_path, transport), issues, {})
        issue = corpus.issues[0]
        assert issue.hydration_failed is True
        assert issue.author.followers == 0
        assert [f.resource for f in failures] == ["author"]

    def test_cache_replay_is_byte_identical(self, tmp_path):
        transport = FakeTransport()
        hydration_routes(transport)
        issues = self.fetch_one(tmp_path, transport)
        corpus1, _ = hydrate(client_for(tmp_path, transport), issues, {})
        cold = FakeTransport()
        corpus2, _ = hydrate(client_for(tmp_path, cold), issues, {})
        assert cold.calls == []
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_corpus(corpus1, p1)
        save_corpus(corpus2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_parallelism_bound_respected(self, tmp_path):
        transport = FakeTransport(delay=0.004)
        transport.add(ISSUES_URL, [issue_doc(n) for n in range(1, 9)])
        for n in range(1, 9):
            base = f"{BASE}/repos/{REPO}/issues/{n}"
            transport.add(f"{base}/comments?per_page=100", [])
            transport.add(f"{base}/events?per_page=100", [])
        transport.add(f"{BASE}/users/alice", {"login": "alice"})
        issues = fetch_issues(client_for(tmp_path, transport), query())
        # fresh cache dir so hydration actually goes over the transport
        bounded = ClientConfig(cache_dir=tmp_path / "cache2", max_parallel_requests=2,
                               refresh=False)
        transport.max_in_flight = 0
        corpus, _ = hydrate(IssueClient(bounded, transport, no_sleep), issues, {})
        assert len(corpus) == 8
        assert transport.max_in_flight <= 2

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError):
            ClientConfig(cache_dir=tmp_path, max_parallel_requests=0, refresh=False)


class CountingLock:
    """A lock that counts how often it was entered."""

    def __init__(self):
        self._lock = threading.Lock()
        self.entries = 0

    def __enter__(self):
        self._lock.acquire()
        self.entries += 1

    def __exit__(self, *exc):
        self._lock.release()


class TestRobustness:
    @pytest.mark.parametrize("entry", [
        "{bad", "[]", json.dumps({"status": 200, "headers": {}}),
        json.dumps({"status": 200, "body": "[]"}),
        json.dumps({"status": 200, "headers": {}, "body": 5}),
        json.dumps({"status": 200, "headers": [], "body": "[]"}),
        pytest.param("[" * 100_000, id="nested")])
    def test_corrupt_cache_entry_is_refetched(self, tmp_path, entry):
        transport = FakeTransport()
        transport.add(ISSUES_URL, [issue_doc(1)])
        first = fetch_issues(client_for(tmp_path, transport), query())
        [cache_file] = (tmp_path / "cache").glob("*.json")
        cache_file.write_text(entry)
        again = fetch_issues(client_for(tmp_path, transport), query())
        assert again == first
        assert transport.calls == [ISSUES_URL, ISSUES_URL]
        assert set(json.loads(cache_file.read_text())) >= {"status", "headers", "body"}

    @pytest.mark.parametrize("resource", ["comments", "events"])
    def test_record_without_created_at_fails_only_its_resource(self, tmp_path, resource):
        transport = FakeTransport()
        hydration_routes(transport)
        url = f"{BASE}/repos/{REPO}/issues/1/{resource}?per_page=100"
        docs = json.loads(transport.routes[url].body)
        del docs[1]["created_at"]
        transport.add(url, docs)
        transport.add(ISSUES_URL, [issue_doc(1)])
        issues = fetch_issues(client_for(tmp_path, transport), query())
        corpus, failures = hydrate(client_for(tmp_path, transport), issues, {})
        assert [(f.issue_id, f.resource) for f in failures] == [("1", resource)]
        assert isinstance(failures[0], HydrationFailure)
        issue = corpus.issues[0]
        assert issue.hydration_failed is True
        assert issue.author.followers == 42
        assert (len(issue.comments), len(issue.events)) == \
            ((0, 5) if resource == "comments" else (3, 0))

    def test_non_json_profile_fails_only_the_author(self, tmp_path):
        transport = FakeTransport()
        hydration_routes(transport)
        transport.routes[f"{BASE}/users/alice"] = Response(200, {}, "<html>oops")
        transport.add(ISSUES_URL, [issue_doc(1)])
        issues = fetch_issues(client_for(tmp_path, transport), query())
        corpus, failures = hydrate(client_for(tmp_path, transport), issues, {})
        assert [(f.issue_id, f.resource) for f in failures] == [("1", "author")]
        issue = corpus.issues[0]
        assert issue.hydration_failed is True
        assert issue.author.followers == 0
        assert (len(issue.comments), len(issue.events)) == (3, 5)

    @pytest.mark.parametrize("body", ["<html>oops", "[" * 100_000], ids=["html", "nested"])
    def test_fetch_of_non_json_issue_list_exits_two(self, tmp_path, monkeypatch, capsys, body):
        transport = FakeTransport()
        transport.routes[ISSUES_URL] = Response(200, {}, body)
        monkeypatch.setattr(ingest, "RequestsTransport", lambda: transport)
        code = cli.main(["fetch", "--repo", REPO, "--out", str(tmp_path / "c.jsonl"),
                         "--cache-dir", str(tmp_path / "cache")])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: ") and "not JSON" in err[0], err
        assert transport.calls == [ISSUES_URL]

    @pytest.mark.parametrize("doc, named", [
        (5, "is not an object"),
        (issue_doc(1, user="bob"), "'user' must be an object"),
        (issue_doc(1, labels=[{"color": "red"}]), "has no 'name'"),
        ({"number": 1}, "has no 'created_at'"),
    ], ids=["not-an-object", "user-string", "label-without-name", "no-created_at"])
    def test_bad_issue_document_is_an_ingest_error(self, tmp_path, doc, named):
        transport = FakeTransport()
        transport.add(ISSUES_URL, [issue_doc(2), doc])
        with pytest.raises(IngestError, match=named):
            fetch_issues(client_for(tmp_path, transport), query())

    def test_issue_listed_twice_is_an_ingest_error(self, tmp_path):
        transport = FakeTransport()
        transport.add(ISSUES_URL, [issue_doc(1), issue_doc(1)])
        with pytest.raises(IngestError, match="an issue is listed twice"):
            fetch_issues(client_for(tmp_path, transport), query())

    @pytest.mark.parametrize("resource, route, change, named", [
        ("author", "users/alice", lambda doc: {**doc, "followers": "many"}, "'followers'"),
        ("author", "users/alice", lambda doc: {**doc, "followers": -1}, "'followers'"),
        ("events", "repos/octo/widgets/issues/1/events?per_page=100",
         lambda docs: [*docs[:-1], {**docs[-1], "actor": "bob"}], "'actor' must be an object"),
        ("comments", "repos/octo/widgets/issues/1/comments?per_page=100",
         lambda docs: [{**docs[0], "user": "bob"}, *docs[1:]], "'user' must be an object"),
    ], ids=["followers-many", "followers-negative", "actor-string", "comment-user-string"])
    def test_bad_sub_resource_fails_only_its_resource(self, tmp_path, resource, route, change,
                                                      named):
        transport = FakeTransport()
        hydration_routes(transport)
        url = f"{BASE}/{route}"
        transport.add(url, change(json.loads(transport.routes[url].body)))
        transport.add(ISSUES_URL, [issue_doc(1)])
        issues = fetch_issues(client_for(tmp_path, transport), query())
        corpus, failures = hydrate(client_for(tmp_path, transport), issues, {})
        assert [(f.issue_id, f.resource) for f in failures] == [("1", resource)]
        assert named in failures[0].error, failures
        issue = corpus.issues[0]
        assert issue.hydration_failed is True
        assert (len(issue.comments), len(issue.events), issue.author.followers) == {
            "author": (3, 5, 0), "events": (3, 0, 42), "comments": (0, 5, 42)}[resource]

    def test_fetch_of_cached_issue_without_created_at_exits_two(self, tmp_path, monkeypatch,
                                                                  capsys):
        """A cached issue list (``paths.cache``) whose one issue has no
        ``created_at``: one error line, exit 2, and no request made."""
        url = f"{BASE}/repos/o/r/issues?state=closed&per_page=100"
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / f"{hashlib.sha256(url.encode()).hexdigest()}.json").write_text(json.dumps(
            {"url": url, "status": 200, "headers": {}, "body": json.dumps([{"number": 1}])}))
        (tmp_path / "config.json").write_text(json.dumps({"paths": {"cache": str(cache)}}))
        transport = FakeTransport()
        monkeypatch.setattr(ingest, "RequestsTransport", lambda: transport)
        code = cli.main(["--config", str(tmp_path / "config.json"), "fetch", "--repo", "o/r",
                         "--out", str(tmp_path / "c.jsonl")])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: ") and "'created_at'" in err[0], err
        assert transport.calls == []

    def test_request_counter_is_locked(self, tmp_path):
        transport = FakeTransport(delay=0.002)
        transport.add(ISSUES_URL, [issue_doc(n) for n in range(1, 9)])
        for n in range(1, 9):
            hydration_routes(transport, number=n)
        config = cfg(tmp_path, max_parallel_requests=4)
        client = IssueClient(config, transport, no_sleep)
        guard = client._requests_guard = CountingLock()
        issues = fetch_issues(client, query())
        hydrate(client, issues, {})
        assert guard.entries == client.network_requests == len(transport.calls) == 18
