import dataclasses
import json
from datetime import datetime, timedelta, timezone

import pytest

from issuetriage import corpus as corpus_module
from issuetriage.corpus import (
    Corpus,
    CorpusError,
    FilterConfig,
    IssueRecord,
    filter_corpus,
    format_ts,
    load_corpus,
    parse_ts,
    save_corpus,
)
from testkit import T0, make_issue


def corpus_of(*issues):
    return Corpus(issues=tuple(issues), provenance={"source": "test"})


class TestRoundTrip:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        corpus, errors = load_corpus(path)
        assert len(corpus) == 0
        assert errors == []

    def test_save_load_identity(self, tmp_path):
        original = corpus_of(
            make_issue(id="a", labels=("bug", "ui"), n_comments=2, n_events=3,
                       followers=7, closer="bob", milestone_present=True),
            make_issue(id="b", title="Add dark mode", closed_days=None,
                       is_pull_request=True, extra={"custom_key": [1, 2]}),
        )
        path = tmp_path / "c.jsonl"
        save_corpus(original, path)
        assert load_corpus(path) == (original, [])

    def test_unknown_keys_preserved(self, tmp_path):
        path = tmp_path / "c.jsonl"
        save_corpus(corpus_of(make_issue(extra={"reactions": 5})), path)
        raw = json.loads(path.read_text().splitlines()[0])
        assert raw["reactions"] == 5
        loaded, _ = load_corpus(path)
        assert loaded.issues[0].extra == {"reactions": 5}

    def test_malformed_lines_reported_with_numbers(self, tmp_path):
        path = tmp_path / "c.jsonl"
        save_corpus(corpus_of(make_issue(id="a"), make_issue(id="b"),
                              make_issue(id="c")), path)
        lines = path.read_text().splitlines()
        lines.insert(2, "{not json")
        path.write_text("\n".join(lines) + "\n")
        corpus, errors = load_corpus(path)
        assert len(corpus) == 3
        assert [lineno for lineno, _ in errors] == [3]

    # one case per record fault that used to end in a traceback or be misread
    @pytest.mark.parametrize("fault, message", [
        (lambda doc: [doc], "is not an object"),
        (lambda doc: {**doc, "title": 5}, "'title' must be a string"),
        (lambda doc: {**doc, "description": ["a"]}, "'description' must be a string"),
        (lambda doc: {**doc, "author": "bob"}, "'author' must be an object"),
        (lambda doc: {**doc, "labels": "bug"}, "'labels' must be a list"),
        (lambda doc: {**doc, "labels": ["bug", 3]}, "'labels' must hold strings"),
        (lambda doc: {**doc, "id": None}, "has no 'id'"),
        (lambda doc: {**doc, "id": True}, "'id' must be a string or an integer"),
        (lambda doc: {**doc, "created_at": 5}, "'created_at' must be a string"),
        (lambda doc: {**doc, "is_pull_request": "no"}, "'is_pull_request' must be true or false"),
        (lambda doc: {**doc, "author": {"followers": 10 ** 400}},
         "'followers' must be an integer in [0, 2**63)"),
        (lambda doc: {**doc, "comments": [{"author_login": "x", "body": 1,
                                           "created_at": "2021-01-01T00:00:00Z"}]},
         "'body' must be a string"),
        (lambda doc: {**doc, "events": ["labeled"]}, "record event 'labeled' is not an object"),
        (lambda doc: {**doc, "id": "a"}, "repeats an earlier line"),
    ], ids=["array", "title", "description", "author", "labels", "label", "id-null", "id-bool",
            "created_at", "flag", "count", "comment", "event", "repeated-id"])
    def test_mistyped_record_is_a_malformed_line(self, tmp_path, fault, message):
        path = tmp_path / "c.jsonl"
        save_corpus(corpus_of(make_issue(id="a"), make_issue(id="b")), path)
        lines = path.read_text().splitlines()
        lines.insert(1, json.dumps(fault(dict(json.loads(lines[1]), id="z"))))
        path.write_text("\n".join(lines) + "\n")
        corpus, errors = load_corpus(path)
        assert [i.id for i in corpus.issues] == ["a", "b"]
        assert len(errors) == 1 and errors[0][0] == 2
        assert message in errors[0][1], errors
        with pytest.raises(CorpusError, match="line 2: "):
            load_corpus(path, strict=True)

    def test_integer_id_is_read_as_a_string(self, tmp_path):
        path = tmp_path / "c.jsonl"
        save_corpus(corpus_of(make_issue(id="a")), path)
        path.write_text(json.dumps({**json.loads(path.read_text()), "id": 17}) + "\n")
        corpus, errors = load_corpus(path)
        assert errors == [] and corpus.issues[0].id == "17"

    def test_line_that_is_not_utf8_is_a_malformed_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        save_corpus(corpus_of(make_issue(id="a"), make_issue(id="b", title="Caf\u00e9 crash"),
                              make_issue(id="c")), path)
        lines = path.read_bytes().splitlines()
        lines[1] = lines[1].replace("\u00e9".encode(), b"\xe9")  # Latin-1, not UTF-8
        path.write_bytes(b"\n".join(lines) + b"\n")
        corpus, errors = load_corpus(path)
        assert [i.id for i in corpus.issues] == ["a", "c"]
        assert errors[0][0] == 2 and "utf-8" in errors[0][1]
        with pytest.raises(CorpusError, match="line 2: "):
            load_corpus(path, strict=True)

    def test_strict_raises_on_malformed(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("{broken\n")
        with pytest.raises(CorpusError):
            load_corpus(path, strict=True)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CorpusError):
            load_corpus(tmp_path / "nope.jsonl")

    def test_schema_version_mismatch(self, tmp_path):
        path = tmp_path / "c.jsonl"
        save_corpus(corpus_of(make_issue()), path)
        meta = path.with_name(path.name + ".meta.json")
        meta.write_text(json.dumps({"schema_version": 99}))
        with pytest.raises(CorpusError, match="schema version"):
            load_corpus(path)

    @pytest.mark.parametrize("meta, named", [
        ({"schema_version": True}, "'schema_version' must be an integer"),
        ({"schema_version": 1.0}, "'schema_version' must be an integer"),
        ({"schema_version": 1, "provenance": "api"}, "'provenance' must be an object"),
        ({"schema_version": 1, "provenance": ["api"]}, "'provenance' must be an object"),
    ], ids=["version-true", "version-float", "provenance-string", "provenance-list"])
    def test_mistyped_sidecar(self, tmp_path, meta, named):
        path = tmp_path / "c.jsonl"
        save_corpus(corpus_of(make_issue()), path)
        path.with_name(path.name + ".meta.json").write_text(json.dumps(meta))
        with pytest.raises(CorpusError, match=f"sidecar field {named}"):
            load_corpus(path)

    @pytest.mark.parametrize("sidecar", [b"{bad", b"[]", b"\xff\xfe",
                                         pytest.param(b"[" * 100_000, id="nested")])
    def test_unreadable_sidecar(self, tmp_path, sidecar):
        path = tmp_path / "c.jsonl"
        save_corpus(corpus_of(make_issue()), path)
        path.with_name(path.name + ".meta.json").write_bytes(sidecar)
        with pytest.raises(CorpusError, match="sidecar"):
            load_corpus(path)


class TestTimestamps:
    @pytest.mark.parametrize("ts, text", [
        (datetime(2020, 1, 1, tzinfo=timezone.utc), "2020-01-01T00:00:00Z"),
        (datetime(2020, 1, 1, 0, 0, 0, 750_000, tzinfo=timezone.utc), "2020-01-01T00:00:00.750Z"),
        (datetime(2020, 1, 1, 0, 0, 0, 123_456, tzinfo=timezone.utc),
         "2020-01-01T00:00:00.123456Z"),
        (datetime(2020, 1, 1, 0, 0, 0, 1_000, tzinfo=timezone.utc), "2020-01-01T00:00:00.001Z"),
        (datetime(2020, 1, 1, 0, 0, 0, 1, tzinfo=timezone.utc), "2020-01-01T00:00:00.000001Z"),
        (datetime(2020, 1, 1, 2, 0, 0, 500_000, tzinfo=timezone(timedelta(hours=2))),
         "2020-01-01T00:00:00.500Z"),
    ], ids=["whole", "millis", "micros", "one-milli", "one-micro", "offset"])
    def test_format_keeps_the_fraction(self, ts, text):
        assert format_ts(ts) == text
        assert parse_ts(text) == ts

    def test_fractional_stamps_round_trip(self, tmp_path):
        path = tmp_path / "c.jsonl"
        save_corpus(corpus_of(make_issue(id="a", n_comments=1, n_events=1)), path)
        doc = json.loads(path.read_text())
        doc["created_at"] = "2020-01-01T00:00:00.750Z"
        doc["closed_at"] = "2020-01-02T00:00:00.123456Z"
        doc["author"]["account_created_at"] = "2019-01-01T00:00:00.001Z"
        doc["comments"][0]["created_at"] = "2020-01-01T01:00:00.500Z"
        doc["events"][0]["created_at"] = "2020-01-01T02:00:00.000001Z"
        line = json.dumps(doc, sort_keys=True, ensure_ascii=False) + "\n"
        path.write_text(line, encoding="utf-8")
        loaded, errors = load_corpus(path)
        assert errors == [] and loaded.issues[0].created_at.microsecond == 750_000
        again = tmp_path / "again.jsonl"
        save_corpus(loaded, again)
        assert again.read_text(encoding="utf-8") == line
        assert load_corpus(again) == (loaded, [])


class TestLayout:
    """Records are slotted, and one load shares equal names."""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "c.jsonl"
        t0 = datetime(2021, 3, 4, 5, 6, 7, tzinfo=timezone.utc)
        issues = [make_issue(id=f"i{n}", repo="acme/engine", labels=("bug", "ui-layer"),
                             login="alice-dev", closer="bob-ops", created_at=t0,
                             n_comments=2, n_events=2) for n in range(3)]
        save_corpus(corpus_of(*issues), path)
        return path

    def test_every_record_class_is_slotted(self, path):
        classes = [value for value in vars(corpus_module).values()
                   if dataclasses.is_dataclass(value) and value.__module__ == corpus_module.__name__]
        assert {"UserProfile", "CommentRecord", "EventRecord", "IssueRecord"} <= {
            cls.__name__ for cls in classes}
        assert [cls.__name__ for cls in classes if "__slots__" not in vars(cls)] == []
        loaded, _ = load_corpus(path)
        issue = loaded.issues[0]
        for record in (loaded, issue, issue.author, *issue.comments, *issue.events):
            assert not hasattr(record, "__dict__"), type(record).__name__

    def test_equal_names_are_one_object_within_a_load(self, path):
        first, *rest = load_corpus(path)[0].issues
        assert rest
        for other in rest:
            assert other.repo is first.repo and other.state is first.state
            assert all(a is b for a, b in zip(other.labels, first.labels, strict=True))
            assert other.author.login is first.author.login
            assert other.author.association is first.author.association
            assert other.closer_login is first.closer_login
            for a, b in zip(other.comments, first.comments, strict=True):
                assert a.author_login is b.author_login
            for a, b in zip(other.events, first.events, strict=True):
                assert a.kind is b.kind

    def test_two_loads_share_no_stamp_or_name(self, path):
        def shared(corpus):
            return {id(value) for issue in corpus.issues
                    for value in (issue.created_at, issue.closed_at, issue.repo, issue.state,
                                  issue.closer_login, *issue.labels, issue.author.login,
                                  issue.author.association, issue.author.account_created_at,
                                  *(c.author_login for c in issue.comments),
                                  *(c.created_at for c in issue.comments),
                                  *(e.kind for e in issue.events),
                                  *(e.created_at for e in issue.events))}
        one, two = load_corpus(path)[0], load_corpus(path)[0]
        assert one == two
        assert shared(one).isdisjoint(shared(two))

    def test_a_loaded_record_can_be_replaced(self, path):
        issue = load_corpus(path)[0].issues[0]
        hydrated = dataclasses.replace(issue, comments=(), hydration_failed=True,
                                       author=dataclasses.replace(issue.author, followers=9))
        assert hydrated.comments == () and hydrated.hydration_failed
        assert hydrated.author.followers == 9 and hydrated.author.login == issue.author.login
        assert dataclasses.replace(hydrated, comments=issue.comments, hydration_failed=False,
                                   author=issue.author) == issue


class TestInvariants:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate labels"):
            make_issue(labels=("Bug", "bug"))

    def test_created_after_closed_rejected(self):
        with pytest.raises(ValueError, match="created_at"):
            make_issue(closed_days=-5)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            corpus_of(make_issue(id="x"), make_issue(id="x"))


class TestFilter:
    def test_short_title_removed(self, maps):
        c = corpus_of(make_issue(id="short", title="ok"), make_issue(id="fine"))
        kept, report = filter_corpus(c, FilterConfig(), cluster_of=maps.clusters.cluster_of)
        assert [i.id for i in kept.issues] == ["fine"]
        assert report["removed_short_text"] == 1

    def test_duplicate_label_removed(self, maps):
        c = corpus_of(make_issue(labels=("duplicate",)))
        kept, report = filter_corpus(c, FilterConfig(), cluster_of=maps.clusters.cluster_of)
        assert len(kept) == 0
        assert report["removed_excluded_label"] == 1

    def test_cluster_level_exclusion(self, maps):
        """Exclusion goes by cluster, never by substring: "non-duplicate
        work" holds "duplicate" but belongs to no cluster."""
        c = corpus_of(make_issue(id="d", labels=("t-duplicate",)),
                      make_issue(id="n", labels=("not an issue",)),
                      make_issue(id="k", labels=("bug",)),
                      make_issue(id="x", labels=("non-duplicate work",)))
        kept, report = filter_corpus(c, FilterConfig(), cluster_of=maps.clusters.cluster_of)
        assert [i.id for i in kept.issues] == ["k", "x"]
        assert report["removed_excluded_label"] == 2

    def test_cluster_of_is_required(self):
        with pytest.raises(TypeError, match="cluster_of"):
            filter_corpus(corpus_of(make_issue()), FilterConfig())

    def test_non_english_removed(self, maps):
        c = corpus_of(make_issue(description="синтаксическая ошибка при разборе"))
        kept, report = filter_corpus(c, FilterConfig(), cluster_of=maps.clusters.cluster_of)
        assert len(kept) == 0
        assert report["removed_non_english"] == 1

    def test_idempotent(self, planted_corpus, maps):
        once, report1 = filter_corpus(planted_corpus, FilterConfig(),
                                      cluster_of=maps.clusters.cluster_of)
        twice, report2 = filter_corpus(once, FilterConfig(), cluster_of=maps.clusters.cluster_of)
        assert twice == once
        assert report2["total_removed"] == 0

