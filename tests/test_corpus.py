import json
from datetime import timedelta

import pytest

from issuetriage.corpus import (
    Corpus,
    CorpusError,
    FilterConfig,
    IssueRecord,
    filter_corpus,
    load_corpus,
    save_corpus,
)
from conftest import T0, make_issue


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
        kept, report = filter_corpus(c, cluster_of=maps.clusters.cluster_of)
        assert [i.id for i in kept.issues] == ["fine"]
        assert report["removed_short_text"] == 1

    def test_duplicate_label_removed(self, maps):
        c = corpus_of(make_issue(labels=("duplicate",)))
        kept, report = filter_corpus(c, cluster_of=maps.clusters.cluster_of)
        assert len(kept) == 0
        assert report["removed_excluded_label"] == 1

    def test_cluster_level_exclusion(self, maps):
        """Exclusion goes by cluster, never by substring: "non-duplicate
        work" holds "duplicate" but belongs to no cluster."""
        c = corpus_of(make_issue(id="d", labels=("t-duplicate",)),
                      make_issue(id="n", labels=("not an issue",)),
                      make_issue(id="k", labels=("bug",)),
                      make_issue(id="x", labels=("non-duplicate work",)))
        kept, report = filter_corpus(c, cluster_of=maps.clusters.cluster_of)
        assert [i.id for i in kept.issues] == ["k", "x"]
        assert report["removed_excluded_label"] == 2

    def test_cluster_of_is_required(self):
        with pytest.raises(TypeError, match="cluster_of"):
            filter_corpus(corpus_of(make_issue()))

    def test_non_english_removed(self, maps):
        c = corpus_of(make_issue(description="синтаксическая ошибка при разборе"))
        kept, report = filter_corpus(c, cluster_of=maps.clusters.cluster_of)
        assert len(kept) == 0
        assert report["removed_non_english"] == 1

    def test_idempotent(self, planted_corpus, maps):
        once, report1 = filter_corpus(planted_corpus, cluster_of=maps.clusters.cluster_of)
        twice, report2 = filter_corpus(once, cluster_of=maps.clusters.cluster_of)
        assert twice == once
        assert report2["total_removed"] == 0

