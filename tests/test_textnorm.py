import dataclasses
import math
import random
import re
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from testkit import FIXTURES
from issuetriage import textnorm
from issuetriage.evalkit import ModelSpec, cross_validate, labeled_issues, train_pipeline
from issuetriage.features import DESC_MAX_FEATURES, TITLE_MAX_FEATURES, fit_feature_pipeline
from issuetriage.textnorm import (
    RETAINED_WORDS,
    AbstractToken,
    TokenizedDoc,
    _abstract,
    clean,
    is_abstract,
    lemmatize,
    normalize_pipeline,
    split_identifiers,
    stopwords,
)


class TestClean:
    @pytest.mark.parametrize("text,expected", [
        ("Fix this, please!!!", "Fix this please"),
        ("how does it work?", "how does it work ?"),
        ("", ""),
        ("no 123 digits", "no digits"),
        ("keep v2 and py3", "keep v2 and py3"),
        ("don't can't", "dont cant"),
        ("naïve café", "nave caf"),
        ("a??b", "a ? b"),
    ])
    def test_examples(self, text, expected):
        assert clean(text) == expected

    def test_preserves_abstract_tokens(self):
        assert clean("see ⟨URL⟩ now!") == "see ⟨URL⟩ now"
        assert clean("x⟨CODE⟩y") == "x ⟨CODE⟩ y"


class TestAbstraction:
    @pytest.mark.parametrize("text,expected", [
        ("see https://a.b/c for info", "see ⟨URL⟩ for info"),
        ("```int x=0;```", "⟨CODE⟩"),
        ("⟨URL⟩", "⟨URL⟩"),
        ("mail root@host.io now", "mail ⟨EMAIL⟩ now"),
        ("at 10:30:05 pm", "at ⟨TIME⟩"),
        ("on 2021-04-03 or 3/4/21", "on ⟨DATE⟩ or ⟨DATE⟩"),
        ("run /usr/local/bin/app", "run ⟨PATH⟩"),
        ("cc @dev-one", "cc ⟨USER⟩"),
        ("call setup(1, 2)", "call ⟨FUNC⟩"),
        ("`x` and `y`", "⟨CODE⟩ and ⟨CODE⟩"),
    ])
    def test_examples(self, text, expected):
        assert _abstract(text)[0] == expected

    def test_code_before_url(self):
        assert _abstract("```see https://x.y```")[0] == "⟨CODE⟩"

    def test_email_before_user(self):
        out = _abstract("write a@b.com or @carol")[0]
        assert out == "write ⟨EMAIL⟩ or ⟨USER⟩"

    def test_url_inside_call_consumed_first(self):
        # the URL is abstracted before the call pattern can swallow it
        assert _abstract("fetch(https://x.y/z)")[0] == "fetch(⟨URL⟩)"

    def test_idempotent_on_random_texts(self):
        rng = random.Random(99)
        atoms = [
            "plain", "words", "here", "camelCase", "snake_case", "x1",
            "https://example.com/a?b=1", "www.site.org/page", "a@b.co",
            "@user-name", "/var/log/app/err.log", "C:\\Temp\\x.txt",
            "2021-12-31", "12/31/21", "23:59", "9:05 am", "f(x, y)",
            "`inline`", "```block\ncode```", "# title", "**bold**", "- item",
            "> quote", "~~gone~~", "[x]", "???", "...", "<tag>", "{json: 1}",
            "⟨URL⟩", "⟨CODE⟩",
        ]
        for _ in range(500):
            text = " ".join(rng.choice(atoms) for _ in range(rng.randint(1, 12)))
            once = _abstract(text)[0]
            assert _abstract(once)[0] == once

    def test_surface_forms_never_match_patterns(self):
        for token in AbstractToken:
            assert _abstract(token.surface)[0] == token.surface


class TestSplitIdentifiers:
    @pytest.mark.parametrize("token,expected", [
        ("camelCase", ["camel", "case"]),
        ("parse_http_request", ["parse", "http", "request"]),
        ("HTTPServer", ["http", "server"]),
        ("PascalCase", ["pascal", "case"]),
        ("simple", ["simple"]),
        ("parseHTTPRequest", ["parse", "http", "request"]),
        ("__dunder__", ["dunder"]),
        ("utf8", ["utf8"]),
    ])
    def test_examples(self, token, expected):
        assert split_identifiers(token) == expected


class TestLemmatize:
    @pytest.mark.parametrize("token,expected", [
        ("working", "work"),
        ("crashed", "crash"),
        ("parsing", "parse"),
        ("labels", "label"),
        ("stories", "story"),
        ("crashes", "crash"),
        ("quickly", "quick"),
        ("stopped", "stop"),
        ("miss", "miss"),
        ("status", "status"),
        ("analysis", "analysis"),  # -is guard: not a plural
        ("?", "?"),
    ])
    def test_examples(self, token, expected):
        assert lemmatize(token) == expected


class TestPipeline:
    @pytest.mark.parametrize("text,expected", [
        ("NOT working since update", ("not", "work", "since", "update")),
        ("the a an", ()),
        ("Crashed when parsing https://x.y", ("crash", "when", "parse", "⟨URL⟩")),
        ("", ()),
        ("MUST fix 42 bugs", ("must", "fix", "bug")),
    ])
    def test_examples(self, text, expected):
        assert normalize_pipeline(text).tokens == expected

    def test_determinism(self):
        text = "Retry failed uploads via retryUpload() at 10:00"
        assert normalize_pipeline(text) == normalize_pipeline(text)

    def test_no_stopword_output(self, planted_corpus):
        stops = stopwords()
        for issue in planted_corpus.issues[:50]:
            doc = normalize_pipeline(issue.title + " " + issue.description)
            for tok in doc.tokens:
                assert tok not in stops or tok in RETAINED_WORDS

    def test_vocabulary_reduction_on_fixture(self, planted_corpus):
        before, after = set(), set()
        for issue in planted_corpus.issues:
            text = issue.title + " " + issue.description
            before.update(text.split())
            after.update(normalize_pipeline(text).tokens)
        assert len(after) <= len(before)

    def test_goldens(self):
        inputs = (FIXTURES / "goldens" / "tokenizer_input.txt").read_text(
            encoding="utf-8").splitlines()
        expected = (FIXTURES / "goldens" / "tokenizer_expected.txt").read_text(
            encoding="utf-8").splitlines()
        assert len(inputs) == len(expected) == 30

        def unescape(s: str) -> str:
            out, i = [], 0
            while i < len(s):
                if s[i] == "\\" and i + 1 < len(s) and s[i + 1] in "\\nt":
                    out.append({"\\": "\\", "n": "\n", "t": "\t"}[s[i + 1]])
                    i += 2
                else:
                    out.append(s[i])
                    i += 1
            return "".join(out)

        for lineno, (raw, want) in enumerate(zip(inputs, expected), 1):
            got = " ".join(normalize_pipeline(unescape(raw)).tokens)
            assert got == want, f"golden line {lineno}: {raw!r} -> {got!r} != {want!r}"


class TestTokenizedDoc:
    def test_rejects_empty_token(self):
        with pytest.raises(ValueError):
            TokenizedDoc(tokens=("ok", ""))

    def test_rejects_whitespace(self):
        with pytest.raises(ValueError):
            TokenizedDoc(tokens=("a b",))

    def test_rejects_digit_only(self):
        with pytest.raises(ValueError):
            TokenizedDoc(tokens=("123",))


# ---------------------------------------------------------------------------
# The kernel without literal gates or the fast token path, kept as the oracle
# that the faster code must match exactly.

# EMAIL and PATH as they were before each started a match only where no
# earlier start in its run could have: they try every position, in time
# quadratic in a run's length, and are the oracle of the table's two
REFERENCE_PATTERNS = {
    AbstractToken.EMAIL: re.compile(r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"),
    AbstractToken.PATH: re.compile(
        r"(?:~|\.{1,2})?[\w.+-]*(?:/[\w.+-]+){2,}/?|\b[A-Za-z]:\\[\w.\\+-]+"),
}


def reference_abstract(text: str) -> tuple[str, Counter]:
    counts: Counter = Counter()
    for token, pattern, _ in textnorm.ABSTRACTION_TABLE:
        text, n = REFERENCE_PATTERNS.get(token, pattern).subn(token.surface, text)
        counts[token] += n
    return text, counts


# ``clean`` as it was before the kernel memoized whitespace chunks: it runs
# on the whole abstracted text, and its patterns are frozen here, so the
# oracle does not follow the code it checks.
REFERENCE_SURFACE_RE = re.compile(r"⟨[A-Z]+⟩")
REFERENCE_CLEAN_SUBS = (
    (re.compile(r"[^\x20-\x7e\s⟨⟩]"), ""),
    (re.compile(r"(?<=[A-Za-z])['’](?=[A-Za-z])"), ""),
    (re.compile(r"\?+"), " ? "),
    (re.compile(r"[^\w\s?⟨⟩]|_"), " "),
    (re.compile(r"\b\d+\b"), " "),
)


def reference_clean(text: str) -> str:
    parts = []
    pos = 0
    for m in REFERENCE_SURFACE_RE.finditer(text):
        parts.append(reference_clean_segment(text[pos:m.start()]))
        parts.append(m.group(0))
        pos = m.end()
    parts.append(reference_clean_segment(text[pos:]))
    return " ".join(p for p in parts if p)


def reference_clean_segment(segment: str) -> str:
    for pattern, repl in REFERENCE_CLEAN_SUBS:
        segment = pattern.sub(repl, segment)
    return " ".join(segment.split())


def reference_normalize(text: str) -> tuple[str, ...]:
    stops = stopwords()
    out = []
    for raw_tok in reference_clean(reference_abstract(text)[0]).split():
        if is_abstract(raw_tok) or raw_tok == "?":
            out.append(raw_tok)
            continue
        for part in split_identifiers(raw_tok):
            if not part or part.isdigit():
                continue
            if part in stops and part not in RETAINED_WORDS:
                continue
            lemma = lemmatize(part)
            if lemma and not lemma.isdigit():
                out.append(lemma)
    return tuple(out)


def reference_token_check(tokens) -> None:
    for tok in tokens:
        if not tok or any(ch.isspace() or ch < "!" for ch in tok):
            raise ValueError(f"bad token {tok!r}")
        if tok.isdigit():
            raise ValueError(f"digits-only token {tok!r}")


GATE_LITERALS = sorted({lit for _, _, lits in textnorm.ABSTRACTION_TABLE for lit in lits})
FRAGMENTS = [
    "https://example.com/a?b=1", "http://x.y/z", "www.site.org/page", "a@b.co",
    "root@host.io", "@user-name", "@carol", "/var/log/app/err.log", "a/b/c", "~/x/y",
    "../a/b/", "C:\\x", "C:\\Temp\\x.txt", "2021-12-31", "12/31/21", "2021/4/3", "23:59",
    "9:05 am", "10:30:05 P.M.", "f(x)", "setup(1, 2)", "g()", "`inline`",
    "```block\ncode```", "# title", "## h2", "**bold**", "__init__", "~~gone~~",
    "- item", "* item", "+ item", "> quote", "---", "***", "[x]", "[ ]",
    "camelCase", "parseHTTPRequest", "snake_case", "UPPER", "HTTPServer", "v2", "py3",
    "42", "2021", "utf8", "qtek", "⟨", "⟩", "⟨URL⟩", "naïve", "café", "ÀB", "ﬁle", "²",
    "don't", "it’s", "???", "...", "plain", "words",
    # a path after a word, a "~" or a "..", and e-mails that end inside a run
    "~", "..", "a~/b/c", "x/../y/z", "src/a.b/c", "C:\\xa/b/c", "a@b.co-", "1x@y.zz",
    "b.cc1x@y.zz",
]
TEXTS = st.lists(
    st.tuples(st.one_of(st.sampled_from(GATE_LITERALS + FRAGMENTS), st.text(max_size=4)),
              st.sampled_from(["", " ", "\n", "\t"])),
    max_size=16).map(lambda parts: "".join(frag + sep for frag, sep in parts))


def assert_matches_reference(text: str) -> None:
    want_text, want_counts = reference_abstract(text)
    assert _abstract(text)[0] == want_text
    assert list(_abstract(text)[1].items()) == list(want_counts.items())
    doc = normalize_pipeline(text)
    assert doc.tokens == reference_normalize(text)
    assert dict(doc.abstractions) == {t: n for t, n in want_counts.items() if n}


def assert_gates_sound(text: str) -> None:
    """Every match of each pattern, on the text as that pattern sees it,
    contains one of the pattern's literals."""
    for token, pattern, literals in textnorm.ABSTRACTION_TABLE:
        for m in pattern.finditer(text):
            assert any(lit in m.group(0) for lit in literals), (token, m.group(0))
        text = pattern.sub(token.surface, text)


class TestKernelMatchesReference:
    def test_planted_fixture(self, planted_corpus):
        for issue in planted_corpus.issues:
            for text in (issue.title, issue.description):
                assert_matches_reference(text)
                assert_gates_sound(text)

    @settings(max_examples=400, deadline=None)
    @given(TEXTS)
    @example("qtek⟩")
    @example("C:\\x 9:05 am a/b/c `x` f(y) @u a@b.co www.x ## t")
    # surfaces glued to words, from the raw text and from abstraction
    @example("x⟨URL⟩y a⟨CODE⟩⟨PATH⟩b ⟨USER⟩⟨")
    @example("xhttps://a.b/c,y a`code`b?c f(x)g")
    # question-mark runs inside words
    @example("wh??at a?b?c ?x x? ??")
    # apostrophes at chunk edges and between letters
    @example("'ab ab' ab'' 'ab' don't it’s ’t a'1 1'a")
    # digit runs next to punctuation
    @example("a.22 22.b v1.22.b 3-4 x_22 22_x 1,000 (7)")
    # separators other than the ASCII space
    @example("a\xa0b c\u3000d e\x1cf\x1dg\x1eh\x1fi\u2028j \x85k")
    # non-ASCII letters and digits
    @example("naïve café ÀBc ﬁle x²y ٣ Straße")
    # camelCase, PascalCase, acronyms and snake_case
    @example("parseHTTPRequest snake_case_word XMLHttpRequest get_URL2 __init__")
    # paths after a word, a "~" or a "..", and after a drive-letter path
    @example("a~/b/c x/../y/z src/a.b/c C:\\xa/b/c ~./a/b a..b/c/d")
    # e-mails that end inside a run, some followed by another e-mail there
    @example("a@b.co-x@y.zz@q.rr a@b.co42root@host.io q@w.ee@a.bc x@a.bc1a1a2b@c.de")
    def test_generated_text(self, text):
        assert_matches_reference(text)
        assert_gates_sound(text)

    @settings(max_examples=200, deadline=None)
    @given(TEXTS, TEXTS)
    @example("a?b", "a?b ?")
    @example("x⟨URL⟩y", "⟨URL⟩y x⟨URL⟩")
    @example("camelCase HTTPServer", "camelcase httpserver")
    def test_warm_chunk_memo(self, text, other):
        """The kernel run with its chunk memo filled by other texts first
        (another text, this one's chunks in reverse order, and this one in
        other cases) gives the reference tokens, as it does from an empty
        memo."""
        kernel = normalize_pipeline.__wrapped__
        textnorm._CHUNK_LEMMAS.clear()
        assert kernel(text).tokens == reference_normalize(text)
        textnorm._CHUNK_LEMMAS.clear()
        for warm in (other, " ".join(reversed(text.split())), text.lower(), text.swapcase()):
            kernel(warm)
        assert kernel(text).tokens == reference_normalize(text)

    def test_stray_bracket_is_not_a_fast_path_token(self):
        # "qtek⟩".islower() is true, but the bracket is not ASCII, so the
        # token goes through split_identifiers, which drops it
        assert normalize_pipeline("qtek⟩").tokens == ("qtek",) == reference_normalize("qtek⟩")

    @settings(max_examples=2000, deadline=None)
    @given(st.text(alphabet="aZé1._%+-@~/\\:C \n", max_size=40))
    @example("a@b.co1a@b.co1x@a.bc-1x2y@c.de")
    def test_anchored_patterns_match_as_the_unanchored_ones(self, text):
        for token, pattern, _ in textnorm.ABSTRACTION_TABLE:
            if token in REFERENCE_PATTERNS:
                assert pattern.subn("S", text) == REFERENCE_PATTERNS[token].subn("S", text)

    def test_fragments_reach_every_pattern(self):
        for token, pattern, _ in textnorm.ABSTRACTION_TABLE:
            assert any(pattern.search(frag) for frag in FRAGMENTS), token


class TestTokenCheckMatchesReference:
    @pytest.mark.parametrize("tokens,message", [
        (("ok", "a b", ""), "bad token 'a b'"),
        (("ok", "", "a b"), "bad token ''"),
        (("12", "a b"), "digits-only token '12'"),
        (("x\ty", "7"), "bad token 'x\\ty'"),
        (("ok", "a\x01", "12"), "bad token 'a\\x01'"),
    ])
    def test_first_bad_token_is_named(self, tokens, message):
        with pytest.raises(ValueError) as exc:
            TokenizedDoc(tokens=tokens)
        assert str(exc.value) == message

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(alphabet="ab1٣ \t\n\u3000\x1c\x01!", max_size=3), max_size=5))
    def test_generated_tokens(self, tokens):
        try:
            reference_token_check(tokens)
            want = None
        except ValueError as exc:
            want = str(exc)
        try:
            TokenizedDoc(tokens=tuple(tokens))
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == want


# ---------------------------------------------------------------------------
# The memo: each distinct text is tokenized once per process.

class TestMemo:
    SPEC = ModelSpec(classifier="knn")

    def test_each_text_tokenized_once(self, planted_corpus, maps):
        issues, _ = labeled_issues(planted_corpus.issues, maps)
        distinct = {i.title for i in issues} | {i.description for i in issues}
        normalize_pipeline.cache_clear()
        train_pipeline(issues, self.SPEC, maps)
        misses = normalize_pipeline.cache_info().misses
        assert misses == len(distinct)
        cross_validate(planted_corpus, self.SPEC, 3, maps)
        assert normalize_pipeline.cache_info().misses == misses

    def assert_cached_matches_kernel(self, text: str) -> None:
        first = normalize_pipeline(text)
        assert normalize_pipeline(text) is first
        assert first == normalize_pipeline.__wrapped__(text)

    def test_cached_matches_kernel_on_fixture(self, planted_corpus):
        for issue in planted_corpus.issues:
            self.assert_cached_matches_kernel(issue.title)
            self.assert_cached_matches_kernel(issue.description)

    @settings(max_examples=200, deadline=None)
    @given(TEXTS)
    def test_cached_matches_kernel_on_generated_text(self, text):
        self.assert_cached_matches_kernel(text)

    def test_title_and_description_of_one_text_share_a_doc(self, planted_corpus, maps):
        issue = planted_corpus.issues[0]
        issue = dataclasses.replace(issue, description=issue.title)
        pipeline = fit_feature_pipeline([issue], maps, TITLE_MAX_FEATURES, DESC_MAX_FEATURES)
        (title_doc,), (desc_doc,) = pipeline.tfidf_title.memo, pipeline.tfidf_desc.memo
        assert title_doc is desc_doc is normalize_pipeline(issue.title)

    def test_result_is_frozen(self):
        doc = normalize_pipeline("Parser fails on nested input")
        with pytest.raises(dataclasses.FrozenInstanceError):
            doc.tokens = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            doc.abstractions = None

    def test_kernel_tables_are_read_only(self):
        with pytest.raises(TypeError):
            textnorm._LEMMA_EXCEPTIONS["parsing"] = "parsing"
        with pytest.raises(TypeError):
            del textnorm._LEMMA_EXCEPTIONS["parsing"]
        with pytest.raises(AttributeError):
            textnorm._DOUBLED_OK.add("t")
        assert lemmatize("parsing") == "parse"
        assert lemmatize("stopped") == "stop"


# Hostile bodies of n characters: long runs of what the patterns scan, plain
# and with a step inside every few characters, each ending in (or repeating)
# what a pattern looks for next.
HOSTILE = {
    "run-slash": lambda n: "a" * n + "/",
    "slash-runs": lambda n: ("/" + "a" * 50) * (n // 51),
    "run-at": lambda n: "x " + "a" * n + "@",
    "steps-at": lambda n: "a1" * (n // 2) + "@",
    "emails-in-a-run": lambda n: "a@b.co1" * (n // 7),
    "email-then-steps": lambda n: "x@a.bc" + "1a" * (n // 2),
    "dotted-words-paren": lambda n: "a." * (n // 2) + "(",
    "backtick-run": lambda n: "`" + "a" * n,
    "fence-run": lambda n: "```" + "a" * n,
    "user-dashes": lambda n: "@a" + "-" * n,
    "digits-colon": lambda n: "1" * n + ":",
    "url-run": lambda n: "http://" + "a" * n,
    "drive-run": lambda n: "C:\\" + "a" * n,
    "dashes": lambda n: "-" * n + "x",
    "spaces-hash": lambda n: " " * n + "#",
}
# the one body a pattern is known to take quadratic time on (ROADMAP item 2)
QUADRATIC = {("FUNC", "dotted-words-paren")}


def _seconds(pattern: re.Pattern, text: str, calls: int) -> float:
    """The best of 3 runs of ``calls`` substitutions of ``pattern`` in ``text``."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(calls):
            pattern.subn("S", text)
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize("entry,body", [
    pytest.param(i, body, id=f"{i}-{token.name}-{body}",
                 marks=[pytest.mark.xfail(run=False, reason="FUNC tries every word after a dot")]
                 if (token.name, body) in QUADRATIC else [])
    for i, (token, _, _) in enumerate(textnorm.ABSTRACTION_TABLE) for body in HOSTILE])
def test_time_grows_linearly_on_hostile_text(entry, body):
    """Each table pattern, fed a hostile body of 16k, 32k and 64k characters
    (not gated by its literals), takes at most 2.5 times as long on 32k as on
    16k, each timed as the best of 3 runs of enough calls to last 3 ms."""
    token, pattern, _ = textnorm.ABSTRACTION_TABLE[entry]
    pattern.subn("S", HOSTILE[body](2 ** 16))
    calls = max(1, math.ceil(0.003 / max(_seconds(pattern, HOSTILE[body](2 ** 14), 1), 1e-9)))
    for _ in range(3):  # a busy machine can slow one pair; quadratic time slows every pair 4x
        small, large = (_seconds(pattern, HOSTILE[body](2 ** k), calls) for k in (14, 15))
        if large <= 2.5 * small:
            return
    pytest.fail(f"{token.name} on {body}: {small:.5f} s at 16k, {large:.5f} s at 32k")
