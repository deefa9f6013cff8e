"""Deterministic text pipeline for issue titles and descriptions.

Stage order is fixed: entity abstraction, cleaning, whitespace tokenization,
identifier splitting, stopword removal (negations and compulsory modals are
kept), suffix lemmatization. Abstract entities are rendered as opaque
``⟨NAME⟩`` tokens that survive every later stage unchanged.

The abstraction pattern table below is the single source of truth for what
gets replaced and in which order. Ordering constraints that matter:
code before URLs (fenced blocks may contain links), URLs before paths
(a URL contains slashes), dates/times before paths (slashed dates), and
emails before usernames (an email contains ``@``).

Each table entry also lists literals, at least one of which every match of
its pattern contains; a pattern runs only on text holding one of them. A
text without any (most issue text has no backtick, ``@``, ``/`` or ``(``)
cannot match, so the skip never changes the output. A new or edited pattern
needs literals with that property, and ``tests/test_textnorm.py`` checks it
on generated text.

``normalize_pipeline`` is memoized for the life of the process, keyed by
the text alone: each distinct text is tokenized once, and every later call
with it returns the same frozen ``TokenizedDoc``, whether the text is a
title or a description. Training reads each issue's title
and description several times (TF-IDF fit and transform, stage-one counts,
sentiment), and CV folds, tuning and project runs read the same issues
again, so most calls are lookups. This holds only while the kernel stays a
pure function of its arguments and of constant tables: a stage must not read
anything that can change at run time (settings, environment, mutable module
state), which is why the lemma tables below are read-only. The memo is not
bounded; it holds one result per distinct text the process has tokenized,
and those texts are already held as issue records. A test that times the
kernel must call ``normalize_pipeline.__wrapped__`` after
``_CHUNK_LEMMAS.clear()``, or it times lookups.

Below that memo, the kernel does its per-word work once per distinct word.
Abstraction runs on the whole text (its patterns span words and lines); the
abstracted text is then split on whitespace, and each chunk is looked up in
``_CHUNK_LEMMAS``, which maps a chunk to the tuple of lemmas that cleaning,
identifier splitting, stopword and digit removal and lemmatization make of
it (``_chunk_lemmas``). Chunk by chunk gives the same tokens as the whole
text would, because no cleaning pattern reaches across whitespace: the
surface, apostrophe, question-mark, punctuation and non-ASCII patterns match
no whitespace, a lookaround or ``\\b`` sees whitespace and a string edge
alike, and cleaning only ever adds whitespace. ``tests/test_textnorm.py``
checks this against a frozen copy of the whole-text ``clean``. The chunk
memo lives for the process and is not bounded. It cannot go stale, for the
same reason as the text memo: every table it reads is read-only. Equal
lemmas are one shared string in every doc that holds them. On a 2,000-issue
synthetic corpus (4,000 texts, 2,120 distinct), the distinct texts hold
152,198 chunks, of which 19,870 are distinct, and 123,024 tokens. Both memos
together retain 4.0 MiB, measured with ``tracemalloc``; the text memo alone
retained 8.0 MiB while each doc held its own copy of each lemma.
"""

from __future__ import annotations

import functools
import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from types import MappingProxyType
from typing import Mapping


class AbstractToken(Enum):
    CODE = "CODE"
    URL = "URL"
    EMAIL = "EMAIL"
    PATH = "PATH"
    DATE = "DATE"
    TIME = "TIME"
    USER = "USER"
    FUNC = "FUNC"
    MD = "MD"

    @property
    def surface(self) -> str:
        # U+27E8/U+27E9 brackets: non-ASCII on purpose, so no pattern and no
        # cleaning rule can ever touch a rendered token.
        return f"⟨{self.value}⟩"


_SURFACE_RE = re.compile(r"⟨[A-Z]+⟩")
_CONTROL_RE = re.compile(r"[\x00-\x1f]")

# EMAIL's parts. EMAIL and PATH start a match only where no earlier start in
# the same run of scanned characters could have: linear time. An EMAIL match
# that ends inside a run takes in the next one's local part, up to its last
# letter before a non-letter, where the next match (``_REST``) starts.
_LOCAL = "[A-Za-z0-9._%+-]"
_DOMAIN = r"@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
_REST = rf"(?<=[A-Za-z])[0-9._%+-]+[A-Za-z]*{_DOMAIN}"

# (token, pattern, literals) triples, applied in order. Inner character
# classes exclude the ⟨⟩ markers so a second application can never re-match
# around an already-abstracted span. Every match of a pattern contains at
# least one of its literals.
ABSTRACTION_TABLE: tuple[tuple[AbstractToken, re.Pattern, tuple[str, ...]], ...] = (
    (AbstractToken.CODE, re.compile(r"```.*?```", re.DOTALL), ("`",)),
    (AbstractToken.CODE, re.compile(r"`[^`\n⟨⟩]+`"), ("`",)),
    (AbstractToken.URL, re.compile(r"(?:https?://|www\.)[^\s<>()\"'`⟨⟩]+"), ("://", "www.")),
    (AbstractToken.EMAIL, re.compile(
        rf"(?:(?<!{_LOCAL}){_LOCAL}+{_DOMAIN}|{_REST})(?:{_LOCAL}*(?={_REST}))?"), ("@",)),
    (AbstractToken.DATE, re.compile(
        r"\b(?:\d{4}-\d{2}-\d{2}|\d{1,2}[/-]\d{1,2}[/-]\d{2,4}|\d{4}/\d{1,2}/\d{1,2})\b"),
     ("-", "/")),
    (AbstractToken.TIME, re.compile(
        r"\b\d{1,2}:\d{2}(?::\d{2})?(?:\s?[ap]\.?m\.?)?\b", re.IGNORECASE), (":",)),
    (AbstractToken.PATH, re.compile(
        r"(?:~|(?<![\w.+-])|(?=/))[\w.+-]*(?:/[\w.+-]+){2,}/?|\b[A-Za-z]:\\[\w.\\+-]+"),
     ("/", ":\\")),
    (AbstractToken.USER, re.compile(
        r"(?<![\w@])@[A-Za-z0-9](?:[A-Za-z0-9-]*[A-Za-z0-9])?\b"), ("@",)),
    (AbstractToken.FUNC, re.compile(r"\b[A-Za-z_][\w.]*\([^()\n⟨⟩]*\)"), ("(",)),
    (AbstractToken.MD, re.compile(
        r"(?m)^[ \t]{0,3}#{1,6}(?=\s)"          # heading marker
        r"|^[ \t]*(?:-{3,}|\*{3,}|_{3,})[ \t]*$"  # horizontal rule
        r"|^[ \t]*>+(?=\s)"                      # blockquote marker
        r"|^[ \t]*[-*+](?=\s)"                   # bullet marker
        r"|\*\*+|__+|~~+"                        # bold / strikethrough
        r"|\[[ xX]\](?=\s|$)"),                  # task-list checkbox
     ("#", "-", "*", "_", ">", "+", "~", "[")),
)

RETAINED_WORDS = frozenset({"not", "no", "never", "must", "should", "cannot"})


def _abstract(text: str) -> tuple[str, Counter[AbstractToken]]:
    """The abstracted text and how many spans each token replaced; a pattern
    whose literals are all absent from the current text is skipped."""
    counts: Counter[AbstractToken] = Counter()
    for token, pattern, literals in ABSTRACTION_TABLE:
        n = 0
        if any(literal in text for literal in literals):
            text, n = pattern.subn(token.surface, text)
        counts[token] += n
    return text, counts


_APOSTROPHE_RE = re.compile(r"(?<=[A-Za-z])['’](?=[A-Za-z])")
_QUESTION_RE = re.compile(r"\?+")
_PUNCT_RE = re.compile(r"[^\w\s?⟨⟩]|_")
_LONE_DIGITS_RE = re.compile(r"\b\d+\b")
_NON_ASCII_RE = re.compile(r"[^\x20-\x7e\s⟨⟩]")


def clean(text: str) -> str:
    """Strip punctuation (question marks survive as their own token),
    standalone digit runs, and non-ASCII characters. Casing is preserved
    because identifier splitting still needs it; abstract tokens pass
    through untouched."""
    parts: list[str] = []
    pos = 0
    for m in _SURFACE_RE.finditer(text):
        parts.append(_clean_segment(text[pos:m.start()]))
        parts.append(m.group(0))
        pos = m.end()
    parts.append(_clean_segment(text[pos:]))
    return " ".join(p for p in parts if p)


def _clean_segment(segment: str) -> str:
    segment = _NON_ASCII_RE.sub("", segment)
    segment = _APOSTROPHE_RE.sub("", segment)
    segment = _QUESTION_RE.sub(" ? ", segment)
    segment = _PUNCT_RE.sub(" ", segment)
    segment = _LONE_DIGITS_RE.sub(" ", segment)
    return " ".join(segment.split())


_IDENT_PART_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z][a-z0-9]*|[a-z0-9]+")


def split_identifiers(token: str) -> list[str]:
    """Split snake_case, camelCase, PascalCase and acronym boundaries;
    parts come back lowercased."""
    parts: list[str] = []
    for piece in token.split("_"):
        parts.extend(m.group(0).lower() for m in _IDENT_PART_RE.finditer(piece))
    return parts


# ---------------------------------------------------------------------------
# Stopwords and lemmas

def _load_wordlist(name: str) -> list[str]:
    raw = resources.files("issuetriage.data").joinpath(name).read_text(encoding="utf-8")
    out = []
    for line in raw.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


_STOPWORDS: frozenset[str] | None = None


def stopwords() -> frozenset[str]:
    global _STOPWORDS
    if _STOPWORDS is None:
        _STOPWORDS = frozenset(_load_wordlist("stopwords.txt")) - RETAINED_WORDS
    return _STOPWORDS


# Irregular and e-dropping forms the suffix rules cannot recover. Read-only,
# like _DOUBLED_OK, so a memoized token list cannot go stale.
_LEMMA_EXCEPTIONS = MappingProxyType({
    "parsing": "parse", "parsed": "parse",
    "using": "use", "used": "use",
    "making": "make", "made": "make",
    "taking": "take", "taken": "take", "took": "take",
    "coming": "come", "came": "come",
    "giving": "give", "given": "give", "gave": "give",
    "having": "have", "has": "have", "had": "have",
    "creating": "create", "created": "create",
    "updating": "update", "updated": "update",
    "removing": "remove", "removed": "remove",
    "causing": "cause", "caused": "cause",
    "closing": "close", "closed": "close",
    "managing": "manage", "managed": "manage",
    "writing": "write", "written": "write", "wrote": "write",
    "saving": "save", "saved": "save",
    "moving": "move", "moved": "move",
    "changing": "change", "changed": "change",
    "merging": "merge", "merged": "merge",
    "serving": "serve", "served": "serve",
    "providing": "provide", "provided": "provide",
    "improving": "improve", "improved": "improve",
    "releasing": "release", "released": "release",
    "handling": "handle", "handled": "handle",
    "enabling": "enable", "enabled": "enable",
    "disabling": "disable", "disabled": "disable",
    "configuring": "configure", "configured": "configure",
    "comparing": "compare", "compared": "compare",
    "resolving": "resolve", "resolved": "resolve",
    "upgrading": "upgrade", "upgraded": "upgrade",
    "ran": "run", "running": "run",
    "went": "go", "gone": "go", "going": "go",
    "getting": "get", "got": "get",
    "broke": "break", "broken": "break", "breaking": "break",
    "built": "build",
    "said": "say", "saw": "see", "seen": "see",
    "done": "do", "did": "do", "doing": "do",
    "being": "be", "was": "be", "were": "be",
    "children": "child",
    "found": "find",
    "threw": "throw", "thrown": "throw",
})

_DOUBLED_OK = frozenset("lsz")  # keep ll / ss / zz (fell, miss, buzz)


def lemmatize(token: str) -> str:
    """Suffix-stripping lemmatizer for plural, -ing, -ed and -ly forms."""
    word = _LEMMA_EXCEPTIONS.get(token)
    if word is not None:
        return word
    if token.endswith("ies") and len(token) > 4:
        return token[:-3] + "y"
    if token.endswith("sses"):
        return token[:-2]
    if len(token) > 4 and token.endswith(("ches", "shes", "xes", "zes", "oes")):
        return token[:-2]
    if token.endswith("s") and not token.endswith(("ss", "us", "is")) and len(token) > 3:
        return token[:-1]
    if token.endswith("ing") and len(token) >= 6:
        return _undouble(token[:-3])
    if token.endswith("ed") and len(token) >= 5:
        return _undouble(token[:-2])
    if token.endswith("ly") and len(token) >= 5:
        return token[:-2]
    return token


def _undouble(stem: str) -> str:
    if len(stem) >= 2 and stem[-1] == stem[-2] and stem[-1] not in _DOUBLED_OK:
        return stem[:-1]
    return stem


# ---------------------------------------------------------------------------
# Full pipeline

@dataclass(frozen=True)
class TokenizedDoc:
    tokens: tuple[str, ...]
    # spans each abstraction token replaced in the raw text, zero counts left
    # out: read off the pass that tokenized it (None on a hand-built doc);
    # not part of equality or the hash
    abstractions: Mapping[AbstractToken, int] | None = field(
        default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        # one pass over the whole tuple; only a failure walks it token by
        # token, so the first bad token is the one named. A token character
        # below "!" is refused, so every one sorts after the " " that joins
        # an n-gram (``features.fit_tfidf`` relies on it)
        tokens = list(self.tokens)
        joined = " ".join(tokens)
        if (joined.split() == tokens and not _CONTROL_RE.search(joined)
                and not any(map(str.isdigit, tokens))):
            return
        for tok in tokens:
            if not tok or any(ch.isspace() or ch < "!" for ch in tok):
                raise ValueError(f"bad token {tok!r}")
            if tok.isdigit():
                raise ValueError(f"digits-only token {tok!r}")

    def __iter__(self):
        return iter(self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)


def is_abstract(token: str) -> bool:
    return bool(_SURFACE_RE.fullmatch(token))


# abstracted whitespace chunk -> its lemmas; see the module docstring
_CHUNK_LEMMAS: dict[str, tuple[str, ...]] = {}


def _chunk_lemmas(chunk: str) -> tuple[str, ...]:
    """Every stage after abstraction, on one whitespace-free chunk of
    abstracted text: cleaning, identifier splitting, stopword and digit
    removal, lemmatization."""
    stops = stopwords()
    out: list[str] = []
    # a plain lowercase ASCII word is what cleaning returns for it
    plain = chunk.isascii() and chunk.isalnum() and chunk.islower()
    for raw_tok in [chunk] if plain else clean(chunk).split():
        if raw_tok.isascii() and raw_tok.isalnum() and raw_tok.islower():
            parts = [raw_tok]  # what split_identifiers returns for it
        elif is_abstract(raw_tok) or raw_tok == "?":
            out.append(raw_tok)
            continue
        else:
            parts = split_identifiers(raw_tok)
        for part in parts:
            if not part or part.isdigit():
                continue
            if part in stops and part not in RETAINED_WORDS:
                continue
            lemma = lemmatize(part)
            if lemma and not lemma.isdigit():
                out.append(lemma)
    return tuple(out)


@functools.lru_cache(maxsize=None)
def normalize_pipeline(text: str) -> TokenizedDoc:
    """Run every stage on ``text``; memoized per text, and below that per
    whitespace chunk (see the module docstring).
    The result is frozen and shared by all callers, and carries the
    abstraction counts of the same pass (``_abstract(text)[1]``, zeros
    left out). A new stage must be a pure function of the text and of
    constant tables. Time the kernel through ``normalize_pipeline.__wrapped__``
    after ``_CHUNK_LEMMAS.clear()``."""
    abstracted, counts = _abstract(text)
    memo = _CHUNK_LEMMAS
    out: list[str] = []
    for chunk in abstracted.split():
        lemmas = memo.get(chunk)
        if lemmas is None:
            lemmas = memo[chunk] = _chunk_lemmas(chunk)
        out += lemmas
    return TokenizedDoc(tokens=tuple(out),
                        abstractions=MappingProxyType({t: n for t, n in counts.items() if n}))
