"""Lexicon-based sentiment scoring with dual-scale and polarity outputs.

Two scoring views over the same lexicon: a dual integer scale (positivity
in [1, 5], negativity in [-5, -1], the endpoints nearest zero meaning "no
sentiment") and a real-valued (polarity, subjectivity) pair with polarity
in [-1, 1] and subjectivity in [0, 1].

A negator within the two tokens before a scored term flips its sign; an
intensifier immediately before it scales its strength. Scores are computed
on pipeline output, so lexicon entries are lemma forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

from .textnorm import TokenizedDoc

NEGATION_WINDOW = 2


@dataclass(frozen=True)
class SentimentScores:
    positivity: int
    negativity: int
    polarity: float
    subjectivity: float

    def __post_init__(self) -> None:
        if not 1 <= self.positivity <= 5:
            raise ValueError(f"positivity {self.positivity} outside [1, 5]")
        if not -5 <= self.negativity <= -1:
            raise ValueError(f"negativity {self.negativity} outside [-5, -1]")
        if not -1.0 <= self.polarity <= 1.0:
            raise ValueError(f"polarity {self.polarity} outside [-1, 1]")
        if not 0.0 <= self.subjectivity <= 1.0:
            raise ValueError(f"subjectivity {self.subjectivity} outside [0, 1]")


@dataclass(frozen=True)
class Lexicon:
    terms: dict[str, tuple[int, float]]  # term -> (strength, subjectivity weight)
    negators: frozenset[str]
    intensifiers: dict[str, float]
    # score_all's results, per document, for the lexicon's life
    scores: dict[TokenizedDoc, SentimentScores] = field(
        default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        overlap = self.negators & self.terms.keys()
        if overlap:
            raise ValueError(f"terms listed as both negator and scored: {sorted(overlap)}")
        for term, (strength, subj) in self.terms.items():
            if strength == 0 or not -5 <= strength <= 5:
                raise ValueError(f"{term}: strength {strength} outside [-5,-1] u [1,5]")
            if not 0.0 <= subj <= 1.0:
                raise ValueError(f"{term}: subjectivity weight {subj} outside [0, 1]")


def load_lexicon() -> Lexicon:
    raw = resources.files("issuetriage.data").joinpath("lexicon.txt").read_text(encoding="utf-8")
    terms: dict[str, tuple[int, float]] = {}
    negators: set[str] = set()
    intensifiers: dict[str, float] = {}
    section = "terms"
    for line in raw.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            continue
        fields = [f.strip() for f in line.split(",")]
        if section == "terms":
            terms[fields[0]] = (int(fields[1]), float(fields[2]))
        elif section == "negators":
            negators.add(fields[0])
        elif section == "intensifiers":
            intensifiers[fields[0]] = float(fields[1])
        else:
            raise ValueError(f"unknown lexicon section {section!r}")
    return Lexicon(terms, frozenset(negators), intensifiers)


def _effective_strengths(doc: TokenizedDoc, lex: Lexicon) -> list[tuple[float, float]]:
    """(signed strength, subjectivity weight) per scored term, after applying
    intensifiers and negation flips."""
    tokens = list(doc.tokens)
    scored: list[tuple[float, float]] = []
    for i, tok in enumerate(tokens):
        entry = lex.terms.get(tok)
        if entry is None:
            continue
        strength, subj = entry
        value = float(strength)
        if i >= 1:
            mult = lex.intensifiers.get(tokens[i - 1])
            if mult is not None:
                value *= mult
        lo = max(0, i - NEGATION_WINDOW)
        if any(tokens[j] in lex.negators for j in range(lo, i)):
            value = -value
        value = max(-5.0, min(5.0, value))
        scored.append((value, subj))
    return scored


def _dual(scored: list[tuple[float, float]]) -> tuple[int, int]:
    """Positivity / negativity pair; (1, -1) for text with no scored terms."""
    strengths = [v for v, _ in scored]
    positives = [v for v in strengths if v > 0]
    negatives = [v for v in strengths if v < 0]
    positivity = int(round(max(positives))) if positives else 1
    negativity = int(round(min(negatives))) if negatives else -1
    return max(1, min(5, positivity)), max(-5, min(-1, negativity))


def _polarity_subjectivity(scored: list[tuple[float, float]]) -> tuple[float, float]:
    """Mean strength rescaled to [-1, 1] plus mean subjectivity weight;
    (0.0, 0.0) when nothing in the document is scored."""
    if not scored:
        return 0.0, 0.0
    polarity = sum(v for v, _ in scored) / (5.0 * len(scored))
    subjectivity = sum(s for _, s in scored) / len(scored)
    return max(-1.0, min(1.0, polarity)), max(0.0, min(1.0, subjectivity))


def score_all(doc: TokenizedDoc, lex: Lexicon) -> SentimentScores:
    """Both views of ``doc``, from one pass over its tokens; memoized per
    document in ``lex.scores``, so a description is scored once per lexicon
    however often its issue is featurized. A lexicon is never changed after
    it is built."""
    scores = lex.scores.get(doc)
    if scores is None:
        scored = _effective_strengths(doc, lex)
        scores = lex.scores[doc] = SentimentScores(
            *_dual(scored), *_polarity_subjectivity(scored))
    return scores
