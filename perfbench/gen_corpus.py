"""Deterministic synthetic issue corpora for the benchmark.

Each issue comes from ``build_issue`` in the committed planted-fixture
generator (``tests/fixtures/gen_planted_corpus.py``), so priority follows the
same planted rule, and its description is padded with pseudo-words drawn from
a fixed-size pool. The pool sets the TF-IDF vocabulary size: with 2,000
issues, 40 words each and a 20k pool, the description vocabulary fills its
20k-column cap at well under 1 % density.

Usage (from the repository root):
    python3 perfbench/gen_corpus.py --out corpus.jsonl --repos 8 \\
        --issues-per-repo 250 --pool 20000 --words 40 --seed 1
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.util
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PLANTED_GENERATOR = ROOT / "tests" / "fixtures" / "gen_planted_corpus.py"

_CONSONANTS = "bdfgklmnprtvz"
_VOWELS = "aeiou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]
_WORD_SYLLABLES = 3


def _load_build_issue():
    src = str(ROOT / "src")  # the fixture generator imports issuetriage
    if src not in sys.path:
        sys.path.insert(0, src)
    spec = importlib.util.spec_from_file_location("gen_planted_corpus", PLANTED_GENERATOR)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build_issue


def pseudo_word_pool(rng: random.Random, size: int) -> list[str]:
    """``size`` distinct lowercase consonant-vowel words. They end in a vowel
    and hold no digits, so the text pipeline keeps each one as a single
    token and the lemmatizer leaves it alone."""
    n_syl = len(_SYLLABLES)
    capacity = n_syl ** _WORD_SYLLABLES
    if not 0 < size <= capacity:
        raise ValueError(f"pool size must be in 1..{capacity}")
    words = []
    for code in rng.sample(range(capacity), size):
        parts = []
        for _ in range(_WORD_SYLLABLES):
            code, rem = divmod(code, n_syl)
            parts.append(_SYLLABLES[rem])
        words.append("".join(parts))
    return words


def generate(repos: int, issues_per_repo: int, pool: int, words: int, seed: int):
    """Build the corpus; the same arguments always give the same issues."""
    build_issue = _load_build_issue()
    from issuetriage.corpus import Corpus

    rng = random.Random(seed)
    vocab = pseudo_word_pool(rng, pool)
    issues = []
    for r in range(repos):
        repo = f"synth{r}/project{r}"
        for n in range(issues_per_repo):
            issue = build_issue(rng, repo, n)
            padding = " ".join(rng.choices(vocab, k=words))
            issues.append(dataclasses.replace(
                issue, description=f"{issue.description} {padding}"))
    provenance = {"source": "synthetic-padded", "generator": "perfbench/gen_corpus.py",
                  "repos": repos, "issues_per_repo": issues_per_repo,
                  "pool": pool, "words": words, "seed": seed}
    return Corpus(issues=tuple(issues), provenance=provenance)


def write_corpus(out: Path, repos: int, issues_per_repo: int, pool: int, words: int,
                 seed: int) -> str:
    """Write the corpus and its sidecar; return the sha256 of the corpus file."""
    corpus = generate(repos, issues_per_repo, pool, words, seed)
    from issuetriage.corpus import save_corpus

    save_corpus(corpus, out)
    return hashlib.sha256(Path(out).read_bytes()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--repos", type=int, default=8)
    parser.add_argument("--issues-per-repo", type=int, default=250)
    parser.add_argument("--pool", type=int, default=20_000)
    parser.add_argument("--words", type=int, default=40)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    digest = write_corpus(args.out, args.repos, args.issues_per_repo, args.pool,
                          args.words, args.seed)
    print(f"{args.out} sha256={digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
