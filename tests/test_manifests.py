"""Pins of the manifest that every command writes on the planted fixture.

Each command runs in one run directory with paths relative to it, so a
manifest's input and output names are the run directory's. The pin covers
the whole record, byte for byte: ``command``, ``seed``, ``config``, each
input with its sha256, and the outputs. ``fetch`` answers from a fake transport that lists
no issue.

The fixture inputs hash the same under every build. ``predict`` also reads
the trained model, whose bytes go through stage one's BLAS product: its
digest is pinned under the build that made the goldens
(``test_goldens.MADE_WITH``), and under another build it must be the
digest of the model file the run read.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

from conftest import FIXTURES
from issuetriage import cli, ingest
from test_goldens import GOLDEN_SHA256, MADE_WITH, TRAIN_CONFIG, _builds

CORPUS_SHA256 = "754816a9feb24fe778e77262106964ae6be6a027a541487a155c0514debe99a5"
RATINGS_SHA256 = "cddcad2c0daf8b6ba4a1b3f95491c38252d15fa9069d4e3f981d9ab45e12abab"
MODEL_SHA256 = GOLDEN_SHA256["model.json"]

# run name -> argv, in run order (predict reads train-priority's model)
RUNS = {
    "fetch": ["--config", "train.json", "fetch", "--repo", "acme/engine",
              "--out", "fetched.jsonl", "--cache-dir", "cache"],
    "preprocess": ["--config", "train.json", "preprocess", "--in", "corpus.jsonl",
                   "--out", "filtered.jsonl"],
    "features": ["--config", "train.json", "features", "--in", "corpus.jsonl",
                 "--out", "features.tsv"],
    "train-objective": ["--config", "train.json", "train-objective", "--in", "corpus.jsonl",
                        "--model", "objective.json"],
    "train-priority": ["--config", "train.json", "train-priority", "--in", "corpus.jsonl",
                       "--model", "model.json"],
    "predict": ["--config", "train.json", "--seed", "3", "predict", "--in", "corpus.jsonl",
                "--model", "model.json", "--out", "predict.tsv"],
    "evaluate-cv": ["--config", "train.json", "evaluate", "--in", "corpus.jsonl",
                    "--mode", "cv", "--cv-folds", "2", "--report", "cv.json"],
    "evaluate-project": ["--config", "train.json", "--emit-csv", "evaluate",
                         "--in", "corpus.jsonl", "--mode", "project",
                         "--report", "project.json"],
    "evaluate-cross-project": ["--config", "train.json", "evaluate", "--in", "corpus.jsonl",
                               "--mode", "cross-project", "--report", "xproj.json"],
    "agreement": ["agreement", "--ratings", "ratings.csv", "--report", "agreement.json"],
}


def _manifest(command, inputs, outputs, config=TRAIN_CONFIG, seed=7):
    return {"command": command, "config": config, "seed": seed,
            "inputs": inputs, "outputs": outputs}


MANIFESTS = {
    "fetched.jsonl": _manifest("fetch", {}, ["fetched.jsonl"]),
    "filtered.jsonl": _manifest("preprocess", {"corpus.jsonl": CORPUS_SHA256},
                                ["filtered.jsonl"]),
    "features.tsv": _manifest("features", {"corpus.jsonl": CORPUS_SHA256}, ["features.tsv"]),
    "objective.json": _manifest("train-objective", {"corpus.jsonl": CORPUS_SHA256},
                                ["objective.json", "objective.json.assets.json"]),
    "model.json": _manifest("train-priority", {"corpus.jsonl": CORPUS_SHA256},
                            ["model.json", "model.json.assets.json"]),
    "predict.tsv": _manifest("predict", {"corpus.jsonl": CORPUS_SHA256,
                                         "model.json": MODEL_SHA256},
                             ["predict.tsv"], seed=3),
    "cv.json": _manifest("evaluate:cv", {"corpus.jsonl": CORPUS_SHA256}, ["cv.json"]),
    "project.json": _manifest("evaluate:project", {"corpus.jsonl": CORPUS_SHA256},
                              ["project.json", "project.csv"]),
    "xproj.json": _manifest("evaluate:cross-project", {"corpus.jsonl": CORPUS_SHA256},
                            ["xproj.json"]),
    "agreement.json": _manifest("agreement", {"ratings.csv": RATINGS_SHA256},
                                ["agreement.json"], config={}, seed=0),
}


class _NoIssues:
    """A transport whose every answer is an empty issue list."""

    def get(self, url, headers):
        return ingest.Response(200, {}, "[]")


def test_every_command_writes_its_pinned_manifest(tmp_path, monkeypatch, capsys):
    shutil.copy(FIXTURES / "planted_corpus.jsonl", tmp_path / "corpus.jsonl")
    shutil.copy(FIXTURES / "planted_corpus.jsonl.meta.json", tmp_path / "corpus.jsonl.meta.json")
    shutil.copy(FIXTURES / "ratings_grouped.csv", tmp_path / "ratings.csv")
    (tmp_path / "train.json").write_text(json.dumps(TRAIN_CONFIG))
    monkeypatch.setattr(ingest, "RequestsTransport", _NoIssues)
    monkeypatch.chdir(tmp_path)
    for name, argv in RUNS.items():
        assert cli.main(argv) == 0, name
    capsys.readouterr()
    expected = json.loads(json.dumps(MANIFESTS))
    if _builds() != MADE_WITH:
        model = hashlib.sha256(Path("model.json").read_bytes()).hexdigest()
        expected["predict.tsv"]["inputs"]["model.json"] = model
    # byte for byte: compact JSON on one line, sorted keys, a final newline
    written = {primary: Path(f"{primary}.manifest.json").read_text(encoding="utf-8")
               for primary in MANIFESTS}
    assert written == {primary: json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
                       for primary, doc in expected.items()}
    assert sorted(str(p) for p in Path().glob("*.manifest.json")) == sorted(
        f"{primary}.manifest.json" for primary in MANIFESTS)


def test_the_fixture_digests_are_the_fixture_files():
    assert hashlib.sha256((FIXTURES / "planted_corpus.jsonl").read_bytes()).hexdigest() \
        == CORPUS_SHA256
    assert hashlib.sha256((FIXTURES / "ratings_grouped.csv").read_bytes()).hexdigest() \
        == RATINGS_SHA256

