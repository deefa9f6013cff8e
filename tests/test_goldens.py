"""sha256 pins of the CLI's outputs on the planted fixture.

A change that only alters how the pipeline is computed (its data layout,
batching or memoization) must leave every output byte-identical; these pins
make that a standing check. They cover the ``train-priority`` model and
assets, the ``predict`` TSV, the ``features`` TSV, the ``evaluate --mode
cv`` report, the ``--mode project`` report and its ``--emit-csv`` CSV, the
criterion-09 ``evaluate --mode cross-project`` report and its stdout, and
the ``train-priority --tune`` search trace under each ``--tune-metric``.
Stage-one NB scores through a BLAS matrix product, so the bytes may differ
under another numpy or BLAS build: the pins name the builds they were made
with, and the test skips under any other.

The ``preprocess`` corpus, its filter report and its stdout, and the
``agreement`` report and stdout in each ``--mode`` take no BLAS path; their
pins hold under every build.
"""

from __future__ import annotations

import hashlib
import json
import shutil

import numpy as np
import pytest

from conftest import FIXTURES
from issuetriage import cli

MADE_WITH = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0"}

GOLDEN_SHA256 = {
    "model.json": "c69960506bc338b471b2d0e9cfc1fcd41a9b6fad73b52c96fd88036ecc90c0ca",
    "model.json.assets.json":
        "6810a139214864fd34baaa92aadbb030d0f2616eaeb1132ac7a92bdb35ad54b1",
    "predict.tsv": "967e53ef35397e29d06d8d488e7b6ec4dd64b0487099b5c35c7b9336a4f9244a",
    "features.tsv": "9139a33e5dc835881d9948e5c966a2461f7fa0c07ba357e57bf8c68fcb1d8125",
    "xproj.json": "887051ca097ce2cfc8bcdc3876c4aaa92cc53483b9daca1c91a8a7ac5357f379",
    "cv.json": "86b49bee74bcf4607e946d05a16080821a4602cd3d93621a3d90eca193aa2f91",
    "project.json": "383482b66ddaa27b8b9c1a5b706c42353ef271adaebbef57c95465e8d47d9307",
    "project.csv": "df3cb6a6823d2ce9f4cabe2c726034ed9e7c7214f5b2c83fb9d1be3a2977e301",
    "tuned-accuracy.json.search.json":
        "200bb24412b95a792d0f82b41a29877dca5c12884b08134028b848fbec5601ec",
    "tuned-macro-f1.json.search.json":
        "67a068ead093359175f2e5e958911116940e0c7da4809e1c1ed311b3fdba15fa",
    "xproj.stdout": "c0114d5a9f55e2d60353ad20dfe3ce0dc4f6a86fefeb33b230fb408c1fa45a66",
}

REPORT_GOLDEN_SHA256 = {
    "filtered.jsonl": "d7454dbd9c3252bfc4b7707f3b8313a47d8d958c752eb84fc0a76de38f21447e",
    "filtered.jsonl.report.json":
        "9b8377ced620464a204ddd9ec12d3344156c55d27e6d621c10927e151fbc7d6f",
    "preprocess.stdout": "050fc4ab52b2176279e0d957932bffa4c1ec7ff7f0fe3f683ffa5eed8661d6fc",
    "agreement-pairwise.json": "454ca6d54fd60a2473405f99a54fa3440a08e442e9f176a11ad60e3abbecdea4",
    "agreement-pairwise.stdout":
        "08f130c1a2646171b70a3b835f262c5db0a53bccb1faaaa8e3eb27a1e659df8e",
    "agreement-majority.json": "5a8b217dfa519ed7e483cd0c85aab605e98a0e18dc8b6e6eaed19e4a3354bd57",
    "agreement-majority.stdout":
        "0608d1ece8d6cdb4b462deeb3a6feb8bf0073517d0fa2eb6136cda1365245e74",
}

TRAIN_CONFIG = {"seed": 7, "model": {"classifier": "forest",
                                     "hyperparams": {"n_trees": 10, "max_depth": 8}}}
# a small search space keeps the two --tune runs to a few seconds
TUNE_CONFIG = {**TRAIN_CONFIG, "search_space": {"n_trees": [4, 6, 8], "max_depth": [4, 5, 6]}}
# the criterion-09 spec, as the benchmark's xproj-planted workload runs it
XPROJ_CONFIG = {"seed": 11, "model": {
    "classifier": "forest", "balancing": "weights",
    "hyperparams": {"n_trees": 100, "max_depth": 12, "max_features": 128}}}
# filter rules under which the planted fixture loses issues to two of the rules
FILTER_CONFIG = {"filter": {"min_text_chars": 28, "excluded_clusters": ["question", "windows"]}}


def _builds() -> dict[str, str]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 reports no dicts
        blas_name = "unknown"
    return {"numpy": np.__version__, "blas": blas_name}


def _sha256s(directory, names) -> dict[str, str]:
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest() for name in names}


def test_outputs_match_their_goldens(tmp_path, capsys):
    if _builds() != MADE_WITH:
        pytest.skip(f"goldens made with {MADE_WITH}, running under {_builds()}")
    corpus = tmp_path / "corpus.jsonl"
    shutil.copy(FIXTURES / "planted_corpus.jsonl", corpus)
    shutil.copy(FIXTURES / "planted_corpus.jsonl.meta.json", f"{corpus}.meta.json")
    train, xproj = tmp_path / "train.json", tmp_path / "xproj-config.json"
    tune = tmp_path / "tune.json"
    train.write_text(json.dumps(TRAIN_CONFIG))
    xproj.write_text(json.dumps(XPROJ_CONFIG))
    tune.write_text(json.dumps(TUNE_CONFIG))
    model = tmp_path / "model.json"
    for argv in (
            ["--config", train, "train-priority", "--in", corpus, "--model", model],
            ["--config", train, "predict", "--in", corpus, "--model", model,
             "--out", tmp_path / "predict.tsv"],
            ["--config", train, "features", "--in", corpus, "--out", tmp_path / "features.tsv"],
            ["--config", train, "evaluate", "--in", corpus, "--mode", "cv",
             "--report", tmp_path / "cv.json"],
            ["--config", train, "evaluate", "--in", corpus, "--mode", "project",
             "--report", tmp_path / "project.json", "--emit-csv"],
            ["--config", xproj, "evaluate", "--in", corpus, "--mode", "cross-project",
             "--report", tmp_path / "xproj.json"],
            *(["--config", tune, "train-priority", "--in", corpus,
               "--model", tmp_path / f"tuned-{metric}.json",
               "--tune", 2, "--cv-folds", 2, "--tune-metric", metric]
              for metric in ("accuracy", "macro-f1"))):
        assert cli.main([str(a) for a in argv]) == 0, argv
        out = capsys.readouterr().out
        if "cross-project" in argv:
            (tmp_path / "xproj.stdout").write_text(out, encoding="utf-8")
    assert _sha256s(tmp_path, GOLDEN_SHA256) == GOLDEN_SHA256


def test_reports_match_their_goldens(tmp_path, capsys):
    config = tmp_path / "filter.json"
    config.write_text(json.dumps(FILTER_CONFIG))
    runs = {"preprocess": ["--config", config, "preprocess",
                           "--in", FIXTURES / "planted_corpus.jsonl",
                           "--out", tmp_path / "filtered.jsonl"]}
    for mode in ("pairwise", "majority"):
        runs[f"agreement-{mode}"] = ["agreement", "--ratings", FIXTURES / "ratings_grouped.csv",
                                     "--report", tmp_path / f"agreement-{mode}.json",
                                     "--mode", mode]
    for name, argv in runs.items():
        assert cli.main([str(a) for a in argv]) == 0, argv
        (tmp_path / f"{name}.stdout").write_text(capsys.readouterr().out, encoding="utf-8")
    assert _sha256s(tmp_path, REPORT_GOLDEN_SHA256) == REPORT_GOLDEN_SHA256
