"""sha256 pins of the CLI's outputs on the planted fixture.

A change that only alters how the pipeline is computed (its data layout,
batching or memoization) must leave every output byte-identical; these pins
make that a standing check. They cover the ``train-priority`` model and
assets, the ``predict`` TSV, the ``features`` TSV and the criterion-09
``evaluate --mode cross-project`` report. Stage-one NB scores through a BLAS
matrix product, so the bytes may differ under another numpy or BLAS build:
the pins name the builds they were made with, and the test skips under any
other.
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
}

TRAIN_CONFIG = {"seed": 7, "model": {"classifier": "forest",
                                     "hyperparams": {"n_trees": 10, "max_depth": 8}}}
# the criterion-09 spec, as the benchmark's xproj-planted workload runs it
XPROJ_CONFIG = {"seed": 11, "model": {
    "classifier": "forest", "balancing": "weights",
    "hyperparams": {"n_trees": 100, "max_depth": 12, "max_features": 128}}}


def _builds() -> dict[str, str]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 reports no dicts
        blas_name = "unknown"
    return {"numpy": np.__version__, "blas": blas_name}


def test_outputs_match_their_goldens(tmp_path):
    if _builds() != MADE_WITH:
        pytest.skip(f"goldens made with {MADE_WITH}, running under {_builds()}")
    corpus = tmp_path / "corpus.jsonl"
    shutil.copy(FIXTURES / "planted_corpus.jsonl", corpus)
    shutil.copy(FIXTURES / "planted_corpus.jsonl.meta.json", f"{corpus}.meta.json")
    train, xproj = tmp_path / "train.json", tmp_path / "xproj-config.json"
    train.write_text(json.dumps(TRAIN_CONFIG))
    xproj.write_text(json.dumps(XPROJ_CONFIG))
    model = tmp_path / "model.json"
    for argv in (
            ["--config", train, "train-priority", "--in", corpus, "--model", model],
            ["--config", train, "predict", "--in", corpus, "--model", model,
             "--out", tmp_path / "predict.tsv"],
            ["--config", train, "features", "--in", corpus, "--out", tmp_path / "features.tsv"],
            ["--config", xproj, "evaluate", "--in", corpus, "--mode", "cross-project",
             "--report", tmp_path / "xproj.json"]):
        assert cli.main([str(a) for a in argv]) == 0, argv
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in GOLDEN_SHA256}
    assert got == GOLDEN_SHA256
