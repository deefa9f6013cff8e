"""Tests of the benchmark itself: generator, tracer, checks and output format.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen_corpus
import layertrace
import run
from layertrace import LayerTracer

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
TINY = {"repos": 2, "issues_per_repo": 12, "pool": 300, "words": 6}


def _issuetriage_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "issuetriage" or name.startswith("issuetriage."))]


def _originals() -> dict[int, str]:
    """id -> span name of every traced function and method, unwrapped."""
    out = {}
    for span, owner, attr in layertrace.TARGETS:
        module_name, _, class_name = owner.partition(":")
        home = sys.modules[module_name]
        holder = getattr(home, class_name) if class_name else home
        out[id(vars(holder)[attr])] = span
    return out


def _planted(tmp_path: Path) -> Path:
    corpus = tmp_path / run.FIXTURE.name
    shutil.copyfile(run.FIXTURE, corpus)
    shutil.copyfile(f"{run.FIXTURE}.meta.json", f"{corpus}.meta.json")
    return corpus


def _config(tmp_path: Path, doc: dict) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# Generator

def test_generator_is_byte_deterministic_per_seed(tmp_path):
    first = gen_corpus.write_corpus(tmp_path / "a.jsonl", seed=5, **TINY)
    again = gen_corpus.write_corpus(tmp_path / "b.jsonl", seed=5, **TINY)
    other = gen_corpus.write_corpus(tmp_path / "c.jsonl", seed=6, **TINY)
    assert first == again
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
    assert (tmp_path / "a.jsonl.meta.json").read_bytes() == \
        (tmp_path / "b.jsonl.meta.json").read_bytes()
    assert first != other


def test_generator_pads_every_description_with_pool_words():
    corpus = gen_corpus.generate(seed=1, **TINY)
    assert len(corpus.issues) == TINY["repos"] * TINY["issues_per_repo"]
    assert len(corpus.repos()) == TINY["repos"]
    import random
    pool = set(gen_corpus.pseudo_word_pool(random.Random(1), TINY["pool"]))
    for issue in corpus.issues:
        tail = issue.description.split()[-TINY["words"]:]
        assert set(tail) <= pool


# ---------------------------------------------------------------------------
# Tracer

def test_every_import_site_is_wrapped_and_restored():
    from issuetriage import cli  # noqa: F401  loads every module the CLI uses

    originals = _originals()
    tracer = LayerTracer()
    with tracer:
        wrappers = [getattr(owner, name) for owner, name in tracer.wrapped_sites()]
        for module in _issuetriage_modules():
            for name, value in vars(module).items():
                assert id(value) not in originals, \
                    f"{module.__name__}.{name} still holds the unwrapped {originals[id(value)]}"
        # a function imported by name is wrapped where it was imported too
        sites = {(getattr(o, "__name__", ""), n) for o, n in tracer.wrapped_sites()}
        assert ("issuetriage.evalkit", "fit_feature_pipeline") in sites
        assert ("issuetriage.cli", "train_pipeline") in sites
        assert ("issuetriage.cli", "load_corpus") in sites
    for module in _issuetriage_modules():
        for name, value in vars(module).items():
            assert all(value is not w for w in wrappers), f"{module.__name__}.{name} left wrapped"
    assert _originals() == originals


def test_wrappers_are_removed_when_the_command_raises(tmp_path):
    from issuetriage import features

    original = features.fit_tfidf
    with pytest.raises(ValueError):
        with LayerTracer():
            assert features.fit_tfidf is not original
            features.fit_tfidf([], 10)
    assert features.fit_tfidf is original


def test_xproj_planted_traced_counts(tmp_path):
    """The criterion-09 command: exact counts, every layer evaluate reaches
    is recorded, and tracing leaves the report byte-identical."""
    from issuetriage import cli

    corpus = _planted(tmp_path)
    config = _config(tmp_path, run.XPROJ_CONFIG)
    args = ["--config", config, "evaluate", "--in", str(corpus),
            "--mode", "cross-project"]
    assert cli.main(args + ["--report", str(tmp_path / "plain.json")]) == 0
    with LayerTracer() as tracer:
        assert cli.main(args + ["--report", str(tmp_path / "traced.json")]) == 0
    assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "traced.json").read_bytes()

    m = tracer.metrics()
    assert m["textnorm.normalize_calls"] == 1750
    assert m["textnorm.normalize_per_issue"] == 8.75
    assert m["corpus.issues_in"] == 200
    assert m["learn.predict_proba_calls.forest"] == 2
    assert m["learn.predict_proba_calls.nb"] == 200
    assert m["learn.forest_max_depth"] <= 12
    not_on_evaluate = {"learn.save_model", "learn.load_model",
                       "cli.save_assets", "cli.load_assets"}
    for span, total in layertrace.SPAN_METRICS.items():
        if span in not_on_evaluate:
            assert m[total] == 0.0
        else:
            assert tracer.spans[span][0] > 0, span
            assert 0 <= m[layertrace.self_name(total)] <= m[total]


def test_train_and_predict_reach_every_layer(tmp_path):
    """Together, train-priority and predict reach every traced name,
    including the save/load paths and the names the CLI imports directly."""
    from issuetriage import cli

    corpus = _planted(tmp_path)
    config = _config(tmp_path, {"seed": 1, "model": {"hyperparams": {
        "n_trees": 3, "max_depth": 4}}})
    model = tmp_path / "model.json"
    with LayerTracer() as train:
        assert cli.main(["--config", config, "train-priority", "--in", str(corpus),
                         "--model", str(model)]) == 0
    with LayerTracer() as predict:
        assert cli.main(["--config", config, "predict", "--in", str(corpus),
                         "--model", str(model), "--out", str(tmp_path / "p.tsv")]) == 0
    assert train.metrics()["textnorm.normalize_per_issue"] == 10
    assert predict.metrics()["textnorm.normalize_per_issue"] == 5
    assert predict.metrics()["learn.predict_proba_calls.nb"] == 200
    assert predict.metrics()["learn.predict_proba_calls.forest"] == 2
    assert predict.metrics()["learn.forest_fit_s"] == 0.0
    reached = set(train.spans) | set(predict.spans)
    assert reached == set(layertrace.SPAN_METRICS)
    for name in ("cli.model_kb", "cli.assets_kb", "features.vocab_desc",
                 "features.x_mb", "features.x_density"):
        assert train.metrics()[name] > 0 and predict.metrics()[name] > 0, name
    assert train.metrics()["cli.model_kb"] == predict.metrics()["cli.model_kb"]


# ---------------------------------------------------------------------------
# Checks

def test_prediction_check_catches_bad_rows(tmp_path):
    from issuetriage import cli, labelmap
    from issuetriage.corpus import load_corpus

    corpus = _planted(tmp_path)
    config = _config(tmp_path, {"seed": 1, "model": {"hyperparams": {
        "n_trees": 2, "max_depth": 3}}})
    model = tmp_path / "model.json"
    out = tmp_path / "p.tsv"
    assert cli.main(["--config", config, "train-priority", "--in", str(corpus),
                     "--model", str(model)]) == 0
    assert cli.main(["--config", config, "predict", "--in", str(corpus),
                     "--model", str(model), "--out", str(out)]) == 0
    issues = load_corpus(corpus)[0].issues
    truth = run.priority_truth(issues, labelmap.load_label_maps())
    errors, quality = run.check_predictions(out, issues, truth, model)
    assert errors == [] and 0 < quality["accuracy"] <= 1

    lines = out.read_text(encoding="utf-8").splitlines()
    cells = lines[1].split("\t")
    broken = {
        "sum": "\t".join(cells[:2] + ["0.9", "0.2"] + cells[4:]),
        "fingerprint": "\t".join(cells[:4] + ["0" * 64]),
    }
    for kind, row in broken.items():
        out.write_text("\n".join([lines[0], row, *lines[2:]]) + "\n", encoding="utf-8")
        errors, _ = run.check_predictions(out, issues, truth, model)
        assert errors, kind
    out.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    assert run.check_predictions(out, issues, truth, model)[0]


def test_macro_f1_matches_hand_count():
    truth = ["High", "High", "Low", "Low"]
    assert run.macro_f1(truth, truth) == 1.0
    # High: tp 1 fp 1 fn 1 -> 0.5; Low: tp 1 fp 1 fn 1 -> 0.5
    assert run.macro_f1(truth, ["High", "Low", "High", "Low"]) == 0.5
    assert run.macro_f1(truth, ["Low"] * 4) == pytest.approx((0 + 2 / 3) / 2)


# ---------------------------------------------------------------------------
# Output format

def test_benchmark_json_names_match_the_code():
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert end_to_end == run.END_TO_END_UNITS
    assert [m["name"] for m in BENCHMARK["per_layer"]] == layertrace.metric_names()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert NAME_RE.fullmatch(metric["name"]), metric["name"]


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_named_in_benchmark_json(trace):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", "xproj-planted",
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = [line.split()[1] for line in lines if line.startswith("metric ")]
    assert printed == list(expected)
    for name in printed:
        assert NAME_RE.fullmatch(name)
    if trace:
        assert result["metrics"]["textnorm.normalize_calls"]["value"] == 1750
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copyfile(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-2k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
