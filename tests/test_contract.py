"""Process-level contracts of the CLI: the exit code of any config or any
mutated model or assets file, and output bytes that do not depend on the
interpreter's string hash seed."""

import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from issuetriage import cli, labelmap, learn
from issuetriage.corpus import Corpus, FilterConfig, load_corpus, save_corpus
from issuetriage.evalkit import ModelSpec

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    """The first 40 planted issues (all of acme/engine) plus a 4-issue
    tiny/repo, one Low and then three High, which project-based evaluation
    skips. In that order, a set of the repo's labels iterates differently
    under hash seeds 1 and 2."""
    corpus, _ = load_corpus(FIXTURES / "planted_corpus.jsonl")
    maps = labelmap.load_label_maps()
    rest = corpus.issues[40:]
    by_class = {cls: [i for i in rest if (p := labelmap.priority_of(i.labels, maps.priority))
                      and p.value == cls] for cls in learn.PRIORITY_CLASS_ORDER}
    tiny = [replace(issue, repo="tiny/repo", id=f"tiny-{n}")
            for n, issue in enumerate(by_class["Low"][:1] + by_class["High"][:3])]
    path = tmp_path_factory.mktemp("contract") / "corpus.jsonl"
    save_corpus(Corpus(issues=tuple(corpus.issues[:40]) + tuple(tiny)), path)
    return path


SMALL_MODEL = {"hyperparams": {"n_trees": 5, "max_depth": 4}}

# train-objective, features, train-priority and all three evaluate modes, run
# in one child process
_RUNS = """
import sys
from issuetriage import cli
corpus, config = sys.argv[1], sys.argv[2]
for argv in (["train-objective", "--model", "o.json"],
             ["features", "--out", "f.tsv"],
             ["train-priority", "--model", "m.json"],
             ["evaluate", "--mode", "cv", "--cv-folds", "2", "--report", "cv.json"],
             ["--emit-csv", "evaluate", "--mode", "project", "--report", "project.json"],
             ["evaluate", "--mode", "cross-project", "--report", "cross.json"]):
    assert cli.main(["--config", config, *argv, "--in", corpus]) == 0, argv
"""
_OUTPUTS = ("o.json", "o.json.assets.json", "f.tsv", "m.json", "m.json.assets.json",
            "cv.json", "project.json", "project.csv", "cross.json")


def test_outputs_do_not_depend_on_the_hash_seed(small_corpus, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": SMALL_MODEL}))
    outputs = {}
    for hash_seed in ("1", "2"):
        run_dir = tmp_path / hash_seed
        run_dir.mkdir()
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hash_seed}
        subprocess.run([sys.executable, "-c", _RUNS, str(small_corpus), str(config)],
                       cwd=run_dir, env=env, check=True, capture_output=True)
        outputs[hash_seed] = {name: (run_dir / name).read_bytes() for name in _OUTPUTS}
    assert "tiny/repo" in json.loads(outputs["1"]["project.json"])["skipped"]
    for name in _OUTPUTS:
        assert outputs["1"][name] == outputs["2"][name], name


# ---------------------------------------------------------------------------
# Exit-code contract over mutated configs

BASE_CONFIG = {
    "seed": 3,
    "model": SMALL_MODEL,
    "search_space": {"n_trees": [2, 3], "max_depth": {"low": 2, "high": 4}},
    "filter": {},
}
# valid values of each key, so that many mutated configs are accepted and run
VALID = {
    "classifier": ["forest", "logreg", "nb", "knn"],
    "balancing": ["weights", "smote", "none"],
    "weights_i": [1, 5, 9, None],
    "stage1": ["nb", "logreg", "uniform"],
    "hyperparams": [{}, {"n_trees": 2}],
    "title_max_features": [1, 50],
    "desc_max_features": [2, 80],
    "n_trees": [1, 3],
    "max_depth": [None, 1, 3],
    "min_leaf": [1, 3],
    "max_features": [None, "sqrt", 2],
    "lr": [0.05, 1],
    "l2": [0, 0.01],
    "epochs": [1, 5],
    "alpha": [0.5, 2],
    "k": [1, 4],
    "smote_k": [1, 3],
    "min_text_chars": [0, 3, 10],
    "non_english_threshold": [0, 0.5, 1],
    "excluded_clusters": [[], ["question"]],
}
SECTION_KEYS = {
    "model": sorted(f.name for f in ModelSpec.__dataclass_fields__.values()),
    "hyperparams": sorted(learn.HYPERPARAMS),
    "search_space": sorted(learn.HYPERPARAMS),
    "filter": sorted(FilterConfig.__dataclass_fields__),
}

# small ints keep every accepted config quick to train
scalars = (st.none() | st.booleans() | st.integers(-2, 4) | st.floats(-2, 4)
           | st.sampled_from([float("nan"), float("inf"), 1e300])
           | st.sampled_from(["", "x", "sqrt", "knn", "smote", "uniform", "file"]))
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["low", "high", "x"]), inner, max_size=3),
    max_leaves=4)


@st.composite
def mutated_configs(draw):
    """The base config with one to three keys of its sections (a known key or
    ``bogus``) set to a valid or an arbitrary value, or a section replaced
    whole by an arbitrary value."""
    config = json.loads(json.dumps(BASE_CONFIG))
    for _ in range(draw(st.integers(1, 3))):
        section = draw(st.sampled_from(sorted(SECTION_KEYS)))
        owner = config["model"] if section == "hyperparams" else config
        if not isinstance(owner, dict):  # model was replaced whole by a non-object
            continue
        if draw(st.integers(0, 7)) == 0:
            owner[section] = draw(values)
            continue
        if not isinstance(owner.get(section), dict):
            owner[section] = {}
        key = draw(st.sampled_from(SECTION_KEYS[section] + ["bogus"]))
        valid = VALID.get(key)
        if valid and draw(st.integers(0, 2)):  # valid two times in three
            value = draw(st.sampled_from(valid))
            if section == "search_space":
                value = [value]
        else:
            value = draw(values)
        owner[section][key] = value
    return config


def _main(argv) -> tuple[int, list[str]]:
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, [line for line in err.getvalue().splitlines() if line.startswith("error:")]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config=mutated_configs())
def test_any_config_gives_a_known_exit_code(small_corpus, config):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "config.json").write_text(json.dumps(config))
        base = ["--config", tmp / "config.json"]
        for argv in (["train-priority", "--in", small_corpus, "--model", tmp / "m.json",
                      "--tune", "1", "--cv-folds", "2"],
                     ["train-objective", "--in", small_corpus, "--model", tmp / "o.json"],
                     ["features", "--in", small_corpus, "--out", tmp / "f.tsv"],
                     ["preprocess", "--in", small_corpus, "--out", tmp / "p.jsonl"]):
            code, errors = _main(base + argv)
            assert code in (0, 1, 2), (argv[0], code)
            assert len(errors) <= 1, errors
            assert (code == 0) == (not errors), (argv[0], code, errors)


# ---------------------------------------------------------------------------
# Exit-code contract over mutated model and assets files

@pytest.fixture(scope="module")
def trained_artifacts(small_corpus, tmp_path_factory):
    """A forest and a kNN priority model and a stage-one NB model, each next
    to its assets, trained once on the small corpus."""
    d = tmp_path_factory.mktemp("artifacts")
    config = d / "config.json"
    config.write_text(json.dumps({"model": SMALL_MODEL}))
    models = {}
    for name, argv in (("forest", ["train-priority"]),
                       ("knn", ["train-priority", "--classifier", "knn"]),
                       ("nb-stage1", ["train-objective"])):
        models[name] = d / f"{name}.json"
        code, errors = _main(["--config", config, *argv, "--in", small_corpus,
                              "--model", models[name]])
        assert code == 0, errors
    return models


# wrong in type, not a number, null, and out of range
BAD_VALUES = ["x", float("nan"), None, -1, 10 ** 7, 10 ** 400]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_mutated_artifact_gives_a_known_exit_code(small_corpus, trained_artifacts, data):
    """One key, value or array cell of a model or its assets is renamed, set
    to a bad value, or (a list) cut one element short; predict then exits 0,
    1 or 2 with at most one error line, and on 0 writes whole rows."""
    model = trained_artifacts[data.draw(st.sampled_from(sorted(trained_artifacts)), "model")]
    suffix = data.draw(st.sampled_from(["", ".assets.json"]), "file")
    doc = json.loads(Path(f"{model}{suffix}").read_text())
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node:
        if parent is not None and not data.draw(st.integers(0, 5)):
            break  # one level down at least, then one more five times in six
        key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                        else range(len(node))), "key")
        parent, node = node, node[key]
    how = data.draw(st.sampled_from(["rename", "set", "cut"]), "how")
    if how == "rename" and isinstance(parent, dict):
        parent[f"{key}x"] = parent.pop(key)
    elif how == "cut" and isinstance(node, list) and node:
        parent[key] = node[:-1]
    else:
        parent[key] = data.draw(st.sampled_from(BAD_VALUES), "value")
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "m.json"
        for name in ("", ".assets.json"):
            shutil.copy(f"{model}{name}", f"{target}{name}")
        Path(f"{target}{suffix}").write_text(json.dumps(doc))
        code, errors = _main(["predict", "--model", target, "--in", small_corpus,
                              "--out", Path(tmp) / "p.tsv"])
        assert code in (0, 1, 2), code
        assert len(errors) <= 1, errors
        if code == 0:
            header, *rows = (Path(tmp) / "p.tsv").read_text().splitlines()
            assert rows and all(len(r.split("\t")) == len(header.split("\t")) for r in rows)


# ---------------------------------------------------------------------------
# Exit-code contract over mutated corpus records and probability rows

@pytest.fixture(scope="module")
def probs_inputs(small_corpus, tmp_path_factory):
    """A priority model trained without stage one, next to its assets, and an
    objective probability file with one row per small-corpus issue."""
    d = tmp_path_factory.mktemp("probs")
    model = d / "model.json"
    code, errors = _main(["--config", _write(d / "config.json", {"model": SMALL_MODEL}),
                          "train-priority", "--stage1", "uniform", "--in", small_corpus,
                          "--model", model])
    assert code == 0, errors
    rows = [f"{issue.id}\t0.2\t0.3\t0.5" for issue in load_corpus(small_corpus)[0].issues]
    return model, ["issue_id\tBug\tEnhancement\tSupportDoc", *rows]


def _write(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc))
    return path


# wrong in type or range, for records: strings, numbers, lists, objects,
# timestamps that do not parse or whose UTC time is out of range
RECORD_VALUES = BAD_VALUES + [True, "", [], {}, ["x", 1], {"login": 3}, 1.5,
                              "2021-13-45T00:00:00Z", "9999-12-31T23:59:59-14:00"]
PROB_CELLS = ["x", "", "nan", "inf", "-1", "1e400", "0.5", "1", "0"]


def _mutate_record(data, doc):
    """One key or value of ``doc``, at any depth, renamed, set to a bad value
    or (a list) cut one element short, as the artifact mutator does."""
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node:
        if parent is not None and not data.draw(st.integers(0, 2)):
            break
        key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                        else range(len(node))), "key")
        parent, node = node, node[key]
    how = data.draw(st.sampled_from(["rename", "set", "cut"]), "how")
    if how == "rename" and isinstance(parent, dict):
        parent[f"{key}x"] = parent.pop(key)
    elif how == "cut" and isinstance(node, list) and node:
        parent[key] = node[:-1]
    else:
        parent[key] = data.draw(st.sampled_from(RECORD_VALUES), "value")
    return json.dumps(doc).encode()


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_mutated_corpus_or_probability_file_gives_a_known_exit_code(
        small_corpus, probs_inputs, data):
    """One corpus line is mutated (a record's key or value, or the whole line
    made bad bytes, bad JSON, a non-object or a copy of another line), and
    one row of the probability file (a cell, the cell count or its bytes);
    ``predict``, with and without that file, and ``preprocess`` then exit 0,
    1 or 2 with at most one error line, and with one exactly when they do
    not exit 0."""
    model, prob_lines = probs_inputs
    lines = Path(small_corpus).read_bytes().splitlines()
    at = data.draw(st.integers(0, len(lines) - 1), "line")
    how = data.draw(st.sampled_from(["record", "record", "bytes", "json", "array", "copy"]))
    lines[at] = {"bytes": lambda: lines[at][:20] + b"\xff" + lines[at][20:],
                 "json": lambda: lines[at][:-1],
                 "array": lambda: b"[" + lines[at] + b"]",
                 "copy": lambda: lines[(at + 1) % len(lines)],
                 "record": lambda: _mutate_record(data, json.loads(lines[at]))}[how]()
    rows = [line.encode() for line in prob_lines]
    row = data.draw(st.integers(0, len(rows) - 1), "row")
    cells = prob_lines[row].split("\t")
    change = data.draw(st.sampled_from(["cell", "cell", "drop", "add", "bytes", "none"]))
    if change == "cell":
        cells[data.draw(st.integers(0, 3))] = data.draw(st.sampled_from(PROB_CELLS))
    elif change in ("drop", "add"):
        cells = cells[:-1] if change == "drop" else cells + ["0"]
    rows[row] = b"\xfe" + rows[row] if change == "bytes" else "\t".join(cells).encode()
    strict = ["--strict"] if data.draw(st.booleans(), "strict") else []
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "c.jsonl").write_bytes(b"\n".join(lines) + b"\n")
        (tmp / "p.tsv").write_bytes(b"\n".join(rows) + b"\n")
        predict = ["predict", "--model", model, "--out", tmp / "out.tsv"]
        for argv in (predict + ["--objective-probs", tmp / "p.tsv"], predict,
                     ["preprocess", "--out", tmp / "o.jsonl"]):
            code, errors = _main([*strict, *argv, "--in", tmp / "c.jsonl"])
            assert code in (0, 1, 2), (argv[0], code)
            assert len(errors) <= 1, errors
            assert (code == 0) == (not errors), (argv[0], code, errors)
