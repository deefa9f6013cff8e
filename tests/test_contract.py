"""Process-level contracts of the CLI: the exit code of any config, and of
any mutated input document (model or assets file, corpus line, sidecar,
probability row or cached API page), and output bytes that do not depend on
the interpreter's string hash seed."""

import importlib
import io
import json
import os
import pkgutil
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import issuetriage
from testkit import FIXTURES
from issuetriage import cli, ingest, labelmap, learn
from issuetriage.corpus import Corpus, FilterConfig, load_corpus, save_corpus
from issuetriage.decode import Table
from issuetriage.evalkit import ModelSpec
from test_ingest import REPO, FakeTransport, hydration_routes, issue_doc

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
    "max_features": ["sqrt", 2],
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
# One mutator for every input document, driven by the decoder's tables

# one value of each JSON type but null, and the types each Field kind takes
JSON_VALUES = ["x", True, 7, 1.5, {}, ["x"]]
TAKES = {"string": (str,), "bool": (bool,), "integer": (int,), "count": (int,),
         "object": (dict,), "list": (list,), "decimal": (str,), "float": (list, int, float),
         "int": (list, int), "sparse": (dict,), "terms": (list,), "strings": (dict,),
         "tree": (list,)}


def declared_tables() -> list[Table]:
    """Every ``Table`` that a module of the package declares: by name, or in
    a dict, as a value or as a field of a record (``learn.KINDS``)."""
    found = []
    for info in pkgutil.iter_modules(issuetriage.__path__):
        for value in vars(importlib.import_module(f"issuetriage.{info.name}")).values():
            for item in value.values() if isinstance(value, dict) else [value]:
                held = vars(item).values() if isinstance(item, learn.Kind) else [item]
                found += [table for table in held if isinstance(table, Table)]
    return found


def wrong_types() -> dict[str, list]:
    """Per key that a table declares, the values of ``JSON_VALUES`` whose
    JSON type its row does not take."""
    wrong: dict[str, list] = {}
    for table in declared_tables():
        for key, spec in table.fields.items():
            kinds = (spec.kind,) if isinstance(spec.kind, str) else spec.kind
            takes = {t for kind in kinds for t in TAKES[kind]}
            wrong.setdefault(key, []).extend(v for v in JSON_VALUES if type(v) not in takes)
    return wrong


WRONG = wrong_types()


def test_every_declared_field_is_fuzzed():
    tables = declared_tables()
    corpus_tables = (issuetriage.corpus.RECORD, issuetriage.corpus.AUTHOR,
                     issuetriage.corpus.COMMENT, issuetriage.corpus.EVENT,
                     issuetriage.corpus.SIDECAR)
    assert {*corpus_tables, cli.PROB_ROW, cli.ASSETS, issuetriage.features.TFIDF,
            issuetriage.features.SCALER, learn.MODEL, *(kind.table for kind in learn.KINDS.values()),
            ingest.ISSUE,
            ingest.COMMENT, ingest.EVENT, ingest.PROFILE, ingest.CACHE_ENTRY} <= set(tables)
    assert all(WRONG[key] for table in tables for key in table.fields)


def mutate(data, doc, values: list, descend: int):
    """``doc`` with one key, value or list element changed, at least one
    level down and then one more level ``descend`` times in ``descend + 1``:
    renamed, cut one element short (a list), set to one of ``values`` or, for
    a key a table declares, to a value of a JSON type its row does not take,
    or given a sibling key that some table declares, with such a value."""
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node:
        if parent is not None and not data.draw(st.integers(0, descend)):
            break
        key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                        else range(len(node))), "key")
        parent, node = node, node[key]
    how = data.draw(st.sampled_from(["rename", "set", "cut", "add"]), "how")
    if how == "rename" and isinstance(parent, dict):
        parent[f"{key}x"] = parent.pop(key)
    elif how == "cut" and isinstance(node, list) and node:
        parent[key] = node[:-1]
    elif how == "add" and isinstance(parent, dict):
        added = data.draw(st.sampled_from(sorted(WRONG)), "added")
        parent[added] = data.draw(st.sampled_from(WRONG[added]), "value")
    else:
        parent[key] = data.draw(st.sampled_from(values + WRONG.get(key, [])), "value")
    return doc


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
    """A model or its assets is mutated (``mutate``, which reaches the
    nested trees five levels in six); predict then exits 0, 1 or 2 with at
    most one error line, and on 0 writes whole rows."""
    model = trained_artifacts[data.draw(st.sampled_from(sorted(trained_artifacts)), "model")]
    suffix = data.draw(st.sampled_from(["", ".assets.json"]), "file")
    doc = mutate(data, json.loads(Path(f"{model}{suffix}").read_text()), BAD_VALUES, 5)
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


def _mutated_json(data, doc) -> bytes:
    return json.dumps(mutate(data, doc, RECORD_VALUES, 2)).encode()


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
                 "record": lambda: _mutated_json(data, json.loads(lines[at]))}[how]()
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


# ---------------------------------------------------------------------------
# Exit-code contract over mutated corpus sidecars

@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_mutated_sidecar_gives_a_known_exit_code(small_corpus, probs_inputs, data):
    """The corpus's ``.meta.json`` sidecar (the planted fixture's, so that
    its provenance has keys to mutate) has one key or value, at any depth,
    changed as ``mutate`` changes any document, or
    is made bad bytes, bad JSON, a non-object, or removed; ``preprocess`` and
    ``predict`` then exit 0, 1 or 2, with one error line exactly when they do
    not exit 0, and never a traceback."""
    model, _ = probs_inputs
    sidecar = (FIXTURES / "planted_corpus.jsonl.meta.json").read_bytes()
    how = data.draw(st.sampled_from(["record", "record", "record", "bytes", "json", "array",
                                     "missing"]), "how")
    mutated = {"bytes": lambda: b"\xff" + sidecar,
               "json": lambda: sidecar[:-3],
               "array": lambda: b"[" + sidecar + b"]",
               "missing": lambda: None,
               "record": lambda: _mutated_json(data, json.loads(sidecar))}[how]()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        shutil.copy(small_corpus, tmp / "c.jsonl")
        if mutated is not None:
            (tmp / "c.jsonl.meta.json").write_bytes(mutated)
        for argv in (["preprocess", "--out", tmp / "o.jsonl"],
                     ["predict", "--model", model, "--out", tmp / "out.tsv"]):
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = cli.main([str(a) for a in [*argv, "--in", tmp / "c.jsonl"]])
            errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
            assert code in (0, 1, 2), (argv[0], code)
            assert "Traceback" not in err.getvalue()
            assert (code == 0) == (not errors) and len(errors) <= 1, (argv[0], code, errors)


# ---------------------------------------------------------------------------
# Exit-code contract over mutated API pages

@pytest.fixture(scope="module")
def api_cache(tmp_path_factory):
    """``fetch``'s response cache for one repository: two issues (one with a
    label given as a bare string), their comments and events, and their
    authors' profiles, made through a canned transport."""
    cache = tmp_path_factory.mktemp("api") / "cache"
    transport = FakeTransport()
    transport.add(f"https://api.github.com/repos/{REPO}/issues?state=closed&per_page=100",
                  [issue_doc(1), issue_doc(2, user={"login": "bob"}, labels=["ui"])])
    for number, login in ((1, "alice"), (2, "bob")):
        hydration_routes(transport, number, login)
    client = ingest.IssueClient(ingest.ClientConfig(cache_dir=cache, max_parallel_requests=4,
                                                    refresh=False), transport)
    issues = ingest.fetch_issues(client, ingest.FetchQuery(
        repo=REPO, state="closed", created_before=None, include_pull_requests=True))
    assert not ingest.hydrate(client, issues, {})[1]
    return cache


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_mutated_api_page_gives_a_known_exit_code(api_cache, data):
    """One cached response (the issue list, or an issue's comments, events or
    author profile) has its body, or the cache entry itself, changed as
    ``mutate`` changes any document; ``fetch``, run offline through the
    cache, then exits 0 or 2, with one error line exactly when it exits 2,
    and never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        cache = Path(tmp) / "cache"
        shutil.copytree(api_cache, cache)
        path = data.draw(st.sampled_from(sorted(cache.glob("*.json"))), "page")
        entry = json.loads(path.read_text())
        if data.draw(st.integers(0, 3), "entry"):
            entry["body"] = json.dumps(mutate(data, json.loads(entry["body"]), RECORD_VALUES, 2))
        else:
            mutate(data, entry, RECORD_VALUES, 0)
        path.write_text(json.dumps(entry))
        offline = FakeTransport()  # a request the cache misses is answered 404
        err = io.StringIO()
        with mock.patch.object(ingest, "RequestsTransport", lambda: offline), \
                redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = cli.main(["fetch", "--repo", REPO, "--out", str(Path(tmp) / "c.jsonl"),
                             "--cache-dir", str(cache)])
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert code in (0, 2), code
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == (not errors) and len(errors) <= 1, (code, errors)
