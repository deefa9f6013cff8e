"""Command-line entry point.

Subcommands: fetch, preprocess, features, train-objective, train-priority,
predict, evaluate, agreement. A JSON config file provides defaults; flags
override it. Each command returns its primary output, its inputs and its
outputs, and ``main`` writes the run's one reproducibility manifest next to
the primary output (``*.manifest.json``: the command, ``evaluate:<mode>``
for ``evaluate``, the config snapshot, the seed, each input's sha256 and
the outputs). All artifacts are byte-identical across re-runs with the same
config and seed.

Settings. The config is one JSON object; ``main`` reads it and the flags
once and checks every setting before any corpus is loaded:

- ``seed``: the master seed (``--seed`` overrides it);
- ``model``: ``classifier``, ``balancing``, ``weights_i``, ``stage1``,
  ``hyperparams``, ``title_max_features``, ``desc_max_features``. The
  defaults and valid values are ``evalkit.ModelSpec``'s; the flags of the
  same names override the config. ``stage1`` is the stage-one objective
  model of every command that fits one: ``nb`` (the default), ``logreg``,
  or ``uniform`` for fixed 1/3 probabilities, which ``train-objective``
  rejects. ``classifier``, ``balancing``, ``weights_i`` and ``hyperparams``
  are stage two's, the priority classifier's;
- ``model.hyperparams`` and ``search_space``: names from
  ``learn.HYPERPARAMS``; each default is the one in the signature of the
  ``learn.fit_*`` function that takes it;
- ``filter``: ``min_text_chars``, ``non_english_threshold``,
  ``excluded_clusters``, defaulting as in ``corpus.FilterConfig``;
- ``paths``: ``cache``, the directory of ``fetch``'s response cache.

``--objective-probs`` sources stage one from that file, so no stage-one
model is fit. A bad value or an unknown key exits 1 naming the setting.

Artifacts. ``train-priority`` writes the model and, next to it, the assets
(``*.assets.json``: both TF-IDF vectorizers, the scaler, the label-table
checksums and the stage-one model); both are format version 2, and a file
of version 1 is refused. They store counts, not the floats derived from
them: a vectorizer its vocabulary in column order, each column's document
frequency ``df`` and ``n_docs``, from which the idf is derived on load; NB
its class and term counts and ``alpha``, from which its log prior and log
likelihood are. A forest's importances and kNN's training matrix are stored
as their non-zeros; forest trees as nested objects.

Exit codes: 0 success, 1 validation/usage error, 2 runtime failure. A
missing ``--model`` file is a usage error; a model or assets file that is
corrupt, unusable, of another format or of another version is a runtime
failure, and so is any file that cannot be read or written (an
``OSError``), such as an output under a missing directory. Unusable means a
block with a missing key, a value of the wrong type, a number that is not
finite or out of bounds (a negative count, a ``df`` outside [1,
``n_docs``]), an ``ngram_range`` other than [1, 2], a repeated term or
sparse index, or an array whose shape does not fit the model's classes or
the assets' widths (its tables: ``learn.MODEL`` and its kind's in
``learn.KINDS``, or ``ASSETS``).

Reports. Each is the plain dict that its module builds, written as
compact JSON: ``evaluate`` writes the protocol's document from ``evalkit``;
``agreement`` writes ``agreement.compute_agreement_by_group``'s, one report
per group and the one over every item under ``overall``; ``preprocess``
writes ``corpus.filter_corpus``'s counts of removed issues next to the
corpus (``*.report.json``) and prints them.

A run that would score nothing is a runtime failure too: ``train-priority
--tune`` with no usable fold, ``evaluate --mode project`` that skips every
repository for want of labeled issues, and ``evaluate --mode cross-project``
whose held-out repositories hold no priority-labeled issue. So is
``agreement`` on a ratings file with no item, or with a group named
``overall``, whose report would take the key of the one over every item.

``train-priority --tune`` exits 1 when its search space names a
hyperparameter that the spec's fit does not read (``evalkit.hyperparams_read``):
every trial would score the same.

An ``--objective-probs`` row that does not decode or sum to 1, or repeats an
issue id, exits 1 naming its line (and the earlier one). ``predict`` with a
stage-one model and ``--objective-probs`` exits 1 naming the flag: that
model makes the objective probabilities, so the file would go unread. So
does a flag that the command, its ``evaluate`` mode or its ``--tune``
setting (0 or not) does not read (``READS``), before any input is read.
``--seed`` and ``--config`` count as read by every command, since every
manifest records them.
``fetch`` exits 2 on an issue list that does not decode or lists an issue
twice; a comment, event or profile that does not decode only flags its
issue, with a warning.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import evalkit, features, labelmap, learn
from .corpus import (Corpus, CorpusError, FilterConfig, SettingError, filter_corpus, load_corpus,
                     parse_ts, save_corpus)
from .evalkit import ModelSpec, PriorityPipeline, train_pipeline
from .features import FeaturePipeline, ScalerParams, TfidfModel
from .decode import Field, Table
from .learn import ArtifactError, ChecksumMismatchError, TrainedModel, TrainingError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
ASSETS_FORMAT = "issuetriage-assets"

DEFAULT_SEARCH_SPACE = {
    "n_trees": [20, 40, 60, 120],
    "max_depth": {"low": 4, "high": 16},
    "min_leaf": [1, 2, 4],
}


# ---------------------------------------------------------------------------
# Config and manifest plumbing

def load_config(path: str | None) -> dict:
    if not path:
        return {}
    p = Path(path)
    if not p.is_file():
        raise SettingError(f"config file not found: {p}")
    try:
        config = json.loads(p.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise SettingError(f"config file {p} is not valid JSON: {exc}")
    if not isinstance(config, dict):
        raise SettingError(f"config file {p} must hold a JSON object")
    return config


def _sha256_file(path: Path) -> str:
    """The sha256 of ``path``'s bytes, read 1 MiB at a time, so a large
    corpus is never held whole."""
    digest = hashlib.sha256()
    with path.open("rb") as f:
        while chunk := f.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(primary_output: Path, command: str, config: dict,
                   seed: int | None, inputs: Sequence[Path],
                   outputs: Sequence[Path]) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": {str(p): _sha256_file(Path(p)) for p in inputs if Path(p).exists()},
        "outputs": [str(p) for p in outputs],
    }
    learn.write_json(Path(str(primary_output) + ".manifest.json"), manifest)


def _load_input_corpus(path: str, strict: bool) -> Corpus:
    corpus, errors = load_corpus(path, strict=strict)
    for lineno, message in errors:
        print(f"warning: {path}:{lineno}: {message}", file=sys.stderr)
    return corpus


def _section(doc: dict, name: str, keys: Iterable[str]) -> dict:
    """``doc[name]`` ({} when absent), which must be an object with only ``keys``."""
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise SettingError(f"config {name} must be an object, got {section!r}")
    for key in section:
        if key not in keys:
            raise SettingError(f"unknown key {key!r} in config {name}")
    return section


_MODEL_KEYS = {f.name for f in fields(ModelSpec)} - {"seed"}  # the seed is top-level
_FLAG_FIELDS = ("classifier", "balancing", "weights_i", "stage1")


def model_spec_from(config: dict, args: argparse.Namespace) -> ModelSpec:
    """Config ``model``, then the flags, laid over ``ModelSpec``'s defaults.
    Hyperparameter names are checked against every classifier's."""
    model_cfg = _section(config, "model", _MODEL_KEYS)
    _section(model_cfg, "hyperparams", learn.HYPERPARAMS)
    flags = {name: getattr(args, name) for name in _FLAG_FIELDS
             if getattr(args, name, None) is not None}
    return ModelSpec(**{**model_cfg, **flags, "seed": args.seed})


def search_space_from(config: dict) -> dict:
    """JSON search space: non-empty lists are choices, {"low","high"} objects
    are ranges; every name is a known hyperparameter and every choice and
    range end a valid value for it."""
    space = {}
    raw = (_section(config, "search_space", learn.HYPERPARAMS) if "search_space" in config
           else DEFAULT_SEARCH_SPACE)
    for name, entry in raw.items():
        values = entry
        if isinstance(entry, dict) and set(entry) == {"low", "high"}:
            values = (entry["low"], entry["high"])
            if not all(isinstance(end, (int, float)) for end in values) or values[0] > values[1]:
                raise SettingError(f"search space range for {name} must have "
                                   f"numbers low <= high, got {values}")
        elif not (isinstance(entry, list) and entry):
            raise SettingError(f"search space entry for {name} must be a non-empty "
                               f"list or a low/high object, got {entry!r}")
        for value in values:
            learn.check_hyperparam(name, value)
        space[name] = entry
    return space


# ---------------------------------------------------------------------------
# Asset (preprocessing) bundle persistence

def save_assets(path: Path, pipeline: FeaturePipeline,
                stage1_model: TrainedModel | None) -> None:
    learn.write_json(path, {
        "format": ASSETS_FORMAT,
        "version": learn.ARTIFACT_VERSION,
        "tfidf_title": pipeline.tfidf_title.to_doc(),
        "tfidf_desc": pipeline.tfidf_desc.to_doc(),
        "scaler": pipeline.scaler.to_doc(),
        "label_checksums": pipeline.maps.checksums(),
        "stage1_model": None if stage1_model is None else stage1_model.to_doc(),
    })


ASSETS = Table({"tfidf_title": Field("object"), "tfidf_desc": Field("object"),
                "scaler": Field("object"), "label_checksums": Field("strings", default={}),
                "stage1_model": Field("object", default=None)}, ArtifactError)


def load_assets(path: Path) -> tuple[FeaturePipeline, TrainedModel | None]:
    """The assets' pipeline and stage-one model (None when null); the latter
    must be over the objective classes and take ``stage1_width`` columns."""
    what = f"{path}: assets"
    doc = ASSETS.decode(learn.read_artifact(path, ASSETS_FORMAT), what)
    maps = labelmap.load_label_maps()
    current = maps.checksums()
    for name, checksum in doc["label_checksums"].items():
        if current.get(name) != checksum:
            raise ChecksumMismatchError(
                f"label table {name!r} changed since the assets were built")
    pipeline = FeaturePipeline(
        tfidf_title=TfidfModel.from_doc(doc["tfidf_title"], f"{what} block 'tfidf_title'"),
        tfidf_desc=TfidfModel.from_doc(doc["tfidf_desc"], f"{what} block 'tfidf_desc'"),
        scaler=ScalerParams.from_doc(doc["scaler"], f"{what} block 'scaler'",
                                     {"F": features.N_METADATA_FEATURES}),
        maps=maps,
    )
    if doc["stage1_model"] is None:
        return pipeline, None
    where = f"{what} block 'stage1_model': "
    stage1 = TrainedModel.from_doc(doc["stage1_model"], where)
    if stage1.classes != learn.OBJECTIVE_CLASS_ORDER:
        raise ArtifactError(f"{where}classes {list(stage1.classes)} are not the objective "
                            f"classes {list(learn.OBJECTIVE_CLASS_ORDER)}")
    stage1.require_width(pipeline.stage1_width, where)
    return pipeline, stage1


def assets_path_for(model_path: Path) -> Path:
    return Path(str(model_path) + ".assets.json")


PROB_ROW = Table({"issue_id": Field("string"),
                  **dict.fromkeys(learn.OBJECTIVE_CLASS_ORDER, Field("decimal", (), 0, 1))},
                 SettingError)


def load_probs_file(path: Path) -> dict[str, np.ndarray]:
    """Imported stage-one probabilities: TSV of issue_id and one column per
    objective class, each row a ``PROB_ROW``, no issue id given twice."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise SettingError(f"{path}: cannot read probabilities file: {exc}") from None
    if not lines:
        raise SettingError(f"{path}: empty probabilities file")
    header = lines[0].split("\t")
    if header != list(PROB_ROW.fields):
        raise SettingError(f"{path}: header must be {list(PROB_ROW.fields)}, got {header}")
    probs, seen = {}, {}
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split("\t")
        if len(cells) != len(header):
            raise SettingError(f"{path}:{lineno}: expected {len(header)} columns")
        issue_id, *vec = PROB_ROW.decode(dict(zip(header, cells)), f"{path}:{lineno}:").values()
        vec = np.array(vec)
        if not abs(vec.sum() - 1.0) <= features.PROB_SUM_TOLERANCE:
            raise SettingError(f"{path}:{lineno}: probabilities sum to {vec.sum()}")
        if issue_id in seen:
            raise SettingError(f"{path}:{lineno}: issue id {issue_id!r} repeats line "
                               f"{seen[issue_id]}")
        probs[issue_id], seen[issue_id] = vec, lineno
    return probs


# ---------------------------------------------------------------------------
# Commands: each takes the checked ``args`` and returns its primary output,
# its inputs and its outputs, from which ``main`` writes the manifest

RunFiles = tuple[Path, list[Path], list[Path]]


def cmd_fetch(args) -> RunFiles:
    from . import ingest
    out = Path(args.out)
    client = ingest.IssueClient(ingest.ClientConfig(
        cache_dir=Path(args.cache_dir or args.cache),
        max_parallel_requests=args.parallel,
        refresh=args.refresh,
    ))
    query = ingest.FetchQuery(repo=args.repo, state=args.state,
                              include_pull_requests=not args.no_pull_requests,
                              created_before=args.created_before)
    issues = ingest.fetch_issues(client, query)
    corpus, failures = ingest.hydrate(
        client, issues, provenance={"source": f"api:{args.repo}", "state": query.state})
    save_corpus(corpus, out)
    for failure in failures:
        print(f"warning: issue {failure.issue_id}: {failure.resource}: {failure.error}",
              file=sys.stderr)
    print(f"fetched {len(corpus)} issues from {args.repo} "
          f"({client.network_requests} network requests)")
    return out, [], [out]


def cmd_preprocess(args) -> RunFiles:
    out = Path(args.out)
    corpus = _load_input_corpus(args.input, args.strict)
    maps = labelmap.load_label_maps()
    filtered, report = filter_corpus(corpus, args.rules, cluster_of=maps.clusters.cluster_of)
    save_corpus(filtered, out)
    learn.write_json(Path(str(out) + ".report.json"), report)
    print(f"kept {len(filtered)} / {len(corpus)} issues (removed: {report})")
    return out, [Path(args.input)], [out]


def _format_float(x: float) -> str:
    return format(float(x), ".12g")


def cmd_features(args) -> RunFiles:
    out = Path(args.out)
    corpus = _load_input_corpus(args.input, args.strict)
    maps = labelmap.load_label_maps()
    if not len(corpus):
        out.write_text("", encoding="utf-8")
        print("empty corpus; wrote empty matrix")
        return out, [Path(args.input)], [out]
    bundle = evalkit.fit_preprocessing(corpus.issues, args.spec, maps)
    for note in bundle.notes:
        print(f"note: {note}", file=sys.stderr)
    header = ["issue_id"]
    header += [f"nf:{n}" for n in features.FEATURE_NAMES]
    header += [f"lf:{rep}" for rep in maps.clusters.representatives]
    header += ["tf"]
    # each row of X: its TF cells (below stage1_width) as "column:value", and
    # from its densified tail, all three probabilities and the LF and NF cells
    X, stage1_width = bundle.vectorize(corpus.issues), bundle.feature_pipeline.stage1_width
    rows, tf = X.row_ids(), X.cols < stage1_width
    cuts = np.cumsum(np.bincount(rows[tf], minlength=len(X)))[:-1]
    tail = np.zeros((len(X), X.shape[1] - stage1_width))
    tail[rows[~tf], X.cols[~tf] - stage1_width] = X.values[~tf]
    n_probs = len(learn.OBJECTIVE_CLASS_ORDER)
    lf_end = n_probs + labelmap.N_CLUSTERS
    lines = ["\t".join(header)]
    for issue, cols, values, row in zip(corpus.issues, np.split(X.cols[tf], cuts),
                                        np.split(X.values[tf], cuts), tail.tolist()):
        cols = [*cols.tolist(), *range(stage1_width, stage1_width + n_probs)]
        values = [*values.tolist(), *row[:n_probs]]
        lines.append("\t".join([issue.id, *map(_format_float, row[lf_end:]),
                                *(str(int(v)) for v in row[n_probs:lf_end]),
                                " ".join(map("{}:{}".format, cols, map(_format_float, values)))]))
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote feature matrix for {len(corpus)} issues to {out}")
    return out, [Path(args.input)], [out]


def cmd_train_objective(args) -> RunFiles:
    if args.spec.stage1 == "uniform":
        raise SettingError("train-objective needs a stage-one model: stage1 must be "
                           "nb or logreg, got 'uniform'")
    out = Path(args.model)
    corpus = _load_input_corpus(args.input, args.strict)
    bundle = evalkit.fit_preprocessing(corpus.issues, args.spec, labelmap.load_label_maps())
    model = bundle.stage1_model
    if model is None:
        raise TrainingError("fewer than two objective classes in the corpus")
    model.asset_fingerprints = bundle.feature_pipeline.fingerprints()
    model.metadata["seed"] = args.seed
    learn.save_model(model, out)
    save_assets(assets_path_for(out), bundle.feature_pipeline, None)
    print(f"trained stage-one {model.kind} model -> {out}")
    return out, [Path(args.input)], [out, assets_path_for(out)]


def cmd_train_priority(args) -> RunFiles:
    out = Path(args.model)
    corpus = _load_input_corpus(args.input, args.strict)
    maps = labelmap.load_label_maps()
    spec = args.spec
    probs_file = load_probs_file(Path(args.objective_probs)) if args.objective_probs else None
    issues, _ = evalkit.labeled_issues(corpus.issues, maps)
    dropped = len(corpus) - len(issues)
    if dropped:
        print(f"warning: {dropped} issues without priority labels excluded from training",
              file=sys.stderr)
    if args.tune:
        best, trace = evalkit.tune_hyperparams(
            issues, spec, maps, args.space, budget=args.tune, cv_folds=args.cv_folds,
            objective=args.tune_metric, probs_file=probs_file)
        spec = replace(spec, hyperparams={**spec.hyperparams, **best})
        learn.write_json(Path(str(out) + ".search.json"), {"best": best, "trace": trace})
    bundle = train_pipeline(issues, spec, maps, probs_file=probs_file)
    learn.save_model(bundle.classifier, out)
    save_assets(assets_path_for(out), bundle.feature_pipeline, bundle.stage1_model)
    for note in bundle.notes:
        print(f"note: {note}", file=sys.stderr)
    print(f"trained priority {bundle.classifier.kind} model on {len(issues)} issues -> {out}")
    return out, [Path(args.input)], [out, assets_path_for(out)]


def cmd_predict(args) -> RunFiles:
    out = Path(args.out)
    if not Path(args.model).exists():
        raise SettingError(f"model file not found: {args.model}")
    model = learn.load_model(args.model)
    pipeline, stage1 = load_assets(assets_path_for(Path(args.model)))
    model.verify_assets(pipeline.fingerprints())
    stage_one = model.classes == learn.OBJECTIVE_CLASS_ORDER
    if stage_one and args.objective_probs:
        raise SettingError(f"--objective-probs is not read with the stage-one model "
                           f"{args.model}, which makes the objective probabilities")
    model.require_width(pipeline.stage1_width if stage_one else pipeline.width,
                        f"{args.model}: ")
    corpus = _load_input_corpus(args.input, args.strict)
    probs_file = load_probs_file(Path(args.objective_probs)) if args.objective_probs else None
    fingerprint = model.fingerprint()

    if stage_one:
        # stage-one model: emit the importable objective-probabilities format
        bundle = PriorityPipeline(pipeline, stage1_model=model)
        lines = ["\t".join(["issue_id", *learn.OBJECTIVE_CLASS_ORDER])]
        for issue in corpus.issues:
            probs = bundle.objective_probs(issue)
            lines.append("\t".join([issue.id, *(_format_float(p) for p in probs)]))
    else:
        bundle = PriorityPipeline(pipeline, classifier=model, stage1_model=stage1,
                                  probs_file=probs_file)
        lines = ["\t".join(["issue_id", "predicted",
                            *(f"p_{c}" for c in model.classes), "model_fingerprint"])]
        predicted, probs = bundle.predict(list(corpus.issues))
        for issue, label, row in zip(corpus.issues, predicted, probs):
            lines.append("\t".join(
                [issue.id, label, *(_format_float(p) for p in row), fingerprint]))
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote predictions for {len(corpus)} issues to {out}")
    return out, [Path(args.input), Path(args.model)], [out]


def cmd_evaluate(args) -> RunFiles:
    report_path = Path(args.report)
    corpus = _load_input_corpus(args.input, args.strict)
    maps = labelmap.load_label_maps()
    spec = args.spec
    outputs = [report_path]
    if args.mode == "cv":
        doc = evalkit.cross_validate(corpus, spec, args.cv_folds, maps)
        print(f"cv accuracy: {doc['mean']['accuracy']:.3f} "
              f"(+/- {doc['std']['accuracy']:.3f})")
    elif args.mode == "project":
        doc = evalkit.evaluate_project_based(corpus, spec, maps)
        per_repo = sorted(doc["per_repo"].items())
        for repo, rep in per_repo:
            print(f"{repo:<40} accuracy={rep['accuracy']:.3f} n={rep['n']}")
        for repo, reason in sorted(doc["skipped"].items()):
            print(f"{repo:<40} skipped: {reason}")
        print(f"mean accuracy: {doc['aggregate']['mean_of_repo_accuracies']:.3f}  "
              f"pooled accuracy: {doc['aggregate']['pooled_micro_accuracy']:.3f}")
        if args.emit_csv:
            csv_path = report_path.with_suffix(".csv")
            metrics = [evalkit.report_metrics(rep) for _, rep in per_repo]
            rows = [",".join(["repo", "n", *(key.replace(":", "_") for key in metrics[0])])]
            rows += [",".join([repo, str(rep["n"]), *map(_format_float, values.values())])
                     for (repo, rep), values in zip(per_repo, metrics)]
            csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
            outputs.append(csv_path)
    else:
        doc = evalkit.evaluate_cross_project(corpus, spec, maps)
        print(f"cross-project accuracy: {doc['accuracy']:.3f} on "
              f"{len(doc['metadata']['test_repos'])} held-out repos")
        for cls, rep in doc["per_class"].items():
            print(f"  {cls:<6} precision={rep['precision']:.3f} recall={rep['recall']:.3f} "
                  f"f1={rep['f1']:.3f} support={rep['support']}")
    learn.write_json(report_path, doc)
    return report_path, [Path(args.input)], outputs


def cmd_agreement(args) -> RunFiles:
    from . import agreement as agreement_mod
    report_path = Path(args.report)
    matrix = agreement_mod.load_rating_matrix(args.ratings)
    doc = agreement_mod.compute_agreement_by_group(matrix, mode=args.agreement_mode)
    learn.write_json(report_path, doc)
    overall = doc["overall"]
    print(f"percent agreement: {overall['percent_agreement']:.3f}")
    print(f"randolph kappa:    {overall['randolph_kappa']:.3f} ({overall['band']})")
    if overall["fleiss_kappa"] is not None:
        print(f"fleiss kappa:      {overall['fleiss_kappa']:.3f}")
    if overall["outlier_raters"]:
        print(f"outlier raters:    {', '.join(overall['outlier_raters'])}")
    return report_path, [Path(args.ratings)], [report_path]


# ---------------------------------------------------------------------------
# Argument parsing

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise SettingError(message)


# dest -> option string and argparse settings; a flag's value when not given
# is in READS, since it differs between commands
FLAGS = {
    "config": ("--config", dict(help="JSON config file")),
    "seed": ("--seed", dict(type=int, help="master RNG seed")),
    "strict": ("--strict", dict(action="store_true",
                                help="fail on the first malformed corpus line")),
    "refresh": ("--refresh", dict(action="store_true",
                                  help="bypass the response cache when fetching")),
    "emit_csv": ("--emit-csv", dict(action="store_true",
                                    help="also write per-repo results as CSV")),
    "repo": ("--repo", dict(required=True)),
    "state": ("--state", dict(choices=["open", "closed", "all"])),
    "input": ("--in", dict(required=True)),
    "ratings": ("--ratings", dict(required=True)),
    "model": ("--model", dict(required=True)),
    "mode": ("--mode", dict(required=True, choices=["cv", "project", "cross-project"])),
    "agreement_mode": ("--mode", dict(choices=["pairwise", "majority"])),
    "out": ("--out", dict(required=True)),
    "report": ("--report", dict(required=True)),
    "cache_dir": ("--cache-dir", {}),
    "parallel": ("--parallel", dict(type=int)),
    "no_pull_requests": ("--no-pull-requests", dict(action="store_true")),
    "created_before": ("--created-before", dict(type=parse_ts, help="ISO-8601 timestamp")),
    "classifier": ("--classifier", dict(choices=learn.KINDS)),
    "balancing": ("--balancing", dict(choices=evalkit.BALANCING)),
    "weights_i": ("--weights-i", dict(type=int)),
    "stage1": ("--stage1", dict(choices=evalkit.STAGE1_SOURCES)),
    "objective_probs": ("--objective-probs",
                        dict(help="objective probability file; it replaces stage one")),
    "tune": ("--tune", dict(type=int, help="random-search budget (0 disables tuning)")),
    "tune_metric": ("--tune-metric", dict(choices=evalkit.TUNE_METRICS)),
    "cv_folds": ("--cv-folds", dict(type=int)),
}

_RUN = {"config": None, "seed": None}
_CORPUS = {**_RUN, "strict": False, "input": None}
_TRAIN = {**_CORPUS, **dict.fromkeys(("model", *_FLAG_FIELDS, "objective_probs")), "tune": 0}
_EVALUATE = {**_CORPUS, **dict.fromkeys(("mode", "report", *_FLAG_FIELDS))}

# each command, evaluate mode and train-priority --tune setting -> every flag
# it reads -> that flag's value when not given (None for a required one)
READS = {
    "fetch": {**_RUN, "refresh": False, "repo": None, "state": "closed", "out": None,
              "cache_dir": None, "parallel": 4, "no_pull_requests": False, "created_before": None},
    "preprocess": {**_CORPUS, "out": None},
    "features": {**_CORPUS, "out": None},
    "train-objective": {**_CORPUS, "model": None, "stage1": None},
    "train-priority --tune 0": _TRAIN,
    "train-priority --tune": {**_TRAIN, "tune_metric": "accuracy", "cv_folds": 3},
    "predict": {**_CORPUS, "model": None, "out": None, "objective_probs": None},
    "evaluate --mode cv": {**_EVALUATE, "cv_folds": 5},
    "evaluate --mode project": {**_EVALUATE, "emit_csv": False},
    "evaluate --mode cross-project": _EVALUATE,
    "agreement": {**_RUN, "ratings": None, "report": None, "agreement_mode": "pairwise"},
}


def build_parser() -> argparse.ArgumentParser:
    # SUPPRESS everywhere: a flag not given stays out of the namespace, so main can
    # refuse what was given, and a command's copy of a global flag keeps its value
    parser = _Parser(prog="issuetriage", argument_default=argparse.SUPPRESS,
                     description="Classify issue objectives and predict priorities.")
    flags = [(parser, ("config", "seed", "strict", "refresh", "emit_csv"))]
    sub = parser.add_subparsers(dest="command", metavar="command", parser_class=_Parser)
    for command, (_, help_text) in _COMMANDS.items():
        flags.append((sub.add_parser(command, help=help_text, argument_default=argparse.SUPPRESS),
                      {dest for key, reads in READS.items() if key.split()[0] == command
                       for dest in reads}))
    for p, dests in flags:
        for dest, (option, settings) in FLAGS.items():
            if dest in dests:
                p.add_argument(option, dest=dest, **settings)
    return parser


_COMMANDS = {
    "fetch": (cmd_fetch, "fetch and hydrate issues from the REST API"),
    "preprocess": (cmd_preprocess, "filter a corpus"),
    "features": (cmd_features, "dump the assembled feature matrix"),
    "train-objective": (cmd_train_objective, "train the stage-one objective model"),
    "train-priority": (cmd_train_priority, "train the stage-two priority model"),
    "predict": (cmd_predict, "score a corpus with a trained model"),
    "evaluate": (cmd_evaluate, "run an experiment protocol"),
    "agreement": (cmd_agreement, "inter-rater agreement statistics"),
}


def _command_errors() -> tuple[type[Exception], ...]:
    """``fetch``'s and ``agreement``'s runtime errors, imported only while an
    error is being handled: no other command imports those modules."""
    from . import agreement, ingest
    return ingest.IngestError, agreement.RatingMatrixError


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
        key = args.command
        if key == "evaluate":
            key += f" --mode {args.mode}"
        elif key == "train-priority":
            key += " --tune" if getattr(args, "tune", 0) else " --tune 0"
        refused = [option for dest, (option, _) in FLAGS.items()
                   if dest in vars(args) and dest not in READS[key]]
        if refused:
            raise SettingError(f"{key} does not read {', '.join(refused)}")
        for dest, default in READS[key].items():
            vars(args).setdefault(dest, default)
        config = load_config(args.config)
        if args.seed is None:
            args.seed = config.get("seed", 0)
        # the run settings, read and checked once, before any input is read
        if hasattr(args, "cv_folds"):
            learn.checked_int("--cv-folds", args.cv_folds, 2)
        learn.checked_int("--tune", getattr(args, "tune", 0), 0)
        args.spec = model_spec_from(config, args)
        args.cache = _section(config, "paths", ["cache"]).get("cache", ".cache")
        if not isinstance(args.cache, str):
            raise SettingError(f"config paths.cache must be a string, got {args.cache!r}")
        args.space = search_space_from(config)
        unread = getattr(args, "tune", 0) and sorted(
            set(args.space) - evalkit.hyperparams_read(args.spec))
        if unread:
            raise SettingError(f"search space {', '.join(unread)}: not read by the "
                               f"{args.spec.classifier} classifier under "
                               f"{args.spec.balancing} balancing")
        args.rules = FilterConfig(**_section(config, "filter",
                                             [f.name for f in fields(FilterConfig)]))
        for attr in ("input", "ratings"):
            value = getattr(args, attr, None)
            if value and not Path(value).is_file():
                raise SettingError(f"input file not found: {value}")
        primary, inputs, outputs = _COMMANDS[args.command][0](args)
        command = f"evaluate:{args.mode}" if args.command == "evaluate" else args.command
        write_manifest(primary, command, config, args.seed, inputs, outputs)
        return EXIT_OK
    except SettingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CorpusError, TrainingError, ChecksumMismatchError, OSError,
            *_command_errors()) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
