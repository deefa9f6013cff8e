"""Command-line entry point.

Subcommands: fetch, preprocess, features, train-objective, train-priority,
predict, evaluate, agreement. A JSON config file provides defaults; flags
override it. Every run writes a reproducibility manifest (config snapshot,
seeds, input checksums) next to its primary output, and all artifacts are
byte-identical across re-runs with the same config and seed.

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
failure. Unusable means a block with a missing key, a value of the wrong
type, a number that is not finite or out of bounds (a negative count, a
``df`` outside [1, ``n_docs``]), a repeated term or sparse index, or an
array whose shape does not fit the model's classes or the assets' widths
(``learn.BLOCKS``).
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
                     save_corpus)
from .evalkit import ModelSpec, PriorityPipeline, train_pipeline
from .features import FeaturePipeline, ScalerParams, TfidfModel
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


class ValidationError(Exception):
    pass


# ---------------------------------------------------------------------------
# Config and manifest plumbing

def load_config(path: str | None) -> dict:
    if not path:
        return {}
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"config file not found: {p}")
    try:
        config = json.loads(p.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"config file {p} is not valid JSON: {exc}")
    if not isinstance(config, dict):
        raise ValidationError(f"config file {p} must hold a JSON object")
    return config


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
    corpus, report = load_corpus(path, strict=strict)
    for lineno, message in report.errors:
        print(f"warning: {path}:{lineno}: {message}", file=sys.stderr)
    return corpus


def _section(doc: dict, name: str, keys: Iterable[str]) -> dict:
    """``doc[name]`` ({} when absent), which must be an object with only ``keys``."""
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise ValidationError(f"config {name} must be an object, got {section!r}")
    for key in section:
        if key not in keys:
            raise ValidationError(f"unknown key {key!r} in config {name}")
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
        if isinstance(entry, dict) and set(entry) == {"low", "high"}:
            entry = (entry["low"], entry["high"])
            if not all(isinstance(end, (int, float)) for end in entry) or entry[0] > entry[1]:
                raise ValidationError(f"search space range for {name} must have "
                                      f"numbers low <= high, got {entry}")
        elif not (isinstance(entry, list) and entry):
            raise ValidationError(f"search space entry for {name} must be a non-empty "
                                  f"list or a low/high object, got {entry!r}")
        for value in entry:
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


def load_assets(path: Path) -> tuple[FeaturePipeline, TrainedModel | None]:
    """The assets' pipeline and stage-one model (None when null); the latter
    must be over the objective classes and take ``stage1_width`` columns."""
    doc = learn.read_artifact(path, ASSETS_FORMAT)
    what = f"{path}: assets"
    learn.require_keys(doc, ("tfidf_title", "tfidf_desc", "scaler"), what)
    maps = labelmap.load_label_maps()
    current = maps.checksums()
    recorded = learn.decode_block(doc, learn.BLOCKS["checksums"], what, {})
    for name, checksum in recorded.get("label_checksums", {}).items():
        if current.get(name) != checksum:
            raise ChecksumMismatchError(
                f"label table {name!r} changed since the assets were built")
    pipeline = FeaturePipeline(
        tfidf_title=TfidfModel.from_doc(doc["tfidf_title"], f"{what} block 'tfidf_title'"),
        tfidf_desc=TfidfModel.from_doc(doc["tfidf_desc"], f"{what} block 'tfidf_desc'"),
        scaler=ScalerParams.from_doc(doc["scaler"], f"{what} block 'scaler'",
                                     {"F": features.N_METADATA_FEATURES}),
        maps=maps,
        lexicon=None,
    )
    if doc.get("stage1_model") is None:
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


def load_probs_file(path: Path) -> dict[str, np.ndarray]:
    """Imported stage-one probabilities: TSV of issue_id and one column per
    objective class."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: cannot read probabilities file: {exc}") from None
    if not lines:
        raise ValidationError(f"{path}: empty probabilities file")
    header = lines[0].split("\t")
    expected = ["issue_id", *learn.OBJECTIVE_CLASS_ORDER]
    if header != expected:
        raise ValidationError(f"{path}: header must be {expected}, got {header}")
    probs = {}
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split("\t")
        if len(cells) != len(expected):
            raise ValidationError(f"{path}:{lineno}: expected {len(expected)} columns")
        try:
            vec = np.array([float(c) for c in cells[1:]])
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: probabilities must be numbers") from None
        if not np.all((vec >= 0.0) & (vec <= 1.0)):  # NaN fails both comparisons
            raise ValidationError(f"{path}:{lineno}: probabilities must lie in [0, 1]")
        if not abs(vec.sum() - 1.0) <= features.PROB_SUM_TOLERANCE:
            raise ValidationError(f"{path}:{lineno}: probabilities sum to {vec.sum()}")
        probs[cells[0]] = vec
    return probs


# ---------------------------------------------------------------------------
# Commands

def cmd_fetch(args, config) -> int:
    from . import ingest
    out = Path(args.out)
    cfg = ingest.ClientConfig(
        cache_dir=Path(args.cache_dir or args.cache),
        max_parallel_requests=args.parallel,
        refresh=args.refresh,
    )
    query = ingest.FetchQuery(repo=args.repo, state=args.state,
                              include_pull_requests=not args.no_pull_requests,
                              created_before=args.created_before)
    client = ingest.IssueClient(cfg)
    issues = ingest.fetch_issues(cfg, query, client=client)
    corpus, failures = ingest.hydrate(
        cfg, issues, client=client,
        provenance={"source": f"api:{args.repo}", "state": query.state})
    save_corpus(corpus, out)
    for failure in failures:
        print(f"warning: issue {failure.issue_id}: {failure.resource}: {failure.error}",
              file=sys.stderr)
    print(f"fetched {len(corpus)} issues from {args.repo} "
          f"({client.network_requests} network requests)")
    write_manifest(out, "fetch", config, args.seed, [], [out])
    return EXIT_OK


def cmd_preprocess(args, config) -> int:
    out = Path(args.out)
    corpus = _load_input_corpus(args.input, args.strict)
    maps = labelmap.load_label_maps()
    filtered, report = filter_corpus(corpus, args.rules, cluster_of=maps.clusters.cluster_of)
    save_corpus(filtered, out)
    learn.write_json(Path(str(out) + ".report.json"), report.as_dict())
    print(f"kept {len(filtered)} / {len(corpus)} issues "
          f"(removed: {report.as_dict()})")
    write_manifest(out, "preprocess", config, args.seed, [Path(args.input)], [out])
    return EXIT_OK


def _format_float(x: float) -> str:
    return format(float(x), ".12g")


def cmd_features(args, config) -> int:
    out = Path(args.out)
    corpus = _load_input_corpus(args.input, args.strict)
    maps = labelmap.load_label_maps()
    if not len(corpus):
        out.write_text("", encoding="utf-8")
        write_manifest(out, "features", config, args.seed, [Path(args.input)], [out])
        print("empty corpus; wrote empty matrix")
        return EXIT_OK
    bundle = evalkit.fit_preprocessing(corpus.issues, args.spec, maps)
    for note in bundle.notes:
        print(f"note: {note}", file=sys.stderr)
    header = ["issue_id"]
    header += [f"nf:{n}" for n in features.FEATURE_NAMES]
    header += [f"lf:{rep}" for rep in maps.clusters.representatives]
    header += ["tf"]
    fp, issues = bundle.feature_pipeline, corpus.issues
    title_docs, desc_docs, probs, lf, nf = fp.blocks(issues, [bundle.objective_probs(i)
                                                              for i in issues])
    tf: list[list[str]] = [[] for _ in issues]  # each row's "column:value" cells
    for model, docs, offset in ((fp.tfidf_title, title_docs, 0),
                                (fp.tfidf_desc, desc_docs, fp.tfidf_title.size)):
        lengths, cols, values = features.transform_tfidf(model, docs)
        cuts = np.cumsum(lengths)[:-1]
        for cells, c, v in zip(tf, np.split(cols + offset, cuts), np.split(values, cuts)):
            cells += map("{}:{}".format, c.tolist(), map(_format_float, v.tolist()))
    lines = ["\t".join(header)]
    for issue, cells, p_row, lf_row, nf_row in zip(issues, tf, probs.tolist(), lf.tolist(),
                                                   nf.tolist()):
        cells += map("{}:{}".format, range(fp.stage1_width, fp.width), map(_format_float, p_row))
        lines.append("\t".join([issue.id, *map(_format_float, nf_row), *map(str, lf_row),
                                " ".join(cells)]))
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote feature matrix for {len(corpus)} issues to {out}")
    write_manifest(out, "features", config, args.seed, [Path(args.input)], [out])
    return EXIT_OK


def cmd_train_objective(args, config) -> int:
    if args.spec.stage1 == "uniform":
        raise ValidationError("train-objective needs a stage-one model: stage1 must be "
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
    write_manifest(out, "train-objective", config, args.seed,
                   [Path(args.input)], [out, assets_path_for(out)])
    return EXIT_OK


def cmd_train_priority(args, config) -> int:
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
            issues, spec, maps, args.space, budget=args.tune,
            cv_folds=args.cv_folds, probs_file=probs_file,
            objective=evalkit.macro_f1 if args.tune_metric == "macro-f1" else None)
        spec = replace(spec, hyperparams={**spec.hyperparams, **best})
        learn.write_json(Path(str(out) + ".search.json"), {"best": best, "trace": trace})
    bundle = train_pipeline(issues, spec, maps, probs_file=probs_file)
    learn.save_model(bundle.classifier, out)
    save_assets(assets_path_for(out), bundle.feature_pipeline, bundle.stage1_model)
    for note in bundle.notes:
        print(f"note: {note}", file=sys.stderr)
    print(f"trained priority {bundle.classifier.kind} model on {len(issues)} issues -> {out}")
    write_manifest(out, "train-priority", config, args.seed,
                   [Path(args.input)], [out, assets_path_for(out)])
    return EXIT_OK


def cmd_predict(args, config) -> int:
    out = Path(args.out)
    if not Path(args.model).exists():
        raise ValidationError(f"model file not found: {args.model}")
    model = learn.load_model(args.model)
    pipeline, stage1 = load_assets(assets_path_for(Path(args.model)))
    model.verify_assets(pipeline.fingerprints())
    stage_one = model.classes == learn.OBJECTIVE_CLASS_ORDER
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
        bundle = PriorityPipeline(pipeline, classifier=model, stage1_model=stage1)
        lines = ["\t".join(["issue_id", "predicted",
                            *(f"p_{c}" for c in model.classes), "model_fingerprint"])]
        if len(corpus):
            predicted, probs = bundle.predict(list(corpus.issues), probs_file)
            for issue, label, row in zip(corpus.issues, predicted, probs):
                lines.append("\t".join(
                    [issue.id, label, *(_format_float(p) for p in row), fingerprint]))
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote predictions for {len(corpus)} issues to {out}")
    write_manifest(out, "predict", config, args.seed,
                   [Path(args.input), Path(args.model)], [out])
    return EXIT_OK


def cmd_evaluate(args, config) -> int:
    report_path = Path(args.report)
    corpus = _load_input_corpus(args.input, args.strict)
    maps = labelmap.load_label_maps()
    spec = args.spec
    outputs = [report_path]
    if args.mode == "cv":
        result = evalkit.cross_validate(corpus, spec, k=args.cv_folds,
                                        seed=args.seed, maps=maps)
        doc = result.as_dict()
        print(f"cv accuracy: {result.mean['accuracy']:.3f} "
              f"(+/- {result.std['accuracy']:.3f})")
    elif args.mode == "project":
        result = evalkit.evaluate_project_based(corpus, spec, maps=maps)
        doc = result.as_dict()
        for repo, rep in sorted(result.per_repo.items()):
            print(f"{repo:<40} accuracy={rep.accuracy:.3f} n={rep.n}")
        for repo, reason in sorted(result.skipped.items()):
            print(f"{repo:<40} skipped: {reason}")
        print(f"mean accuracy: {result.mean_accuracy:.3f}  "
              f"pooled accuracy: {result.pooled_accuracy:.3f}")
        if args.emit_csv:
            csv_path = report_path.with_suffix(".csv")
            rows = ["repo,n,accuracy," + ",".join(
                f"{m}_{c}" for c in learn.PRIORITY_CLASS_ORDER
                for m in ("precision", "recall", "f1"))]
            for repo, rep in sorted(result.per_repo.items()):
                cells = [repo, str(rep.n), _format_float(rep.accuracy)]
                for cls in learn.PRIORITY_CLASS_ORDER:
                    c = rep.per_class[cls]
                    cells += [_format_float(c.precision), _format_float(c.recall),
                              _format_float(c.f1)]
                rows.append(",".join(cells))
            csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
            outputs.append(csv_path)
    elif args.mode == "cross-project":
        report = evalkit.evaluate_cross_project(corpus, spec, seed=args.seed, maps=maps)
        doc = report.as_dict()
        print(f"cross-project accuracy: {report.accuracy:.3f} on "
              f"{len(report.metadata['test_repos'])} held-out repos")
        for cls, rep in report.per_class.items():
            print(f"  {cls:<6} precision={rep.precision:.3f} recall={rep.recall:.3f} "
                  f"f1={rep.f1:.3f} support={rep.support}")
    else:
        raise ValidationError(f"unknown evaluate mode {args.mode!r}")
    learn.write_json(report_path, doc)
    write_manifest(report_path, f"evaluate:{args.mode}", config, args.seed,
                   [Path(args.input)], outputs)
    return EXIT_OK


def cmd_agreement(args, config) -> int:
    from . import agreement as agreement_mod
    report_path = Path(args.report)
    matrix = agreement_mod.load_rating_matrix(args.ratings)
    reports = agreement_mod.compute_agreement_by_group(matrix, mode=args.agreement_mode)
    doc = {name: rep.as_dict() for name, rep in reports.items()}
    learn.write_json(report_path, doc)
    overall = reports["overall"]
    print(f"percent agreement: {overall.percent_agreement:.3f}")
    print(f"randolph kappa:    {overall.randolph_kappa:.3f} ({overall.band})")
    if overall.fleiss_kappa is not None:
        print(f"fleiss kappa:      {overall.fleiss_kappa:.3f}")
    if overall.outliers:
        print(f"outlier raters:    {', '.join(overall.outliers)}")
    write_manifest(report_path, "agreement", config, args.seed,
                   [Path(args.ratings)], [report_path])
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise ValidationError(message)


def _add_global_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # attached to the main parser and to every subcommand so the flags work
    # in either position; SUPPRESS keeps the subcommand copy from clobbering
    # a value given before the command name
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--config", default=d, help="JSON config file")
    parser.add_argument("--seed", type=int, default=d, help="master RNG seed")
    parser.add_argument("--strict", action="store_true",
                        default=argparse.SUPPRESS if suppress else False,
                        help="fail on the first malformed corpus line")
    parser.add_argument("--refresh", action="store_true",
                        default=argparse.SUPPRESS if suppress else False,
                        help="bypass the response cache when fetching")
    parser.add_argument("--emit-csv", action="store_true", dest="emit_csv",
                        default=argparse.SUPPRESS if suppress else False,
                        help="also write per-repo results as CSV")


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    # no defaults here: an absent flag leaves the config or ModelSpec value
    parser.add_argument("--classifier", choices=evalkit.CLASSIFIERS)
    parser.add_argument("--balancing", choices=evalkit.BALANCING)
    parser.add_argument("--weights-i", dest="weights_i", type=int)
    parser.add_argument("--stage1", choices=evalkit.STAGE1_SOURCES)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="issuetriage",
                     description="Classify issue objectives and predict priorities.")
    _add_global_flags(parser, suppress=False)
    common = _Parser(add_help=False)
    _add_global_flags(common, suppress=True)
    sub = parser.add_subparsers(dest="command", metavar="command",
                                parser_class=_Parser)

    p = sub.add_parser("fetch", parents=[common],
                       help="fetch and hydrate issues from the REST API")
    p.add_argument("--repo", required=True)
    p.add_argument("--state", default="closed", choices=["open", "closed", "all"])
    p.add_argument("--out", required=True)
    p.add_argument("--cache-dir", dest="cache_dir")
    p.add_argument("--parallel", type=int, default=4)
    p.add_argument("--no-pull-requests", action="store_true")
    p.add_argument("--created-before")

    p = sub.add_parser("preprocess", parents=[common], help="filter a corpus")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("features", parents=[common], help="dump the assembled feature matrix")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train-objective", parents=[common], help="train the stage-one objective model")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--stage1", choices=evalkit.STAGE1_SOURCES)

    p = sub.add_parser("train-priority", parents=[common], help="train the stage-two priority model")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--model", required=True)
    _add_model_flags(p)
    p.add_argument("--objective-probs", dest="objective_probs",
                   help="objective probability file; it replaces stage one")
    p.add_argument("--tune", type=int, default=0,
                   help="random-search budget (0 disables tuning)")
    p.add_argument("--tune-metric", dest="tune_metric", default="accuracy",
                   choices=["accuracy", "macro-f1"])
    p.add_argument("--cv-folds", dest="cv_folds", type=int, default=3)

    p = sub.add_parser("predict", parents=[common], help="score a corpus with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--objective-probs", dest="objective_probs")

    p = sub.add_parser("evaluate", parents=[common], help="run an experiment protocol")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--mode", required=True, choices=["cv", "project", "cross-project"])
    p.add_argument("--report", required=True)
    p.add_argument("--cv-folds", dest="cv_folds", type=int, default=5)
    _add_model_flags(p)

    p = sub.add_parser("agreement", parents=[common], help="inter-rater agreement statistics")
    p.add_argument("--ratings", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--mode", dest="agreement_mode", default="pairwise",
                   choices=["pairwise", "majority"])
    return parser


_COMMANDS = {
    "fetch": cmd_fetch,
    "preprocess": cmd_preprocess,
    "features": cmd_features,
    "train-objective": cmd_train_objective,
    "train-priority": cmd_train_priority,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "agreement": cmd_agreement,
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
            raise ValidationError(f"config paths.cache must be a string, got {args.cache!r}")
        args.space = search_space_from(config)
        args.rules = FilterConfig(**_section(config, "filter",
                                             [f.name for f in fields(FilterConfig)]))
        for attr in ("input", "ratings"):
            value = getattr(args, attr, None)
            if value and not Path(value).exists():
                raise ValidationError(f"input file not found: {value}")
        return _COMMANDS[args.command](args, config)
    except (ValidationError, SettingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CorpusError, TrainingError, ChecksumMismatchError, *_command_errors()) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
