"""Per-layer spans and counts, recorded from outside the program.

``LayerTracer`` replaces each traced public function of ``issuetriage`` with
a timing wrapper at every module attribute that holds it, so a function that
one module imports by name (``from .features import fit_feature_pipeline``)
is timed exactly like one looked up through its module. Traced methods are
wrapped on their class. Leaving the ``with`` block puts every original back.

Each span records calls, total time and self time (its duration minus the
time covered by the spans it directly encloses). A few hooks read counts off
arguments and results: rows and bytes of the feature matrix, forest size,
artifact sizes and issues loaded.

Run as a script, it executes one CLI command under tracing and writes the
layer metrics as JSON:

    PYTHONPATH=src python3 perfbench/layertrace.py --out layers.json -- \\
        evaluate --in corpus.jsonl --mode cross-project --report r.json
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path

MB = float(1 << 20)
KB = float(1 << 10)


def _forest_shape(model) -> tuple[int, int]:
    """(node count, deepest leaf depth) over all trees of a forest model."""
    nodes, deepest = 0, 0
    stack = [(tree, 0) for tree in model.params["trees"]]
    while stack:
        node, depth = stack.pop()
        nodes += 1
        if "leaf" in node:
            deepest = max(deepest, depth)
        else:
            stack.append((node["l"], depth + 1))
            stack.append((node["r"], depth + 1))
    return nodes, deepest


def _file_kb(path) -> float:
    return os.path.getsize(path) / KB


# (span name, owner, attribute). The owner is a module path, or a module path
# and class name joined by ":" for methods.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("textnorm.normalize", "issuetriage.textnorm", "normalize_pipeline"),
    ("sentiment.score", "issuetriage.sentiment", "score_all"),
    ("features.fit_pipeline", "issuetriage.features", "fit_feature_pipeline"),
    ("features.fit_tfidf", "issuetriage.features", "fit_tfidf"),
    ("features.transform_tfidf", "issuetriage.features", "transform_tfidf"),
    ("features.extract_metadata", "issuetriage.features", "extract_metadata"),
    ("features.assemble", "issuetriage.features:FeaturePipeline", "assemble"),
    ("evalkit.train_pipeline", "issuetriage.evalkit", "train_pipeline"),
    ("evalkit.vectorize", "issuetriage.evalkit:PriorityPipeline", "vectorize"),
    ("evalkit.stage1_fit", "issuetriage.evalkit", "train_objective_model"),
    ("evalkit.stage1_predict", "issuetriage.evalkit:PriorityPipeline", "objective_probs"),
    ("evalkit.predict", "issuetriage.evalkit:PriorityPipeline", "predict"),
    ("learn.forest_fit", "issuetriage.learn", "fit_random_forest"),
    ("learn.nb_fit", "issuetriage.learn", "fit_multinomial_nb"),
    ("learn.predict_proba", "issuetriage.learn:TrainedModel", "predict_proba"),
    ("learn.save_model", "issuetriage.learn", "save_model"),
    ("learn.load_model", "issuetriage.learn", "load_model"),
    ("cli.save_assets", "issuetriage.cli", "save_assets"),
    ("cli.load_assets", "issuetriage.cli", "load_assets"),
    ("corpus.load", "issuetriage.corpus", "load_corpus"),
    ("labelmap.load", "issuetriage.labelmap", "load_label_maps"),
)

# predict_proba spans carry the model kind as a suffix, since stage one (nb)
# and stage two (forest) are different layers
BY_KIND = "learn.predict_proba"

# Span metric name -> the BENCHMARK.json name of its total time. Self time
# replaces the trailing "_s" with "_self_s"; a suffix (".nb") goes after both.
SPAN_METRICS = {
    "textnorm.normalize": "textnorm.normalize_s",
    "sentiment.score": "sentiment.score_s",
    "features.fit_pipeline": "features.fit_pipeline_s",
    "features.fit_tfidf": "features.fit_tfidf_s",
    "features.transform_tfidf": "features.transform_tfidf_s",
    "features.extract_metadata": "features.extract_metadata_s",
    "features.assemble": "features.assemble_s",
    "evalkit.train_pipeline": "evalkit.train_pipeline_s",
    "evalkit.vectorize": "evalkit.vectorize_s",
    "evalkit.stage1_fit": "evalkit.stage1_fit_s",
    "evalkit.stage1_predict": "evalkit.stage1_predict_s",
    "evalkit.predict": "evalkit.predict_s",
    "learn.forest_fit": "learn.forest_fit_s",
    "learn.nb_fit": "learn.nb_fit_s",
    "learn.predict_proba.nb": "learn.predict_proba_s.nb",
    "learn.predict_proba.forest": "learn.predict_proba_s.forest",
    "learn.save_model": "learn.save_model_s",
    "learn.load_model": "learn.load_model_s",
    "cli.save_assets": "cli.save_assets_s",
    "cli.load_assets": "cli.load_assets_s",
    "corpus.load": "corpus.load_s",
    "labelmap.load": "labelmap.load_s",
}

CALL_METRICS = {
    "textnorm.normalize": "textnorm.normalize_calls",
    "sentiment.score": "sentiment.score_calls",
    "features.transform_tfidf": "features.transform_tfidf_calls",
    "features.extract_metadata": "features.extract_metadata_calls",
    "evalkit.stage1_predict": "evalkit.stage1_predict_calls",
    "learn.predict_proba.nb": "learn.predict_proba_calls.nb",
    "learn.predict_proba.forest": "learn.predict_proba_calls.forest",
}

COUNT_METRICS = (
    "textnorm.normalize_per_issue",
    "features.vocab_title", "features.vocab_desc",
    "features.x_mb", "features.x_density",
    "learn.forest_nodes", "learn.forest_max_depth",
    "cli.model_kb", "cli.assets_kb",
    "corpus.issues_in",
)


def self_name(total_name: str) -> str:
    base, _, suffix = total_name.partition("_s")
    return f"{base}_self_s{suffix}"


def metric_names() -> list[str]:
    """Every layer metric a traced run reports, in a stable order."""
    names = []
    for total in SPAN_METRICS.values():
        names += [total, self_name(total)]
    names += list(CALL_METRICS.values())
    names += list(COUNT_METRICS)
    names.append("trace.overhead_s")
    return names


class LayerTracer:
    """Context manager that installs the wrappers on entry and removes them
    on exit. Not thread-safe: the CLI runs its pipeline on one thread."""

    def __init__(self) -> None:
        self.spans: dict[str, list[float]] = {}  # name -> [calls, total, self]
        self.counts: dict[str, float] = {}
        self._stack: list[list[float]] = []  # [start, child time] per open span
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        import importlib
        import pkgutil

        import issuetriage

        for info in pkgutil.iter_modules(issuetriage.__path__):
            importlib.import_module(f"issuetriage.{info.name}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "issuetriage"
                                         or name.startswith("issuetriage."))]
        try:
            for span, owner, attr in TARGETS:
                module_name, _, class_name = owner.partition(":")
                home = sys.modules[module_name]
                if class_name:
                    cls = getattr(home, class_name)
                    self._swap(cls, attr, self._wrap(span, vars(cls)[attr]))
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(span, original)
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._swap(module, name, wrapper)
        except BaseException:
            self._uninstall()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._uninstall()

    def _swap(self, owner, name: str, wrapper) -> None:
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def _uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def _wrap(self, span: str, fn):
        by_kind = span == BY_KIND
        hook = getattr(self, "_after_" + span.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            name = f"{span}.{args[0].kind}" if by_kind else span
            self._stack.append([time.perf_counter(), 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                start, child = self._stack.pop()
                duration = time.perf_counter() - start
                if self._stack:
                    self._stack[-1][1] += duration
                rec = self.spans.setdefault(name, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += duration
                rec[2] += duration - child
            if hook is not None:
                hook(args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def wrapped_sites(self) -> list[tuple[object, str]]:
        return [(owner, name) for owner, name, _ in self._restore]

    # -- count hooks (run outside the span, so they cost no layer time) -----

    def _count_max(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, 0.0), float(value))

    def _count_add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + float(value)

    def _after_features_fit_pipeline(self, args, pipeline) -> None:
        self._count_max("features.vocab_title", pipeline.tfidf_title.size)
        self._count_max("features.vocab_desc", pipeline.tfidf_desc.size)

    def _after_cli_load_assets(self, args, result) -> None:
        self._after_features_fit_pipeline(args, result[0])
        self._count_add("cli.assets_kb", _file_kb(args[0]))

    def _after_cli_save_assets(self, args, result) -> None:
        self._count_add("cli.assets_kb", _file_kb(args[0]))

    def _after_learn_save_model(self, args, result) -> None:
        self._count_add("cli.model_kb", _file_kb(args[1]))

    def _after_learn_load_model(self, args, result) -> None:
        self._count_add("cli.model_kb", _file_kb(args[0]))

    def _after_evalkit_vectorize(self, args, X) -> None:
        # the largest matrix built is the one that sets peak memory
        if X.nbytes / MB > self.counts.get("features.x_mb", 0.0):
            self.counts["features.x_mb"] = X.nbytes / MB
            self.counts["features.x_density"] = (
                int((X != 0).sum()) / X.size if X.size else 0.0)

    def _after_learn_forest_fit(self, args, model) -> None:
        nodes, depth = _forest_shape(model)
        self._count_add("learn.forest_nodes", nodes)
        self._count_max("learn.forest_max_depth", depth)

    def _after_corpus_load(self, args, result) -> None:
        self._count_add("corpus.issues_in", len(result[0].issues))

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every layer metric except ``trace.overhead_s``, which needs the
        untraced wall time; a layer the run never reached reads 0."""
        out: dict[str, float] = {}
        for span, total in SPAN_METRICS.items():
            _, total_s, self_s = self.spans.get(span, (0, 0.0, 0.0))
            out[total] = total_s
            out[self_name(total)] = self_s
        for span, name in CALL_METRICS.items():
            out[name] = self.spans.get(span, (0, 0.0, 0.0))[0]
        for name in COUNT_METRICS:
            out[name] = self.counts.get(name, 0.0)
        issues = out["corpus.issues_in"]
        out["textnorm.normalize_per_issue"] = (
            out["textnorm.normalize_calls"] / issues if issues else 0.0)
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one CLI command under tracing.")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from issuetriage import cli

    with LayerTracer() as tracer:
        code = cli.main(cli_args)
    args.out.write_text(json.dumps(tracer.metrics(), sort_keys=True) + "\n",
                        encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
