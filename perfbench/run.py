"""Benchmark runner: runs ``issuetriage.cli`` commands and reports metrics.

One workload per invocation. Ops run as child processes, one at a time (a
closed loop with one client), until ``--seconds`` have passed; at least one
op always runs. Every op's outputs are checked. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
of one extra traced op with ``--trace 1``.

Usage (from the repository root):
    python3 perfbench/run.py --workload train-2k --seed 1 --seconds 30 --trace 0

See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen_corpus

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURE = ROOT / "tests" / "fixtures" / "planted_corpus.jsonl"
WORK = ROOT / ".perfbench_work"
REQUIRED = (SRC / "issuetriage" / "cli.py", FIXTURE,
            ROOT / "tests" / "fixtures" / "gen_planted_corpus.py")

SETUP_REPEATS = 3
RUN_BUDGET_S = 170.0  # every child is killed past this point, so a run ends in time
PRIORITY_CLASSES = ("High", "Low")
KB = float(1 << 10)

# criterion 09 of the acceptance suite
XPROJ_CONFIG = {"seed": 11, "model": {
    "classifier": "forest", "balancing": "weights",
    "hyperparams": {"n_trees": 100, "max_depth": 12, "max_features": 128}}}
BASELINE_MARGIN = 0.10
# train-2k: 8 repos x 250 issues, 40 pseudo-words from a 20k pool
SYNTH = {"repos": 8, "issues_per_repo": 250, "pool": 20_000, "words": 40}
SYNTH_CONFIG = {"seed": 11, "model": {
    "classifier": "forest", "balancing": "weights",
    "hyperparams": {"n_trees": 20, "max_depth": 12}}}

END_TO_END_UNITS = {
    "wall_s": "s", "issues_per_s": "issues/s", "peak_rss_mb": "MB",
    "accuracy": "ratio", "macro_f1": "ratio", "artifact_kb": "KB", "setup_s": "s",
}


# ---------------------------------------------------------------------------
# Child processes

@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


class Runner:
    """Starts CLI children one at a time and reaps each with ``os.wait4``, so
    the peak RSS read is that child's own, not the maximum over all past
    children that ``getrusage(RUSAGE_CHILDREN)`` would give."""

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, args: list[str], log: Path, traced_out: Path | None = None) -> Child:
        if traced_out is None:
            argv = [sys.executable, "-m", "issuetriage.cli", *args]
        else:
            argv = [sys.executable, str(BENCH / "layertrace.py"),
                    "--out", str(traced_out), "--", *args]
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out,
                                    stderr=subprocess.STDOUT)
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / KB)

    def record(self, what: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors += [f"{what}: {e}" for e in errors]

    def exit_errors(self, child: Child, log: Path) -> list[str]:
        if child.code == 0:
            return []
        tail = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
        return [f"exit code {child.code}: {' | '.join(tail)}"]


def checked(check, *args) -> tuple[list[str], dict]:
    """Run an output check; an output it cannot even parse fails it."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"], {}


def _sha256(paths: list[Path]) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _kb(paths: list[Path]) -> float:
    return sum(p.stat().st_size for p in paths) / KB


# ---------------------------------------------------------------------------
# Output checks

def macro_f1(truth: list[str], predicted: list[str]) -> float:
    """Mean F1 over High and Low; an empty denominator scores 0."""
    scores = []
    for cls in PRIORITY_CLASSES:
        tp = sum(t == cls and p == cls for t, p in zip(truth, predicted))
        fp = sum(t != cls and p == cls for t, p in zip(truth, predicted))
        fn = sum(t == cls and p != cls for t, p in zip(truth, predicted))
        denom = 2 * tp + fp + fn
        scores.append(2 * tp / denom if denom else 0.0)
    return sum(scores) / len(scores)


def priority_truth(issues, maps) -> list[str]:
    from issuetriage import labelmap

    return [labelmap.priority_of(i.labels, maps.priority).value for i in issues]


def check_predictions(tsv: Path, issues, truth: list[str], model: Path
                      ) -> tuple[list[str], dict]:
    """One row per input issue in input order, probabilities summing to 1
    within 1e-9, the argmax as the label, and the loaded model's fingerprint."""
    from issuetriage import learn

    fingerprint = learn.load_model(model).fingerprint()
    lines = tsv.read_text(encoding="utf-8").splitlines()
    header = ["issue_id", "predicted", "p_High", "p_Low", "model_fingerprint"]
    if not lines or lines[0].split("\t") != header:
        return [f"header is not {header}"], {}
    rows = [line.split("\t") for line in lines[1:]]
    if len(rows) != len(issues):
        return [f"{len(rows)} prediction rows for {len(issues)} issues"], {}
    errors, predicted = [], []
    for row, issue in zip(rows, issues):
        if len(row) != 5 or row[0] != issue.id:
            errors.append(f"row for {issue.id} reads {row[:1]}")
            continue
        probs = [float(row[2]), float(row[3])]
        if abs(sum(probs) - 1.0) > 1e-9:
            errors.append(f"{issue.id}: probabilities sum to {sum(probs)!r}")
        if row[1] != PRIORITY_CLASSES[probs.index(max(probs))]:
            errors.append(f"{issue.id}: label {row[1]} is not the argmax of {probs}")
        if row[4] != fingerprint:
            errors.append(f"{issue.id}: fingerprint differs from the model's")
        predicted.append(row[1])
        if len(errors) > 5:
            break
    if errors:
        return errors, {}
    accuracy = sum(t == p for t, p in zip(truth, predicted)) / len(truth)
    return [], {"accuracy": accuracy, "macro_f1": macro_f1(truth, predicted)}


# ---------------------------------------------------------------------------
# Workloads

@dataclass
class Op:
    args: list[str]
    outputs: list[Path]  # compared byte for byte across the ops of one run


@dataclass
class Workload:
    """One CLI command on generated inputs. ``prepare`` is the set-up, which
    is repeated and timed as a median."""

    n_issues: int
    state: dict = field(default_factory=dict)

    def prepare(self, d: Path, seed: int) -> None:
        raise NotImplementedError

    def op(self, d: Path) -> Op:
        raise NotImplementedError

    def check(self, d: Path) -> tuple[list[str], dict]:
        """Errors, and the quality numbers read from one op's outputs."""
        raise NotImplementedError

    def after(self, d: Path, runner: Runner, trace: bool) -> tuple[dict, dict]:
        """Quality numbers and layer metrics of an untimed op that follows the
        timed loop (train-2k); ``d`` holds the last op's outputs."""
        return {}, {}


def _write_config(d: Path, config: dict) -> Path:
    path = d / "config.json"
    path.write_text(json.dumps(config, sort_keys=True), encoding="utf-8")
    return path


class XprojPlanted(Workload):
    """Criterion 09: cross-project evaluate on the committed planted fixture.

    The fixture and the spec are fixed, so the seed does not change the
    inputs; the quality gate is the paper's comment-rank baseline."""

    def prepare(self, d: Path, seed: int) -> None:
        from issuetriage import labelmap
        from issuetriage.corpus import load_corpus

        d.mkdir(parents=True)
        corpus_path = d / FIXTURE.name
        shutil.copyfile(FIXTURE, corpus_path)
        shutil.copyfile(f"{FIXTURE}.meta.json", f"{corpus_path}.meta.json")
        corpus, _ = load_corpus(corpus_path, strict=True)
        self.state = {"corpus_path": corpus_path, "corpus": corpus,
                      "maps": labelmap.load_label_maps(),
                      "config": _write_config(d, XPROJ_CONFIG),
                      "sha256": {"planted_corpus": _sha256([corpus_path])}}

    def op(self, d: Path) -> Op:
        report = d / "report.json"
        return Op(["--config", str(self.state["config"]), "evaluate",
                   "--in", str(self.state["corpus_path"]), "--mode", "cross-project",
                   "--report", str(report)], [report])

    def check(self, d: Path) -> tuple[list[str], dict]:
        from issuetriage.learn import rank_baseline

        report_path = d / "report.json"
        report = json.loads(report_path.read_text(encoding="utf-8"))
        test_repos = set(report["metadata"]["test_repos"])
        held_out = [i for i in self.state["corpus"].issues if i.repo in test_repos]
        truth = priority_truth(held_out, self.state["maps"])
        baseline = [p.value for p in rank_baseline(held_out, "comments")]
        baseline_acc = sum(t == b for t, b in zip(truth, baseline)) / len(truth)
        accuracy = report["accuracy"]
        errors = []
        if report["n"] != len(held_out):
            errors.append(f"report scores {report['n']} issues, {len(held_out)} held out")
        if accuracy < baseline_acc + BASELINE_MARGIN:
            errors.append(f"accuracy {accuracy:.3f} < comment baseline "
                          f"{baseline_acc:.3f} + {BASELINE_MARGIN}")
        f1 = [report["per_class"][c]["f1"] for c in PRIORITY_CLASSES]
        return errors, {"accuracy": accuracy, "macro_f1": sum(f1) / len(f1),
                        "artifact_kb": _kb([report_path])}


class Train2k(Workload):
    """``train-priority`` on a 2k training corpus. After the timed loop, the
    written model scores a 2k held-out corpus once, untimed, for the quality
    metrics; in a traced run that predict is traced too, so the artifact-load
    and predict layers are measured. Both corpora come from seeds derived
    from the workload seed."""

    def prepare(self, d: Path, seed: int) -> None:
        from issuetriage import labelmap
        from issuetriage.corpus import load_corpus

        d.mkdir(parents=True)
        sha = {}
        for role, sub_seed in (("train", 2 * seed), ("heldout", 2 * seed + 1)):
            sha[role] = gen_corpus.write_corpus(d / f"{role}.jsonl", seed=sub_seed, **SYNTH)
        heldout, _ = load_corpus(d / "heldout.jsonl", strict=True)
        self.state = {"train": d / "train.jsonl", "heldout": d / "heldout.jsonl",
                      "heldout_issues": heldout.issues,
                      "truth": priority_truth(heldout.issues, labelmap.load_label_maps()),
                      "config": _write_config(d, SYNTH_CONFIG), "sha256": sha}

    def op(self, d: Path) -> Op:
        model = d / "model.json"
        return Op(["--config", str(self.state["config"]), "train-priority",
                   "--in", str(self.state["train"]), "--model", str(model)],
                  [model, Path(f"{model}.assets.json")])

    def check(self, d: Path) -> tuple[list[str], dict]:
        model = d / "model.json"
        assets = Path(f"{model}.assets.json")
        if not model.exists() or not assets.exists():
            return ["model or assets file missing"], {}
        doc = json.loads(model.read_text(encoding="utf-8"))
        n_trees = SYNTH_CONFIG["model"]["hyperparams"]["n_trees"]
        if doc.get("kind") != "forest" or len(doc["params"]["trees"]) != n_trees:
            return [f"model is not a {n_trees}-tree forest"], {}
        return [], {"artifact_kb": _kb([model, assets])}

    def after(self, d: Path, runner: Runner, trace: bool) -> tuple[dict, dict]:
        model = d / "model.json"
        out = d.parent / "heldout_predictions.tsv"
        log = d.parent / "heldout_predict.log"
        layer_file = d.parent / "heldout_layers.json" if trace else None
        child = runner.run(["--config", str(self.state["config"]), "predict",
                            "--model", str(model), "--in", str(self.state["heldout"]),
                            "--out", str(out)], log, traced_out=layer_file)
        errors = runner.exit_errors(child, log)
        quality: dict = {}
        if not errors:
            errors, quality = checked(check_predictions, out, self.state["heldout_issues"],
                                      self.state["truth"], model)
        runner.record("held-out predict", errors)
        layers = {}
        if trace and not errors:
            layers = json.loads(layer_file.read_text(encoding="utf-8"))
        return quality, layers


WORKLOADS = {
    "xproj-planted": lambda: XprojPlanted(200),
    "train-2k": lambda: Train2k(SYNTH["repos"] * SYNTH["issues_per_repo"]),
}


# ---------------------------------------------------------------------------
# One run

def _setup(workload: Workload, work: Path, seed: int) -> float:
    times = []
    for k in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.prepare(work / f"setup{k}", seed)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _measure(workload: Workload, work: Path, seconds: float, runner: Runner,
             trace: bool) -> tuple[dict, dict | None]:
    walls, cpus, rss, quality = [], [], [], {}
    first_hash = None
    start = time.perf_counter()
    k = 0
    while not walls or time.perf_counter() - start < seconds:
        d = work / f"op{k}"
        d.mkdir()
        op = workload.op(d)
        child = runner.run(op.args, d / "cli.log")
        walls.append(child.wall_s)
        cpus.append(child.cpu_s)
        rss.append(child.peak_rss_mb)
        errors = runner.exit_errors(child, d / "cli.log")
        if not errors:
            errors, quality = checked(workload.check, d)
        if not errors:
            digest = _sha256(op.outputs)
            first_hash = first_hash or digest
            if digest != first_hash:
                errors = ["outputs differ from the first op's (not deterministic)"]
        runner.record(f"op {k}", errors)
        k += 1
    wall = statistics.median(walls)
    print(f"wall_s samples: n={len(walls)} median={wall:.4f} max={max(walls):.4f} "
          f"all={[round(w, 4) for w in walls]} cpu={[round(c, 4) for c in cpus]}")

    layers = None
    if trace:
        d = work / "traced"
        d.mkdir()
        op = workload.op(d)
        layer_file = d / "layers.json"
        child = runner.run(op.args, d / "cli.log", traced_out=layer_file)
        errors = runner.exit_errors(child, d / "cli.log")
        if not errors:
            errors, _ = checked(workload.check, d)
        if not errors and first_hash and _sha256(op.outputs) != first_hash:
            errors = ["traced outputs differ from the untraced ones"]
        runner.record("traced op", errors)
        layers = json.loads(layer_file.read_text(encoding="utf-8")) if not errors else {}
        layers["trace.overhead_s"] = child.wall_s - wall
        last = d
    else:
        last = work / f"op{k - 1}"
    more_quality, more_layers = workload.after(last, runner, trace)
    quality.update(more_quality)
    if layers is not None:
        # layers the timed op never reaches are read from the follow-up op
        for name, value in more_layers.items():
            if not layers.get(name):
                layers[name] = value

    metrics = {"wall_s": wall, "issues_per_s": workload.n_issues / wall,
               "peak_rss_mb": statistics.median(rss),
               "accuracy": quality.get("accuracy", 0.0),
               "macro_f1": quality.get("macro_f1", 0.0),
               "artifact_kb": quality.get("artifact_kb", 0.0)}
    return metrics, layers


def _environment() -> str:
    import numpy

    blas = {k: os.environ.get(k, "unset") for k in
            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return (f"python={platform.python_version()} numpy={numpy.__version__} "
            f"nproc={os.cpu_count()} blas_threads={blas}")


def _per_layer_units() -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    # turn a termination request into an exception, so the running child is
    # killed and reaped and the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.exists()]
    if missing:
        print(f"error: not a source checkout, missing {missing}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    runner = Runner(time.monotonic() + RUN_BUDGET_S)
    workload = WORKLOADS[args.workload]()
    try:
        import issuetriage.cli  # noqa: F401  imported before set-up is timed

        print(f"workload {args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace} {_environment()}")
        setup_s = _setup(workload, work, args.seed)
        for role, digest in sorted(workload.state["sha256"].items()):
            print(f"input {role} sha256={digest}")
        metrics, layers = _measure(workload, work, args.seconds, runner,
                                   bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    metrics["setup_s"] = setup_s
    if args.trace:
        units = _per_layer_units()
        reported = {name: {"value": layers.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()}
    else:
        reported = {name: {"value": metrics[name], "unit": unit}
                    for name, unit in END_TO_END_UNITS.items()}
    for name, entry in reported.items():
        print(f"metric {name} {entry['value']!r} {entry['unit']}")
    print(f"ops attempted={runner.attempted} failed={runner.failed} "
          f"fail_ratio={runner.failed / runner.attempted!r}")
    for error in runner.errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
