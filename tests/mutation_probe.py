"""Mutants of one package module, each run against the tests.

Run as ``python tests/mutation_probe.py MODULE [--lines A-B] [--tests ARG ...]``,
where ``MODULE`` names a module of ``src/issuetriage`` (``features``). Each
mutant makes one change inside a function body:

- a comparison swapped: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``;
- ``+`` and ``-``, or ``*`` and ``/``, in an expression or an augmented
  assignment;
- ``and`` and ``or``;
- a ``not`` dropped;
- an int constant raised by 1.

The change is made to the module's syntax tree, and the mutant's source is
that tree written out by ``ast.unparse``. ``--lines`` keeps the mutants whose
node starts on those lines of the module as it stands. The bodies of
``learn._on_every_cpu``, ``_take_tickets`` and ``_work_in_child`` are never
mutated: a mutant there can have the parent process run a forked worker's
code, or the worker go on running the tests.

The checkout's ``src``, ``tests`` and ``perfbench`` are copied to a scratch
directory, where each mutant in turn replaces the module and ``python -m
pytest -x`` runs ``--tests`` (by default ``tests`` less criterion 05, the one
slow test). Before the mutants, the unchanged tree, written out the same
way, must pass. A mutant is killed when pytest fails, or when it runs past
``TIMEOUT`` seconds (its whole process group is then stopped). One line per
mutant gives the line, the change and the verdict, naming the first test
that failed; the last line counts them. Stdlib only; pytest does not collect
this file.
"""

from __future__ import annotations

import argparse
import ast
import itertools
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "issuetriage"
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
DEFAULT_TESTS = ["tests", "--deselect",
                 "tests/test_acceptance.py::test_criterion_05_nb_exhaustive_oracle"]
NEVER_MUTATED = {"_on_every_cpu", "_take_tickets", "_work_in_child"}
TIMEOUT = 300.0  # seconds a pytest run may take before it counts as killed

SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Add: ast.Sub, ast.Sub: ast.Add,
         ast.Mult: ast.Div, ast.Div: ast.Mult, ast.And: ast.Or, ast.Or: ast.And}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
           ast.NotEq: "!=", ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
           ast.And: "and", ast.Or: "or"}
FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


@dataclass
class Mutant:
    line: int
    change: str
    source: str


def _function_nodes(tree: ast.Module):
    """Every node inside a function body, less annotations, f-strings and
    the bodies that are never mutated."""
    def walk(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name not in NEVER_MUTATED:
                for statement in node.body:
                    yield from walk(statement, True)
            return
        if isinstance(node, ast.JoinedStr):
            return
        if inside:
            yield node
        for name, value in ast.iter_fields(node):
            if name not in ("annotation", "returns"):
                for child in value if isinstance(value, list) else [value]:
                    if isinstance(child, ast.AST):
                        yield from walk(child, inside)
    yield from walk(tree, False)


def _swapped(op: ast.AST) -> ast.AST:
    return SWAPS[type(op)]()


def _sites(tree: ast.Module):
    """(node, the change in words, the change) for each mutant, where the
    change edits the node and returns the node to put in its place."""
    for node in _function_nodes(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in SWAPS:
            old, new = SYMBOLS[type(node.op)], SYMBOLS[SWAPS[type(node.op)]]
            if isinstance(node, ast.AugAssign):
                old, new = old + "=", new + "="
            yield node, f"{old} -> {new}", lambda n: setattr(n, "op", _swapped(n.op)) or n
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    yield (node, f"{SYMBOLS[type(op)]} -> {SYMBOLS[SWAPS[type(op)]]}",
                           lambda n, i=i: n.ops.__setitem__(i, _swapped(n.ops[i])) or n)
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield node, "not dropped", lambda n: n.operand
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            yield node, f"{node.value} -> {node.value + 1}", lambda n: ast.Constant(n.value + 1)


class _Replace(ast.NodeTransformer):
    def __init__(self, old: ast.AST, new: ast.AST) -> None:
        self.old, self.new = old, new

    def visit(self, node):
        return self.new if node is self.old else self.generic_visit(node)


def mutants(path: Path, lines: range | None) -> list[Mutant]:
    """The mutants of ``path`` whose node starts on ``lines`` (all, if
    None), each written out from its changed syntax tree."""
    text = path.read_text()
    found = []
    for k, (node, what, _) in enumerate(_sites(ast.parse(text))):
        if lines is None or node.lineno in lines:
            tree = ast.parse(text)  # a fresh tree for each mutant
            old, _, change = next(itertools.islice(_sites(tree), k, None))
            tree = _Replace(old, change(old)).visit(tree)
            found.append(Mutant(node.lineno, what, ast.unparse(tree)))
    return found


def run_tests(work: Path, tests: list[str]) -> tuple[bool, str]:
    """(passed, the first failing test or why the run failed) for pytest
    over ``tests`` in ``work``."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider", *tests],
        cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return False, f"timeout after {TIMEOUT:g} s"
    if proc.returncode == 0:
        return True, ""
    failed = FAILED.search(out)
    return False, failed.group(1) if failed else f"pytest exit {proc.returncode}"


def _line_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="a module of src/issuetriage, such as features")
    parser.add_argument("--lines", type=_line_range, help="A-B: mutate only these lines")
    parser.add_argument("--tests", nargs="+", default=DEFAULT_TESTS,
                        help="pytest arguments (default: tests less criterion 05)")
    args = parser.parse_args(argv)
    path = PACKAGE / f"{args.module}.py"
    if not path.is_file():
        parser.error(f"no module {args.module} in {PACKAGE.relative_to(ROOT)}")
    found = mutants(path, args.lines)
    work = Path(tempfile.mkdtemp(prefix="mutation-probe-"))
    try:
        for name in COPIED:
            if (ROOT / name).is_dir():
                shutil.copytree(ROOT / name, work / name, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", ".pytest_cache"))
            else:
                shutil.copy2(ROOT / name, work / name)
        target, killed = work / path.relative_to(ROOT), 0
        target.write_text(ast.unparse(ast.parse(path.read_text())))
        passed, why = run_tests(work, args.tests)
        if not passed:
            print(f"the unchanged copy does not pass: {why}", file=sys.stderr)
            return 2
        for mutant in found:
            target.write_text(mutant.source)
            passed, why = run_tests(work, args.tests)
            killed += not passed
            print(f"{path.name}:{mutant.line}: {mutant.change}: "
                  + ("survived" if passed else f"killed by {why}"), flush=True)
        print(f"{len(found)} mutants: {killed} killed, {len(found) - killed} survived")
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
