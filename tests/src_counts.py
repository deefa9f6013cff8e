"""Counts of the package source that CHANGES.md reports for each change.

Run as ``python tests/src_counts.py [src-dir]`` (default: this checkout's
``src``). It prints:

- the lines of every ``*.py`` file under ``src-dir``, split four ways:
  docstring lines are every line of a module, class or function docstring,
  as the syntax tree places them (a blank line inside one counts as
  docstring); comment lines are the other lines whose first non-blank
  character is ``#``; blank lines are the other empty lines; code lines are
  the rest, a line with code and a trailing comment included;
- settable values: each parameter with a default (of a function, method or
  lambda, keyword-only ones included), plus each field with a value in the
  body of a dataclass or a ``NamedTuple`` (a ``field(init=False)`` is none,
  since no caller can set it);
- the (key, flag) pairs of ``issuetriage.cli.READS``, the command lines
  that the CLI accepts and acts on, when the package has that table.

Run as ``python tests/src_counts.py PARENT_SRC CHANGE_SRC`` to compare two
trees: each count for the parent, for the change and their difference, with
the settable values also split by module. Each tree's ``READS`` is read in
an interpreter of its own, so neither is read from the other's modules.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

DEFAULT_SRC = Path(__file__).resolve().parent.parent / "src"
LINE_KINDS = ("code", "docstring", "comment", "blank")


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def _is_record(node: ast.ClassDef) -> bool:
    """A dataclass, or a ``NamedTuple`` subclass."""
    names = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return (any(getattr(n, "id", getattr(n, "attr", None)) == "dataclass" for n in names)
            or any(getattr(b, "id", getattr(b, "attr", None)) == "NamedTuple"
                   for b in node.bases))


def _settable(tree: ast.Module) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.arguments):
            count += len(node.defaults) + sum(d is not None for d in node.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_record(node):
            for stmt in node.body:
                if not (isinstance(stmt, ast.AnnAssign) and stmt.value is not None):
                    continue
                value = stmt.value
                init_false = (isinstance(value, ast.Call) and getattr(value.func, "id", "") == "field"
                              and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                                      and k.value.value is False for k in value.keywords))
                count += not init_false
    return count


def counts(src: Path) -> dict[str, int]:
    """The line and settable counts of ``src``, and each module's settable
    count under ``settable <module path>``."""
    total = dict.fromkeys(LINE_KINDS + ("settable",), 0)
    for path in sorted(src.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        docs = _docstring_lines(tree)
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            kind = ("docstring" if lineno in docs else "comment" if stripped.startswith("#")
                    else "blank" if not stripped else "code")
            total[kind] += 1
        settable = _settable(tree)
        total["settable"] += settable
        total[f"settable {path.relative_to(src).as_posix()}"] = settable
    return total


def reads_pairs(src: Path) -> int | None:
    code = ("from issuetriage import cli; reads = getattr(cli, 'READS', None); "
            "print(None if reads is None else sum(len(dests) for dests in reads.values()))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                          text=True, check=True, env=dict(os.environ, PYTHONPATH=str(src)))
    return ast.literal_eval(proc.stdout.strip())


def rows(src: Path) -> dict[str, int | None]:
    """Each printed count of ``src`` by its label, in print order."""
    total = counts(src)
    out = {"lines:": sum(total[k] for k in LINE_KINDS)}
    out.update((f"  {kind}:", total[kind]) for kind in LINE_KINDS)
    out["settable:"] = total["settable"]
    out.update((f"  {key.split(' ', 1)[1]}:", n) for key, n in total.items()
               if key.startswith("settable "))
    out["READS pairs:"] = reads_pairs(src)
    return out


def main(argv: list[str]) -> int:
    if len(argv) == 2:
        parent, change = map(rows, map(Path, argv))
        labels = list(dict.fromkeys([*parent, *change]))
        width = max(map(len, labels))
        print(f"{'':<{width}} {'parent':>8} {'change':>8} {'diff':>8}")
        for label in labels:
            old, new = parent.get(label, 0), change.get(label, 0)
            diff = "" if None in (old, new) else f"{new - old:+d}"
            print(f"{label:<{width}} {old!s:>8} {new!s:>8} {diff:>8}")
        return 0
    src = Path(argv[0]) if argv else DEFAULT_SRC
    total = counts(src)
    lines = sum(total[k] for k in LINE_KINDS)
    print(f"lines:      {lines}")
    for kind in LINE_KINDS:
        print(f"  {kind + ':':<11} {total[kind]}")
    print(f"settable:   {total['settable']}")
    pairs = reads_pairs(src)
    print(f"READS pairs: {'no READS table' if pairs is None else pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
