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
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

DEFAULT_SRC = Path(__file__).resolve().parent.parent / "src"


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
    total = {"code": 0, "docstring": 0, "comment": 0, "blank": 0, "settable": 0}
    for path in sorted(src.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text)
        docs = _docstring_lines(tree)
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            kind = ("docstring" if lineno in docs else "comment" if stripped.startswith("#")
                    else "blank" if not stripped else "code")
            total[kind] += 1
        total["settable"] += _settable(tree)
    return total


def reads_pairs(src: Path) -> int | None:
    sys.path.insert(0, str(src))
    from issuetriage import cli
    reads = getattr(cli, "READS", None)
    return None if reads is None else sum(len(dests) for dests in reads.values())


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else DEFAULT_SRC
    total = counts(src)
    lines = sum(total[k] for k in ("code", "docstring", "comment", "blank"))
    print(f"lines:      {lines}")
    for kind in ("code", "docstring", "comment", "blank"):
        print(f"  {kind + ':':<11} {total[kind]}")
    print(f"settable:   {total['settable']}")
    pairs = reads_pairs(src)
    print(f"READS pairs: {'no READS table' if pairs is None else pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
