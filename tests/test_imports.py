"""Every module-level import in the package is used.

No linter ships with the project, so this walks each module's syntax tree:
a name bound by a top-level ``import`` must be read somewhere in the module,
in code or in a string annotation. ``__init__.py`` is skipped, because its
imports are the package's re-exports.

The same file checks that the text patterns use no regex syntax newer than
the oldest supported Python.
"""

import ast
import re
from pathlib import Path

import pytest

from issuetriage import textnorm

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "issuetriage"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Top-level bound name -> line of its import; ``__future__`` excluded."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    # annotations are strings under ``from __future__ import annotations``
    for node in ast.walk(tree):
        annotation = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used |= _used_names(ast.parse(annotation.value, mode="eval"))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _used_names(tree)
    return [f"line {line}: {name}"
            for name, line in sorted(_imported_names(tree).items(), key=lambda kv: kv[1])
            if name not in used]


def test_checker_flags_an_unused_import():
    source = "import os\nimport sys\nfrom typing import Sequence\nprint(sys.argv)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: Sequence"]


def test_checker_counts_annotations_and_attribute_roots():
    source = ("from __future__ import annotations\nimport numpy as np\n"
              "from typing import Sequence\n"
              "def f(x: Sequence[int]) -> None:\n    return np.sum(x)\n")
    assert unused_imports(source) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# Possessive quantifiers and atomic groups compile only on Python >= 3.11;
# the project supports 3.10.
_PY311_ONLY = re.compile(r"[*+?}]\+|\(\?>")


def py311_only_syntax(pattern: str) -> list[str]:
    """Possessive quantifiers (``*+``, ``++``, ``?+``, ``}+``) and atomic
    groups (``(?>``) in ``pattern``. Escapes and character classes become a
    placeholder first, so ``\\*+`` and ``[-*+]`` are not flagged."""
    plain = re.sub(r"\\.|\[\^?\]?(?:\\.|[^\]\\])*\]", "_", pattern, flags=re.DOTALL)
    return _PY311_ONLY.findall(plain)


def test_checker_flags_py311_only_syntax():
    for pattern in ("a*+", "a++", "a?+", "a{2,}+", "(?>ab)", r"[ab]*+"):
        assert py311_only_syntax(pattern), pattern
    for pattern in (r"\*\*+", r"[-*+]", r"a*\.+", "a+?", "[]+]x", r"(?:a)+", r"[\]*]+"):
        assert py311_only_syntax(pattern) == [], pattern


def test_textnorm_patterns_compile_on_python_310():
    patterns = [value for value in vars(textnorm).values() if isinstance(value, re.Pattern)]
    patterns += [pattern for _, pattern, _ in textnorm.ABSTRACTION_TABLE]
    assert len(patterns) > len(textnorm.ABSTRACTION_TABLE)
    assert {p.pattern: py311_only_syntax(p.pattern) for p in patterns
            if py311_only_syntax(p.pattern)} == {}
