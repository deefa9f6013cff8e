"""Every module-level import in the package is used, and every function,
class and method is reached.

No linter ships with the project, so this walks each module's syntax tree:
a name bound by a top-level ``import`` must be read somewhere in the module,
in code or in a string annotation. ``__init__.py`` is skipped, because its
imports are the package's re-exports. A top-level function or class, or a
method of one, must be named by some code of the package or of
``perfbench``: read as a name or an attribute, imported, or given as a
string that is exactly its name (as ``perfbench/layertrace.py`` names the
functions it traces). Dunder methods are called by Python itself.

The same file checks that the text patterns use no regex syntax newer than
the oldest supported Python.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from issuetriage import textnorm

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "issuetriage"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
PERFBENCH = PACKAGE.parent.parent / "perfbench"

# Reached by no code today, and kept: ROADMAP item 6 wires each into
# ``evaluate``'s reports.
UNREACHED_ON_PURPOSE = {
    "keyword_classify": "the keyword baseline that evaluate is to report",
    "feature_importance": "the top-k Gini importances that evaluate is to report",
    "feature_names": "the column names that feature_importance is to print",
}


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


def _definitions(tree: ast.Module) -> list[str]:
    """Top-level functions and classes, and the methods of those classes
    that are not dunders."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [item.name for item in node.body if isinstance(item, ast.FunctionDef)
                      and not (item.name.startswith("__") and item.name.endswith("__"))]
    return names


def _references(tree: ast.Module) -> set[str]:
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add(node.value)
    return refs


def unreached(sources: dict[str, str], callers: list[str]) -> list[str]:
    """``module.name`` for each definition of the ``sources`` modules that
    neither they nor the ``callers`` sources name."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    refs = set().union(*map(_references, trees.values()),
                       *(_references(ast.parse(source)) for source in callers))
    return [f"{module}.{name}" for module, tree in trees.items()
            for name in _definitions(tree) if name not in refs]


def test_checker_flags_an_unreached_definition():
    sources = {"a": "def used():\n    pass\n\n\ndef unused():\n    return used()\n\n\n"
                    "class Box:\n    def __len__(self):\n        return 0\n\n"
                    "    def size(self):\n        return len(self)\n",
               "b": "from a import Box\n\n\ndef traced():\n    pass\n"}
    assert unreached(sources, []) == ["a.unused", "a.size", "b.traced"]
    assert unreached(sources, ["TARGETS = ('traced',)\nbox.size()\nunused()\n"]) == []


def test_every_definition_is_reached():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    callers = [path.read_text(encoding="utf-8") for path in PERFBENCH.glob("*.py")]
    found = unreached(sources, callers)
    assert {name.rsplit(".", 1)[-1] for name in found} == set(UNREACHED_ON_PURPOSE), found


def loaded_after(code: str, modules: set[str]) -> list[str]:
    """Which of ``modules`` a fresh interpreter has loaded after running ``code``."""
    code += f"; import sys; print(sorted({sorted(modules)!r} & sys.modules.keys()))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.strip())


def test_cli_imports_ingest_and_agreement_only_for_their_commands():
    """Every CLI run imports ``cli``; only ``fetch`` and ``agreement`` need
    ``ingest`` and ``agreement``, so importing ``cli`` loads neither."""
    assert loaded_after("import issuetriage.cli",
                        {"issuetriage.ingest", "issuetriage.agreement"}) == []


def test_forest_fit_loads_no_process_pool():
    """A forest fit forks its workers itself: a process pool (``multiprocessing``,
    ``concurrent.futures``) would copy X to each worker, and costs more memory."""
    code = ("import numpy as np, issuetriage.cli; from issuetriage import learn; "
            "learn.fit_random_forest(np.eye(6), ['a', 'b'] * 3, n_trees=4)")
    assert loaded_after(code, {"multiprocessing", "concurrent.futures"}) == []


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
