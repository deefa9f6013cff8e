"""Every module-level import in the package is used, every function,
class and method is reached, and every defaulted parameter is passed.

No linter ships with the project, so this walks each module's syntax tree:
a name bound by a top-level ``import`` must be read somewhere in the module,
in code or in a string annotation. ``__init__.py`` is skipped, because its
imports are the package's re-exports. A top-level function or class, or a
method of one, must be named by some code of the package or of
``perfbench``: read as a name or an attribute, imported, or given as a
string that is exactly its name (as ``perfbench/layertrace.py`` names the
functions it traces). Dunder methods are called by Python itself.

A parameter with a default must be passed by some call in the package or in
``perfbench``, by position or by keyword; a default that no call changes is a
constant in disguise. Calls are matched by the called name alone, and a
class call passes its ``__init__``'s parameters, or its dataclass fields
(an ``init=False`` field is no parameter). A ``cls(...)`` call inside a
classmethod is a call of its class.

No class defines an ``as_dict`` method: a report is the plain dict that
the code computing it builds, not an object copied into one.

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


# Passed by no call of the package, and kept as a seam that tests set.
UNPASSED_ON_PURPOSE = {
    "features.extract_metadata(lex)": "tests score sentiment with a lexicon of their own",
    "evalkit.feature_importance(names)": "the column names that evaluate is to report",
    "ingest.IssueClient(transport)": "tests answer requests with a fake transport",
    "ingest.IssueClient(sleeper)": "tests record the retry waits instead of sleeping",
}
# Not checked: the fitters, which ``learn.fit`` calls through ``**`` with
# the settings that their ``learn.KINDS`` record reads; ``balance_with_smote``,
# to which ``evalkit.fit_classifier`` passes ``smote_k`` through ``**`` when a
# spec sets it; and the records built through ``**`` from a decoded table or
# a config section.
UNPASSED_SKIPPED = ("learn.fit_multinomial_nb", "learn.fit_logreg", "learn.fit_random_forest",
                    "learn.fit_knn", "learn.balance_with_smote",
                    "corpus.IssueRecord", "corpus.UserProfile", "evalkit.ModelSpec",
                    "corpus.FilterConfig")


def _decorated(node: ast.FunctionDef | ast.ClassDef, name: str) -> bool:
    """Whether ``node`` has the decorator ``name``, called or not."""
    return any(getattr(d, "id", None) == name or getattr(getattr(d, "func", None), "id", None)
               == name for d in node.decorator_list)


def _dataclass_fields(node: ast.ClassDef) -> list[tuple[str, bool]]:
    """(name, has a default) of each ``__init__`` field of a dataclass, in
    order: an ``init=False`` field and a ``ClassVar`` are none."""
    fields = []
    for item in node.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(item.annotation):
            continue
        value = item.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            options = {k.arg: k.value for k in value.keywords}
            if getattr(options.get("init"), "value", True) is False:
                continue
            fields.append((item.target.id, bool({"default", "default_factory"} & set(options))))
        else:
            fields.append((item.target.id, value is not None))
    return fields


def _defaulted(tree: ast.Module) -> list[tuple[str, str, int | None]]:
    """(called name, parameter, its call position) of each defaulted
    parameter of a top-level function or method, and of each defaulted
    field of a top-level dataclass; a keyword-only one has no position, a
    method's first parameter takes none, and ``__init__`` and a dataclass
    are called by the class's name."""
    found = []

    def add(fn: ast.FunctionDef, called: str, bound: int) -> None:
        positional = fn.args.posonlyargs + fn.args.args
        first = len(positional) - len(fn.args.defaults)
        found.extend((called, arg.arg, i - bound)
                     for i, arg in enumerate(positional) if i >= first)
        found.extend((called, arg.arg, None)
                     for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                     if default is not None)

    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            add(node, node.name, 0)
        elif isinstance(node, ast.ClassDef):
            if _decorated(node, "dataclass"):
                found.extend((node.name, name, i)
                             for i, (name, default) in enumerate(_dataclass_fields(node))
                             if default)
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    add(item, node.name if item.name == "__init__" else item.name,
                        0 if _decorated(item, "staticmethod") else 1)
    return found


def _class_calls(tree: ast.Module) -> dict[ast.Call, str]:
    """Each call of a classmethod's first parameter -> the class's name."""
    calls = {}
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if (isinstance(method, ast.FunctionDef) and _decorated(method, "classmethod")
                    and method.args.args):
                first = method.args.args[0].arg
                calls.update((node, cls.name) for node in ast.walk(method)
                             if isinstance(node, ast.Call)
                             and getattr(node.func, "id", None) == first)
    return calls


def _passed(tree: ast.Module, passes: dict[str, tuple[int, set[str]]]) -> None:
    """Add each call of ``tree`` to ``passes``: called name -> (the most
    positional arguments of any call, every keyword given). A ``*`` argument
    fills every position; a ``**`` one names no keyword."""
    class_calls = _class_calls(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = (class_calls.get(node) or getattr(node.func, "id", None)
                    or getattr(node.func, "attr", None))
            most, keywords = passes.get(name, (0, set()))
            given = (float("inf") if any(isinstance(a, ast.Starred) for a in node.args)
                     else len(node.args))
            passes[name] = (max(most, given), keywords | {k.arg for k in node.keywords})


def unpassed(sources: dict[str, str], callers: list[str]) -> list[str]:
    """``module.function(parameter)`` for each defaulted parameter of the
    ``sources`` modules that no call in them or in ``callers`` passes."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    passes: dict[str, tuple[int, set[str]]] = {}
    for tree in [*trees.values(), *map(ast.parse, callers)]:
        _passed(tree, passes)
    found = []
    for module, tree in trees.items():
        for called, param, position in _defaulted(tree):
            most, keywords = passes.get(called, (0, set()))
            if param not in keywords and (position is None or position >= most):
                found.append(f"{module}.{called}({param})")
    return found


def test_checker_flags_an_unpassed_default():
    sources = {"a": "def f(x, y=1, z=2, *, w=3):\n    pass\n\n\n"
                    "class Box:\n    def __init__(self, size=0):\n        pass\n\n"
                    "    def grow(self, by=1):\n        pass\n\n"
                    "    @staticmethod\n    def make(size=0):\n        pass\n",
               "b": "from a import f\n\n\ndef g():\n    f(0, 5, **{'w': 4})\n"}
    assert unpassed(sources, []) == ["a.f(z)", "a.f(w)", "a.Box(size)", "a.grow(by)",
                                     "a.make(size)"]
    callers = ["f(0, z=1, w=2)\nBox(3).grow(2)\nBox.make(*sizes)\n"]
    assert unpassed(sources, callers) == []


def test_checker_flags_an_unpassed_dataclass_field():
    sources = {"a": "from dataclasses import dataclass, field\n\n\n"
                    "@dataclass(frozen=True)\nclass Box:\n    size: int\n    tag: str = ''\n"
                    "    hits: list = field(default_factory=list)\n"
                    "    cache: dict = field(default_factory=dict, init=False)\n"
                    "    kind: ClassVar[str] = 'box'\n\n"
                    "    @classmethod\n    def make(cls, size):\n        return cls(size, 'x')\n"
                    "\n\nclass Plain:\n    size: int = 0\n"}
    assert unpassed(sources, []) == ["a.Box(hits)"]
    assert unpassed(sources, ["Box(1, hits=[])\n"]) == []


def test_every_default_is_passed():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    callers = [path.read_text(encoding="utf-8")
               for path in [*PACKAGE.glob("*.py"), *PERFBENCH.glob("*.py")]]
    found = [name for name in unpassed(sources, callers)
             if name.split("(")[0] not in UNPASSED_SKIPPED]
    assert sorted(found) == sorted(UNPASSED_ON_PURPOSE), found


def as_dict_methods(source: str) -> list[str]:
    """``Class.as_dict`` for each class, nested ones too, that defines an
    ``as_dict`` method."""
    return [f"{node.name}.as_dict" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, ast.FunctionDef) and item.name == "as_dict"]


def test_checker_flags_an_as_dict_method():
    source = ("class Report:\n    def as_dict(self):\n        return {}\n\n\n"
              "def as_dict(report):\n    return {}\n\n\n"
              "class Outer:\n    as_dict = None\n\n"
              "    class Inner:\n        def as_dict(self):\n            return {}\n")
    assert as_dict_methods(source) == ["Report.as_dict", "Inner.as_dict"]


def test_no_class_defines_as_dict():
    found = {path.name: as_dict_methods(path.read_text(encoding="utf-8"))
             for path in PACKAGE.glob("*.py")}
    assert {name: methods for name, methods in found.items() if methods} == {}


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
