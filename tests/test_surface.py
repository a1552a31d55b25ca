"""Dead-surface guard: every module-level function and class in walklab has
a caller in the program.

The program is the package's modules, the perfbench harness and the
acceptance tests; unit tests alone do not keep a name alive, and neither
does a re-export: the package ``__init__`` only imports names and lists
them in ``__all__``, so it is not read.  A name counts as referenced
when another top-level statement of any of those files mentions it as a
name, an attribute, or a string equal to it (perfbench patches functions by
attribute name).  Matching is by name, not by resolved binding, so the guard
errs on the side of keeping code.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "walklab"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

# Names kept although no program code calls them, each with its reason.
KEEP = {
    "total_variation": "the exact Fannes-Audenaert check planned for S(3,2) "
                       "ladders measures T_n with it",
    "tower_height": "tests read the nesting depth of parsed towers with it",
    "random_element": "the property tests of groups, parsing and measures "
                      "draw their random elements with it",
}


def _program_files() -> list[Path]:
    modules = [path for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"]
    return [*modules,
            *sorted((ROOT / "perfbench").glob("*.py")),
            ROOT / "tests" / "test_acceptance.py"]


def _mentions(node: ast.AST) -> Counter:
    out: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out[sub.value] += 1
    return out


def unreferenced() -> list[str]:
    """``module.name`` of each top-level def or class with no reference
    outside its own definition, apart from the ``KEEP`` entries."""
    definitions = []  # (module, name, index of its statement in `mentions`)
    mentions: list[Counter] = []
    for path in _program_files():
        for stmt in ast.parse(path.read_text(), str(path)).body:
            if path.parent == PACKAGE and isinstance(stmt, DEFINITIONS):
                definitions.append((path.stem, stmt.name, len(mentions)))
            mentions.append(_mentions(stmt))
    total = sum(mentions, Counter())
    return [f"{module}.{name}" for module, name, i in definitions
            if name not in KEEP and total[name] == mentions[i][name]]


def test_every_definition_has_a_program_caller():
    assert unreferenced() == []


def test_keep_set_names_live_definitions():
    defined = {stmt.name
               for path in PACKAGE.glob("*.py")
               for stmt in ast.parse(path.read_text()).body
               if isinstance(stmt, DEFINITIONS)}
    assert set(KEEP) <= defined
    assert all(KEEP.values())
