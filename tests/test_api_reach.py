"""Every public top-level function and class in the package, and every
public method and property of a public class, is reached by program code:
by another module of the package, a demo or a bench job.  A name that
only tests call is surface nothing runs; it should go, or move into the
tests, unless it is kept on purpose (ALLOWED, with why).

A reference is a Name or Attribute of that name, an `import from` of it,
or a dotted-identifier string constant ending in it (the `FORMS`
constructor strings such as "meier.meier_t_expr", the span targets of
`bench/spans.py`).  `__init__.py` only re-exports, so it is not scanned,
and a definition's own body does not count for it.  Methods are matched
by name alone, so a method shares its references with every attribute of
that name; dunder and `_`-prefixed names are skipped.

An error class (GpforgeError or a subclass) is different: every failure
leaves through `cli.main`'s `except GpforgeError`, so raising a class is
no reason for it to exist.  It is reached only if some `except` clause of
program code names it, i.e. some caller tells it apart from the others."""

import ast
import glob
import os
import re
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "gpforge")

_DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*\Z")

ALLOWED = {
    "is_pinch_free": "the independent pinch scan the Britton normal forms are checked with",
    "bs_canonical": "the unique normal form of BS(m, n) the README documents",
    "InvalidInputError": "the one class for a refused input that library callers catch",
    "SearchBudgetError": "the budget class that README names",
}


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def _references(tree):
    """How often `tree` refers to each name."""
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            counts.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and _DOTTED.match(node.value):
            counts[node.value.rpartition(".")[2]] += 1
    return counts


def _caught(tree):
    """How often an `except` clause of `tree` names each class."""
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            kinds = node.type.elts if isinstance(node.type, ast.Tuple) else (node.type,)
            counts.update(k.id if isinstance(k, ast.Name) else k.attr for k in kinds)
    return counts


def _error_classes(trees):
    """GpforgeError and the names of the classes that derive from it."""
    bases = {
        node.name: {b.id if isinstance(b, ast.Name) else b.attr for b in node.bases}
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    errors = {"GpforgeError"}
    while True:
        more = {name for name, of in bases.items() if of & errors} - errors
        if not more:
            return errors
        errors |= more


def _public_definitions(tree):
    """(qualified name, definition node) for the public top-level functions
    and classes of a module and the public methods of its public classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member


def test_every_public_definition_is_reached_by_program_code():
    modules = [p for p in sorted(glob.glob(os.path.join(SRC, "*.py"))) if os.path.basename(p) != "__init__.py"]
    others = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")) + glob.glob(os.path.join(ROOT, "bench", "*.py")))
    trees = {path: _parse(path) for path in modules + others}
    total, caught = Counter(), Counter()
    for tree in trees.values():
        total.update(_references(tree))
        caught.update(_caught(tree))
    errors = _error_classes(trees[path] for path in modules)
    defined, unreached = set(), []
    for path in modules:
        for qualname, node in _public_definitions(trees[path]):
            defined.add(qualname)
            if qualname in ALLOWED:
                continue
            if qualname in errors:
                reached = caught[qualname] > 0
            else:
                reached = total[node.name] > _references(node)[node.name]
            if not reached:
                unreached.append(f"{os.path.basename(path)}:{qualname}")
    assert not unreached, f"only tests reach: {', '.join(unreached)}"
    assert set(ALLOWED) <= defined, f"allowed but gone: {sorted(set(ALLOWED) - defined)}"
