"""Every name the package exports, and every public method of ``Field``,
``Matrix`` and ``SubspaceBasis``, has a caller inside the package.

A caller is a code reference in a module of ``extmod`` or of its
subpackage ``extmod.linalg`` other than the top-level ``__init__``, outside
the ``def`` or ``class`` that defines the name.  An export is referenced by
a ``Name`` or by the attribute of an ``Attribute`` node; a method only by
the attribute, so a local variable spelled like a method does not count as
its caller.  Docstrings, comments and bare imports
are not code references.

No module of the package holds an ``assert`` statement: ``python -O`` drops
them, so an invariant check raises ``InternalError`` instead.
"""

import ast
from pathlib import Path
from types import FunctionType

import extmod
from extmod.linalg import Field, Matrix, SubspaceBasis

SRC = Path(extmod.__file__).parent

# exported names with no caller in the package, each with the reason it stays
UNCALLED = {
    "default_params": "bench/test_bench.py builds its algebras with it",
    "flash_multiplicity_at_degree": "the count beside the exclusion probe, "
                                    "waiting for a caller in paper-check",
    "intersect": "aim 1 and item 1's microbench measure it as a kernel",
}

# public methods of the linear-algebra classes with no caller in the package
UNCALLED_METHODS = {
    "Matrix.rref": "bench/tracing.py hooks it as an elimination entry point",
    "SubspaceBasis.contains_vector": "bench/tracing.py hooks it",
}


def _exported() -> set[str]:
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _public_methods() -> dict[str, str]:
    """Each public method, class method or property of the three classes, by its
    qualified name."""
    return {f"{cls.__name__}.{name}": name for cls in (Field, Matrix, SubspaceBasis)
            for name, attr in vars(cls).items() if not name.startswith("_")
            and isinstance(attr, (FunctionType, classmethod, staticmethod, property))}


def _package_modules() -> list[str]:
    # every module of the package and its subpackages, linalg's __init__ too
    return [path.read_text() for path in SRC.rglob("*.py") if path != SRC / "__init__.py"]


def _referenced(sources) -> tuple[set[str], set[str]]:
    """The names and the attributes that code in the sources reads, each
    outside the definitions of that name."""
    names, attrs = set(), set()

    def walk(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and node.id not in inside:
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            attrs.add(node.attr)
        for child in ast.iter_child_nodes(node):
            walk(child, inside)

    for source in sources:
        walk(ast.parse(source), frozenset())
    return names, attrs


def test_every_export_has_a_caller_in_the_package():
    names, attrs = _referenced(_package_modules())
    uncalled = _exported() - names - attrs
    assert sorted(uncalled - UNCALLED.keys()) == [], "exported with no caller in extmod"
    assert sorted(UNCALLED.keys() - uncalled) == [], "allowed to go uncalled, yet called"


def test_every_public_linalg_method_has_a_caller_in_the_package():
    assert {"Field.inv", "Matrix.solve", "SubspaceBasis.dim",
            "SubspaceBasis.zero"} <= _public_methods().keys()
    _, attrs = _referenced(_package_modules())
    uncalled = {qual for qual, name in _public_methods().items() if name not in attrs}
    assert sorted(uncalled - UNCALLED_METHODS.keys()) == [], "public with no caller in extmod"
    assert sorted(UNCALLED_METHODS.keys() - uncalled) == [], "allowed to go uncalled, yet called"


def test_references_ignore_docstrings_comments_imports_and_own_definitions():
    source = ('"""act_image"""\nfrom .x import radical  # op_preimage\n'
              'def f():\n    return f()\n'
              'class C:\n    def g(self):\n        return self.h, C, f\n')
    assert _referenced([source]) == ({"self", "f"}, {"h"})


def test_the_package_holds_no_assert_statement():
    found = [f"{path.relative_to(SRC)}:{node.lineno}" for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert found == []
    assert any(isinstance(node, ast.Assert) for node in ast.walk(ast.parse("assert x")))
