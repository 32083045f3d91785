"""Every name the package exports has a caller inside the package.

A caller is a code reference, a ``Name`` or the attribute of an
``Attribute`` node, in a module of ``extmod`` other than ``__init__``, and
outside the ``def`` or ``class`` that defines the name.  Docstrings,
comments and bare imports are not code references.
"""

import ast
from pathlib import Path

import extmod

SRC = Path(extmod.__file__).parent

# exported names with no caller in the package, each with the reason it stays
UNCALLED = {
    "default_params": "bench/test_bench.py builds its algebras with it",
    "counterexample_stage": "run_checks makes the stage from the flashes it has "
                            "already built; calling it would build them twice",
    "flash_multiplicity_at_degree": "the count beside the exclusion probe, "
                                    "waiting for a caller in paper-check",
    "intersect": "aim 1 and item 1's microbench measure it as a kernel",
}


def _exported() -> set[str]:
    tree = ast.parse((SRC / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _referenced(sources) -> set[str]:
    """The names that code in the sources reads, each outside the definitions
    of that name."""
    seen = set()

    def walk(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and node.id not in inside:
            seen.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            seen.add(node.attr)
        for child in ast.iter_child_nodes(node):
            walk(child, inside)

    for source in sources:
        walk(ast.parse(source), frozenset())
    return seen


def test_every_export_has_a_caller_in_the_package():
    modules = [path.read_text() for path in SRC.glob("*.py") if path.name != "__init__.py"]
    uncalled = _exported() - _referenced(modules)
    assert sorted(uncalled - UNCALLED.keys()) == [], "exported with no caller in extmod"
    assert sorted(UNCALLED.keys() - uncalled) == [], "allowed to go uncalled, yet called"


def test_references_ignore_docstrings_comments_imports_and_own_definitions():
    source = ('"""act_image"""\nfrom .x import radical  # op_preimage\n'
              'def f():\n    return f()\n'
              'class C:\n    def g(self):\n        return self.h, C, f\n')
    assert _referenced([source]) == {"self", "h", "f"}
