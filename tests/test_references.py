"""Every public name in ``src/sdelab`` has a caller in ``src/sdelab``.

A public top-level function or class, or a public method, that no module of
the package names is code only tests reach.  The scan is by name: a name
counts as used wherever an identifier or attribute of that name is read, so
it can miss dead code but never flags a name the package uses.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sdelab"

# name -> why it stays without a caller in the package
ALLOWED = {
    "sample_lattice": "perfbench/tracer.py wraps it by name (ROADMAP item 4, step 2)",
    "increments_at": "perfbench/tracer.py wraps it by name (ROADMAP item 4, step 2)",
    "Preset.build": "perfbench/micro.py builds its model with it (ROADMAP item 4, step 2)",
    "step_cir_implicit_milstein": "the paper's displayed formula, which the "
                                  "acceptance tests check",
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(tree: ast.Module):
    """(qualified name, bare name) of each public top-level function and
    class, and of each public method of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _public(item.name):
                        yield f"{node.name}.{item.name}", item.name


def _references(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_name_has_a_caller_in_the_package():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    used = set().union(*(_references(t) for t in trees.values()))
    unused = {
        qualified
        for tree in trees.values()
        for qualified, name in _definitions(tree)
        if name not in used
    }
    assert unused - set(ALLOWED) == set(), "public names no module of the package uses"
    assert set(ALLOWED) <= unused, "allowed names that now have a caller"


def test_the_scan_flags_a_name_only_its_definition_holds():
    tree = ast.parse(
        "def used():\n    pass\n\n\ndef dead():\n    return used()\n\n\n"
        "class Kept:\n    def method(self):\n        return Kept\n"
    )
    refs = _references(tree)
    assert {q for q, name in _definitions(tree) if name not in refs} == {
        "dead", "Kept.method",
    }
