import ast
import pathlib

import causal_sphhn

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "causal_sphhn"


def definitions(tree: ast.Module, module: str) -> list[tuple[str, str]]:
    """(qualified name, bare name) of every top-level def/class and non-dunder method."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((f"{module}.{node.name}", node.name))
        if isinstance(node, ast.ClassDef):
            found += [
                (f"{module}.{node.name}.{item.name}", item.name)
                for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")
            ]
    return found


def references(tree: ast.Module) -> set[str]:
    """Every name the module loads or reads as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def unreferenced(package: pathlib.Path) -> set[str]:
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in sorted(package.glob("*.py"))}
    used = set().union(*(references(t) for t in trees.values()))
    return {
        qualified
        for module, tree in trees.items()
        for qualified, name in definitions(tree, module)
        if name not in used
    }


def test_every_definition_is_used_or_exported():
    """Each definition in the package is referenced in it by name, or is in ``__all__``.

    A helper only its own tests call belongs in ``tests/`` or nowhere.  A
    name check cannot see two kinds of dead code: dunder methods (Python
    calls ``__pow__`` or ``__rsub__`` from an operator, so a missing name
    proves nothing), and methods whose name the package also reads as an
    attribute of something else, numpy arrays above all: ``Tensor.sum``
    counts as used wherever ``x.sum()`` appears, and so would a ``.log``.
    """
    exported = {
        f"{getattr(causal_sphhn, name).__module__.rsplit('.', 1)[-1]}.{name}"
        for name in causal_sphhn.__all__
    }
    assert unreferenced(PACKAGE) - exported == set()


def test_unused_definitions_are_found(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class A:\n"
        "    def used(self): pass\n"
        "    def dead(self): pass\n"
        "    def __add__(self, o): pass\n"
        "def helper(): return A().used()\n"
        "def orphan(): pass\n"
        "helper()\n"
    )
    assert unreferenced(tmp_path) == {"mod.A.dead", "mod.orphan"}
