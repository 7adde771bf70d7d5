"""Every public top-level name that a module of src/nonrecip defines is
used by the program: loaded as a Name or an Attribute node outside its own
definition, somewhere in src/ or perfbench/.  So is every public method
and property of a src/ class with no base class; an override, such as an
argparse hook, is called by its base and left out.  A name that only the
tests use belongs in tests/, as the references there do."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROGRAM = sorted((ROOT / "src" / "nonrecip").glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py"))


def defined(statement) -> list[str]:
    """The public names that a top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, ast.Assign):
        names = [t.id for t in statement.targets if isinstance(t, ast.Name)]
    elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        names = [statement.target.id]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def members(statement) -> list:
    """The public methods and properties of a top-level class with no
    base class."""
    if not isinstance(statement, ast.ClassDef) or statement.bases:
        return []
    return [node for node in statement.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")]


def loaded(statement) -> set[str]:
    """The names and attributes that a statement loads, anywhere inside it."""
    names = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def unused_names() -> list[str]:
    """The qualified names of the definitions that nothing else loads.  A
    top-level name may be loaded by any other top-level statement, a
    method by any other top-level statement or any other statement of its
    class's body."""
    definitions, uses = [], []
    for path in PROGRAM:
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            uses.append((statement, loaded(statement)))
            if isinstance(statement, ast.ClassDef):
                uses += [(node, loaded(node)) for node in statement.body]
            if path.parent.name != "nonrecip":
                continue
            body = statement.body if isinstance(statement, ast.ClassDef) else []
            definitions += [(f"{path.stem}.{name}", name, {statement, *body})
                            for name in defined(statement)]
            definitions += [(f"{path.stem}.{statement.name}.{node.name}", node.name,
                             {statement, node}) for node in members(statement)]
    assert definitions
    return [qualified for qualified, name, where in definitions
            if not any(name in names for node, names in uses if node not in where)]


def test_every_public_name_is_used_by_the_program():
    assert unused_names() == []
