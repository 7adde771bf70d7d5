"""src/nonrecip holds only what the program uses, checked two ways.

- Every public top-level name that a module of src/nonrecip defines is
  loaded as a Name or an Attribute node outside its own definition,
  somewhere in src/ or perfbench/.  Tracing cannot see a constant, so
  top-level names are matched statically.
- Every code object compiled from src/nonrecip (module and class bodies,
  functions, methods, properties, lambdas and comprehensions) is entered
  when the package is imported and the commands of COMMANDS run, in this
  process.  An attribute name alone does not tell its owner (a `.tau`
  may load any class's tau), so members are checked by running them.

A name or member that only the tests use belongs in tests/, as the
references there do."""

import ast
import importlib
import sys
import types
from pathlib import Path
from unittest import mock

import nonrecip
from nonrecip.cli import EXIT_FAILURE, EXIT_OK, EXIT_UNATTAINABLE_DRIVE

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
    """The qualified names of the top-level definitions that no other
    top-level statement loads."""
    definitions, uses = [], []
    for path in PROGRAM:
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            uses.append((statement, loaded(statement)))
            if path.parent.name == "nonrecip":
                definitions += [(f"{path.stem}.{name}", name, statement)
                                for name in defined(statement)]
    assert definitions
    return [qualified for qualified, name, where in definitions
            if not any(name in names for node, names in uses if node is not where)]


def test_every_public_name_is_used_by_the_program():
    assert unused_names() == []


def layer_uses(path) -> tuple[bool, bool]:
    """Whether a module of src/nonrecip imports nonrecip.reporting (or a
    name from it), and whether it calls ControlHamiltonian(...)."""
    imports = calls = False
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            imports |= (module.rpartition(".")[2] == "reporting"
                        or any(a.name == "reporting" for a in node.names))
        elif isinstance(node, ast.Import):
            imports |= any(a.name.rpartition(".")[2] == "reporting" for a in node.names)
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            calls |= name == "ControlHamiltonian"
    return imports, calls


def test_each_layer_keeps_to_its_job():
    """Only cli writes files (through reporting), and only devices builds
    a model's Hamiltonian."""
    uses = {path.stem: layer_uses(path)
            for path in sorted((ROOT / "src" / "nonrecip").glob("*.py"))}
    assert [name for name, (imports, _) in uses.items() if imports] == ["cli"]
    assert [name for name, (_, calls) in uses.items() if calls] == ["devices"]


def code_objects() -> dict[tuple, str]:
    """(co_filename, co_firstlineno, co_name) -> module.qualname of every
    code object compiled from the nonrecip package."""
    found = {}
    for path in sorted(Path(nonrecip.__file__).parent.glob("*.py")):
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            found[key] = f"{path.stem}.{getattr(code, 'co_qualname', code.co_name)}"
    return found


def entered(run) -> set[tuple]:
    """The (co_filename, co_firstlineno, co_name) of every code object
    entered while run() runs.  The hook sees calls only: it returns None,
    so no frame is traced line by line."""
    seen = set()

    def hook(frame, event, arg):
        code = frame.f_code
        seen.add((code.co_filename, code.co_firstlineno, code.co_name))

    previous = sys.gettrace()
    sys.settrace(hook)
    try:
        run()
    finally:
        sys.settrace(previous)
    return seen


FULL_QUBIT = "[scenario]\nmodel = full_qubit\n"
# short and strongly coupled, so that a noisy d = 27 run, the one that
# applies E as one factor per site, takes a few thousand steps
SHORT_THREE_LEVEL = ("[scenario]\nmodel = full_three_level\ntau_ns = 29\n"
                     "[coupling]\ng_a_mhz = 50\ng_b_mhz = 50\n")
# (scenario text or None, argv, exit code)
COMMANDS = [
    (FULL_QUBIT, ["design"], EXIT_OK),
    (None, ["solve-lambda"], EXIT_OK),
    (None, ["sweep-lambda"], EXIT_OK),
    (None, ["--model", "ideal", "simulate", "--initial", "ensemble"], EXIT_OK),
    (None, ["simulate", "--initial", "100"], EXIT_OK),
    (None, ["--model", "full_qubit", "--no-noise", "simulate", "--initial", "010"],
     EXIT_OK),
    (None, ["reproduce-fig3"], EXIT_OK),
    (SHORT_THREE_LEVEL, ["simulate"], EXIT_OK),
    ("[scenario]\nlambda = 1.5\n[coupling]\ng_a_mhz = 2\n", ["design"],
     EXIT_UNATTAINABLE_DRIVE),
    (None, ["--model", "bogus", "design"], EXIT_FAILURE),
    ("[nowhere]\n", ["design"], EXIT_FAILURE),
    ("[scenario]\nbogus = 1\n", ["design"], EXIT_FAILURE),
]


def test_every_code_object_is_entered_by_the_program(tmp_path):
    codes = []

    def run():
        # a fresh import, so that what runs at import time is seen too;
        # patch.dict restores sys.modules, and the tests keep the modules
        # that they imported
        for name in [n for n in sys.modules if n.partition(".")[0] == "nonrecip"]:
            del sys.modules[name]
        main = importlib.import_module("nonrecip.cli").main
        for i, (text, argv, _) in enumerate(COMMANDS):
            options = ["--out", str(tmp_path / f"out{i}")]
            if text is not None:
                path = tmp_path / f"scenario{i}.ini"
                path.write_text(text, encoding="utf-8")
                options += ["--config", str(path)]
            try:
                codes.append(main(options + argv))
            except SystemExit as exc:  # argparse's refusals
                codes.append(exc.code)

    with mock.patch.dict(sys.modules):
        seen = entered(run)
    assert codes == [code for _, _, code in COMMANDS]
    found = code_objects()
    missed = sorted(found[key] for key in found.keys() - seen)
    assert not missed, f"never entered: {missed}"
