"""Every function and method defined in ``src/gibbscert`` is reached by some command.

Runs every subcommand at tiny sizes for both depths, plus one ``--config``
run and one ``--format text`` run, with a profile hook on every thread, and
compares the functions entered with the ``def`` statements of the package.
A function that no command reaches is either dead code, to be deleted, or a
proof fact that ``verify`` should run.
"""
import ast
import sys
import threading
from pathlib import Path

import gibbscert
from gibbscert.cli import main

PACKAGE = Path(gibbscert.__file__).resolve().parent
MODELS = {
    "n4": ["--x", "2", "--b", "3", "--a", "1,2,3,4,5", "--seed", "3"],
    "n3": ["--x", "1", "--b", "2", "--a", "1,2,3,4", "--seed", "3"],
}


def defined_functions():
    """``(path, qualified name)`` of every ``def`` in the package, named as its code object is."""
    found = set()

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.add((path, prefix + child.name))
                visit(child, f"{prefix}{child.name}.<locals>.", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", path)
            else:
                visit(child, prefix, path)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), "", path)
    return found


def commands(tmp):
    """Every subcommand at tiny sizes for both depths, one ``--config`` run and one ``--format text`` run."""
    config = tmp / "model.cfg"
    config.write_text("x=2\nb=3\na=1,2,3,4,5\n")
    runs = [["constants", "--config", str(config)], ["constants", *MODELS["n3"], "--format", "text"]]
    for name, model in MODELS.items():
        runs += [
            ["constants", *model],
            ["bound", *model, "--t-grid", "0,5"],
            ["min-t", *model, "--epsilon", "1e-3"],
            ["simulate", *model, "--replicas", "200", "--horizon", "5",
             "--dump-trajectory", str(tmp / f"trajectory_{name}.csv")],
            ["verify", *model, "--quick", "--replicas", "200", "--horizon", "20", "--t-grid", "2,5"],
            ["estimate-pi", *model, "--burn-in", "20", "--n-samples", "300", "--thinning", "2"],
        ]
    return [[*argv, "--workers", "1", "--output", str(tmp / "out.csv")] for argv in runs]


def test_every_function_is_reached(tmp_path):
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_qualname))

    codes = []
    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        for argv in commands(tmp_path):
            codes.append(main(argv))
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    assert codes == [0] * len(codes)
    reached = {(Path(path).resolve(), name) for path, name in entered}
    missing = sorted(f"{path.name}:{name}" for path, name in defined_functions() - reached)
    assert not missing, f"defined in src/gibbscert but reached by no command: {missing}"
