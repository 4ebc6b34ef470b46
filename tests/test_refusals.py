"""Every exception class of ``src/sdelab`` is a ``util.RunError``.

``experiments.run_experiment`` reports a RunError as a config error (exit
2); an exception class outside it would end a parsed config in a traceback.
Two stay outside: ``ConfigError`` is that config error, and ``OracleError``
keeps an exit code of its own, 3.  The scan reads class statements by name,
so it needs no import of the package.
"""

import ast
import builtins
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sdelab"
OUTSIDE = {"RunError", "ConfigError", "OracleError"}


def _ancestors(bases: dict[str, set[str]], name: str) -> set[str]:
    """The names of ``name``'s bases, theirs, and so on."""
    found, todo = set(), [name]
    while todo:
        for base in bases.get(todo.pop(), set()) - found:
            found.add(base)
            todo.append(base)
    return found


def _exception_classes(sources) -> dict[str, bool]:
    """Each top-level class that derives from a builtin exception -> whether
    it derives from ``RunError``; a base is read by its last name, so
    ``util.RunError`` is ``RunError``."""
    bases = {
        node.name: {ast.unparse(b).rsplit(".", 1)[-1] for b in node.bases}
        for text in sources
        for node in ast.parse(text).body
        if isinstance(node, ast.ClassDef)
    }
    exceptions = {n for n in dir(builtins) if isinstance(getattr(builtins, n), type)
                  and issubclass(getattr(builtins, n), BaseException)}
    return {
        name: "RunError" in ancestors
        for name in bases
        if (ancestors := _ancestors(bases, name)) & exceptions
    }


def _strays(sources) -> list[str]:
    """The exception classes other than OUTSIDE that are no RunError, sorted."""
    return sorted(
        n for n, ok in _exception_classes(sources).items() if not ok and n not in OUTSIDE
    )


def test_every_exception_class_of_the_package_is_a_run_error():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert _strays(sources) == []
    assert {"LatticeError", "ModelError", "SchemeError", "EstimatorError"} <= {
        n for n, ok in _exception_classes(sources).items() if ok
    }


def test_the_scan_flags_an_exception_class_outside_run_error():
    source = (
        "class RunError(Exception):\n    pass\n\n\n"
        "class Kept(util.RunError, ValueError):\n    pass\n\n\n"
        "class KeptChild(Kept):\n    pass\n\n\n"
        "class Stray(RuntimeError):\n    pass\n\n\n"
        "class StrayChild(Stray):\n    pass\n\n\n"
        "class OracleError(RuntimeError):\n    pass\n\n\n"
        "class Plain:\n    pass\n"
    )
    assert _strays([source]) == ["Stray", "StrayChild"]
