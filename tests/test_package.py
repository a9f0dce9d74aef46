import ast
import importlib
import inspect
from pathlib import Path

import ffheight


def test_star_import_resolves_every_public_name():
    # a stale __all__ entry makes the star import raise AttributeError
    namespace = {}
    exec("from ffheight import *", namespace)
    assert set(ffheight.__all__) <= set(namespace)


def test_no_private_cross_module_imports():
    # an underscore name belongs to its module: a second caller moves it
    # there or makes it public
    offences = []
    for path in sorted(Path(ffheight.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                offences += [
                    f"{path.name}:{node.lineno} from .{node.module} import {a.name}"
                    for a in node.names
                    if a.name.startswith("_")
                ]
    assert not offences


def test_two_exception_classes_and_no_bare_runtime_error():
    # every engine limit raises census.BudgetExceeded and bad text raises
    # ParseError; all other errors are builtin exception types
    classes, bare = [], []
    for path in sorted(Path(ffheight.__file__).parent.glob("*.py")):
        stem = "" if path.stem == "__init__" else f".{path.stem}"
        mod = importlib.import_module(f"ffheight{stem}")
        classes += [
            name
            for name, obj in vars(mod).items()
            if inspect.isclass(obj)
            and issubclass(obj, BaseException)
            and obj.__module__ == mod.__name__
        ]
        if "raise RuntimeError(" in path.read_text():
            bare.append(path.name)
    assert sorted(classes) == ["BudgetExceeded", "ParseError"]
    assert not bare
