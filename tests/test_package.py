import ast
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
