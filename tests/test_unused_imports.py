"""No module under ``src/repro`` imports a name it never reads.

No linter ships with the toolchain, so this AST scan is the gate.  It
checks module-level imports of every module except package
``__init__.py`` files (which import to re-export).  A name counts as read
when it appears as a ``Name`` load anywhere in the module or in a string
annotation.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def _bound_names(module: ast.Module):
    """(name, line) for each name bound by a top-level import."""
    for node in module.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno


def _annotations(module: ast.Module):
    for node in ast.walk(module):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            for arg in [*arguments.posonlyargs, *arguments.args,
                        *arguments.kwonlyargs, arguments.vararg,
                        arguments.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _loads(tree: ast.AST):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


def _read_names(module: ast.Module):
    names = _loads(module)
    for annotation in _annotations(module):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= _loads(ast.parse(node.value, mode="eval"))
    return names


def _unused_imports(source: str):
    """(name, line) of each top-level import ``source`` never reads."""
    module = ast.parse(source)
    read = _read_names(module)
    return [(name, line) for name, line in _bound_names(module)
            if name not in read]


def test_scan_sees_an_unused_import():
    source = (
        "from typing import Dict, List, Optional\n"
        "import os.path\n"
        "def f(x: 'Optional[int]') -> List[int]:\n"
        "    return [os.sep]\n"
    )
    assert _unused_imports(source) == [("Dict", 1)]


def test_no_module_imports_a_name_it_never_reads():
    modules = [path for path in sorted(SRC.rglob("*.py"))
               if path.name != "__init__.py"]
    assert modules
    unused = [f"{path.relative_to(SRC.parent)}:{line}: {name}"
              for path in modules
              for name, line in _unused_imports(path.read_text())]
    assert unused == []
