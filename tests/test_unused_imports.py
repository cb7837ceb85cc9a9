"""No module under ``src/`` imports a name it never uses.

A stdlib stand-in for a linter's unused-import rule (pyflakes' F401),
so the check runs wherever the tests run.  Package ``__init__`` modules
are skipped: their imports are the package's re-exports.  An imported
name counts as used when the module reads it, lists it in ``__all__``,
names it in a string annotation, or imports it on a ``# noqa: F401``
line (a re-export kept on purpose).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set

SRC = Path(__file__).resolve().parent.parent / "src"


def _imported(tree: ast.Module, lines: List[str]) -> Dict[str, int]:
    """Names bound by imports, with their line numbers (noqa lines skipped)."""
    out: Dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name.partition(".")[0]
            out.setdefault(bound, node.lineno)
    return out


def _annotations(tree: ast.Module) -> Iterator[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            for arg in [
                *arguments.posonlyargs,
                *arguments.args,
                *arguments.kwonlyargs,
                arguments.vararg,
                arguments.kwarg,
            ]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> Set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used(ast.parse(node.value, mode="eval"))  # type: ignore[arg-type]
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {
                element.value
                for element in ast.walk(node.value)
                if isinstance(element, ast.Constant) and isinstance(element.value, str)
            }
    return used


def unused_imports(path: Path, root: Path = SRC) -> List[str]:
    """``path:line: name`` for every imported name the module never uses."""
    source = path.read_text()
    tree = ast.parse(source)
    used = _used(tree)
    return [
        f"{path.relative_to(root)}:{line}: {name}"
        for name, line in _imported(tree, source.splitlines()).items()
        if name not in used
    ]


def test_no_module_under_src_has_an_unused_import():
    modules = [path for path in sorted(SRC.rglob("*.py")) if path.name != "__init__.py"]
    assert len(modules) > 50
    unused = [entry for path in modules for entry in unused_imports(path)]
    assert not unused, "\n".join(unused)


def test_the_check_sees_an_unused_import_and_its_exemptions(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from typing import Dict, List, Optional\n"
        "import os.path\n"
        "from json import dumps  # noqa: F401\n"
        "import sys\n"
        "__all__ = ['sys']\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(module, tmp_path) == ["module.py:1: Dict", "module.py:1: List"]
