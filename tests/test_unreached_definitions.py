"""Every definition under ``src/`` is reached from outside the tests.

A stdlib dead-code check beside the unused-import one.  Each top-level
function and class under ``src/``, and each method of a top-level
class, must be named somewhere in ``src/`` (the CLI included),
``benchmarks/``, ``perfbench/``, ``scripts/`` or ``examples/``: as a
name, an attribute, or a string constant equal to it (perfbench wraps
functions by name).  Tests do not count, and neither do ``__all__``
lists or imports, so a definition that only its own tests call fails.

The match is by bare name, so it is coarse: a method is reached as soon
as any attribute of that name is read anywhere, except from inside a
function of that same name (a method delegating to its namesake on
another class, or calling itself, reaches neither).  Dunder methods are
exempt; so are the few names below.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import FrozenSet, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REACHING = ("src", "benchmarks", "perfbench", "scripts", "examples")

#: Public API with no caller in the repository.
PUBLIC_API = {
    "quickstart_predict",  # the package's one-call entry point (``repro.__all__``)
    # The paper's §2 profile reuse: a 16-way profile serves an 8-way LLC
    # of the same sets without re-simulation.
    "repro/profiling/profile.py:SingleCoreProfile:reduced_associativity",
}

#: Per-access reference witnesses that only tests and guards call; they
#: are to leave ``src/`` for a test-support package together.
WITNESSES = {
    "repro/caches/set_associative.py",
    "repro/caches/hierarchy.py",
    "repro/caches/stack_distance.py:StackDistanceProfiler",
}


def definitions(path: Path, root: Path = SRC) -> Iterator[Tuple[str, str, int]]:
    """``(name, location, line)`` of each top-level def/class and each method."""
    module = path.relative_to(root).as_posix()
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield node.name, module, node.lineno
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield member.name, f"{module}:{node.name}", member.lineno


def references(tree: ast.Module) -> Set[str]:
    """Names, attribute names and identifier-like strings a module uses.

    A reference in the body of a function of the same name is left out.
    """
    exports = {
        id(element)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets)
        for element in ast.walk(node.value)
    }
    names: Set[str] = set()
    # (node, names of the functions whose bodies enclose it)
    stack: List[Tuple[ast.AST, FrozenSet[str]]] = [(tree, frozenset())]
    while stack:
        node, enclosing = stack.pop()
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
            and id(node) not in exports
        ):
            name = node.value
        if name is not None and name not in enclosing:
            names.add(name)
        body: Set[int] = set()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = {id(statement) for statement in node.body}
        for child in ast.iter_child_nodes(node):
            stack.append((child, enclosing | {node.name} if id(child) in body else enclosing))
    return names


def unreached(root: Path = ROOT, exempt: Set[str] = frozenset()) -> List[str]:
    """``location:line: name`` for every definition under ``root/src`` nothing names."""
    reached: Set[str] = set()
    for directory in REACHING:
        for path in sorted((root / directory).rglob("*.py")):
            reached |= references(ast.parse(path.read_text()))
    out = []
    for path in sorted((root / "src").rglob("*.py")):
        for name, location, line in definitions(path, root / "src"):
            if name.startswith("__") and name.endswith("__"):
                continue
            keys = {name, f"{location}:{name}", location, location.partition(":")[0]}
            if name in reached or keys & exempt:
                continue
            out.append(f"{location}:{line}: {name}")
    return out


def test_every_definition_under_src_is_reached():
    assert len(list(SRC.rglob("*.py"))) > 50
    missing = unreached(exempt=PUBLIC_API | WITNESSES)
    assert not missing, "\n".join(missing)


def test_the_check_sees_an_unreached_definition_and_its_exemptions(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from pkg.core import used, exported\n__all__ = ['exported']\n"
    )
    (package / "core.py").write_text(
        "def used():\n    return Box().size, Wide\n"
        "def exported():\n    return 1\n"
        "def wrapped_by_name():\n    return 2\n"
        "def kept():\n    return 3\n"
        "class Box:\n"
        "    def __init__(self):\n        self.items = []\n"
        "    @property\n    def size(self):\n        return 0\n"
        "    def only_tested(self):\n        return 4\n"
        "class Wide:\n"
        "    def fold(self):\n        return Narrow().fold()\n"
        "class Narrow:\n"
        "    def fold(self):\n        return 5\n"
        "    def spare(self):\n        return 6\n"
        "def countdown(n):\n    return countdown(n - 1) if n else 0\n"
        "used()\n"
    )
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "wrap.py").write_text("getattr(object, 'wrapped_by_name')\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_core.py").write_text("from pkg.core import Box\nBox().only_tested()\n")
    # Each ``fold`` is named only inside a ``fold`` (a delegation), and
    # ``countdown`` only inside itself: none of them is reached.
    assert unreached(tmp_path, exempt={"kept", "pkg/core.py:Narrow:spare"}) == [
        "pkg/core.py:3: exported",
        "pkg/core.py:Box:15: only_tested",
        "pkg/core.py:Wide:18: fold",
        "pkg/core.py:Narrow:21: fold",
        "pkg/core.py:25: countdown",
    ]
