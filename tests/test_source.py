"""Source-level rules for the package."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ktrees"
BROAD = {"Exception", "BaseException"}


def test_no_broad_except():
    """A broad handler can turn a bug into a verdict; catch KTreeError."""
    broad = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ExceptHandler):
                continue
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(t is None or getattr(t, "id", None) in BROAD for t in types):
                broad.append(f"{path.name}:{node.lineno}")
    assert not broad, f"broad except clauses: {broad}"


RECURSION_ALLOWED = set()


def _callee(node):
    """The name a call invokes: `f(...)`, `self.f(...)` or `cls.f(...)`."""
    if not isinstance(node, ast.Call):
        return None
    f = node.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute) and getattr(f.value, "id", None) in ("self", "cls"):
        return f.attr
    return None


def _self_calls(tree, module):
    """Qualified names of the functions that call themselves by name."""
    found = []
    stack = [(tree, module)]
    while stack:
        node, prefix = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef) and child.name in map(
                    _callee, ast.walk(child)
                ):
                    found.append(name)
                stack.append((child, name))
            else:
                stack.append((child, prefix))
    return found


def test_no_self_recursion():
    """Host depth can reach n, far past Python's recursion limit; fold in a
    loop instead."""
    recursive = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        recursive += _self_calls(tree, path.stem)
    assert set(recursive) <= RECURSION_ALLOWED, f"self-recursive: {recursive}"
